//! Distributed master/slave runtime over TCP.
//!
//! The paper's platform is two hosts on Gigabit Ethernet: the master and
//! the slaves are separate processes and "the slaves can register
//! themselves in the master" (Fig. 4). This module is that deployment
//! shape: a [`MasterServer`] listens on a socket, slaves connect with
//! [`run_slave`], register, request work, and stream results back. The
//! same [`crate::sched::Scheduler`] as the simulator makes the decisions,
//! and the same [`crate::pool::drive`] loop runs every PE: a TCP session is
//! a remote [`crate::pool::PeEndpoint`], a [`Batch`] fleet member a local
//! one, and one batch may mix both ([`MasterServer::serve`]) or use the
//! fleet alone ([`Batch::run`]).
//!
//! Submodules: `wire` (THE line framer, [`LineReader`] with its
//! [`MAX_LINE`] bound, and the messages), `accept` (THE accept loop,
//! [`Acceptor`] with its [`MAX_SESSIONS`] cap — the serve daemon's client
//! port runs on both too), `session` (the master side of slave
//! connections on the shared drive loop, [`serve_slaves`]), `server` (the
//! batch master: [`MasterServer`], [`Batch`]), `slave` (the slave
//! process, [`run_slave`]).
//!
//! ## Wire protocol (v5)
//!
//! Newline-delimited JSON, one message per line (chosen over a binary
//! format so a session is inspectable with `nc`; at one message per
//! multi-second task, encoding cost is irrelevant — the paper itself notes
//! communication is negligible at this granularity). There is one kind of
//! slave: it holds only the database, and every task arrives
//! self-describing, whether a batch master or a daemon with
//! `--listen-slaves` ships it. A batch task is query *t* over the whole
//! database at [`crate::pool::BATCH_TOP_N`]; a daemon task is a fused query
//! batch over one shard.
//!
//! Slave → master:
//!
//! | message | shape |
//! |---|---|
//! | register | `{"type":"register","name":"host-a","gcups":2.5,"proto":5,"digest":"<16 hex>"}` |
//! | request | `{"type":"request"}` |
//! | started | `{"type":"started","task":3}` |
//! | finished | `{"type":"finished","task":3,"gcups":2.4,"queries":[{"hits":[…],"kernels":{…}},…]}` |
//! | heartbeat | `{"type":"heartbeat"}` |
//!
//! Master → slave:
//!
//! | message | shape |
//! |---|---|
//! | registered | `{"type":"registered","pe_id":1,"proto":5}` |
//! | tasks | `{"type":"tasks","tasks":[4,5],"descs":[…,…]}` (empty when what was assigned finished elsewhere first: ask again) |
//! | execute | `{"type":"execute","task":2,"desc":…}` (a steal or a replica) |
//! | done | `{"type":"done"}` |
//! | error | `{"type":"error","message":"…"}` |
//!
//! The payloads are the pool's own types: a task desc
//! ([`crate::pool::TaskPayload`]) is
//! `{"queries":[{"query":[…],"top_n":10},…],"shard":[s,e]}`, where
//! `[s,e)` are scan positions of the database's stable length order
//! (`seq::DbSnapshot`: ascending length, ties in database order — the same
//! subjects on every peer that holds the database), and
//! `finished` carries a [`crate::pool::TaskResult`]: one
//! [`crate::pool::QueryResult`] per desc query, in order, each with its
//! hits (`simd::search::Hit`:
//! `{"db_index":0,"id":"seq1","score":42,"subject_len":99}`) and kernel
//! counters. The task's own counters are the merge of its queries'.
//! Every field is mandatory.
//!
//! A slave works through a `tasks` package task by task, in the order
//! shipped: `started`, one database pass over every query of the task
//! ([`crate::pool::PeExecutor::scan`]), `finished`. A task of several
//! queries was fused where it was made; the slave never regroups.
//!
//! Both halves of the handshake carry [`PROTOCOL_VERSION`], checked before
//! anything else, so a mismatched pair fails with an error naming both
//! versions. The register `digest` is the slave's
//! [`crate::pool::Identity`]: its database and its scoring scheme. A slave
//! on another database, or with another `--matrix` or `--gap-*`, is
//! refused with a `database or scoring mismatch` error that names the
//! master's scoring. A `finished` whose list does not pair with what was
//! shipped drops the session, told why. So does a line over [`MAX_LINE`]
//! or not UTF-8 (told why during the handshake), as does being one
//! connection over [`MAX_SESSIONS`].
//!
//! ## Long-polled requests (no busy-waiting)
//!
//! A `request` the master cannot serve yet is *held open*: the master
//! answers nothing until an assignment exists (a task finished elsewhere,
//! a PE died and its work was requeued, the registration barrier opened,
//! or the run completed). There is no "wait, ask again" message and no
//! polling loop on either side — the slave blocks on its socket and the
//! master-side drive thread parks on the pool's condvar hub, waking the
//! moment the schedule can have changed.
//!
//! ## Liveness
//!
//! TCP detects a closed peer, not a hung one. Slaves therefore send
//! `heartbeat` lines every [`NetConfig::heartbeat_interval`] (a dedicated
//! thread, so heartbeats flow even mid-kernel), and the master declares a
//! slave dead when *nothing* arrives for [`NetConfig::slave_deadline`]:
//! the connection is dropped and every task the slave held returns to the
//! ready queue (`pe_leaves`), waking the other PEs immediately. The same
//! deadline bounds the registration handshake, so a connection that never
//! says anything cannot pin server state, and every write to a slave (one
//! that stops reading is as dead as one that stops talking). The accept
//! loop blocks on its own thread; [`MasterServer::serve`] itself sleeps on
//! the pool and gives up at [`NetConfig::register_timeout`] (no slave ever
//! came) or [`NetConfig::all_lost_grace`] (every slave gone mid-run).
//! Slaves that lose the connection reconnect with
//! exponential backoff ([`NetConfig::reconnect_backoff_initial`] …
//! [`NetConfig::reconnect_backoff_max`], at most
//! [`NetConfig::reconnect_max_retries`] consecutive failures), re-register
//! and resume — the master admits them as late joiners.

mod accept;
mod server;
mod session;
mod slave;
mod wire;

use std::io;
use std::time::Duration;

use swhybrid_simd::engine::KernelStats;
use swhybrid_simd::search::{merge_top_n, Hit};

pub use accept::{Acceptor, MAX_SESSIONS};
pub use server::{Batch, MasterServer};
pub use session::serve_slaves;
pub use slave::run_slave;
pub use wire::{
    decode, kernels_from_json, kernels_to_json, write_line, LineReader, MasterMsg, SlaveMsg, Wire,
    MAX_LINE, PROTOCOL_VERSION,
};

/// Timing and fault-tolerance knobs of the TCP runtime. The defaults are
/// conservative LAN values; every test that injects faults tightens them.
/// Consistency is checked by [`NetConfig::validate`] wherever a config
/// enters the runtime ([`MasterServer::bind_with`], [`run_slave`],
/// `serve --listen-slaves`).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How often a slave sends a heartbeat line while connected.
    pub heartbeat_interval: Duration,
    /// Master-side silence budget: a slave from which *nothing* (heartbeat
    /// or protocol message) arrives for this long is declared dead and its
    /// tasks are requeued. Also bounds the registration handshake.
    pub slave_deadline: Duration,
    /// How long [`MasterServer::serve`] waits for the expected number of
    /// slaves. On expiry with at least one registration the barrier opens
    /// and the run proceeds degraded; with none, `serve` fails with
    /// [`io::ErrorKind::TimedOut`]. `None` waits forever (pre-hardening
    /// behaviour).
    pub register_timeout: Option<Duration>,
    /// How long the master tolerates having zero live connections mid-run
    /// before giving up with [`io::ErrorKind::ConnectionAborted`].
    pub all_lost_grace: Duration,
    /// First reconnect delay after a slave loses its connection.
    pub reconnect_backoff_initial: Duration,
    /// Upper bound for the (doubling) reconnect delay.
    pub reconnect_backoff_max: Duration,
    /// Consecutive failed reconnect attempts a slave makes before giving
    /// up. The budget refills whenever a session makes progress.
    pub reconnect_max_retries: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            heartbeat_interval: Duration::from_millis(250),
            slave_deadline: Duration::from_secs(2),
            register_timeout: Some(Duration::from_secs(30)),
            all_lost_grace: Duration::from_secs(10),
            reconnect_backoff_initial: Duration::from_millis(50),
            reconnect_backoff_max: Duration::from_secs(2),
            reconnect_max_retries: 5,
        }
    }
}

impl NetConfig {
    /// Check the knobs for consistency, failing early with
    /// [`io::ErrorKind::InvalidInput`] instead of silently configuring a
    /// pool that declares live slaves dead (a `slave_deadline` at or below
    /// the heartbeat interval would do exactly that).
    pub fn validate(&self) -> io::Result<()> {
        let bad = |message: String| Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        if self.heartbeat_interval.is_zero() {
            return bad("heartbeat_interval must be non-zero".to_string());
        }
        if self.slave_deadline <= self.heartbeat_interval {
            return bad(format!(
                "slave_deadline ({:?}) must exceed heartbeat_interval ({:?}); otherwise a \
                 live, heartbeating slave is declared dead",
                self.slave_deadline, self.heartbeat_interval
            ));
        }
        if self.all_lost_grace.is_zero() {
            return bad("all_lost_grace must be non-zero".to_string());
        }
        if self.register_timeout == Some(Duration::ZERO) {
            return bad("register_timeout must be non-zero (use None to wait forever)".to_string());
        }
        Ok(())
    }
}

/// Outcome of one batch run (master side), whichever mix of local fleet
/// and remote slaves carried it.
#[derive(Debug)]
pub struct DistributedOutcome {
    /// Wall-clock seconds from first registration to last completion.
    pub elapsed_seconds: f64,
    /// Useful DP cells.
    pub total_cells: u64,
    /// Useful GCUPS.
    pub gcups: f64,
    /// Globally merged hits.
    pub hits: Vec<QueryHit>,
    /// For each task, the name of the PE (slave or local fleet member)
    /// whose result was used.
    pub completed_by: Vec<String>,
    /// Kernel-family counters merged across every slave completion
    /// (losing replicas included — they are work the platform really did),
    /// in the shape `search` prints on its `kernel auto:` line.
    pub kernels: KernelStats,
    /// Kernel counters per PE, `(name, counters)`, for PEs that reported
    /// any.
    pub kernels_by_pe: Vec<(String, KernelStats)>,
}

/// One merged hit of a batch run, tagged with its query index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHit {
    /// Index of the query in the query set.
    pub query_index: usize,
    /// The database hit.
    pub hit: Hit,
}

/// Merge per-task hit lists into a global ranking (the master's "merge
/// results" step of Fig. 4), best score first.
///
/// Per-query ranking is delegated to [`merge_top_n`] — the workspace's one
/// canonical merge (score descending, database order ascending) — and the
/// cross-query interleave is a *stable* sort on (score descending, query
/// index ascending). Stability preserves the per-query db-ascending order
/// inside ties, so the overall order is (score desc, query asc, db asc):
/// byte-identical to merging everything with a single three-key
/// comparator, but with exactly one implementation of the ranking rule.
pub fn merge_hits(per_task: impl IntoIterator<Item = (usize, Vec<Hit>)>) -> Vec<QueryHit> {
    let mut by_query: std::collections::BTreeMap<usize, Vec<Vec<Hit>>> =
        std::collections::BTreeMap::new();
    for (query_index, hits) in per_task {
        by_query.entry(query_index).or_default().push(hits);
    }
    let mut all: Vec<QueryHit> = by_query
        .into_iter()
        .flat_map(|(query_index, lists)| {
            merge_top_n(lists, usize::MAX)
                .into_iter()
                .map(move |hit| QueryHit { query_index, hit })
        })
        .collect();
    all.sort_by(|a, b| {
        b.hit
            .score
            .cmp(&a.hit.score)
            .then(a.query_index.cmp(&b.query_index))
    });
    all
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use super::wire::{decode, send, Wire};
    use super::*;
    use crate::policy::Policy;
    use crate::pool::{query_tasks, task_spec, BATCH_TOP_N};
    use crate::pool::{Identity, PeExecutor, QueryPayload, QueryResult, TaskPayload, TaskResult};
    use crate::sched::MasterConfig;
    use crate::task::TaskId;
    use crate::trace::{EventKind, RuntimeEvent};
    use swhybrid_align::scoring::Scoring;
    use swhybrid_device::fleet::FleetPe;
    use swhybrid_device::task::TaskSpec;
    use swhybrid_seq::sequence::EncodedSequence;
    use swhybrid_seq::synth::{paper_database, QueryOrder, QuerySetSpec};
    use swhybrid_seq::{Alphabet, DbSnapshot};

    fn scoring() -> Scoring {
        Scoring {
            matrix: swhybrid_align::scoring::SubstMatrix::blosum62(),
            gap: swhybrid_align::scoring::GapModel::Affine {
                open: 10,
                extend: 2,
            },
        }
    }

    fn tiny_workload() -> (Vec<EncodedSequence>, DbSnapshot, Vec<TaskSpec>) {
        let subjects = paper_database("dog")
            .unwrap()
            .generate_scaled(77, 0.001)
            .encode_all()
            .unwrap();
        let db = DbSnapshot::from_encoded("dog", &subjects);
        let queries: Vec<EncodedSequence> = QuerySetSpec {
            count: 6,
            min_len: 40,
            max_len: 120,
            order: QueryOrder::Ascending,
        }
        .generate(78)
        .iter()
        .map(|q| EncodedSequence::from_sequence(q, Alphabet::Protein).unwrap())
        .collect();
        let whole = (0, db.len());
        let specs = queries
            .iter()
            .map(|q| task_spec(&db, whole, [q.len()]))
            .collect();
        (queries, db, specs)
    }

    /// A batch that only slaves compute.
    fn batch<'a>(
        queries: &'a [EncodedSequence],
        db: &'a DbSnapshot,
        scoring: &'a Scoring,
    ) -> Batch<'a> {
        Batch {
            tasks: query_tasks(queries, db),
            db,
            scoring,
            fleet: Vec::new(),
        }
    }

    type Events = Arc<Mutex<Vec<RuntimeEvent>>>;

    /// `server`, with its event stream collected for the test to read.
    fn tap(server: MasterServer) -> (MasterServer, Events) {
        let seen = Events::default();
        let sink = Arc::clone(&seen);
        let server = server.with_event_sink(move |e| sink.lock().unwrap().push(e.clone()));
        (server, seen)
    }

    /// What the batch master must merge for `queries`: each query's
    /// one-shot table at the one batch depth, keyed for comparison.
    fn one_shot_key(queries: &[EncodedSequence], db: &DbSnapshot) -> Vec<(usize, usize, i32)> {
        let scoring = scoring();
        let mut pe = PeExecutor::new(&scoring);
        let mut v: Vec<(usize, usize, i32)> = queries
            .iter()
            .enumerate()
            .flat_map(|(qi, q)| {
                let payload = TaskPayload {
                    queries: vec![QueryPayload {
                        query: q.codes.clone(),
                        top_n: BATCH_TOP_N,
                    }],
                    shard: (0, db.len()),
                };
                let hits = pe.scan(db, &payload).unwrap().queries.remove(0).hits;
                hits.into_iter().map(move |h| (qi, h.db_index, h.score))
            })
            .collect();
        v.sort_unstable();
        v
    }

    fn key(hits: &[QueryHit]) -> Vec<(usize, usize, i32)> {
        let mut v: Vec<(usize, usize, i32)> = hits
            .iter()
            .map(|h| (h.query_index, h.hit.db_index, h.hit.score))
            .collect();
        v.sort_unstable();
        v
    }

    fn hit() -> Hit {
        Hit {
            db_index: 1,
            id: "s1".into(),
            score: -7, // scores can be negative; as_i64, not as_u64
            subject_len: 99,
        }
    }

    fn payload() -> TaskPayload {
        TaskPayload {
            queries: vec![
                QueryPayload {
                    query: vec![0, 3, 19, 2],
                    top_n: 10,
                },
                QueryPayload {
                    query: vec![5, 7],
                    top_n: 3,
                },
            ],
            shard: (128, 256),
        }
    }

    #[test]
    fn wire_messages_round_trip() {
        let kernels = swhybrid_simd::engine::KernelStats {
            resolved_i8: 5,
            interseq_i8: 40,
            interseq_i16: 2,
            chunks_striped: 1,
            chunks_interseq: 3,
            cells_computed: 12_345,
            ..Default::default()
        };
        let slave_msgs = vec![
            SlaveMsg::Register {
                name: "host-a/core0".into(),
                gcups: 2.7,
                // Deliberately above 2^53: must survive the trip exactly
                // (hence the hex-string encoding, not a JSON number).
                digest: 0xdead_beef_cafe_f00d,
            },
            SlaveMsg::Request,
            SlaveMsg::Started { task: 3 },
            SlaveMsg::Finished {
                task: 3,
                result: TaskResult {
                    gcups: Some(2.5),
                    queries: vec![
                        QueryResult {
                            hits: vec![hit()],
                            kernels,
                        },
                        QueryResult::default(),
                    ],
                },
            },
            SlaveMsg::Heartbeat,
        ];
        let mut buf = Vec::new();
        for m in &slave_msgs {
            send(&mut buf, m).unwrap();
        }
        let mut reader = LineReader::new(buf.as_slice());
        for _ in 0..slave_msgs.len() {
            assert!(reader.next_msg::<SlaveMsg>().unwrap().is_some());
        }
        assert!(reader.next_msg::<SlaveMsg>().unwrap().is_none());

        let master_msgs = vec![
            MasterMsg::Registered { pe_id: 1 },
            MasterMsg::Tasks {
                tasks: vec![(7, payload()), (4, payload())],
            },
            MasterMsg::Execute {
                task: 2,
                desc: payload(),
            },
            MasterMsg::Done,
            MasterMsg::Error {
                message: "nope".into(),
            },
        ];
        let mut buf = Vec::new();
        for m in &master_msgs {
            send(&mut buf, m).unwrap();
        }
        let mut reader = LineReader::new(buf.as_slice());
        for _ in 0..master_msgs.len() {
            assert!(reader.next_msg::<MasterMsg>().unwrap().is_some());
        }
        // The register round-trip preserves the digest verbatim.
        match decode::<SlaveMsg>(&slave_msgs[0].to_json().to_string()).unwrap() {
            SlaveMsg::Register { digest, .. } => assert_eq!(digest, 0xdead_beef_cafe_f00d),
            other => panic!("wrong decode: {other:?}"),
        }
        // The finished round-trip preserves every per-query entry, in
        // order, and the task's counters are their merge.
        let msg = decode::<SlaveMsg>(&slave_msgs[3].to_json().to_string()).unwrap();
        match msg {
            SlaveMsg::Finished { task, result } => {
                assert_eq!(task, 3);
                assert!((result.gcups.unwrap() - 2.5).abs() < 1e-12);
                assert_eq!(result.queries.len(), 2);
                assert_eq!(result.queries[0].hits, vec![hit()]);
                assert_eq!(result.queries[0].kernels, kernels);
                assert_eq!(result.queries[1], QueryResult::default());
                assert_eq!(result.kernels(), kernels);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Tasks round-trip the fused query batch and shard bounds of each
        // task, preserving task and batch order.
        match decode::<MasterMsg>(&master_msgs[1].to_json().to_string()).unwrap() {
            MasterMsg::Tasks { tasks } => {
                assert_eq!(tasks, vec![(7, payload()), (4, payload())]);
                let desc = &tasks[0].1;
                assert_eq!(desc.queries[0].query, vec![0, 3, 19, 2]);
                assert_eq!(desc.queries[0].top_n, 10);
                assert_eq!(desc.queries[1].query, vec![5, 7]);
                assert_eq!(desc.queries[1].top_n, 3);
                assert_eq!(desc.shard, (128, 256));
            }
            other => panic!("wrong decode: {other:?}"),
        }
        match decode::<MasterMsg>(&master_msgs[2].to_json().to_string()).unwrap() {
            MasterMsg::Execute { task, desc } => assert_eq!((task, desc), (2, payload())),
            other => panic!("wrong decode: {other:?}"),
        }
        // A v1 handshake (no proto, no digest) is a clear version error,
        // not a complaint about a field v1 never had.
        let v1 = r#"{"type":"register","name":"old","gcups":1.0}"#;
        let err = decode::<SlaveMsg>(v1).unwrap_err().to_string();
        assert!(
            err.contains("protocol version mismatch") && err.contains("v1"),
            "{err}"
        );
        let v1 = r#"{"type":"registered","pe_id":0}"#;
        let err = decode::<MasterMsg>(v1).unwrap_err().to_string();
        assert!(
            err.contains("protocol version mismatch") && err.contains("v1"),
            "{err}"
        );
    }

    #[test]
    fn malformed_lines_decode_to_invalid_data() {
        // The last case is one line of open brackets: a parse error (the
        // session is dropped), not a stack overflow.
        let deep = "[".repeat(200_000);
        for bad in [
            "",
            "not json",
            "{\"type\":\"warp\"}",
            "{\"type\":\"started\"}",
            "{\"type\":\"register\",\"name\":\"x\",\"gcups\":1.0,\"db_digest\":12}",
            deep.as_str(),
        ] {
            let err = decode::<SlaveMsg>(bad).unwrap_err();
            let shown = &bad[..bad.len().min(60)];
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "input: {shown:?}");
        }
    }

    #[test]
    fn netconfig_validation_rejects_inconsistent_timings() {
        assert!(NetConfig::default().validate().is_ok());
        let cases = [
            NetConfig {
                heartbeat_interval: Duration::ZERO,
                ..NetConfig::default()
            },
            NetConfig {
                // A deadline at or below the heartbeat interval declares
                // live slaves dead.
                heartbeat_interval: Duration::from_secs(10),
                slave_deadline: Duration::from_secs(2),
                ..NetConfig::default()
            },
            NetConfig {
                all_lost_grace: Duration::ZERO,
                ..NetConfig::default()
            },
            NetConfig {
                register_timeout: Some(Duration::ZERO),
                ..NetConfig::default()
            },
        ];
        for (i, bad) in cases.iter().enumerate() {
            let err = bad.validate().unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "case {i} must be rejected"
            );
        }
        // The error path reaches the public entry points.
        let err =
            MasterServer::bind_with("127.0.0.1:0", MasterConfig::default(), 1, cases[1].clone())
                .err()
                .expect("inconsistent timings must fail bind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = run_slave(
            "127.0.0.1:1", // never reached: validation fails first
            "bad",
            1.0,
            &DbSnapshot::from_encoded("", &[]),
            &scoring(),
            &cases[0],
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn distributed_run_two_slaves_over_tcp() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::pss_default(),
                adjustment: true,
                dispatch: Default::default(),
            },
            2,
        )
        .unwrap();
        let (server, events) = tap(server);
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            for name in ["host-a", "host-b"] {
                scope.spawn(move || {
                    run_slave(addr, name, 1.0, s, &scoring(), &NetConfig::default())
                        .expect("slave runs clean")
                });
            }
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server completes")
        });

        assert_eq!(outcome.completed_by.len(), 6);
        assert!(outcome
            .completed_by
            .iter()
            .all(|n| n == "host-a" || n == "host-b"));
        assert!(outcome.gcups > 0.0);
        // The run produced an event stream ending in completion.
        assert!(events
            .lock()
            .unwrap()
            .iter()
            .any(|e| e.kind == EventKind::RunCompleted));
        // Slaves reported kernel counters and the server aggregated them:
        // every scanned cell is accounted for, globally and per slave.
        assert!(outcome.kernels.cells_computed > 0);
        assert!(!outcome.kernels_by_pe.is_empty());
        let by_pe_cells: u64 = outcome
            .kernels_by_pe
            .iter()
            .map(|(_, k)| k.cells_computed)
            .sum();
        assert_eq!(by_pe_cells, outcome.kernels.cells_computed);
        for (name, _) in &outcome.kernels_by_pe {
            assert!(name == "host-a" || name == "host-b");
        }
        // Hits match a direct local computation.
        for qh in &outcome.hits {
            let expect = swhybrid_align::score_only::sw_score_affine(
                &queries[qh.query_index].codes,
                db.residues(qh.hit.db_index),
                &scoring(),
            )
            .score;
            assert_eq!(qh.hit.score, expect);
        }
    }

    #[test]
    fn hybrid_fleet_and_remote_slave_share_one_pool() {
        use swhybrid_device::FleetSpec;
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::pss_default(),
                adjustment: true,
                dispatch: Default::default(),
            },
            1,
        )
        .unwrap();
        let (server, events) = tap(server);
        let addr = server.local_addr().unwrap();
        let batch = Batch {
            fleet: FleetSpec::parse("gpu:1+sse:1").unwrap().build(),
            ..batch(&queries, &db, &sc)
        };

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || {
                run_slave(addr, "remote-a", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("slave runs clean")
            });
            server.serve(batch).expect("server completes")
        });

        // All three PE kinds — modeled GPU, local SIMD, remote slave —
        // registered into the same pool and every winner is one of them.
        assert_eq!(outcome.completed_by.len(), 6);
        let names = ["gpu0", "sse0", "remote-a"];
        assert!(outcome
            .completed_by
            .iter()
            .all(|n| names.contains(&n.as_str())));
        let events = events.lock().unwrap();
        let registered: Vec<String> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::PeRegistered { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        for n in names {
            assert!(registered.iter().any(|r| r == n), "{n} never registered");
        }
        // The modeled PE's completions quote the calibrated model.
        use swhybrid_device::{Device, DeviceKind};
        let device = Device::new("gpu0", DeviceKind::Gpu);
        let gpu_pe = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::PeRegistered { pe, name, .. } if name == "gpu0" => Some(*pe),
                _ => None,
            })
            .unwrap();
        let (_, _, wl_specs) = tiny_workload();
        for e in events.iter() {
            if let EventKind::TaskFinished {
                pe,
                task,
                measured_gcups,
                ..
            } = e.kind
            {
                if pe == gpu_pe {
                    assert_eq!(measured_gcups, device.task_gcups(&wl_specs[task]));
                }
            }
        }
        // Hits match a direct computation — modeled speed never touches
        // the scores.
        for qh in &outcome.hits {
            let expect = swhybrid_align::score_only::sw_score_affine(
                &queries[qh.query_index].codes,
                db.residues(qh.hit.db_index),
                &scoring(),
            )
            .score;
            assert_eq!(qh.hit.score, expect);
        }
    }

    #[test]
    fn hybrid_serve_with_zero_slaves_is_a_local_run() {
        use swhybrid_device::FleetSpec;
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind("127.0.0.1:0", MasterConfig::default(), 0).unwrap();
        let (server, events) = tap(server);
        let batch = Batch {
            fleet: FleetSpec::parse("sse:2").unwrap().build(),
            ..batch(&queries, &db, &sc)
        };
        let outcome = server.serve(batch).expect("local-only run");
        assert_eq!(outcome.completed_by.len(), 6);
        assert!(outcome
            .completed_by
            .iter()
            .all(|n| n == "sse0" || n == "sse1"));
        assert!(events
            .lock()
            .unwrap()
            .iter()
            .any(|e| e.kind == EventKind::RunCompleted));
    }

    /// Regression: a connection whose first message is not `register` used
    /// to consume one of the `expected_slaves` accept slots, deadlocking
    /// the server. It must instead get an error and cost nothing.
    #[test]
    fn garbage_first_message_does_not_consume_a_registration_slot() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::pss_default(),
                adjustment: true,
                dispatch: Default::default(),
            },
            2,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || {
                // Not a slave at all: say something wrong, expect an error.
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = LineReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                writer.write_all(b"i am not a slave\n").unwrap();
                writer.flush().unwrap();
                match reader.next_msg::<MasterMsg>().unwrap() {
                    Some(MasterMsg::Error { .. }) => {}
                    other => panic!("expected an error reply, got {other:?}"),
                }
            });
            for name in ["real-a", "real-b"] {
                scope.spawn(move || {
                    // Give the garbage client a head start so it provably
                    // connects before both real slaves.
                    std::thread::sleep(Duration::from_millis(100));
                    run_slave(addr, name, 1.0, s, &scoring(), &NetConfig::default())
                        .expect("real slave ok")
                });
            }
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server completes despite garbage")
        });
        assert!(outcome.completed_by.iter().all(|n| !n.is_empty()));
    }

    /// One line over [`MAX_LINE`] on the slave port is told why and dropped
    /// as soon as the limit is crossed, and costs the run nothing.
    #[test]
    fn oversize_line_drops_that_session_only() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind("127.0.0.1:0", MasterConfig::default(), 1).unwrap();
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut reader = LineReader::new(stream.try_clone().unwrap());
                let sent = std::time::Instant::now();
                stream.write_all(&vec![b'A'; MAX_LINE + 1]).unwrap();
                match reader.next_msg::<MasterMsg>().unwrap() {
                    Some(MasterMsg::Error { message }) => {
                        assert!(message.contains("longer than"), "unhelpful: {message}")
                    }
                    other => panic!("expected an error reply, got {other:?}"),
                }
                assert!(matches!(reader.read_line(), Ok(None)), "not closed");
                // Quadratic rescanning of 16 MiB takes minutes.
                assert!(sent.elapsed() < Duration::from_secs(5));
            });
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                run_slave(addr, "real", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("real slave ok")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server unaffected")
        });
        assert!(outcome.completed_by.iter().all(|n| n == "real"));
    }

    /// A version-mismatched slave is refused at the handshake with a clear
    /// error naming both versions — and, like any failed handshake, does
    /// not consume a registration slot.
    #[test]
    fn version_mismatch_is_refused_with_a_clear_error() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::pss_default(),
                adjustment: true,
                dispatch: Default::default(),
            },
            1,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || {
                // A v1 slave: its register line has no proto field.
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = LineReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                writer
                    .write_all(b"{\"type\":\"register\",\"name\":\"old\",\"gcups\":1.0}\n")
                    .unwrap();
                writer.flush().unwrap();
                match reader.next_msg::<MasterMsg>().unwrap() {
                    Some(MasterMsg::Error { message }) => {
                        assert!(
                            message.contains("protocol version mismatch")
                                && message.contains("v1")
                                && message.contains(&format!("v{PROTOCOL_VERSION}")),
                            "unhelpful error: {message}"
                        );
                    }
                    other => panic!("expected a version error, got {other:?}"),
                }
            });
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                run_slave(addr, "current", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("current-version slave ok")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server completes despite the v1 visitor")
        });
        assert!(outcome.completed_by.iter().all(|n| n == "current"));
    }

    /// The silent failure a batch slave used to have: one that loaded
    /// another database (or runs another scoring) returned its own
    /// subjects' hits under the master's query ids. Now its registration
    /// is refused, naming the master's scoring, and the run completes on
    /// the slave that holds the master's database — with the one-shot
    /// tables.
    #[test]
    fn a_slave_on_another_database_or_scoring_is_refused() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let other_db = DbSnapshot::from_encoded(
            "rat",
            &paper_database("rat")
                .unwrap()
                .generate_scaled(5, 0.001)
                .encode_all()
                .unwrap(),
        );
        let blosum50 = Scoring {
            matrix: swhybrid_align::scoring::SubstMatrix::blosum50(),
            ..scoring()
        };
        let server = MasterServer::bind("127.0.0.1:0", MasterConfig::default(), 1).unwrap();
        let addr = server.local_addr().unwrap();
        let (outcome, refusals) = std::thread::scope(|scope| {
            let refused = |db: &DbSnapshot, scoring: &Scoring| {
                let net = NetConfig::default();
                run_slave(addr, "wrong", 1.0, db, scoring, &net)
                    .expect_err("a slave on another identity must be refused")
            };
            let (other_db, blosum50) = (&other_db, &blosum50);
            let wrong = [
                scope.spawn(move || refused(other_db, &scoring())),
                scope.spawn(move || refused(&tiny_workload().1, blosum50)),
            ];
            // Neither refusal takes the slot: the right slave, connecting
            // last, opens the barrier.
            let s = &db;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                run_slave(addr, "right", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("the master's database and scoring are admitted")
            });
            let outcome = server
                .serve(batch(&queries, &db, &sc))
                .expect("run completes");
            (outcome, wrong.map(|h| h.join().unwrap()))
        });
        for err in refusals {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(
                message.contains("database or scoring mismatch")
                    && message.contains("BLOSUM62, gap open 10 extend 2"),
                "unhelpful refusal: {message}"
            );
        }
        assert!(outcome.completed_by.iter().all(|n| n == "right"));
        assert_eq!(key(&outcome.hits), one_shot_key(&queries, &db));
    }

    /// v4 made the digest mandatory: a register without one is refused
    /// with a typed error and costs no registration slot.
    #[test]
    fn a_register_without_its_digest_is_refused() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind("127.0.0.1:0", MasterConfig::default(), 1).unwrap();
        let addr = server.local_addr().unwrap();
        let outcome = std::thread::scope(|scope| {
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = LineReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let line = format!(
                    "{{\"type\":\"register\",\"name\":\"x\",\"gcups\":1,\"proto\":{PROTOCOL_VERSION}}}\n"
                );
                writer.write_all(line.as_bytes()).unwrap();
                writer.flush().unwrap();
                match reader.next_msg::<MasterMsg>().unwrap() {
                    Some(MasterMsg::Error { message }) => {
                        assert!(message.contains("'digest'"), "unhelpful: {message}")
                    }
                    other => panic!("expected an error reply, got {other:?}"),
                }
                assert!(matches!(reader.read_line(), Ok(None)), "not closed");
            });
            let s = &db;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                run_slave(addr, "real", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("real slave ok")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("run completes")
        });
        assert!(outcome.completed_by.iter().all(|n| n == "real"));
    }

    /// A `finished` whose per-query list does not pair with the payload it
    /// answers is refused before it reaches the merge: the slave is told
    /// why and dropped, and its task requeues to the slave that remains.
    #[test]
    fn a_finished_that_does_not_pair_with_its_payload_drops_the_session() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind("127.0.0.1:0", MasterConfig::default(), 1).unwrap();
        let addr = server.local_addr().unwrap();
        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || {
                let digest = Identity::of(s, &scoring()).digest;
                let (mut reader, mut writer, reply) = raw_session(addr, "liar", 1.0, digest);
                assert!(matches!(reply, MasterMsg::Registered { .. }));
                send(&mut writer, &SlaveMsg::Request).unwrap();
                let (task, desc) = match reader.next_msg::<MasterMsg>().unwrap() {
                    Some(MasterMsg::Tasks { mut tasks }) => tasks.remove(0),
                    other => panic!("expected tasks, got {other:?}"),
                };
                assert_eq!(desc.queries.len(), 1);
                send(&mut writer, &SlaveMsg::Started { task }).unwrap();
                let mut result = PeExecutor::new(&scoring()).scan(s, &desc).unwrap();
                result.queries.push(QueryResult::default());
                send(&mut writer, &SlaveMsg::Finished { task, result }).unwrap();
                match reader.next_msg::<MasterMsg>().unwrap() {
                    Some(MasterMsg::Error { message }) => assert!(
                        message.contains("2 per-query results for 1 queries"),
                        "unhelpful: {message}"
                    ),
                    other => panic!("expected an error reply, got {other:?}"),
                }
                assert!(matches!(reader.read_line(), Ok(None)), "not closed");
            });
            scope.spawn(move || {
                // Joins late, so the liar provably holds the first batch.
                std::thread::sleep(Duration::from_millis(200));
                run_slave(addr, "steady", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("steady slave completes the run")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("run completes")
        });
        assert!(outcome.completed_by.iter().all(|n| n == "steady"));
        assert_eq!(key(&outcome.hits), one_shot_key(&queries, &db));
    }

    /// The slave side of v4: a master that ships a task without its
    /// payload ends the slave with a typed error, not a guess.
    #[test]
    fn an_assignment_without_its_payload_is_a_typed_error() {
        let (_, db, _) = tiny_workload();
        for line in [
            r#"{"type":"tasks","tasks":[0]}"#,
            r#"{"type":"execute","task":0}"#,
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let err = std::thread::scope(|scope| {
                let s = &db;
                let slave = scope.spawn(move || {
                    let net = NetConfig::default();
                    run_slave(addr, "s", 1.0, s, &scoring(), &net)
                });
                let (stream, _) = listener.accept().unwrap();
                let mut reader = LineReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                assert!(matches!(
                    reader.next_msg::<SlaveMsg>().unwrap(),
                    Some(SlaveMsg::Register { .. })
                ));
                send(&mut writer, &MasterMsg::Registered { pe_id: 0 }).unwrap();
                writer.write_all(format!("{line}\n").as_bytes()).unwrap();
                writer.flush().unwrap();
                slave.join().unwrap().expect_err("a payload-less task")
            });
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}: {err}");
        }
    }

    /// A slave runs a `tasks` message task by task, in the order shipped:
    /// each short task is started, scanned and finished before the next,
    /// the 3-query task is one pass, and every query's hits and counters
    /// are its solo scan's.
    #[test]
    fn a_slave_runs_each_task_as_shipped() {
        let (queries, db, _) = tiny_workload();
        let whole = |queries: &[EncodedSequence]| TaskPayload {
            queries: queries
                .iter()
                .map(|q| QueryPayload {
                    query: q.codes.clone(),
                    top_n: BATCH_TOP_N,
                })
                .collect(),
            shard: (0, db.len()),
        };
        // Three short single-query tasks, then one task of three queries.
        assert!(queries[..3].iter().all(|q| crate::pool::fusable(&q.codes)));
        let mut package: Vec<(TaskId, TaskPayload)> = (0..3)
            .zip(10..)
            .map(|(i, id)| (id, whole(&queries[i..=i])))
            .collect();
        package.push((13, whole(&queries[..3])));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (order, finished) = std::thread::scope(|scope| {
            let s = &db;
            let slave = scope.spawn(move || {
                run_slave(addr, "shipped", 1.0, s, &scoring(), &NetConfig::default())
            });
            let (stream, _) = listener.accept().unwrap();
            let mut reader = LineReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut next = || loop {
                match reader
                    .next_msg::<SlaveMsg>()
                    .unwrap()
                    .expect("slave hung up")
                {
                    SlaveMsg::Heartbeat => continue,
                    msg => return msg,
                }
            };
            assert!(matches!(next(), SlaveMsg::Register { .. }));
            send(&mut writer, &MasterMsg::Registered { pe_id: 0 }).unwrap();
            assert!(matches!(next(), SlaveMsg::Request));
            let tasks = package.clone();
            send(&mut writer, &MasterMsg::Tasks { tasks }).unwrap();
            let mut order = Vec::new();
            let mut finished = HashMap::new();
            while finished.len() < package.len() {
                match next() {
                    SlaveMsg::Started { task } => order.push(("started", task)),
                    SlaveMsg::Finished { task, result } => {
                        order.push(("finished", task));
                        finished.insert(task, result);
                    }
                    other => panic!("unexpected {other:?} mid-package"),
                }
            }
            assert!(matches!(next(), SlaveMsg::Request));
            send(&mut writer, &MasterMsg::Done).unwrap();
            assert_eq!(slave.join().unwrap().unwrap(), package.len());
            (order, finished)
        });
        let expected: Vec<_> = (10..14)
            .flat_map(|t| [("started", t), ("finished", t)])
            .collect();
        assert_eq!(order, expected);
        let sc = scoring();
        for (task, payload) in &package {
            let got = &finished[task];
            assert_eq!(got.queries.len(), payload.queries.len(), "task {task}");
            for (q, got) in payload.queries.iter().zip(&got.queries) {
                let alone = TaskPayload {
                    queries: vec![q.clone()],
                    shard: payload.shard,
                };
                let solo = PeExecutor::new(&sc).scan(&db, &alone).unwrap();
                assert_eq!(solo.queries, std::slice::from_ref(got), "task {task}");
            }
        }
    }

    /// A hand-rolled slave session: registered under `digest`, or the
    /// master's error line when refused.
    fn raw_session(
        addr: std::net::SocketAddr,
        name: &str,
        gcups: f64,
        digest: u64,
    ) -> (LineReader<TcpStream>, BufWriter<TcpStream>, MasterMsg) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = LineReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let register = SlaveMsg::Register {
            name: name.into(),
            gcups,
            digest,
        };
        send(&mut writer, &register).unwrap();
        let reply = reader.next_msg::<MasterMsg>().unwrap().expect("a reply");
        (reader, writer, reply)
    }

    /// A slave that earns a big batch, then drops the connection (FIN)
    /// mid-batch — simulating a process crash.
    fn run_flaky_slave(addr: std::net::SocketAddr, db: &DbSnapshot) {
        let sc = scoring();
        let digest = Identity::of(db, &sc).digest;
        let (mut reader, mut writer, reply) = raw_session(addr, "flaky", 100.0, digest);
        assert!(matches!(reply, MasterMsg::Registered { .. }));
        // First allocation is one task; complete it honestly but report an
        // absurd speed so Φ hands us a huge batch next time.
        send(&mut writer, &SlaveMsg::Request).unwrap();
        let (first, desc) = match reader.next_msg::<MasterMsg>().unwrap() {
            Some(MasterMsg::Tasks { mut tasks }) => tasks.remove(0),
            other => panic!("expected first allocation, got {other:?}"),
        };
        send(&mut writer, &SlaveMsg::Started { task: first }).unwrap();
        let result = PeExecutor::new(&sc).scan(db, &desc).unwrap();
        send(
            &mut writer,
            &SlaveMsg::Finished {
                task: first,
                result: TaskResult {
                    gcups: Some(1000.0),
                    ..result
                },
            },
        )
        .unwrap();
        send(&mut writer, &SlaveMsg::Request).unwrap();
        match reader.next_msg::<MasterMsg>().unwrap() {
            Some(MasterMsg::Tasks { tasks }) => {
                // Start the first batch entry, then vanish holding them all.
                send(&mut writer, &SlaveMsg::Started { task: tasks[0].0 }).unwrap();
            }
            Some(MasterMsg::Execute { .. }) | Some(MasterMsg::Done) => {
                // The steady slave was too fast this run; dropping here
                // still exercises the disconnect path.
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        // Connection drops here (stream goes out of scope): the master must
        // return the undone batch entries to the ready queue.
    }

    #[test]
    fn slave_crash_mid_run_is_recovered() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let n_tasks = queries.len();
        let server = MasterServer::bind(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::pss_default(),
                adjustment: true,
                dispatch: Default::default(),
            },
            2,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || run_flaky_slave(addr, s));
            scope.spawn(move || {
                run_slave(addr, "steady", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("steady slave survives")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server completes despite crash")
        });

        // Every task completed, by someone.
        assert_eq!(outcome.completed_by.len(), n_tasks);
        assert!(outcome.completed_by.iter().all(|n| !n.is_empty()));
        // The flaky slave finished at most its first allocation; the steady
        // slave picked up the crashed slave's abandoned batch.
        assert!(
            outcome
                .completed_by
                .iter()
                .filter(|n| *n == "flaky")
                .count()
                <= 1,
            "completed_by: {:?}",
            outcome.completed_by
        );
    }

    /// The worst failure TCP cannot see: a slave that stops computing but
    /// keeps its socket open (no FIN). The master must notice via the
    /// heartbeat deadline, requeue the held task, and let the surviving
    /// slave pick it up without any poll-interval delay.
    #[test]
    fn silently_dead_slave_is_detected_and_its_task_requeued() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let net = NetConfig {
            heartbeat_interval: Duration::from_millis(100),
            slave_deadline: Duration::from_secs(1),
            ..NetConfig::default()
        };
        let server = MasterServer::bind_with(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::SelfScheduling,
                adjustment: false, // no replication: only the deadline can save task 0
                dispatch: Default::default(),
            },
            1,
            net.clone(),
        )
        .unwrap();
        let (server, events) = tap(server);
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            let net = &net;
            scope.spawn(move || {
                // Mute slave: alone it satisfies the barrier, takes a task,
                // reports it started, then goes silent with the socket open.
                let digest = Identity::of(s, &scoring()).digest;
                let (mut reader, mut writer, reply) = raw_session(addr, "mute", 1.0, digest);
                assert!(matches!(reply, MasterMsg::Registered { .. }));
                send(&mut writer, &SlaveMsg::Request).unwrap();
                let assigned = match reader.next_msg::<MasterMsg>().unwrap() {
                    Some(MasterMsg::Tasks { tasks }) => tasks,
                    other => panic!("expected tasks, got {other:?}"),
                };
                send(
                    &mut writer,
                    &SlaveMsg::Started {
                        task: assigned[0].0,
                    },
                )
                .unwrap();
                // Silence. No heartbeat, no FIN — block until the master,
                // having declared this PE dead, closes the connection.
                while matches!(reader.read_line(), Ok(Some(_))) {}
            });
            scope.spawn(move || {
                // The real slave joins late (pe_joins path) so the mute one
                // is guaranteed to have been assigned its task first.
                std::thread::sleep(Duration::from_millis(200));
                run_slave(addr, "steady", 1.0, s, &scoring(), net)
                    .expect("steady slave completes the run")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server completes despite silent death")
        });

        // All tasks completed, all by the surviving slave.
        assert!(outcome.completed_by.iter().all(|n| n == "steady"));
        // The liveness verdict and the requeue are in the event stream.
        let ev = events.lock().unwrap();
        assert!(
            ev.iter()
                .any(|e| matches!(e.kind, EventKind::PeSuspectedDead { .. })),
            "no suspected-dead event"
        );
        let (rq_time, rq_task) = ev
            .iter()
            .find_map(|e| match e.kind {
                EventKind::TaskRequeued { task, .. } => Some((e.time, task)),
                _ => None,
            })
            .expect("no requeue event");
        // The requeued task is picked up without any poll-interval delay:
        // the surviving slave's long-poll wakes on the requeue itself.
        let pickup = ev
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::TasksAssigned { tasks, .. }
                    if e.time >= rq_time && tasks.contains(&rq_task) =>
                {
                    Some(e.time)
                }
                _ => None,
            })
            .expect("requeued task never reassigned");
        assert!(
            pickup - rq_time < 0.5,
            "requeue→pickup latency {}s looks like polling",
            pickup - rq_time
        );
        // Hits still match a direct local computation.
        for qh in &outcome.hits {
            let expect = swhybrid_align::score_only::sw_score_affine(
                &queries[qh.query_index].codes,
                db.residues(qh.hit.db_index),
                &scoring(),
            )
            .score;
            assert_eq!(qh.hit.score, expect);
        }
    }

    /// A connection that never says anything must not pin server state:
    /// the handshake deadline frees it without consuming a slot.
    #[test]
    fn silent_probe_connection_is_dropped_at_handshake_deadline() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let net = NetConfig {
            heartbeat_interval: Duration::from_millis(100),
            slave_deadline: Duration::from_secs(1),
            ..NetConfig::default()
        };
        let server = MasterServer::bind_with(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::pss_default(),
                adjustment: true,
                dispatch: Default::default(),
            },
            1,
            net.clone(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            let net = &net;
            scope.spawn(move || {
                // Connect, say nothing, wait for the master to hang up.
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream);
                let mut sink = String::new();
                while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                    sink.clear();
                }
            });
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                run_slave(addr, "real", 1.0, s, &scoring(), net).expect("real slave ok")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server unaffected by silent probe")
        });
        assert!(outcome.completed_by.iter().all(|n| n == "real"));
    }

    /// With a registration timeout, a no-show slave no longer hangs the
    /// server: the barrier opens with whoever did register.
    #[test]
    fn register_timeout_proceeds_with_fewer_slaves() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let net = NetConfig {
            register_timeout: Some(Duration::from_millis(300)),
            ..NetConfig::default()
        };
        let server = MasterServer::bind_with(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::pss_default(),
                adjustment: true,
                dispatch: Default::default(),
            },
            2, // the second slave never shows up
            net,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();

        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || {
                run_slave(addr, "only", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("lone slave completes everything")
            });
            server
                .serve(batch(&queries, &db, &sc))
                .expect("server proceeds degraded")
        });
        assert!(outcome.completed_by.iter().all(|n| n == "only"));
    }

    /// With no slave at all, `serve` returns instead of blocking forever
    /// in accept.
    #[test]
    fn register_timeout_with_no_slaves_errors_out() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let net = NetConfig {
            register_timeout: Some(Duration::from_millis(200)),
            ..NetConfig::default()
        };
        let server =
            MasterServer::bind_with("127.0.0.1:0", MasterConfig::default(), 1, net).unwrap();
        let err = server.serve(batch(&queries, &db, &sc)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    /// The slave side of fault tolerance: a dropped connection is retried
    /// with backoff, and the second session completes the work.
    #[test]
    fn slave_reconnects_after_connection_drop() {
        let (queries, db, _) = tiny_workload();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let net = NetConfig {
            heartbeat_interval: Duration::from_secs(10), // keep the transcript clean
            slave_deadline: Duration::from_secs(30),     // must stay above the heartbeat
            reconnect_backoff_initial: Duration::from_millis(10),
            ..NetConfig::default()
        };

        let executed = std::thread::scope(|scope| {
            let s = &db;
            let net = &net;
            let slave = scope.spawn(move || run_slave(addr, "phoenix", 1.0, s, &scoring(), net));
            // Session 1: take the registration, then drop the connection.
            {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = LineReader::new(stream);
                assert!(matches!(
                    reader.next_msg::<SlaveMsg>().unwrap(),
                    Some(SlaveMsg::Register { .. })
                ));
            }
            // Session 2: full handshake, one task, done.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = LineReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            assert!(matches!(
                reader.next_msg::<SlaveMsg>().unwrap(),
                Some(SlaveMsg::Register { .. })
            ));
            send(&mut writer, &MasterMsg::Registered { pe_id: 0 }).unwrap();
            loop {
                match reader.next_msg::<SlaveMsg>().unwrap() {
                    Some(SlaveMsg::Request) => break,
                    Some(SlaveMsg::Heartbeat) => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
            let desc = TaskPayload {
                queries: vec![QueryPayload {
                    query: queries[0].codes.clone(),
                    top_n: BATCH_TOP_N,
                }],
                shard: (0, db.len()),
            };
            send(&mut writer, &MasterMsg::Execute { task: 0, desc }).unwrap();
            let mut finished = false;
            loop {
                match reader.next_msg::<SlaveMsg>().unwrap() {
                    Some(SlaveMsg::Heartbeat) | Some(SlaveMsg::Started { .. }) => {}
                    Some(SlaveMsg::Finished { task, result }) => {
                        let gcups = result.gcups.unwrap();
                        assert_eq!(task, 0);
                        assert!(gcups > 0.0, "finished with degenerate speed {gcups}");
                        finished = true;
                    }
                    Some(SlaveMsg::Request) if finished => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            send(&mut writer, &MasterMsg::Done).unwrap();
            slave.join().unwrap()
        })
        .unwrap();
        assert_eq!(executed, 1);
    }

    #[test]
    fn distributed_equals_local_runtime_results() {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let server = MasterServer::bind(
            "127.0.0.1:0",
            MasterConfig {
                policy: Policy::SelfScheduling,
                adjustment: false,
                dispatch: Default::default(),
            },
            1,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let outcome = std::thread::scope(|scope| {
            let s = &db;
            scope.spawn(move || {
                run_slave(addr, "solo", 1.0, s, &scoring(), &NetConfig::default())
                    .expect("slave ok")
            });
            server.serve(batch(&queries, &db, &sc)).expect("server ok")
        });

        let local = Batch {
            fleet: vec![FleetPe::simd("solo", 1.0)],
            ..batch(&queries, &db, &sc)
        }
        .run(MasterConfig {
            policy: Policy::SelfScheduling,
            adjustment: false,
            dispatch: Default::default(),
        });
        // A fleet thread and a slave run the same payload: identical
        // per-query lists, each the one-shot table of the master's query at
        // the one batch depth.
        assert_eq!(outcome.hits, local.hits);
        assert_eq!(key(&local.hits), one_shot_key(&queries, &db));
        for qi in 0..queries.len() {
            let depth = local.hits.iter().filter(|h| h.query_index == qi).count();
            assert_eq!(depth, BATCH_TOP_N.min(db.len()), "query {qi}");
        }
    }

    // The batch on a local fleet alone — a master that waits for no
    // slave: the same pool, engine and drive loop with only local-thread
    // endpoints on it, and its event stream.

    fn local_run(
        fleet: Vec<FleetPe>,
        config: MasterConfig,
    ) -> (DistributedOutcome, Vec<RuntimeEvent>) {
        let (queries, db, _) = tiny_workload();
        let sc = scoring();
        let (server, events) = tap(MasterServer::bind("127.0.0.1:0", config, 0).unwrap());
        let batch = Batch {
            fleet,
            ..batch(&queries, &db, &sc)
        };
        let outcome = server.serve(batch).expect("local-only run");
        let events = std::mem::take(&mut *events.lock().unwrap());
        (outcome, events)
    }

    fn ss_with_adjustment() -> MasterConfig {
        MasterConfig {
            policy: Policy::SelfScheduling,
            adjustment: true,
            dispatch: Default::default(),
        }
    }

    #[test]
    fn local_run_completes_all_tasks_single_pe() {
        let (out, _) = local_run(vec![FleetPe::simd("solo", 1.0)], MasterConfig::default());
        assert_eq!(out.completed_by.len(), 6);
        assert!(out.completed_by.iter().all(|n| n == "solo"));
        assert!(!out.hits.is_empty());
        assert!(out.total_cells > 0);
        assert!(out.gcups > 0.0);
        // The kernel counters travelled through the pool: every computed
        // cell is accounted for.
        assert!(out.kernels.cells_computed > 0);
        assert!(out.kernels.chunks_striped + out.kernels.chunks_interseq > 0);
    }

    #[test]
    fn local_run_multi_pe_covers_all_tasks() {
        let (out, _) = local_run(
            vec![
                FleetPe::simd("a", 1.0),
                FleetPe::simd("b", 1.0),
                FleetPe::simd("c", 1.0),
            ],
            ss_with_adjustment(),
        );
        assert!(out.completed_by.iter().all(|n| !n.is_empty()));
        // Results identical to a single-PE run (scores are deterministic).
        let (solo, _) = local_run(vec![FleetPe::simd("solo", 1.0)], ss_with_adjustment());
        assert_eq!(key(&out.hits), key(&solo.hits));
    }

    #[test]
    fn static_wfixed_policy_also_completes() {
        let (out, _) = local_run(
            vec![FleetPe::simd("fast", 4.0), FleetPe::simd("slow", 1.0)],
            MasterConfig {
                policy: Policy::WFixed,
                adjustment: false,
                dispatch: Default::default(),
            },
        );
        assert!(out.completed_by.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn hybrid_fleet_matches_solo_and_attributes_modeled_speed() {
        use swhybrid_device::{Device, DeviceKind, FleetSpec};
        let (out, events) = local_run(
            FleetSpec::parse("gpu:1+sse:2").unwrap().build(),
            MasterConfig::default(),
        );
        // Bit-identical hit table vs a single real PE.
        let (solo, _) = local_run(vec![FleetPe::simd("solo", 1.0)], MasterConfig::default());
        assert_eq!(
            out.hits, solo.hits,
            "hybrid fleet must score bit-identically"
        );
        // The modeled GPU attributes its calibrated model speed, which is
        // far beyond what one host thread really measures on this workload.
        let gpu_pe = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::PeRegistered { pe, name, .. } if name == "gpu0" => Some(*pe),
                _ => None,
            })
            .expect("gpu0 registered");
        let modeled: Vec<(usize, f64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskFinished {
                    pe,
                    task,
                    measured_gcups,
                    ..
                } if pe == gpu_pe => Some((task, measured_gcups)),
                _ => None,
            })
            .collect();
        assert!(!modeled.is_empty(), "the modeled PE finished no task");
        // The attributed speed is the calibrated model's throughput for
        // exactly that task spec — not a host wall-clock measurement.
        let device = Device::new("gpu0", DeviceKind::Gpu);
        let (_, _, specs) = tiny_workload();
        for (task, gcups) in modeled {
            assert_eq!(
                gcups,
                device.task_gcups(&specs[task]),
                "task {task}: attributed speed must be the model's"
            );
        }
    }

    #[test]
    fn event_stream_covers_the_run_and_never_reports_zero_speed() {
        let (_, events) = local_run(
            vec![FleetPe::simd("a", 1.0), FleetPe::simd("b", 1.0)],
            MasterConfig::default(),
        );
        let finishes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskFinished { .. }))
            .count();
        assert!(finishes >= 6, "at least one finish per task: {finishes}");
        assert!(events.iter().any(|e| e.kind == EventKind::RunCompleted));
        // The PSS-poisoning regression: real completions must never report
        // a zero speed, however fast the timer said the task was.
        for e in &events {
            if let EventKind::TaskFinished { measured_gcups, .. } = e.kind {
                assert!(
                    measured_gcups > 0.0 && measured_gcups.is_finite(),
                    "degenerate speed report {measured_gcups}"
                );
            }
        }
        // Times are monotonically plausible and start at registration.
        assert!(matches!(
            events[0].kind,
            EventKind::PeRegistered { pe: 0, .. }
        ));
    }

    #[test]
    fn merge_hits_globally_ranked() {
        let h = |id: &str, score: i32| Hit {
            db_index: 0,
            id: id.into(),
            score,
            subject_len: 10,
        };
        let merged = merge_hits(vec![
            (0, vec![h("a", 10), h("b", 30)]),
            (1, vec![h("c", 20)]),
        ]);
        let scores: Vec<i32> = merged.iter().map(|m| m.hit.score).collect();
        assert_eq!(scores, vec![30, 20, 10]);
        assert_eq!(merged[1].query_index, 1);
    }

    #[test]
    fn merge_breaks_ties_by_query_then_db_index() {
        let mk = |db_index: usize, score: i32| Hit {
            db_index,
            id: format!("s{db_index}"),
            score,
            subject_len: 5,
        };
        let merged = merge_hits(vec![(1, vec![mk(2, 10)]), (0, vec![mk(1, 10), mk(0, 10)])]);
        assert_eq!(merged[0].query_index, 0);
        assert_eq!(merged[0].hit.db_index, 0);
        assert_eq!(merged[1].hit.db_index, 1);
        assert_eq!(merged[2].query_index, 1);
    }

    #[test]
    fn merge_hits_equals_single_three_key_sort() {
        // The delegated form (merge_top_n per query + stable cross-query
        // sort) must reproduce the historical one-shot comparator exactly.
        let mk = |db_index: usize, score: i32| Hit {
            db_index,
            id: format!("s{db_index}"),
            score,
            subject_len: 5,
        };
        let input = vec![
            (2, vec![mk(5, 10), mk(1, 40), mk(9, 10)]),
            (0, vec![mk(3, 10), mk(7, 40)]),
            (1, vec![mk(0, 40), mk(2, 10), mk(4, 25)]),
            (0, vec![mk(8, 25), mk(6, 10)]), // second task for query 0
        ];
        let mut expected: Vec<QueryHit> = input
            .iter()
            .flat_map(|(q, hits)| {
                hits.iter().map(|h| QueryHit {
                    query_index: *q,
                    hit: h.clone(),
                })
            })
            .collect();
        expected.sort_by(|a, b| {
            b.hit
                .score
                .cmp(&a.hit.score)
                .then(a.query_index.cmp(&b.query_index))
                .then(a.hit.db_index.cmp(&b.hit.db_index))
        });
        assert_eq!(merge_hits(input), expected);
    }
}
