//! Tri-path differential oracle: one database, one query batch, three
//! transports — the one-shot scan (one `PeExecutor::scan` of the whole
//! database per query: the unfused reference `search` is held to), the
//! persistent serve daemon, and the batch master (a TCP slave, and a local
//! fleet thread) — must produce byte-identical hit tables and identical
//! per-query kernel counters.
//!
//! Every path holds the database as a [`DbSnapshot`] and runs the one
//! compute step over it with the same plan (full range, chunk floor 64,
//! `KernelChoice::Auto`, single worker), so not only the scores but the
//! exact per-kernel subject counts must agree. And a snapshot's
//! provenance must not matter: each path is handed the database both
//! packed from encoded records ([`DbSnapshot::from_encoded`]) and mapped
//! out of a `.swdb` store (`build_store` → `Store::open` →
//! `into_snapshot`), six runs held to one oracle. A divergence here means
//! a path grew a private executor, or a private database, again.

use std::sync::{Arc, Mutex};

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::device::FleetPe;
use swhybrid::exec::net::{run_slave, Batch, DistributedOutcome, MasterServer, NetConfig};
use swhybrid::exec::policy::Policy;
use swhybrid::exec::pool::{PeExecutor, QueryPayload, TaskPayload, BATCH_TOP_N};
use swhybrid::exec::sched::MasterConfig;
use swhybrid::exec::trace::{EventKind, RuntimeEvent};
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::synth::{paper_database, QueryOrder, QuerySetSpec};
use swhybrid::seq::{Alphabet, DbSnapshot};
use swhybrid::serve::{QueryService, ServiceConfig};
use swhybrid::simd::search::Hit;
use swhybrid::simd::KernelStats;
use swhybrid::store::{build_store, Store};

/// Every path at the batch master's one depth.
const TOP_N: usize = BATCH_TOP_N;

fn scoring() -> Scoring {
    Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    }
}

/// The shared fixture: three queries and one synthetic database in both
/// provenances — packed in memory, and reopened from a `.swdb` store built
/// in a temp dir.
struct Fixture {
    queries: Vec<EncodedSequence>,
    packed: DbSnapshot,
    mapped: DbSnapshot,
    dir: std::path::PathBuf,
}

impl Fixture {
    fn build(tag: &str) -> Fixture {
        let subjects: Vec<EncodedSequence> = paper_database("dog")
            .unwrap()
            .generate_scaled(2013, 0.001)
            .encode_all()
            .unwrap();
        let queries: Vec<EncodedSequence> = QuerySetSpec {
            count: 3,
            min_len: 40,
            max_len: 180,
            order: QueryOrder::Ascending,
        }
        .generate(97)
        .iter()
        .map(|q| EncodedSequence::from_sequence(q, Alphabet::Protein).unwrap())
        .collect();
        let dir =
            std::env::temp_dir().join(format!("swhybrid_oracle_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let store_path = dir.join("oracle.swdb");
        build_store(&store_path, "dog-oracle", &subjects).expect("build store");
        let mapped = Store::open(&store_path)
            .and_then(Store::into_snapshot)
            .expect("open store");
        Fixture {
            queries,
            packed: DbSnapshot::from_encoded("dog-oracle", &subjects),
            mapped,
            dir,
        }
    }

    /// The same database, by provenance.
    fn provenances(&self) -> [(&'static str, &DbSnapshot); 2] {
        [("packed", &self.packed), ("mapped", &self.mapped)]
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Per-query hit table and kernel counters.
type Tables = Vec<(Vec<Hit>, KernelStats)>;

/// Path A: the unfused per-query reference — one `PeExecutor::scan` of
/// the whole database per query (one worker, chunk floor, `Auto`
/// dispatch). `search --threads 1` makes the same call once per task it
/// cuts from the run's queries (short ones fused, sharing a pass); this
/// path keeps each query in a pass of its own, so a fusion rule that
/// changed a result would show here.
fn one_shot(fx: &Fixture, db: &DbSnapshot) -> Tables {
    one_shot_of(&fx.queries, db)
}

fn one_shot_of(queries: &[EncodedSequence], db: &DbSnapshot) -> Tables {
    let scoring = scoring();
    let mut pe = PeExecutor::new(&scoring);
    queries
        .iter()
        .map(|q| {
            let payload = TaskPayload {
                queries: vec![QueryPayload {
                    query: q.codes.clone(),
                    top_n: TOP_N,
                }],
                shard: (0, db.len()),
            };
            let out = pe.scan(db, &payload).unwrap().queries.remove(0);
            (out.hits, out.kernels)
        })
        .collect()
}

/// The oracle the other runs are held to: the one-shot scan of the packed
/// database.
fn oracle(fx: &Fixture) -> Tables {
    one_shot(fx, &fx.packed)
}

/// The store must be a faithful stand-in for the FASTA-encoded database:
/// a scan of the memory-mapped snapshot yields the same tables and
/// counters as the packed one.
#[test]
fn store_arena_scan_matches_one_shot() {
    let fx = Fixture::build("arena");
    assert!(fx.mapped.arena().is_shared(), "store arena is not mapped");
    assert!(!fx.packed.arena().is_shared());
    assert_eq!(fx.mapped.digest(), fx.packed.digest());
    assert_eq!(one_shot(&fx, &fx.mapped), oracle(&fx));
}

/// Path B: the serve daemon's local PE execution. One worker, one shard,
/// one query at a time, no caches — the shard plan is then exactly the one-shot's
/// (full range, chunk floor), so hits AND per-query [`KernelStats`] must
/// be identical.
#[test]
fn serve_daemon_matches_one_shot() {
    let fx = Fixture::build("serve");
    let oracle = oracle(&fx);
    for (provenance, db) in fx.provenances() {
        let svc = QueryService::with_snapshot(
            db.clone(),
            scoring(),
            ServiceConfig {
                workers: 1,
                shards: 1,
                cache_capacity: 0,
                adjustment: false,
                policy: Policy::SelfScheduling,
                ..ServiceConfig::default()
            },
        );
        for (q, (hits, stats)) in fx.queries.iter().zip(&oracle) {
            let reply = svc
                .search_blocking(q.codes.clone(), TOP_N, 1)
                .expect("serve query");
            assert!(!reply.cached && !reply.cancelled);
            assert_eq!(
                &reply.hits, hits,
                "serve hits diverged for {} ({provenance})",
                q.id
            );
            assert_eq!(
                &reply.kernels, stats,
                "serve kernel counters diverged for {} ({provenance})",
                q.id
            );
        }
        svc.shutdown();
    }
}

/// One PE, adjustment off: every task executes exactly once.
fn exactly_once() -> MasterConfig {
    MasterConfig {
        policy: Policy::SelfScheduling,
        adjustment: false,
        dispatch: Default::default(),
    }
}

/// Hold a batch outcome to the oracle. The global merge orders by (score
/// desc, query_index, db_index); restricted to one query that is exactly
/// the one-shot ranking, so a plain filter reconstructs each table. The
/// per-query counters are the `TaskKernels` events (task id = query
/// index), and with every task run exactly once the merged counters are
/// their sum.
fn assert_batch_matches(
    (outcome, events): &(DistributedOutcome, Vec<RuntimeEvent>),
    oracle: &Tables,
    label: &str,
) {
    assert_eq!(outcome.completed_by.len(), oracle.len(), "{label}");
    let mut expected_total = KernelStats::default();
    for (qi, (hits, stats)) in oracle.iter().enumerate() {
        let table: Vec<Hit> = outcome
            .hits
            .iter()
            .filter(|qh| qh.query_index == qi)
            .map(|qh| qh.hit.clone())
            .collect();
        assert_eq!(&table, hits, "{label}: hits diverged for query {qi}");
        let reported: Vec<&KernelStats> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::TaskKernels { task, kernels, .. } if *task == qi => Some(kernels),
                _ => None,
            })
            .collect();
        assert_eq!(
            reported,
            [stats],
            "{label}: kernel counters diverged for query {qi}"
        );
        expected_total.merge(stats);
    }
    assert_eq!(
        outcome.kernels, expected_total,
        "{label}: merged kernel counters diverged"
    );
}

/// Run `batch` on `server` and return the outcome with the run's event
/// stream.
fn serve_recorded(
    server: MasterServer,
    batch: Batch<'_>,
) -> (DistributedOutcome, Vec<RuntimeEvent>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let outcome = server
        .with_event_sink(move |e| sink.lock().unwrap().push(e.clone()))
        .serve(batch)
        .expect("master serve");
    let events = std::mem::take(&mut *seen.lock().unwrap());
    (outcome, events)
}

/// Run `queries` against `db` on the batch master with one TCP slave —
/// which holds only the database — and return the outcome with its event
/// stream, and the number of tasks the slave executed.
fn tcp_run(
    queries: &[EncodedSequence],
    db: &DbSnapshot,
) -> ((DistributedOutcome, Vec<RuntimeEvent>), usize) {
    let scoring = scoring();
    let net = NetConfig {
        register_timeout: Some(std::time::Duration::from_secs(30)),
        ..NetConfig::default()
    };
    let server = MasterServer::bind_with("127.0.0.1:0", exactly_once(), 1, net.clone())
        .expect("bind master");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let slave = scope.spawn(|| {
            run_slave(addr, "oracle-slave", 1.0, db, &scoring, &net).expect("slave runs clean")
        });
        let run = serve_recorded(
            server,
            Batch {
                queries,
                db,
                scoring: &scoring,
                fleet: Vec::new(),
            },
        );
        (run, slave.join().expect("slave thread"))
    })
}

/// Path C: the batch master — once with a slave process' worth of code
/// behind a TCP session (counters travel over the wire), once with a
/// local fleet thread on the same pool. Both run the same payload, so
/// their per-query lists are identical, each at the one batch depth.
#[test]
fn master_slave_pair_matches_one_shot() {
    let fx = Fixture::build("net");
    let oracle = oracle(&fx);
    let scoring = scoring();

    for (provenance, db) in fx.provenances() {
        let (tcp, executed) = tcp_run(&fx.queries, db);
        assert_eq!(executed, fx.queries.len());
        assert_batch_matches(&tcp, &oracle, &format!("tcp slave, {provenance}"));

        // The same master waiting for no slave: a local fleet alone.
        let local = serve_recorded(
            MasterServer::bind("127.0.0.1:0", exactly_once(), 0).expect("bind master"),
            Batch {
                queries: &fx.queries,
                db,
                scoring: &scoring,
                fleet: vec![FleetPe::simd("oracle-pe", 1.0)],
            },
        );
        assert_batch_matches(&local, &oracle, &format!("local fleet, {provenance}"));
        assert_eq!(tcp.0.hits, local.0.hits, "{provenance}");
        for (qi, (hits, _)) in oracle.iter().enumerate() {
            assert_eq!(hits.len(), TOP_N.min(db.len()), "query {qi}");
        }
    }
}

/// A slave holds no query file: task *t* is whatever query *t* the master
/// ships. The same slave code answers a master whose query file is in the
/// opposite order with that master's tables — where a slave that looked
/// its queries up locally answered task *t* with its own query *t*.
#[test]
fn a_slave_answers_the_masters_queries_not_its_own() {
    let fx = Fixture::build("order");
    let reversed: Vec<EncodedSequence> = fx.queries.iter().rev().cloned().collect();
    let (outcome, _) = tcp_run(&reversed, &fx.packed);
    assert_batch_matches(&outcome, &one_shot_of(&reversed, &fx.packed), "reversed");
    // And the tables really differ from the forward file's, so the check
    // could have failed.
    assert_ne!(one_shot_of(&reversed, &fx.packed), oracle(&fx));
}
