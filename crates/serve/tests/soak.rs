//! Multi-client soak of the daemon over real TCP: concurrent clients must
//! get byte-for-byte the answers a cold single-shot search gives, and
//! every backpressure rejection and cancellation must be a well-formed
//! protocol reply — never a hang or a dropped connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::{RngExt, SeedableRng};
use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_core::net::{run_slave, NetConfig, PROTOCOL_VERSION};
use swhybrid_core::pool::{Identity, PeExecutor, QueryPayload, TaskPayload};
use swhybrid_json::Json;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbSnapshot};
use swhybrid_serve::protocol::{request_to_json, Request, SearchRequest};
use swhybrid_serve::service::ServiceConfig;
use swhybrid_serve::{ServeClient, ServeDaemon};
use swhybrid_simd::search::Hit;

/// The database as every driver holds it.
fn snap(db: &[EncodedSequence]) -> DbSnapshot {
    DbSnapshot::from_encoded("", db)
}

fn scoring() -> Scoring {
    Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    }
}

fn random_db(seed: u64, n: usize, max_len: usize) -> Vec<EncodedSequence> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let len = rng.random_range(1..max_len);
            EncodedSequence {
                id: format!("s{i}"),
                codes: (0..len).map(|_| rng.random_range(0..20u8)).collect(),
                alphabet: Alphabet::Protein,
            }
        })
        .collect()
}

/// ASCII protein residues (the wire carries text, not codes).
fn random_query_ascii(seed: u64, len: usize) -> String {
    const RESIDUES: &[u8] = b"ARNDCQEGHILKMFPSTWYV";
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| RESIDUES[rng.random_range(0..RESIDUES.len())] as char)
        .collect()
}

/// The one-shot scan of the whole database (`search --threads 1`).
fn cold_hits(query_ascii: &str, db: &[EncodedSequence], top_n: usize) -> Vec<Hit> {
    let payload = TaskPayload {
        queries: vec![QueryPayload {
            query: Alphabet::Protein.encode(query_ascii.as_bytes()).unwrap(),
            top_n,
        }],
        shard: (0, db.len()),
    };
    let mut result = PeExecutor::new(&scoring())
        .scan(&snap(db), &payload)
        .unwrap();
    result.queries.remove(0).hits
}

fn start_daemon(
    db: Vec<EncodedSequence>,
    config: ServiceConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let daemon =
        ServeDaemon::bind_snapshot(("127.0.0.1", 0), snap(&db), scoring(), config).unwrap();
    let addr = daemon.local_addr().unwrap();
    (addr, std::thread::spawn(move || daemon.run()))
}

/// Submit with `"ack":true` and read up to the ack. Replies are told apart
/// by `type`, never by line order (`server.rs` module doc): a job that
/// finishes fast enough puts its result line ahead of its own ack. Returns
/// the job id and that early result line, if there was one.
fn submit_acked(client: &mut ServeClient, req: SearchRequest) -> (u64, Option<Json>) {
    assert!(req.ack, "submit_acked is for acknowledged searches");
    let mut early = None;
    let mut reply = client.request(&Request::Search(req)).unwrap();
    loop {
        match reply.get("type").and_then(Json::as_str) {
            Some("ack") => return (reply.get("job").and_then(Json::as_u64).unwrap(), early),
            Some("result") if early.is_none() => early = Some(reply),
            other => panic!("unexpected reply {other:?} before the ack: {reply}"),
        }
        reply = client.recv().unwrap();
    }
}

/// Cancel `job` and collect the two lines the connection is owed: the
/// cancel verb's reply and the job's single result line, in whichever
/// order they arrive (`early` is a result that overtook the ack). Returns
/// `(cancel, result)`.
fn cancel_and_collect(client: &mut ServeClient, job: u64, early: Option<Json>) -> (Json, Json) {
    let (mut cancel, mut result) = (None, early);
    let mut line = client.cancel(job).unwrap();
    loop {
        match line.get("type").and_then(Json::as_str) {
            Some("cancel") if cancel.is_none() => cancel = Some(line),
            Some("result") if result.is_none() => result = Some(line),
            other => panic!("unexpected reply type {other:?}: {line}"),
        }
        match (cancel, result) {
            (Some(cancel), Some(result)) => return (cancel, result),
            pending => (cancel, result) = pending,
        }
        line = client.recv().unwrap();
    }
}

#[test]
fn eight_concurrent_clients_match_cold_single_shot_search() {
    const CLIENTS: usize = 8;
    const TOP_N: usize = 10;
    let db = random_db(101, 60, 90);
    let queries: Vec<String> = (0..6)
        .map(|i| random_query_ascii(200 + i, 30 + 7 * i as usize))
        .collect();
    let expected: Vec<Vec<Hit>> = queries.iter().map(|q| cold_hits(q, &db, TOP_N)).collect();

    let (addr, daemon) = start_daemon(
        db,
        ServiceConfig {
            workers: 3,
            max_active: 2,
            queue_depth: 64,
            per_client_inflight: 8,
            ..Default::default()
        },
    );

    let cached_replies: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    let mut cached = 0usize;
                    // Each client walks the query set at a different offset
                    // so the cache sees both misses and hits under load.
                    for k in 0..queries.len() {
                        let qi = (c + k) % queries.len();
                        let reply = client.search(&queries[qi], TOP_N).unwrap();
                        assert_eq!(
                            reply.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "client {c} query {qi} rejected: {reply}"
                        );
                        let hits = ServeClient::hits(&reply).unwrap();
                        assert_eq!(
                            hits, expected[qi],
                            "client {c} query {qi}: served hits differ from cold scan"
                        );
                        if reply.get("cached").and_then(Json::as_bool) == Some(true) {
                            assert_eq!(
                                reply.get("cells").and_then(Json::as_u64),
                                Some(0),
                                "cache-served reply must not have burned kernel cells"
                            );
                            cached += 1;
                        }
                    }
                    cached
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // 48 searches over 6 distinct queries: the cache must have answered
    // most of the repeats.
    assert!(
        cached_replies > 0,
        "no reply was served from the cache across {CLIENTS} clients"
    );

    let mut client = ServeClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let completed = stats
        .get("jobs")
        .and_then(|j| j.get("completed"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(completed as usize, CLIENTS * queries.len());
    let cache_hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(cache_hits as usize, cached_replies);
    let latency_count = stats
        .get("latency_ms")
        .and_then(|l| l.get("count"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(latency_count, completed);
    // Per-PE GCUPS derived from the event stream: every worker is listed.
    let pes = stats.get("pes").and_then(Json::as_array).unwrap();
    assert_eq!(pes.len(), 3);
    let finished: u64 = pes
        .iter()
        .map(|p| p.get("tasks_finished").and_then(Json::as_u64).unwrap())
        .sum();
    assert!(finished > 0, "no PE reported finished tasks");

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// Concurrency soak with fusion on: four clients interleave submits and
/// cancels against a daemon that fuses co-queued queries into shared
/// shard tasks. Every completed job must be byte-identical to its
/// single-query cold scan — fusion may only change wall-clock, never the
/// answer — and every cancel must produce a well-formed pair of replies.
/// Whether a group forms here depends on timing; that one does form is
/// pinned at a gate by the service's
/// `fused_queries_match_cold_scans_and_share_tasks`.
#[test]
fn four_clients_interleaving_submits_and_cancels_with_fusion_on() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    const TOP_N: usize = 8;
    // Every round's four submissions start together, so queries can queue
    // behind both group slots and fuse.
    let db = random_db(127, 50, 600);
    let queries: Vec<String> = (0..CLIENTS * ROUNDS)
        .map(|i| random_query_ascii(700 + i as u64, 24 + (i % 5) * 9))
        .collect();
    let expected: Vec<Vec<Hit>> = queries.iter().map(|q| cold_hits(q, &db, TOP_N)).collect();

    // Cache off so every completed query really went through (possibly
    // fused) shard scans; two group slots so queries queue and fuse.
    let (addr, daemon) = start_daemon(
        db,
        ServiceConfig {
            workers: 2,
            max_active: 2,
            cache_capacity: 0,
            queue_depth: 64,
            per_client_inflight: 8,
            ..Default::default()
        },
    );

    let mut clients: Vec<ServeClient> = (0..CLIENTS)
        .map(|_| ServeClient::connect(addr).unwrap())
        .collect();
    for k in 0..ROUNDS {
        std::thread::scope(|scope| {
            for (c, client) in clients.iter_mut().enumerate() {
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    let qi = c * ROUNDS + k;
                    if k % 3 == 2 {
                        // Interleaved cancel: the ack gives the job id; the
                        // cancel reply and the job's single result line
                        // arrive in any order, both well formed.
                        let (job, early) = submit_acked(
                            client,
                            SearchRequest {
                                query: queries[qi].clone(),
                                top_n: TOP_N,
                                deadline_ms: None,
                                tag: Some(format!("c{c}k{k}")),
                                ack: true,
                            },
                        );
                        let (cancel, result) = cancel_and_collect(client, job, early);
                        let outcome = cancel.get("outcome").and_then(Json::as_str).unwrap();
                        if outcome == "cancelled" {
                            assert_eq!(result.get("cancelled").and_then(Json::as_bool), Some(true));
                            assert!(ServeClient::hits(&result).unwrap().is_empty());
                        } else {
                            // Raced to completion: the answer must still be
                            // the cold scan's.
                            assert_eq!(ServeClient::hits(&result).unwrap(), expected[qi]);
                        }
                    } else {
                        let reply = client.search(&queries[qi], TOP_N).unwrap();
                        assert_eq!(
                            reply.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "client {c} round {k} rejected: {reply}"
                        );
                        assert_eq!(
                            ServeClient::hits(&reply).unwrap(),
                            expected[qi],
                            "client {c} round {k}: fused result differs from cold scan"
                        );
                    }
                });
            }
        });
    }
    drop(clients);

    let mut client = ServeClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let fusion = stats.get("fusion").unwrap();
    let tasks = fusion.get("tasks").and_then(Json::as_u64).unwrap();
    assert!(tasks > 0, "no shard tasks dispatched");

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn backpressure_and_cancellation_replies_are_well_formed() {
    // A single worker and a single admission slot per client. Requests
    // 2..5 must arrive while request 1 is in flight, and that is held by
    // size, not by how slow the kernel happens to be: request 1 is a long
    // query (a scan of milliseconds even optimized), requests 2..5 are a
    // few residues (microseconds to parse and turn away), and the whole
    // burst leaves in one write so the daemon reads all five lines at once.
    // Their rejections must be immediate, well formed, and tagged.
    let db = random_db(103, 60, 600);
    let slow_query = random_query_ascii(301, 1200);
    let (addr, daemon) = start_daemon(
        db,
        ServiceConfig {
            workers: 1,
            max_active: 1,
            queue_depth: 1,
            per_client_inflight: 1,
            cache_capacity: 0, // every search must really scan
            ..Default::default()
        },
    );

    // Pipeline 5 searches without reading a single reply.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let burst: String = (0..5)
        .map(|i| {
            let req = Request::Search(SearchRequest {
                query: if i == 0 {
                    slow_query.clone()
                } else {
                    random_query_ascii(310 + i, 12)
                },
                top_n: 5,
                deadline_ms: None,
                tag: Some(format!("q{i}")),
                ack: false,
            });
            format!("{}\n", request_to_json(&req))
        })
        .collect();
    writer.write_all(burst.as_bytes()).unwrap();
    let mut results = 0usize;
    let mut rejections = 0usize;
    for _ in 0..5 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let reply = Json::parse(line.trim()).unwrap();
        let tag = reply.get("tag").and_then(Json::as_str).unwrap();
        assert!(
            tag.starts_with('q'),
            "reply correlates to a request: {reply}"
        );
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            assert_eq!(reply.get("type").and_then(Json::as_str), Some("result"));
            results += 1;
        } else {
            let code = reply.get("error").and_then(Json::as_str).unwrap();
            assert!(
                code == "client_limit" || code == "queue_full",
                "unexpected rejection code {code:?}"
            );
            assert!(reply
                .get("reason")
                .and_then(Json::as_str)
                .is_some_and(|r| !r.is_empty()));
            rejections += 1;
        }
    }
    assert_eq!(
        results + rejections,
        5,
        "every request got exactly one reply"
    );
    assert!(rejections >= 1, "backpressure never triggered");
    assert!(results >= 1, "at least the first search must be admitted");

    // Cancellation: the ack gives us the job id; cancel it, and both the
    // cancel reply and the (possibly already racing) result line must be
    // well formed.
    let mut client = ServeClient::connect(addr).unwrap();
    let req = SearchRequest {
        query: slow_query.clone(),
        top_n: 5,
        deadline_ms: None,
        tag: Some("victim".into()),
        ack: true,
    };
    // After the cancel verb the connection is owed exactly two lines in
    // either order: the cancel reply and the job's single result line
    // (cancelled or raced-to-completion, possibly ahead of its own ack).
    let (job, early) = submit_acked(&mut client, req);
    let (cancel, result) = cancel_and_collect(&mut client, job, early);
    let outcome = cancel.get("outcome").and_then(Json::as_str).unwrap();
    assert!(outcome == "cancelled" || outcome == "already_done");
    if outcome == "cancelled" {
        assert_eq!(result.get("cancelled").and_then(Json::as_bool), Some(true));
        assert!(ServeClient::hits(&result).unwrap().is_empty());
    }
    // A cancelled-while-running job stays "running" until its in-flight
    // shards drain; poll briefly instead of assuming instant settlement.
    let mut state = String::new();
    for _ in 0..100 {
        let status = client.status(job).unwrap();
        state = status
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if state == "done" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(state, "done");

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// A hand-rolled wire slave that registers, asks for work, and hangs up
/// the moment it is handed a task — a process crash mid-query, as seen
/// from the daemon.
struct DoomedSlave {
    stream: TcpStream,
    writer: TcpStream,
    pending: Vec<u8>,
}

impl DoomedSlave {
    fn register(addr: std::net::SocketAddr, digest: u64) -> DoomedSlave {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        let mut slave = DoomedSlave {
            stream,
            writer,
            pending: Vec::new(),
        };
        writeln!(
            &mut slave.writer,
            "{{\"type\":\"register\",\"name\":\"doomed\",\"gcups\":1.0,\
             \"proto\":{PROTOCOL_VERSION},\"digest\":\"{digest:016x}\"}}"
        )
        .unwrap();
        let line = slave.read_line().expect("handshake reply");
        assert!(
            line.contains("\"registered\""),
            "daemon refused the slave: {line}"
        );
        writeln!(&mut slave.writer, "{{\"type\":\"request\"}}").unwrap();
        slave
    }

    /// Next protocol line; heartbeats are sent while waiting so the
    /// daemon's liveness deadline never fires prematurely.
    fn read_line(&mut self) -> Option<String> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop();
                return Some(String::from_utf8(line).unwrap());
            }
            let mut chunk = [0u8; 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    writeln!(&mut self.writer, "{{\"type\":\"heartbeat\"}}").ok();
                }
                Err(_) => return None,
            }
        }
    }

    /// Block until the daemon assigns a task, then die without a word.
    fn die_on_first_assignment(mut self) {
        while let Some(line) = self.read_line() {
            if line.contains("\"tasks\"") {
                return; // drop both socket halves: a crash mid-assignment
            }
        }
    }
}

#[test]
fn hybrid_fleet_survives_a_remote_slave_dying_mid_query() {
    const TOP_N: usize = 10;
    let db = random_db(113, 60, 110);
    let queries: Vec<String> = (0..4)
        .map(|i| random_query_ascii(500 + i, 200 + 40 * i as usize))
        .collect();
    let expected: Vec<Vec<Hit>> = queries.iter().map(|q| cold_hits(q, &db, TOP_N)).collect();

    // Two local workers plus a slave listener; caching off so every query
    // really exercises the fleet, and enough shards per query that remote
    // slaves always have work to claim.
    let daemon = ServeDaemon::bind_snapshot(
        ("127.0.0.1", 0),
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 2,
            shards: 6,
            cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr().unwrap();
    let slave_addr = daemon
        .listen_slaves(("127.0.0.1", 0), NetConfig::default())
        .unwrap();
    let daemon = std::thread::spawn(move || daemon.run());

    // A real slave: full protocol, heartbeats, shard scans over
    // its own copy of the database. No reconnect budget — when the daemon
    // shuts down, the slave exits instead of retrying.
    let slave_db = db.clone();
    let slave = std::thread::spawn(move || {
        let net = NetConfig {
            reconnect_max_retries: 0,
            ..NetConfig::default()
        };
        run_slave(
            slave_addr,
            "remote-a",
            1.0,
            &snap(&slave_db),
            &scoring(),
            &net,
        )
    });

    let pe_count = |stats: &Json| {
        stats
            .get("pes")
            .and_then(Json::as_array)
            .map(|p| p.len())
            .unwrap_or(0)
    };
    let mut client = ServeClient::connect(addr).unwrap();
    for _ in 0..200 {
        if pe_count(&client.stats().unwrap()) >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        pe_count(&client.stats().unwrap()) >= 3,
        "remote-a never joined the pool"
    );

    // A second remote that will crash the moment it is handed a shard.
    let doomed = DoomedSlave::register(slave_addr, Identity::of(&snap(&db), &scoring()).digest);
    for _ in 0..200 {
        if pe_count(&client.stats().unwrap()) >= 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        pe_count(&client.stats().unwrap()) >= 4,
        "doomed slave never joined the pool"
    );

    // The doomed slave dies on whichever query first hands it a shard (a
    // fresh one or a replica). That it was handed one is read from its own
    // thread finishing, never assumed from how long a scan takes: a shard
    // only goes out while a query is in flight, so the death is mid-query
    // by construction. A shard it held must requeue to the survivors, and
    // every merged hit table — before, during and after the death — must
    // be byte-identical to the cold scan.
    let doomed = std::thread::spawn(move || doomed.die_on_first_assignment());
    let mut served = 0usize;
    while !doomed.is_finished() {
        assert!(served < 2000, "the doomed slave was never handed a shard");
        let i = served % queries.len();
        let reply = client.search(&queries[i], TOP_N).unwrap();
        assert_eq!(reply.get("cancelled").and_then(Json::as_bool), Some(false));
        assert_eq!(
            ServeClient::hits(&reply).unwrap(),
            expected[i],
            "query {i}: hybrid fleet result differs from cold scan around the slave death"
        );
        served += 1;
    }
    doomed.join().unwrap();

    // The fleet keeps serving: local threads + the surviving remote.
    for (i, q) in queries.iter().enumerate() {
        let reply = client.search(q, TOP_N).unwrap();
        assert_eq!(
            ServeClient::hits(&reply).unwrap(),
            expected[i],
            "query {i}: hybrid fleet result differs from cold scan"
        );
    }

    // The surviving remote really works: its PE row reports completions.
    // Whether one query hands it a shard is a race with the local workers,
    // so the fleet keeps serving until its row shows one, never assumed
    // from a query count.
    let remote_finished = |client: &mut ServeClient| {
        let stats = client.stats().unwrap();
        let pes = stats.get("pes").and_then(Json::as_array).unwrap();
        assert!(pes.len() >= 4, "stats must list locals and both remotes");
        pes.iter()
            .filter(|p| p.get("name").and_then(Json::as_str) == Some("remote-a"))
            .map(|p| p.get("tasks_finished").and_then(Json::as_u64).unwrap())
            .sum::<u64>()
    };
    let mut served = 0usize;
    while remote_finished(&mut client) == 0 {
        assert!(
            served < 2000,
            "remote-a never completed a shard across {served} queries: {}",
            client.stats().unwrap()
        );
        let i = served % queries.len();
        let reply = client.search(&queries[i], TOP_N).unwrap();
        assert_eq!(
            ServeClient::hits(&reply).unwrap(),
            expected[i],
            "query {i}: hybrid fleet result differs from cold scan"
        );
        served += 1;
    }

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    // The slave exits once the daemon is gone (cleanly via `done`, or with
    // an exhausted reconnect budget if the teardown race dropped it).
    let _ = slave.join().unwrap();
}

#[test]
fn shutdown_drains_inflight_queries_before_exit() {
    // Sized so the query is still in flight, even optimized, when the
    // shutdown from a second connection lands.
    let db = random_db(107, 60, 600);
    let slow_query = random_query_ascii(401, 1200);
    let expected = cold_hits(&slow_query, &db, 5);
    let (addr, daemon) = start_daemon(
        db,
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    );

    // Client A submits and does not read yet; client B orders shutdown.
    let mut a = ServeClient::connect(addr).unwrap();
    let (_, early) = submit_acked(
        &mut a,
        SearchRequest {
            query: slow_query.clone(),
            top_n: 5,
            deadline_ms: None,
            tag: None,
            ack: true,
        },
    );

    let mut b = ServeClient::connect(addr).unwrap();
    let bye = b.shutdown().unwrap();
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));

    // The in-flight query still completes and reaches client A.
    let result = early.unwrap_or_else(|| a.recv().unwrap());
    assert_eq!(result.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(result.get("cancelled").and_then(Json::as_bool), Some(false));
    assert_eq!(ServeClient::hits(&result).unwrap(), expected);

    daemon.join().unwrap().unwrap();
}
