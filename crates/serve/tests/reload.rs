//! Hot-reload soak: the daemon must swap database generations atomically
//! while queries are in flight. Old-generation jobs finish on — and match
//! an oracle over — the old database; new-generation jobs match the new
//! one; no reply ever mixes the two. Every pre-reload cache entry is
//! unreachable after the swap, and a remote serve-slave is disconnected
//! by the reload and can only rejoin under the new database's identity
//! (database and scoring digest).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rand::{RngExt, SeedableRng};
use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_core::net::{run_slave, NetConfig, PROTOCOL_VERSION};
use swhybrid_core::pool::{Identity, PeExecutor, QueryPayload, TaskPayload};
use swhybrid_json::Json;
use swhybrid_seq::digest::db_digest;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbSnapshot};
use swhybrid_serve::service::ServiceConfig;
use swhybrid_serve::{ServeClient, ServeDaemon};
use swhybrid_simd::search::Hit;
use swhybrid_store::{build_store, Store};

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
                id: format!("g{seed}-s{i}"),
                codes: (0..len).map(|_| rng.random_range(0..20u8)).collect(),
                alphabet: Alphabet::Protein,
            }
        })
        .collect()
}

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

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdb_reload_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn hot_reload_under_concurrent_load_is_atomic() {
    const CLIENTS: usize = 4;
    const TOP_N: usize = 8;
    let dir = tmp_dir("atomic");
    let db_a = random_db(11, 50, 90);
    let db_b = random_db(13, 55, 90);
    let path_a = dir.join("gen_a.swdb");
    let path_b = dir.join("gen_b.swdb");
    build_store(&path_a, "gen-a", &db_a).unwrap();
    build_store(&path_b, "gen-b", &db_b).unwrap();

    let queries: Vec<String> = (0..5)
        .map(|i| random_query_ascii(900 + i, 30 + 6 * i as usize))
        .collect();
    let oracle_a: Vec<Vec<Hit>> = queries.iter().map(|q| cold_hits(q, &db_a, TOP_N)).collect();
    let oracle_b: Vec<Vec<Hit>> = queries.iter().map(|q| cold_hits(q, &db_b, TOP_N)).collect();

    // The daemon boots from the mapped store — the serve --db-store path.
    let snapshot = Store::open_verified(&path_a)
        .unwrap()
        .into_snapshot()
        .unwrap();
    let daemon = ServeDaemon::bind_snapshot(
        ("127.0.0.1", 0),
        snapshot,
        scoring(),
        ServiceConfig {
            workers: 3,
            max_active: 2,
            per_client_inflight: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr().unwrap();
    let daemon = std::thread::spawn(move || daemon.run());

    // A boundary query only this thread uses: warmed into the generation-0
    // cache, so its post-reload miss proves the swap invalidated every
    // pre-reload entry.
    let boundary = random_query_ascii(999, 44);
    let mut main_client = ServeClient::connect(addr).unwrap();
    let cold = main_client.search(&boundary, TOP_N).unwrap();
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(cold.get("generation").and_then(Json::as_u64), Some(0));
    assert_eq!(
        ServeClient::hits(&cold).unwrap(),
        cold_hits(&boundary, &db_a, TOP_N)
    );
    let warm = main_client.search(&boundary, TOP_N).unwrap();
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));

    // Concurrent clients hammer the query set while the reload lands.
    let reloaded = AtomicBool::new(false);
    let (gen0_seen, gen1_seen) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let queries = &queries;
                let oracle_a = &oracle_a;
                let oracle_b = &oracle_b;
                let reloaded = &reloaded;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    let (mut g0, mut g1) = (0usize, 0usize);
                    for k in 0..400 {
                        let qi = ((c as usize) + k) % queries.len();
                        let reply = client.search(&queries[qi], TOP_N).unwrap();
                        assert_eq!(
                            reply.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "client {c} iteration {k} rejected: {reply}"
                        );
                        let generation = reply.get("generation").and_then(Json::as_u64).unwrap();
                        let hits = ServeClient::hits(&reply).unwrap();
                        // The atomicity law: a reply's hits belong entirely
                        // to the generation it reports — never a mixture.
                        match generation {
                            0 => {
                                g0 += 1;
                                assert_eq!(
                                    hits, oracle_a[qi],
                                    "client {c}: generation-0 reply differs from old-db oracle"
                                );
                            }
                            1 => {
                                g1 += 1;
                                assert_eq!(
                                    hits, oracle_b[qi],
                                    "client {c}: generation-1 reply differs from new-db oracle"
                                );
                            }
                            other => panic!("client {c}: impossible generation {other}"),
                        }
                        if reply.get("cached").and_then(Json::as_bool) == Some(true) {
                            assert_eq!(reply.get("cells").and_then(Json::as_u64), Some(0));
                        }
                        // Keep querying until the swap has landed and this
                        // client has seen the new generation a few times.
                        if reloaded.load(Ordering::SeqCst) && g1 >= 3 {
                            break;
                        }
                    }
                    (g0, g1)
                })
            })
            .collect();

        // Let the clients build up in-flight generation-0 work, then swap.
        std::thread::sleep(Duration::from_millis(40));
        let reply = main_client
            .reload_store(path_b.to_str().unwrap(), true)
            .unwrap();
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("reload"));
        assert_eq!(reply.get("source").and_then(Json::as_str), Some("store"));
        assert_eq!(reply.get("name").and_then(Json::as_str), Some("gen-b"));
        assert_eq!(reply.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(
            reply.get("sequences").and_then(Json::as_u64),
            Some(db_b.len() as u64)
        );
        assert_eq!(
            reply.get("digest").and_then(Json::as_str),
            Some(format!("{:016x}", db_digest(&db_b)).as_str())
        );
        reloaded.store(true, Ordering::SeqCst);

        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(a0, a1), (g0, g1)| (a0 + g0, a1 + g1))
    });
    assert!(gen0_seen > 0, "no query ever ran against generation 0");
    assert!(gen1_seen > 0, "no query ever ran against generation 1");

    // The boundary query was cached under generation 0; after the reload
    // it must miss (and score against the new database).
    let after = main_client.search(&boundary, TOP_N).unwrap();
    assert_eq!(
        after.get("cached").and_then(Json::as_bool),
        Some(false),
        "a pre-reload cache entry survived the swap"
    );
    assert_eq!(after.get("generation").and_then(Json::as_u64), Some(1));
    assert_eq!(
        ServeClient::hits(&after).unwrap(),
        cold_hits(&boundary, &db_b, TOP_N)
    );

    // The daemon's stats agree on the new generation.
    let stats = main_client.stats().unwrap();
    let db = stats.get("db").unwrap();
    assert_eq!(db.get("generation").and_then(Json::as_u64), Some(1));
    assert_eq!(db.get("name").and_then(Json::as_str), Some("gen-b"));
    assert_eq!(
        db.get("digest").and_then(Json::as_str),
        Some(format!("{:016x}", db_digest(&db_b)).as_str())
    );
    assert_eq!(db.get("mapped").and_then(Json::as_bool), Some(true));

    main_client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Register over the raw wire with a digest and report whether the
/// handshake was accepted.
fn raw_register(addr: std::net::SocketAddr, digest: u64) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(
        writer,
        "{{\"type\":\"register\",\"name\":\"probe\",\"gcups\":1.0,\
         \"proto\":{PROTOCOL_VERSION},\"digest\":\"{digest:016x}\"}}"
    )
    .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

#[test]
fn reload_disconnects_remote_slaves_until_they_hold_the_new_digest() {
    const TOP_N: usize = 10;
    let dir = tmp_dir("slaves");
    let db_a = random_db(21, 50, 100);
    let db_b = random_db(23, 50, 100);
    let path_b = dir.join("gen_b.swdb");
    build_store(&path_b, "gen-b", &db_b).unwrap();
    let queries: Vec<String> = (0..4)
        .map(|i| random_query_ascii(800 + i, 150 + 30 * i as usize))
        .collect();

    // Cache off and many shards so remote slaves always have work.
    let daemon = ServeDaemon::bind_snapshot(
        ("127.0.0.1", 0),
        snap(&db_a),
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

    // A generation-0 slave joins with db_a's digest; no reconnect budget,
    // so the reload's disconnect makes it exit instead of flapping.
    let slave_db = db_a.clone();
    let slave_a = std::thread::spawn(move || {
        let net = NetConfig {
            reconnect_max_retries: 0,
            ..NetConfig::default()
        };
        run_slave(
            slave_addr,
            "remote-old",
            1.0,
            &snap(&slave_db),
            &scoring(),
            &net,
        )
    });
    let pe_named = |stats: &Json, name: &str| {
        stats
            .get("pes")
            .and_then(Json::as_array)
            .is_some_and(|pes| {
                pes.iter()
                    .any(|p| p.get("name").and_then(Json::as_str) == Some(name))
            })
    };
    let mut client = ServeClient::connect(addr).unwrap();
    for _ in 0..200 {
        if pe_named(&client.stats().unwrap(), "remote-old") {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        pe_named(&client.stats().unwrap(), "remote-old"),
        "remote-old never joined"
    );

    // A query served by the hybrid fleet matches the old-db oracle.
    let reply = client.search(&queries[0], TOP_N).unwrap();
    assert_eq!(
        ServeClient::hits(&reply).unwrap(),
        cold_hits(&queries[0], &db_a, TOP_N)
    );

    // Reload: the stale slave must be disconnected (it exits — no budget).
    let reload = client
        .reload_store(path_b.to_str().unwrap(), false)
        .unwrap();
    assert_eq!(
        reload.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reload}"
    );
    assert_eq!(reload.get("generation").and_then(Json::as_u64), Some(1));
    let _ = slave_a.join().unwrap();

    // The wire proves the gate: the old identity is refused at
    // registration, the new one is admitted.
    let identity = |db: &[EncodedSequence]| Identity::of(&snap(db), &scoring()).digest;
    let refusal = raw_register(slave_addr, identity(&db_a));
    assert!(
        !refusal.contains("\"registered\""),
        "stale-digest slave was re-admitted: {refusal}"
    );
    let admitted = raw_register(slave_addr, identity(&db_b));
    assert!(
        admitted.contains("\"registered\""),
        "new-digest slave was refused: {admitted}"
    );
    // The new database under another scoring is refused too, and told the
    // daemon's scheme.
    let blosum50 = Scoring {
        matrix: SubstMatrix::blosum50(),
        ..scoring()
    };
    let net = NetConfig::default();
    let err = run_slave(slave_addr, "b50", 1.0, &snap(&db_b), &blosum50, &net)
        .expect_err("a slave with another scoring must be refused");
    let message = err.to_string();
    assert!(
        message.contains("database or scoring mismatch")
            && message.contains("BLOSUM62, gap open 10 extend 2"),
        "unhelpful refusal: {message}"
    );

    // A real generation-1 slave rejoins under the new digest and serves.
    let slave_db = db_b.clone();
    let slave_b = std::thread::spawn(move || {
        let net = NetConfig {
            reconnect_max_retries: 0,
            ..NetConfig::default()
        };
        run_slave(
            slave_addr,
            "remote-new",
            1.0,
            &snap(&slave_db),
            &scoring(),
            &net,
        )
    });
    for _ in 0..200 {
        if pe_named(&client.stats().unwrap(), "remote-new") {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        pe_named(&client.stats().unwrap(), "remote-new"),
        "remote-new never joined after the reload"
    );
    for q in &queries {
        let reply = client.search(q, TOP_N).unwrap();
        assert_eq!(reply.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(
            ServeClient::hits(&reply).unwrap(),
            cold_hits(q, &db_b, TOP_N),
            "post-reload hybrid result differs from new-db oracle"
        );
    }

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    let _ = slave_b.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
