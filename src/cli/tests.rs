use super::args::{scoring_from_opts, Opts};
use super::db::{load_db, load_encoded};
use super::kernel_counts;
use super::run;
use super::search::{align_hits, fused_tasks, search_tables, write_hit_table};

use crate::align::scoring::{GapModel, Scoring, SubstMatrix, MAX_GAP_PENALTY};
use crate::exec::pool::{PeExecutor, QueryPayload, TaskPayload};
use crate::seq::fasta::FastaReader;
use crate::seq::sequence::EncodedSequence;
use crate::seq::Alphabet;
use crate::serve::{QueryService, ServiceConfig};
use crate::simd::engine::KernelStats;
use crate::simd::search::{merge_top_n, Hit};
use crate::store::{build_store, DbFile, Verify};

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

#[test]
fn opts_parser_positional_and_flags() {
    let o = Opts::parse(
        &s(&["a.fasta", "--top", "5", "--align", "b.fasta"]),
        &["top"],
        &["align"],
    )
    .unwrap();
    assert_eq!(o.positional, s(&["a.fasta", "b.fasta"]));
    assert_eq!(o.get("top"), Some("5"));
    assert!(o.has("align"));
    assert_eq!(o.get_parsed("top", 1usize).unwrap(), 5);
    assert_eq!(o.get_parsed("missing", 7usize).unwrap(), 7);
}

#[test]
fn opts_parser_rejects_unknown_and_missing_value() {
    assert!(Opts::parse(&s(&["--bogus"]), &["top"], &[]).is_err());
    assert!(Opts::parse(&s(&["--top"]), &["top"], &[]).is_err());
}

#[test]
fn scoring_from_opts_defaults_and_overrides() {
    let o = Opts::parse(&s(&[]), &["matrix", "gap-open", "gap-extend"], &[]).unwrap();
    let sc = scoring_from_opts(&o).unwrap();
    assert_eq!(sc.matrix.name, "BLOSUM62");
    let o = Opts::parse(
        &s(&["--matrix", "pam250", "--gap-open", "12"]),
        &["matrix", "gap-open", "gap-extend"],
        &[],
    )
    .unwrap();
    let sc = scoring_from_opts(&o).unwrap();
    assert_eq!(sc.matrix.name, "PAM250");
    assert_eq!(
        sc.gap,
        GapModel::Affine {
            open: 12,
            extend: 2
        }
    );
}

#[test]
fn unknown_command_errors() {
    assert!(run(&s(&["frobnicate"])).is_err());
    assert!(run(&s(&["help"])).is_ok());
}

#[test]
fn retired_measurement_verbs_are_unknown_commands() {
    // Measurement lives in `benchmark/` alone; the verbs it superseded
    // must be gone from the dispatch and from the help text alike. (Names
    // assembled from parts so a grep for the retired verbs finds nothing.)
    for suffix in ["kernels", "serve", "store", "store-probe"] {
        let verb = format!("bench-{suffix}");
        let err = run(&s(&[&verb])).unwrap_err();
        assert!(err.contains("unknown command"), "{verb}: {err}");
    }
    assert!(!super::USAGE.contains("bench"), "help names a bench verb");
}

#[test]
fn simulate_smoke_small() {
    // A tiny simulated run exercises the whole path.
    run(&s(&[
        "simulate",
        "--fleet",
        "gpu:1+sse:1",
        "--db",
        "dog",
        "--queries",
        "4",
    ]))
    .unwrap();
}

#[test]
fn retired_scan_knobs_are_unknown_flags() {
    // Every PE scans at the one chunk size with adaptive dispatch, the
    // daemon groups queries by the pool's one pass-sharing rule, and
    // `simulate` takes Ω from its policy: the knobs are refused as flags.
    for args in [
        &["serve", "--chunk", "64"],
        &["serve", "--kernel", "auto"],
        &["serve", "--fusion", "4"],
        &["slave", "--kernel", "auto"],
        &["search", "--kernel", "auto"],
        &["simulate", "--omega", "5"],
    ] {
        let err = run(&s(args)).unwrap_err();
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
    // The index is the `.swdb` store (`db build`); no sidecar verb is left.
    let err = run(&s(&["index", "x.fasta"])).unwrap_err();
    assert_eq!(err, r#"unknown command "index""#);
    assert!(!super::USAGE.contains("swhybrid index"), "help names index");
}

#[test]
fn distributed_master_slave_via_cli_paths() {
    // Exercise cmd_master + cmd_slave end-to-end on localhost with an
    // ephemeral port.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_net_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    run(&s(&["generate", "rat", "0.0003", db.to_str().unwrap()])).unwrap();
    let q = dir.join("q.fasta");
    let first = FastaReader::open(&db)
        .unwrap()
        .next_record()
        .unwrap()
        .unwrap();
    std::fs::write(&q, crate::seq::fasta::to_string(std::iter::once(&first))).unwrap();

    // Pick a free port by binding briefly.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);

    let q2 = q.clone();
    let db2 = db.clone();
    let addr2 = addr.clone();
    let slave = std::thread::spawn(move || {
        // Retry until the master is listening.
        for _ in 0..200 {
            let result = run(&s(&[
                "slave",
                q2.to_str().unwrap(),
                db2.to_str().unwrap(),
                "--connect",
                &addr2,
                "--name",
                "cli-slave",
            ]));
            if result.is_ok() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("slave never connected");
    });
    let events = dir.join("events.json");
    run(&s(&[
        "master",
        q.to_str().unwrap(),
        db.to_str().unwrap(),
        "--listen",
        &addr,
        "--slaves",
        "1",
        "--register-timeout",
        "30",
        "--events",
        events.to_str().unwrap(),
    ]))
    .unwrap();
    slave.join().unwrap();
    // The export is JSONL: every line is one well-formed event object.
    let text = std::fs::read_to_string(&events).unwrap();
    let entries: Vec<crate::json::Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| crate::json::Json::parse(l).expect("event line is valid JSON"))
        .collect();
    assert!(!entries.is_empty(), "event export is empty");
    assert!(
        entries
            .iter()
            .all(|e| e.get("event").and_then(crate::json::Json::as_str).is_some()),
        "every event line carries its kind"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slave_loads_only_its_database_and_is_refused_on_another() {
    // One slave form: `slave <db.fasta>`. An older leading query file is
    // ignored — this one does not exist — and a slave on another database
    // is refused at registration while the run completes on the right one.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_slave_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    let other = dir.join("other.fasta");
    run(&s(&["generate", "rat", "0.0003", db.to_str().unwrap()])).unwrap();
    run(&s(&["generate", "rat", "0.0002", other.to_str().unwrap()])).unwrap();
    let first = FastaReader::open(&db)
        .unwrap()
        .next_record()
        .unwrap()
        .unwrap();
    let q = dir.join("q.fasta");
    std::fs::write(&q, crate::seq::fasta::to_string(std::iter::once(&first))).unwrap();
    let db_s = db.to_str().unwrap().to_string();
    for gone in [&["--serve"][..], &["--top", "5"]] {
        let mut args = vec!["slave", &db_s, "--connect", "127.0.0.1:1"];
        args.extend(gone);
        let err = run(&s(&args)).unwrap_err();
        assert!(err.contains("unknown flag"), "{gone:?}: {err}");
    }

    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);
    let (addr2, other2, db2) = (addr.clone(), other.clone(), db_s.clone());
    let slaves = std::thread::spawn(move || {
        let slave = |args: &[&str]| {
            let mut all = vec!["--connect", &addr2, "--reconnect-retries", "0"];
            all.splice(0..0, args.iter().copied());
            run(&s(&all))
        };
        // Retry until the master is listening: a refusal is the answer.
        let refusal = (0..200)
            .find_map(|_| match slave(&["slave", other2.to_str().unwrap()]) {
                Err(e) if e.contains("mismatch") => Some(e),
                _ => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    None
                }
            })
            .expect("the other-database slave was never refused");
        slave(&["slave", "/nonexistent/q.fasta", &db2, "--name", "right"])
            .expect("the legacy query file is ignored");
        refusal
    });
    run(&s(&[
        "master",
        q.to_str().unwrap(),
        &db_s,
        "--listen",
        &addr,
        "--slaves",
        "1",
        "--register-timeout",
        "30",
    ]))
    .unwrap();
    let refusal = slaves.join().unwrap();
    assert!(
        refusal.contains("database or scoring mismatch"),
        "{refusal}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_query_daemon_round_trip() {
    // Exercise cmd_serve + cmd_query end-to-end: serve a synthetic
    // database, query it twice (second hit must come from the cache),
    // print stats, then shut the daemon down and join it.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    run(&s(&["generate", "dog", "0.0005", db.to_str().unwrap()])).unwrap();
    let first = FastaReader::open(&db)
        .unwrap()
        .next_record()
        .unwrap()
        .unwrap();
    let q = dir.join("q.fasta");
    std::fs::write(&q, crate::seq::fasta::to_string(std::iter::once(&first))).unwrap();

    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);

    let db2 = db.clone();
    let addr2 = addr.clone();
    let daemon = std::thread::spawn(move || {
        run(&s(&[
            "serve",
            db2.to_str().unwrap(),
            "--listen",
            &addr2,
            "--workers",
            "2",
        ]))
        .unwrap();
    });
    // Retry until the daemon is listening.
    let mut connected = false;
    for _ in 0..300 {
        if run(&s(&[
            "query",
            q.to_str().unwrap(),
            "--connect",
            &addr,
            "--top",
            "3",
        ]))
        .is_ok()
        {
            connected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(connected, "query CLI never reached the daemon");
    // Repeat (cache hit) + stats + shutdown in one connection.
    run(&s(&[
        "query",
        q.to_str().unwrap(),
        "--connect",
        &addr,
        "--top",
        "3",
        "--stats",
        "--shutdown",
    ]))
    .unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_hybrid_fleet_with_remote_slave_round_trip() {
    // `serve --listen-slaves` + `slave`: a daemon scheduling a
    // mixed fleet (local worker threads + one remote TCP slave) must
    // answer queries and shut down cleanly, with the remote exiting too.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_hybrid_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    run(&s(&["generate", "dog", "0.0005", db.to_str().unwrap()])).unwrap();
    let first = FastaReader::open(&db)
        .unwrap()
        .next_record()
        .unwrap()
        .unwrap();
    let q = dir.join("q.fasta");
    std::fs::write(&q, crate::seq::fasta::to_string(std::iter::once(&first))).unwrap();

    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    let probe2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let slave_addr = probe2.local_addr().unwrap().to_string();
    drop((probe, probe2));

    let db2 = db.clone();
    let addr2 = addr.clone();
    let slave_addr2 = slave_addr.clone();
    let daemon = std::thread::spawn(move || {
        run(&s(&[
            "serve",
            db2.to_str().unwrap(),
            "--listen",
            &addr2,
            "--listen-slaves",
            &slave_addr2,
            "--workers",
            "2",
            "--shards",
            "4",
            "--cache",
            "0",
        ]))
        .unwrap();
    });
    let db3 = db.clone();
    let slave = std::thread::spawn(move || {
        // Wait until the daemon's slave port accepts, then join. The
        // session ends either cleanly (`done` at drain) or with a
        // connection loss if daemon teardown wins the race — both are
        // valid exits for this smoke test.
        let mut up = false;
        for _ in 0..300 {
            if std::net::TcpStream::connect(&slave_addr).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(up, "daemon slave port never opened");
        let _ = run(&s(&[
            "slave",
            db3.to_str().unwrap(),
            "--connect",
            &slave_addr,
            "--name",
            "cli-remote",
            "--reconnect-retries",
            "0",
        ]));
    });
    let mut connected = false;
    for _ in 0..300 {
        if run(&s(&[
            "query",
            q.to_str().unwrap(),
            "--connect",
            &addr,
            "--top",
            "3",
        ]))
        .is_ok()
        {
            connected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(connected, "query CLI never reached the hybrid daemon");
    run(&s(&[
        "query",
        q.to_str().unwrap(),
        "--connect",
        &addr,
        "--top",
        "3",
        "--stats",
        "--shutdown",
    ]))
    .unwrap();
    daemon.join().unwrap();
    slave.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn db_build_inspect_and_store_search_round_trip() {
    // `db build` + `db inspect --verify` + `search --db-store`: the
    // store-backed scan must rank exactly what the FASTA scan ranks.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    let db_s = db.to_str().unwrap().to_string();
    run(&s(&["generate", "dog", "0.0005", &db_s])).unwrap();
    let store = dir.join("db.swdb");
    let store_s = store.to_str().unwrap().to_string();
    run(&s(&["db", "build", &db_s, &store_s, "--name", "dog-test"])).unwrap();
    run(&s(&["db", "inspect", &store_s, "--verify"])).unwrap();
    run(&s(&["db", "inspect", &store_s])).unwrap();

    let first = FastaReader::open(&db)
        .unwrap()
        .next_record()
        .unwrap()
        .unwrap();
    let q = dir.join("q.fasta");
    std::fs::write(&q, crate::seq::fasta::to_string(std::iter::once(&first))).unwrap();
    run(&s(&[
        "search",
        q.to_str().unwrap(),
        "--db-store",
        &store_s,
        "--verify-store",
        "--top",
        "3",
        "--align",
    ]))
    .unwrap();

    // Byte-identity of the two paths, checked on the hit tables
    // themselves (the CLI prints; the API diff is the real assert).
    let query = EncodedSequence::from_sequence(&first, Alphabet::Protein).unwrap();
    let scoring = Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };
    let from_fasta = load_db(DbFile::Fasta(&db_s), &scoring).unwrap();
    let query = std::slice::from_ref(&query);
    let via_fasta = search_tables(query, &from_fasta, &scoring, 5, 1);
    let from_store = load_db(DbFile::Store(&store_s, Verify::Full), &scoring).unwrap();
    assert!(from_store.arena().is_shared(), "store arena is not mapped");
    assert_eq!(from_store.digest(), from_fasta.digest());
    let via_store = search_tables(query, &from_store, &scoring, 5, 1);
    assert_eq!(via_fasta, via_store);

    // Mismatched usage is rejected, not silently accepted.
    assert!(run(&s(&[
        "search",
        q.to_str().unwrap(),
        &db_s,
        "--db-store",
        &store_s
    ]))
    .is_err());
    assert!(run(&s(&["db", "frobnicate"])).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_from_store_and_reload_via_cli() {
    // `serve --db-store` + `reload --store`: a daemon booted from one
    // store generation hot-swaps onto another through the CLI verbs.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db_a = dir.join("a.fasta");
    let db_b = dir.join("b.fasta");
    run(&s(&["generate", "dog", "0.0005", db_a.to_str().unwrap()])).unwrap();
    run(&s(&["generate", "rat", "0.0003", db_b.to_str().unwrap()])).unwrap();
    let store_a = dir.join("a.swdb");
    let store_b = dir.join("b.swdb");
    run(&s(&[
        "db",
        "build",
        db_a.to_str().unwrap(),
        store_a.to_str().unwrap(),
    ]))
    .unwrap();
    run(&s(&[
        "db",
        "build",
        db_b.to_str().unwrap(),
        store_b.to_str().unwrap(),
    ]))
    .unwrap();
    let first = FastaReader::open(&db_a)
        .unwrap()
        .next_record()
        .unwrap()
        .unwrap();
    let q = dir.join("q.fasta");
    std::fs::write(&q, crate::seq::fasta::to_string(std::iter::once(&first))).unwrap();

    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);
    let addr2 = addr.clone();
    let store_a2 = store_a.clone();
    let daemon = std::thread::spawn(move || {
        run(&s(&[
            "serve",
            "--db-store",
            store_a2.to_str().unwrap(),
            "--listen",
            &addr2,
            "--workers",
            "2",
        ]))
        .unwrap();
    });
    let mut connected = false;
    for _ in 0..300 {
        if run(&s(&[
            "query",
            q.to_str().unwrap(),
            "--connect",
            &addr,
            "--top",
            "3",
        ]))
        .is_ok()
        {
            connected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(connected, "query CLI never reached the store-backed daemon");

    // Hot-swap to generation B (with full verification), then prove the
    // daemon answers from the new database and shuts down cleanly.
    run(&s(&[
        "reload",
        "--connect",
        &addr,
        "--store",
        store_b.to_str().unwrap(),
        "--verify",
    ]))
    .unwrap();
    // Reloading a nonsense path is refused without killing the daemon.
    assert!(run(&s(&[
        "reload",
        "--connect",
        &addr,
        "--store",
        dir.join("missing.swdb").to_str().unwrap(),
    ]))
    .is_err());
    assert!(run(&s(&["reload", "--connect", &addr])).is_err());
    run(&s(&[
        "query",
        q.to_str().unwrap(),
        "--connect",
        &addr,
        "--top",
        "3",
        "--stats",
        "--shutdown",
    ]))
    .unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_index_search_round_trip() {
    // The index is the `.swdb` store: generate → db build → search on it.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    let db_s = db.to_str().unwrap().to_string();
    run(&s(&["generate", "dog", "0.0005", &db_s])).unwrap();
    let store = dir.join("db.swdb");
    let store_s = store.to_str().unwrap().to_string();
    run(&s(&["db", "build", &db_s, &store_s])).unwrap();
    // Use the database's own first record as the query: it must be hit.
    let first = FastaReader::open(&db)
        .unwrap()
        .next_record()
        .unwrap()
        .unwrap();
    let q = dir.join("q.fasta");
    std::fs::write(&q, crate::seq::fasta::to_string(std::iter::once(&first))).unwrap();
    run(&s(&[
        "search",
        q.to_str().unwrap(),
        "--db-store",
        &store_s,
        "--top",
        "3",
        "--align",
    ]))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_protein_store_is_refused_by_every_verb_with_one_error() {
    // A `.swdb` whose residues are DNA codes must never reach a protein
    // scoring matrix. Every verb that takes a store loads it through the
    // one loader, so each refuses it with the same line — `master` too,
    // which used to skip the check.
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_alpha_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dna: Vec<EncodedSequence> = [&b"ACGTACGTTGCA"[..], &b"GGGCCCAATT"[..]]
        .iter()
        .enumerate()
        .map(|(i, r)| EncodedSequence::from_residues(format!("d{i}"), r, Alphabet::Dna).unwrap())
        .collect();
    let store = dir.join("dna.swdb");
    let store_s = store.to_str().unwrap().to_string();
    build_store(&store, "dna", &dna).unwrap();
    let protein = dir.join("p.fasta");
    std::fs::write(&protein, ">p0\nMKVLAWCDEFGHIKLMNPQRST\n>p1\nAWCDEFGH\n").unwrap();
    let protein_s = protein.to_str().unwrap().to_string();
    let expected = format!("{store_s}: store alphabet Dna does not match scoring alphabet Protein");

    let refused = |args: &[&str]| {
        let err = run(&s(args)).expect_err("a DNA store must be refused");
        assert!(err.ends_with(&expected), "{}: {err}", args[0]);
    };
    refused(&["search", &protein_s, "--db-store", &store_s]);
    refused(&["serve", "--db-store", &store_s]);
    refused(&[
        "master",
        &protein_s,
        "--db-store",
        &store_s,
        "--listen",
        "127.0.0.1:0",
    ]);

    // `reload` reaches the same loader through a running daemon, which
    // keeps serving its protein database afterwards.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);
    let (addr2, protein2) = (addr.clone(), protein_s.clone());
    let daemon = std::thread::spawn(move || {
        run(&s(&[
            "serve",
            &protein2,
            "--listen",
            &addr2,
            "--workers",
            "1",
        ]))
        .unwrap();
    });
    let mut connected = false;
    for _ in 0..300 {
        if run(&s(&["query", "--connect", &addr])).is_ok() {
            connected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(connected, "query CLI never reached the daemon");
    refused(&["reload", "--connect", &addr, "--store", &store_s]);
    run(&s(&[
        "query",
        &protein_s,
        "--connect",
        &addr,
        "--top",
        "2",
        "--shutdown",
    ]))
    .unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A generated database and a query file of its first `n_queries`
/// records, in a fresh temp dir named by `tag`.
fn search_fixture(tag: &str, n_queries: usize) -> (std::path::PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta").to_str().unwrap().to_string();
    run(&s(&["generate", "rat", "0.002", &db])).unwrap();
    let mut reader = FastaReader::open(&db).unwrap();
    let records: Vec<_> = (0..n_queries)
        .map(|_| reader.next_record().unwrap().unwrap())
        .collect();
    let q = dir.join("q.fasta").to_str().unwrap().to_string();
    std::fs::write(&q, crate::seq::fasta::to_string(records.iter())).unwrap();
    (dir, q, db)
}

#[test]
fn gap_penalties_past_the_bound_are_refused_by_name() {
    let (dir, q, db) = search_fixture("gaps", 1);
    // The first would overflow `open + extend` in the profile build; the
    // second, the scalar kernels' gap recurrence.
    for gaps in [["2147483647", "1"], ["10", "1000000000"]] {
        let args = [
            "search",
            &q,
            &db,
            "--gap-open",
            gaps[0],
            "--gap-extend",
            gaps[1],
        ];
        let err = run(&s(&args)).unwrap_err();
        assert!(err.contains("at most 1000000"), "{gaps:?}: {err}");
    }
    // The bound itself scans, and USAGE names it.
    let at_bound = MAX_GAP_PENALTY.to_string();
    let args = [
        "search",
        &q,
        &db,
        "--gap-open",
        &at_bound,
        "--gap-extend",
        &at_bound,
    ];
    run(&s(&args)).unwrap();
    assert!(super::USAGE.contains(&format!("must be at most {at_bound}")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_threads_do_not_change_the_hit_tables() {
    let (dir, q, db) = search_fixture("threads", 4);
    run(&s(&["search", &q, &db, "--threads", "3", "--top", "6"])).unwrap();
    let scoring = Scoring::blosum62_affine();
    let snapshot = load_db(DbFile::Fasta(&db), &scoring).unwrap();
    let queries = load_encoded(&q).unwrap();
    let tables = |threads: usize| {
        let (tables, _) = search_tables(&queries, &snapshot, &scoring, 6, threads);
        let mut printed = Vec::new();
        for (query, hits) in queries.iter().zip(&tables) {
            write_hit_table(
                &mut printed,
                &query.id,
                query.len(),
                hits,
                &snapshot,
                &scoring,
            )
            .unwrap();
        }
        String::from_utf8(printed).unwrap()
    };
    let one = tables(1);
    assert_eq!(one.matches("# query").count(), 4);
    assert_eq!(tables(3), one);
    std::fs::remove_dir_all(&dir).ok();
}

/// `search --threads 2` is the daemon's 2-shard decomposition: the same
/// per-query hits, and the same kernel counters summed over the shards and
/// the queries.
#[test]
fn search_threads_match_a_two_worker_daemon() {
    let (dir, q, db) = search_fixture("daemon", 3);
    let scoring = Scoring::blosum62_affine();
    let snapshot = load_db(DbFile::Fasta(&db), &scoring).unwrap();
    let svc = QueryService::with_snapshot(
        snapshot.clone(),
        scoring.clone(),
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let queries = load_encoded(&q).unwrap();
    let (tables, kernels) = search_tables(&queries, &snapshot, &scoring, 7, 2);
    let mut replied = KernelStats::default();
    for (query, hits) in queries.iter().zip(tables) {
        let reply = svc.search_blocking(query.codes.clone(), 7, 1).unwrap();
        assert!(!reply.cached);
        assert_eq!(reply.hits, hits, "{}", query.id);
        assert_eq!(reply.cells, reply.kernels.cells_computed);
        replied.merge(&reply.kernels);
    }
    assert_eq!(replied, kernels);
    assert!(kernels.cells_computed > 0);
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `search` packages short queries into shared passes; what it prints must
/// be the per-query scan's. Ten queries ≤ 128 aa (a full package of 8 and
/// a tail of 2 once the long ones are scanned) and two past it (solo
/// passes), interleaved: at `--threads 1` and 3 every hit table and the
/// `kernel auto:` line equal those merged from one `PeExecutor::scan` per
/// query and shard.
#[test]
fn packaged_search_prints_the_per_query_scans() {
    let dir = std::env::temp_dir().join(format!("swhybrid_cli_package_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta").to_str().unwrap().to_string();
    run(&s(&["generate", "rat", "0.002", &db])).unwrap();
    let records = FastaReader::open(&db).unwrap().read_all().unwrap();
    let long: Vec<_> = records.iter().filter(|r| r.residues.len() > 300).collect();
    let mut chosen = Vec::new();
    for i in 0..10 {
        // A window of a subject, so every query has real hits.
        let record = &records[i * 3 % records.len()];
        let len = (24 + 10 * i).min(record.residues.len());
        let mut query = record.clone();
        query.id = format!("short{i}");
        query.residues.truncate(len);
        chosen.push(query);
        if i == 3 || i == 7 {
            chosen.push(long[i % long.len()].clone());
        }
    }
    let short = chosen.iter().filter(|q| q.residues.len() <= 128).count();
    assert!(
        short > 8 && short < chosen.len(),
        "{short} of {}",
        chosen.len()
    );
    let q = dir.join("q.fasta").to_str().unwrap().to_string();
    std::fs::write(&q, crate::seq::fasta::to_string(chosen.iter())).unwrap();
    run(&s(&["search", &q, &db, "--threads", "3"])).unwrap();

    let scoring = Scoring::blosum62_affine();
    let snapshot = load_db(DbFile::Fasta(&db), &scoring).unwrap();
    let queries = load_encoded(&q).unwrap();
    let print = |tables: &[Vec<Hit>], kernels: &KernelStats| {
        let mut printed = Vec::new();
        for (query, hits) in queries.iter().zip(tables) {
            write_hit_table(
                &mut printed,
                &query.id,
                query.len(),
                hits,
                &snapshot,
                &scoring,
            )
            .unwrap();
        }
        (String::from_utf8(printed).unwrap(), kernel_counts(kernels))
    };
    for threads in [1, 3] {
        let shards = snapshot.shard_ranges(threads);
        let mut pe = PeExecutor::new(&scoring);
        let mut kernels = KernelStats::default();
        let reference: Vec<Vec<Hit>> = queries
            .iter()
            .map(|query| {
                let lists = shards.iter().map(|&shard| {
                    let payload = TaskPayload {
                        queries: vec![QueryPayload {
                            query: query.codes.clone(),
                            top_n: 10,
                        }],
                        shard,
                    };
                    let result = pe.scan(&snapshot, &payload).unwrap().queries.remove(0);
                    kernels.merge(&result.kernels);
                    result.hits
                });
                merge_top_n(lists.collect::<Vec<_>>(), 10)
            })
            .collect();
        let (packaged, packaged_kernels) =
            search_tables(&queries, &snapshot, &scoring, 10, threads);
        let (tables, counts) = print(&packaged, &packaged_kernels);
        assert_eq!(tables.matches("# query").count(), queries.len());
        let expected = print(&reference, &kernels);
        assert_eq!((tables, counts), expected, "--threads {threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `search` makes its tasks once, longest query first: a query past the
/// pool's fuse bound is a group alone, and short ones share a group up to
/// the pool's limit of 8 — 19 of them make groups of 8, 8 and 3 — and
/// each group is a task on each shard, group by group.
#[test]
fn search_fuses_short_queries_into_tasks_longest_first() {
    use crate::exec::pool::MAX_FUSABLE_QUERY;
    let query = |i: usize, len: usize| EncodedSequence {
        id: format!("q{i}"),
        codes: (0..len).map(|r| ((r + i) % 20) as u8).collect(),
        alphabet: Alphabet::Protein,
    };
    // 19 short lengths, shuffled, the longest at the bound; one query just
    // past it, in the middle of the input.
    let mut queries: Vec<EncodedSequence> = (0..19)
        .map(|i| query(i, MAX_FUSABLE_QUERY - (i * 7) % 19))
        .collect();
    queries.insert(5, query(99, MAX_FUSABLE_QUERY + 1));
    let shards = [(0, 3), (3, 17)];
    let tasks = fused_tasks(&queries, 7, &shards);
    assert_eq!(tasks.len(), 4 * shards.len());
    let groups: Vec<&[usize]> = tasks.iter().step_by(2).map(|(m, _)| &m[..]).collect();
    let sizes: Vec<usize> = groups.iter().map(|members| members.len()).collect();
    assert_eq!(sizes, [1, 8, 8, 3]);
    assert_eq!(groups[0], [5], "the long query runs alone and first");
    let order: Vec<usize> = groups.concat();
    let lens: Vec<usize> = order.iter().map(|&i| queries[i].len()).collect();
    assert!(
        lens.windows(2).all(|w| w[0] > w[1]),
        "longest first: {lens:?}"
    );
    let mut seen = order.clone();
    seen.sort_unstable();
    assert_eq!(seen, (0..queries.len()).collect::<Vec<_>>());
    for (t, (members, task)) in tasks.iter().enumerate() {
        assert_eq!(members[..], *groups[t / 2]);
        assert_eq!(task.shard, shards[t % 2]);
        let payload: Vec<_> = members
            .iter()
            .map(|&i| QueryPayload {
                query: queries[i].codes.clone(),
                top_n: 7,
            })
            .collect();
        assert_eq!(task.queries, payload);
    }
    assert!(fused_tasks(&[], 7, &shards).is_empty());
}

#[test]
fn align_hits_rescore_to_their_hits() {
    let (dir, q, db) = search_fixture("align", 2);
    let scoring = Scoring::blosum62_affine();
    let snapshot = load_db(DbFile::Fasta(&db), &scoring).unwrap();
    let queries = load_encoded(&q).unwrap();
    let (tables, _) = search_tables(&queries, &snapshot, &scoring, 5, 1);
    for (query, hits) in queries.iter().zip(&tables) {
        let aligned = align_hits(hits, &query.codes, &snapshot, &scoring);
        assert_eq!(aligned.len(), 5);
        for (hit, alignment) in &aligned {
            assert_eq!(alignment.score, hit.score);
            let subject = snapshot.residues(hit.db_index);
            assert_eq!(
                alignment.rescore(&query.codes, subject, &scoring),
                hit.score
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
