//! Tri-path differential oracle: one store, one query batch, three
//! transports — the `search` one-shot scan, the persistent serve daemon,
//! and the classic master/slave TCP pair — must produce byte-identical
//! hit tables and identical kernel counters.
//!
//! This pins the PR 9 contract: every execution path drives the ONE shard
//! executor (`swhybrid_simd::exec`) with the same plan (full range, chunk
//! floor 64, `KernelChoice::Auto`, single worker), so not only the scores
//! but the exact per-kernel subject counts must agree. A divergence here
//! means a path grew a private executor again.

use std::sync::Arc;

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::device::exec::StripedBackend;
use swhybrid::device::task::TaskSpec;
use swhybrid::exec::net::{run_slave_with, MasterServer, NetConfig};
use swhybrid::exec::policy::Policy;
use swhybrid::exec::sched::MasterConfig;
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::synth::{paper_database, QueryOrder, QuerySetSpec};
use swhybrid::seq::Alphabet;
use swhybrid::serve::{QueryService, ServiceConfig};
use swhybrid::simd::search::{search_arena, DatabaseSearch, Hit, SearchConfig};
use swhybrid::simd::{materialize_hits, KernelStats, PreparedQuery};
use swhybrid::store::{build_store, Store};

const TOP_N: usize = 8;

fn scoring() -> Scoring {
    Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    }
}

/// The shared fixture: a synthetic database, three queries, and a `.swdb`
/// store built from the database in a temp dir.
struct Fixture {
    subjects: Vec<EncodedSequence>,
    queries: Vec<EncodedSequence>,
    store_path: std::path::PathBuf,
    dir: std::path::PathBuf,
}

impl Fixture {
    fn build(tag: &str) -> Fixture {
        let db = paper_database("dog").unwrap().generate_scaled(2013, 0.001);
        let subjects: Vec<EncodedSequence> = db.encode_all().unwrap();
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
        Fixture {
            subjects,
            queries,
            store_path,
            dir,
        }
    }

    fn snapshot(&self) -> swhybrid::seq::DbSnapshot {
        Store::open(&self.store_path)
            .and_then(Store::into_snapshot)
            .expect("open store")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Path A: the one-shot scan — per-query hit table and kernel counters,
/// computed with the default config (1 worker, chunk floor, `Auto`
/// dispatch). This is the oracle the other two paths are held to.
fn one_shot(fx: &Fixture) -> Vec<(Vec<Hit>, KernelStats)> {
    let scoring = scoring();
    fx.queries
        .iter()
        .map(|q| {
            let cfg = SearchConfig {
                top_n: TOP_N,
                ..SearchConfig::default()
            };
            let out = DatabaseSearch::new(&q.codes, &scoring, cfg).run(&fx.subjects);
            (out.hits, out.stats)
        })
        .collect()
}

/// The store must be a faithful stand-in for the FASTA-encoded database:
/// an arena scan over the memory-mapped snapshot yields the same table
/// and counters as the in-memory one-shot.
#[test]
fn store_arena_scan_matches_one_shot() {
    let fx = Fixture::build("arena");
    let oracle = one_shot(&fx);
    let snapshot = fx.snapshot();
    let scoring = scoring();
    let cfg = SearchConfig {
        top_n: TOP_N,
        ..SearchConfig::default()
    };
    for (q, (hits, stats)) in fx.queries.iter().zip(&oracle) {
        let prepared = Arc::new(PreparedQuery::new(&q.codes, &scoring, cfg.preference));
        let out = search_arena(&prepared, snapshot.arena(), 0..snapshot.len(), &cfg);
        let arena_hits = materialize_hits(&out.scored, |i| snapshot.id(i).to_string());
        assert_eq!(&arena_hits, hits, "store scan diverged for {}", q.id);
        assert_eq!(
            &out.stats, stats,
            "store kernel counters diverged for {}",
            q.id
        );
    }
}

/// Path B: the serve daemon's local PE execution. One worker, one shard,
/// no fusion, no caches — the shard plan is then exactly the one-shot's
/// (full range, chunk floor), so hits AND per-query [`KernelStats`] must
/// be identical.
#[test]
fn serve_daemon_matches_one_shot() {
    let fx = Fixture::build("serve");
    let oracle = one_shot(&fx);
    let svc = QueryService::with_snapshot(
        fx.snapshot(),
        scoring(),
        ServiceConfig {
            workers: 1,
            shards: 1,
            cache_capacity: 0,
            prepared_capacity: 0,
            fusion: 1,
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
        assert_eq!(&reply.hits, hits, "serve hits diverged for {}", q.id);
        assert_eq!(
            &reply.kernels, stats,
            "serve kernel counters diverged for {}",
            q.id
        );
    }
    svc.shutdown();
}

/// Path C: the master/slave TCP pair. One slave, adjustment off — every
/// task executes exactly once through [`StripedBackend`] (which pins the
/// same single-worker / chunk-floor config), so the per-query tables
/// recovered from the merged hit list match the oracle, and the
/// wire-merged kernel counters equal the sum of the per-query oracles.
#[test]
fn master_slave_pair_matches_one_shot() {
    let fx = Fixture::build("net");
    let oracle = one_shot(&fx);
    let scoring = scoring();

    let db_residues: u64 = fx.subjects.iter().map(|s| s.len() as u64).sum();
    let specs: Vec<TaskSpec> = fx
        .queries
        .iter()
        .enumerate()
        .map(|(id, q)| TaskSpec {
            id,
            query_len: q.len(),
            queries: 1,
            db_residues,
            db_sequences: fx.subjects.len(),
        })
        .collect();

    let net = NetConfig {
        register_timeout: Some(std::time::Duration::from_secs(30)),
        ..NetConfig::default()
    };
    let server = MasterServer::bind_with(
        "127.0.0.1:0",
        MasterConfig {
            policy: Policy::SelfScheduling,
            adjustment: false,
            dispatch: Default::default(),
        },
        1,
        net.clone(),
    )
    .expect("bind master");
    let addr = server.local_addr().expect("local addr").to_string();

    let queries = fx.queries.clone();
    let subjects = fx.subjects.clone();
    let slave_scoring = scoring.clone();
    let slave_net = net.clone();
    let slave = std::thread::spawn(move || {
        let backend = StripedBackend::default();
        // Retry until the master accepts registrations.
        for _ in 0..200 {
            match run_slave_with(
                addr.as_str(),
                "oracle-slave",
                1.0,
                &backend,
                &queries,
                &subjects,
                &slave_scoring,
                TOP_N,
                &slave_net,
            ) {
                Ok(executed) => return executed,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        panic!("slave never connected");
    });

    let outcome = server.serve(specs).expect("master serve");
    let executed = slave.join().expect("slave thread");
    assert_eq!(executed, fx.queries.len());
    assert_eq!(outcome.completed_by.len(), fx.queries.len());

    // Per-query tables: the global merge orders by (score desc,
    // query_index, db_index); restricted to one query that is exactly the
    // one-shot ranking, so a plain filter reconstructs each table.
    for (qi, (hits, _)) in oracle.iter().enumerate() {
        let table: Vec<Hit> = outcome
            .hits
            .iter()
            .filter(|qh| qh.query_index == qi)
            .map(|qh| qh.hit.clone())
            .collect();
        assert_eq!(&table, hits, "distributed hits diverged for query {qi}");
    }

    // With one slave and no replication every task completes exactly once,
    // so the wire-merged counters are the sum of the per-query oracles.
    let mut expected = KernelStats::default();
    for (_, stats) in &oracle {
        expected.merge(stats);
    }
    assert_eq!(
        outcome.kernels, expected,
        "wire-merged kernel counters diverged"
    );
}
