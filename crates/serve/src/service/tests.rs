use super::*;
use rand::{RngExt, SeedableRng};
use std::time::Duration;
use swhybrid_align::scoring::{GapModel, SubstMatrix};
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::Alphabet;
use swhybrid_simd::search::search_db;

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

fn random_query(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0..20u8)).collect()
}

fn small_service(db: &[EncodedSequence]) -> QueryService {
    QueryService::with_snapshot(
        snap(db),
        scoring(),
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
}

#[test]
fn shard_ranges_cover_and_balance() {
    let db = random_db(11, 57, 120);
    let snap = DbSnapshot::from_encoded("", &db);
    for n in [1, 2, 3, 7, 57, 100] {
        let shards = snap.shard_ranges(n);
        assert_eq!(shards.first().unwrap().0, 0);
        assert_eq!(shards.last().unwrap().1, db.len());
        for w in shards.windows(2) {
            assert_eq!(w[0].1, w[1].0, "shards must be contiguous");
        }
        assert!(shards.iter().all(|&(s, e)| e > s), "no empty shards");
        assert!(shards.len() <= n.min(db.len()));
    }
    let empty = DbSnapshot::from_encoded("", &[]);
    assert_eq!(empty.shard_ranges(4), vec![(0, 0)]);
}

#[test]
fn served_result_matches_cold_scan() {
    let db = random_db(23, 80, 100);
    let query = random_query(29, 60);
    let svc = small_service(&db);
    let reply = svc.search_blocking(query.clone(), 12, 1).unwrap();
    let cold = search_db(
        &query,
        &snap(&db),
        &scoring(),
        &swhybrid_simd::search::SearchConfig {
            top_n: 12,
            ..Default::default()
        },
    );
    assert_eq!(reply.hits, cold.hits);
    assert!(!reply.cached);
    assert_eq!(reply.cells, cold.cells);
    svc.shutdown();
}

/// The executor-unification law at service level: with a single shard the
/// daemon's scan walks the exact chunk sequence a one-shot scan walks, so
/// the per-query kernel counters in the reply — not just the hits — are
/// byte-identical to the cold scan's.
#[test]
fn served_kernel_stats_match_cold_scan_with_one_shard() {
    let db = random_db(27, 90, 100);
    let query = random_query(33, 55);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            shards: 1,
            ..Default::default()
        },
    );
    let reply = svc.search_blocking(query.clone(), 8, 1).unwrap();
    let cold = search_db(
        &query,
        &snap(&db),
        &scoring(),
        &swhybrid_simd::search::SearchConfig {
            top_n: 8,
            ..Default::default()
        },
    );
    assert_eq!(reply.hits, cold.hits);
    assert_eq!(
        reply.kernels, cold.stats,
        "per-query kernel counters drifted"
    );
    // A cache hit never runs a kernel, so its counters are zero.
    let warm = svc.search_blocking(query, 8, 1).unwrap();
    assert!(warm.cached);
    assert_eq!(warm.kernels, KernelStats::default());
    svc.shutdown();
}

/// Satellite of the trace-coverage fix: the local PE path's `task_kernels`
/// events must fold into the per-PE stats series, so `stats` and
/// `--events` agree across transports.
#[test]
fn local_pe_kernels_surface_in_per_pe_stats() {
    let db = random_db(35, 60, 80);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let reply = svc.search_blocking(random_query(39, 45), 6, 1).unwrap();
    assert!(!reply.hits.is_empty());
    let stats = svc.stats();
    let pes = stats.get("pes").unwrap().as_array().unwrap();
    assert!(!pes.is_empty());
    let kernels = pes[0].get("kernels").unwrap();
    let count = |key: &str| kernels.get(key).unwrap().as_u64().unwrap();
    assert!(
        count("cells_computed") > 0,
        "local PE task_kernels events never reached the metrics"
    );
    let resolved = count("striped_i8")
        + count("striped_i16")
        + count("striped_scalar")
        + count("interseq_i8")
        + count("interseq_i16")
        + count("interseq_scalar");
    assert!(resolved >= 60, "one resolution per scanned subject");
    svc.shutdown();
}

/// A hybrid `--fleet` daemon: a modeled GPU and a real SIMD core share the
/// pool. Replies stay byte-identical to a cold scan (modeled speed never
/// touches scores) and `stats` names both backend kinds.
#[test]
fn hybrid_fleet_service_matches_cold_scan_and_names_both_kinds() {
    let db = random_db(41, 70, 90);
    let query = random_query(43, 50);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            fleet: Some(FleetSpec::parse("gpu:1+sse:1").unwrap()),
            ..Default::default()
        },
    );
    let reply = svc.search_blocking(query.clone(), 10, 1).unwrap();
    let cold = search_db(
        &query,
        &snap(&db),
        &scoring(),
        &swhybrid_simd::search::SearchConfig {
            top_n: 10,
            ..Default::default()
        },
    );
    assert_eq!(
        reply.hits, cold.hits,
        "hybrid fleet must score bit-identically"
    );
    let stats = svc.stats();
    let pes = stats.get("pes").unwrap().as_array().unwrap();
    let names: Vec<&str> = pes
        .iter()
        .map(|p| p.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(
        names.contains(&"gpu0"),
        "stats must name the modeled PE: {names:?}"
    );
    assert!(
        names.contains(&"sse0"),
        "stats must name the real PE: {names:?}"
    );
    svc.shutdown();
}

#[test]
fn repeat_query_hits_cache_with_zero_cells() {
    let db = random_db(31, 40, 80);
    let query = random_query(37, 50);
    let svc = small_service(&db);
    let cold = svc.search_blocking(query.clone(), 10, 1).unwrap();
    let warm = svc.search_blocking(query, 10, 1).unwrap();
    assert!(!cold.cached && warm.cached);
    assert_eq!(warm.cells, 0);
    assert_eq!(warm.hits, cold.hits);
    let stats = svc.stats();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64().unwrap(), 1);
    // The kernel counters cover the cold scan's subjects (the warm
    // query never ran a kernel).
    let kernels = stats.get("kernels").unwrap();
    let count = |key: &str| kernels.get(key).unwrap().as_u64().unwrap();
    let resolved = count("striped_i8")
        + count("striped_i16")
        + count("striped_scalar")
        + count("interseq_i8")
        + count("interseq_i16")
        + count("interseq_scalar");
    // ≥: a replicated shard's losing scan also counts (real work).
    assert!(resolved >= 40, "one resolution per scanned subject");
    assert!(count("cells_computed") > 0);
    assert_eq!(
        stats
            .get("jobs")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_u64()
            .unwrap(),
        2
    );
    svc.shutdown();
}

#[test]
fn swap_db_invalidates_cache_and_changes_results() {
    let db_a = random_db(41, 30, 80);
    let db_b = random_db(43, 30, 80);
    let query = random_query(47, 40);
    let svc = small_service(&db_a);
    let a = svc.search_blocking(query.clone(), 5, 1).unwrap();
    svc.swap_snapshot(snap(&db_b));
    let b = svc.search_blocking(query.clone(), 5, 1).unwrap();
    assert!(!b.cached, "generation bump must bypass the cache");
    let cold_b = search_db(
        &query,
        &snap(&db_b),
        &scoring(),
        &swhybrid_simd::search::SearchConfig {
            top_n: 5,
            ..Default::default()
        },
    );
    assert_eq!(b.hits, cold_b.hits);
    // Old-generation result is still byte-identical to its own scan.
    assert_ne!(a.hits, b.hits);
    svc.shutdown();
}

#[test]
fn cancel_queued_job_never_scans() {
    let db = random_db(53, 30, 60);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            max_active: 1,
            ..Default::default()
        },
    );
    // Fill the single active slot with a real query, then queue one
    // more and cancel it before it can dispatch.
    let (tx, rx) = std::sync::mpsc::channel();
    let tx2 = tx.clone();
    svc.submit(
        random_query(59, 400),
        5,
        None,
        None,
        1,
        Box::new(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    let victim = svc
        .submit(
            random_query(61, 40),
            5,
            None,
            None,
            2,
            Box::new(move |r| tx2.send(r).unwrap()),
        )
        .unwrap();
    let outcome = svc.cancel(victim);
    // Either we caught it queued, or it had already dispatched; both
    // must deliver a reply for every submission.
    assert_ne!(outcome, CancelOutcome::Unknown);
    let mut replies = [rx.recv().unwrap(), rx.recv().unwrap()];
    replies.sort_by_key(|r| r.job);
    if outcome == CancelOutcome::Cancelled {
        let r = replies.iter().find(|r| r.job == victim).unwrap();
        assert!(r.cancelled);
        assert!(r.hits.is_empty());
    }
    assert_eq!(svc.cancel(9999), CancelOutcome::Unknown);
    svc.shutdown();
}

#[test]
fn drain_rejects_new_but_finishes_queued() {
    let db = random_db(67, 25, 60);
    let svc = small_service(&db);
    let (tx, rx) = std::sync::mpsc::channel();
    svc.submit(
        random_query(71, 80),
        5,
        None,
        None,
        1,
        Box::new(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    svc.begin_drain();
    let err = svc.search_blocking(random_query(73, 30), 5, 2).unwrap_err();
    assert_eq!(err, SubmitError::Draining);
    let reply = rx.recv().unwrap();
    assert!(!reply.cancelled);
    svc.shutdown();
}

/// Regression (unbounded job registry): the daemon used to keep every
/// terminal job's record forever, so weeks of queries grew `jobs`
/// without bound. Terminal jobs must be evicted after the retention
/// window, evicted ids must answer `Expired` (not `Unknown`), and the
/// registry must stay bounded over 10k queries.
#[test]
fn job_registry_stays_bounded_over_ten_thousand_queries() {
    let db = random_db(83, 20, 50);
    let query = random_query(89, 30);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            retained_jobs: 32,
            retention_secs: 1e9, // count bound only; age is tested below
            ..Default::default()
        },
    );
    for _ in 0..10_000 {
        let reply = svc.search_blocking(query.clone(), 5, 1).unwrap();
        assert!(!reply.cancelled);
    }
    let stats = svc.stats();
    let jobs = stats.get("jobs").unwrap();
    let registry = jobs.get("registry").unwrap().as_u64().unwrap();
    assert!(
        registry <= 32 + 2,
        "registry grew unbounded: {registry} records after 10k queries"
    );
    let expired = jobs.get("expired").unwrap().as_u64().unwrap();
    assert!(expired >= 10_000 - 34, "evictions not accounted: {expired}");
    // The evicted id is a well-formed answer, not an unknown one.
    assert_eq!(svc.status(0), JobStatus::Expired);
    assert_eq!(svc.cancel(0), CancelOutcome::AlreadyDone);
    // An id never issued stays unknown.
    assert_eq!(svc.status(99_999_999), JobStatus::Unknown);
    assert_eq!(svc.cancel(99_999_999), CancelOutcome::Unknown);
    // Nor does the engine hold a task of a job that has replied.
    assert_eq!(svc.inner.pool.lock().master.pool().live(), 0);
    svc.shutdown();
}

/// Regression: every scanned query used to leave its scheduling events
/// behind twice — in the engine's retained stream, which the daemon never
/// read, and in a channel only a `stats` call drained. Events now fold
/// into the per-PE series as they are emitted and are kept nowhere (the
/// engine has no stream to retain them in).
#[test]
fn engine_events_fold_into_stats_without_being_retained() {
    let db = random_db(83, 20, 50);
    let query = random_query(89, 30);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            cache_capacity: 0, // every search must really scan
            fusion: 1,
            ..Default::default()
        },
    );
    for _ in 0..1_000 {
        let reply = svc.search_blocking(query.clone(), 5, 1).unwrap();
        assert!(!reply.cached);
    }
    {
        let g = svc.inner.pool.lock();
        // Nor the tasks: 1,000 were issued, none is in flight.
        assert_eq!((g.master.pool().len(), g.master.pool().live()), (1_000, 0));
    }
    // The first `stats` call after 1,000 unpolled scans sees all of them.
    let stats = svc.stats();
    let pes = stats.get("pes").unwrap().as_array().unwrap();
    assert_eq!(pes.len(), 1);
    assert_eq!(pes[0].get("name").unwrap().as_str(), Some("serve0"));
    assert_eq!(pes[0].get("tasks_finished").unwrap().as_u64(), Some(1_000));
    assert!(pes[0].get("mean_gcups").unwrap().as_f64().unwrap() > 0.0);
    assert!(pes[0].get("last_gcups").unwrap().as_f64().unwrap() > 0.0);
    let cells = |j: &swhybrid_json::Json| j.get("cells_computed").unwrap().as_u64().unwrap();
    assert_eq!(
        cells(pes[0].get("kernels").unwrap()),
        cells(stats.get("kernels").unwrap()),
        "per-PE kernel counters must account for every scan"
    );
    svc.shutdown();
}

/// Terminal records also age out without traffic: the age bound must
/// drain an idle daemon's registry (swept on the stats poll).
#[test]
fn retention_age_drains_an_idle_registry() {
    let db = random_db(91, 15, 40);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            retained_jobs: 1024,
            retention_secs: 0.02,
            ..Default::default()
        },
    );
    let job = svc.search_blocking(random_query(93, 25), 5, 1).unwrap().job;
    assert!(matches!(svc.status(job), JobStatus::Done { .. }));
    std::thread::sleep(Duration::from_millis(60));
    let _ = svc.stats(); // the idle sweep
    assert_eq!(svc.status(job), JobStatus::Expired);
    svc.shutdown();
}

/// A query that finds a free group slot is scheduled inside `submit`: no
/// timer holds it back for companions.
#[test]
fn a_lone_submission_is_scheduled_before_submit_returns() {
    let db = random_db(107, 40, 60);
    let svc = small_service(&db);
    let (tx, rx) = std::sync::mpsc::channel();
    svc.submit(
        random_query(109, 200),
        5,
        None,
        None,
        1,
        Box::new(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    let stats = svc.stats();
    let tasks = stats.get("fusion").unwrap().get("tasks").unwrap();
    assert_eq!(tasks.as_u64(), Some(2), "one task per shard, at once");
    assert!(!rx.recv().unwrap().cancelled);
    svc.shutdown();
}

/// A terminal job keeps what `status` reads and nothing else. Regression:
/// retired jobs held their database snapshot, so a reload left the
/// superseded database resident until 256 newer jobs had retired.
#[test]
fn retired_jobs_do_not_pin_a_superseded_database() {
    let db_a = random_db(113, 30, 80);
    let db_b = random_db(127, 30, 80);
    let svc = QueryService::with_snapshot(
        snap(&db_a),
        scoring(),
        ServiceConfig {
            workers: 2,
            per_client_inflight: 8,
            // No replicas: when a job replies, no worker is still scanning
            // a copy of one of its shards.
            adjustment: false,
            ..Default::default()
        },
    );
    let old = Arc::downgrade(&svc.inner.pool.lock().owner.db);
    let repeated = random_query(131, 40);
    let cold = svc.search_blocking(repeated.clone(), 5, 1).unwrap();
    let hit = svc.search_blocking(repeated, 5, 1).unwrap();
    assert!(!cold.cached && hit.cached);
    // Three more jobs are running or queued when the database is swapped.
    let (tx, rx) = std::sync::mpsc::channel();
    let in_flight: Vec<u64> = (0..3)
        .map(|i| {
            let tx = tx.clone();
            svc.submit(
                random_query(137 + i, 400),
                5,
                None,
                None,
                1,
                Box::new(move |r| tx.send(r).unwrap()),
            )
            .unwrap()
        })
        .collect();
    svc.swap_snapshot(snap(&db_b));
    for _ in &in_flight {
        assert_eq!(rx.recv().unwrap().generation, 0);
    }
    assert!(
        old.upgrade().is_none(),
        "the replaced snapshot outlived the jobs that scanned it"
    );
    for job in in_flight.into_iter().chain([cold.job]) {
        let done = JobStatus::Done {
            cancelled: false,
            cached: false,
        };
        assert_eq!(svc.status(job), done);
    }
    let done = JobStatus::Done {
        cancelled: false,
        cached: true,
    };
    assert_eq!(svc.status(hit.job), done);
    svc.shutdown();
}

/// The fusion law at service level: queries that queue behind a
/// running group are fused into shared shard tasks, and every fused
/// reply is byte-identical to that query's solo cold scan. The group
/// forms at a gate, not by timing: the lone worker is parked in a
/// completion while the queue fills.
#[test]
fn fused_queries_match_cold_scans_and_share_tasks() {
    let db = random_db(97, 50, 70);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            max_active: 1,
            fusion: 4,
            cache_capacity: 0,
            per_client_inflight: 16,
            ..Default::default()
        },
    );
    // Completions run on the worker that finished the last shard: job
    // A's parks the lone worker.
    let (entered, parked) = std::sync::mpsc::channel();
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let blocker = Box::new(move |_| {
        entered.send(()).unwrap();
        // A failed assertion drops `release`, which lets the worker go.
        let _ = gate.recv();
    });
    svc.submit(random_query(99, 40), 5, None, None, 1, blocker)
        .unwrap();
    parked.recv().unwrap();
    // Head job B takes the free group slot; its tasks stay unstarted.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut asked = HashMap::new();
    let mut submit = |q: Vec<u8>, top_n: usize| {
        let tx = tx.clone();
        let reply = Box::new(move |r| tx.send(r).unwrap());
        let job = svc.submit(q.clone(), top_n, None, None, 1, reply).unwrap();
        asked.insert(job, (q, top_n));
        job
    };
    let head = submit(random_query(101, 700), 5);
    assert!(matches!(svc.status(head), JobStatus::Running { .. }));
    // The four short queries queue behind B.
    for i in 0..4u64 {
        let job = submit(random_query(103 + i, 25 + 5 * i as usize), 4 + i as usize);
        assert!(
            matches!(svc.status(job), JobStatus::Queued { .. }),
            "job {job}"
        );
    }
    release.send(()).unwrap();
    let replies: Vec<SearchReply> = (0..5).map(|_| rx.recv().unwrap()).collect();
    for reply in &replies {
        let (q, top_n) = &asked[&reply.job];
        let cold = search_db(
            q,
            &snap(&db),
            &scoring(),
            &swhybrid_simd::search::SearchConfig {
                top_n: *top_n,
                ..Default::default()
            },
        );
        assert_eq!(
            reply.hits, cold.hits,
            "job {} differs from cold scan",
            reply.job
        );
        assert_eq!(
            reply.cells, cold.cells,
            "job {} cell count drifted",
            reply.job
        );
    }
    let stats = svc.stats();
    let fusion = stats.get("fusion").unwrap();
    let factor = fusion.get("factor").unwrap().as_f64().unwrap();
    assert!(
        factor > 1.0,
        "the queued queries never fused (factor {factor})"
    );
    svc.shutdown();
}

/// A cancel while a job runs leaves its unstarted shard tasks shippable:
/// a remote that is handed one scans it and its result is discarded,
/// instead of the session being torn down for a task without a payload.
/// Only a superseded snapshot makes a task unshippable — and a local
/// worker still scans it, on the job's own snapshot.
#[test]
fn a_cancelled_running_job_still_ships_until_its_snapshot_is_replaced() {
    let db = random_db(151, 60, 100);
    let svc = QueryService::with_snapshot(
        snap(&db),
        scoring(),
        ServiceConfig {
            workers: 1,
            shards: 4,
            ..Default::default()
        },
    );
    // Completions run on the worker that finished the last shard: parking
    // the lone worker in one keeps every task of the next job unstarted.
    let (entered, parked) = std::sync::mpsc::channel();
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let blocker = Box::new(move |_| {
        entered.send(()).unwrap();
        // A failed assertion drops `release`, which lets the worker go.
        let _ = gate.recv();
    });
    svc.submit(random_query(153, 40), 5, None, None, 1, blocker)
        .unwrap();
    parked.recv().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let reply = Box::new(move |r| tx.send(r).unwrap());
    let job = svc
        .submit(random_query(157, 60), 5, None, None, 2, reply)
        .unwrap();
    assert!(matches!(svc.status(job), JobStatus::Running { .. }));
    assert_eq!(svc.cancel(job), CancelOutcome::Cancelled);
    assert!(rx.recv().unwrap().cancelled);
    let tasks = |o: &ServeOwner| -> Vec<TaskId> {
        let mut t: Vec<TaskId> = o.task_map.keys().copied().collect();
        t.sort_unstable();
        t
    };
    let victim = tasks(&svc.inner.pool.lock().owner);
    assert_eq!(victim.len(), 4);
    for &t in &victim {
        let payload = svc.inner.pool.payload(t);
        let payload = payload.expect("a cancelled job's task still ships");
        assert_eq!(payload.queries.len(), 1);
        assert_eq!(payload.queries[0].top_n, 5);
    }
    svc.swap_snapshot(snap(&random_db(163, 40, 60)));
    for &t in &victim {
        assert_eq!(svc.inner.pool.payload(t), None, "task {t}");
        let local = svc.inner.pool.lock().owner.payload(t);
        assert!(local.is_some(), "a local worker still scans task {t}");
    }
    release.send(()).unwrap();
    svc.shutdown();
}
