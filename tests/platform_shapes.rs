//! Integration tests asserting the evaluation's headline *shapes* (§V):
//! who wins, by roughly what factor, and where the crossovers fall.

use swhybrid::device::DeviceKind;
use swhybrid::exec::platform::{PlatformBuilder, SimOutcome};
use swhybrid::exec::policy::Policy;
use swhybrid::seq::db::DbStats;
use swhybrid::seq::synth::{paper_database, paper_databases, QuerySetSpec};

fn run(db: &DbStats, gpus: usize, sse: usize, adjustment: bool) -> SimOutcome {
    PlatformBuilder::new()
        .policy(Policy::pss_default())
        .adjustment(adjustment)
        .add(DeviceKind::Gpu, gpus)
        .add(DeviceKind::SseCore, sse)
        .run(PlatformBuilder::workload(db, &QuerySetSpec::paper(), 2013))
}

fn swissprot() -> DbStats {
    paper_database("swissprot").unwrap().full_scale_stats()
}

#[test]
fn headline_one_sse_core_takes_about_7190_seconds() {
    // §I: "reducing the execution time from 7,190 seconds (one SSE core)".
    let out = run(&swissprot(), 0, 1, true);
    assert!(
        (6800.0..7600.0).contains(&out.seconds()),
        "one-core time {}",
        out.seconds()
    );
}

#[test]
fn table3_sse_speedup_is_near_linear_for_every_database() {
    for profile in paper_databases() {
        let db = profile.full_scale_stats();
        let t1 = run(&db, 0, 1, true).seconds();
        let t4 = run(&db, 0, 4, true).seconds();
        let s4 = t1 / t4;
        assert!((3.4..4.1).contains(&s4), "{}: 4-core speedup {s4}", db.name);
    }
}

#[test]
fn table4_gpu_speedup_is_near_linear_on_swissprot() {
    let db = swissprot();
    let t1 = run(&db, 1, 0, true).seconds();
    let t2 = run(&db, 2, 0, true).seconds();
    let t4 = run(&db, 4, 0, true).seconds();
    assert!((1.8..2.1).contains(&(t1 / t2)), "2-GPU speedup {}", t1 / t2);
    assert!((3.4..4.1).contains(&(t1 / t4)), "4-GPU speedup {}", t1 / t4);
}

#[test]
fn table4_swissprot_gcups_about_double_the_small_databases() {
    // §V-A-2: for SwissProt "we were able to obtain … approximately the
    // double of GCUPS obtained when using the other databases".
    let dog = paper_database("dog").unwrap().full_scale_stats();
    let g_small = run(&dog, 4, 0, true).gcups();
    let g_big = run(&swissprot(), 4, 0, true).gcups();
    let ratio = g_big / g_small;
    assert!((1.4..2.8).contains(&ratio), "ratio {ratio}");
}

#[test]
fn table5_hybrid_beats_gpu_only_on_swissprot() {
    // The SSE contribution is decisive at 1–2 GPUs (Table V).
    let db = swissprot();
    for (gpus, sse) in [(1, 1), (1, 2), (1, 4), (2, 4)] {
        let hybrid = run(&db, gpus, sse, true);
        let gpu_only = run(&db, gpus, 0, true);
        assert!(
            hybrid.seconds() < gpu_only.seconds(),
            "{gpus}G+{sse}S {} vs {gpus}G {}",
            hybrid.seconds(),
            gpu_only.seconds()
        );
    }
    // At 4 GPUs the SSEs' ~9% capacity is offset by endgame straggler
    // costs in our calibration: a wash under the paper's file-order
    // dispatch (documented deviation), recovered by the size-aware
    // dispatch extension.
    let fifo = run(&db, 4, 4, true);
    let gpu_only = run(&db, 4, 0, true);
    assert!(
        fifo.seconds() < gpu_only.seconds() * 1.10,
        "4G+4S fifo {} vs 4G {}",
        fifo.seconds(),
        gpu_only.seconds()
    );
    let size_aware = PlatformBuilder::new()
        .add(DeviceKind::Gpu, 4)
        .add(DeviceKind::SseCore, 4)
        .policy(Policy::pss_default())
        .dispatch(swhybrid::exec::sched::Dispatch::SizeAware)
        .run(PlatformBuilder::workload(&db, &QuerySetSpec::paper(), 2013));
    assert!(
        size_aware.seconds() < fifo.seconds(),
        "size-aware {} should beat fifo {}",
        size_aware.seconds(),
        fifo.seconds()
    );
}

#[test]
fn size_aware_dispatch_makes_hybrids_additive_on_small_dbs() {
    // Extension: when slow PEs take the small ready tasks, adding SSEs to
    // 4 GPUs helps on every database.
    for profile in paper_databases() {
        let db = profile.full_scale_stats();
        let w = || PlatformBuilder::workload(&db, &QuerySetSpec::paper(), 2013);
        let gpu_only = PlatformBuilder::new().add(DeviceKind::Gpu, 4).run(w());
        let hybrid = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 4)
            .add(DeviceKind::SseCore, 4)
            .dispatch(swhybrid::exec::sched::Dispatch::SizeAware)
            .run(w());
        assert!(
            hybrid.seconds() <= gpu_only.seconds() * 1.02,
            "{}: size-aware hybrid {} vs 4G {}",
            db.name,
            hybrid.seconds(),
            gpu_only.seconds()
        );
    }
}

#[test]
fn fig6_adjustment_gain_is_large_for_the_biggest_hybrid() {
    // §V-B: +207.2% GCUPS for 4G+4S in the paper; our calibration lands
    // near +100% — same story, same order of magnitude.
    let db = swissprot();
    let with = run(&db, 4, 4, true).gcups();
    let without = run(&db, 4, 4, false).gcups();
    let gain = with / without - 1.0;
    assert!(gain > 0.5, "gain {gain}");
}

#[test]
fn fig6_without_adjustment_hybrid_drops_below_gpu_only() {
    // "Without this mechanism, many of the hybrid executions would not be
    // better than the GPU-only executions" (§VI).
    let db = swissprot();
    let hybrid_no_adj = run(&db, 4, 4, false).gcups();
    let gpu_only = run(&db, 4, 0, true).gcups();
    assert!(
        hybrid_no_adj < gpu_only,
        "no-adj hybrid {hybrid_no_adj} vs gpu-only {gpu_only}"
    );
}

#[test]
fn adjustment_has_negligible_impact_on_homogeneous_platforms() {
    // Fig. 6: "the load adjustment mechanism has a negligible impact when
    // the PEs are homogeneous (1, 2 and 4 GPUs)".
    let db = swissprot();
    for gpus in [1usize, 2, 4] {
        let with = run(&db, gpus, 0, true).seconds();
        let without = run(&db, gpus, 0, false).seconds();
        let delta = (with - without).abs() / without;
        assert!(delta < 0.05, "{gpus} GPUs: delta {delta}");
    }
}

#[test]
fn speedup_headline_order_of_magnitude() {
    // 7,190 s → 112 s in the paper (~64×); our calibration reaches ~39×.
    // Assert the order of magnitude, not the exact constant.
    let db = swissprot();
    let slowest = run(&db, 0, 1, true).seconds();
    let fastest = run(&db, 4, 4, true).seconds();
    let speedup = slowest / fastest;
    assert!((25.0..80.0).contains(&speedup), "speedup {speedup}");
}

#[test]
fn small_databases_make_4gpu_and_hybrid_a_wash() {
    // §V-A-3: "better results are obtained with the 4 GPUs execution for
    // the first four databases, when compared to the 4 GPUs + 4 SSEs
    // execution … because these databases are relatively small and most of
    // the work assigned for the SSEs is actually done by the GPUs, using
    // the workload adjustment mechanism". The mechanism keeps the two
    // within a few percent of each other — sometimes the hybrid edges
    // ahead, sometimes (e.g. Ensembl Rat) the GPU-only run does.
    for profile in paper_databases().into_iter().take(4) {
        let db = profile.full_scale_stats();
        let hybrid = run(&db, 4, 4, true).seconds();
        let gpu_only = run(&db, 4, 0, true).seconds();
        let rel = (hybrid - gpu_only).abs() / gpu_only;
        assert!(
            rel < 0.15,
            "{}: hybrid {hybrid} vs gpu-only {gpu_only} differ {rel:.0}%",
            db.name
        );
    }
    // SwissProt sits in the same band under file-order dispatch.
    let sw = swissprot();
    let rel = run(&sw, 4, 4, true).seconds() / run(&sw, 4, 0, true).seconds();
    assert!(rel < 1.10, "SwissProt 4G+4S/4G ratio {rel}");
}
