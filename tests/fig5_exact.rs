//! Integration test: the paper's Fig. 5 worked example, end to end.
//!
//! 4 PEs (one GPU exactly 6× faster than three SSE cores), 20 tasks that
//! take 1 s each on the GPU, PSS policy, negligible communication time:
//! the application finishes at **14 s with** the workload adjustment
//! mechanism and **18 s without** it.

use swhybrid::device::perfmodel::PerfModel;
use swhybrid::device::task::{Device, DeviceKind, TaskSpec};
use swhybrid::exec::platform::PlatformBuilder;
use swhybrid::exec::policy::Policy;
use swhybrid::exec::sim::SimPe;
use swhybrid::exec::trace::SegmentEnd;

fn flat_pe(name: String, kind: DeviceKind, gcups: f64) -> SimPe {
    SimPe::new(Device {
        name,
        kind,
        model: PerfModel::flat(gcups),
    })
}

fn platform(adjustment: bool) -> PlatformBuilder {
    let mut b = PlatformBuilder::new()
        .pe(flat_pe("GPU1".into(), DeviceKind::Gpu, 6.0))
        .policy(Policy::pss_default())
        .adjustment(adjustment)
        .comm_latency(0.0);
    for i in 1..=3 {
        b = b.pe(flat_pe(format!("SSE{i}"), DeviceKind::SseCore, 1.0));
    }
    b
}

fn tasks() -> Vec<TaskSpec> {
    (0..20)
        .map(|id| TaskSpec {
            id,
            query_len: 1000,
            queries: 1,
            db_residues: 6_000_000, // 6 Gcells: 1 s at 6 GCUPS
            db_sequences: 1_000,
        })
        .collect()
}

#[test]
fn with_adjustment_total_time_is_14s() {
    let (out, trace) = platform(true).run_traced(tasks());
    assert!(
        (out.seconds() - 14.0).abs() < 0.01,
        "expected 14 s, got {}",
        out.seconds()
    );
    // Every one of the 20 tasks completed exactly once.
    let completed: usize = out.report.per_pe.iter().map(|p| p.tasks_completed).sum();
    assert_eq!(completed, 20);
    // The mechanism produced at least one cancelled replica (t20's losers).
    let cancelled = trace
        .segments
        .iter()
        .filter(|s| s.end_kind == SegmentEnd::Cancelled)
        .count();
    assert!(cancelled >= 1, "trace: {:?}", trace.segments);
}

#[test]
fn without_adjustment_total_time_is_18s() {
    let (out, trace) = platform(false).run_traced(tasks());
    assert!(
        (out.seconds() - 18.0).abs() < 0.01,
        "expected 18 s, got {}",
        out.seconds()
    );
    // No replication ever happens without the mechanism.
    assert_eq!(out.report.duplicated_cells, 0.0);
    assert!(trace
        .segments
        .iter()
        .all(|s| s.end_kind == SegmentEnd::Completed));
}

#[test]
fn gpu_executes_the_lions_share() {
    let out = platform(true).run(tasks());
    let gpu = &out.report.per_pe[0];
    assert_eq!(gpu.name, "GPU1");
    // Fig. 5a: GPU1 completes t1, t5–t10, t14–t19 and the t20 replica = 14.
    assert_eq!(gpu.tasks_completed, 14, "report: {:?}", out.report.per_pe);
    for sse in &out.report.per_pe[1..] {
        assert_eq!(sse.tasks_completed, 2);
    }
}
