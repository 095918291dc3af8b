//! Every Gantt segment and every progress notification of one traced
//! simulation, byte for byte against a committed golden, floats printed
//! with their bits.
//!
//! The `simulate` goldens print reports, not notification times, so they
//! cannot see the order in which a Finish and the notifications of the same
//! instant are handled. This platform puts them on the same instants: flat
//! rates, integer task times, no message latency, so a task finishes
//! exactly on a notification tick (the first one included). It also has a
//! late joiner whose ticks are off the fleet's grid, a PE that leaves on a
//! tick, and a load step. Regenerate the golden only for an intended
//! change: on a mismatch the test writes what it printed to
//! `target/tmp/sim_traced.txt` and names that path.

use swhybrid_core::policy::Policy;
use swhybrid_core::sim::{SimConfig, SimPe, SimReport, Simulator};
use swhybrid_core::trace::{SegmentEnd, Trace};
use swhybrid_device::load::LoadSchedule;
use swhybrid_device::perfmodel::PerfModel;
use swhybrid_device::task::{Device, DeviceKind, TaskSpec};

const NOTIFY_INTERVAL: f64 = 5.0;

fn flat(name: &str, gcups: f64) -> SimPe {
    SimPe::new(Device {
        name: name.into(),
        kind: DeviceKind::SseCore,
        model: PerfModel::flat(gcups),
    })
}

/// Four PEs: `steady` at 1 GCUPS; `stepped` at 2, halved at t = 12; `late`
/// at 4, joining at t = 7 (ticks at 12, 17, …); and `leaver`, registered at
/// 2 but loaded to a quarter from the start and gone at t = 20, a tick of
/// the others. The leaver's first tick, t = 5, halves the slowest speed the
/// scheduler knows, so the batch `steady` is handed when it finishes at that
/// same instant depends on which of the two events is handled first.
fn platform() -> Vec<SimPe> {
    let mut stepped = flat("stepped", 2.0);
    stepped.load = LoadSchedule::step_at(12.0, 0.5);
    let mut late = flat("late", 4.0);
    late.join_at = 7.0;
    let mut leaver = flat("leaver", 2.0);
    leaver.load = LoadSchedule::step_at(0.0, 0.25);
    leaver.leave_at = Some(20.0);
    vec![flat("steady", 1.0), stepped, late, leaver]
}

/// 120 tasks of 5, 2, 3, 1 and 4 Gcells in turn: whole seconds at 1 GCUPS,
/// so the first task on `steady` ends on its first tick, t = 5.
fn workload() -> Vec<TaskSpec> {
    (0..120)
        .map(|id| TaskSpec {
            id,
            query_len: 1000,
            queries: 1,
            db_residues: [5, 2, 3, 1, 4][id % 5] * 1_000_000,
            db_sequences: 1000,
        })
        .collect()
}

fn run() -> (SimReport, Trace) {
    let config = SimConfig {
        notify_interval: NOTIFY_INTERVAL,
        comm_latency: 0.0,
        ..SimConfig::default()
    };
    assert_eq!(config.master.policy, Policy::pss_default());
    assert!(config.master.adjustment);
    Simulator::new(platform(), workload(), config).run_traced()
}

/// A float as its shortest decimal and its bits.
fn f(x: f64) -> String {
    format!("{x:?}/{:016x}", x.to_bits())
}

fn render(report: &SimReport, trace: &Trace) -> String {
    let mut out = String::new();
    for s in &trace.segments {
        let end = match s.end_kind {
            SegmentEnd::Completed => "completed",
            SegmentEnd::Cancelled => "cancelled",
            SegmentEnd::Abandoned => "abandoned",
        };
        out += &format!(
            "segment pe={} task={} start={} end={} {end}\n",
            s.pe,
            s.task,
            f(s.start),
            f(s.end)
        );
    }
    for n in &trace.notifications {
        out += &format!(
            "notify pe={} time={} gcups={}\n",
            n.pe,
            f(n.time),
            f(n.gcups)
        );
    }
    out += &format!(
        "makespan={} duplicated_cells={}\n",
        f(report.makespan),
        f(report.duplicated_cells)
    );
    for (pe, r) in report.per_pe.iter().enumerate() {
        out += &format!(
            "pe={pe} {} busy={} completed={} cancelled={} cells={}\n",
            r.name,
            f(r.busy_seconds),
            r.tasks_completed,
            r.tasks_cancelled,
            f(r.cells_computed)
        );
    }
    out
}

#[test]
fn traced_run_matches_golden() {
    let (report, trace) = run();

    // The golden pins what it is meant to pin.
    let ticks_of = |pe| trace.pe_notifications(pe).into_iter().map(|(t, _)| t);
    assert!(
        trace
            .segments
            .iter()
            .any(|s| s.pe == 0 && s.end == NOTIFY_INTERVAL && s.end_kind == SegmentEnd::Completed),
        "a finish lands on the first tick"
    );
    let finishes_on_ticks = trace
        .segments
        .iter()
        .filter(|s| ticks_of(s.pe).any(|t| t == s.end))
        .count();
    assert!(
        finishes_on_ticks > 1,
        "finishes on ticks: {finishes_on_ticks}"
    );
    assert_eq!(
        ticks_of(2).next(),
        Some(12.0),
        "the late joiner's first tick"
    );
    assert!(ticks_of(3).all(|t| t < 20.0), "the leaver stops reporting");
    assert!(
        trace
            .segments
            .iter()
            .any(|s| s.pe == 3 && s.end == 20.0 && s.end_kind == SegmentEnd::Abandoned),
        "the leaver abandons a running task"
    );
    let completed: usize = report.per_pe.iter().map(|p| p.tasks_completed).sum();
    assert_eq!(completed, 120);

    let actual = render(&report, &trace);
    let golden = include_str!("golden/sim_traced.txt");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_traced.txt");
        std::fs::write(&path, &actual).expect("write the actual trace");
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                g,
                "line {} differs; actual trace in {}",
                i + 1,
                path.display()
            );
        }
        panic!(
            "line count differs ({} vs {} golden); actual trace in {}",
            actual.lines().count(),
            golden.lines().count(),
            path.display()
        );
    }
}
