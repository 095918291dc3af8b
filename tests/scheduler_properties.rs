//! Property-based invariants of the task execution environment: for *any*
//! platform shape, workload, policy, and adjustment setting, the schedule
//! must be complete, non-duplicative in its results, bounded by the obvious
//! serial/ideal envelopes, and deterministic.

use proptest::prelude::*;
use swhybrid::device::perfmodel::PerfModel;
use swhybrid::device::task::{Device, DeviceKind, TaskSpec};
use swhybrid::exec::policy::Policy;
use swhybrid::exec::sched::MasterConfig;
use swhybrid::exec::sim::{SimConfig, SimPe, SimReport, Simulator};
use swhybrid::exec::trace::{SegmentEnd, Trace};

fn flat_pe(name: String, gcups: f64) -> SimPe {
    SimPe::new(Device {
        name,
        kind: DeviceKind::SseCore,
        model: PerfModel::flat(gcups),
    })
}

fn platform_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..32.0, 1..6)
}

fn workload_strategy() -> impl Strategy<Value = Vec<u64>> {
    // Task sizes in Gcells (as multiples of 0.1 Gcells).
    prop::collection::vec(1u64..400, 1..30)
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::SelfScheduling),
        (1usize..10).prop_map(|omega| Policy::Pss { omega }),
        Just(Policy::Fixed),
        Just(Policy::WFixed),
    ]
}

fn simulator(speeds: &[f64], sizes: &[u64], policy: Policy, adjustment: bool) -> Simulator {
    let pes: Vec<SimPe> = speeds
        .iter()
        .enumerate()
        .map(|(i, &g)| flat_pe(format!("pe{i}"), g))
        .collect();
    let specs: Vec<TaskSpec> = sizes
        .iter()
        .enumerate()
        .map(|(id, &tenth_gcells)| TaskSpec {
            id,
            query_len: 1000,
            queries: 1,
            db_residues: tenth_gcells * 100_000, // ×1000 query = 0.1 Gcells units
            db_sequences: 100,
        })
        .collect();
    Simulator::new(
        pes,
        specs,
        SimConfig {
            master: MasterConfig {
                policy,
                adjustment,
                dispatch: Default::default(),
            },
            notify_interval: 5.0,
            comm_latency: 0.0,
        },
    )
}

fn run(speeds: &[f64], sizes: &[u64], policy: Policy, adjustment: bool) -> SimReport {
    simulator(speeds, sizes, policy, adjustment).run()
}

fn run_traced(
    speeds: &[f64],
    sizes: &[u64],
    policy: Policy,
    adjustment: bool,
) -> (SimReport, Trace) {
    simulator(speeds, sizes, policy, adjustment).run_traced()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_task_completes_exactly_once(
        speeds in platform_strategy(),
        sizes in workload_strategy(),
        policy in policy_strategy(),
        adjustment in prop::bool::ANY,
    ) {
        let (report, trace) = run_traced(&speeds, &sizes, policy, adjustment);
        let completed: usize = report.per_pe.iter().map(|p| p.tasks_completed).sum();
        prop_assert_eq!(completed, sizes.len());
        // Each task has exactly one Completed trace segment.
        for task in 0..sizes.len() {
            let wins = trace
                .segments
                .iter()
                .filter(|s| s.task == task && s.end_kind == SegmentEnd::Completed)
                .count();
            prop_assert_eq!(wins, 1, "task {} completed {} times", task, wins);
        }
    }

    #[test]
    fn makespan_respects_serial_and_ideal_envelopes(
        speeds in platform_strategy(),
        sizes in workload_strategy(),
        policy in policy_strategy(),
        adjustment in prop::bool::ANY,
    ) {
        let report = run(&speeds, &sizes, policy, adjustment);
        let total_cells: f64 = sizes.iter().map(|&s| s as f64 * 1e8).sum();
        let sum_rate: f64 = speeds.iter().map(|g| g * 1e9).sum();
        let min_rate: f64 = speeds.iter().fold(f64::INFINITY, |a, &b| a.min(b)) * 1e9;
        let ideal = total_cells / sum_rate;
        let serial_on_slowest = total_cells / min_rate;
        prop_assert!(
            report.makespan >= ideal - 1e-9,
            "makespan {} below ideal {}",
            report.makespan,
            ideal
        );
        prop_assert!(
            report.makespan <= serial_on_slowest + 1e-6,
            "makespan {} exceeds serial-on-slowest {}",
            report.makespan,
            serial_on_slowest
        );
    }

    #[test]
    fn adjustment_never_hurts(
        speeds in platform_strategy(),
        sizes in workload_strategy(),
        omega in 1usize..10,
    ) {
        let policy = Policy::Pss { omega };
        let with = run(&speeds, &sizes, policy, true);
        let without = run(&speeds, &sizes, policy, false);
        prop_assert!(
            with.makespan <= without.makespan + 1e-6,
            "adjustment hurt: {} > {}",
            with.makespan,
            without.makespan
        );
    }

    #[test]
    fn runs_are_deterministic(
        speeds in platform_strategy(),
        sizes in workload_strategy(),
        policy in policy_strategy(),
        adjustment in prop::bool::ANY,
    ) {
        let (a, a_trace) = run_traced(&speeds, &sizes, policy, adjustment);
        let (b, b_trace) = run_traced(&speeds, &sizes, policy, adjustment);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a_trace.segments, b_trace.segments);
    }

    #[test]
    fn without_adjustment_no_work_is_duplicated(
        speeds in platform_strategy(),
        sizes in workload_strategy(),
        policy in policy_strategy(),
    ) {
        let report = run(&speeds, &sizes, policy, false);
        prop_assert_eq!(report.duplicated_cells, 0.0);
        let cancelled: usize = report.per_pe.iter().map(|p| p.tasks_cancelled).sum();
        prop_assert_eq!(cancelled, 0);
    }

    #[test]
    fn busy_time_never_exceeds_makespan_per_pe(
        speeds in platform_strategy(),
        sizes in workload_strategy(),
        policy in policy_strategy(),
        adjustment in prop::bool::ANY,
    ) {
        let report = run(&speeds, &sizes, policy, adjustment);
        for pe in &report.per_pe {
            prop_assert!(
                pe.busy_seconds <= report.makespan + 1e-6,
                "{} busy {} > makespan {}",
                pe.name,
                pe.busy_seconds,
                report.makespan
            );
        }
    }
}
