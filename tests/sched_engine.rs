//! Property pins on the extracted scheduling engine (`exec::sched`): the
//! Φ batch-sizing and Ω-window speed statistics must match an independent
//! transcription of the paper's formulas (the pre-refactor algorithm), and
//! the workload-adjustment state machine must keep its first-completion-
//! wins invariants for *any* platform shape and speed trace. The engine is
//! driven directly here — no pool, no simulator, no transport — under a
//! [`VirtualClock`], exactly as a new driver would hold it.

use std::collections::VecDeque;

use proptest::prelude::*;
use swhybrid::device::task::TaskSpec;
use swhybrid::exec::policy::Policy;
use swhybrid::exec::sched::MasterConfig;
use swhybrid::exec::sched::{Assignment, Clock, Dispatch, Scheduler, VirtualClock};
use swhybrid::exec::stats::PeSpeedStats;
use swhybrid::exec::trace::EventKind;

/// §IV-A-2, transcribed independently of `PeSpeedStats`: the linearly
/// weighted mean of the last Ω retained samples (newest weight Ω-slot,
/// oldest weight 1), with degenerate observations dropped and the static
/// prior standing in until the first real sample.
fn reference_weighted_mean(prior: f64, omega: usize, trace: &[f64]) -> f64 {
    let kept: Vec<f64> = trace
        .iter()
        .copied()
        .filter(|g| g.is_finite() && *g >= 0.0)
        .collect();
    let window: Vec<f64> = kept
        .iter()
        .copied()
        .skip(kept.len().saturating_sub(omega))
        .collect();
    if window.is_empty() {
        return prior;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, g) in window.iter().enumerate() {
        let w = (i + 1) as f64;
        num += w * g;
        den += w;
    }
    num / den
}

/// §IV-A-2's Φ, transcribed independently of `Policy::batch_size`:
/// `round(speed / min_alive_speed)`, at least 1, where an unobserved PE is
/// represented in the fleet minimum by its static prior.
fn reference_phi(pe: usize, means: &[f64]) -> usize {
    let min_alive = means.iter().copied().fold(f64::INFINITY, f64::min);
    if !min_alive.is_finite() || min_alive <= 0.0 {
        return 1;
    }
    ((means[pe] / min_alive).round() as usize).max(1)
}

fn spec(id: usize, tenth_gcells: u64) -> TaskSpec {
    TaskSpec {
        id,
        query_len: 1000,
        queries: 1,
        db_residues: tenth_gcells * 100_000, // ×1000 query = 0.1 Gcells units
        db_sequences: 100,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Ω statistics the engine exposes are exactly the paper's formula
    /// for any trace, including degenerate samples that must be ignored.
    #[test]
    fn omega_window_mean_matches_reference(
        prior in 0.5f64..64.0,
        omega in 1usize..10,
        trace in prop::collection::vec(-5.0f64..60.0, 0..25),
    ) {
        let mut stats = PeSpeedStats::new(prior, omega);
        for &g in &trace {
            stats.observe(g);
        }
        let expected = reference_weighted_mean(prior, omega, &trace);
        let got = stats.weighted_mean_gcups();
        prop_assert!(
            (got - expected).abs() <= 1e-12 * expected.abs().max(1.0),
            "Ω mean {} != reference {}",
            got,
            expected
        );
    }

    /// Φ batch sizes handed out by the engine match the reference formula
    /// applied to the reference means, for every PE of a randomized fleet
    /// with randomized observation traces.
    #[test]
    fn pss_batches_match_reference_phi(
        priors in prop::collection::vec(1.0f64..32.0, 1..6),
        omega in 1usize..8,
        traces in prop::collection::vec(
            prop::collection::vec(0.5f64..40.0, 0..10), 6..7),
    ) {
        let n = priors.len();
        let means: Vec<f64> = (0..n)
            .map(|pe| reference_weighted_mean(priors[pe], omega, &traces[pe]))
            .collect();
        // Engine semantics on top of Φ: a PE with no observations yet gets
        // the SS grain of 1 ("in the first allocation, the master assigns
        // one work unit for each slave").
        let expected: Vec<usize> = (0..n)
            .map(|pe| {
                if traces[pe].is_empty() {
                    1
                } else {
                    reference_phi(pe, &means)
                }
            })
            .collect();
        // Enough ready tasks that the pool never truncates a batch.
        let total: usize = expected.iter().sum::<usize>() + n;
        let specs: Vec<TaskSpec> = (0..total).map(|id| spec(id, 10)).collect();
        let mut s = Scheduler::new(
            specs,
            MasterConfig {
                policy: Policy::Pss { omega },
                adjustment: true,
                dispatch: Dispatch::FileOrder,
            },
        );
        for (pe, prior) in priors.iter().enumerate() {
            let id = s.register(format!("pe{pe}"), *prior);
            prop_assert_eq!(id, pe);
        }
        let mut now = 0.0;
        for (pe, trace) in traces.iter().take(n).enumerate() {
            for &g in trace {
                now += 1.0;
                s.notify_progress(pe, now, g);
            }
        }
        for (pe, want) in expected.iter().enumerate() {
            match s.request(pe, now) {
                Assignment::Tasks(tasks) => prop_assert_eq!(
                    tasks.len(),
                    *want,
                    "pe{} batch {:?} != Φ {}",
                    pe,
                    tasks,
                    want
                ),
                other => prop_assert!(false, "pe{} got {:?}", pe, other),
            }
        }
    }

    /// Self-scheduling is the degenerate Φ ≡ 1 for any speed history.
    #[test]
    fn ss_batches_are_always_one(
        priors in prop::collection::vec(1.0f64..32.0, 1..6),
        traces in prop::collection::vec(
            prop::collection::vec(0.5f64..40.0, 0..10), 6..7),
    ) {
        let n = priors.len();
        let specs: Vec<TaskSpec> = (0..4 * n).map(|id| spec(id, 10)).collect();
        let mut s = Scheduler::new(
            specs,
            MasterConfig {
                policy: Policy::SelfScheduling,
                adjustment: false,
                dispatch: Dispatch::FileOrder,
            },
        );
        for (pe, prior) in priors.iter().enumerate() {
            s.register(format!("pe{pe}"), *prior);
        }
        let mut now = 0.0;
        for (pe, trace) in traces.iter().take(n).enumerate() {
            for &g in trace {
                now += 1.0;
                s.notify_progress(pe, now, g);
            }
        }
        for pe in 0..n {
            match s.request(pe, now) {
                Assignment::Tasks(tasks) => prop_assert_eq!(tasks.len(), 1),
                other => prop_assert!(false, "pe{} got {:?}", pe, other),
            }
        }
    }

    /// Drive the bare engine through whole runs: whatever the platform
    /// shape and workload, exactly one winner crosses the line per task,
    /// no replica is cancelled twice, and every cancelled replica's task
    /// has a winner elsewhere.
    #[test]
    fn replication_first_completion_wins(
        speeds in prop::collection::vec(1.0f64..32.0, 2..5),
        sizes in prop::collection::vec(1u64..200, 1..20),
        omega in 1usize..8,
    ) {
        let events = drive_to_completion(&speeds, &sizes, omega);
        for task in 0..sizes.len() {
            let winners = events
                .iter()
                .filter(|e| matches!(e,
                    Kind::TaskFinished { task: t, winner: true, .. } if *t == task))
                .count();
            prop_assert_eq!(winners, 1, "task {} had {} winners", task, winners);
            for pe in 0..speeds.len() {
                let cancels = events
                    .iter()
                    .filter(|e| matches!(e,
                        Kind::ReplicaCancelled { pe: p, task: t }
                            if *p == pe && *t == task))
                    .count();
                prop_assert!(
                    cancels <= 1,
                    "replica of task {} on pe{} cancelled {} times",
                    task,
                    pe,
                    cancels
                );
            }
        }
        // Every cancelled replica lost to a winner on a different PE.
        for e in &events {
            if let Kind::ReplicaCancelled { pe, task } = e {
                prop_assert!(events.iter().any(|w| matches!(w,
                    Kind::TaskFinished { pe: p, task: t, winner: true }
                        if t == task && p != pe)));
            }
        }
        let completed = events
            .iter()
            .filter(|e| matches!(e, Kind::RunCompleted))
            .count();
        prop_assert_eq!(completed, 1);
    }
}

/// A minimal discrete-event driver over the bare [`Scheduler`] — the kind
/// any new transport would write: per-PE local queues, one running task per
/// PE, completions in virtual-time order. Returns the engine's event kinds
/// (stripped of the `TaskFinished` speed field for easy matching).
fn drive_to_completion(speeds: &[f64], sizes: &[u64], omega: usize) -> Vec<Kind> {
    let specs: Vec<TaskSpec> = sizes
        .iter()
        .enumerate()
        .map(|(id, &s)| spec(id, s))
        .collect();
    let mut s = Scheduler::new(
        specs.clone(),
        MasterConfig {
            policy: Policy::Pss { omega },
            adjustment: true,
            dispatch: Dispatch::FileOrder,
        },
    );
    let clock = VirtualClock::new();
    let n = speeds.len();
    for (pe, g) in speeds.iter().enumerate() {
        s.register(format!("pe{pe}"), *g);
    }
    // Per-PE driver state.
    let mut queue: Vec<VecDeque<usize>> = vec![VecDeque::new(); n];
    let mut running: Vec<Option<(usize, f64)>> = vec![None; n]; // (task, finish time)
    let mut done = vec![false; n];
    let mut rounds = 0usize;
    while done.iter().any(|d| !d) {
        rounds += 1;
        assert!(rounds < 100_000, "driver livelocked");
        // Idle PEs ask for work (one request per PE per round).
        for pe in 0..n {
            if done[pe] || running[pe].is_some() || !queue[pe].is_empty() {
                continue;
            }
            match s.request(pe, clock.now()) {
                Assignment::Tasks(ts) => queue[pe].extend(ts),
                Assignment::Steal { task, from } => {
                    queue[from].retain(|&t| t != task);
                    queue[pe].push_back(task);
                }
                Assignment::Replicate(t) => queue[pe].push_back(t),
                Assignment::Wait => {}
                Assignment::Done => done[pe] = true,
            }
        }
        // Start the next queued task on every free PE.
        for pe in 0..n {
            if running[pe].is_none() {
                if let Some(t) = queue[pe].pop_front() {
                    s.task_started(pe, t, clock.now());
                    let secs = specs[t].cells() as f64 / (speeds[pe] * 1e9);
                    running[pe] = Some((t, clock.now() + secs));
                }
            }
        }
        // Advance to the earliest completion and report it.
        let next = running
            .iter()
            .enumerate()
            .filter_map(|(pe, r)| r.map(|(t, at)| (at, pe, t)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        if let Some((at, pe, t)) = next {
            clock.advance_to(at);
            running[pe] = None;
            for other in s.task_finished(pe, t, clock.now(), Some(speeds[pe])) {
                if running[other].map(|(rt, _)| rt) == Some(t) {
                    running[other] = None;
                }
                queue[other].retain(|&q| q != t);
            }
        }
    }
    s.take_events().into_iter().map(|e| strip(e.kind)).collect()
}

/// Event kinds with run-specific measurements removed, so matching is
/// exact.
#[derive(Debug, Clone, PartialEq)]
enum Kind {
    TaskFinished {
        pe: usize,
        task: usize,
        winner: bool,
    },
    ReplicaCancelled {
        pe: usize,
        task: usize,
    },
    RunCompleted,
    Other,
}

fn strip(kind: EventKind) -> Kind {
    match kind {
        EventKind::TaskFinished {
            pe, task, winner, ..
        } => Kind::TaskFinished { pe, task, winner },
        EventKind::ReplicaCancelled { pe, task, .. } => Kind::ReplicaCancelled { pe, task },
        EventKind::RunCompleted => Kind::RunCompleted,
        _ => Kind::Other,
    }
}

/// Deterministic witness that the adjustment path is actually exercised:
/// a fast PE replicates the slow PE's huge task and wins, and the slow
/// PE's replica is cancelled exactly once.
#[test]
fn fast_pe_wins_replica_of_straggler_task() {
    let specs = vec![spec(0, 50), spec(1, 400)];
    let mut s = Scheduler::new(
        specs.clone(),
        MasterConfig {
            policy: Policy::SelfScheduling,
            adjustment: true,
            dispatch: Dispatch::FileOrder,
        },
    );
    let clock = VirtualClock::new();
    let fast = s.register("fast", 30.0);
    let slow = s.register("slow", 1.0);
    // Both take one task; the slow PE lands on the huge one.
    assert_eq!(s.request(fast, clock.now()), Assignment::Tasks(vec![0]));
    assert_eq!(s.request(slow, clock.now()), Assignment::Tasks(vec![1]));
    s.task_started(fast, 0, clock.now());
    s.task_started(slow, 1, clock.now());
    // The fast PE finishes its small task and comes back for more: the
    // ready queue is empty, so it replicates the straggler.
    clock.advance_to(specs[0].cells() as f64 / 30e9);
    assert!(s.task_finished(fast, 0, clock.now(), Some(30.0)).is_empty());
    assert_eq!(s.request(fast, clock.now()), Assignment::Replicate(1));
    s.task_started(fast, 1, clock.now());
    // It wins the race; the slow PE's original execution is cancelled.
    clock.advance_to(clock.now() + specs[1].cells() as f64 / 30e9);
    let cancels = s.task_finished(fast, 1, clock.now(), Some(30.0));
    assert_eq!(cancels, vec![slow]);
    assert!(s.all_finished());
    assert_eq!(s.request(fast, clock.now()), Assignment::Done);
    let events = s.take_events();
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::TaskReplicated { pe, task: 1 } if pe == fast
    )));
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::ReplicaCancelled { pe, task: 1, .. } if pe == slow
    )));
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskFinished { winner: true, .. }))
            .count(),
        2
    );
}
