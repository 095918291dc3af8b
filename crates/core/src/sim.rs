//! Deterministic discrete-event simulation of the hybrid platform.
//!
//! The paper evaluates on 4 × GTX 580 + 2 × quad-core i7; this machine has
//! neither, so the platform runs under **virtual time**: each PE is a
//! [`Device`] whose task durations come from its calibrated row in
//! `swhybrid-device`, optionally perturbed by a [`LoadSchedule`]
//! (non-dedicated §V-C runs). The *scheduling logic itself is not
//! simulated* — this module contains no SS/PSS/Φ sizing and no adjustment
//! decisions of its own. The simulator is a discrete-event **driver** of
//! the one scheduling engine in [`crate::sched`], exactly like the real
//! runtimes: it advances a [`VirtualClock`] along its event heap and relays
//! request/start/notify/finish calls, so allocation decisions,
//! replication, and cancellations are the genuine article. It keeps only
//! device, time and counter state: which task a PE starts next is the
//! pool's run queue (`TaskPool::next_queued`).
//!
//! Determinism: events are ordered by `(time, insertion sequence)`, PEs are
//! always iterated in id order, and no wall-clock or RNG enters the loop —
//! a run is a pure function of its inputs.
//!
//! Progress notifications: each live PE reports every `notify_interval` of
//! virtual time, but the PEs that report at one instant share one heap
//! entry whenever their reports were scheduled back to back — from the
//! second tick on, the whole fleet. One entry stands exactly where the
//! run of per-PE entries would: see `Engine::push_notify`.
//!
//! Memory: a run keeps what its [`SimReport`] reads — per-PE counters and
//! the scheduler's own state, whose Ω windows hold the last Ω notifications
//! of each PE. Every Gantt segment and every notification sample is kept
//! only by [`Simulator::run_traced`], for the figures drawn from them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sched::{Assignment, Clock, MasterConfig, Scheduler, VirtualClock};
use crate::task::{PeId, TaskId};
use crate::trace::{NotifySample, SegmentEnd, Trace, TraceSegment};
use swhybrid_device::load::LoadSchedule;
use swhybrid_device::task::{Device, DeviceKind, TaskSpec};

/// One PE of the simulated platform.
#[derive(Clone)]
pub struct SimPe {
    /// The PE (its name is also the one registered with the master).
    pub device: Device,
    /// External load (1.0 everywhere for dedicated platforms).
    pub load: LoadSchedule,
    /// When the PE joins the platform (0.0 = from the start).
    pub join_at: f64,
    /// When the PE leaves, if ever (membership extension).
    pub leave_at: Option<f64>,
}

impl SimPe {
    /// A dedicated PE present for the whole run.
    pub fn new(device: Device) -> SimPe {
        SimPe {
            device,
            load: LoadSchedule::dedicated(),
            join_at: 0.0,
            leave_at: None,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master configuration (policy + adjustment flag).
    pub master: MasterConfig,
    /// Period of the slaves' progress notifications (seconds).
    pub notify_interval: f64,
    /// One-way master↔slave message latency (seconds); the paper's Gigabit
    /// Ethernet is effectively negligible at task granularity.
    pub comm_latency: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            master: MasterConfig::default(),
            notify_interval: 5.0,
            comm_latency: 0.0005,
        }
    }
}

/// Per-PE summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PeReport {
    /// PE name.
    pub name: String,
    /// PE kind.
    pub kind: DeviceKind,
    /// Seconds spent executing (including cancelled replicas).
    pub busy_seconds: f64,
    /// Tasks this PE completed first.
    pub tasks_completed: usize,
    /// Replicas of this PE that were cancelled.
    pub tasks_cancelled: usize,
    /// DP cells this PE computed (including work later discarded).
    pub cells_computed: f64,
}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Wall-clock (virtual) makespan in seconds.
    pub makespan: f64,
    /// Useful DP cells (each task counted once).
    pub total_cells: u64,
    /// Useful GCUPS: `total_cells / makespan / 1e9`.
    pub gcups: f64,
    /// Per-PE summaries, in PE id order.
    pub per_pe: Vec<PeReport>,
    /// Cells computed by replicas that lost the race (overhead of the
    /// adjustment mechanism).
    pub duplicated_cells: f64,
}

/// What a heap entry does when popped. `Notify { tick }` delivers the
/// progress notifications of every PE in `Engine::ticks[tick]`, in push
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Finish { pe: PeId, epoch: u64 },
    Notify { tick: usize },
    Join { pe: PeId },
    Leave { pe: PeId },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are finite")
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
struct Running {
    task: TaskId,
    spec: TaskSpec,
    total_work: f64,
    done_work: f64,
    checkpoint: f64,
    start: f64,
}

#[derive(Debug, Default)]
struct PeState {
    current: Option<Running>,
    epoch: u64,
    waiting: bool,
    alive: bool,
    last_notify: f64,
    cells_since_notify: f64,
    busy_seconds: f64,
    cells_computed: f64,
    tasks_completed: usize,
    tasks_cancelled: usize,
}

/// The simulator.
pub struct Simulator {
    pes: Vec<SimPe>,
    specs: Vec<TaskSpec>,
    config: SimConfig,
}

impl Simulator {
    /// Build a simulator for a platform and workload.
    pub fn new(pes: Vec<SimPe>, specs: Vec<TaskSpec>, config: SimConfig) -> Simulator {
        assert!(!pes.is_empty(), "platform needs at least one PE");
        assert!(
            config.notify_interval > 0.0,
            "notification interval must be positive"
        );
        Simulator { pes, specs, config }
    }

    /// Run to completion and report. Nothing beyond the report is kept:
    /// progress notifications still reach the scheduler's Ω windows, but
    /// no Gantt segment or notification sample is stored.
    pub fn run(self) -> SimReport {
        Engine::new(self.pes, self.specs, self.config, None).run().0
    }

    /// Run to completion, also recording the [`Trace`] the paper's figures
    /// are drawn from. The schedule is the one [`Simulator::run`] makes:
    /// recording only stores what the run's events already carry.
    pub fn run_traced(self) -> (SimReport, Trace) {
        let (report, trace) =
            Engine::new(self.pes, self.specs, self.config, Some(Trace::default())).run();
        (report, trace.expect("a traced engine keeps its trace"))
    }
}

struct Engine {
    pes: Vec<SimPe>,
    state: Vec<PeState>,
    master: Scheduler,
    /// The run's time base: advanced to each popped event's stamp; every
    /// `now` handed to the engine is read back off this clock.
    clock: VirtualClock,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Members of each `Notify` entry, by slot; emptied slots are reused.
    ticks: Vec<Vec<PeId>>,
    free_ticks: Vec<usize>,
    /// The last-pushed event, while it is a `Notify` still taking members:
    /// its slot, its `seq` and its time.
    open_tick: Option<(usize, u64, f64)>,
    /// How many PEs have their `waiting` flag set.
    waiting: usize,
    /// Gantt segments and notification samples, for a caller that asked.
    trace: Option<Trace>,
    total_cells: u64,
    makespan: f64,
    duplicated_cells: f64,
    done: bool,
    notify_interval: f64,
    latency: f64,
}

impl Engine {
    fn new(
        pes: Vec<SimPe>,
        specs: Vec<TaskSpec>,
        config: SimConfig,
        trace: Option<Trace>,
    ) -> Engine {
        let total_cells = specs.iter().map(|s| s.cells()).sum();
        let mut master = Scheduler::new(specs, config.master);
        let mut state = Vec::with_capacity(pes.len());
        for pe in &pes {
            // Every PE (early or late) is registered up front so ids line
            // up; static quotas therefore see the full roster.
            let id = master.register(
                pe.device.name.clone(),
                pe.device.task_gcups(&TaskSpec::probe()),
            );
            debug_assert_eq!(id, state.len());
            let mut s = PeState {
                alive: pe.join_at <= 0.0,
                ..PeState::default()
            };
            s.last_notify = pe.join_at;
            state.push(s);
        }
        Engine {
            pes,
            state,
            master,
            clock: VirtualClock::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            ticks: Vec::new(),
            free_ticks: Vec::new(),
            open_tick: None,
            waiting: 0,
            trace,
            total_cells,
            makespan: 0.0,
            duplicated_cells: 0.0,
            done: false,
            notify_interval: config.notify_interval,
            latency: config.comm_latency,
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Schedule `pe`'s next progress notification at `time`. Notifications
    /// pushed back to back for one instant share one heap entry: one per
    /// PE, they would hold consecutive `seq` values with no other event
    /// between them, so every other event sorts wholly before or after the
    /// run either way, and popping the entry handles its members in the
    /// order they were pushed.
    fn push_notify(&mut self, pe: PeId, time: f64) {
        if let Some((tick, seq, at)) = self.open_tick {
            if seq == self.seq && at == time {
                self.ticks[tick].push(pe);
                return;
            }
        }
        let tick = match self.free_ticks.pop() {
            Some(tick) => tick,
            None => {
                self.ticks.push(Vec::new());
                self.ticks.len() - 1
            }
        };
        self.ticks[tick].push(pe);
        self.push(time, EventKind::Notify { tick });
        self.open_tick = Some((tick, self.seq, time));
    }

    /// Set or clear a PE's `waiting` flag, keeping the count in step.
    fn set_waiting(&mut self, pe: PeId, waiting: bool) {
        let st = &mut self.state[pe];
        if st.waiting != waiting {
            st.waiting = waiting;
            if waiting {
                self.waiting += 1;
            } else {
                self.waiting -= 1;
            }
        }
    }

    fn run(mut self) -> (SimReport, Option<Trace>) {
        // Bootstrap: present PEs request work; absent ones get Join events.
        for pe in 0..self.pes.len() {
            if self.state[pe].alive {
                self.push_notify(pe, self.pes[pe].join_at + self.notify_interval);
                self.request_work(pe, 0.0);
            } else {
                self.push(self.pes[pe].join_at, EventKind::Join { pe });
            }
            if let Some(leave) = self.pes[pe].leave_at {
                self.push(leave, EventKind::Leave { pe });
            }
        }
        if self.master.all_finished() {
            self.done = true; // empty workload
        }

        while let Some(Reverse(ev)) = self.heap.pop() {
            if self.done {
                break;
            }
            self.clock.advance_to(ev.time);
            let now = self.clock.now();
            match ev.kind {
                EventKind::Finish { pe, epoch } => self.on_finish(pe, epoch, now),
                EventKind::Notify { tick } => self.on_tick(tick, now),
                EventKind::Join { pe } => self.on_join(pe, now),
                EventKind::Leave { pe } => self.on_leave(pe, now),
            }
        }

        let per_pe = self
            .state
            .iter()
            .enumerate()
            .map(|(i, s)| PeReport {
                name: self.pes[i].device.name.clone(),
                kind: self.pes[i].device.kind,
                busy_seconds: s.busy_seconds,
                tasks_completed: s.tasks_completed,
                tasks_cancelled: s.tasks_cancelled,
                cells_computed: s.cells_computed,
            })
            .collect();
        let gcups = if self.makespan > 0.0 {
            self.total_cells as f64 / self.makespan / 1e9
        } else {
            0.0
        };
        let report = SimReport {
            makespan: self.makespan,
            total_cells: self.total_cells,
            gcups,
            per_pe,
            duplicated_cells: self.duplicated_cells,
        };
        (report, self.trace)
    }

    /// Record one Gantt segment, if this run is traced.
    fn segment(&mut self, pe: PeId, run: &Running, end: f64, end_kind: SegmentEnd) {
        if let Some(trace) = &mut self.trace {
            trace.segments.push(TraceSegment {
                pe,
                task: run.task,
                start: run.start,
                end,
                end_kind,
            });
        }
    }

    /// Bring a PE's running-task progress up to `now`, accumulating cell
    /// counters.
    fn touch(&mut self, pe: PeId, now: f64) {
        let load = &self.pes[pe].load;
        let st = &mut self.state[pe];
        if let Some(run) = &mut st.current {
            if now <= run.checkpoint {
                // The task starts in the future (assignment latency): no
                // progress to account yet.
                return;
            }
            let delta = load.work_done(run.checkpoint, now, 1.0);
            run.done_work += delta;
            run.checkpoint = now;
            let cells = run.spec.cells() as f64 * (delta / run.total_work);
            st.cells_since_notify += cells;
            st.cells_computed += cells;
        }
    }

    fn start_task(&mut self, pe: PeId, task: TaskId, now: f64) {
        let spec = self.master.pool().get(task).spec.clone();
        let total_work = self.pes[pe].device.task_seconds(&spec);
        assert!(total_work > 0.0, "task must take positive time");
        let finish = self.pes[pe].load.finish_time(now, total_work, 1.0);
        self.master.task_started(pe, task, now);
        let st = &mut self.state[pe];
        st.epoch += 1;
        st.current = Some(Running {
            task,
            spec,
            total_work,
            done_work: 0.0,
            checkpoint: now,
            start: now,
        });
        let epoch = st.epoch;
        self.push(finish, EventKind::Finish { pe, epoch });
    }

    /// Start the next queued task or ask the master for more work.
    fn advance(&mut self, pe: PeId, now: f64) {
        if !self.state[pe].alive || self.state[pe].current.is_some() {
            return;
        }
        match self.master.pool().next_queued(pe) {
            Some(next) => self.start_task(pe, next, now),
            None => self.request_work(pe, now),
        }
    }

    fn request_work(&mut self, pe: PeId, now: f64) {
        if !self.state[pe].alive {
            return;
        }
        self.set_waiting(pe, false);
        match self.master.request(pe, now) {
            // Each lands on the PE's run queue in the pool.
            Assignment::Tasks(_) | Assignment::Steal { .. } | Assignment::Replicate(_) => {
                if let Some(next) = self.master.pool().next_queued(pe) {
                    self.start_task(pe, next, now + self.latency);
                }
            }
            Assignment::Wait => self.set_waiting(pe, true),
            Assignment::Done => {}
        }
    }

    /// Re-poll PEs that previously got `Wait` (state may have changed).
    fn poll_waiting(&mut self, now: f64) {
        debug_assert_eq!(
            self.waiting,
            self.state.iter().filter(|s| s.waiting).count()
        );
        if self.waiting == 0 {
            return;
        }
        for pe in 0..self.state.len() {
            if self.state[pe].waiting && self.state[pe].alive && self.state[pe].current.is_none() {
                self.request_work(pe, now);
            }
        }
    }

    fn on_finish(&mut self, pe: PeId, epoch: u64, now: f64) {
        if self.state[pe].epoch != epoch || self.state[pe].current.is_none() {
            return; // stale event from a cancelled run
        }
        self.touch(pe, now);
        let run = self.state[pe].current.take().expect("checked above");
        self.state[pe].busy_seconds += (now - run.start).max(0.0);
        let duration = now - run.start;
        let measured_gcups = if duration > 0.0 {
            run.spec.cells() as f64 / duration / 1e9
        } else {
            f64::INFINITY
        };
        self.segment(pe, &run, now, SegmentEnd::Completed);
        self.state[pe].tasks_completed += 1;
        self.makespan = self.makespan.max(now);

        let cancels = self
            .master
            .task_finished(pe, run.task, now, Some(measured_gcups));
        for other in cancels {
            self.cancel_holder(other, run.task, now);
        }

        if self.master.all_finished() {
            self.done = true;
            return;
        }
        self.advance(pe, now);
        self.poll_waiting(now);
    }

    /// Cancel another PE's running replica of a finished task. (A queued
    /// copy already left the PE's run queue when the task finished.)
    fn cancel_holder(&mut self, pe: PeId, task: TaskId, now: f64) {
        let is_current = self.state[pe]
            .current
            .as_ref()
            .is_some_and(|r| r.task == task);
        if is_current {
            self.touch(pe, now);
            let run = self.state[pe].current.take().expect("checked above");
            self.state[pe].busy_seconds += (now - run.start).max(0.0);
            let wasted = run.spec.cells() as f64 * (run.done_work / run.total_work);
            self.duplicated_cells += wasted;
            self.state[pe].tasks_cancelled += 1;
            self.state[pe].epoch += 1; // invalidate the pending Finish
            self.segment(pe, &run, now, SegmentEnd::Cancelled);
            self.advance(pe, now);
        }
    }

    /// Deliver the notifications of one heap entry, then recycle its slot.
    fn on_tick(&mut self, tick: usize, now: f64) {
        if self.open_tick.is_some_and(|(open, _, _)| open == tick) {
            self.open_tick = None;
        }
        let mut members = std::mem::take(&mut self.ticks[tick]);
        for &pe in &members {
            self.on_notify(pe, now);
        }
        members.clear();
        self.ticks[tick] = members;
        self.free_ticks.push(tick);
    }

    fn on_notify(&mut self, pe: PeId, now: f64) {
        if self.done || !self.state[pe].alive {
            return;
        }
        self.touch(pe, now);
        let st = &mut self.state[pe];
        let interval = now - st.last_notify;
        let gcups = if interval > 0.0 {
            st.cells_since_notify / interval / 1e9
        } else {
            0.0
        };
        st.cells_since_notify = 0.0;
        st.last_notify = now;
        if let Some(trace) = &mut self.trace {
            trace.notifications.push(NotifySample {
                pe,
                time: now,
                gcups,
            });
        }
        self.master.notify_progress(pe, now, gcups);
        self.push_notify(pe, now + self.notify_interval);
    }

    fn on_join(&mut self, pe: PeId, now: f64) {
        if self.done {
            return;
        }
        self.state[pe].alive = true;
        self.state[pe].last_notify = now;
        self.push_notify(pe, now + self.notify_interval);
        self.request_work(pe, now);
    }

    fn on_leave(&mut self, pe: PeId, now: f64) {
        if self.done || !self.state[pe].alive {
            return;
        }
        self.touch(pe, now);
        if let Some(run) = self.state[pe].current.take() {
            self.state[pe].busy_seconds += (now - run.start).max(0.0);
            self.segment(pe, &run, now, SegmentEnd::Abandoned);
            self.state[pe].epoch += 1;
        }
        self.state[pe].alive = false;
        // The poll skips a PE that left, so it no longer counts as waiting.
        self.set_waiting(pe, false);
        self.master.pe_leaves(pe);
        // Released tasks may be ready again: wake the waiters.
        self.poll_waiting(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use swhybrid_device::perfmodel::PerfModel;

    /// A dedicated flat-rate PE: `gcups` everywhere, no startup, no ramps.
    fn flat_pe(name: impl Into<String>, gcups: f64) -> SimPe {
        SimPe::new(Device {
            name: name.into(),
            kind: DeviceKind::SseCore,
            model: PerfModel::flat(gcups),
        })
    }

    fn uniform_tasks(n: usize, cells_each: u64) -> Vec<TaskSpec> {
        (0..n)
            .map(|id| TaskSpec {
                id,
                query_len: 1000,
                queries: 1,
                db_residues: cells_each / 1000,
                db_sequences: 1000,
            })
            .collect()
    }

    fn config(policy: Policy, adjustment: bool) -> SimConfig {
        SimConfig {
            master: MasterConfig {
                policy,
                adjustment,
                dispatch: Default::default(),
            },
            notify_interval: 5.0,
            comm_latency: 0.0,
        }
    }

    #[test]
    fn single_pe_runs_everything_sequentially() {
        // 10 tasks of 1 Gcell at 1 GCUPS = 10 s.
        let pes = vec![flat_pe("solo", 1.0)];
        let report = Simulator::new(
            pes,
            uniform_tasks(10, 1_000_000_000),
            config(Policy::SelfScheduling, true),
        )
        .run();
        assert!((report.makespan - 10.0).abs() < 1e-6, "{}", report.makespan);
        assert_eq!(report.per_pe[0].tasks_completed, 10);
        assert_eq!(report.per_pe[0].tasks_cancelled, 0);
        assert!((report.gcups - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_equal_pes_halve_the_makespan() {
        let pes = vec![flat_pe("a", 1.0), flat_pe("b", 1.0)];
        let report = Simulator::new(
            pes,
            uniform_tasks(10, 1_000_000_000),
            config(Policy::SelfScheduling, true),
        )
        .run();
        assert!((report.makespan - 5.0).abs() < 1e-6, "{}", report.makespan);
    }

    #[test]
    fn empty_workload_finishes_instantly() {
        let pes = vec![flat_pe("a", 1.0)];
        let report = Simulator::new(pes, vec![], config(Policy::SelfScheduling, true)).run();
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.total_cells, 0);
    }

    #[test]
    fn fig5_worked_example_with_adjustment_is_14s() {
        // §IV-A-3 / Fig. 5: 4 PEs (1 GPU 6× faster than 3 SSE cores),
        // 20 tasks of 1 s GPU time each, PSS, negligible latency.
        // Equal priors make the first allocation one task per PE.
        let mut pes = vec![flat_pe("GPU1", 6.0)];
        for i in 1..=3 {
            pes.push(flat_pe(format!("SSE{i}"), 1.0));
        }
        // Override priors: register uses a probe task; flat devices report
        // their flat GCUPS for it, so priors are 6 and 1 — but Fig. 5's
        // first round hands ONE task to each PE, which PSS does only with
        // equal priors. Emulate the paper's "first allocation" by SS-like
        // priors: use the SS-equivalent first round that PSS produces when
        // speeds are unknown. We get that for free because the paper's own
        // master also assigned one task each in round one — so assert the
        // *makespan*, which is prior-independent here: the GPU drains the
        // queue by t=13 either way and t20's replica finishes at 14 s.
        let report = Simulator::new(
            pes,
            uniform_tasks(20, 6_000_000_000),
            config(Policy::pss_default(), true),
        )
        .run();
        assert!(
            (report.makespan - 14.0).abs() < 0.01,
            "expected 14 s, got {}",
            report.makespan
        );
    }

    #[test]
    fn fig5_without_adjustment_is_18s() {
        let mut pes = vec![flat_pe("GPU1", 6.0)];
        for i in 1..=3 {
            pes.push(flat_pe(format!("SSE{i}"), 1.0));
        }
        let report = Simulator::new(
            pes,
            uniform_tasks(20, 6_000_000_000),
            config(Policy::pss_default(), false),
        )
        .run();
        assert!(
            (report.makespan - 18.0).abs() < 0.01,
            "expected 18 s, got {}",
            report.makespan
        );
    }

    #[test]
    fn adjustment_never_hurts_makespan_much() {
        // Across several platform shapes, enabling adjustment must not make
        // the makespan worse (beyond numeric noise).
        for (fast, slow, tasks) in [(6.0, 1.0, 20), (10.0, 1.0, 7), (3.0, 2.0, 12)] {
            let mk = |adj: bool| {
                let pes = vec![flat_pe("fast", fast), flat_pe("slow", slow)];
                Simulator::new(
                    pes,
                    uniform_tasks(tasks, 2_000_000_000),
                    config(Policy::pss_default(), adj),
                )
                .run()
                .makespan
            };
            let with = mk(true);
            let without = mk(false);
            assert!(
                with <= without + 1e-6,
                "adjustment hurt: {with} > {without} (fast={fast} slow={slow} n={tasks})"
            );
        }
    }

    #[test]
    fn cancelled_replicas_are_counted_as_duplicated_work() {
        let pes = vec![flat_pe("fast", 10.0), flat_pe("slow", 1.0)];
        let report = Simulator::new(
            pes,
            uniform_tasks(3, 1_000_000_000),
            config(Policy::SelfScheduling, true),
        )
        .run();
        // The slow PE's first task is eventually replicated (or its replica
        // cancelled); either way some duplicated work must be recorded.
        let cancelled: usize = report.per_pe.iter().map(|p| p.tasks_cancelled).sum();
        assert!(cancelled >= 1, "report: {report:?}");
        assert!(report.duplicated_cells > 0.0);
        // Useful cells never include duplicates.
        assert_eq!(report.total_cells, 3_000_000_000);
    }

    #[test]
    fn load_schedule_slows_pe_down() {
        // One PE at 1 GCUPS, 10 Gcells of work, halved after t=5:
        // 5 Gcells by t=5, remaining 5 at 0.5 GCUPS → 10 more s → 15 s.
        let pes = vec![SimPe {
            load: LoadSchedule::step_at(5.0, 0.5),
            ..flat_pe("a", 1.0)
        }];
        let report = Simulator::new(
            pes,
            uniform_tasks(10, 1_000_000_000),
            config(Policy::SelfScheduling, true),
        )
        .run();
        assert!((report.makespan - 15.0).abs() < 1e-6, "{}", report.makespan);
    }

    #[test]
    fn notifications_track_load_change() {
        let pes = vec![SimPe {
            load: LoadSchedule::step_at(10.0, 0.5),
            ..flat_pe("a", 2.0)
        }];
        let (_, trace) = Simulator::new(
            pes,
            uniform_tasks(60, 1_000_000_000),
            config(Policy::pss_default(), true),
        )
        .run_traced();
        let series = trace.pe_notifications(0);
        assert!(series.len() >= 3);
        let before: Vec<f64> = series
            .iter()
            .filter(|&&(t, _)| t <= 10.0)
            .map(|&(_, g)| g)
            .collect();
        let after: Vec<f64> = series
            .iter()
            .filter(|&&(t, _)| t > 12.0)
            .map(|&(_, g)| g)
            .collect();
        assert!(!before.is_empty() && !after.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&after) < mean(&before) * 0.7,
            "before {:?} after {:?}",
            before,
            after
        );
    }

    #[test]
    fn pe_leaving_returns_its_tasks() {
        let mut slow = flat_pe("leaver", 1.0);
        slow.leave_at = Some(2.0);
        let pes = vec![flat_pe("stayer", 1.0), slow];
        let report = Simulator::new(
            pes,
            uniform_tasks(6, 1_000_000_000),
            config(Policy::SelfScheduling, true),
        )
        .run();
        // All 6 tasks complete even though the leaver goes away at t=2.
        let completed: usize = report.per_pe.iter().map(|p| p.tasks_completed).sum();
        assert_eq!(completed, 6);
        // The stayer did most of the work.
        assert!(report.per_pe[0].tasks_completed >= 4);
    }

    #[test]
    fn pe_joining_late_takes_work() {
        let mut late = flat_pe("late", 10.0);
        late.join_at = 3.0;
        let pes = vec![flat_pe("early", 1.0), late];
        let report = Simulator::new(
            pes,
            uniform_tasks(10, 1_000_000_000),
            config(Policy::SelfScheduling, true),
        )
        .run();
        assert!(report.per_pe[1].tasks_completed >= 5, "{report:?}");
        // 10 s of work: early does ~3 tasks alone, the fast latecomer
        // mops up the rest quickly.
        assert!(report.makespan < 10.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let pes = vec![flat_pe("a", 3.0), flat_pe("b", 1.0)];
            Simulator::new(
                pes,
                uniform_tasks(15, 2_000_000_000),
                config(Policy::pss_default(), true),
            )
            .run_traced()
        };
        let (r1, t1) = build();
        let (r2, t2) = build();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(t1.segments, t2.segments);
        assert_eq!(t1.notifications, t2.notifications);
    }

    #[test]
    fn gcups_is_useful_cells_over_makespan() {
        let pes = vec![flat_pe("a", 2.0)];
        let report = Simulator::new(
            pes,
            uniform_tasks(4, 1_000_000_000),
            config(Policy::SelfScheduling, true),
        )
        .run();
        assert!((report.gcups - 2.0).abs() < 1e-6);
    }
}
