//! The scheduling engine (§III): one implementation of SS/PSS Φ batch
//! sizing, the Ω-window weighted speed statistics, the
//! ready→executing→finished task state machine, and the workload
//! adjustment mechanism (replication, first-completion-wins, beneficial
//! takeover).
//!
//! The engine is deliberately **transport- and clock-agnostic**: every
//! entry point takes an explicit `now` stamp in seconds, produced by
//! whichever [`Clock`] the driver holds. The real runtimes
//! ([`crate::pool`], the batch master in [`crate::net`], the query
//! service) read a [`WallClock`]; the discrete-event simulator
//! ([`crate::sim`]) advances a [`VirtualClock`] along its event heap.
//! Both drive the *same* [`Scheduler`] — there is exactly one place in the
//! tree where a Φ batch is sized or a replica is cancelled, so simulated
//! and real runs cannot silently diverge.
//!
//! In the paper's terms (Fig. 4) this is the master's decision logic:
//! under a dynamic policy it pops ready tasks in file order (batch size
//! from the policy); once the ready queue is empty the **workload
//! adjustment mechanism** (if enabled) hands an idle PE a replica of the
//! executing task with the largest estimated remaining work. The first PE
//! to complete a task wins and the other replicas are cancelled. Slaves
//! give implicit speed information when they ask for more work and
//! explicit information through periodic progress notifications.

use crate::policy::Policy;
use crate::stats::PeSpeedStats;
use crate::task::{PeId, TaskId, TaskPool, TaskState};
use crate::trace::{EventKind, RuntimeEvent};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;
use swhybrid_device::task::TaskSpec;

/// A monotonic source of `now` stamps (seconds since the clock's epoch).
///
/// The engine never reads time on its own — drivers sample their clock and
/// pass the stamp in. The trait exists so driver code that *loops* over
/// engine calls (the pool, the simulator) can be written once against
/// either time base.
pub trait Clock {
    /// Seconds since this clock's epoch.
    fn now(&self) -> f64;
}

/// Real time: seconds elapsed since construction.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Virtual time: holds whatever instant the discrete-event driver has
/// advanced it to. Never moves backwards.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Cell<f64>,
}

impl VirtualClock {
    /// A virtual clock at t = 0.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Advance to `t` (no-op if `t` is in the past — event heaps may pop
    /// several events stamped with the same instant).
    pub fn advance_to(&self, t: f64) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> f64 {
        self.now.get()
    }
}

/// How ready tasks are picked for a requesting PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Query-file order (the paper's behaviour): first ready task first,
    /// regardless of who asks.
    #[default]
    FileOrder,
    /// Extension: PEs at or above the mean estimated speed take the largest
    /// ready tasks, slower PEs the smallest — a slow PE can then never
    /// become the lone straggler on a huge task (see the
    /// `ablation_dispatch` experiment).
    SizeAware,
}

/// Engine configuration: the user-selected policy and whether the workload
/// adjustment mechanism is active. (Named for the paper's master process,
/// whose decisions the engine makes.)
#[derive(Debug, Clone, Copy)]
pub struct MasterConfig {
    /// Task allocation policy.
    pub policy: Policy,
    /// Whether idle PEs replicate executing tasks once the ready queue is
    /// empty (§IV-A-3).
    pub adjustment: bool,
    /// Ready-queue dispatch order.
    pub dispatch: Dispatch,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            policy: Policy::pss_default(),
            adjustment: true,
            dispatch: Dispatch::FileOrder,
        }
    }
}

/// What the engine answers to a work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Assignment {
    /// Fresh ready tasks, in allocation order.
    Tasks(Vec<TaskId>),
    /// Take over a task that was assigned to another PE's batch but has not
    /// started there yet: the task moves wholesale (no work is lost). The
    /// `from` PE must drop it from its local queue.
    Steal {
        /// The reassigned task.
        task: TaskId,
        /// The PE it is taken from.
        from: PeId,
    },
    /// A replica of a task another PE is already *running*; whichever copy
    /// finishes first wins and the others are cancelled.
    Replicate(TaskId),
    /// Nothing for this PE right now (it may be re-polled if tasks are
    /// released back to ready, e.g. when a PE leaves).
    Wait,
    /// Every task is finished.
    Done,
}

/// Where the engine's event stream goes when someone consumes it live:
/// called once per event, in emission order, while the driver's lock is
/// held — keep callbacks short (fold a counter, write a line). The engine
/// forwards and never retains: without a sink an event is dropped, so a
/// long-lived engine's memory does not grow with the number of tasks it
/// has scheduled.
pub struct EventSink(pub(crate) Box<dyn FnMut(&RuntimeEvent) + Send>);

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink(..)")
    }
}

#[derive(Debug)]
struct PeInfo {
    name: String,
    stats: PeSpeedStats,
    alive: bool,
    /// Joined after the registration barrier ([`Scheduler::pe_joins`]).
    /// Until its first real measurement lands, such a PE sits in the Ω
    /// window with only its static prior — a bad prior there skews
    /// `min_alive` and through it every *other* PE's Φ, so
    /// [`Scheduler::batch_for`] clamps the whole fleet to the SS grain
    /// while any alive late joiner is still unobserved.
    late_join: bool,
    /// Start times of tasks currently running on this PE (tasks assigned
    /// but not yet started are not in this map).
    running: HashMap<TaskId, f64>,
}

/// The scheduling engine. One instance owns the task pool, the per-PE
/// speed windows, and every policy/adjustment decision of a run.
#[derive(Debug)]
pub struct Scheduler {
    pool: TaskPool,
    config: MasterConfig,
    pes: Vec<PeInfo>,
    /// Remaining up-front quotas for static policies, computed on the
    /// first request (all PEs must register before that point).
    quotas: Option<Vec<usize>>,
    /// Latest time any driver call reported; events from calls without a
    /// `now` parameter are stamped with this.
    clock: f64,
    run_completed_emitted: bool,
    /// When set, a drained pool answers [`Assignment::Wait`] instead of
    /// [`Assignment::Done`]: the engine outlives its current workload and
    /// expects more batches via [`Scheduler::submit_tasks`].
    keep_alive: bool,
    /// Where the structured event stream goes (every scheduling decision
    /// and membership change, in emission order; see [`EventSink`]).
    sink: Option<EventSink>,
}

impl Scheduler {
    /// Create an engine for a workload.
    pub fn new(specs: Vec<TaskSpec>, config: MasterConfig) -> Scheduler {
        Scheduler {
            pool: TaskPool::new(specs),
            config,
            pes: Vec::new(),
            quotas: None,
            clock: 0.0,
            run_completed_emitted: false,
            keep_alive: false,
            sink: None,
        }
    }

    /// Consume the event stream: `sink` is called for every event from now
    /// on, in emission order (events emitted before it was installed were
    /// dropped). Used by the CLI to stream JSONL incrementally and by the
    /// query service to fold per-PE metrics as they happen.
    pub fn set_event_sink(&mut self, sink: impl FnMut(&RuntimeEvent) + Send + 'static) {
        self.sink = Some(EventSink(Box::new(sink)));
    }

    /// Keep the engine alive across workloads: with `keep_alive` set, a
    /// drained pool yields [`Assignment::Wait`] (PEs idle at the barrier)
    /// instead of [`Assignment::Done`], until more tasks arrive through
    /// [`Scheduler::submit_tasks`] or keep-alive is cleared for shutdown.
    pub fn set_keep_alive(&mut self, keep_alive: bool) {
        self.keep_alive = keep_alive;
    }

    /// Whether the engine outlives a drained pool (see
    /// [`Scheduler::set_keep_alive`]).
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// Append a new batch of tasks to the pool mid-run (multi-batch
    /// lifecycle). Returns the assigned task ids, in submission order.
    /// Only dynamic policies can absorb new work — static quotas are
    /// computed once against the initial workload.
    pub fn submit_tasks(&mut self, specs: Vec<TaskSpec>) -> Vec<TaskId> {
        assert!(
            !self.config.policy.is_static(),
            "multi-batch submission requires a dynamic policy"
        );
        // The next drain is a fresh completion.
        self.run_completed_emitted = false;
        let ids: Vec<TaskId> = specs.into_iter().map(|spec| self.pool.push(spec)).collect();
        self.emit(EventKind::BatchSubmitted { tasks: ids.clone() });
        ids
    }

    /// Record an event at time `time`. Drivers use this for conditions only
    /// they can see (e.g. the TCP master's liveness verdicts); the state
    /// machine emits its own scheduling events internally.
    pub fn record_event(&mut self, time: f64, kind: EventKind) {
        self.clock = self.clock.max(time);
        self.push_event(RuntimeEvent { time, kind });
    }

    fn emit(&mut self, kind: EventKind) {
        self.push_event(RuntimeEvent {
            time: self.clock,
            kind,
        });
    }

    fn push_event(&mut self, event: RuntimeEvent) {
        if let Some(EventSink(sink)) = &mut self.sink {
            sink(&event);
        }
    }

    /// Register a slave PE; `static_gcups` is its theoretical speed (used
    /// by WFixed and as the PSS prior until observations arrive).
    pub fn register(&mut self, name: impl Into<String>, static_gcups: f64) -> PeId {
        assert!(
            self.quotas.is_none(),
            "all PEs must register before the first request under a static policy"
        );
        let id = self.pes.len();
        let name = name.into();
        self.emit(EventKind::PeRegistered {
            pe: id,
            name: name.clone(),
        });
        self.pes.push(PeInfo {
            name,
            stats: PeSpeedStats::new(static_gcups, self.config.policy.omega()),
            alive: true,
            late_join: false,
            running: HashMap::new(),
        });
        id
    }

    /// Name of a PE.
    pub fn pe_name(&self, pe: PeId) -> &str {
        &self.pes[pe].name
    }

    /// Number of registered PEs.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// The task pool (read-only).
    pub fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// Whether every task has finished.
    pub fn all_finished(&self) -> bool {
        self.pool.all_finished()
    }

    /// Current speed estimates (GCUPS) for every PE.
    pub fn speed_estimates(&self) -> Vec<f64> {
        self.pes
            .iter()
            .map(|p| p.stats.weighted_mean_gcups())
            .collect()
    }

    /// A PE asks for work at time `now`.
    pub fn request(&mut self, pe: PeId, now: f64) -> Assignment {
        assert!(self.pes[pe].alive, "dead PE {pe} cannot request work");
        self.clock = self.clock.max(now);
        if self.pool.all_finished() {
            return if self.keep_alive {
                Assignment::Wait
            } else {
                Assignment::Done
            };
        }
        let batch = self.batch_for(pe);
        if batch > 0 && self.pool.ready_count() > 0 {
            let tasks = match self.config.dispatch {
                Dispatch::FileOrder => self.pool.take_ready(batch, pe),
                Dispatch::SizeAware => {
                    let speeds = self.speed_estimates();
                    let alive: Vec<f64> = speeds
                        .iter()
                        .zip(self.pes.iter())
                        .filter(|(_, p)| p.alive)
                        .map(|(&s, _)| s)
                        .collect();
                    let mean = alive.iter().sum::<f64>() / alive.len().max(1) as f64;
                    self.pool.take_ready_by_size(batch, pe, speeds[pe] >= mean)
                }
            };
            if let Some(quotas) = &mut self.quotas {
                quotas[pe] -= tasks.len().min(quotas[pe]);
            }
            self.emit(EventKind::TasksAssigned {
                pe,
                tasks: tasks.clone(),
            });
            return Assignment::Tasks(tasks);
        }
        if self.config.adjustment {
            // Prefer taking over a task that has not started anywhere —
            // no work is lost — but ONLY when this PE would finish it
            // before its current holder is even expected to get to it:
            // moving a big task onto a slow idle PE would *create* the very
            // straggler the mechanism exists to prevent. When no beneficial
            // takeover exists, fall back to replication (§IV-A-3), which by
            // construction can never delay the original execution.
            if let Some((task, from)) = self.steal_candidate(pe, now) {
                self.pool.reassign(task, from, pe);
                self.emit(EventKind::TaskStolen { pe, task, from });
                return Assignment::Steal { task, from };
            }
            if let Some(task) = self.replication_candidate(pe, now) {
                self.pool.replicate(task, pe);
                self.emit(EventKind::TaskReplicated { pe, task });
                return Assignment::Replicate(task);
            }
        }
        Assignment::Wait
    }

    /// Estimated cells a PE still has to compute across everything it
    /// currently holds (running task remainder + unstarted batch entries).
    fn backlog_cells(&self, pe: PeId, now: f64) -> f64 {
        self.pool
            .held_by(pe)
            .map(|t| match self.pes[pe].running.get(&t) {
                Some(&start) => {
                    let speed = self.pes[pe].stats.weighted_mean_gcups() * 1e9;
                    (self.pool.get(t).spec.cells() as f64 - speed * (now - start)).max(0.0)
                }
                None => self.pool.get(t).spec.cells() as f64,
            })
            .sum()
    }

    /// The most beneficial takeover: an executing task no holder has begun
    /// that `pe` would finish well before its holder's ETA.
    fn steal_candidate(&self, pe: PeId, now: f64) -> Option<(TaskId, PeId)> {
        let speeds = self.speed_estimates();
        let req_speed = (speeds[pe] * 1e9).max(1.0);
        self.pool
            .executing_ids()
            .filter_map(|t| {
                let task = self.pool.get(t);
                if task.executors.contains(&pe) {
                    return None;
                }
                // Only unstarted tasks move; started ones are replicated.
                let unstarted = task
                    .executors
                    .iter()
                    .all(|&holder| !self.pes[holder].running.contains_key(&t));
                if !unstarted {
                    return None;
                }
                let holder = *task.executors.first()?;
                let holder_speed = (speeds[holder] * 1e9).max(1.0);
                // The holder must finish its whole backlog (which includes
                // this task) before this task completes there.
                let holder_eta = self.backlog_cells(holder, now) / holder_speed;
                let req_eta = task.spec.cells() as f64 / req_speed;
                let benefit = holder_eta - req_eta;
                (benefit > 0.0).then_some((t, holder, benefit))
            })
            .max_by(|a, b| a.2.partial_cmp(&b.2).expect("benefit is finite"))
            .map(|(t, holder, _)| (t, holder))
    }

    fn batch_for(&mut self, pe: PeId) -> usize {
        if self.config.policy.is_static() {
            if self.quotas.is_none() {
                let static_speeds: Vec<f64> =
                    self.pes.iter().map(|p| p.stats.static_gcups).collect();
                self.quotas = Some(
                    self.config
                        .policy
                        .static_quotas(self.pool.len(), &static_speeds),
                );
            }
            return self.quotas.as_ref().expect("just computed")[pe];
        }
        // "In the first allocation, the master assigns one work unit for
        // each slave" (§I): until a PE has reported real progress, PSS
        // behaves like SS for it. The static prior only seeds the speed
        // estimate other PEs' Φ is computed against.
        if !self.pes[pe].stats.has_observations() {
            return 1;
        }
        // A reconnecting or late-joining PE re-enters the Ω window with
        // only its static prior. Until its first real measurement lands,
        // that prior is the `min_alive` candidate every other PE's Φ is
        // divided by — a mis-stated prior would briefly hand the whole
        // fleet mis-calibrated batches. Clamp everyone to the SS grain for
        // that interval; the cold-start case (initial registrations) keeps
        // the paper's behaviour, where priors are what Φ is *for*.
        if self
            .pes
            .iter()
            .any(|p| p.alive && p.late_join && !p.stats.has_observations())
        {
            return 1;
        }
        let speeds = self.speed_estimates();
        let alive: Vec<bool> = self.pes.iter().map(|p| p.alive).collect();
        self.config.policy.batch_size(pe, &speeds, &alive)
    }

    /// The executing task with the largest estimated remaining work that
    /// `pe` is not already involved in.
    fn replication_candidate(&self, pe: PeId, now: f64) -> Option<TaskId> {
        self.pool
            .executing_ids()
            .filter(|&t| !self.pool.get(t).executors.contains(&pe))
            .map(|t| (t, self.estimated_remaining_cells(t, now)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("remaining is finite"))
            .filter(|&(_, remaining)| remaining > 0.0)
            .map(|(t, _)| t)
    }

    /// Estimated cells still to compute for an executing task: the minimum
    /// over its executors of `cells − speed × elapsed` (a task assigned but
    /// not started counts as entirely remaining).
    pub fn estimated_remaining_cells(&self, task: TaskId, now: f64) -> f64 {
        if self.pool.state(task) != TaskState::Executing {
            return 0.0;
        }
        let t = self.pool.get(task);
        let cells = t.spec.cells() as f64;
        t.executors
            .iter()
            .map(|&pe| match self.pes[pe].running.get(&task) {
                Some(&start) => {
                    let speed = self.pes[pe].stats.weighted_mean_gcups() * 1e9;
                    (cells - speed * (now - start)).max(0.0)
                }
                None => cells, // assigned, not yet started
            })
            .fold(cells, f64::min)
    }

    /// A PE reports that it has *started* executing a task.
    pub fn task_started(&mut self, pe: PeId, task: TaskId, now: f64) {
        self.clock = self.clock.max(now);
        self.pes[pe].running.insert(task, now);
        self.emit(EventKind::TaskStarted { pe, task });
    }

    /// A PE reports a periodic progress notification (observed GCUPS since
    /// the previous notification).
    pub fn notify_progress(&mut self, pe: PeId, now: f64, gcups: f64) {
        self.clock = self.clock.max(now);
        self.pes[pe].stats.observe(gcups);
    }

    /// A PE reports task completion. `measured_gcups` is the implicit speed
    /// information of the request/response cycle. Returns the PEs whose
    /// replicas of this task must be cancelled (empty if the task was
    /// already finished by someone else — the caller should then discard
    /// this PE's result).
    pub fn task_finished(
        &mut self,
        pe: PeId,
        task: TaskId,
        now: f64,
        measured_gcups: Option<f64>,
    ) -> Vec<PeId> {
        self.clock = self.clock.max(now);
        self.pes[pe].running.remove(&task);
        if let Some(g) = measured_gcups {
            self.pes[pe].stats.observe(g);
        }
        let winner = self.pool.state(task) != TaskState::Finished;
        let cancels = self.pool.finish(task, pe);
        self.emit(EventKind::TaskFinished {
            pe,
            task,
            winner,
            measured_gcups: measured_gcups.unwrap_or(f64::NAN),
        });
        for &other in &cancels {
            // Estimate the duplicated work the cancelled replica had done:
            // its speed estimate × its time on the task, capped at the task
            // size. Computed before the running entry is dropped.
            let wasted_cells = match self.pes[other].running.get(&task) {
                Some(&start) => {
                    let speed = self.pes[other].stats.weighted_mean_gcups() * 1e9;
                    let task_cells = self.pool.get(task).spec.cells();
                    (speed * (now - start)).max(0.0).min(task_cells as f64) as u64
                }
                None => 0, // assigned but never started: nothing computed
            };
            self.pes[other].running.remove(&task);
            self.emit(EventKind::ReplicaCancelled {
                pe: other,
                task,
                wasted_cells,
            });
        }
        if self.pool.all_finished() && !self.run_completed_emitted {
            self.run_completed_emitted = true;
            self.emit(EventKind::RunCompleted);
        }
        // An engine that outlives its workloads must not keep in memory
        // each task it ever finished.
        if self.keep_alive {
            self.pool.forget_finished_prefix();
        }
        cancels
    }

    /// A PE leaves the platform (membership extension): its held tasks —
    /// running or queued — are handed back so they return to ready unless a
    /// replica survives elsewhere.
    pub fn pe_leaves(&mut self, pe: PeId, held: &[TaskId]) {
        self.pes[pe].alive = false;
        self.pes[pe].running.clear();
        self.emit(EventKind::PeLeft { pe });
        for &t in held {
            let was_executing = self.pool.find(t).is_some_and(|held| {
                held.state == TaskState::Executing && held.executors.contains(&pe)
            });
            self.pool.release(t, pe);
            // Requeued only when no surviving replica kept it executing.
            if was_executing && self.pool.state(t) == TaskState::Ready {
                self.emit(EventKind::TaskRequeued { task: t, from: pe });
            }
        }
    }

    /// A late PE joins (membership extension). `now` stamps the
    /// [`EventKind::PeJoined`] event (joins can happen while the engine is
    /// otherwise idle, so the clock may not have advanced on its own).
    pub fn pe_joins(&mut self, name: impl Into<String>, static_gcups: f64, now: f64) -> PeId {
        self.clock = self.clock.max(now);
        let id = self.pes.len();
        let name = name.into();
        self.emit(EventKind::PeJoined {
            pe: id,
            name: name.clone(),
        });
        self.pes.push(PeInfo {
            name,
            stats: PeSpeedStats::new(static_gcups, self.config.policy.omega()),
            alive: true,
            late_join: true,
            running: HashMap::new(),
        });
        if let Some(quotas) = &mut self.quotas {
            quotas.push(0); // static policies give latecomers nothing
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_starts_near_zero() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(a >= 0.0 && b >= a);
        assert!(a < 60.0, "epoch should be construction time");
    }

    #[test]
    fn virtual_clock_advances_and_never_rewinds() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance_to(3.5);
        assert_eq!(c.now(), 3.5);
        c.advance_to(1.0); // stale event stamps must not rewind time
        assert_eq!(c.now(), 3.5);
        c.advance_to(3.5);
        assert_eq!(c.now(), 3.5);
    }

    #[test]
    fn scheduler_runs_a_minimal_workload_under_a_virtual_clock() {
        let spec = TaskSpec {
            id: 0,
            query_len: 100,
            queries: 1,
            db_residues: 1_000_000,
            db_sequences: 100,
        };
        let mut s = Scheduler::new(vec![spec], MasterConfig::default());
        let pe = s.register("pe0", 1.0);
        let clock = VirtualClock::new();
        assert_eq!(s.request(pe, clock.now()), Assignment::Tasks(vec![0]));
        s.task_started(pe, 0, clock.now());
        clock.advance_to(1.0);
        assert!(s.task_finished(pe, 0, clock.now(), Some(1.0)).is_empty());
        assert_eq!(s.request(pe, clock.now()), Assignment::Done);
    }

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|id| TaskSpec {
                id,
                query_len: 1000,
                queries: 1,
                db_residues: 1_000_000_000,
                db_sequences: 10_000,
            })
            .collect()
    }

    fn engine(n_tasks: usize, policy: Policy, adjustment: bool) -> Scheduler {
        Scheduler::new(
            specs(n_tasks),
            MasterConfig {
                policy,
                adjustment,
                dispatch: Default::default(),
            },
        )
    }

    /// Collect `m`'s event stream from here on.
    fn tap(m: &mut Scheduler) -> std::sync::Arc<std::sync::Mutex<Vec<RuntimeEvent>>> {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        m.set_event_sink(move |e| sink.lock().unwrap().push(e.clone()));
        seen
    }

    #[test]
    fn ss_hands_one_task_per_request() {
        let mut m = engine(3, Policy::SelfScheduling, true);
        let a = m.register("pe0", 1.0);
        assert_eq!(m.request(a, 0.0), Assignment::Tasks(vec![0]));
        assert_eq!(m.request(a, 0.0), Assignment::Tasks(vec![1]));
    }

    #[test]
    fn pss_first_allocation_is_one_then_adapts() {
        let mut m = engine(20, Policy::pss_default(), true);
        let gpu = m.register("gpu0", 30.0);
        let sse = m.register("sse0", 3.0);
        // "In the first allocation, the master assigns one work unit for
        // each slave" — regardless of priors.
        assert_eq!(m.request(gpu, 0.0), Assignment::Tasks(vec![0]));
        assert_eq!(m.request(sse, 0.0), Assignment::Tasks(vec![1]));
        // The GPU reports completion: observed 30 GCUPS vs the SSE's 3.0
        // prior → Φ = 10.
        m.task_finished(gpu, 0, 1.0, Some(30.0));
        match m.request(gpu, 1.0) {
            Assignment::Tasks(t) => assert_eq!(t.len(), 10),
            other => panic!("{other:?}"),
        }
        // Observations can also overturn the prior downwards.
        m.notify_progress(sse, 2.0, 40.0); // the "SSE" is actually fast
        match m.request(sse, 2.0) {
            Assignment::Tasks(t) => assert_eq!(t.len(), 1), // 40/30 rounds to 1
            other => panic!("{other:?}"),
        }
    }

    /// Regression: a PE that joins (or reconnects) mid-run re-enters the
    /// Ω window with only its static prior. That prior is a `min_alive`
    /// candidate, so before the clamp a wildly wrong one would hand every
    /// *other* PE a mis-calibrated Φ batch until the joiner's first real
    /// measurement landed. The fleet must instead drop to the SS grain
    /// for exactly that interval.
    #[test]
    fn late_join_clamps_fleet_to_ss_until_first_measurement() {
        let mut m = engine(40, Policy::pss_default(), true);
        let gpu = m.register("gpu0", 30.0);
        let sse = m.register("sse0", 3.0);
        assert_eq!(m.request(gpu, 0.0), Assignment::Tasks(vec![0]));
        assert_eq!(m.request(sse, 0.0), Assignment::Tasks(vec![1]));
        m.task_finished(gpu, 0, 1.0, Some(30.0));
        m.task_finished(sse, 1, 1.0, Some(3.0));
        // Calibrated fleet: Φ = round(30/3) = 10 for the GPU.
        let batch = match m.request(gpu, 1.0) {
            Assignment::Tasks(t) => {
                assert_eq!(t.len(), 10);
                t
            }
            other => panic!("{other:?}"),
        };
        for t in batch {
            m.task_finished(gpu, t, 1.5, Some(30.0));
        }
        // A PE joins mid-run with a wildly wrong (tiny) static prior.
        // Unclamped, min_alive = 0.05 and the GPU's next Φ would be
        // round(30/0.05) = 600 — the whole fleet must clamp to SS instead.
        let joiner = m.pe_joins("joiner", 0.05, 2.0);
        match m.request(gpu, 2.0) {
            Assignment::Tasks(t) => assert_eq!(
                t.len(),
                1,
                "fleet must hold the SS grain while the joiner is unobserved"
            ),
            other => panic!("{other:?}"),
        }
        // The joiner itself starts on the first-allocation rule.
        let t_joiner = match m.request(joiner, 2.0) {
            Assignment::Tasks(t) => {
                assert_eq!(t.len(), 1);
                t[0]
            }
            other => panic!("{other:?}"),
        };
        // Its first real measurement replaces the prior in the Ω window
        // and lifts the clamp: Φ resumes against measured speeds only
        // (min_alive is the SSE's observed 3.0, not the joiner's prior).
        m.task_finished(joiner, t_joiner, 3.0, Some(5.0));
        match m.request(gpu, 3.0) {
            Assignment::Tasks(t) => assert_eq!(t.len(), 10),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn adjustment_replicates_when_ready_drains() {
        let mut m = engine(2, Policy::SelfScheduling, true);
        let a = m.register("a", 1.0);
        let b = m.register("b", 1.0);
        assert_eq!(m.request(a, 0.0), Assignment::Tasks(vec![0]));
        assert_eq!(m.request(b, 0.0), Assignment::Tasks(vec![1]));
        m.task_started(a, 0, 0.0);
        m.task_started(b, 1, 0.0);
        // a finishes its task and asks again: only b's task is executing.
        assert!(m.task_finished(a, 0, 5.0, Some(1.0)).is_empty());
        assert_eq!(m.request(a, 5.0), Assignment::Replicate(1));
        // b's task now has two executors; when b finishes first, a must be
        // cancelled.
        m.task_started(a, 1, 5.0);
        let cancels = m.task_finished(b, 1, 6.0, Some(1.0));
        assert_eq!(cancels, vec![a]);
        assert!(m.all_finished());
        assert_eq!(m.request(a, 6.0), Assignment::Done);
    }

    #[test]
    fn no_adjustment_means_wait() {
        let mut m = engine(2, Policy::SelfScheduling, false);
        let a = m.register("a", 1.0);
        let b = m.register("b", 1.0);
        m.request(a, 0.0);
        m.request(b, 0.0);
        m.task_finished(a, 0, 5.0, None);
        assert_eq!(m.request(a, 5.0), Assignment::Wait);
    }

    #[test]
    fn replication_never_duplicates_onto_same_pe() {
        let mut m = engine(1, Policy::SelfScheduling, true);
        let a = m.register("a", 1.0);
        assert_eq!(m.request(a, 0.0), Assignment::Tasks(vec![0]));
        m.task_started(a, 0, 0.0);
        // a itself asks again — it cannot replicate its own task.
        assert_eq!(m.request(a, 1.0), Assignment::Wait);
    }

    #[test]
    fn replication_prefers_larger_remaining_work() {
        let mut m = engine(2, Policy::SelfScheduling, true);
        let a = m.register("a", 1.0);
        let b = m.register("b", 1.0);
        let c = m.register("c", 1.0);
        m.request(a, 0.0);
        m.request(b, 0.0);
        m.task_started(a, 0, 0.0);
        // b starts later, so more of task 1 remains at t=400.
        m.task_started(b, 1, 300.0);
        match m.request(c, 400.0) {
            Assignment::Replicate(t) => assert_eq!(t, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unstarted_batch_entries_are_stolen_when_beneficial() {
        let mut m = engine(3, Policy::Pss { omega: 3 }, true);
        let a = m.register("a", 3.0);
        let b = m.register("b", 2.0);
        // First allocation: one task. a completes it, reporting 3 GCUPS.
        assert_eq!(m.request(a, 0.0), Assignment::Tasks(vec![0]));
        m.task_started(a, 0, 0.0);
        m.task_finished(a, 0, 333.0, Some(3.0));
        // Φ = round(3/2) = 2: a takes the remaining two tasks as a batch
        // and starts the first.
        match m.request(a, 333.0) {
            Assignment::Tasks(t) => assert_eq!(t, vec![1, 2]),
            other => panic!("{other:?}"),
        }
        m.task_started(a, 1, 333.0);
        // a's backlog ≈ 2 tasks at 3 GCUPS (ETA ≈ 667 s); b at 2 GCUPS
        // would finish task 2 in 500 s → the takeover is beneficial and no
        // work is lost.
        match m.request(b, 333.0) {
            Assignment::Steal { task, from } => {
                assert_eq!(task, 2);
                assert_eq!(from, a);
                // The stolen task now belongs to b alone.
                assert_eq!(m.pool().get(task).executors, vec![b]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn harmful_takeover_degrades_to_replication() {
        // A very slow idle PE must NOT move a big task off a fast PE's
        // queue — it replicates instead, so the fast PE still gets to run
        // the original.
        let mut m = engine(3, Policy::Pss { omega: 3 }, true);
        let fast = m.register("fast", 30.0);
        let slow = m.register("slow", 1.0);
        m.notify_progress(fast, 0.0, 30.0);
        match m.request(fast, 0.0) {
            Assignment::Tasks(t) => assert_eq!(t, vec![0, 1, 2]),
            other => panic!("{other:?}"),
        }
        m.task_started(fast, 0, 0.0);
        match m.request(slow, 0.0) {
            Assignment::Replicate(t) => {
                assert!(t == 1 || t == 2);
                // The fast PE still holds the task.
                assert!(m.pool().get(t).executors.contains(&fast));
            }
            other => panic!("expected replication, got {other:?}"),
        }
    }

    #[test]
    fn fixed_policy_splits_upfront_and_stops() {
        let mut m = engine(4, Policy::Fixed, false);
        let a = m.register("a", 30.0);
        let b = m.register("b", 1.0);
        match m.request(a, 0.0) {
            Assignment::Tasks(t) => assert_eq!(t.len(), 2),
            other => panic!("{other:?}"),
        }
        match m.request(b, 0.0) {
            Assignment::Tasks(t) => assert_eq!(t.len(), 2),
            other => panic!("{other:?}"),
        }
        // Quotas exhausted.
        assert_eq!(m.request(a, 1.0), Assignment::Wait);
    }

    #[test]
    fn wfixed_policy_splits_by_static_speed() {
        let mut m = engine(11, Policy::WFixed, false);
        let a = m.register("gpu", 30.0);
        let b = m.register("sse", 3.0);
        let got_a = match m.request(a, 0.0) {
            Assignment::Tasks(t) => t.len(),
            other => panic!("{other:?}"),
        };
        let got_b = match m.request(b, 0.0) {
            Assignment::Tasks(t) => t.len(),
            other => panic!("{other:?}"),
        };
        assert_eq!(got_a + got_b, 11);
        assert_eq!(got_a, 10);
        assert_eq!(got_b, 1);
    }

    #[test]
    fn late_finisher_result_is_discarded() {
        let mut m = engine(1, Policy::SelfScheduling, true);
        let a = m.register("a", 1.0);
        let b = m.register("b", 1.0);
        m.request(a, 0.0);
        m.task_started(a, 0, 0.0);
        assert_eq!(m.request(b, 0.1), Assignment::Replicate(0));
        m.task_started(b, 0, 0.1);
        let cancels = m.task_finished(b, 0, 1.0, None);
        assert_eq!(cancels, vec![a]);
        // a crosses the line later: empty cancel list signals "discard".
        assert!(m.task_finished(a, 0, 1.1, None).is_empty());
    }

    #[test]
    fn leave_returns_tasks_to_ready() {
        let mut m = engine(2, Policy::Pss { omega: 3 }, true);
        let a = m.register("a", 2.0);
        let b = m.register("b", 1.0);
        m.notify_progress(a, 0.0, 2.0);
        match m.request(a, 0.0) {
            Assignment::Tasks(t) => assert_eq!(t, vec![0, 1]),
            other => panic!("{other:?}"),
        }
        m.task_started(a, 0, 0.0);
        m.pe_leaves(a, &[0, 1]);
        // Both tasks are ready again; b picks them up.
        match m.request(b, 1.0) {
            Assignment::Tasks(t) => assert!(!t.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_mid_run_participates() {
        let mut m = engine(3, Policy::SelfScheduling, true);
        let a = m.register("a", 1.0);
        m.request(a, 0.0);
        let late = m.pe_joins("late", 5.0, 1.0);
        match m.request(late, 1.0) {
            Assignment::Tasks(t) => assert_eq!(t, vec![1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "register before the first request")]
    fn static_policy_registration_after_request_rejected() {
        let mut m = engine(4, Policy::Fixed, false);
        let a = m.register("a", 1.0);
        m.request(a, 0.0);
        m.register("b", 1.0);
    }

    #[test]
    fn event_stream_records_the_full_run() {
        use crate::trace::EventKind as E;
        let mut m = engine(2, Policy::SelfScheduling, true);
        let events = tap(&mut m);
        let a = m.register("a", 1.0);
        let b = m.register("b", 1.0);
        m.request(a, 0.0);
        m.request(b, 0.0);
        m.task_started(a, 0, 0.0);
        m.task_started(b, 1, 0.0);
        m.task_finished(a, 0, 5.0, Some(1.0));
        assert_eq!(m.request(a, 5.0), Assignment::Replicate(1));
        m.task_started(a, 1, 5.0);
        m.task_finished(b, 1, 6.0, Some(1.0));
        let events = events.lock().unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            vec![
                "pe_registered",
                "pe_registered",
                "tasks_assigned",
                "tasks_assigned",
                "task_started",
                "task_started",
                "task_finished",
                "task_replicated",
                "task_started",
                "task_finished",
                "replica_cancelled",
                "run_completed",
            ]
        );
        // The replica a ran for 1 s at ~1 GCUPS: its wasted work is counted.
        let wasted = events.iter().find_map(|e| match e.kind {
            E::ReplicaCancelled { wasted_cells, .. } => Some(wasted_cells),
            _ => None,
        });
        assert!(wasted.unwrap() > 0);
    }

    #[test]
    fn keep_alive_waits_across_batches_and_replays_completion() {
        use crate::trace::EventKind as E;
        let mut m = engine(1, Policy::SelfScheduling, true);
        let events = tap(&mut m);
        m.set_keep_alive(true);
        let a = m.register("a", 1.0);
        assert_eq!(m.request(a, 0.0), Assignment::Tasks(vec![0]));
        m.task_started(a, 0, 0.0);
        m.task_finished(a, 0, 1.0, Some(1.0));
        assert!(m.all_finished());
        // Drained but kept alive: the PE idles instead of exiting.
        assert_eq!(m.request(a, 1.0), Assignment::Wait);
        // A second batch arrives and is scheduled like any other work.
        let ids = m.submit_tasks(specs(2));
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(m.request(a, 2.0), Assignment::Tasks(vec![1]));
        m.task_started(a, 1, 2.0);
        m.task_finished(a, 1, 3.0, Some(1.0));
        assert_eq!(m.request(a, 3.0), Assignment::Tasks(vec![2]));
        m.task_started(a, 2, 3.0);
        m.task_finished(a, 2, 4.0, Some(1.0));
        // Each drain emits its own run_completed.
        let completions = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e.kind, E::RunCompleted))
            .count();
        assert_eq!(completions, 2);
        // Shutdown: clearing keep-alive lets the PE exit.
        m.set_keep_alive(false);
        assert_eq!(m.request(a, 5.0), Assignment::Done);
    }

    /// Regression: a daemon's engine kept every task it had ever finished,
    /// so its memory grew with its age. The adjustment decisions read the
    /// pool's executing and per-PE indexes, which never hold a finished
    /// task; forgetting the finished prefix is what bounds the memory.
    #[test]
    fn a_keep_alive_engine_holds_only_the_tasks_in_flight() {
        let mut m = engine(0, Policy::SelfScheduling, true);
        m.set_keep_alive(true);
        let a = m.register("a", 1.0);
        let b = m.register("b", 1.0);
        for round in 0..10_000 {
            let now = round as f64;
            // The daemon's shape: one query, two shard tasks.
            let tasks = m.submit_tasks(specs(2));
            assert_eq!(m.request(a, now), Assignment::Tasks(vec![tasks[0]]));
            assert_eq!(m.request(b, now), Assignment::Tasks(vec![tasks[1]]));
            m.task_started(a, tasks[0], now);
            m.task_started(b, tasks[1], now);
            m.task_finished(b, tasks[1], now + 0.25, Some(1.0));
            assert_eq!(m.pool().live(), 2, "the unfinished shard holds the window");
            // b asks again with nothing ready: the adjustment weighs one
            // live task, however many the engine has finished.
            assert_eq!(m.request(b, now + 0.25), Assignment::Replicate(tasks[0]));
            m.task_finished(a, tasks[0], now + 0.5, Some(1.0));
            assert_eq!(m.pool().live(), 0);
        }
        assert_eq!(m.pool().len(), 20_000, "ids are issued once, for ever");
        // Questions about a forgotten id answer "finished".
        assert_eq!(m.pool().state(0), TaskState::Finished);
        assert_eq!(m.estimated_remaining_cells(0, 1e4), 0.0);
        assert!(m.task_finished(b, 0, 1e4, Some(1.0)).is_empty());
        assert_eq!(m.request(a, 1e4), Assignment::Wait);
    }

    #[test]
    #[should_panic(expected = "dynamic policy")]
    fn static_policy_rejects_multi_batch() {
        let mut m = engine(2, Policy::Fixed, false);
        m.register("a", 1.0);
        m.submit_tasks(specs(1));
    }

    #[test]
    fn leave_emits_requeue_only_for_returned_tasks() {
        use crate::trace::EventKind as E;
        let mut m = engine(2, Policy::Pss { omega: 3 }, true);
        let events = tap(&mut m);
        // Φ(a) = round(1.8/1.0) = 2, so a takes both tasks — yet b would
        // still finish the unstarted one before a's two-task backlog drains,
        // so the takeover is beneficial.
        let a = m.register("a", 1.8);
        let b = m.register("b", 1.0);
        m.notify_progress(a, 0.0, 1.8);
        m.request(a, 0.0); // a takes both tasks
        m.task_started(a, 0, 0.0);
        assert_eq!(m.request(b, 0.1), Assignment::Steal { task: 1, from: a });
        m.task_started(b, 1, 0.1);
        // a dies holding task 0 (task 1 was stolen away already).
        m.pe_leaves(a, &[0]);
        let requeued: Vec<_> = events
            .lock()
            .unwrap()
            .iter()
            .filter_map(|e| match e.kind {
                E::TaskRequeued { task, from } => Some((task, from)),
                _ => None,
            })
            .collect();
        assert_eq!(requeued, vec![(0, a)]);
    }
}
