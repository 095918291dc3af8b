//! The one pool-drive loop shared by every real runtime.
//!
//! The paper's task environment is a single master scheduling a *hybrid*
//! pool of PEs (Fig. 1). This module is that master for every driver that
//! runs in real time: one [`PePool`] (the [`Scheduler`] plus membership
//! bookkeeping behind a [`WaitHub`]) and one [`drive`] loop, with the
//! *transport* abstracted behind [`PeEndpoint`]. A local worker thread
//! ([`LocalEndpoint`]) and a remote TCP slave session
//! (`net::serve_slaves`) are two endpoint implementations feeding the
//! same engine with identical event/stat flow: `RuntimeEvent`s,
//! `KernelStats`, each finished task's observed speed, replication/steal,
//! and liveness-driven requeue.
//!
//! Beside the one drive loop sits the one compute step,
//! [`PeExecutor::scan`]: what every PE — daemon worker, slave,
//! local-fleet thread, the one-shot `search`'s PEs — does with each
//! task it is given, one database pass per task. Which queries share a
//! task is decided where tasks are made, by one rule ([`fuses`]).
//!
//! What a runtime still chooses is what happens to a finished task's
//! result: that is the [`PoolOwner`] — a batch run (`master`, `search`)
//! collects the hits of the tasks its caller made ([`BatchOwner`]), the
//! persistent daemon shards queries and fires completions. Every owner
//! describes each of its tasks the same way, as a
//! [`TaskPayload`] (query residues, shard, depth), and names the one
//! [`Identity`] (database and scoring) a PE must hold to run them — so a
//! slave needs nothing but the database, whichever driver it serves.
//!
//! Locking discipline: the pool's [`WaitHub`] guards the master *and* the
//! owner. Any mutation that can unblock a parked PE notifies the hub;
//! waiters re-check their predicate in a loop. Owner callbacks run under
//! the lock and must stay short — slow work (completion callbacks, socket
//! writes) is returned as a [`Deferred`] closure and run off-lock.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sched::{Assignment, Clock, Scheduler, WallClock};
use crate::shared::{HubGuard, WaitHub};
use crate::stats::observed_gcups;
use crate::task::{PeId, TaskId, TaskState};
use crate::trace::EventKind;
use swhybrid_align::scoring::Scoring;
use swhybrid_device::fleet::FleetPe;
use swhybrid_device::task::{Device, TaskSpec};
use swhybrid_seq::digest::Fnv1a;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::DbSnapshot;
use swhybrid_simd::engine::{EnginePreference, KernelStats, PreparedQuery};
use swhybrid_simd::exec::{chunk_floor, materialize_hits, ShardExecutor, ShardPlan};
use swhybrid_simd::search::{Hit, KernelChoice};

/// Hits kept per query by the batch master's tasks ([`query_tasks`]) —
/// the one depth of the paper's grain. The payloads carry it, so a slave
/// answers at this depth whatever it was started with; `master --top` only
/// sets how many merged rows are printed.
pub const BATCH_TOP_N: usize = 10;

/// The paper's grain, the batch master's tasks: task *t* is query *t*
/// against the whole of `db` at [`BATCH_TOP_N`].
pub fn query_tasks(queries: &[EncodedSequence], db: &DbSnapshot) -> Vec<(Vec<usize>, TaskPayload)> {
    let task = |q: &EncodedSequence| TaskPayload {
        queries: vec![QueryPayload {
            query: q.codes.clone(),
            top_n: BATCH_TOP_N,
        }],
        shard: (0, db.len()),
    };
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| (vec![i], task(q)))
        .collect()
}

/// The one rule by which every driver charges the tasks it makes
/// ([`TaskSpec`]): its queries' summed length against the residues of its
/// `shard` of `db`, so a fused task of K queries costs K passes' cells.
pub fn task_spec(
    db: &DbSnapshot,
    shard: (usize, usize),
    query_lens: impl IntoIterator<Item = usize>,
) -> TaskSpec {
    let (query_len, queries) = query_lens
        .into_iter()
        .fold((0, 0), |(sum, n), len| (sum + len, n + 1));
    TaskSpec {
        id: 0,
        query_len,
        queries,
        db_residues: db.range_residues(shard.0..shard.1),
        db_sequences: shard.1 - shard.0,
    }
}

/// One query's share of a task's result, paired positionally with the
/// payload's [`TaskPayload::queries`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// This query's ranked hits over the task's shard.
    pub hits: Vec<Hit>,
    /// This query's kernel counters; `cells_computed` is the DP cells its
    /// passes computed.
    pub kernels: KernelStats,
}

/// What one PE produced for one task.
#[derive(Debug, Clone, Default)]
pub struct TaskResult {
    /// Observed speed of the completion. `None` means the scan was skipped
    /// (its owner no longer tracks the task) and carries no speed
    /// information — it must *not* enter the Ω-window mean (reporting `0.0`
    /// would poison PSS).
    pub gcups: Option<f64>,
    /// One entry per payload query, in payload order (the first
    /// finisher's entries win).
    pub queries: Vec<QueryResult>,
}

impl TaskResult {
    /// The task's kernel counters: its queries' merged.
    pub fn kernels(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for q in &self.queries {
            total.merge(&q.kernels);
        }
        total
    }
}

/// Most queries one fused task scores in its one database pass: a
/// `search` task or a daemon admission group ([`fuses`]).
/// On `scan_short`'s shape (64 queries of 24–96 aa, `search --threads 1`,
/// 2-vCPU AVX2 Xeon) one query per pass took 1.93 s, 4 per pass 1.29 s,
/// 8 1.15 s, 16 1.09 s and 64 1.07 s, but 64 raised peak RSS from 4.74 to
/// 5.42 MB: each query of a pass holds its profiles for the pass.
pub const FUSE_MAX: usize = 8;

/// Longest query, in residues, that may share a database pass
/// ([`fusable`]): where sharing one was measured to pay (see [`FUSE_MAX`]).
/// `Auto` scans a query of any length inter-sequence, but a pass holds
/// each of its queries' profiles and DP rows: fusing `scan_long`'s three
/// 2,100–3,100-aa queries raised peak RSS by 0.6–0.8 MB (+15–21 %).
pub const MAX_FUSABLE_QUERY: usize = 128;

/// Whether `query` may share a database pass: it is at most
/// [`MAX_FUSABLE_QUERY`] residues long.
pub fn fusable(query: &[u8]) -> bool {
    query.len() <= MAX_FUSABLE_QUERY
}

/// Whether query `next` joins a task of `members` queries headed by
/// `head`: both are [`fusable`], up to [`FUSE_MAX`] queries in all. The
/// one rule by which queries share a task, applied where tasks are made
/// (`search`'s tasks, the daemon's admission groups); a PE scans each
/// task it is given in one pass.
pub fn fuses(members: usize, head: &[u8], next: &[u8]) -> bool {
    members < FUSE_MAX && fusable(head) && fusable(next)
}

/// THE compute state of every PE — daemon worker, slave, local-fleet
/// thread, `search` shard: the scoring and the PE's [`ShardExecutor`] (its
/// kernel scratch, warm for the PE's lifetime). Every task runs through
/// [`PeExecutor::scan`] on profiles built for its pass and dropped with it
/// (a profile costs microseconds against a scan's milliseconds).
pub struct PeExecutor<'a> {
    scoring: &'a Scoring,
    shards: ShardExecutor,
}

impl<'a> PeExecutor<'a> {
    /// A PE scoring under `scoring`.
    pub fn new(scoring: &'a Scoring) -> Self {
        PeExecutor {
            scoring,
            shards: ShardExecutor::new(),
        }
    }

    /// THE compute step: every query of `task` against the task's shard
    /// of `db` in one pass, at [`chunk_floor`] with `Auto` dispatch (the
    /// floor keeps it able to fill the inter-sequence lanes). A query's
    /// hits and counters do not depend on what else rides in the pass, so
    /// a fused task's result is each query's scanned alone. The result
    /// holds per-query hits (ids from `db`, indices global) and
    /// [`KernelStats`], paired positionally with the payload's queries,
    /// and the pass's measured wall-clock GCUPS (for a modeled PE,
    /// [`PePool::task_finished`] replaces it with the device model's
    /// figure). A shard outside `db` is [`io::ErrorKind::InvalidData`].
    pub fn scan(&mut self, db: &DbSnapshot, task: &TaskPayload) -> io::Result<TaskResult> {
        let (start, end) = task.shard;
        if start > end || end > db.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard {start}..{end} exceeds the database ({} subjects)",
                    db.len()
                ),
            ));
        }
        let batch: Vec<(Arc<PreparedQuery>, usize)> = task
            .queries
            .iter()
            .map(|q| {
                let prepared = PreparedQuery::new(&q.query, self.scoring, EnginePreference::Auto);
                (Arc::new(prepared), q.top_n)
            })
            .collect();
        let t0 = Instant::now();
        let plan = ShardPlan {
            range: start..end,
            chunk_size: chunk_floor(),
            kernel: KernelChoice::Auto,
            prefetch: true,
        };
        let queries: Vec<QueryResult> = self
            .shards
            .execute(&batch, db.arena(), &plan)
            .into_iter()
            .map(|(scored, kernels)| QueryResult {
                hits: materialize_hits(&scored, |i| db.id(i).to_string()),
                kernels,
            })
            .collect();
        let cells = queries.iter().map(|q| q.kernels.cells_computed).sum();
        Ok(TaskResult {
            gcups: Some(observed_gcups(cells, t0.elapsed().as_secs_f64())),
            queries,
        })
    }
}

/// A scheduling decision delivered to an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeCommand {
    /// Tasks now at the back of the PE's run queue, in order: a batch of
    /// fresh ones, or one taken over or replicated.
    Tasks(Vec<TaskId>),
    /// The pool is drained and not keeping alive: the PE retires.
    Done,
}

/// What an endpoint reports back to the drive loop.
pub enum PeEvent {
    /// The PE is idle and wants an assignment.
    NeedWork,
    /// The PE began executing a task.
    Started(TaskId),
    /// The PE finished a task.
    Finished {
        /// The task.
        task: TaskId,
        /// What it produced.
        result: TaskResult,
    },
    /// The PE is gone (hang-up, fatal transport error, or — with
    /// `suspected_dead` — a missed liveness deadline).
    Gone {
        /// Whether this is a liveness verdict rather than an observed
        /// hang-up.
        suspected_dead: bool,
    },
}

/// Work the owner wants run *after* the pool lock is released (completion
/// callbacks, socket writes — anything slow or re-entrant).
pub type Deferred = Box<dyn FnOnce() + Send>;

/// One query of a self-describing task payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPayload {
    /// The encoded query residues.
    pub query: Vec<u8>,
    /// Hits retained for the shard, for this query.
    pub top_n: usize,
}

/// A task as every PE receives it: everything a PE that has only the
/// database needs in order to run the scan. A fused task carries the whole
/// co-resident query batch; the shard is scanned once and every query
/// scored against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPayload {
    /// The query batch (length 1 for the paper's one-query grain).
    pub queries: Vec<QueryPayload>,
    /// Database shard `[start, end)` in scan positions of the database's
    /// stable length order (`DbSnapshot::shard_ranges` cuts them); hits
    /// still report database indices.
    pub shard: (usize, usize),
}

/// What a PE must hold to take a pool's tasks: the database and the
/// scoring scheme, as one digest over both. A slave on another database,
/// or with another `--matrix` or `--gap-*`, would return hits the merge
/// must not see. The scheme is named too, so a refusal can say what the
/// pool scores with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// FNV-1a over the database digest and [`Scoring::digest`].
    pub digest: u64,
    /// The scoring scheme, as its `Display` names it.
    pub scoring: String,
}

impl Identity {
    /// The identity of `db` scored under `scoring`.
    pub fn of(db: &DbSnapshot, scoring: &Scoring) -> Identity {
        let mut h = Fnv1a::new();
        h.update(&db.digest().to_le_bytes());
        h.update(&scoring.digest().to_le_bytes());
        Identity {
            digest: h.finish(),
            scoring: scoring.to_string(),
        }
    }
}

/// What a runtime does with results — the policy half the shared loop
/// does not own.
pub trait PoolOwner: Send {
    /// A task finished on `pe`. Runs under the pool lock, after the
    /// master has been informed (`was_first` is whether this PE crossed
    /// the line first — losers' results are normally discarded). Return a
    /// [`Deferred`] to run work off-lock.
    fn on_finished(
        &mut self,
        master: &mut Scheduler,
        pe: PeId,
        task: TaskId,
        result: TaskResult,
        was_first: bool,
        now: f64,
    ) -> Option<Deferred>;

    /// What `task` asks of a PE that holds the pool's current database (a
    /// slave, a batch fleet thread): its queries, shard and depth. `None`
    /// when such a PE cannot run it (the owner no longer tracks it, or it
    /// scans a database a reload has since replaced).
    fn task_payload(&self, master: &Scheduler, task: TaskId) -> Option<TaskPayload>;

    /// The database and scoring a remote PE must prove it holds before it
    /// is admitted.
    fn identity(&self) -> &Identity;
}

/// Membership record of one admitted PE.
struct Member {
    /// No further commands will be delivered (retired or torn down).
    closed: bool,
    /// [`Scheduler::pe_leaves`] bookkeeping ran (or was deliberately skipped
    /// for a clean retirement); guards against double teardown.
    left: bool,
    /// Admitted over the wire rather than as a local thread.
    remote: bool,
    /// The device model of a modeled accelerator PE (see
    /// [`PePool::admit_fleet`]); `None` for every PE whose speed is measured.
    model: Option<Device>,
}

/// The lock-guarded heart of a pool: the master, the owner, and the
/// membership/barrier/abort state every endpoint shares.
pub struct PoolCore<S> {
    /// The scheduling state machine.
    pub master: Scheduler,
    /// The result policy.
    pub owner: S,
    members: HashMap<PeId, Member>,
    registered: usize,
    expected: usize,
    barrier_open: bool,
    alive: usize,
    abort: Option<(io::ErrorKind, String)>,
}

impl<S> PoolCore<S> {
    /// PEs registered before the barrier opened.
    pub fn registered(&self) -> usize {
        self.registered
    }

    /// Members admitted and not yet closed.
    pub fn alive(&self) -> usize {
        self.alive
    }

    /// Whether the registration barrier has opened (work may flow).
    pub fn barrier_open(&self) -> bool {
        self.barrier_open
    }

    /// Force the barrier open (degraded start after a registration
    /// timeout with at least one PE).
    pub fn open_barrier(&mut self) {
        self.barrier_open = true;
    }

    /// The pending abort, if a fatal condition was recorded.
    pub fn abort(&self) -> Option<&(io::ErrorKind, String)> {
        self.abort.as_ref()
    }

    /// Record a fatal condition: every endpoint unwinds at its next
    /// scheduling point (the caller must notify the hub).
    pub fn set_abort(&mut self, kind: io::ErrorKind, message: impl Into<String>) {
        if self.abort.is_none() {
            self.abort = Some((kind, message.into()));
        }
    }

    /// Take the pending abort (teardown).
    pub fn take_abort(&mut self) -> Option<(io::ErrorKind, String)> {
        self.abort.take()
    }

    /// Live remote members (for teardown: local threads exit via
    /// [`PeCommand::Done`], remote sessions must be disconnected).
    pub fn remote_members(&self) -> Vec<PeId> {
        let mut pes: Vec<PeId> = self
            .members
            .iter()
            .filter(|(_, m)| m.remote && !m.closed)
            .map(|(&pe, _)| pe)
            .collect();
        pes.sort_unstable();
        pes
    }

    /// Whether commands can still be delivered to `pe`.
    pub fn is_open(&self, pe: PeId) -> bool {
        self.members.get(&pe).is_some_and(|m| !m.closed)
    }

    /// Tear down a member: exactly once per PE, its held tasks return to
    /// the ready queue ([`Scheduler::pe_leaves`]). `suspected_dead` marks a
    /// liveness verdict (silence past the deadline) rather than an
    /// observed hang-up. Callable under an existing lock — the caller
    /// must notify the hub afterwards.
    pub fn disconnect(&mut self, pe: PeId, now: f64, suspected_dead: bool) {
        let Some(m) = self.members.get_mut(&pe) else {
            return;
        };
        if m.left {
            return;
        }
        m.left = true;
        m.closed = true;
        self.alive -= 1;
        if suspected_dead {
            self.master
                .record_event(now, EventKind::PeSuspectedDead { pe });
        }
        self.master.pe_leaves(pe);
    }
}

/// A master plus its membership state behind a [`WaitHub`], with one
/// wall-clock epoch — the shared substrate both transports drive. The
/// real-time counterpart of the simulator's
/// [`VirtualClock`](crate::sched::VirtualClock): both produce the `now`
/// stamps the shared scheduling engine consumes.
pub struct PePool<S> {
    hub: WaitHub<PoolCore<S>>,
    clock: WallClock,
}

/// How long a parked PE sleeps between predicate re-checks even without a
/// notification — a lost-wakeup safety net, not a scheduling latency (all
/// transitions notify the hub).
const PARK_QUANTUM: Duration = Duration::from_millis(100);

impl<S: PoolOwner> PePool<S> {
    /// New pool around `master`. The registration barrier opens once
    /// `expected` PEs have been admitted (0 opens it immediately — members
    /// then join as latecomers).
    pub fn new(master: Scheduler, owner: S, expected: usize) -> PePool<S> {
        PePool {
            hub: WaitHub::new(PoolCore {
                master,
                owner,
                members: HashMap::new(),
                registered: 0,
                expected,
                barrier_open: expected == 0,
                alive: 0,
                abort: None,
            }),
            clock: WallClock::new(),
        }
    }

    /// Seconds since the pool was created — the `now` of every master
    /// call and event timestamp.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Lock the core (master + owner + membership).
    pub fn lock(&self) -> HubGuard<'_, PoolCore<S>> {
        self.hub.lock()
    }

    /// Wake every parked endpoint to re-check its predicate.
    pub fn notify_all(&self) {
        self.hub.notify_all();
    }

    /// Park on the hub until notified (see [`WaitHub::wait`]).
    pub fn wait<'a>(&'a self, guard: HubGuard<'a, PoolCore<S>>) -> HubGuard<'a, PoolCore<S>> {
        self.hub.wait(guard)
    }

    /// Park with an upper bound, for waiters that also watch a deadline.
    pub fn wait_timeout<'a>(
        &'a self,
        guard: HubGuard<'a, PoolCore<S>>,
        timeout: Duration,
    ) -> HubGuard<'a, PoolCore<S>> {
        self.hub.wait_timeout(guard, timeout)
    }

    /// Consume the pool (after every endpoint has unwound).
    pub fn into_inner(self) -> PoolCore<S> {
        self.hub.into_inner()
    }

    /// Admit a PE: before the barrier opens it registers (and may open the
    /// barrier); afterwards it joins as a latecomer. Non-finite or
    /// non-positive speed priors are clamped to the smallest positive
    /// value rather than rejected (a misreported prior must not crash the
    /// pool — PSS replaces it with observations anyway).
    pub fn admit(&self, name: &str, static_gcups: f64, remote: bool) -> PeId {
        self.admit_member(name, static_gcups, remote, None)
    }

    /// Admit a local fleet member. A modeled accelerator computes real
    /// scores on a host thread like any PE, but every completion of its is
    /// attributed its device model's GCUPS (see [`PePool::task_finished`]).
    pub fn admit_fleet(&self, member: &FleetPe) -> PeId {
        let model = member.model.clone();
        self.admit_member(&member.name, member.static_gcups, false, model)
    }

    fn admit_member(
        &self,
        name: &str,
        static_gcups: f64,
        remote: bool,
        model: Option<Device>,
    ) -> PeId {
        let gcups = if static_gcups.is_finite() && static_gcups > 0.0 {
            static_gcups
        } else {
            f64::MIN_POSITIVE
        };
        let mut g = self.lock();
        let pe = if g.barrier_open {
            let now = self.now();
            g.master.pe_joins(name, gcups, now)
        } else {
            let pe = g.master.register(name, gcups);
            g.registered += 1;
            if g.registered >= g.expected {
                g.barrier_open = true;
            }
            pe
        };
        g.alive += 1;
        g.members.insert(
            pe,
            Member {
                closed: false,
                left: false,
                remote,
                model,
            },
        );
        drop(g);
        self.notify_all();
        pe
    }

    /// Tear down a member (see [`PoolCore::disconnect`]) and wake the
    /// pool so requeued tasks are picked up immediately.
    pub fn disconnect(&self, pe: PeId, suspected_dead: bool) {
        let now = self.now();
        let mut g = self.lock();
        g.disconnect(pe, now, suspected_dead);
        drop(g);
        self.notify_all();
    }

    /// What `task` asks of a PE (see [`PoolOwner::task_payload`]).
    pub fn payload(&self, task: TaskId) -> Option<TaskPayload> {
        let g = self.lock();
        g.owner.task_payload(&g.master, task)
    }

    /// Record a task start. Returns `false` — the caller must tear the PE
    /// down — when the task id is out of bounds (a corrupt or stale
    /// report from a remote).
    pub fn task_started(&self, pe: PeId, task: TaskId) -> bool {
        let mut g = self.lock();
        if task >= g.master.pool().len() {
            return false;
        }
        let now = self.now();
        g.master.task_started(pe, task, now);
        drop(g);
        self.notify_all();
        true
    }

    /// Record a task completion: informs the master (stamping
    /// `TaskKernels` for the first finisher), hands the result to the
    /// owner, then runs any deferred work off-lock. Returns `false` on an
    /// out-of-bounds task id.
    ///
    /// This is the one place that knows both the PE and the task's spec,
    /// so it is where a modeled PE's measured speed is replaced by
    /// `model.task_gcups(spec)`: the scheduler's Ω window then sees e.g.
    /// GTX-580 throughput, while the scan — and so the result — is the
    /// host's. A completion without a speed (a skipped scan) stays so.
    pub fn task_finished(&self, pe: PeId, task: TaskId, mut result: TaskResult) -> bool {
        let deferred = {
            let mut g = self.lock();
            if task >= g.master.pool().len() {
                return false;
            }
            let model = g.members.get(&pe).and_then(|m| m.model.as_ref());
            if let (Some(model), Some(_)) = (model, result.gcups) {
                // A replica that lost so long ago that its task is forgotten
                // has no spec left to model: it reports no speed.
                let held = g.master.pool().find(task);
                result.gcups = held.map(|t| model.task_gcups(&t.spec));
            }
            let now = self.now();
            let was_first = g.master.pool().state(task) != TaskState::Finished;
            g.master.task_finished(pe, task, now, result.gcups);
            if was_first && result.gcups.is_some() {
                let kernels = result.kernels();
                g.master
                    .record_event(now, EventKind::TaskKernels { pe, task, kernels });
            }
            // Split the borrow so the owner can see the master.
            let core = &mut *g;
            core.owner
                .on_finished(&mut core.master, pe, task, result, was_first, now)
        };
        self.notify_all();
        if let Some(run) = deferred {
            run();
        }
        true
    }

    /// Long-poll the master for `pe`'s next command: parks on the hub
    /// through `Wait`, returns `None` when the pool aborted or the member
    /// was torn down concurrently. `Done` retires the member cleanly (no
    /// requeue, no `pe_left` event — it finished its service).
    pub fn next_assignment(&self, pe: PeId) -> Option<PeCommand> {
        let mut g = self.lock();
        loop {
            if g.abort.is_some() || !g.is_open(pe) {
                return None;
            }
            if g.barrier_open {
                let now = self.now();
                let cmd = match g.master.request(pe, now) {
                    Assignment::Tasks(tasks) => Some(PeCommand::Tasks(tasks)),
                    Assignment::Steal { task, .. } | Assignment::Replicate(task) => {
                        Some(PeCommand::Tasks(vec![task]))
                    }
                    Assignment::Done => {
                        let m = g.members.get_mut(&pe).expect("member admitted");
                        m.closed = true;
                        m.left = true;
                        g.alive -= 1;
                        Some(PeCommand::Done)
                    }
                    Assignment::Wait => None,
                };
                if cmd.is_some() {
                    drop(g);
                    self.notify_all();
                    return cmd;
                }
            }
            g = self.wait_timeout(g, PARK_QUANTUM);
        }
    }
}

/// One PE's transport: where commands go and events come from. The drive
/// loop is transport-agnostic; this is the only surface a new backend
/// (another wire protocol, an accelerator offload queue) must implement.
pub trait PeEndpoint<S: PoolOwner> {
    /// Block until the PE has something to report.
    fn next_event(&mut self, pool: &PePool<S>, pe: PeId) -> PeEvent;

    /// Deliver a scheduling decision to the PE. An error tears the PE
    /// down (its held tasks requeue).
    fn deliver(&mut self, pool: &PePool<S>, pe: PeId, cmd: &PeCommand) -> io::Result<()>;
}

/// Drive one admitted PE until it retires, fails, or the pool aborts —
/// THE pool-drive loop. Local worker threads and TCP slave sessions run
/// exactly this function; they differ only in the endpoint.
pub fn drive<S: PoolOwner, E: PeEndpoint<S>>(pool: &PePool<S>, pe: PeId, endpoint: &mut E) {
    loop {
        match endpoint.next_event(pool, pe) {
            PeEvent::NeedWork => {
                let Some(cmd) = pool.next_assignment(pe) else {
                    return;
                };
                let retiring = cmd == PeCommand::Done;
                if endpoint.deliver(pool, pe, &cmd).is_err() {
                    pool.disconnect(pe, false);
                    return;
                }
                if retiring {
                    return;
                }
            }
            PeEvent::Started(task) => {
                if !pool.task_started(pe, task) {
                    pool.disconnect(pe, false);
                    return;
                }
            }
            PeEvent::Finished { task, result } => {
                if !pool.task_finished(pe, task, result) {
                    pool.disconnect(pe, false);
                    return;
                }
            }
            PeEvent::Gone { suspected_dead } => {
                pool.disconnect(pe, suspected_dead);
                return;
            }
        }
    }
}

/// The in-process endpoint: a closure that really computes one task. It
/// starts what the pool's run queue for its PE holds next, so a task
/// stolen or finished elsewhere while queued is never started here.
pub struct LocalEndpoint<F> {
    running: Option<TaskId>,
    execute: F,
}

impl<F: FnMut(TaskId) -> TaskResult> LocalEndpoint<F> {
    /// New endpoint around the compute closure.
    pub fn new(execute: F) -> LocalEndpoint<F> {
        LocalEndpoint {
            running: None,
            execute,
        }
    }
}

impl<S: PoolOwner, F: FnMut(TaskId) -> TaskResult> PeEndpoint<S> for LocalEndpoint<F> {
    fn next_event(&mut self, pool: &PePool<S>, pe: PeId) -> PeEvent {
        if let Some(task) = self.running.take() {
            // `Started` was reported last round; compute now, off-lock.
            let result = (self.execute)(task);
            return PeEvent::Finished { task, result };
        }
        match pool.lock().master.pool().next_queued(pe) {
            Some(task) => {
                self.running = Some(task);
                PeEvent::Started(task)
            }
            None => PeEvent::NeedWork,
        }
    }

    /// Nothing to carry: the pool already queued the tasks for this PE.
    fn deliver(&mut self, _pool: &PePool<S>, _pe: PeId, _cmd: &PeCommand) -> io::Result<()> {
        Ok(())
    }
}

/// The batch-run owner: runs the tasks its caller made, each a payload
/// and the input indices of its queries. Collects each task's winning
/// hits per query, the winner's name, and merged kernel counters (losing
/// replicas' counters are merged too — they are work the platform really
/// did).
#[derive(Debug)]
pub struct BatchOwner {
    /// `(query index, hits)` for each query of each task, from the task's
    /// first finisher, in completion order.
    pub hits: Vec<(usize, Vec<Hit>)>,
    /// For each task, the name of the PE whose result was used.
    pub completed_by: Vec<String>,
    /// Kernel counters merged across every completion.
    pub kernels: KernelStats,
    /// Kernel counters per PE (indexed by [`PeId`]).
    pub kernels_by_pe: Vec<KernelStats>,
    tasks: Vec<(Vec<usize>, TaskPayload)>,
    identity: Identity,
}

impl BatchOwner {
    /// The owner of one batch: `tasks` (task *t* is `tasks[t]`), run by
    /// PEs that hold `identity`.
    pub fn new(tasks: Vec<(Vec<usize>, TaskPayload)>, identity: Identity) -> BatchOwner {
        BatchOwner {
            hits: Vec::new(),
            completed_by: vec![String::new(); tasks.len()],
            kernels: KernelStats::default(),
            kernels_by_pe: Vec::new(),
            tasks,
            identity,
        }
    }
}

impl PoolOwner for BatchOwner {
    fn on_finished(
        &mut self,
        master: &mut Scheduler,
        pe: PeId,
        task: TaskId,
        result: TaskResult,
        was_first: bool,
        _now: f64,
    ) -> Option<Deferred> {
        let kernels = result.kernels();
        self.kernels.merge(&kernels);
        if self.kernels_by_pe.len() <= pe {
            self.kernels_by_pe.resize(pe + 1, KernelStats::default());
        }
        self.kernels_by_pe[pe].merge(&kernels);
        if let (true, Some((members, _))) = (was_first, self.tasks.get(task)) {
            let hits = result.queries.into_iter().map(|q| q.hits);
            self.hits.extend(members.iter().copied().zip(hits));
            self.completed_by[task] = master.pe_name(pe).to_string();
        }
        None
    }

    fn task_payload(&self, _master: &Scheduler, task: TaskId) -> Option<TaskPayload> {
        self.tasks.get(task).map(|(_, payload)| payload.clone())
    }

    fn identity(&self) -> &Identity {
        &self.identity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::MasterConfig;
    use crate::trace::RuntimeEvent;
    use std::sync::Mutex;

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|id| TaskSpec {
                id,
                query_len: 100,
                queries: 1,
                db_residues: 10_000,
                db_sequences: 10,
            })
            .collect()
    }

    fn scoring() -> Scoring {
        Scoring {
            matrix: swhybrid_align::scoring::SubstMatrix::blosum62(),
            gap: swhybrid_align::scoring::GapModel::Affine {
                open: 10,
                extend: 2,
            },
        }
    }

    fn protein_db(subjects: &[(&str, &[u8])]) -> DbSnapshot {
        let encoded: Vec<_> = subjects
            .iter()
            .map(|(id, residues)| {
                swhybrid_seq::sequence::EncodedSequence::from_residues(
                    *id,
                    residues,
                    swhybrid_seq::Alphabet::Protein,
                )
                .unwrap()
            })
            .collect();
        DbSnapshot::from_encoded("", &encoded)
    }

    fn task(queries: Vec<QueryPayload>, shard: (usize, usize)) -> TaskPayload {
        TaskPayload { queries, shard }
    }

    fn whole(db: &DbSnapshot, query: Vec<u8>, top_n: usize) -> TaskPayload {
        task(vec![QueryPayload { query, top_n }], (0, db.len()))
    }

    #[test]
    fn scan_finds_planted_hit_and_reports_per_query() {
        let query = b"MKVLAWCDEFGHIKLMNPQRST";
        let db = protein_db(&[("a", b"PPPPPPPPPP"), ("b", query), ("c", b"GGGGGGGG")]);
        let sc = scoring();
        let codes = swhybrid_seq::Alphabet::Protein.encode(query).unwrap();
        let mut pe = PeExecutor::new(&sc);
        let result = pe.scan(&db, &whole(&db, codes.clone(), 3)).unwrap();
        let [only] = result.queries.as_slice() else {
            panic!("one entry per payload query");
        };
        assert_eq!(only.hits[0].id, "b");
        assert!(only.hits[0].score > only.hits[1].score);
        assert_eq!(only.kernels.total(), 3);
        assert_eq!(result.kernels(), only.kernels);
        assert!(result.gcups.is_some_and(|g| g > 0.0 && g.is_finite()));
        // A shard past the database is a typed error, not a panic.
        for shard in [(0, db.len() + 1), (2, 1)] {
            let err = pe
                .scan(
                    &db,
                    &task(
                        vec![QueryPayload {
                            query: codes.clone(),
                            top_n: 3,
                        }],
                        shard,
                    ),
                )
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn a_query_batch_is_each_query_scanned_alone() {
        // A fused batch is, per query, exactly the one-query task: same
        // hits and counters, paired positionally, with the task-level
        // counters their merge.
        let db = protein_db(&[
            ("a", b"MKVLAWCDEFGHIKLMNPQRST"),
            ("b", b"WCDEFGHIKL"),
            ("c", b"GGGGGGGGAWCDEF"),
            ("d", b"PPPP"),
        ]);
        let sc = scoring();
        let queries: Vec<QueryPayload> = [&b"AWCDEFGHIK"[..], &b"MKVLGGGG"[..]]
            .iter()
            .zip([2usize, 4])
            .map(|(q, top_n)| QueryPayload {
                query: swhybrid_seq::Alphabet::Protein.encode(q).unwrap(),
                top_n,
            })
            .collect();
        let mut pe = PeExecutor::new(&sc);
        let fused = pe.scan(&db, &task(queries.clone(), (0, db.len()))).unwrap();
        assert_eq!(fused.queries.len(), 2);
        let mut kernels = KernelStats::default();
        for (q, got) in queries.iter().zip(&fused.queries) {
            let solo = pe.scan(&db, &whole(&db, q.query.clone(), q.top_n)).unwrap();
            assert_eq!(solo.queries, std::slice::from_ref(got));
            assert_eq!(got.hits.len(), q.top_n);
            kernels.merge(&got.kernels);
        }
        assert_eq!(fused.kernels(), kernels);
        // A sub-shard names scan positions and reports the database
        // indices scanned there.
        let tail = pe.scan(&db, &task(queries[..1].to_vec(), (2, 4))).unwrap();
        let tail_hits = &tail.queries[0].hits;
        let scanned: Vec<usize> = (2..4).map(|pos| db.arena().db_index(pos)).collect();
        assert!(tail_hits.iter().all(|h| scanned.contains(&h.db_index)));
        assert_eq!(tail_hits[0].id, db.id(tail_hits[0].db_index));
    }

    /// A payload of `lens` query lengths over `shard`, one query each.
    fn sized(lens: &[usize], shard: (usize, usize)) -> TaskPayload {
        let queries = lens
            .iter()
            .map(|&len| QueryPayload {
                query: (0..len).map(|i| (i % 20) as u8).collect(),
                top_n: 3,
            })
            .collect();
        task(queries, shard)
    }

    #[test]
    fn every_task_shape_is_its_queries_scanned_alone() {
        let db = protein_db(&[
            ("a", b"MKVLAWCDEFGHIKLMNPQRST"),
            ("b", b"WCDEFGHIKL"),
            ("c", b"GGGGGGGGAWCDEF"),
            ("d", b"PPPP"),
            ("e", b"AWCDEFGHIKMKVL"),
        ]);
        let sc = scoring();
        let all = (0, db.len());
        let mut pe = PeExecutor::new(&sc);
        // A fused pair, a long query riding beside a short one, and a full
        // task of FUSE_MAX on a sub-shard: one pass each, and per query
        // the result of a fresh PE scanning it alone.
        for shaped in [
            sized(&[7, 9], all),
            sized(&[12, MAX_FUSABLE_QUERY + 40], all),
            sized(&[20; FUSE_MAX], (1, 4)),
        ] {
            let got = pe.scan(&db, &shaped).unwrap();
            assert!(got.gcups.is_some_and(|g| g.is_finite() && g >= 0.0));
            assert_eq!(got.queries.len(), shaped.queries.len());
            for (q, got) in shaped.queries.iter().zip(&got.queries) {
                let alone = task(vec![q.clone()], shaped.shard);
                let solo = PeExecutor::new(&sc).scan(&db, &alone).unwrap();
                assert_eq!(solo.queries, std::slice::from_ref(got));
            }
        }
        // A bad shard fails a fused task whole, with a typed error.
        let err = pe
            .scan(&db, &sized(&[12, 12], (0, db.len() + 1)))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_repeated_query_is_re_prepared_and_changes_no_result() {
        let db = protein_db(&[
            ("a", b"MKVLAWCDEFGHIKLMNPQRST"),
            ("b", b"WCDEFGHIKL"),
            ("c", b"GGGGGGGGAWCDEF"),
        ]);
        let sc = scoring();
        let mut pe = PeExecutor::new(&sc);
        // Distinct queries interleaved with repeats, as a daemon ships them
        // (once per shard, again for replicas): a long-lived PE answers
        // each exactly as a fresh one does.
        for i in 0..64usize {
            let query: Vec<u8> = (0..12)
                .map(|j| ((i >> j) & 1) as u8 * 3 + (j % 5) as u8)
                .collect();
            let payload = whole(&db, query, 3);
            let first = pe.scan(&db, &payload).unwrap().queries;
            let again = pe.scan(&db, &payload).unwrap().queries;
            let fresh = PeExecutor::new(&sc).scan(&db, &payload).unwrap().queries;
            assert_eq!(first, fresh);
            assert_eq!(again, fresh);
        }
    }

    #[test]
    fn batch_task_t_is_query_t_over_the_whole_database_at_one_depth() {
        let db = protein_db(&[("a", b"MKVLAWCDEF"), ("b", b"WCDEFGHIKL")]);
        let queries = queries(&[&b"AWCDEF"[..], &b"MKVL"[..]]);
        let p = batch_pool(&queries, &db);
        for (t, q) in queries.iter().enumerate() {
            assert_eq!(p.payload(t), Some(whole(&db, q.codes.clone(), BATCH_TOP_N)));
        }
        assert_eq!(p.payload(queries.len()), None);
        // The identity covers the database and the scoring alike.
        let mine = p.lock().owner.identity().clone();
        assert_eq!(mine, Identity::of(&db, &scoring()));
        let other_db = protein_db(&[("a", b"MKVLAWCDEF")]);
        assert_ne!(Identity::of(&other_db, &scoring()).digest, mine.digest);
        let mut blosum50 = scoring();
        blosum50.matrix = swhybrid_align::scoring::SubstMatrix::blosum50();
        assert_ne!(Identity::of(&db, &blosum50).digest, mine.digest);
        assert_eq!(mine.scoring, "BLOSUM62, gap open 10 extend 2");
    }

    #[test]
    fn a_task_is_charged_its_summed_queries_against_its_shard() {
        let db = protein_db(&[("a", b"MKVL"), ("b", b"WCDEFGHIKL"), ("c", b"GG")]);
        // Scan positions follow length order: GG, MKVL, WCDEFGHIKL.
        let spec = task_spec(&db, (1, 3), [5, 7]);
        assert_eq!(spec.query_len, 12);
        assert_eq!(
            (spec.queries, spec.db_residues, spec.db_sequences),
            (2, 14, 2)
        );
        assert_eq!(spec.cells(), 12 * 14);
        let whole = task_spec(&db, (0, db.len()), [5]);
        assert_eq!(whole.db_residues, db.total_residues());
    }

    fn queries(residues: &[&[u8]]) -> Vec<EncodedSequence> {
        residues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                EncodedSequence::from_residues(format!("q{i}"), q, swhybrid_seq::Alphabet::Protein)
                    .unwrap()
            })
            .collect()
    }

    fn batch_pool(queries: &[EncodedSequence], db: &DbSnapshot) -> PePool<BatchOwner> {
        let master = Scheduler::new(specs(queries.len()), MasterConfig::default());
        let owner = BatchOwner::new(query_tasks(queries, db), Identity::of(db, &scoring()));
        PePool::new(master, owner, 1)
    }

    /// A pool over `n_tasks` dummy specs (one-residue queries against a
    /// one-subject database).
    fn pool(n_tasks: usize, expected: usize) -> PePool<BatchOwner> {
        let db = protein_db(&[("s", b"MKVL")]);
        let tasks = query_tasks(&queries(&vec![&b"M"[..]; n_tasks]), &db);
        let owner = BatchOwner::new(tasks, Identity::of(&db, &scoring()));
        PePool::new(
            Scheduler::new(specs(n_tasks), MasterConfig::default()),
            owner,
            expected,
        )
    }

    /// Collect `p`'s event stream from here on.
    fn tap(p: &PePool<BatchOwner>) -> Arc<Mutex<Vec<RuntimeEvent>>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        p.lock()
            .master
            .set_event_sink(move |e| sink.lock().unwrap().push(e.clone()));
        seen
    }

    #[test]
    fn barrier_opens_at_expected_and_latecomers_join() {
        let p = pool(2, 2);
        let events = tap(&p);
        let a = p.admit("a", 1.0, false);
        assert!(!p.lock().barrier_open());
        let b = p.admit("b", 1.0, false);
        assert!(p.lock().barrier_open());
        let c = p.admit("late", 1.0, true);
        assert_eq!((a, b, c), (0, 1, 2));
        let g = p.lock();
        assert_eq!(g.alive(), 3);
        assert_eq!(g.remote_members(), vec![2]);
        assert!(events
            .lock()
            .unwrap()
            .iter()
            .any(|e| matches!(e.kind, EventKind::PeJoined { pe: 2, .. })));
    }

    #[test]
    fn degenerate_speed_priors_are_clamped_not_fatal() {
        let p = pool(1, 0);
        p.admit("nan", f64::NAN, false);
        p.admit("zero", 0.0, false);
        p.admit("neg", -3.0, false);
        let g = p.lock();
        assert!(g.master.speed_estimates().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn drive_runs_a_batch_to_completion_on_one_local_endpoint() {
        let p = pool(3, 1);
        let events = tap(&p);
        let pe = p.admit("solo", 1.0, false);
        let mut ep = LocalEndpoint::new(|task| TaskResult {
            gcups: Some(1.0),
            queries: vec![QueryResult {
                hits: Vec::new(),
                kernels: KernelStats {
                    resolved_i8: 1,
                    cells_computed: 100 * (task as u64 + 1),
                    ..KernelStats::default()
                },
            }],
        });
        drive(&p, pe, &mut ep);
        let core = p.into_inner();
        assert!(core.master.pool().all_finished());
        assert!(core.owner.completed_by.iter().all(|n| n == "solo"));
        assert_eq!(core.owner.kernels.resolved_i8, 3);
        assert_eq!(core.owner.kernels_by_pe[pe].resolved_i8, 3);
        assert!(events
            .lock()
            .unwrap()
            .iter()
            .any(|e| e.kind == EventKind::RunCompleted));
    }

    #[test]
    fn disconnect_requeues_held_tasks_and_is_idempotent() {
        let p = pool(2, 2);
        let events = tap(&p);
        let a = p.admit("a", 1.0, false);
        let _b = p.admit("b", 1.0, false);
        let cmd = p.next_assignment(a).expect("assignment");
        let PeCommand::Tasks(tasks) = cmd else {
            panic!("expected tasks, got {cmd:?}");
        };
        p.task_started(a, tasks[0]);
        p.disconnect(a, true);
        p.disconnect(a, true); // second teardown is a no-op
        assert_eq!(p.lock().alive(), 1);
        let events = events.lock().unwrap();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::PeSuspectedDead { pe } if pe == a))
                .count(),
            1
        );
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::TaskRequeued { task, from } if task == tasks[0] && from == a)));
    }

    /// A departing PE's tasks return to the front of the ready queue in
    /// the simulator's order: its run queue first, then what it started,
    /// so the started task leads and the queued ones follow, last first.
    #[test]
    fn a_leaving_pe_hands_back_its_queue_then_its_running_task() {
        let p = pool(3, 2);
        let a = p.admit("a", 1.0, false);
        let b = p.admit("b", 1.0, false);
        for t in 0..3 {
            assert_eq!(p.next_assignment(a), Some(PeCommand::Tasks(vec![t])));
        }
        let mut ep = LocalEndpoint::new(|_| TaskResult::default());
        let PeEvent::Started(running) = ep.next_event(&p, a) else {
            panic!("a has tasks queued");
        };
        assert_eq!(running, 0);
        assert!(p.task_started(a, running));
        assert_eq!(p.lock().master.pool().next_queued(a), Some(1));
        p.disconnect(a, false);
        let front: Vec<PeCommand> = (0..3).filter_map(|_| p.next_assignment(b)).collect();
        let tasks = |t: TaskId| PeCommand::Tasks(vec![t]);
        assert_eq!(front, [tasks(0), tasks(2), tasks(1)]);
    }

    #[test]
    fn out_of_bounds_reports_are_rejected_not_fatal() {
        let p = pool(1, 1);
        let pe = p.admit("a", 1.0, false);
        assert!(!p.task_started(pe, 99));
        assert!(!p.task_finished(pe, 99, TaskResult::default()));
        // The pool is still healthy for in-bounds traffic.
        assert!(p.task_started(pe, 0));
    }

    #[test]
    fn abort_unblocks_parked_endpoints() {
        let p = pool(1, 1);
        let pe = p.admit("a", 1.0, false);
        // Drain the one task so the next request would Wait (keep-alive).
        p.lock().master.set_keep_alive(true);
        let Some(PeCommand::Tasks(tasks)) = p.next_assignment(pe) else {
            panic!("expected tasks");
        };
        p.task_started(pe, tasks[0]);
        p.task_finished(pe, tasks[0], TaskResult::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| p.next_assignment(pe));
            std::thread::sleep(Duration::from_millis(20));
            {
                let mut g = p.lock();
                g.set_abort(io::ErrorKind::ConnectionAborted, "test abort");
            }
            p.notify_all();
            assert!(handle.join().expect("no panic").is_none());
        });
    }
}
