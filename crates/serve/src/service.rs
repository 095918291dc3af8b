//! The query engine behind the daemon: a persistent master/slave runtime
//! fed multi-batch workloads.
//!
//! One [`QueryService`] owns:
//!
//! * a [`Scheduler`] in keep-alive mode — the same SS/PSS engine and
//!   workload-adjustment state machine the batch runtimes use, never
//!   restarted between queries — wrapped in a
//!   [`PePool`](swhybrid_core::pool::PePool),
//! * long-lived PE worker threads, each a
//!   [`LocalEndpoint`](swhybrid_core::pool::LocalEndpoint) run by the
//!   shared [`drive`](swhybrid_core::pool::drive) loop,
//! * optionally, via [`QueryService::listen_slaves`], remote TCP slaves
//!   that join and leave mid-daemon-lifetime — served by the *same* drive
//!   loop through [`serve_slaves`](swhybrid_core::net::serve_slaves),
//!   so a fleet can mix local SIMD threads and remote processes freely,
//! * the admission queue, result cache, and metrics.
//!
//! Every admitted query is split into contiguous, residue-balanced
//! **database shards**, one task per shard, so a single query exercises
//! the whole platform (and the adjustment mechanism can replicate a
//! straggling shard near the tail). A shard is a range of the database's
//! length-ordered scan positions; per-shard top-N lists report database
//! indices and are merged with `merge_top_n`, which makes the
//! served ranking bit-identical to a cold single-process scan. Remote
//! slaves receive shards as self-describing payloads (query batch + shard
//! bounds) and must prove at registration — by their identity digest —
//! that they hold the exact database the daemon serves and score with its
//! scheme; a [`QueryService::swap_snapshot`] disconnects every remote
//! slave, because their copy is now stale.
//!
//! ## Cross-query fusion
//!
//! When several queries are active at once, the dominant cost of scanning
//! each one separately is *streaming the database again*: the arena is
//! typically far larger than any cache, so K solo scans read it K times.
//! The dispatcher therefore **fuses** the queries that queued behind the
//! running groups, by the pool's one pass-sharing rule (`fusion`), into
//! shared shard tasks: one task scores the whole query batch against its
//! shard while the chunk is hot in cache. Per-query work
//! inside a chunk is exactly what a solo scan would do — the fused and solo
//! paths share one implementation,
//! [`ShardExecutor`](swhybrid_simd::ShardExecutor) — so
//! fused replies stay byte-identical to per-query cold scans; the win is
//! wall-clock throughput, not a different answer. A fused task's
//! [`TaskSpec`](swhybrid_device::task::TaskSpec) charges the batch's
//! summed query length, so PSS cell accounting and speed estimates stay
//! calibrated.
//!
//! Replies are delivered through per-job completion callbacks, so the
//! executor never blocks on a slow client: the TCP layer hands in a
//! closure that writes to the connection, in-process callers a channel
//! sender.
//!
//! ## Module layout
//!
//! This file holds the configuration, the reply/job data model, and
//! service construction; each operational concern lives in a submodule:
//! `admit` (submission, cache fast path, status, cancellation), `fusion`
//! (queue pumping and fused-group scheduling), `execution` (the one task
//! payload builder every PE scans from, plus shard-result accounting),
//! `reload` (hot database swaps, drain, shutdown), and `stats` (the
//! `stats` reply body).

mod admit;
mod execution;
mod fusion;
mod reload;
mod stats;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex};

use swhybrid_align::scoring::Scoring;
use swhybrid_core::net::{serve_slaves, Acceptor, NetConfig};
use swhybrid_core::policy::Policy;
use swhybrid_core::pool::{drive, Identity, LocalEndpoint, PeExecutor, PePool, TaskResult};
use swhybrid_core::sched::{MasterConfig, Scheduler};
use swhybrid_core::task::{PeId, TaskId};
use swhybrid_device::{FleetPe, FleetSpec};
use swhybrid_seq::DbSnapshot;
use swhybrid_simd::engine::KernelStats;
use swhybrid_simd::search::Hit;

use crate::admission::AdmissionQueue;
use crate::cache::{CacheKey, ResultCache};
use crate::metrics::{fold_event, Metrics};

/// How a reply leaves the service: invoked exactly once per submitted
/// query, off the executor's lock.
pub type Completion = Box<dyn FnOnce(SearchReply) + Send + 'static>;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// PE worker threads (each is one scheduler PE).
    pub workers: usize,
    /// Database shards per query (tasks per query); 0 means one per worker.
    pub shards: usize,
    /// Fused query groups scheduled into the pool at once (each group
    /// carries up to [`swhybrid_core::pool::FUSE_MAX`] queries); further
    /// admissions queue.
    pub max_active: usize,
    /// Admission queue depth bound (excess is rejected with backpressure).
    pub queue_depth: usize,
    /// Per-client in-flight ceiling (queued + running).
    pub per_client_inflight: usize,
    /// Result cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Task allocation policy (must be dynamic: SS or PSS).
    pub policy: Policy,
    /// Whether the workload adjustment mechanism is active.
    pub adjustment: bool,
    /// Terminal jobs kept answering `status` before eviction (count bound;
    /// see also [`ServiceConfig::retention_secs`]).
    pub retained_jobs: usize,
    /// Terminal jobs older than this are evicted even under the count
    /// bound, so an idle daemon's registry also drains.
    pub retention_secs: f64,
    /// Hybrid worker fleet (`sse:8+gpu:2`). When set it *replaces* the
    /// homogeneous `workers` pool: each entry becomes one PE thread —
    /// real SIMD PEs measure wall-clock speed, modeled accelerators
    /// register their calibrated prior and attribute their device model's
    /// GCUPS to the scheduler (results stay byte-identical either way —
    /// every kind drives the same shard executor).
    pub fleet: Option<FleetSpec>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            shards: 0,
            max_active: 2,
            queue_depth: 64,
            per_client_inflight: 4,
            cache_capacity: 128,
            policy: Policy::pss_default(),
            adjustment: true,
            retained_jobs: 256,
            retention_secs: 300.0,
            fleet: None,
        }
    }
}

/// The terminal answer to one submitted query.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReply {
    /// The job id the service assigned.
    pub job: u64,
    /// The client's correlation tag, echoed back.
    pub tag: Option<String>,
    /// Whether the result came from the cache (then `cells` is 0).
    pub cached: bool,
    /// Whether the job was cancelled (then `hits` is empty).
    pub cancelled: bool,
    /// The database generation the result was computed against. A client
    /// spanning a hot reload can tell old-snapshot replies from
    /// new-snapshot ones by this number.
    pub generation: u64,
    /// Kernel cells computed for this reply: the sum over its winning
    /// shard scans, local or remote (a slave reports each query's cells
    /// with its result). Zero for a cache hit, and for a cancellation,
    /// which replies at once; the shards of a cancelled running job still
    /// scan, and count only in the daemon's `stats` counters.
    pub cells: u64,
    /// Admission-to-reply latency.
    pub elapsed_ms: f64,
    /// Per-query kernel counters, merged across the same winning shard
    /// scans as `cells` (zero where it is). Because every PE runs the
    /// same compute call on the same payload, these counters are
    /// identical to the one-shot scan's for the same query, database, and
    /// shard decomposition.
    pub kernels: KernelStats,
    /// The ranked hits (global database indices).
    pub hits: Vec<Hit>,
}

/// Why a submission was not accepted (re-exported admission error).
pub use crate::admission::AdmitError as SubmitError;

/// Where a job currently is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the admission queue at dispatch rank `position`.
    Queued {
        /// 0 = next to dispatch.
        position: usize,
    },
    /// Scanning: `shards_done` of `shards_total` shard tasks finished.
    Running {
        /// Completed shards.
        shards_done: usize,
        /// Total shards.
        shards_total: usize,
    },
    /// Finished (reply delivered).
    Done {
        /// Whether it ended by cancellation.
        cancelled: bool,
        /// Whether it was served from the cache.
        cached: bool,
    },
    /// The job existed, finished, and was evicted after the retention
    /// window — the id is valid but its record is gone.
    Expired,
    /// No such job.
    Unknown,
}

/// What a cancellation achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job will not produce a result (its submitter gets a cancelled
    /// reply; a running scan's hits are discarded on completion).
    Cancelled,
    /// Too late — the job already completed (or was already cancelled).
    AlreadyDone,
    /// No such job.
    Unknown,
}

enum Phase {
    Queued,
    Running {
        pending: usize,
        shard_hits: Vec<Option<Vec<Hit>>>,
        cells: u64,
        kernels: KernelStats,
    },
}

/// A job that has not delivered its reply yet. Once it has, only a
/// [`Finished`] record is left of it.
struct Job {
    client: u64,
    tag: Option<String>,
    /// The raw encoded query, shipped in every payload of the job's tasks.
    codes: Vec<u8>,
    /// The database snapshot this job scans (survives a concurrent
    /// [`QueryService::swap_snapshot`]): ids plus the length-ordered
    /// arena its shards are ranges of.
    db: Arc<DbSnapshot>,
    /// The database generation the job was admitted under. Remote slaves
    /// only ever see current-generation payloads (a swap disconnects them).
    generation: u64,
    top_n: usize,
    key: CacheKey,
    submitted_at: f64,
    shards: Vec<(usize, usize)>,
    phase: Phase,
    cancelled: bool,
    completion: Option<Completion>,
}

/// What `status` still reads of a terminal job. It holds no query bytes,
/// profile, shard list or database snapshot, so a retired job pins nothing
/// — in particular not a database a reload has since replaced.
struct Finished {
    cancelled: bool,
    cached: bool,
}

/// One scheduled shard task: the job ids whose queries it scores (the
/// fused batch, in batch order — results pair with it positionally) and
/// which shard of their shared database snapshot it scans. `group_tasks`
/// lists every task of the same fused group, so the whole group's map
/// entries can be dropped when its last shard lands.
#[derive(Debug, Clone)]
struct FusedTask {
    jobs: Vec<u64>,
    shard_idx: usize,
    group_tasks: Vec<TaskId>,
}

/// The pool owner: everything the service keeps under the pool's lock
/// besides the master itself. Kernels never run under it — workers
/// snapshot `Arc`s and release before scanning.
struct ServeOwner {
    cfg: ServiceConfig,
    /// Queued and running jobs, by id.
    jobs: HashMap<u64, Job>,
    next_job_id: u64,
    /// Recently terminal jobs, by id: evicted after the retention window
    /// (`retired`), so the registry stays bounded however long the daemon
    /// runs.
    finished: HashMap<u64, Finished>,
    /// Terminal jobs awaiting eviction, oldest first, with the time they
    /// retired.
    retired: VecDeque<(u64, f64)>,
    task_map: HashMap<TaskId, FusedTask>,
    queue: AdmissionQueue,
    cache: ResultCache,
    metrics: Metrics,
    /// The current database generation: ids, length-ordered arena, digest.
    /// Replaced wholesale by a reload, never mutated — in-flight jobs hold
    /// their own `Arc` and finish on the snapshot they were admitted under.
    db: Arc<DbSnapshot>,
    db_generation: u64,
    /// What a remote slave must hold: the current database under the
    /// service's scoring.
    identity: Identity,
    active_jobs: usize,
    /// Fused groups currently in the pool — the unit [`ServiceConfig::
    /// max_active`] bounds. A group frees its slot only when its last
    /// member finishes, so several queued queries can take the
    /// freed slot together (that is what lets fusion bootstrap: slots
    /// freeing one *job* at a time would only ever re-admit singletons).
    active_groups: usize,
    draining: bool,
}

struct Inner {
    pool: PePool<ServeOwner>,
    scoring: Scoring,
    scoring_digest: u64,
}

/// The persistent query service. Dropping it shuts the workers down
/// without draining; call [`QueryService::shutdown`] for the graceful
/// drain-then-exit path.
pub struct QueryService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Slave ports and the threads accepting on them.
    listeners: Mutex<Vec<(Arc<Acceptor>, std::thread::JoinHandle<()>)>>,
}

impl QueryService {
    /// Start the service over a loaded database — packed from FASTA, or
    /// borrowed from a `.swdb` mapping whose header supplies the digest,
    /// so a store-backed start never re-hashes the database. Spawns
    /// `config.workers` PE threads; they idle on the hub until queries
    /// arrive.
    pub fn with_snapshot(db: DbSnapshot, scoring: Scoring, config: ServiceConfig) -> QueryService {
        assert!(
            db.is_empty() || db.alphabet() == scoring.matrix.alphabet,
            "database alphabet {:?} does not match scoring alphabet {:?}",
            db.alphabet(),
            scoring.matrix.alphabet
        );
        let mut cfg = config;
        // A hybrid fleet fixes the worker count: one PE thread per member.
        let fleet_pes = cfg.fleet.as_ref().map(|f| f.build());
        if let Some(pes) = &fleet_pes {
            cfg.workers = pes.len();
        }
        cfg.workers = cfg.workers.max(1);
        if cfg.shards == 0 {
            cfg.shards = cfg.workers;
        }
        cfg.max_active = cfg.max_active.max(1);
        assert!(
            !cfg.policy.is_static(),
            "the query service needs a dynamic policy (ss or pss): \
             static quotas cannot absorb multi-batch workloads"
        );

        let mut master = Scheduler::new(
            Vec::new(),
            MasterConfig {
                policy: cfg.policy,
                adjustment: cfg.adjustment,
                ..MasterConfig::default()
            },
        );
        master.set_keep_alive(true);
        // The engine's events fold into the per-PE series as they are
        // emitted and are kept nowhere else: a daemon's memory must not
        // grow with the number of queries it has served.
        let metrics = Metrics::default();
        let pes = Arc::clone(&metrics.pes);
        master.set_event_sink(move |e| {
            fold_event(&mut pes.lock().expect("per-PE series lock"), e);
        });

        let identity = Identity::of(&db, &scoring);
        let db = Arc::new(db);
        let worker_count = cfg.workers;
        let owner = ServeOwner {
            jobs: HashMap::new(),
            next_job_id: 0,
            finished: HashMap::new(),
            retired: VecDeque::new(),
            task_map: HashMap::new(),
            queue: AdmissionQueue::new(cfg.queue_depth, cfg.per_client_inflight),
            cache: ResultCache::new(cfg.cache_capacity),
            metrics,
            db,
            db_generation: 0,
            identity,
            active_jobs: 0,
            active_groups: 0,
            draining: false,
            cfg,
        };
        let pool = PePool::new(master, owner, worker_count);
        let inner = Arc::new(Inner {
            pool,
            scoring_digest: scoring.digest(),
            scoring,
        });
        // The worker roster: a hybrid fleet when configured (a modeled
        // kind has its device model's speed attributed by the pool), else
        // the historical homogeneous SIMD pool.
        let members = fleet_pes.unwrap_or_else(|| {
            (0..worker_count)
                .map(|w| FleetPe::simd(format!("serve{w}"), 1.0))
                .collect()
        });
        // Admit the local workers up front (the registration block), then
        // spawn their drive threads.
        let admitted: Vec<PeId> = members
            .iter()
            .map(|member| inner.pool.admit_fleet(member))
            .collect();
        let workers = admitted
            .into_iter()
            .map(|pe| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-pe{pe}"))
                    .spawn(move || {
                        // One executor (and so one KernelScratch) per PE
                        // thread, living for the daemon's lifetime: every
                        // shard this worker scans reuses the same warm,
                        // high-water-sized buffers. It scans the payload a
                        // slave would be shipped, on the job's own snapshot.
                        let mut executor = PeExecutor::new(&inner.scoring);
                        let mut endpoint = LocalEndpoint::new(|task| {
                            let work = inner.pool.lock().owner.payload(task);
                            work.map_or_else(TaskResult::default, |(payload, db)| {
                                executor
                                    .scan(&db, &payload)
                                    .expect("a shard fits its snapshot")
                            })
                        });
                        drive(&inner.pool, pe, &mut endpoint);
                    })
                    .expect("spawn PE worker")
            })
            .collect();
        QueryService {
            inner,
            workers,
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// Accept remote TCP slaves on `addr` for the lifetime of the daemon:
    /// the hybrid-fleet mode of `swhybrid serve --listen-slaves`.
    ///
    /// Each accepted connection is a full protocol session
    /// ([`serve_slaves`]) feeding the same pool as the local worker
    /// threads: slaves join mid-lifetime (`pe_joins`), receive
    /// self-describing shard payloads, and may disconnect at any time —
    /// their in-flight shards requeue to the remaining fleet. A slave must
    /// register with the identity of the daemon's current database and
    /// scoring ([`swhybrid_core::net::run_slave`] does); anything else is
    /// refused at the handshake. Returns the bound address. Fails with
    /// [`io::ErrorKind::InvalidInput`] when `net` is inconsistent.
    pub fn listen_slaves(
        &self,
        addr: impl ToSocketAddrs,
        net: NetConfig,
    ) -> io::Result<std::net::SocketAddr> {
        net.validate()?;
        let acceptor = Arc::new(Acceptor::bind(addr)?);
        let local = acceptor.local_addr()?;
        let inner = Arc::clone(&self.inner);
        let port = Arc::clone(&acceptor);
        let handle = std::thread::Builder::new()
            .name("serve-slaves".to_string())
            .spawn(move || {
                // A broken listener only ends this port; the daemon and its
                // local workers keep serving.
                let _ = serve_slaves(&port, &inner.pool, &net);
            })?;
        self.listeners
            .lock()
            .expect("listener registry")
            .push((acceptor, handle));
        Ok(local)
    }

    /// The scoring scheme queries are evaluated under.
    pub fn scoring(&self) -> &Scoring {
        &self.inner.scoring
    }

    /// Encode an ASCII query under the service's alphabet. An empty query
    /// is refused here: no profile can be built for it.
    pub fn encode_query(&self, residues: &[u8]) -> Result<Vec<u8>, String> {
        if residues.is_empty() {
            return Err("empty query".into());
        }
        self.inner
            .scoring
            .matrix
            .alphabet
            .encode(residues)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests;
