//! The slave process: connect, register, execute tasks until the master
//! says done, reconnecting with exponential backoff on connection loss.
//!
//! Two execution modes share one session loop:
//!
//! * **batch** ([`run_slave`]/[`run_slave_with`]) — both sides already
//!   hold the query and database files (the paper's deployment); tasks
//!   travel as bare ids.
//! * **serve** ([`run_serve_slave`]) — the slave holds only the database
//!   and proves it via an FNV-1a digest at registration; tasks arrive
//!   self-describing (query residues + shard + top-N), so the slave can
//!   execute queries it has never seen, exactly like a local daemon
//!   worker thread.

use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::wire::{invalid, send, LineReader, MasterMsg, SlaveMsg, PROTOCOL_VERSION};
use super::NetConfig;
use crate::pool::{FusedQueryResult, TaskPayload, TaskResult};
use crate::shared::WaitHub;
use crate::stats::observed_gcups;
use crate::task::TaskId;
use swhybrid_align::scoring::Scoring;
use swhybrid_device::exec::ComputeBackend;
use swhybrid_device::task::TaskSpec;
use swhybrid_seq::digest::db_digest;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::DbArena;
use swhybrid_simd::engine::{EnginePreference, KernelStats, PreparedQuery};
use swhybrid_simd::exec::{chunk_size, materialize_hits, ShardExecutor, ShardPlan};
use swhybrid_simd::search::{KernelChoice, SearchConfig};

/// How a slave session over one connection ended.
enum SessionEnd {
    /// The master said done; `usize` tasks were executed this session.
    Done(usize),
    /// The connection was lost after `usize` executed tasks; reconnect.
    Lost(usize),
}

fn is_retryable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

/// How a slave turns one assignment — the task and, when the master ships
/// one (serve mode), its self-describing payload — into its result. The
/// session loop (handshake, heartbeats, reconnect) is mode-agnostic; this
/// is the mode.
type TaskExecutor<'a> = dyn FnMut(TaskId, Option<&TaskPayload>) -> io::Result<TaskResult> + 'a;

/// THE compute step of a batch PE, local fleet thread or remote slave:
/// one query against the whole database. With the task's `spec` a modeled
/// accelerator attributes its device model's throughput (so the scheduler
/// sees e.g. GTX-580 speed); otherwise — real PEs, and slaves, which hold
/// no specs — the speed is the measured wall-clock one.
pub(super) fn compare_task(
    backend: &dyn ComputeBackend,
    spec: Option<&TaskSpec>,
    query: &EncodedSequence,
    subjects: &[EncodedSequence],
    scoring: &Scoring,
    top_n: usize,
) -> TaskResult {
    let t0 = Instant::now();
    let search = backend.compare(query, subjects, scoring, top_n);
    let gcups = spec
        .and_then(|spec| backend.modeled_gcups(spec))
        .unwrap_or_else(|| observed_gcups(search.cells, t0.elapsed().as_secs_f64()));
    TaskResult {
        gcups: Some(gcups),
        hits: search.hits,
        cells: search.cells,
        kernels: Some(search.stats),
        fused: None,
    }
}

/// Serve mode: tasks are self-describing database shards. Prepared query
/// profiles are memoised across tasks *and* reconnects — the dominant
/// per-query setup cost is paid once per distinct query, like a local
/// daemon worker.
struct ServeShardExecutor<'a> {
    arena: DbArena,
    subjects: &'a [EncodedSequence],
    scoring: &'a Scoring,
    kernel: KernelChoice,
    prepared: HashMap<Vec<u8>, Arc<PreparedQuery>>,
    /// The shared shard-execution layer, reused across shards (and
    /// reconnects) for this slave's lifetime — it owns the kernel scratch,
    /// so the steady-state shard scan allocates nothing.
    executor: ShardExecutor,
}

impl ServeShardExecutor<'_> {
    fn execute(&mut self, task: TaskId, desc: Option<&TaskPayload>) -> io::Result<TaskResult> {
        let desc = desc.ok_or_else(|| {
            invalid(format!(
                "master sent serve-mode task {task} without a payload"
            ))
        })?;
        let (s, e) = desc.shard;
        if s > e || e > self.subjects.len() {
            return Err(invalid(format!(
                "task {task} shard {s}..{e} exceeds the database ({} subjects)",
                self.subjects.len()
            )));
        }
        // One pass over the shard scores the whole fused batch (K = 1 for
        // an unfused daemon). Profiles are memoised per distinct query.
        let batch: Vec<(Arc<PreparedQuery>, usize)> = desc
            .queries
            .iter()
            .map(|q| {
                let prepared = self.prepared.entry(q.query.clone()).or_insert_with(|| {
                    Arc::new(PreparedQuery::new(
                        &q.query,
                        self.scoring,
                        EnginePreference::Auto,
                    ))
                });
                (Arc::clone(prepared), q.top_n)
            })
            .collect();
        let plan = ShardPlan {
            range: s..e,
            // The centralized chunk-size decision; the floor keeps Auto
            // dispatch able to fill the inter-sequence lanes.
            chunk_size: chunk_size(None).map_err(invalid)?,
            kernel: self.kernel,
            prefetch: SearchConfig::default().prefetch,
        };
        let t0 = Instant::now();
        let outputs = self.executor.execute(&batch, &self.arena, &plan);
        let elapsed = t0.elapsed().as_secs_f64();
        let cells: u64 = outputs.iter().map(|o| o.cells).sum();
        let mut merged = KernelStats::default();
        // Hits carry global database indices, so the master's cross-shard
        // merge tie-breaks identically to a whole-db scan.
        let fused: Vec<FusedQueryResult> = outputs
            .into_iter()
            .map(|out| {
                merged.merge(&out.stats);
                FusedQueryResult {
                    hits: materialize_hits(&out.scored, |i| self.subjects[i].id.clone()),
                    cells: out.cells,
                    kernels: Some(out.stats),
                }
            })
            .collect();
        Ok(TaskResult {
            gcups: Some(observed_gcups(cells, elapsed)),
            hits: Vec::new(),
            cells,
            kernels: Some(merged),
            fused: Some(fused),
        })
    }
}

/// Run a slave: connect, register, execute tasks until the master says
/// done, with default [`NetConfig`] timings.
///
/// `queries` and `subjects` are the locally available sequence data (the
/// paper's model: files are on every host).
#[allow(clippy::too_many_arguments)] // a slave's full execution context, deliberately flat
pub fn run_slave(
    addr: impl ToSocketAddrs,
    name: &str,
    static_gcups: f64,
    backend: &dyn ComputeBackend,
    queries: &[EncodedSequence],
    subjects: &[EncodedSequence],
    scoring: &Scoring,
    top_n: usize,
) -> io::Result<usize> {
    run_slave_with(
        addr,
        name,
        static_gcups,
        backend,
        queries,
        subjects,
        scoring,
        top_n,
        &NetConfig::default(),
    )
}

/// [`run_slave`] with explicit [`NetConfig`] timings. Reconnects with
/// exponential backoff when the connection to the master is lost; returns
/// the total number of tasks executed across all sessions.
#[allow(clippy::too_many_arguments)]
pub fn run_slave_with(
    addr: impl ToSocketAddrs,
    name: &str,
    static_gcups: f64,
    backend: &dyn ComputeBackend,
    queries: &[EncodedSequence],
    subjects: &[EncodedSequence],
    scoring: &Scoring,
    top_n: usize,
    net: &NetConfig,
) -> io::Result<usize> {
    // Batch mode: the task id indexes the locally held query files.
    let mut execute = |task: TaskId, _desc: Option<&TaskPayload>| {
        let query = queries
            .get(task)
            .ok_or_else(|| invalid(format!("master referenced unknown task {task}")))?;
        Ok(compare_task(backend, None, query, subjects, scoring, top_n))
    };
    run_sessions(&addr, name, static_gcups, None, &mut execute, net)
}

/// Run a serve-mode slave against a daemon listening with
/// `serve --listen-slaves`: register with the database digest, execute
/// self-describing shard tasks until the daemon says done. Returns the
/// total number of tasks executed across all sessions.
pub fn run_serve_slave(
    addr: impl ToSocketAddrs,
    name: &str,
    static_gcups: f64,
    subjects: &[EncodedSequence],
    scoring: &Scoring,
    kernel: KernelChoice,
    net: &NetConfig,
) -> io::Result<usize> {
    let digest = db_digest(subjects);
    let mut executor = ServeShardExecutor {
        arena: DbArena::from_encoded(subjects),
        subjects,
        scoring,
        kernel,
        prepared: HashMap::new(),
        executor: ShardExecutor::new(),
    };
    let mut execute = |task: TaskId, desc: Option<&TaskPayload>| executor.execute(task, desc);
    run_sessions(&addr, name, static_gcups, Some(digest), &mut execute, net)
}

/// The mode-agnostic reconnect loop around [`slave_session`].
fn run_sessions(
    addr: &impl ToSocketAddrs,
    name: &str,
    static_gcups: f64,
    db_digest: Option<u64>,
    execute: &mut TaskExecutor<'_>,
    net: &NetConfig,
) -> io::Result<usize> {
    net.validate()?;
    let mut total = 0usize;
    let mut retries_left = net.reconnect_max_retries;
    let mut backoff = net.reconnect_backoff_initial;
    loop {
        match slave_session(addr, name, static_gcups, db_digest, execute, net) {
            Ok(SessionEnd::Done(n)) => return Ok(total + n),
            Ok(SessionEnd::Lost(n)) => {
                total += n;
                if n > 0 {
                    // The session made progress: fresh failure budget.
                    retries_left = net.reconnect_max_retries;
                    backoff = net.reconnect_backoff_initial;
                }
                if retries_left == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "connection to master lost and reconnect budget exhausted",
                    ));
                }
                retries_left -= 1;
            }
            Err(e) if is_retryable(e.kind()) => {
                if retries_left == 0 {
                    return Err(e);
                }
                retries_left -= 1;
            }
            Err(e) => return Err(e),
        }
        // Reconnect backoff — not a work-request poll (work waiting is
        // long-polled by the master while connected).
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(net.reconnect_backoff_max);
    }
}

/// Send a heartbeat line every `interval` until told to stop. Runs in its
/// own thread so heartbeats flow even while the work loop is deep inside a
/// kernel; parks on a [`WaitHub`] so stopping is immediate.
fn heartbeat(writer: &Mutex<TcpStream>, stop: &WaitHub<bool>, interval: Duration) {
    let mut stopped = stop.lock();
    loop {
        stopped = stop.wait_timeout(stopped, interval);
        if *stopped {
            return;
        }
        drop(stopped);
        let failed = send(
            &mut *writer.lock().expect("slave writer poisoned"),
            &SlaveMsg::Heartbeat,
        )
        .is_err();
        if failed {
            // The socket is gone; the work loop will notice on its own.
            return;
        }
        stopped = stop.lock();
    }
}

fn slave_session(
    addr: &impl ToSocketAddrs,
    name: &str,
    static_gcups: f64,
    db_digest: Option<u64>,
    execute: &mut TaskExecutor<'_>,
    net: &NetConfig,
) -> io::Result<SessionEnd> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = LineReader::new(stream.try_clone()?);
    let writer = Mutex::new(stream);

    send(
        &mut *writer.lock().expect("slave writer poisoned"),
        &SlaveMsg::Register {
            name: name.to_string(),
            gcups: static_gcups,
            proto: PROTOCOL_VERSION,
            db_digest,
        },
    )?;
    match reader.next_msg::<MasterMsg>()? {
        Some(MasterMsg::Registered { proto, .. }) => {
            if proto != PROTOCOL_VERSION {
                return Err(invalid(format!(
                    "protocol version mismatch: slave speaks v{PROTOCOL_VERSION}, \
                     master speaks v{proto}"
                )));
            }
        }
        Some(MasterMsg::Error { message }) => return Err(invalid(message)),
        Some(other) => return Err(invalid(format!("registration failed: {other:?}"))),
        None => return Ok(SessionEnd::Lost(0)),
    }

    let stop = WaitHub::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| heartbeat(&writer, &stop, net.heartbeat_interval));
        let outcome = slave_work_loop(&mut reader, &writer, execute);
        *stop.lock() = true;
        stop.notify_all();
        outcome
    })
}

fn slave_work_loop(
    reader: &mut LineReader<TcpStream>,
    writer: &Mutex<TcpStream>,
    execute: &mut TaskExecutor<'_>,
) -> io::Result<SessionEnd> {
    let send_msg = |msg: &SlaveMsg| send(&mut *writer.lock().expect("slave writer poisoned"), msg);
    let mut executed = 0usize;
    loop {
        if send_msg(&SlaveMsg::Request).is_err() {
            return Ok(SessionEnd::Lost(executed));
        }
        // The master long-polls: this blocks (heartbeats still flowing)
        // until an assignment or completion arrives.
        let batch: Vec<(TaskId, Option<TaskPayload>)> = match reader.next_msg::<MasterMsg>() {
            Ok(Some(MasterMsg::Tasks { tasks, descs })) => match descs {
                Some(descs) if descs.len() != tasks.len() => {
                    return Err(invalid(format!(
                        "task batch carries {} payloads for {} tasks",
                        descs.len(),
                        tasks.len()
                    )))
                }
                Some(descs) => tasks.into_iter().zip(descs.into_iter().map(Some)).collect(),
                None => tasks.into_iter().map(|t| (t, None)).collect(),
            },
            Ok(Some(MasterMsg::Execute { task, desc })) => vec![(task, desc)],
            Ok(Some(MasterMsg::Done)) => return Ok(SessionEnd::Done(executed)),
            Ok(Some(MasterMsg::Error { message })) => return Err(invalid(message)),
            Ok(Some(MasterMsg::Registered { .. })) => {
                return Err(invalid("unexpected registered message mid-session"))
            }
            Ok(None) => return Ok(SessionEnd::Lost(executed)),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            Err(_) => return Ok(SessionEnd::Lost(executed)),
        };
        for (task, desc) in batch {
            if send_msg(&SlaveMsg::Started { task }).is_err() {
                return Ok(SessionEnd::Lost(executed));
            }
            let result = execute(task, desc.as_ref())?;
            if send_msg(&SlaveMsg::Finished { task, result }).is_err() {
                return Ok(SessionEnd::Lost(executed));
            }
            executed += 1;
        }
    }
}
