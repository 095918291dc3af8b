//! The slave process: connect, register, execute tasks until the master
//! says done, reconnecting with exponential backoff on connection loss.
//!
//! Two execution modes share one session loop:
//!
//! * **batch** ([`run_slave`]) — both sides already
//!   hold the query and database files (the paper's deployment); tasks
//!   travel as bare ids.
//! * **serve** ([`run_serve_slave`]) — the slave holds only the database
//!   and proves it via an FNV-1a digest at registration; tasks arrive
//!   self-describing (query residues + shard + top-N), so the slave can
//!   execute queries it has never seen, exactly like a local daemon
//!   worker thread.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use super::wire::{invalid, send, LineReader, MasterMsg, SlaveMsg, PROTOCOL_VERSION};
use super::NetConfig;
use crate::pool::{PeExecutor, TaskPayload, TaskResult};
use crate::shared::WaitHub;
use crate::task::TaskId;
use swhybrid_align::scoring::Scoring;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::DbSnapshot;
use swhybrid_simd::search::KernelChoice;

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

/// Run a batch slave: connect, register, execute tasks until the master
/// says done. `queries` and `db` are the locally available sequence data
/// (the paper's model: files are on every host). Reconnects with
/// exponential backoff when the connection to the master is lost; returns
/// the total number of tasks executed across all sessions.
#[allow(clippy::too_many_arguments)] // a slave's full execution context, deliberately flat
pub fn run_slave(
    addr: impl ToSocketAddrs,
    name: &str,
    static_gcups: f64,
    queries: &[EncodedSequence],
    db: &DbSnapshot,
    scoring: &Scoring,
    top_n: usize,
    kernel: KernelChoice,
    net: &NetConfig,
) -> io::Result<usize> {
    // The PE's compute state lives across tasks *and* reconnects.
    let mut pe = PeExecutor::new(db, scoring, kernel);
    // Batch mode: the task id indexes the locally held query files.
    let mut execute = |task: TaskId, _desc: Option<&TaskPayload>| {
        let query = queries
            .get(task)
            .ok_or_else(|| invalid(format!("master referenced unknown task {task}")))?;
        Ok(pe.scan_query(&query.codes, top_n))
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
    db: &DbSnapshot,
    scoring: &Scoring,
    kernel: KernelChoice,
    net: &NetConfig,
) -> io::Result<usize> {
    let mut pe = PeExecutor::new(db, scoring, kernel);
    // Serve mode: tasks are self-describing database shards. Hits carry
    // global database indices, so the daemon's cross-shard merge
    // tie-breaks identically to a whole-db scan.
    let mut execute = |task: TaskId, desc: Option<&TaskPayload>| {
        let desc = desc.ok_or_else(|| {
            invalid(format!(
                "master sent serve-mode task {task} without a payload"
            ))
        })?;
        let (s, e) = desc.shard;
        if s > e || e > db.len() {
            return Err(invalid(format!(
                "task {task} shard {s}..{e} exceeds the database ({} subjects)",
                db.len()
            )));
        }
        Ok(pe.scan(&desc.queries, s..e))
    };
    let digest = Some(db.digest());
    run_sessions(&addr, name, static_gcups, digest, &mut execute, net)
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
