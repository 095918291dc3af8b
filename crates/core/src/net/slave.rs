//! The slave process: connect, register, execute tasks until the master
//! says done, reconnecting with exponential backoff on connection loss.
//!
//! A slave holds only the database. It proves at registration that it
//! holds the master's (and scores with the master's scheme) by its
//! [`Identity`] digest, and every task arrives self-describing (query
//! residues, shard, depth) — so one slave serves a batch master and a
//! daemon alike, exactly as a local worker thread does: each task of a
//! `tasks` message is started, scanned in one pass ([`PeExecutor::scan`])
//! and finished, in the order shipped. Which queries share a pass was
//! decided when the task was made.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use super::wire::{invalid, send, LineReader, MasterMsg, SlaveMsg};
use super::NetConfig;
use crate::pool::{Identity, PeExecutor, TaskPayload};
use crate::shared::WaitHub;
use crate::task::TaskId;
use swhybrid_align::scoring::Scoring;
use swhybrid_seq::DbSnapshot;

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

/// Run a slave against a master (`master --listen`) or a daemon's slave
/// port (`serve --listen-slaves`): register with the [`Identity`] of `db`
/// under `scoring`, execute the tasks the master ships until it says done.
/// Hits carry global database indices, so the master's merge tie-breaks
/// identically to a whole-database scan. Reconnects with exponential
/// backoff when the connection to the master is lost; returns the total
/// number of tasks executed across all sessions.
pub fn run_slave(
    addr: impl ToSocketAddrs,
    name: &str,
    static_gcups: f64,
    db: &DbSnapshot,
    scoring: &Scoring,
    net: &NetConfig,
) -> io::Result<usize> {
    net.validate()?;
    // The PE's compute state lives across tasks *and* reconnects.
    let mut pe = PeExecutor::new(scoring);
    let digest = Identity::of(db, scoring).digest;
    let mut total = 0usize;
    let mut retries_left = net.reconnect_max_retries;
    let mut backoff = net.reconnect_backoff_initial;
    loop {
        match slave_session(&addr, name, static_gcups, digest, db, &mut pe, net) {
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
    digest: u64,
    db: &DbSnapshot,
    pe: &mut PeExecutor<'_>,
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
            digest,
        },
    )?;
    // A reply of another protocol version fails to decode, naming both.
    match reader.next_msg::<MasterMsg>()? {
        Some(MasterMsg::Registered { .. }) => {}
        Some(MasterMsg::Error { message }) => return Err(invalid(message)),
        Some(other) => return Err(invalid(format!("registration failed: {other:?}"))),
        None => return Ok(SessionEnd::Lost(0)),
    }

    let stop = WaitHub::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| heartbeat(&writer, &stop, net.heartbeat_interval));
        let outcome = slave_work_loop(&mut reader, &writer, db, pe);
        *stop.lock() = true;
        stop.notify_all();
        outcome
    })
}

fn slave_work_loop(
    reader: &mut LineReader<TcpStream>,
    writer: &Mutex<TcpStream>,
    db: &DbSnapshot,
    pe: &mut PeExecutor<'_>,
) -> io::Result<SessionEnd> {
    let send_msg = |msg: &SlaveMsg| send(&mut *writer.lock().expect("slave writer poisoned"), msg);
    let mut executed = 0usize;
    loop {
        if send_msg(&SlaveMsg::Request).is_err() {
            return Ok(SessionEnd::Lost(executed));
        }
        // The master long-polls: this blocks (heartbeats still flowing)
        // until an assignment or completion arrives.
        let batch: Vec<(TaskId, TaskPayload)> = match reader.next_msg::<MasterMsg>() {
            Ok(Some(MasterMsg::Tasks { tasks })) => tasks,
            Ok(Some(MasterMsg::Done)) => return Ok(SessionEnd::Done(executed)),
            Ok(Some(MasterMsg::Error { message })) => return Err(invalid(message)),
            Ok(Some(MasterMsg::Registered { .. })) => {
                return Err(invalid("unexpected registered message mid-session"))
            }
            Ok(None) => return Ok(SessionEnd::Lost(executed)),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            Err(_) => return Ok(SessionEnd::Lost(executed)),
        };
        // The paper's start–scan–finish, task by task.
        for (task, payload) in batch {
            if send_msg(&SlaveMsg::Started { task }).is_err() {
                return Ok(SessionEnd::Lost(executed));
            }
            let result = pe.scan(db, &payload)?;
            if send_msg(&SlaveMsg::Finished { task, result }).is_err() {
                return Ok(SessionEnd::Lost(executed));
            }
            executed += 1;
        }
    }
}
