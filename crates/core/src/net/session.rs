//! Master-side handling of slave connections, as endpoints on the shared
//! pool-drive loop.
//!
//! [`serve_slaves`] turns every connection an [`Acceptor`] hands it into
//! one session: `serve_connection` performs the versioned handshake
//! (protocol and — for serve-mode slaves — database digest), admits the
//! slave into the [`PePool`], then splits the socket: a reader thread
//! turns incoming lines into [`PeEvent`]s and watches the liveness
//! deadline, while the calling thread runs [`drive`] with a
//! [`RemoteEndpoint`] that writes scheduling decisions back out. The drive
//! loop is *the same function* a local fleet thread runs — the transport
//! is the only difference.

use std::io;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use super::accept::Acceptor;
use super::wire::{
    decode, invalid, liveness_quantum, send_within, LineReader, MasterMsg, SlaveMsg, Wire,
    PROTOCOL_VERSION,
};
use super::NetConfig;
use crate::pool::{drive, PeCommand, PeEndpoint, PeEvent, PePool, PoolOwner, TaskPayload};
use crate::task::PeId;

/// Accept slaves on `acceptor` and serve each against `pool` until
/// [`Acceptor::stop`]; returns once every session has ended. A connection
/// over the session cap is refused with one `error` line.
pub fn serve_slaves<S: PoolOwner>(
    acceptor: &Acceptor,
    pool: &PePool<S>,
    net: &NetConfig,
) -> io::Result<()> {
    let refusal = MasterMsg::Error {
        message: "too many sessions on this port; try again later".to_string(),
    };
    acceptor.run(&refusal.to_json().to_string(), |stream| {
        serve_connection(stream, pool, net)
    })
}

/// Serve one slave connection against `pool` until the slave retires,
/// fails, or the pool aborts. Blocks for the lifetime of the connection.
fn serve_connection<S: PoolOwner>(stream: TcpStream, pool: &PePool<S>, net: &NetConfig) {
    // A slave that cannot take a line within the liveness deadline is dead
    // by the same definition as one that sends nothing for it: the failed
    // `deliver` tears the session down.
    let line_timeout = Some(net.slave_deadline);
    let quantum = liveness_quantum(net.slave_deadline);
    let Ok((mut reader, mut writer)) = LineReader::accepted(stream, quantum, net.slave_deadline)
    else {
        return;
    };

    // Handshake: the first line must arrive within the deadline and must
    // be an acceptable registration. Anything else is told why and frees
    // the socket WITHOUT consuming any server state — a connection that
    // fails its handshake never counts against the registration barrier.
    let opened = Instant::now();
    let first = loop {
        match reader.read_line() {
            Ok(Some(l)) => break decode::<SlaveMsg>(l).map_err(|_| NOT_A_REGISTER.to_string()),
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                if pool.lock().abort().is_some() || opened.elapsed() > net.slave_deadline {
                    return;
                }
            }
            // An over-long or non-UTF-8 line.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => break Err(e.to_string()),
            Ok(None) | Err(_) => return,
        }
    };
    // The digest is snapshotted, not matched on under the guard: the
    // refusal below blocks on a socket write.
    let master_digest = pool.lock().owner.db_digest();
    let (name, gcups, wants_descs) = match first.and_then(|msg| vet(msg, master_digest)) {
        Ok(registration) => registration,
        Err(message) => {
            let _ = send_within(&mut writer, &MasterMsg::Error { message }, line_timeout);
            return;
        }
    };

    let pe = pool.admit(&name, gcups, true);
    if send_within(
        &mut writer,
        &MasterMsg::Registered {
            pe_id: pe,
            proto: PROTOCOL_VERSION,
        },
        line_timeout,
    )
    .is_err()
    {
        pool.disconnect(pe, false);
        return;
    }

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        // `tx` MOVES into the reader thread: when the reader exits, the
        // channel hangs up, so a drive thread blocked in `rx.recv()` is
        // guaranteed to wake (as `Gone`) rather than deadlock the scope.
        let reader = &mut reader;
        scope.spawn(move || reader_loop(reader, pool, pe, tx, net));
        let mut endpoint = RemoteEndpoint {
            rx,
            writer,
            line_timeout,
            wants_descs,
        };
        drive(pool, pe, &mut endpoint);
    });
}

const NOT_A_REGISTER: &str = "expected a register message first";

/// Whether the opening message may join a pool whose owner has
/// `master_digest`: its name, its speed prior and whether it is a
/// serve-mode slave (every assignment carries its payload) — or why not.
fn vet(msg: SlaveMsg, master_digest: Option<u64>) -> Result<(String, f64, bool), String> {
    let SlaveMsg::Register {
        name,
        gcups,
        proto,
        db_digest,
    } = msg
    else {
        return Err(NOT_A_REGISTER.to_string());
    };
    if proto != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch: master speaks v{PROTOCOL_VERSION}, slave speaks v{proto}"
        ));
    }
    // Digest discipline: a serve-mode master ships self-describing tasks
    // and requires proof the slave scans the same database; a batch master
    // schedules by task id and has nothing to check a digest against.
    let wants_descs = match (master_digest, db_digest) {
        (None, None) => false,
        (None, Some(_)) => {
            return Err(
                "this master schedules tasks by id; register without a database digest".to_string(),
            )
        }
        (Some(_), None) => {
            return Err(
                "this master ships self-describing tasks; register with a database \
                        digest (serve-mode slave)"
                    .to_string(),
            )
        }
        (Some(want), Some(got)) if want != got => {
            return Err(format!(
                "database mismatch: master digest {want:016x}, slave digest {got:016x}"
            ))
        }
        (Some(_), Some(_)) => true,
    };
    Ok((name, gcups, wants_descs))
}

/// Reader half of one slave connection: turns wire messages into
/// [`PeEvent`]s and enforces the liveness deadline. On any terminal
/// condition it tears the member down *directly* (so a drive thread parked
/// in a long-poll wakes and unwinds) and returns, which drops the channel
/// sender — a drive thread blocked on the channel sees the hang-up too.
fn reader_loop<S: PoolOwner>(
    reader: &mut LineReader<TcpStream>,
    pool: &PePool<S>,
    pe: PeId,
    tx: mpsc::Sender<PeEvent>,
    net: &NetConfig,
) {
    let mut last_seen = Instant::now();
    loop {
        // Checked every iteration, not only on read timeouts: a slave that
        // heartbeats faster than the liveness quantum would otherwise keep
        // every read returning a line and starve the exit check — after a
        // `disconnect` elsewhere (shutdown, database swap) the reader must
        // still notice and unwind so the connection scope can close.
        {
            let g = pool.lock();
            if g.abort().is_some() || !g.is_open(pe) {
                drop(g);
                pool.disconnect(pe, false);
                return;
            }
        }
        match reader.read_line() {
            Ok(Some(line)) => {
                last_seen = Instant::now();
                let Ok(msg) = decode::<SlaveMsg>(line) else {
                    pool.disconnect(pe, false);
                    return;
                };
                let event = match msg {
                    SlaveMsg::Heartbeat => continue,
                    SlaveMsg::Request => PeEvent::NeedWork,
                    SlaveMsg::Started { task } => PeEvent::Started(task),
                    SlaveMsg::Finished { task, result } => PeEvent::Finished { task, result },
                    SlaveMsg::Register { .. } => {
                        // A registration mid-session is a protocol breach.
                        pool.disconnect(pe, false);
                        return;
                    }
                };
                if tx.send(event).is_err() {
                    // The drive loop already unwound.
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                if last_seen.elapsed() > net.slave_deadline {
                    // Nothing — not even a heartbeat — within the deadline:
                    // declare the slave dead and requeue its tasks.
                    pool.disconnect(pe, true);
                    return;
                }
            }
            Ok(None) | Err(_) => {
                pool.disconnect(pe, false);
                return;
            }
        }
    }
}

/// The TCP transport of one slave, as seen by the drive loop.
struct RemoteEndpoint {
    rx: mpsc::Receiver<PeEvent>,
    writer: TcpStream,
    /// How long one line to the slave may take.
    line_timeout: Option<Duration>,
    /// The slave registered serve-mode: every assignment must carry its
    /// self-describing payload.
    wants_descs: bool,
}

impl RemoteEndpoint {
    /// Fetch the wire payloads for `tasks` from the owner. `Err` when any
    /// task is no longer shippable (e.g. its database generation was
    /// swapped out) — the drive loop then tears the session down and the
    /// tasks requeue to PEs that can still run them.
    fn describe<S: PoolOwner>(
        &self,
        pool: &PePool<S>,
        tasks: &[crate::task::TaskId],
    ) -> io::Result<Vec<TaskPayload>> {
        let g = pool.lock();
        tasks
            .iter()
            .map(|&t| {
                g.owner
                    .task_payload(&g.master, t)
                    .ok_or_else(|| invalid(format!("task {t} has no shippable payload")))
            })
            .collect()
    }
}

impl<S: PoolOwner> PeEndpoint<S> for RemoteEndpoint {
    fn next_event(&mut self, _pool: &PePool<S>, _pe: PeId) -> PeEvent {
        match self.rx.recv() {
            Ok(event) => event,
            // Reader hung up; it has already torn the member down (the
            // disconnect is idempotent).
            Err(_) => PeEvent::Gone {
                suspected_dead: false,
            },
        }
    }

    fn deliver(&mut self, pool: &PePool<S>, _pe: PeId, cmd: &PeCommand) -> io::Result<()> {
        let msg = match cmd {
            PeCommand::Tasks(tasks) => MasterMsg::Tasks {
                tasks: tasks.clone(),
                descs: if self.wants_descs {
                    Some(self.describe(pool, tasks)?)
                } else {
                    None
                },
            },
            PeCommand::Execute(task) => MasterMsg::Execute {
                task: *task,
                desc: if self.wants_descs {
                    Some(self.describe(pool, &[*task])?.remove(0))
                } else {
                    None
                },
            },
            PeCommand::Done => MasterMsg::Done,
        };
        send_within(&mut self.writer, &msg, self.line_timeout)
    }
}
