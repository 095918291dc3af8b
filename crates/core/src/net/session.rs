//! Master-side handling of one slave connection, as an endpoint on the
//! shared pool-drive loop.
//!
//! [`serve_connection`] performs the versioned handshake (protocol and —
//! for serve-mode slaves — database digest), admits the slave into the
//! [`PePool`], then splits the socket: a reader thread turns incoming
//! lines into [`PeEvent`]s and watches the liveness deadline, while the
//! calling thread runs [`drive`] with a [`RemoteEndpoint`] that writes
//! scheduling decisions back out. The drive loop is *the same function*
//! a local fleet thread runs — the transport is the only difference.

use std::io::{self, BufWriter};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Instant;

use super::wire::{
    decode, invalid, liveness_quantum, send, LineReader, MasterMsg, QueryDesc, ReadOutcome,
    SlaveMsg, TaskDesc, WireHit, PROTOCOL_VERSION,
};
use super::NetConfig;
use crate::pool::{
    drive, FusedQueryResult, PeCommand, PeEndpoint, PeEvent, PePool, PoolOwner, TaskResult,
};
use crate::task::PeId;

/// Serve one slave connection against `pool` until the slave retires,
/// fails, or the pool aborts. Blocks for the lifetime of the connection;
/// callers spawn it per accepted socket.
pub fn serve_connection<S: PoolOwner>(stream: TcpStream, pool: &PePool<S>, net: &NetConfig) {
    stream.set_nodelay(true).ok();
    let quantum = liveness_quantum(net.slave_deadline);
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let Ok(mut reader) = LineReader::new(stream, quantum) else {
        return;
    };
    let mut writer = BufWriter::new(writer_stream);

    // Handshake: the first line must arrive within the deadline and must
    // be a registration. Anything else frees the socket WITHOUT consuming
    // any server state — a connection that fails its handshake never
    // counts against the registration barrier.
    let opened = Instant::now();
    let first = loop {
        match reader.read_line() {
            Ok(ReadOutcome::Line(l)) => break l,
            Ok(ReadOutcome::Eof) | Err(_) => return,
            Ok(ReadOutcome::Timeout) => {
                if pool.lock().abort().is_some() || opened.elapsed() > net.slave_deadline {
                    return;
                }
            }
        }
    };
    let refuse = |writer: &mut BufWriter<TcpStream>, message: String| {
        let _ = send(writer, &MasterMsg::Error { message });
    };
    let (name, gcups, slave_digest) = match decode::<SlaveMsg>(&first) {
        Ok(SlaveMsg::Register {
            name,
            gcups,
            proto,
            db_digest,
        }) => {
            if proto != PROTOCOL_VERSION {
                refuse(
                    &mut writer,
                    format!(
                        "protocol version mismatch: master speaks v{PROTOCOL_VERSION}, \
                         slave speaks v{proto}"
                    ),
                );
                return;
            }
            (name, gcups, db_digest)
        }
        _ => {
            refuse(&mut writer, "expected a register message first".to_string());
            return;
        }
    };
    // Digest discipline: a serve-mode master ships self-describing tasks
    // and requires proof the slave scans the same database; a batch master
    // schedules by task id and has nothing to check a digest against.
    // Snapshot the digest first: a `match` on `pool.lock().…` would keep
    // the guard alive across every arm, including the refusal paths that
    // block on socket writes.
    let master_digest = pool.lock().owner.db_digest();
    let wants_descs = match (master_digest, slave_digest) {
        (None, None) => false,
        (None, Some(_)) => {
            refuse(
                &mut writer,
                "this master schedules tasks by id; register without a database digest".to_string(),
            );
            return;
        }
        (Some(_), None) => {
            refuse(
                &mut writer,
                "this master ships self-describing tasks; register with a database digest \
                 (serve-mode slave)"
                    .to_string(),
            );
            return;
        }
        (Some(want), Some(got)) => {
            if want != got {
                refuse(
                    &mut writer,
                    format!(
                        "database mismatch: master digest {want:016x}, slave digest {got:016x}"
                    ),
                );
                return;
            }
            true
        }
    };

    let pe = pool.admit(&name, gcups, true);
    if send(
        &mut writer,
        &MasterMsg::Registered {
            pe_id: pe,
            proto: PROTOCOL_VERSION,
        },
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
            wants_descs,
        };
        drive(pool, pe, &mut endpoint);
    });
}

/// Reader half of one slave connection: turns wire messages into
/// [`PeEvent`]s and enforces the liveness deadline. On any terminal
/// condition it tears the member down *directly* (so a drive thread parked
/// in a long-poll wakes and unwinds) and returns, which drops the channel
/// sender — a drive thread blocked on the channel sees the hang-up too.
fn reader_loop<S: PoolOwner>(
    reader: &mut LineReader,
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
            Ok(ReadOutcome::Line(line)) => {
                last_seen = Instant::now();
                let Ok(msg) = decode::<SlaveMsg>(&line) else {
                    pool.disconnect(pe, false);
                    return;
                };
                let event = match msg {
                    SlaveMsg::Heartbeat => continue,
                    SlaveMsg::Request => PeEvent::NeedWork,
                    SlaveMsg::Started { task } => PeEvent::Started(task),
                    SlaveMsg::Finished {
                        task,
                        gcups,
                        hits,
                        kernels,
                        fused,
                    } => PeEvent::Finished {
                        task,
                        result: TaskResult {
                            gcups: Some(gcups),
                            hits: hits.into_iter().map(WireHit::into_hit).collect(),
                            cells: kernels.map(|k| k.cells_computed).unwrap_or(0),
                            kernels,
                            fused: fused.map(|per_query| {
                                per_query
                                    .into_iter()
                                    .map(|f| FusedQueryResult {
                                        cells: f.kernels.map(|k| k.cells_computed).unwrap_or(0),
                                        hits: f.hits.into_iter().map(WireHit::into_hit).collect(),
                                        kernels: f.kernels,
                                    })
                                    .collect()
                            }),
                        },
                    },
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
            Ok(ReadOutcome::Eof) | Err(_) => {
                pool.disconnect(pe, false);
                return;
            }
            Ok(ReadOutcome::Timeout) => {
                if last_seen.elapsed() > net.slave_deadline {
                    // Nothing — not even a heartbeat — within the deadline:
                    // declare the slave dead and requeue its tasks.
                    pool.disconnect(pe, true);
                    return;
                }
            }
        }
    }
}

/// The TCP transport of one slave, as seen by the drive loop.
struct RemoteEndpoint {
    rx: mpsc::Receiver<PeEvent>,
    writer: BufWriter<TcpStream>,
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
    ) -> io::Result<Vec<TaskDesc>> {
        let g = pool.lock();
        tasks
            .iter()
            .map(|&t| {
                g.owner
                    .task_payload(&g.master, t)
                    .map(|p| TaskDesc {
                        queries: p
                            .queries
                            .into_iter()
                            .map(|q| QueryDesc {
                                query: q.query,
                                top_n: q.top_n,
                            })
                            .collect(),
                        shard: p.shard,
                    })
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
        send(&mut self.writer, &msg)
    }
}
