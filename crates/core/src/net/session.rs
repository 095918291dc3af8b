//! Master-side handling of slave connections, as endpoints on the shared
//! pool-drive loop.
//!
//! [`serve_slaves`] turns every connection an [`Acceptor`] hands it into
//! one session: `serve_connection` performs the versioned handshake (the
//! protocol, then the slave's [`Identity`] digest — database and scoring),
//! admits the slave into the [`PePool`], then splits the socket: a reader
//! thread turns incoming lines into [`PeEvent`]s and watches the liveness
//! deadline, while the calling thread runs [`drive`] with a
//! [`RemoteEndpoint`] that writes scheduling decisions back out. The drive
//! loop is *the same function* a local fleet thread runs — the transport
//! is the only difference.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use super::accept::Acceptor;
use super::wire::{
    decode, invalid, liveness_quantum, send_within, LineReader, MasterMsg, SlaveMsg, Wire,
};
use super::NetConfig;
use crate::pool::{
    drive, Identity, PeCommand, PeEndpoint, PeEvent, PePool, PoolOwner, TaskPayload,
};
use crate::task::{PeId, TaskId};

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
    // A register of another protocol version fails to decode with an error
    // naming both versions.
    let opened = Instant::now();
    let first = loop {
        match reader.read_line() {
            Ok(Some(l)) => break decode::<SlaveMsg>(l).map_err(|e| e.to_string()),
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
    // The identity is snapshotted, not matched on under the guard: the
    // refusal below blocks on a socket write.
    let want = pool.lock().owner.identity().clone();
    let (name, gcups) = match first.and_then(|msg| vet(msg, &want)) {
        Ok(registration) => registration,
        Err(message) => {
            let _ = send_within(&mut writer, &MasterMsg::Error { message }, line_timeout);
            return;
        }
    };

    let pe = pool.admit(&name, gcups, true);
    if send_within(
        &mut writer,
        &MasterMsg::Registered { pe_id: pe },
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
            shipped: HashMap::new(),
        };
        drive(pool, pe, &mut endpoint);
    });
}

/// Whether the opening message may join a pool that wants the PEs to hold
/// `want`: its name and speed prior — or why not.
fn vet(msg: SlaveMsg, want: &Identity) -> Result<(String, f64), String> {
    match msg {
        SlaveMsg::Register {
            name,
            gcups,
            digest,
        } if digest == want.digest => Ok((name, gcups)),
        SlaveMsg::Register { digest, .. } => Err(format!(
            "database or scoring mismatch: master digest {:016x} ({}), slave digest \
             {digest:016x}; a slave must load the master's database with its \
             --matrix and --gap-* options",
            want.digest, want.scoring
        )),
        _ => Err("expected a register message first".to_string()),
    }
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
    /// Query count of every payload delivered and not yet reported
    /// finished: a report must carry exactly one entry per query.
    shipped: HashMap<TaskId, usize>,
}

impl RemoteEndpoint {
    /// `(task, payload)` pairs for `tasks`, recorded as shipped. A task
    /// finished or taken elsewhere since it was assigned to `pe` is
    /// skipped, as a local PE skips it: its owner may already have
    /// replied and forgotten it. `Err` when a task `pe` still holds is no
    /// longer worth running (e.g. its database generation was swapped
    /// out) — the drive loop then tears the session down and the tasks
    /// requeue to PEs that can still run them.
    fn ship<S: PoolOwner>(
        &mut self,
        pool: &PePool<S>,
        pe: PeId,
        tasks: &[TaskId],
    ) -> io::Result<Vec<(TaskId, TaskPayload)>> {
        let mut shipped = Vec::with_capacity(tasks.len());
        for &t in tasks {
            match pool.payload(t) {
                Some(payload) => {
                    self.shipped.insert(t, payload.queries.len());
                    shipped.push((t, payload));
                }
                None if !pool.still_runnable(pe, t) => {}
                None => return Err(invalid(format!("task {t} has no payload to ship"))),
            }
        }
        Ok(shipped)
    }

    /// Why a `finished` report does not answer what was shipped, if it
    /// does not.
    fn misreport(&mut self, event: &PeEvent) -> Option<String> {
        let PeEvent::Finished { task, result } = event else {
            return None;
        };
        let got = result.queries.len();
        match self.shipped.remove(task) {
            Some(want) if want == got => None,
            Some(want) => Some(format!(
                "task {task} finished with {got} per-query results for {want} queries"
            )),
            None => Some(format!("task {task} finished but was not assigned")),
        }
    }
}

impl<S: PoolOwner> PeEndpoint<S> for RemoteEndpoint {
    fn next_event(&mut self, _pool: &PePool<S>, _pe: PeId) -> PeEvent {
        let event = match self.rx.recv() {
            Ok(event) => event,
            // Reader hung up; it has already torn the member down (the
            // disconnect is idempotent).
            Err(_) => {
                return PeEvent::Gone {
                    suspected_dead: false,
                }
            }
        };
        match self.misreport(&event) {
            None => event,
            Some(message) => {
                // Told why, then dropped: its held tasks requeue.
                let _ = send_within(
                    &mut self.writer,
                    &MasterMsg::Error { message },
                    self.line_timeout,
                );
                PeEvent::Gone {
                    suspected_dead: false,
                }
            }
        }
    }

    fn deliver(&mut self, pool: &PePool<S>, pe: PeId, cmd: &PeCommand) -> io::Result<()> {
        // An assignment whose every task was skipped goes out as an empty
        // batch: the slave asks again and the drive loop long-polls anew.
        let msg = match cmd {
            PeCommand::Tasks(tasks) => MasterMsg::Tasks {
                tasks: self.ship(pool, pe, tasks)?,
            },
            PeCommand::Execute(task) => match self.ship(pool, pe, &[*task])?.pop() {
                Some((task, desc)) => MasterMsg::Execute { task, desc },
                None => MasterMsg::Tasks { tasks: Vec::new() },
            },
            PeCommand::Done => MasterMsg::Done,
        };
        send_within(&mut self.writer, &msg, self.line_timeout)
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    use super::*;
    use crate::policy::Policy;
    use crate::pool::{Deferred, QueryPayload, TaskResult};
    use crate::sched::{MasterConfig, Scheduler};
    use swhybrid_device::task::TaskSpec;

    /// An owner that forgets a task once it finishes, as the daemon does
    /// once the task's group has replied.
    struct Forgetful {
        payloads: HashMap<TaskId, TaskPayload>,
        identity: Identity,
    }

    impl PoolOwner for Forgetful {
        fn on_finished(
            &mut self,
            _master: &mut Scheduler,
            _pe: PeId,
            task: TaskId,
            _result: TaskResult,
            _was_first: bool,
            _now: f64,
        ) -> Option<Deferred> {
            self.payloads.remove(&task);
            None
        }

        fn task_payload(&self, _master: &Scheduler, task: TaskId) -> Option<TaskPayload> {
            self.payloads.get(&task).cloned()
        }

        fn identity(&self) -> &Identity {
            &self.identity
        }
    }

    /// A two-task pool under self-scheduling with adjustment, a local PE
    /// and a remote one admitted. A task takes its PE minutes, so an
    /// executing one is always worth a replica.
    fn pool() -> (PePool<Forgetful>, PeId, PeId) {
        let specs = (0..2)
            .map(|id| TaskSpec {
                id,
                query_len: 1_000,
                queries: 1,
                db_residues: 1_000_000_000,
                db_sequences: 1,
            })
            .collect();
        let config = MasterConfig {
            policy: Policy::SelfScheduling,
            adjustment: true,
            dispatch: Default::default(),
        };
        let payload = |t: usize| TaskPayload {
            queries: vec![QueryPayload {
                query: vec![t as u8; 4],
                top_n: 3,
            }],
            shard: (0, 1),
        };
        let owner = Forgetful {
            payloads: (0..2).map(|t| (t, payload(t))).collect(),
            identity: Identity {
                digest: 0,
                scoring: String::new(),
            },
        };
        let pool = PePool::new(Scheduler::new(specs, config), owner, 2);
        let local = pool.admit("local", 1.0, false);
        let remote = pool.admit("remote", 1.0, true);
        (pool, local, remote)
    }

    /// A remote endpoint writing to a socket, and the slave's end of it.
    fn endpoint() -> (RemoteEndpoint, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let slave = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (writer, _) = listener.accept().unwrap();
        let endpoint = RemoteEndpoint {
            rx: mpsc::channel().1,
            writer,
            line_timeout: Some(Duration::from_secs(5)),
            shipped: HashMap::new(),
        };
        (endpoint, BufReader::new(slave))
    }

    fn next_line(slave: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        slave.read_line(&mut line).unwrap();
        line
    }

    /// Regression: a replica assigned to a slave whose task finished on
    /// another PE before the assignment was written had no payload left,
    /// and the session of a healthy slave was torn down for it. The slave
    /// now gets an empty batch and asks again.
    #[test]
    fn a_task_finished_before_it_is_shipped_is_skipped() {
        let (pool, local, remote) = pool();
        let (mut endpoint, mut slave) = endpoint();
        assert_eq!(pool.next_assignment(local), Some(PeCommand::Tasks(vec![0])));
        assert_eq!(
            pool.next_assignment(remote),
            Some(PeCommand::Tasks(vec![1]))
        );
        assert!(pool.task_started(remote, 1));
        assert!(pool.task_started(local, 0));
        // The remote's request: nothing ready, so it replicates task 0 …
        let replica = pool.next_assignment(remote).unwrap();
        assert_eq!(replica, PeCommand::Execute(0));
        // … which the local PE finishes before the replica goes out.
        assert!(pool.task_finished(local, 0, TaskResult::default()));
        assert!(pool.payload(0).is_none());
        endpoint.deliver(&pool, remote, &replica).unwrap();
        assert_eq!(
            next_line(&mut slave).trim_end(),
            r#"{"type":"tasks","tasks":[],"descs":[]}"#
        );
        assert!(endpoint.shipped.is_empty());
        // A batch ships what is still runnable and skips the rest.
        endpoint
            .deliver(&pool, remote, &PeCommand::Tasks(vec![0, 1]))
            .unwrap();
        let line = next_line(&mut slave);
        assert!(line.contains(r#""tasks":[1]"#), "{line}");
        assert_eq!(endpoint.shipped.keys().copied().collect::<Vec<_>>(), [1]);
    }

    /// A task the slave still holds but cannot run (its database was
    /// replaced) still tears the session down, so the task requeues.
    #[test]
    fn a_held_task_without_a_payload_is_an_error() {
        let (pool, local, remote) = pool();
        let (mut endpoint, _slave) = endpoint();
        assert_eq!(pool.next_assignment(local), Some(PeCommand::Tasks(vec![0])));
        let batch = pool.next_assignment(remote).unwrap();
        assert_eq!(batch, PeCommand::Tasks(vec![1]));
        pool.lock().owner.payloads.remove(&1);
        let err = endpoint.deliver(&pool, remote, &batch).unwrap_err();
        assert!(err.to_string().contains("task 1 has no payload"), "{err}");
    }
}
