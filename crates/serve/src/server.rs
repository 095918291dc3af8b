//! The TCP front end: a newline-delimited JSON daemon over one
//! [`QueryService`].
//!
//! `swhybrid_core::net`'s [`Acceptor`] blocks in `accept`, caps the live
//! connections (`MAX_SESSIONS`; one over gets a `too_many_connections`
//! line) and runs each on a scoped thread, which reads through the one
//! bounded framer ([`LineReader`]): a line over `MAX_LINE` or not UTF-8 is
//! answered `bad_request` and the connection closed.
//!
//! Replies go through a shared, mutex-guarded write half so completion
//! callbacks (which fire on PE worker threads) and inline replies
//! (status/stats/cancel) never interleave bytes. Each reply line gets
//! [`CLIENT_WRITE_TIMEOUT`] in all ([`write_line`]): a client that stops
//! reading, or drains a byte now and then, costs one worker one timeout,
//! then its connection is shut down and later replies to it fail at once.
//!
//! A `search` result is asynchronous with respect to other verbs on the
//! same connection; `tag`/`job` correlate. Note that a cache-served search
//! completes synchronously inside submission, so with `"ack":true` its
//! result line can precede the ack — clients must dispatch on `type`,
//! not on line order.
//!
//! `shutdown` flips the daemon into drain mode: new admissions are
//! rejected, queued and running queries still deliver their results
//! (sockets stay writable until every completion has fired), then
//! [`ServeDaemon::run`] returns.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swhybrid_align::scoring::Scoring;
use swhybrid_core::net::{write_line, Acceptor, LineReader};
use swhybrid_json::Json;
use swhybrid_seq::DbSnapshot;
use swhybrid_store::{DbFile, StoreError, Verify};

use crate::protocol::{error_reply, hits_to_json, parse_request, ReloadRequest, Request};
use crate::service::{
    CancelOutcome, Completion, JobStatus, QueryService, SearchReply, ServiceConfig,
};

/// How long one reply line may take into a client's socket before the
/// client counts as gone. Only a client that stopped reading or reads
/// slowly (its window and our send buffer both full) ever waits, and the
/// waiter is a PE worker losing scan time: 2 s, the patience a silent
/// slave gets by default (`NetConfig::slave_deadline`).
pub const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How often an idle connection looks at the stop flag.
const READ_QUANTUM: Duration = Duration::from_millis(200);

/// Shared write half of one connection.
type ConnWriter = Arc<Mutex<TcpStream>>;

/// A bound-but-not-yet-running daemon.
pub struct ServeDaemon {
    listener: Acceptor,
    service: QueryService,
}

impl ServeDaemon {
    /// Bind the listener and start the query service over a loaded
    /// database (PE workers spawn now; the socket accepts after
    /// [`ServeDaemon::run`]).
    pub fn bind_snapshot(
        addr: impl ToSocketAddrs,
        db: DbSnapshot,
        scoring: Scoring,
        config: ServiceConfig,
    ) -> io::Result<ServeDaemon> {
        let listener = Acceptor::bind(addr)?;
        Ok(ServeDaemon {
            listener,
            service: QueryService::with_snapshot(db, scoring, config),
        })
    }

    /// The bound address (use with port 0 to discover the chosen port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Additionally accept remote TCP slaves on `addr` (the
    /// `--listen-slaves` mode): remote processes join the same scheduling
    /// pool as the local PE workers and serve shard scans until they
    /// disconnect or the daemon shuts down. Returns the bound address.
    pub fn listen_slaves(
        &self,
        addr: impl ToSocketAddrs,
        net: swhybrid_core::net::NetConfig,
    ) -> io::Result<SocketAddr> {
        self.service.listen_slaves(addr, net)
    }

    /// Serve until a client sends `shutdown`, then drain every in-flight
    /// query and return.
    pub fn run(self) -> io::Result<()> {
        let ServeDaemon { listener, service } = self;
        let next_client = AtomicU64::new(0);
        let refusal = error_reply(
            "request",
            "too_many_connections",
            "connection limit reached; try again later",
            None,
        );
        let served = listener.run(&refusal.to_string(), |stream| {
            let client = next_client.fetch_add(1, Ordering::Relaxed);
            handle_conn(&service, stream, client, &listener)
        });
        service.shutdown();
        served
    }
}

/// One connection: read lines, dispatch verbs, until EOF or shutdown.
fn handle_conn(service: &QueryService, stream: TcpStream, client: u64, port: &Acceptor) {
    // The quantum is how a reader notices a shutdown initiated on another
    // connection.
    let Ok((mut reader, writer)) = LineReader::accepted(stream, READ_QUANTUM, CLIENT_WRITE_TIMEOUT)
    else {
        return;
    };
    let writer: ConnWriter = Arc::new(Mutex::new(writer));
    while !port.stopped() {
        match reader.read_line() {
            Ok(Some(line)) => {
                let line = line.trim();
                if !line.is_empty() && handle_request(service, line, client, &writer, port) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
            // An over-long or non-UTF-8 line: the framer cannot resume
            // after it, so say why and hang up.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let reason = e.to_string();
                write_json(
                    &writer,
                    &error_reply("request", "bad_request", &reason, None),
                );
                break;
            }
            Ok(None) | Err(_) => break,
        }
    }
}

/// Dispatch one request line and write its inline reply, if it has one
/// (a `search` without `ack` has only its asynchronous result). Returns
/// whether to close the connection.
fn handle_request(
    service: &QueryService,
    line: &str,
    client: u64,
    writer: &ConnWriter,
    port: &Acceptor,
) -> bool {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(reason) => {
            write_json(
                writer,
                &error_reply("request", "bad_request", &reason, None),
            );
            return false;
        }
    };
    let shutdown = req == Request::Shutdown;
    let reply = match req {
        Request::Search(s) => match service.encode_query(s.query.as_bytes()) {
            Err(e) => Some(error_reply("search", "bad_query", &e, s.tag.as_deref())),
            Ok(codes) => {
                let w = Arc::clone(writer);
                let completion: Completion = Box::new(move |reply| {
                    write_json(&w, &result_to_json(&reply));
                });
                let tag = s.tag.clone();
                match service.submit(codes, s.top_n, s.deadline_ms, tag, client, completion) {
                    Ok(job) => s.ack.then(|| {
                        Json::obj(vec![
                            ("ok", Json::Bool(true)),
                            ("type", Json::str("ack")),
                            ("job", Json::Num(job as f64)),
                        ])
                    }),
                    Err(e) => Some(error_reply(
                        "search",
                        e.code(),
                        &e.reason(),
                        s.tag.as_deref(),
                    )),
                }
            }
        },
        Request::Status { job } => Some(match service.status(job) {
            JobStatus::Unknown => {
                error_reply("status", "unknown_job", &format!("no job {job}"), None)
            }
            JobStatus::Queued { position } => status_reply(
                job,
                "queued",
                vec![("position", Json::Num(position as f64))],
            ),
            JobStatus::Running {
                shards_done,
                shards_total,
            } => status_reply(
                job,
                "running",
                vec![
                    ("shards_done", Json::Num(shards_done as f64)),
                    ("shards_total", Json::Num(shards_total as f64)),
                ],
            ),
            JobStatus::Done { cancelled, cached } => status_reply(
                job,
                "done",
                vec![
                    ("cancelled", Json::Bool(cancelled)),
                    ("cached", Json::Bool(cached)),
                ],
            ),
            // The id was issued but its terminal record aged out of the
            // registry: a well-formed answer, not an error.
            JobStatus::Expired => status_reply(job, "expired", Vec::new()),
        }),
        Request::Cancel { job } => Some(match service.cancel(job) {
            CancelOutcome::Unknown => {
                error_reply("cancel", "unknown_job", &format!("no job {job}"), None)
            }
            outcome => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("type", Json::str("cancel")),
                ("job", Json::Num(job as f64)),
                (
                    "outcome",
                    Json::str(match outcome {
                        CancelOutcome::Cancelled => "cancelled",
                        _ => "already_done",
                    }),
                ),
            ]),
        }),
        Request::Stats => Some(service.stats()),
        // Load and validate the new generation entirely off the pool lock —
        // concurrent queries keep flowing against the old snapshot; the
        // swap itself is one pointer replacement.
        Request::Reload(r) => Some(match load_reload_snapshot(&r, service.scoring()) {
            Ok((snapshot, source)) => {
                let name = snapshot.name().to_string();
                let sequences = snapshot.len();
                let residues = snapshot.total_residues();
                let digest = snapshot.digest();
                let generation = service.swap_snapshot(snapshot);
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("type", Json::str("reload")),
                    ("source", Json::str(source)),
                    ("name", Json::str(&name)),
                    ("generation", Json::Num(generation as f64)),
                    ("sequences", Json::Num(sequences as f64)),
                    ("residues", Json::Num(residues as f64)),
                    ("digest", Json::str(format!("{digest:016x}"))),
                ])
            }
            Err((code, reason)) => error_reply("reload", code, &reason, None),
        }),
        Request::Shutdown => {
            service.begin_drain();
            Some(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("type", Json::str("shutdown")),
                ("draining", Json::Bool(true)),
            ]))
        }
    };
    if let Some(reply) = reply {
        write_json(writer, &reply);
    }
    if shutdown {
        port.stop();
    }
    shutdown
}

/// Load the new database generation for a `reload` request through the
/// one loader: a `.swdb` store (optionally Full-verified) or a FASTA,
/// under the daemon's scoring alphabet. A failure leaves the daemon
/// exactly as it was — the error names the source, and nothing has been
/// swapped.
fn load_reload_snapshot(
    r: &ReloadRequest,
    scoring: &Scoring,
) -> Result<(DbSnapshot, &'static str), (&'static str, String)> {
    let (file, source, bad_source) = if let Some(path) = &r.store {
        let verify = if r.verify {
            Verify::Full
        } else {
            Verify::Quick
        };
        (DbFile::Store(path, verify), "store", "bad_store")
    } else if let Some(path) = &r.fasta {
        (DbFile::Fasta(path), "fasta", "bad_fasta")
    } else {
        // parse_request guarantees one source; belt and braces.
        return Err(("bad_request", "reload needs a source".into()));
    };
    match file.load(scoring.matrix.alphabet) {
        Ok(snapshot) => Ok((snapshot, source)),
        Err(e) => {
            let code = match e {
                StoreError::AlphabetMismatch { .. } => "alphabet_mismatch",
                _ => bad_source,
            };
            Err((code, format!("{}: {e}", file.path())))
        }
    }
}

fn status_reply(job: u64, state: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("status")),
        ("job", Json::Num(job as f64)),
        ("state", Json::str(state)),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

/// A [`SearchReply`] as its wire result line.
pub fn result_to_json(reply: &SearchReply) -> Json {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("type".to_string(), Json::str("result")),
        ("job".to_string(), Json::Num(reply.job as f64)),
        ("cached".to_string(), Json::Bool(reply.cached)),
        ("cancelled".to_string(), Json::Bool(reply.cancelled)),
        ("generation".to_string(), Json::Num(reply.generation as f64)),
        ("cells".to_string(), Json::Num(reply.cells as f64)),
        ("elapsed_ms".to_string(), Json::Num(reply.elapsed_ms)),
        (
            "kernels".to_string(),
            swhybrid_core::net::kernels_to_json(&reply.kernels),
        ),
        ("hits".to_string(), hits_to_json(&reply.hits)),
    ];
    if let Some(tag) = &reply.tag {
        fields.push(("tag".to_string(), Json::str(tag)));
    }
    Json::Obj(fields)
}

/// Write one reply line, with one `write` when the socket has room.
/// IO errors are swallowed (a vanished or stalled client must not take the
/// daemon down) but end the connection: once shut down, its reader sees
/// EOF and every later reply fails at once instead of waiting out the
/// timeout again.
fn write_json(writer: &ConnWriter, json: &Json) {
    let mut line = json.to_string();
    line.push('\n');
    let mut w = writer.lock().expect("connection writer poisoned");
    if write_line(&mut *w, line.as_bytes(), Some(CLIENT_WRITE_TIMEOUT)).is_err() {
        let _ = w.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;
    use swhybrid_simd::engine::KernelStats;
    use swhybrid_simd::search::Hit;

    /// Reply lines exactly as the parent commit wrote them (recorded from
    /// it): the benchmark and every deployed client parse these bytes.
    #[test]
    fn reply_lines_are_byte_stable() {
        const HITS: &str = r#"[{"rank":1,"db_index":4,"id":"s4","score":99,"len":120},{"rank":2,"db_index":0,"id":"s\"0","score":-1,"len":50}]"#;
        const HEAD: &str = r#"{"ok":true,"type":"result","job":7,"cached":false,"cancelled":false,"generation":2,"cells":12345,"elapsed_ms":1.5,"kernels":{"striped_i8":5,"striped_i16":1,"striped_scalar":0,"interseq_i8":40,"interseq_i16":2,"interseq_scalar":0,"chunks_striped":1,"chunks_interseq":3,"cells_computed":12345},"hits":"#;
        let hit = |db_index, id: &str, score, subject_len| Hit {
            db_index,
            id: id.into(),
            score,
            subject_len,
        };
        let mut reply = SearchReply {
            job: 7,
            tag: Some("t-1".into()),
            cached: false,
            cancelled: false,
            generation: 2,
            cells: 12_345,
            elapsed_ms: 1.5,
            kernels: KernelStats {
                resolved_i8: 5,
                resolved_i16: 1,
                resolved_scalar: 0,
                interseq_i8: 40,
                interseq_i16: 2,
                interseq_scalar: 0,
                chunks_striped: 1,
                chunks_interseq: 3,
                cells_computed: 12_345,
            },
            hits: vec![hit(4, "s4", 99, 120), hit(0, "s\"0", -1, 50)],
        };
        assert_eq!(hits_to_json(&reply.hits).to_string(), HITS);
        assert_eq!(
            result_to_json(&reply).to_string(),
            format!(r#"{HEAD}{HITS},"tag":"t-1"}}"#)
        );
        reply.tag = None;
        assert_eq!(
            result_to_json(&reply).to_string(),
            format!("{HEAD}{HITS}}}")
        );
        assert_eq!(
            error_reply("request", "bad_request", "bad JSON: x", None).to_string(),
            r#"{"ok":false,"type":"request","error":"bad_request","reason":"bad JSON: x"}"#
        );
    }

    /// A peer that never reads: the write that finds the socket full waits
    /// out the timeout once; after it every write fails at once and the
    /// peer sees the connection end.
    #[test]
    fn a_full_socket_times_out_once_then_fails_fast() {
        let timeout = Duration::from_millis(200);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_write_timeout(Some(timeout)).unwrap();
        let writer: ConnWriter = Arc::new(Mutex::new(stream));

        // Shut down is observable: a raw write fails at once with EPIPE
        // (on a full but live socket it would wait and say `WouldBlock`).
        let dead = || {
            let probe = writer.lock().unwrap().write(b"\n");
            probe.is_err_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
        };
        let reply = Json::str("x".repeat(64 << 10));
        let started = Instant::now();
        let mut slowest = Duration::ZERO;
        while !dead() {
            let before = Instant::now();
            write_json(&writer, &reply);
            slowest = slowest.max(before.elapsed());
            assert!(started.elapsed() < Duration::from_secs(30), "never gave up");
        }
        // A partial write restarts the socket's timer once, no more.
        assert!(slowest < 3 * timeout, "one reply waited {slowest:?}");
        let before = Instant::now();
        for _ in 0..100 {
            write_json(&writer, &Json::Null);
        }
        assert!(before.elapsed() < timeout, "dead connection still waits");
        // The peer reads what was buffered, then the end — not a hang.
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let drained = io::copy(&mut &peer, &mut io::sink());
        assert!(
            !drained
                .as_ref()
                .is_err_and(|e| e.kind() == io::ErrorKind::WouldBlock),
            "{drained:?}"
        );
    }
}
