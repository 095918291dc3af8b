//! Where bytes become messages: the bounded line framer ([`LineReader`])
//! under the master's slave port, the daemon's client and slave ports, the
//! slave and the daemon client; the master/slave messages with the pool's
//! own types as their payloads; and the kernel-counter JSON shape shared
//! with the serve daemon's `stats` verb and the event log.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::pool::{QueryPayload, QueryResult, TaskPayload, TaskResult};
use crate::task::{PeId, TaskId};
use swhybrid_json::Json;
use swhybrid_simd::engine::KernelStats;
use swhybrid_simd::search::Hit;

/// Version of the wire protocol spoken by this build. Carried by both
/// halves of the `register` handshake and checked before anything else in
/// them, so a mismatched pair fails with an error naming both versions
/// instead of a parse failure. History:
///
/// * v1 — original protocol (no version field; absent parses as 1),
/// * v2 — `register` gained `proto` + optional `db_digest`, `registered`
///   gained `proto`, `tasks`/`execute` gained optional self-describing
///   payloads (`descs`/`desc`) for serve-mode slaves,
/// * v3 — self-describing payloads carry a fused *query batch*
///   (`queries`: `[{query, top_n}, …]`) instead of a single query, and
///   `finished` gained the matching optional per-query result list
///   (`fused`: `[{hits, kernels?}, …]`, paired positionally with the
///   batch),
/// * v4 — one slave kind: every assignment carries its payload (`descs`,
///   `desc`), every `register` its `digest` (database and scoring), and
///   `finished` carries only the per-query list (`queries`:
///   `[{hits, kernels}, …]`); the task-level hits and counters are
///   derived from it,
/// * v5 — a payload's `shard` names scan positions of the database's
///   stable length order (ascending length, ties in database order), no
///   longer database indices; the lines are v4's,
/// * v6 — no `execute` message: a task taken over from another PE or
///   replicated is a one-task `tasks` line, and every assignment lands at
///   the back of what the slave runs, in the order shipped.
pub const PROTOCOL_VERSION: u32 = 6;

/// Socket read quantum: deadlines are checked at this granularity.
pub(crate) fn liveness_quantum(deadline: Duration) -> Duration {
    (deadline / 4).clamp(Duration::from_millis(10), Duration::from_millis(100))
}

/// Messages from slave to master.
#[derive(Debug, Clone)]
pub enum SlaveMsg {
    /// First message on a connection (sent as [`PROTOCOL_VERSION`]).
    Register {
        /// Slave name.
        name: String,
        /// Theoretical GCUPS prior.
        gcups: f64,
        /// The slave's [`crate::pool::Identity`] digest: its database and
        /// scoring, which must be the master's.
        digest: u64,
    },
    /// Ask for work. The master holds the request open until it has an
    /// assignment (or the run is done) — there is no "ask again" reply.
    Request,
    /// Report that a task began executing.
    Started {
        /// The task.
        task: TaskId,
    },
    /// Report a completed task with its per-query hits and observed speed.
    Finished {
        /// The task.
        task: TaskId,
        /// What the slave produced. On the wire `gcups` is mandatory (a slave
        /// always measures).
        result: TaskResult,
    },
    /// Periodic liveness signal; carries no state.
    Heartbeat,
}

/// Messages from master to slave.
#[derive(Debug, Clone)]
pub enum MasterMsg {
    /// Registration accepted (sent as [`PROTOCOL_VERSION`]).
    Registered {
        /// The PE id assigned to this slave.
        pe_id: PeId,
    },
    /// Tasks to run, in execution order, each with its payload (on the
    /// wire: parallel `tasks` and `descs` arrays): a batch of fresh ones,
    /// or one taken over or replicated — the slave does not care which.
    Tasks {
        /// `(task id, payload)` pairs.
        tasks: Vec<(TaskId, TaskPayload)>,
    },
    /// Everything is finished; disconnect.
    Done,
    /// The peer spoke out of turn.
    Error {
        /// What went wrong.
        message: String,
    },
}

pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

pub(crate) fn field_str(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

pub(crate) fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

pub(crate) fn field_usize(v: &Json, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("field '{key}' is not a non-negative integer"))
}

fn field_array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field '{key}' is not an array"))
}

fn list_to_json<T: Wire>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(T::to_json).collect())
}

fn list_from_json<T: Wire>(v: &Json, key: &str) -> Result<Vec<T>, String> {
    field_array(v, key)?.iter().map(T::from_json).collect()
}

/// Check the `proto` field of a handshake half sent by `peer` to `me`
/// (pre-versioning peers omit it and are v1). It is read before any other
/// field, so an old peer is told about versions, not about a field its
/// protocol never had.
fn check_proto(v: &Json, me: &str, peer: &str) -> Result<(), String> {
    let proto = match v.get("proto") {
        None => 1,
        Some(p) => p
            .as_u64()
            .ok_or("field 'proto' is not a non-negative integer")?,
    };
    if proto != u64::from(PROTOCOL_VERSION) {
        return Err(format!(
            "protocol version mismatch: {me} speaks v{PROTOCOL_VERSION}, {peer} speaks v{proto}"
        ));
    }
    Ok(())
}

/// Kernel counters as a JSON object (the per-query `kernels` of a
/// `finished` message, and the serve daemon's `stats` reply).
pub fn kernels_to_json(k: &KernelStats) -> Json {
    Json::obj([
        ("striped_i8", Json::Num(k.resolved_i8 as f64)),
        ("striped_i16", Json::Num(k.resolved_i16 as f64)),
        ("striped_scalar", Json::Num(k.resolved_scalar as f64)),
        ("interseq_i8", Json::Num(k.interseq_i8 as f64)),
        ("interseq_i16", Json::Num(k.interseq_i16 as f64)),
        ("interseq_scalar", Json::Num(k.interseq_scalar as f64)),
        ("chunks_striped", Json::Num(k.chunks_striped as f64)),
        ("chunks_interseq", Json::Num(k.chunks_interseq as f64)),
        ("cells_computed", Json::Num(k.cells_computed as f64)),
    ])
}

/// Parse kernel counters serialised by [`kernels_to_json`].
pub fn kernels_from_json(v: &Json) -> Result<KernelStats, String> {
    let get = |key: &str| -> Result<u64, String> {
        field(v, key)?
            .as_u64()
            .ok_or_else(|| format!("kernel counter '{key}' is not a non-negative integer"))
    };
    Ok(KernelStats {
        resolved_i8: get("striped_i8")?,
        resolved_i16: get("striped_i16")?,
        resolved_scalar: get("striped_scalar")?,
        interseq_i8: get("interseq_i8")?,
        interseq_i16: get("interseq_i16")?,
        interseq_scalar: get("interseq_scalar")?,
        chunks_striped: get("chunks_striped")?,
        chunks_interseq: get("chunks_interseq")?,
        cells_computed: get("cells_computed")?,
    })
}

/// One wire message: a single JSON line in each direction.
pub trait Wire: Sized {
    /// The message as its JSON value.
    fn to_json(&self) -> Json;
    /// The message a JSON value holds, or why it holds none.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl Wire for Hit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("db_index", Json::Num(self.db_index as f64)),
            ("id", Json::str(self.id.clone())),
            ("score", Json::Num(self.score as f64)),
            ("subject_len", Json::Num(self.subject_len as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Hit, String> {
        Ok(Hit {
            db_index: field_usize(v, "db_index")?,
            id: field_str(v, "id")?,
            score: field(v, "score")?
                .as_i64()
                .ok_or("field 'score' is not an integer")? as i32,
            subject_len: field_usize(v, "subject_len")?,
        })
    }
}

impl Wire for QueryPayload {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "query",
                Json::Arr(self.query.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            ("top_n", Json::Num(self.top_n as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<QueryPayload, String> {
        let query = field_array(v, "query")?
            .iter()
            .map(|c| {
                c.as_u64()
                    .filter(|&n| n <= u8::MAX as u64)
                    .map(|n| n as u8)
                    .ok_or_else(|| "query residue is not a byte".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(QueryPayload {
            query,
            top_n: field_usize(v, "top_n")?,
        })
    }
}

/// The `descs`/`desc` payload of every assignment: a *batch* of queries
/// (length 1 for an unfused task), all scored against the shard in one
/// fused pass.
impl Wire for TaskPayload {
    fn to_json(&self) -> Json {
        Json::obj([
            ("queries", list_to_json(&self.queries)),
            (
                "shard",
                Json::Arr(vec![
                    Json::Num(self.shard.0 as f64),
                    Json::Num(self.shard.1 as f64),
                ]),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<TaskPayload, String> {
        let queries: Vec<QueryPayload> = list_from_json(v, "queries")?;
        if queries.is_empty() {
            return Err("field 'queries' is empty".to_string());
        }
        let [s, e] = field_array(v, "shard")? else {
            return Err("field 'shard' is not a [start, end) pair".to_string());
        };
        let bound = |j: &Json| {
            j.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| "shard bound is not a non-negative integer".to_string())
        };
        Ok(TaskPayload {
            queries,
            shard: (bound(s)?, bound(e)?),
        })
    }
}

/// One query's entry of a `finished` message.
impl Wire for QueryResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", list_to_json(&self.hits)),
            ("kernels", kernels_to_json(&self.kernels)),
        ])
    }

    fn from_json(v: &Json) -> Result<QueryResult, String> {
        Ok(QueryResult {
            hits: list_from_json(v, "hits")?,
            kernels: kernels_from_json(field(v, "kernels")?)?,
        })
    }
}

impl Wire for SlaveMsg {
    fn to_json(&self) -> Json {
        match self {
            SlaveMsg::Register {
                name,
                gcups,
                digest,
            } => Json::obj([
                ("type", Json::str("register")),
                ("name", Json::str(name.clone())),
                ("gcups", Json::Num(*gcups)),
                ("proto", Json::Num(PROTOCOL_VERSION as f64)),
                // A u64 does not survive a JSON number (53-bit f64
                // mantissa): the digest travels as 16 hex digits.
                ("digest", Json::str(format!("{digest:016x}"))),
            ]),
            SlaveMsg::Request => Json::obj([("type", Json::str("request"))]),
            SlaveMsg::Started { task } => Json::obj([
                ("type", Json::str("started")),
                ("task", Json::Num(*task as f64)),
            ]),
            SlaveMsg::Finished { task, result } => Json::obj([
                ("type", Json::str("finished")),
                ("task", Json::Num(*task as f64)),
                ("gcups", Json::Num(result.gcups.unwrap_or(0.0))),
                ("queries", list_to_json(&result.queries)),
            ]),
            SlaveMsg::Heartbeat => Json::obj([("type", Json::str("heartbeat"))]),
        }
    }

    fn from_json(v: &Json) -> Result<SlaveMsg, String> {
        match field_str(v, "type")?.as_str() {
            "register" => {
                check_proto(v, "master", "slave")?;
                Ok(SlaveMsg::Register {
                    name: field_str(v, "name")?,
                    gcups: field_f64(v, "gcups")?,
                    digest: u64::from_str_radix(&field_str(v, "digest")?, 16)
                        .map_err(|_| "field 'digest' is not a hex digest string")?,
                })
            }
            "request" => Ok(SlaveMsg::Request),
            "started" => Ok(SlaveMsg::Started {
                task: field_usize(v, "task")?,
            }),
            "finished" => Ok(SlaveMsg::Finished {
                task: field_usize(v, "task")?,
                result: TaskResult {
                    gcups: Some(field_f64(v, "gcups")?),
                    queries: list_from_json(v, "queries")?,
                },
            }),
            "heartbeat" => Ok(SlaveMsg::Heartbeat),
            other => Err(format!("unknown slave message type '{other}'")),
        }
    }
}

impl Wire for MasterMsg {
    fn to_json(&self) -> Json {
        match self {
            MasterMsg::Registered { pe_id } => Json::obj([
                ("type", Json::str("registered")),
                ("pe_id", Json::Num(*pe_id as f64)),
                ("proto", Json::Num(PROTOCOL_VERSION as f64)),
            ]),
            MasterMsg::Tasks { tasks } => Json::obj([
                ("type", Json::str("tasks")),
                (
                    "tasks",
                    Json::Arr(tasks.iter().map(|&(t, _)| Json::Num(t as f64)).collect()),
                ),
                (
                    "descs",
                    Json::Arr(tasks.iter().map(|(_, desc)| desc.to_json()).collect()),
                ),
            ]),
            MasterMsg::Done => Json::obj([("type", Json::str("done"))]),
            MasterMsg::Error { message } => Json::obj([
                ("type", Json::str("error")),
                ("message", Json::str(message.clone())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<MasterMsg, String> {
        match field_str(v, "type")?.as_str() {
            "registered" => {
                check_proto(v, "slave", "master")?;
                Ok(MasterMsg::Registered {
                    pe_id: field_usize(v, "pe_id")?,
                })
            }
            "tasks" => {
                let ids = field_array(v, "tasks")?;
                let descs: Vec<TaskPayload> = list_from_json(v, "descs")?;
                if descs.len() != ids.len() {
                    return Err(format!(
                        "task batch carries {} payloads for {} tasks",
                        descs.len(),
                        ids.len()
                    ));
                }
                let tasks = ids.iter().zip(descs).map(|(t, desc)| {
                    let t = t.as_u64().ok_or("task id is not a non-negative integer")?;
                    Ok::<_, String>((t as TaskId, desc))
                });
                Ok(MasterMsg::Tasks {
                    tasks: tasks.collect::<Result<_, _>>()?,
                })
            }
            "done" => Ok(MasterMsg::Done),
            "error" => Ok(MasterMsg::Error {
                message: field_str(v, "message")?,
            }),
            other => Err(format!("unknown master message type '{other}'")),
        }
    }
}

pub(crate) fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

pub(crate) fn send<W: Write, M: Wire>(writer: &mut W, msg: &M) -> io::Result<()> {
    send_within(writer, msg, None)
}

/// [`send`] with the whole line bounded by `timeout` (see [`write_line`]).
pub(crate) fn send_within<W: Write, M: Wire>(
    writer: &mut W,
    msg: &M,
    timeout: Option<Duration>,
) -> io::Result<()> {
    let mut line = msg.to_json().to_string();
    line.push('\n');
    write_line(writer, line.as_bytes(), timeout)?;
    writer.flush()
}

/// THE line writer of every port that answers a peer: the master's
/// session with a slave and the daemon's replies to a client.
///
/// `write_all`, except that once the line has taken `timeout` it fails
/// with [`io::ErrorKind::TimedOut`]. A socket's write timeout bounds one
/// `write` only, so under `write_all` a peer that drains a byte every so
/// often holds the writing thread — a PE worker, on the daemon — for as
/// long as it likes. Here the line is bounded: one `write` past the
/// deadline at most. The clock starts at the first short write, so a line
/// that leaves in one `write`, the usual case, costs nothing extra.
/// `None`: no bound beyond the writer's own.
pub fn write_line<W: Write + ?Sized>(
    writer: &mut W,
    mut line: &[u8],
    timeout: Option<Duration>,
) -> io::Result<()> {
    let mut deadline = None;
    while !line.is_empty() {
        match writer.write(line) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => line = &line[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        if line.is_empty() {
            break;
        }
        if let Some(timeout) = timeout {
            let now = Instant::now();
            if now >= *deadline.get_or_insert(now + timeout) {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
    }
    Ok(())
}

/// THE decoder of a peer's line: the message it holds, or an
/// [`io::ErrorKind::InvalidData`] error saying why it holds none.
pub fn decode<M: Wire>(line: &str) -> io::Result<M> {
    let v = Json::parse(line.trim()).map_err(|e| invalid(e.to_string()))?;
    M::from_json(&v).map_err(invalid)
}

/// Longest line any port accepts, newline excluded; a longer one is an
/// [`io::ErrorKind::InvalidData`] error and the connection is dropped.
/// The largest legitimate line is a `tasks` message: tasks × fused
/// queries × ≈ 4 bytes per residue (a code ≤ 24 and its comma).
/// The longest known protein (titin, ≈ 35,000 aa) is 140 KB that way, so
/// a batch of 8 tasks each fusing 4 of it is 4.5 MB; the usual ≤ 5,000-aa
/// queries make 0.6 MB. A `search` line is 1 byte per residue and a
/// `finished` line ≈ 80 bytes per hit. 16 MiB is ample.
pub const MAX_LINE: usize = 16 << 20;

/// Bytes asked of the source per `read`.
const READ_CHUNK: usize = 4096;

/// THE line framer: every port, the slave and the daemon client read
/// through it. (`BufReader::read_line` loses a partial line on a socket
/// timeout and bounds nothing.) It keeps partial input across timeouts,
/// scans each byte for the newline once however many reads deliver a
/// line, holds at most [`MAX_LINE`] + one read, and rejects non-UTF-8.
/// After an error the connection is to be dropped.
pub struct LineReader<R> {
    inner: R,
    /// `buf[start..]` is unconsumed input.
    buf: Vec<u8>,
    start: usize,
    /// `buf[start..scanned]` is known to hold no newline.
    scanned: usize,
}

impl LineReader<TcpStream> {
    /// The two halves of an accepted connection. `read_line` fails with
    /// [`io::ErrorKind::TimedOut`] whenever nothing arrives for `quantum`,
    /// so the session can watch a deadline or a stop flag and read on; a
    /// write that makes no progress for `write_timeout` fails, so a peer
    /// that stops reading cannot block its writer forever.
    pub fn accepted(
        stream: TcpStream,
        quantum: Duration,
        write_timeout: Duration,
    ) -> io::Result<(Self, TcpStream)> {
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        writer.set_write_timeout(Some(write_timeout))?;
        stream.set_read_timeout(Some(quantum))?;
        Ok((LineReader::new(stream), writer))
    }
}

impl<R: Read> LineReader<R> {
    /// Read lines off any byte source.
    pub fn new(inner: R) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
        }
    }

    /// The next line (`\n` or `\r\n` stripped, valid until the next
    /// read), or `None` at a clean end of stream. A source that times out
    /// fails with [`io::ErrorKind::TimedOut`] and loses nothing: read again.
    pub fn read_line(&mut self) -> io::Result<Option<&str>> {
        loop {
            // A newline counts only within MAX_LINE of the line's start.
            let limit = self.buf.len().min(self.start + MAX_LINE + 1);
            if let Some(i) = self.buf[self.scanned..limit]
                .iter()
                .position(|&b| b == b'\n')
            {
                let (start, end) = (self.start, self.scanned + i);
                self.start = end + 1;
                self.scanned = end + 1;
                let line = &self.buf[start..end];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                return std::str::from_utf8(line)
                    .map(Some)
                    .map_err(|_| invalid("non-UTF-8 line on the wire"));
            }
            self.scanned = limit;
            if limit - self.start > MAX_LINE {
                return Err(invalid(format!("line longer than {MAX_LINE} bytes")));
            }
            // Consumed lines leave before the buffer grows.
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
            let mut chunk = [0u8; READ_CHUNK];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(io::ErrorKind::TimedOut.into())
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// [`LineReader::read_line`], decoded.
    pub(crate) fn next_msg<M: Wire>(&mut self) -> io::Result<Option<M>> {
        self.read_line()?.map(decode).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A byte source that hands out exactly the scripted reads, then EOF.
    struct Script(VecDeque<io::Result<Vec<u8>>>);

    impl Script {
        fn of(reads: impl IntoIterator<Item = io::Result<Vec<u8>>>) -> LineReader<Script> {
            LineReader::new(Script(reads.into_iter().collect()))
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    /// One byte per `read`, whatever the caller asks for.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = first;
            self.0 = rest;
            Ok(1)
        }
    }

    fn line(reader: &mut LineReader<impl Read>) -> String {
        let line = reader.read_line().expect("a line, not an error");
        line.expect("a line, not the end").to_string()
    }

    fn timed_out(reader: &mut LineReader<impl Read>) -> bool {
        reader
            .read_line()
            .is_err_and(|e| e.kind() == io::ErrorKind::TimedOut)
    }

    #[test]
    fn a_line_delivered_byte_by_byte_is_scanned_once() {
        // 1 MiB in 1-byte reads: rescanning from byte 0 after every read
        // is 5·10^11 comparisons and would not finish.
        let mut input = vec![b'x'; 1 << 20];
        input.extend_from_slice(b"\nnext\n");
        let mut reader = LineReader::new(Trickle(&input));
        assert_eq!(line(&mut reader).len(), 1 << 20);
        assert_eq!(line(&mut reader), "next");
        assert!(matches!(reader.read_line(), Ok(None)));
    }

    /// A peer that takes one byte per `write`, `pause` after each.
    struct Sip {
        taken: Vec<u8>,
        writes: usize,
        pause: Duration,
    }

    impl Sip {
        fn new(pause: Duration) -> Sip {
            Sip {
                taken: Vec::new(),
                writes: 0,
                pause,
            }
        }
    }

    impl Write for Sip {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.taken.push(buf[0]);
            std::thread::sleep(self.pause);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_bounds_the_whole_line_not_each_write() {
        // A byte every 2 ms never stalls one `write` for long, so only a
        // bound on the line stops it: 4 KiB would take 8 s.
        let timeout = Duration::from_millis(100);
        let line = vec![b'x'; 4096];
        let mut peer = Sip::new(Duration::from_millis(2));
        let started = Instant::now();
        let err = write_line(&mut peer, &line, Some(timeout)).expect_err("never finishes");
        let took = started.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(took >= timeout, "gave up early, after {took:?}");
        assert!(took < 5 * timeout, "gave up late, after {took:?}");
        assert!(peer.taken.len() < line.len());

        // A writer that keeps up finishes, a byte at a time or in one go.
        let mut quick = Sip::new(Duration::ZERO);
        write_line(&mut quick, &line, Some(timeout)).unwrap();
        assert_eq!(quick.taken, line);
        let mut whole = Vec::new();
        write_line(&mut whole, &line, Some(timeout)).unwrap();
        assert_eq!(whole, line);
        // No bound: the trickle is waited out.
        let mut patient = Sip::new(Duration::from_millis(1));
        write_line(&mut patient, &line[..200], None).unwrap();
        assert_eq!(patient.writes, 200);
    }

    #[test]
    fn max_line_is_the_longest_line_and_bounds_the_buffer() {
        let mut fits = vec![b'a'; MAX_LINE - 1];
        fits.push(b'\n');
        assert_eq!(
            line(&mut LineReader::new(fits.as_slice())).len(),
            MAX_LINE - 1
        );

        // No newline ever comes: the error must, after MAX_LINE + one read.
        let endless = vec![b'a'; 2 * MAX_LINE];
        let mut reader = LineReader::new(endless.as_slice());
        let err = reader.read_line().expect_err("over-long line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(reader.buf.len() <= MAX_LINE + READ_CHUNK);

        // One byte over, with its newline in the same read, is still over.
        let mut over = vec![b'a'; MAX_LINE + 1];
        over.push(b'\n');
        let err = LineReader::new(over.as_slice()).read_line().err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
    }

    #[test]
    fn a_line_split_across_a_timeout_survives_it() {
        let mut reader = Script::of([
            Ok(b"abc".to_vec()),
            Err(io::ErrorKind::WouldBlock.into()),
            Err(io::ErrorKind::Interrupted.into()),
            Ok(b"def\r\nsecond\nthi".to_vec()),
            Err(io::ErrorKind::TimedOut.into()),
            Ok(b"rd\n".to_vec()),
        ]);
        assert!(timed_out(&mut reader));
        assert_eq!(line(&mut reader), "abcdef"); // and `\r\n` is stripped
        assert_eq!(line(&mut reader), "second");
        assert!(timed_out(&mut reader));
        assert_eq!(line(&mut reader), "third");
        assert!(matches!(reader.read_line(), Ok(None)));
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut reader = LineReader::new(&b"ok\n\xff\xfe\nafter\n"[..]);
        assert_eq!(line(&mut reader), "ok");
        let err = reader.read_line().expect_err("non-UTF-8 line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn kernels() -> KernelStats {
        KernelStats {
            resolved_i8: 5,
            resolved_i16: 1,
            resolved_scalar: 0,
            interseq_i8: 40,
            interseq_i16: 2,
            interseq_scalar: 0,
            chunks_striped: 1,
            chunks_interseq: 3,
            cells_computed: 12_345,
        }
    }

    fn hit() -> Hit {
        Hit {
            db_index: 1,
            id: "s\"1".into(),
            score: -7,
            subject_len: 99,
        }
    }

    fn payload() -> TaskPayload {
        TaskPayload {
            queries: vec![
                QueryPayload {
                    query: vec![0, 3, 19, 2],
                    top_n: 10,
                },
                QueryPayload {
                    query: vec![5, 7],
                    top_n: 3,
                },
            ],
            shard: (128, 256),
        }
    }

    fn finished(task: TaskId, gcups: f64, result: TaskResult) -> SlaveMsg {
        SlaveMsg::Finished {
            task,
            result: TaskResult {
                gcups: Some(gcups),
                ..result
            },
        }
    }

    const KERNELS: &str = r#"{"striped_i8":5,"striped_i16":1,"striped_scalar":0,"interseq_i8":40,"interseq_i16":2,"interseq_scalar":0,"chunks_striped":1,"chunks_interseq":3,"cells_computed":12345}"#;
    const HIT: &str = r#"{"db_index":1,"id":"s\"1","score":-7,"subject_len":99}"#;
    const DESC: &str = r#"{"queries":[{"query":[0,3,19,2],"top_n":10},{"query":[5,7],"top_n":3}],"shard":[128,256]}"#;

    const ZERO: &str = r#"{"striped_i8":0,"striped_i16":0,"striped_scalar":0,"interseq_i8":0,"interseq_i16":0,"interseq_scalar":0,"chunks_striped":0,"chunks_interseq":0,"cells_computed":0}"#;

    /// Every message variant beside the exact line protocol v6 writes for
    /// it (regenerated when v4 made every payload, the digest and the
    /// per-query list mandatory, and for v5's and v6's version numbers;
    /// v6 dropped `execute` and left every other line as v5 wrote it).
    fn golden() -> Vec<(Json, String)> {
        let slave = [
            (
                SlaveMsg::Register {
                    name: "host-a/core0".into(),
                    gcups: 2.7,
                    digest: 0xdead_beef_cafe_f00d,
                },
                r#"{"type":"register","name":"host-a/core0","gcups":2.7,"proto":6,"digest":"deadbeefcafef00d"}"#.to_string(),
            ),
            (SlaveMsg::Request, r#"{"type":"request"}"#.to_string()),
            (
                SlaveMsg::Started { task: 3 },
                r#"{"type":"started","task":3}"#.to_string(),
            ),
            (
                finished(
                    3,
                    2.5,
                    TaskResult {
                        queries: vec![QueryResult {
                            hits: vec![hit()],
                            kernels: kernels(),
                        }],
                        ..TaskResult::default()
                    },
                ),
                format!(r#"{{"type":"finished","task":3,"gcups":2.5,"queries":[{{"hits":[{HIT}],"kernels":{KERNELS}}}]}}"#),
            ),
            (
                finished(1, 1.0, TaskResult::default()),
                r#"{"type":"finished","task":1,"gcups":1,"queries":[]}"#.to_string(),
            ),
            (
                finished(
                    9,
                    0.75,
                    TaskResult {
                        queries: vec![
                            QueryResult {
                                hits: vec![hit()],
                                kernels: kernels(),
                            },
                            QueryResult::default(),
                        ],
                        ..TaskResult::default()
                    },
                ),
                format!(
                    r#"{{"type":"finished","task":9,"gcups":0.75,"queries":[{{"hits":[{HIT}],"kernels":{KERNELS}}},{{"hits":[],"kernels":{ZERO}}}]}}"#
                ),
            ),
            (SlaveMsg::Heartbeat, r#"{"type":"heartbeat"}"#.to_string()),
        ];
        let master = [
            (
                MasterMsg::Registered { pe_id: 1 },
                r#"{"type":"registered","pe_id":1,"proto":6}"#.to_string(),
            ),
            (
                MasterMsg::Tasks {
                    tasks: vec![(7, payload())],
                },
                format!(r#"{{"type":"tasks","tasks":[7],"descs":[{DESC}]}}"#),
            ),
            (
                MasterMsg::Tasks {
                    tasks: vec![(4, payload()), (5, payload())],
                },
                format!(r#"{{"type":"tasks","tasks":[4,5],"descs":[{DESC},{DESC}]}}"#),
            ),
            (MasterMsg::Done, r#"{"type":"done"}"#.to_string()),
            (
                MasterMsg::Error {
                    message: "nope".into(),
                },
                r#"{"type":"error","message":"nope"}"#.to_string(),
            ),
        ];
        let slave = slave.into_iter().map(|(m, line)| (m.to_json(), line));
        let master = master.into_iter().map(|(m, line)| (m.to_json(), line));
        slave.chain(master).collect()
    }

    #[test]
    fn every_message_encodes_to_its_v6_bytes() {
        for (json, line) in golden() {
            assert_eq!(json.to_string(), line);
        }
        // And the canonical lines decode back to what encodes the same.
        for (_, line) in golden() {
            let again = match decode::<SlaveMsg>(&line) {
                Ok(m) => m.to_json(),
                Err(_) => decode::<MasterMsg>(&line)
                    .expect("one of the two")
                    .to_json(),
            };
            assert_eq!(again.to_string(), line);
        }
    }

    /// What v4 made mandatory, missing or inconsistent, a v5 `execute`
    /// line, and a v3 handshake: each a typed error (the session that
    /// reads it is dropped), never a panic or a default.
    #[test]
    fn v4_lines_missing_a_mandatory_part_are_typed_errors() {
        let slave_lines = [
            // `register` without the digest, or with a malformed one.
            r#"{"type":"register","name":"b","gcups":1,"proto":6}"#.to_string(),
            r#"{"type":"register","name":"b","gcups":1,"proto":6,"digest":12}"#.to_string(),
            r#"{"type":"register","name":"b","gcups":1,"proto":6,"digest":"xyz"}"#.to_string(),
            // `finished` without the per-query list (the v3 task-level form),
            // or with an entry missing its counters.
            format!(
                r#"{{"type":"finished","task":3,"gcups":2.5,"hits":[{HIT}],"kernels":{KERNELS}}}"#
            ),
            format!(r#"{{"type":"finished","task":3,"gcups":2.5,"queries":[{{"hits":[{HIT}]}}]}}"#),
        ];
        let master_lines = [
            // `tasks` without `descs`, or with one payload too few.
            r#"{"type":"tasks","tasks":[4,5]}"#.to_string(),
            format!(r#"{{"type":"tasks","tasks":[4,5],"descs":[{DESC}]}}"#),
            // `execute`, which v6 no longer has: an unknown type.
            format!(r#"{{"type":"execute","task":2,"desc":{DESC}}}"#),
        ];
        for line in &slave_lines {
            let err = decode::<SlaveMsg>(line).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}");
        }
        for line in &master_lines {
            let err = decode::<MasterMsg>(line).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}");
        }
        let execute = decode::<MasterMsg>(&master_lines[2])
            .unwrap_err()
            .to_string();
        assert!(
            execute.contains("unknown master message type 'execute'"),
            "{execute}"
        );
        // A v3 handshake — which had no digest — is told about versions.
        let v3 = r#"{"type":"register","name":"b","gcups":1,"proto":3}"#;
        let err = decode::<SlaveMsg>(v3).unwrap_err().to_string();
        assert_eq!(
            err,
            "protocol version mismatch: master speaks v6, slave speaks v3"
        );
        let v3 = r#"{"type":"registered","pe_id":1,"proto":3}"#;
        let err = decode::<MasterMsg>(v3).unwrap_err().to_string();
        assert_eq!(
            err,
            "protocol version mismatch: slave speaks v6, master speaks v3"
        );
    }

    /// A v4 peer would cut a shard range into database indices where v5
    /// and v6 mean scan positions, and a v5 master would send `execute`
    /// lines a v6 slave cannot read, so either handshake is refused, with
    /// both versions named, before any task could be misread.
    #[test]
    fn v4_register_is_refused_naming_both_versions() {
        for old in [4, 5] {
            let register = format!(
                r#"{{"type":"register","name":"b","gcups":1,"proto":{old},"digest":"deadbeefcafef00d"}}"#
            );
            let err = decode::<SlaveMsg>(&register).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("protocol version mismatch: master speaks v6, slave speaks v{old}")
            );
            let registered = format!(r#"{{"type":"registered","pe_id":1,"proto":{old}}}"#);
            assert_eq!(
                decode::<MasterMsg>(&registered).unwrap_err().to_string(),
                format!("protocol version mismatch: slave speaks v6, master speaks v{old}")
            );
        }
    }

    /// Through the framer and both decoders: decodes or is the typed
    /// error, never a panic.
    fn survives(bytes: &[u8]) {
        let mut reader = LineReader::new(bytes);
        loop {
            match reader.read_line() {
                Ok(Some(l)) => {
                    for err in [decode::<SlaveMsg>(l).err(), decode::<MasterMsg>(l).err()] {
                        assert!(err.is_none_or(|e| e.kind() == io::ErrorKind::InvalidData));
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    return;
                }
            }
        }
    }

    #[test]
    fn truncated_and_bit_flipped_messages_never_panic() {
        for (_, line) in golden() {
            let mut bytes = line.into_bytes();
            bytes.push(b'\n');
            for cut in 0..bytes.len() {
                let mut prefix = bytes[..cut].to_vec();
                prefix.push(b'\n');
                survives(&prefix);
            }
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                survives(&bytes);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
