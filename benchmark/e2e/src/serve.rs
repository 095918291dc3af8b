//! `serve_open` and `serve_cached`: the `swhybrid serve` daemon driven over
//! its line-JSON TCP protocol.
//!
//! Latency is measured under an **open loop**: requests leave on a seeded
//! Poisson schedule whatever the daemon does, over one pipelined
//! connection (this thread sends, a second one stamps replies), and each
//! is timed from the moment it was *due*, so a stall is charged to every
//! request it delayed. Throughput is measured under a **closed loop**: two
//! connections that each keep eight requests outstanding. An untraced run
//! does both in ten short rounds on fresh connections and reports medians
//! over the rounds.

use crate::common::*;
use crate::gen::{self, fnv1a, DataSpec, Rng};
use crate::parse::{self, Hit, Stats};
use crate::proc::{Exit, Proc};
use crate::stats::{median, windowed_p95};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub struct Spec {
    pub data: DataSpec,
    /// `--cache`: 0 makes every request scan.
    pub cache: usize,
    /// Open-loop arrival rates, requests per second: low, mid, high. The
    /// end-to-end latency is taken at `mid`.
    pub rates: [f64; 3],
    /// Latency limit on the p95, milliseconds.
    pub limit_ms: f64,
}

const CLOSED_CONNS: usize = 2;
const CLOSED_DEPTH: usize = 8;
/// Rounds of an untraced run.
const ROUNDS: usize = 10;
const WINDOW_S: f64 = 2.0;
/// Fewest samples of a p95 window: five beyond the percentile.
const WINDOW_MIN: usize = 100;
const REPLY_LIMIT: Duration = Duration::from_secs(30);

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(REPLY_LIMIT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Send one request line and read one reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => Ok(reply),
            Ok(_) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }
}

struct Daemon {
    proc: Proc,
    ctl: Conn,
    addr: String,
    /// Spawn → first `stats` reply.
    boot_s: f64,
}

/// `hold` is how long after the daemon printed its address the first
/// connection is made; `boot_s` does not count it.
fn boot(ctx: &Ctx, store: &str, cache: usize, hold: Duration) -> Result<Daemon, String> {
    let cache = cache.to_string();
    let proc = Proc::spawn(
        "serve",
        &ctx.bin,
        &[
            "serve",
            "--db-store",
            store,
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            &cache,
            "--client-inflight",
            "1024",
            // Bursts must queue, not bounce: a refused request is a failure.
            "--queue-depth",
            "1024",
        ],
    )?;
    let addr = proc.wait_line(Duration::from_secs(30), parse::listen_addr)?;
    let listening = Instant::now();
    std::thread::sleep(hold);
    let held = listening.elapsed();
    let mut ctl = Conn::connect(&addr)?;
    parse::stats(&ctl.call("{\"verb\":\"stats\"}\n")?)?;
    let boot_s = (proc.started.elapsed() - held).as_secs_f64();
    Ok(Daemon {
        proc,
        ctl,
        addr,
        boot_s,
    })
}

/// Ask the daemon to drain and exit, and reap it.
fn stop(ctx: &mut Ctx, parent: usize, mut daemon: Daemon) -> Result<Exit, String> {
    daemon.ctl.call("{\"verb\":\"shutdown\"}\n")?;
    let started = ctx.trace.at(daemon.proc.started);
    let exit = daemon.proc.wait(Duration::from_secs(60))?;
    ctx.trace.add(
        Some(parent),
        "process:serve",
        "",
        started,
        ctx.trace.at(exit.ended),
    );
    Ok(exit)
}

/// One reply line as the reading thread saw it.
struct Arrival {
    recv: Instant,
    tag: Option<usize>,
    /// FNV of the `"hits":[…]` text: replies to one query must all carry
    /// the same table, so most need no parsing.
    hits_hash: u64,
    /// The whole line, for the replies that are parsed.
    line: Option<String>,
}

fn hits_hash(line: &str) -> u64 {
    let text = line.find("\"hits\":[").map_or("", |at| {
        let rest = &line[at..];
        &rest[..rest.find(']').map_or(rest.len(), |end| end + 1)]
    });
    fnv1a(text.as_bytes())
}

fn arrival(line: String, keep: bool) -> Arrival {
    Arrival {
        recv: Instant::now(),
        tag: parse::quick_tag(&line),
        hits_hash: hits_hash(&line),
        line: keep.then_some(line),
    }
}

fn request(prefix: &str, tag: usize) -> String {
    format!("{prefix}\"tag\":\"{tag}\"}}\n")
}

struct Sent {
    query: usize,
    due: Instant,
    /// How long after `due` the request was written.
    late_s: f64,
}

type Inbox = (Mutex<Vec<Arrival>>, Condvar);

/// The pipelined open-loop connection: the caller sends, a thread reads.
struct Session {
    writer: TcpStream,
    inbox: Arc<Inbox>,
    reader: std::thread::JoinHandle<()>,
    sent: Vec<Sent>,
}

impl Session {
    fn connect(addr: &str) -> Result<Session, String> {
        let conn = Conn::connect(addr)?;
        let inbox: Arc<Inbox> = Arc::default();
        let sink = Arc::clone(&inbox);
        let reader = std::thread::spawn(move || {
            for line in conn.reader.lines() {
                let Ok(line) = line else { break };
                // Open-loop replies are few enough to keep them all.
                let a = arrival(line, true);
                sink.0.lock().expect("session reader never panics").push(a);
                sink.1.notify_all();
            }
        });
        Ok(Session {
            writer: conn.writer,
            inbox,
            reader,
            sent: Vec::new(),
        })
    }

    fn send(&mut self, prefixes: &[String], query: usize, due: Instant) -> Result<(), String> {
        let line = request(&prefixes[query], self.sent.len());
        let late_s = due.elapsed().as_secs_f64();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.sent.push(Sent { query, due, late_s });
        Ok(())
    }

    fn received(&self) -> usize {
        self.inbox
            .0
            .lock()
            .expect("session reader never panics")
            .len()
    }

    /// Block until every request sent so far is answered.
    fn wait_all(&self) -> Result<(), String> {
        let guard = self.inbox.0.lock().expect("session reader never panics");
        let (guard, timeout) = self
            .inbox
            .1
            .wait_timeout_while(guard, REPLY_LIMIT, |got| got.len() < self.sent.len())
            .expect("session reader never panics");
        if timeout.timed_out() {
            return Err(format!(
                "{} of {} replies came",
                guard.len(),
                self.sent.len()
            ));
        }
        Ok(())
    }

    /// Send on the schedule `offsets` (seconds from now), cycling through
    /// the queries from `first_query`. Returns the tags used and how many
    /// requests were unanswered when the last one left.
    fn open_loop(
        &mut self,
        prefixes: &[String],
        offsets: &[f64],
        first_query: usize,
    ) -> Result<(std::ops::Range<usize>, usize), String> {
        let start = Instant::now();
        let first_tag = self.sent.len();
        for (i, offset) in offsets.iter().enumerate() {
            let due = start + Duration::from_secs_f64(*offset);
            loop {
                let left = due.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                // Sleep most of the wait, spin the last 200 µs.
                match left.checked_sub(Duration::from_micros(200)) {
                    Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
                    _ => std::hint::spin_loop(),
                }
            }
            self.send(prefixes, (first_query + i) % prefixes.len(), due)?;
        }
        let backlog = self.sent.len() - self.received();
        Ok((first_tag..self.sent.len(), backlog))
    }

    /// One request at a time over `queries`, each after the previous reply.
    fn one_by_one(
        &mut self,
        prefixes: &[String],
        queries: std::ops::Range<usize>,
    ) -> Result<std::ops::Range<usize>, String> {
        let first_tag = self.sent.len();
        for q in queries {
            self.send(prefixes, q, Instant::now())?;
            self.wait_all()?;
        }
        Ok(first_tag..self.sent.len())
    }

    fn close(self) -> (Vec<Sent>, Vec<Arrival>) {
        let _ = self.writer.shutdown(Shutdown::Both);
        let _ = self.reader.join();
        let arrivals = std::mem::take(&mut *self.inbox.0.lock().expect("reader joined"));
        (self.sent, arrivals)
    }
}

/// One closed-loop connection: `CLOSED_DEPTH` requests outstanding until
/// `deadline`, then drain. Returns the query of every tag and the replies.
fn closed_conn(
    addr: &str,
    prefixes: &[String],
    first_query: usize,
    deadline: Instant,
) -> Result<(Vec<usize>, Vec<Arrival>), String> {
    let mut conn = Conn::connect(addr)?;
    let mut sent: Vec<usize> = Vec::new();
    let mut arrivals = Vec::new();
    let send = |conn: &mut Conn, sent: &mut Vec<usize>| {
        let query = (first_query + sent.len()) % prefixes.len();
        sent.push(query);
        conn.writer
            .write_all(request(&prefixes[query], sent.len() - 1).as_bytes())
            .map_err(|e| format!("send: {e}"))
    };
    for _ in 0..CLOSED_DEPTH {
        send(&mut conn, &mut sent)?;
    }
    let mut line = String::new();
    while arrivals.len() < sent.len() {
        line.clear();
        match conn.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            Ok(_) => return Err("daemon closed a closed-loop connection".into()),
            Err(e) => return Err(format!("closed loop: no reply: {e}")),
        }
        // Full lines for the first replies to every query, hashes after.
        let keep = arrivals.len() < 2 * prefixes.len();
        arrivals.push(arrival(line.trim_end().to_string(), keep));
        if Instant::now() < deadline {
            send(&mut conn, &mut sent)?;
        }
    }
    Ok((sent, arrivals))
}

struct Closed {
    /// Replies that came within the window.
    completed: usize,
    /// Window start → the last of them.
    seconds: f64,
}

/// Check every reply against the reference tables. Each group is one
/// connection: the query of every tag it sent, and the replies it got.
/// Replies kept whole are parsed and compared with the `search` CLI's
/// table; the rest must carry the same `hits` text as a reply to the same
/// query that was.
fn verify(checker: &mut Checker, groups: &[(Vec<usize>, &[Arrival])], reference: &[Vec<Hit>]) {
    let mut exemplar: Vec<Option<u64>> = vec![None; reference.len()];
    let query_of = |sent: &[usize], a: &Arrival| a.tag.and_then(|t| sent.get(t)).copied();
    for (sent, arrivals) in groups {
        checker.attempted += sent.len() as u64;
        let missing = sent.len().saturating_sub(arrivals.len());
        if missing > 0 {
            checker.fail(missing as u64, || {
                format!("{missing} requests got no reply")
            });
        }
        for a in arrivals.iter() {
            let Some(line) = a.line.as_deref() else {
                continue;
            };
            match (query_of(sent, a), parse::reply(line)) {
                (Some(q), Ok(reply)) if reply.hits == reference[q] => {
                    exemplar[q] = Some(a.hits_hash)
                }
                (Some(q), Ok(_)) => checker.fail(1, || format!("q{q}: hits differ from `search`")),
                (None, _) => checker.fail(1, || format!("reply without a known tag: {line:.120}")),
                (_, Err(e)) => checker.fail(1, || format!("bad reply: {e:.160}")),
            }
        }
    }
    for (sent, arrivals) in groups {
        for a in arrivals.iter().filter(|a| a.line.is_none()) {
            match query_of(sent, a) {
                Some(q) if exemplar[q] == Some(a.hits_hash) => {}
                Some(q) => checker.fail(1, || {
                    format!("q{q}: a reply's hits differ from the verified one")
                }),
                None => checker.fail(1, || "reply without a known tag".into()),
            }
        }
    }
}

/// Latencies of one open-loop phase: (seconds the request was due after
/// the phase's first, latency from the due time in ms). A request without
/// a reply has no sample here; it is counted as failed by [`verify`].
fn phase_samples(
    sent: &[Sent],
    by_tag: &[Option<&Arrival>],
    tags: std::ops::Range<usize>,
) -> Vec<(f64, f64)> {
    let Some(first) = sent.get(tags.start).map(|s| s.due) else {
        return Vec::new();
    };
    tags.filter_map(|t| {
        let a = by_tag[t]?;
        Some((
            (sent[t].due - first).as_secs_f64(),
            a.recv.saturating_duration_since(sent[t].due).as_secs_f64() * 1e3,
        ))
    })
    .collect()
}

fn latencies(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

/// How one round spends its time: a plain open-loop phase at the mid rate,
/// then (traced runs) further open-loop phases with `stats` polling on,
/// then the closed loop.
struct Plan {
    mid_rate: f64,
    plain_s: f64,
    /// (rate, seconds) of the polled phases.
    polled: Vec<(f64, f64)>,
    closed_s: f64,
    /// Before anything else, once: a cached daemon sees every query one by
    /// one (its cold misses), a scanning one takes this many seconds of
    /// mid-rate load. Not measured.
    warm_s: Option<f64>,
    cached: bool,
}

/// What one round, on connections of its own, produced.
struct Round {
    sent: Vec<Sent>,
    arrivals: Vec<Arrival>,
    warm: std::ops::Range<usize>,
    plain: std::ops::Range<usize>,
    /// (rate, tags, requests unanswered when the last one left) per polled phase.
    polled: Vec<(f64, std::ops::Range<usize>, usize)>,
    closed_io: Vec<(Vec<usize>, Vec<Arrival>)>,
    closed: Closed,
    polls: Vec<(Instant, String)>,
}

impl Round {
    fn by_tag(&self) -> Vec<Option<&Arrival>> {
        let mut by_tag = vec![None; self.sent.len()];
        for a in &self.arrivals {
            if let Some(slot) = a.tag.and_then(|t| by_tag.get_mut(t)) {
                *slot = Some(a);
            }
        }
        by_tag
    }
}

fn round(addr: &str, prefixes: &[String], plan: &Plan, rng: &mut Rng) -> Result<Round, String> {
    let n = prefixes.len();
    let mut session = Session::connect(addr)?;
    let warm = match plan.warm_s {
        Some(_) if plan.cached => session.one_by_one(prefixes, 0..n)?,
        Some(seconds) => {
            let offsets = gen::poisson_schedule(rng, plan.mid_rate, seconds);
            session.open_loop(prefixes, &offsets, 0)?.0
        }
        None => 0..0,
    };
    session.wait_all()?;
    let offsets = gen::poisson_schedule(rng, plan.mid_rate, plan.plain_s);
    let (plain, _) = session.open_loop(prefixes, &offsets, warm.end)?;
    session.wait_all()?;

    // From here a traced run polls `stats` twice a second on a connection
    // of its own.
    let polling = AtomicBool::new(!plan.polled.is_empty());
    let (polled, closed, closed_io, polls) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| -> Result<Vec<(Instant, String)>, String> {
            let mut polls = Vec::new();
            if !polling.load(Ordering::SeqCst) {
                return Ok(polls);
            }
            let mut conn = Conn::connect(addr)?;
            while polling.load(Ordering::SeqCst) {
                polls.push((Instant::now(), conn.call("{\"verb\":\"stats\"}\n")?));
                std::thread::sleep(Duration::from_millis(500));
            }
            Ok(polls)
        });
        let work = (|| {
            let mut polled = Vec::new();
            for &(rate, seconds) in &plan.polled {
                let offsets = gen::poisson_schedule(rng, rate, seconds);
                let first = session.sent.len();
                let (tags, backlog) = session.open_loop(prefixes, &offsets, first)?;
                session.wait_all()?;
                polled.push((rate, tags, backlog));
            }
            let started = Instant::now();
            let deadline = started + Duration::from_secs_f64(plan.closed_s);
            let conns: Vec<_> = (0..CLOSED_CONNS)
                .map(|c| {
                    scope.spawn(move || closed_conn(addr, prefixes, c * n / CLOSED_CONNS, deadline))
                })
                .collect();
            let closed_io = conns
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "closed-loop thread panicked".to_string())?
                })
                .collect::<Result<Vec<_>, String>>()?;
            let mut closed = Closed {
                completed: 0,
                seconds: plan.closed_s,
            };
            // The window ends with its last reply, not at the deadline, so
            // that the rate is not a multiple of 1 ÷ the window's length.
            let mut last = started;
            for (_, arrivals) in &closed_io {
                for a in arrivals.iter().filter(|a| a.recv <= deadline) {
                    closed.completed += 1;
                    last = last.max(a.recv);
                }
            }
            if closed.completed > 0 {
                closed.seconds = (last - started).as_secs_f64();
            }
            Ok::<_, String>((polled, closed, closed_io))
        })();
        polling.store(false, Ordering::SeqCst);
        let polls = poller
            .join()
            .map_err(|_| "stats poller panicked".to_string())
            .and_then(|p| p);
        work.and_then(|(p, c, io)| Ok((p, c, io, polls?)))
    })?;
    let (sent, arrivals) = session.close();
    Ok(Round {
        sent,
        arrivals,
        warm,
        plain,
        polled,
        closed_io,
        closed,
        polls,
    })
}

pub fn run(ctx: &mut Ctx, label: &str, spec: &Spec) -> Result<Outcome, String> {
    let inputs = write_inputs(ctx, label, &spec.data)?;
    let setup_s = store_setups(ctx, &inputs, |ctx, span, k| {
        let daemon = boot(ctx, &inputs.store, spec.cache, hold(k))?;
        let boot_s = daemon.boot_s;
        stop(ctx, span, daemon)?;
        Ok(boot_s)
    })?;
    let mut checker = Checker::default();
    let reference = reference_tables(ctx, &mut checker, &inputs)?;
    let prefixes: Vec<String> = inputs
        .data
        .queries
        .iter()
        .map(|q| {
            format!(
                "{{\"verb\":\"search\",\"query\":\"{}\",\"top_n\":10,",
                q.seq
            )
        })
        .collect();
    let [low, mid, high] = spec.rates;
    let s = ctx.seconds;
    // An untraced run measures in several short rounds, each on fresh
    // connections, and reports medians over rounds: which cores the
    // daemon's and the driver's threads land on is drawn anew with every
    // connection and moves the closed-loop rate by a factor of two on this
    // 2-vCPU box, so one long round measures one draw. A traced run is one
    // round whose open loop visits all three rates.
    let rounds = if ctx.traced { 1 } else { ROUNDS };
    let share = |of_s: f64| of_s * s / rounds as f64;
    let mut plan = Plan {
        mid_rate: mid,
        plain_s: share(if ctx.traced { 0.2 } else { 0.6 }),
        polled: match ctx.traced {
            true => vec![(low, share(0.15)), (mid, share(0.25)), (high, share(0.15))],
            false => Vec::new(),
        },
        closed_s: share(if ctx.traced { 0.25 } else { 0.4 }),
        warm_s: Some(1.0_f64.min(0.1 * s)),
        cached: spec.cache > 0,
    };
    let mut rng = Rng::derive(ctx.seed, &format!("{label}/arrivals"));

    let measure = ctx.trace.open(Some(ctx.root), "measure", label);
    let mut daemon = boot(ctx, &inputs.store, spec.cache, Duration::ZERO)?;
    let mut done: Vec<Round> = Vec::new();
    for _ in 0..rounds {
        done.push(round(&daemon.addr, &prefixes, &plan, &mut rng)?);
        plan.warm_s = None;
    }
    let final_stats = parse::stats(&daemon.ctl.call("{\"verb\":\"stats\"}\n")?)?;
    let exit = stop(ctx, measure, daemon)?;
    ctx.trace.close(measure);

    // Correctness: every reply, warm-up included, against `search`.
    let mut groups: Vec<(Vec<usize>, &[Arrival])> = Vec::new();
    for r in &done {
        groups.push((r.sent.iter().map(|s| s.query).collect(), &r.arrivals));
        groups.extend(
            r.closed_io
                .iter()
                .map(|(sent, arrivals)| (sent.clone(), arrivals.as_slice())),
        );
    }
    verify(&mut checker, &groups, &reference);

    let db_residues = inputs.data.db_residues() as f64;
    let p50s: Vec<f64> = done
        .iter()
        .map(|r| {
            median(&latencies(&phase_samples(
                &r.sent,
                &r.by_tag(),
                r.plain.clone(),
            )))
        })
        .collect();
    let p50_mid = median(&p50s);
    let closed_qps = median(
        &done
            .iter()
            .map(|r| r.closed.completed as f64 / r.closed.seconds)
            .collect::<Vec<_>>(),
    );
    // The closed loop cycles through the queries evenly, so the cells it
    // answers per second are its rate times the mean query's nominal cells.
    let cells_per_query = inputs.data.nominal_cells() as f64 / prefixes.len() as f64;

    let metrics = if !ctx.traced {
        EndToEnd {
            setup_s,
            latency_s: p50_mid / 1e3,
            queries_per_s: closed_qps,
            cells_per_s: closed_qps * cells_per_query,
            peak_rss_mb: exit.peak_rss_mb,
        }
        .into_metrics()
    } else {
        let r = &done[0];
        let (sent, by_tag) = (&r.sent, r.by_tag());
        // Spans: one per open-loop request, with the daemon's own
        // admission-to-reply time as its child, ending at the reply.
        for (t, a) in by_tag.iter().enumerate() {
            let Some(a) = a else { continue };
            let (due, recv) = (ctx.trace.at(sent[t].due), ctx.trace.at(a.recv));
            let id = ctx
                .trace
                .add(Some(measure), "request", &t.to_string(), due, recv);
            if let Some(Ok(reply)) = a.line.as_deref().map(parse::reply) {
                let admitted = recv - reply.elapsed_ms / 1e3;
                ctx.trace.add(
                    Some(id),
                    "serve:admit-to-reply",
                    &t.to_string(),
                    admitted,
                    recv,
                );
            }
        }
        for (at, _) in &r.polls {
            let t = ctx.trace.at(*at);
            ctx.trace.add(Some(measure), "stats-poll", "", t, t);
        }

        let mut m = Metrics::new();
        let [(_, low_tags, _), (_, mid_tags, _), (_, high_tags, high_backlog)] = &r.polled[..]
        else {
            return Err("a traced serve run has three polled phases".into());
        };
        let traced_mid = phase_samples(sent, &by_tag, mid_tags.clone());
        let mut best_rate = 0.0;
        for (name, rate, tags) in [
            ("low", low, low_tags),
            ("mid", mid, mid_tags),
            ("high", high, high_tags),
        ] {
            let samples = phase_samples(sent, &by_tag, tags.clone());
            let p95 = windowed_p95(&samples, WINDOW_S, WINDOW_MIN).0;
            if name != "mid" {
                m.insert(
                    format!("serve.p50_ratio.{name}"),
                    median(&latencies(&samples)) / p50_mid,
                );
            }
            m.insert(format!("serve.p95_ratio.{name}"), p95 / p50_mid);
            if samples.len() == tags.len() && p95 <= spec.limit_ms {
                best_rate = rate.max(best_rate);
            }
        }
        let high_samples = phase_samples(sent, &by_tag, high_tags.clone());
        let within = high_samples.iter().filter(|s| s.1 <= spec.limit_ms).count();
        m.insert(
            "serve.within_limit_share.high".into(),
            within as f64 / high_tags.len().max(1) as f64,
        );
        m.insert("serve.max_rate_within_limit".into(), best_rate);
        m.insert("serve.backlog_at_end.high".into(), *high_backlog as f64);
        m.insert("serve.closed_qps".into(), closed_qps);

        // Where a mid-rate request's time goes: inside the daemon
        // (admission to reply, as it reports) or around it.
        let (mut daemon_ms, mut outside_ms) = (Vec::new(), Vec::new());
        let mut kernels = parse::Kernels::default();
        let mut scanned_cells = 0.0;
        for t in mid_tags.clone() {
            let Some(a) = by_tag[t] else { continue };
            let Some(Ok(reply)) = a.line.as_deref().map(parse::reply) else {
                continue;
            };
            let latency = a.recv.saturating_duration_since(sent[t].due).as_secs_f64() * 1e3;
            daemon_ms.push(reply.elapsed_ms);
            outside_ms.push(latency - reply.elapsed_ms);
            kernels.add(&reply.kernels);
            if !reply.cached {
                let query = &inputs.data.queries[sent[t].query];
                scanned_cells += query.seq.len() as f64 * db_residues;
            }
        }
        let traced_p50 = median(&latencies(&traced_mid));
        m.insert("serve.daemon_share".into(), median(&daemon_ms) / traced_p50);
        m.insert(
            "serve.transport_share".into(),
            median(&outside_ms) / traced_p50,
        );
        if scanned_cells > 0.0 {
            m.extend(kernel_metrics(&kernels, scanned_cells));
        }
        if spec.cache > 0 {
            let cold = phase_samples(sent, &by_tag, r.warm.clone());
            m.insert(
                "serve.cold_over_hit".into(),
                median(&latencies(&cold)) / p50_mid,
            );
        }
        stats_metrics(&mut m, &final_stats);
        m.insert("serve.stats_polls".into(), r.polls.len() as f64);

        let open_sent = &sent[r.plain.start..];
        let late = |limit: f64| {
            open_sent.iter().filter(|s| s.late_s > limit).count() as f64
                / open_sent.len().max(1) as f64
        };
        m.insert("gen.late_share_1ms".into(), late(1e-3));
        m.insert("gen.late_share_5ms".into(), late(5e-3));
        m.insert("gen.sent".into(), open_sent.len() as f64);
        m.insert("gen.gen_s".into(), inputs.gen_s);
        m.insert(
            "trace.overhead_share".into(),
            (traced_p50 - p50_mid) / p50_mid,
        );
        m
    };

    Ok(Outcome {
        checker,
        metrics,
        // Every reply was compared with these tables.
        rescore: rescore_rows(&reference, &inputs.data.queries),
        db_fasta: inputs.db_fasta,
    })
}

fn stats_metrics(m: &mut Metrics, s: &Stats) {
    m.insert("serve.fusion_factor".into(), s.fusion_factor);
    m.insert("serve.queue_max_depth".into(), s.queue_max_depth);
    m.insert("serve.rejected".into(), s.rejected);
    m.insert("serve.cache_hit_rate".into(), s.cache_hit_rate);
    m.insert("serve.prepared_hit_rate".into(), s.prepared_hit_rate);
    m.insert("serve.pe_gcups_mean".into(), s.pe_gcups_mean);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(score: i64, subject: &str) -> Hit {
        Hit {
            score,
            subject: subject.into(),
            len: 7,
        }
    }

    fn line(tag: usize, subject: &str) -> String {
        format!(
            "{{\"ok\":true,\"type\":\"result\",\"cached\":false,\"cancelled\":false,\"elapsed_ms\":1.5,\
             \"hits\":[{{\"rank\":1,\"db_index\":0,\"id\":\"{subject}\",\"score\":9,\"len\":7}}],\"tag\":\"{tag}\"}}"
        )
    }

    #[test]
    fn hits_hash_covers_the_table_and_nothing_else() {
        let a = line(1, "s1");
        let b = line(2, "s1").replace("1.5", "99.0");
        assert_eq!(hits_hash(&a), hits_hash(&b));
        assert_ne!(hits_hash(&a), hits_hash(&line(1, "s2")));
    }

    #[test]
    fn verify_counts_wrong_missing_and_unverified_replies() {
        let reference = vec![vec![hit(9, "s1")], vec![hit(9, "s2")]];
        let first = vec![
            arrival(line(0, "s1"), false), // hash equals q0's exemplar, found in the second group
            arrival(line(1, "sX"), true),  // wrong table
            arrival(line(3, "s2"), false), // right, but q1 never gets an exemplar
        ]; // and tags 2 and 4 never answered
        let second = vec![arrival(line(0, "s1"), true)];
        let groups = vec![
            (vec![0, 1, 0, 1, 0], first.as_slice()),
            (vec![0], second.as_slice()),
        ];
        let mut checker = Checker::default();
        verify(&mut checker, &groups, &reference);
        assert_eq!(
            (checker.attempted, checker.failed),
            (6, 4),
            "{:?}",
            checker.reasons
        );
    }

    #[test]
    fn phase_samples_time_from_the_due_moment() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let sent: Vec<Sent> = [0, 10, 20]
            .iter()
            .map(|&ms| Sent {
                query: 0,
                due: at(ms),
                late_s: 0.0,
            })
            .collect();
        let mut a = arrival(line(0, "s"), false);
        a.recv = at(4);
        let mut c = arrival(line(2, "s"), false);
        c.recv = at(50);
        let by_tag = vec![Some(&a), None, Some(&c)];
        let samples = phase_samples(&sent, &by_tag, 0..3);
        assert_eq!(samples.len(), 2);
        assert!((samples[0].1 - 4.0).abs() < 1e-9 && (samples[1].1 - 30.0).abs() < 1e-9);
        assert!((samples[1].0 - 0.02).abs() < 1e-9);
        assert_eq!(latencies(&samples), [samples[0].1, samples[1].1]);
    }
}
