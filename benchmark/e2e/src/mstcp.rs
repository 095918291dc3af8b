//! `ms_tcp`: the paper's deployment — one `swhybrid master` and two
//! `swhybrid slave` processes over loopback TCP, one task per query.

use crate::common::*;
use crate::gen::{self, DataSpec};
use crate::parse::{self, EventSummary, Hit, MasterOutput};
use crate::proc::Proc;
use crate::stats::median;
use std::time::{Duration, Instant};

const SLAVES: usize = 2;
const LIMIT: Duration = Duration::from_secs(120);

/// One master + slaves run, from the master's spawn to the last exit.
pub struct Pass {
    /// Without the time the slaves were held back.
    pub wall_s: f64,
    /// Σ peak RSS of master and slaves.
    pub rss_mb: f64,
    pub master: MasterOutput,
    /// Tasks each slave says it executed.
    pub executed: Vec<u64>,
    pub events: Option<EventSummary>,
}

/// `queries`/`db_fasta` are what the slaves load; the master reads the
/// store. With `events` the master streams its event log there. The slaves
/// are started `hold` after the master printed its address ([`hold`]).
#[allow(clippy::too_many_arguments)]
pub fn pass(
    ctx: &mut Ctx,
    parent: usize,
    queries: &str,
    db_fasta: &str,
    store: &str,
    top: usize,
    events: Option<&str>,
    hold: Duration,
) -> Result<Pass, String> {
    let span_start = ctx.trace.now();
    let (top, slave_count) = (top.to_string(), SLAVES.to_string());
    let mut args = vec![
        "master",
        queries,
        "--db-store",
        store,
        "--listen",
        "127.0.0.1:0",
        "--slaves",
        &slave_count,
        "--policy",
        "pss",
        "--top",
        &top,
    ];
    if let Some(path) = events {
        args.extend(["--events", path]);
    }
    let master = Proc::spawn("master", &ctx.bin, &args)?;
    let addr = master.wait_line(Duration::from_secs(30), parse::listen_addr)?;
    let listening = Instant::now();
    std::thread::sleep(hold);
    let held = listening.elapsed();
    let slaves = (0..SLAVES)
        .map(|i| {
            let name = format!("s{i}");
            Proc::spawn(
                &name,
                &ctx.bin,
                &[
                    "slave",
                    queries,
                    db_fasta,
                    "--connect",
                    &addr,
                    "--name",
                    &name,
                ],
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let started = master.started;
    let master_exit = master.wait(LIMIT)?;
    let mut last = master_exit.ended;
    let mut rss_mb = master_exit.peak_rss_mb;
    let mut executed = Vec::new();
    for slave in slaves {
        let (name, begun) = (slave.name.clone(), slave.started);
        let exit = slave.wait(LIMIT)?;
        last = last.max(exit.ended);
        rss_mb += exit.peak_rss_mb;
        executed.push(parse::slave_executed(&exit.stdout).unwrap_or(0));
        let (a, b) = (ctx.trace.at(begun), ctx.trace.at(exit.ended));
        ctx.trace.add(Some(parent), "process:slave", &name, a, b);
    }
    let master_ended = ctx.trace.at(master_exit.ended);
    let master_span = ctx
        .trace
        .add(Some(parent), "process:master", "", span_start, master_ended);
    let master = parse::master_output(&master_exit.stdout)?;
    let events = match events {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let summary = parse::events(&text)?;
            // The master's clock starts when it has loaded its inputs, a
            // moment before it prints the address.
            let origin = master_ended - master.elapsed_s;
            for &(pe, task, a, b) in &summary.executions {
                ctx.trace.add(
                    Some(master_span),
                    "task",
                    &format!("pe{pe}/t{task}"),
                    origin + a,
                    origin + b,
                );
            }
            Some(summary)
        }
    };
    Ok(Pass {
        wall_s: (last - started - held).as_secs_f64(),
        rss_mb,
        master,
        executed,
        events,
    })
}

/// The merged top `n` that `master --top n` must print, from the `search`
/// CLI's per-query tables: all rows, best score first.
fn flatten(reference: &[Vec<Hit>], n: usize) -> Vec<(i64, usize, String)> {
    let mut all: Vec<(i64, usize, String)> = reference
        .iter()
        .enumerate()
        .flat_map(|(qi, t)| t.iter().map(move |h| (h.score, qi, h.subject.clone())))
        .collect();
    all.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| (a.1, &a.2).cmp(&(b.1, &b.2))));
    all.truncate(n);
    all
}

/// The merged hits equal the flattened reference: the same scores in the
/// same order, and the same (query, subject) wherever the score is above
/// the last one — rows that tie on the cut-off score may be any of the tied.
fn merged_matches(merged: &[(usize, Hit)], want: &[(i64, usize, String)]) -> bool {
    let cut = want.last().map_or(i64::MIN, |w| w.0);
    let above = |rows: Vec<(i64, usize, String)>| {
        let mut rows: Vec<_> = rows.into_iter().filter(|r| r.0 > cut).collect();
        rows.sort();
        rows
    };
    let got: Vec<_> = merged
        .iter()
        .map(|(q, h)| (h.score, *q, h.subject.clone()))
        .collect();
    got.iter().map(|g| g.0).eq(want.iter().map(|w| w.0)) && above(got) == above(want.to_vec())
}

pub fn run(ctx: &mut Ctx, label: &str, spec: &DataSpec) -> Result<Outcome, String> {
    let inputs = write_inputs(ctx, label, spec)?;
    // Set-up is the store build plus booting the three processes: a run
    // with one 8-residue query, which is all start-up, registration and
    // shutdown.
    let boot_queries = ctx.path("boot.fasta");
    std::fs::write(&boot_queries, ">boot\nMKVLAAGI\n")
        .map_err(|e| format!("{boot_queries}: {e}"))?;
    let setup_s = store_setups(ctx, &inputs, |ctx, span, k| {
        Ok(pass(
            ctx,
            span,
            &boot_queries,
            &inputs.db_fasta,
            &inputs.store,
            1,
            None,
            hold(k),
        )?
        .wall_s)
    })?;
    let mut checker = Checker::default();
    let reference = reference_tables(ctx, &mut checker, &inputs)?;
    let want = flatten(&reference, 100);
    let queries = inputs.data.queries.len() as u64;

    let events_path = ctx.path("events.jsonl");
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let mut last_traced: Option<Pass> = None;
    let measure = ctx.trace.open(Some(ctx.root), "measure", label);
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        // In a traced run every second pass streams events.
        let with_events = ctx.traced && walls.len() % 2 == 1;
        let span = ctx
            .trace
            .open(Some(measure), "pass", &walls.len().to_string());
        let p = pass(
            ctx,
            span,
            &inputs.queries,
            &inputs.db_fasta,
            &inputs.store,
            100,
            with_events.then_some(events_path.as_str()),
            Duration::ZERO,
        )?;
        ctx.trace.close(span);
        walls.push(p.wall_s);
        rss.push(p.rss_mb);
        checker.check(
            queries,
            p.master.completed == queries
                && p.executed.iter().sum::<u64>() >= queries
                && merged_matches(&p.master.merged, &want),
            || {
                format!(
                    "pass {}: {} tasks completed, slaves executed {:?}, merged top-100 {} the search tables",
                    walls.len() - 1,
                    p.master.completed,
                    p.executed,
                    if merged_matches(&p.master.merged, &want) { "equals" } else { "differs from" }
                )
            },
        );
        if with_events {
            last_traced = Some(p);
        }
    }
    ctx.trace.close(measure);

    let wall = median(&walls);
    let nominal = inputs.data.nominal_cells() as f64;
    let metrics = if ctx.traced {
        let last = last_traced.as_ref().ok_or("no traced pass ran")?;
        let ev = last.events.as_ref().ok_or("traced pass without events")?;
        let mut m = kernel_metrics(&last.master.kernels, nominal);
        m.extend([
            ("trace.overhead_share".to_string(), overhead_share(&walls)),
            ("gen.gen_s".to_string(), inputs.gen_s),
            (
                "cli.overhead_share".to_string(),
                (last.wall_s - last.master.elapsed_s) / last.wall_s,
            ),
            ("core.pool.pe_idle_share".to_string(), ev.pe_idle_share),
            ("core.sched.batch_size_mean".to_string(), ev.batch_size_mean),
            (
                "core.sched.replicas_started".to_string(),
                ev.replicas_started as f64,
            ),
            (
                "core.sched.replicas_cancelled".to_string(),
                ev.replicas_cancelled as f64,
            ),
            (
                "core.sched.wasted_cells_share".to_string(),
                ev.wasted_cells as f64 / nominal,
            ),
        ]);
        m
    } else {
        EndToEnd {
            setup_s,
            latency_s: wall,
            queries_per_s: queries as f64 / wall,
            cells_per_s: nominal / wall,
            peak_rss_mb: median(&rss),
        }
        .into_metrics()
    };
    let rescore = want
        .iter()
        .map(|(score, qi, subject)| Rescore {
            query: inputs.data.queries[*qi].seq.clone(),
            subject: subject.clone(),
            score: *score,
        })
        .collect();
    Ok(Outcome {
        checker,
        metrics,
        rescore,
        db_fasta: inputs.db_fasta,
    })
}

/// The per-message cost of the master/slave wire, measured where compute
/// is negligible: `tasks` queries of 8 residues against a 64-subject
/// database, with the event log on.
pub struct NetProbe {
    pub task_overhead_us: f64,
    pub events_per_task: f64,
    pub register_ms: f64,
    pub assign_to_start_us_p50: f64,
}

pub fn net_probe(ctx: &mut Ctx, parent: usize, tasks: usize) -> Result<NetProbe, String> {
    let span = ctx.trace.open(Some(parent), "probe:core.net", "");
    let mut rng = gen::Rng::derive(ctx.seed, "net_probe");
    let queries = gen::random_records(&mut rng, "t", tasks, 8);
    let subjects = gen::random_records(&mut rng, "n", 64, 40);
    let (q, db, store, ev) = (
        ctx.path("net_q.fasta"),
        ctx.path("net_db.fasta"),
        ctx.path("net_db.swdb"),
        ctx.path("net_events.jsonl"),
    );
    std::fs::write(&q, gen::to_fasta(&queries))
        .and_then(|()| std::fs::write(&db, gen::to_fasta(&subjects)))
        .map_err(|e| format!("writing the wire probe's inputs: {e}"))?;
    ctx.run(span, "db-build", "net_probe", &["db", "build", &db, &store])?;
    let p = pass(ctx, span, &q, &db, &store, 10, Some(&ev), Duration::ZERO)?;
    ctx.trace.close(span);
    let events = p.events.ok_or("wire probe ran without events")?;
    if p.master.completed != tasks as u64 {
        return Err(format!(
            "wire probe completed {} of {tasks} tasks",
            p.master.completed
        ));
    }
    Ok(NetProbe {
        // Scheduling span (first assignment → run completed) per task.
        task_overhead_us: (p.master.elapsed_s - events.register_s).max(0.0) / tasks as f64 * 1e6,
        events_per_task: events.events as f64 / tasks as f64,
        register_ms: events.register_s * 1e3,
        assign_to_start_us_p50: median(&events.assign_to_start_s) * 1e6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(score: i64, subject: &str) -> Hit {
        Hit {
            score,
            subject: subject.into(),
            len: 0,
        }
    }

    #[test]
    fn flatten_orders_by_score_and_cuts() {
        let reference = vec![
            vec![hit(90, "a"), hit(40, "b")],
            vec![hit(95, "c"), hit(40, "d")],
        ];
        let flat = flatten(&reference, 3);
        assert_eq!(
            flat,
            [
                (95, 1, "c".to_string()),
                (90, 0, "a".into()),
                (40, 0, "b".into())
            ]
        );
    }

    #[test]
    fn merged_rows_may_differ_only_among_ties_on_the_cut_off_score() {
        let want = vec![
            (95, 1, "c".to_string()),
            (90, 0, "a".into()),
            (40, 0, "b".into()),
        ];
        let ok = vec![(1, hit(95, "c")), (0, hit(90, "a")), (1, hit(40, "d"))];
        assert!(merged_matches(&ok, &want));
        let wrong_subject = vec![(1, hit(95, "c")), (0, hit(90, "x")), (0, hit(40, "b"))];
        assert!(!merged_matches(&wrong_subject, &want));
        let wrong_score = vec![(1, hit(95, "c")), (0, hit(90, "a")), (0, hit(39, "b"))];
        assert!(!merged_matches(&wrong_score, &want));
        assert!(!merged_matches(&ok[..2], &want));
    }
}
