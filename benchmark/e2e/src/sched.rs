//! `sched_engine`: `swhybrid simulate` on a 100-PE fleet — the scheduling
//! engine and the simulator under virtual time, with no kernel at all.

use crate::common::*;
use crate::parse::{self, SimOutput};
use crate::stats::median;
use std::time::Instant;

pub const FLEET: &str = "sse:80+gpu:16+fpga:4";

/// `simulate` on `fleet` with `queries` tasks, from spawn to exit.
pub fn simulate(
    ctx: &mut Ctx,
    parent: usize,
    fleet: &str,
    queries: usize,
) -> Result<(crate::proc::Exit, SimOutput), String> {
    let n = queries.to_string();
    let exit = ctx.run(
        parent,
        "simulate",
        fleet,
        &[
            "simulate",
            "--fleet",
            fleet,
            "--queries",
            &n,
            "--policy",
            "pss",
        ],
    )?;
    let out = parse::simulate_output(&exit.stdout)?;
    Ok((exit, out))
}

pub fn run(ctx: &mut Ctx, label: &str) -> Result<Outcome, String> {
    // `simulate` takes no input file and no seed, so this workload is the
    // same on every seed. (Letting the seed pick the task count within 1 %
    // of 100,000 moved the pass time between 0.9 and 1.5 s on the parent
    // commit: the end-of-run schedule is that sensitive to the count.)
    let gen_started = Instant::now();
    let tasks = ctx.scaled(100_000);
    let gen_s = gen_started.elapsed().as_secs_f64();
    let setup_s = setups(ctx, |ctx, span, _| {
        Ok(simulate(ctx, span, FLEET, 1)?.0.wall_s)
    })?;

    let mut checker = Checker::default();
    let mut first: Option<Vec<String>> = None;
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let mut virtual_cells = 0.0;
    let measure = ctx.trace.open(Some(ctx.root), "measure", label);
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let span = ctx
            .trace
            .open(Some(measure), "pass", &walls.len().to_string());
        let (exit, out) = simulate(ctx, span, FLEET, tasks)?;
        ctx.trace.close(span);
        walls.push(exit.wall_s);
        rss.push(exit.peak_rss_mb);
        virtual_cells = out.virtual_s * out.virtual_gcups * 1e9;
        // Virtual time has no noise: every pass must print the same report,
        // and every task must have completed on some PE.
        let same = first.get_or_insert_with(|| exit.stdout.clone()) == &exit.stdout;
        checker.check(tasks as u64, same && out.completed == tasks as u64, || {
            format!(
                "pass {}: {} of {tasks} tasks completed, report {} the first pass's",
                walls.len() - 1,
                out.completed,
                if same { "equals" } else { "differs from" }
            )
        });
    }
    ctx.trace.close(measure);

    let wall = median(&walls);
    let metrics = if ctx.traced {
        Metrics::from([
            ("trace.overhead_share".to_string(), overhead_share(&walls)),
            ("gen.gen_s".to_string(), gen_s),
        ])
    } else {
        EndToEnd {
            setup_s,
            latency_s: wall,
            queries_per_s: tasks as f64 / wall,
            // Simulated cells per second of real time.
            cells_per_s: virtual_cells / wall,
            peak_rss_mb: median(&rss),
        }
        .into_metrics()
    };
    Ok(Outcome {
        checker,
        metrics,
        rescore: Vec::new(),
        db_fasta: String::new(),
    })
}
