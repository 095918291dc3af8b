//! `scan_short` and `scan_long`: the one-shot `swhybrid search` CLI over a
//! `.swdb` store, one process per pass.

use crate::common::*;
use crate::gen::DataSpec;
use crate::parse::{self, SearchOutput};
use crate::stats::median;
use std::time::Instant;

pub fn run(ctx: &mut Ctx, label: &str, spec: &DataSpec) -> Result<Outcome, String> {
    let inputs = write_inputs(ctx, label, spec)?;
    let setup_s = store_setups(ctx, &inputs, |_, _, _| Ok(0.0))?;
    let queries = inputs.data.queries.len() as u64;

    let mut checker = Checker::default();
    let mut first: Option<SearchOutput> = None;
    let (mut walls, mut rss, mut scan_s) = (Vec::new(), Vec::new(), Vec::new());
    let measure = ctx.trace.open(Some(ctx.root), "measure", label);
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let pass = ctx
            .trace
            .open(Some(measure), "pass", &walls.len().to_string());
        let exit = ctx.run(
            pass,
            "search",
            label,
            &[
                "search",
                &inputs.queries,
                "--db-store",
                &inputs.store,
                "--top",
                "10",
                "--threads",
                "1",
            ],
        )?;
        ctx.trace.close(pass);
        walls.push(exit.wall_s);
        rss.push(exit.peak_rss_mb);
        let out = parse::search_output(&exit.stdout)?;
        scan_s.push(out.scan_s);
        // The program's own span of the scan loop, placed at the end of
        // its process (it prints the summary last).
        let end = ctx.trace.at(exit.ended);
        ctx.trace
            .add(Some(pass), "search:scan-loop", label, end - out.scan_s, end);

        checker.attempted += queries;
        if out.tables.len() as u64 != queries {
            checker.fail(queries, || {
                format!("{} tables for {queries} queries", out.tables.len())
            });
            continue;
        }
        check_planted(&mut checker, &out.tables, &inputs.data.planted);
        match &first {
            None => first = Some(out),
            // Hit tables and kernel counts must repeat exactly.
            Some(f) if f.tables != out.tables || f.kernels != out.kernels => {
                checker.fail(queries, || "a pass printed other tables or counts".into())
            }
            Some(_) => {}
        }
    }
    ctx.trace.close(measure);

    let wall = median(&walls);
    let nominal = inputs.data.nominal_cells() as f64;
    let first = first.ok_or("no pass produced hit tables")?;
    let metrics = if ctx.traced {
        let mut m = kernel_metrics(&first.kernels, nominal);
        m.insert("cli.overhead_share".into(), (wall - median(&scan_s)) / wall);
        m.insert("trace.overhead_share".into(), overhead_share(&walls));
        m.insert("gen.gen_s".into(), inputs.gen_s);
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
    Ok(Outcome {
        checker,
        metrics,
        rescore: rescore_rows(&first.tables, &inputs.data.queries),
        db_fasta: inputs.db_fasta,
    })
}
