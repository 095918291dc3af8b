//! The per-layer probes of a traced run. They are the same on every
//! workload: the `swbench-layers` binary times a pinned list of library
//! functions, and a few child-process runs of the program measure what has
//! no library entry point (process start-up, the master/slave wire, the
//! device models).

use crate::common::*;
use crate::gen::{self, DataSpec};
use crate::json::Json;
use crate::mstcp;
use crate::proc::Proc;
use crate::sched;
use crate::stats::median;
use std::time::Duration;

/// Tasks of the bare-engine run that `core.sim.overhead_share` compares
/// with `simulate`; `swbench-layers` is told the same number.
const SIM_TASKS: usize = 50_000;
const WIRE_TASKS: usize = 400;

pub fn run(ctx: &mut Ctx, outcome: &Outcome) -> Result<(Metrics, u64), String> {
    let parent = ctx.trace.open(Some(ctx.root), "probes", "");
    let mut m = Metrics::new();

    // Inputs of the library probes: a database of the usual shape, and the
    // workload's reported hits for scalar re-scoring.
    let probe_db = ctx.path("probe_db.fasta");
    let spec = DataSpec {
        db_residues: ctx.scaled(90_000),
        query_lens: Vec::new(),
    };
    let db = gen::generate(ctx.seed, "probe_db", &spec);
    let rescore = ctx.path("rescore.tsv");
    let rows: String = outcome
        .rescore
        .iter()
        .map(|r| format!("{}\t{}\t{}\n", r.query, r.subject, r.score))
        .collect();
    std::fs::write(&probe_db, gen::to_fasta(&db.subjects))
        .and_then(|()| std::fs::write(&rescore, rows))
        .map_err(|e| format!("writing probe inputs: {e}"))?;

    let sim_tasks = ctx.scaled(SIM_TASKS).to_string();
    let seed = ctx.seed.to_string();
    let mut args = vec![
        "--db",
        probe_db.as_str(),
        "--work",
        ctx.data.to_str().ok_or("data path is not UTF-8")?,
        "--seed",
        &seed,
        "--sched-tasks",
        &sim_tasks,
    ];
    if !outcome.rescore.is_empty() {
        args.extend(["--rescore", &rescore, "--rescore-db", &outcome.db_fasta]);
    }
    let layers = Proc::spawn("layers", &ctx.layers, &args)?;
    let layers_started = ctx.trace.at(layers.started);
    let exit = layers.wait(Duration::from_secs(150))?;
    let layers_span = ctx.trace.add(
        Some(parent),
        "process:layers",
        "",
        layers_started,
        ctx.trace.at(exit.ended),
    );
    let report = Json::parse(exit.stdout.last().ok_or("layers printed nothing")?)?;
    for (name, value) in report.get("metrics").ok_or("layers: no metrics")?.fields() {
        m.insert(
            name.clone(),
            value
                .num()
                .ok_or_else(|| format!("layers: {name} is not a number"))?,
        );
    }
    for span in report.get("spans").map(Json::arr).unwrap_or(&[]) {
        let field = |key: &str| span.get(key).and_then(Json::num).unwrap_or(0.0);
        ctx.trace.add(
            Some(layers_span),
            &format!(
                "probe:{}",
                span.get("name").and_then(Json::str).unwrap_or("?")
            ),
            "",
            layers_started + field("start_s"),
            layers_started + field("end_s"),
        );
    }
    let mismatches = m.get("probe.rescore_mismatches").copied().unwrap_or(0.0) as u64;
    let bare_sched_s = report
        .path("aux.sched_bare_s")
        .and_then(Json::num)
        .ok_or("layers: no aux.sched_bare_s")?;

    // Process start-up: `swhybrid help` does nothing else.
    let span = ctx.trace.open(Some(parent), "probe:cli.spawn", "");
    let mut spawns = Vec::new();
    for _ in 0..9 {
        spawns.push(ctx.run(span, "help", "", &["help"])?.wall_s);
    }
    ctx.trace.close(span);
    m.insert("cli.spawn_ms".into(), median(&spawns) * 1e3);

    // The simulator around the bare engine, and the device models' speeds.
    let span = ctx.trace.open(Some(parent), "probe:core.sim", "");
    let (sim, _) = sched::simulate(ctx, span, sched::FLEET, ctx.scaled(SIM_TASKS))?;
    m.insert(
        "core.sim.overhead_share".into(),
        1.0 - bare_sched_s / sim.wall_s,
    );
    let sse = sched::simulate(ctx, span, "sse:1", 40)?.1.virtual_gcups;
    let gpu = sched::simulate(ctx, span, "gpu:1", 40)?.1.virtual_gcups;
    ctx.trace.close(span);
    m.insert("device.sse_model_gcups".into(), sse);
    m.insert("device.gpu_model_gcups".into(), gpu);
    let striped = m.get("simd.gcups.striped.q512").copied().unwrap_or(0.0);
    m.insert(
        "device.sse_model_over_measured".into(),
        sse / striped.max(f64::MIN_POSITIVE),
    );

    let wire = mstcp::net_probe(ctx, parent, ctx.scaled(WIRE_TASKS).max(40))?;
    m.insert("core.net.task_overhead_us".into(), wire.task_overhead_us);
    m.insert("core.net.events_per_task".into(), wire.events_per_task);
    m.insert("core.net.register_ms".into(), wire.register_ms);
    m.insert(
        "core.pool.assign_to_start_us_p50".into(),
        wire.assign_to_start_us_p50,
    );

    ctx.trace.close(parent);
    Ok((m, mismatches))
}
