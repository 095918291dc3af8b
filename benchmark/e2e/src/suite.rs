//! The suite: every workload of `BENCHMARK.json` untraced and traced, one
//! JSON document, one row appended to `benchmark/history.jsonl`; `--aa`
//! (two runs of the same build against each other) and `--compare REV`
//! (this run against a recorded row).

use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::{run_once, Declared, Env, Report, RunArgs};
use std::io::Write;
use std::process::Command;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub aa: bool,
    /// `--spread N`: N seeds per workload, 0 when not asked for.
    pub spread: usize,
    /// Append the run to the history; off for `--smoke`.
    pub record: bool,
    pub compare: Option<String>,
}

fn one(env: &Env, opt: &Options, workload: &str, traced: bool) -> Result<Report, String> {
    seeded(env, opt, workload, traced, opt.seed)
}

fn seeded(
    env: &Env,
    opt: &Options,
    workload: &str,
    traced: bool,
    seed: u64,
) -> Result<Report, String> {
    eprintln!(
        "== {workload}, seed {seed} ({})",
        if traced { "traced" } else { "end to end" }
    );
    run_once(
        env,
        &RunArgs {
            workload,
            seed,
            seconds: opt.seconds,
            traced,
            scale: opt.scale,
        },
    )
}

fn first_line(program: &str, args: &[&str], dir: &std::path::Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// The SIMD-relevant CPU flags of this machine.
fn cpu_flags() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("");
    flags
        .split_whitespace()
        .filter(|f| ["sse2", "ssse3", "sse4_1", "avx", "avx2", "avx512bw"].contains(f))
        .collect::<Vec<_>>()
        .join(" ")
}

fn values(report: &Report) -> Json {
    Json::Obj(
        report
            .metrics
            .iter()
            .map(|(name, value, _)| (name.clone(), Json::Num(*value)))
            .collect(),
    )
}

/// How much worse `now` is than `base`, as a share of `base`; negative
/// when it is better.
fn worse_by(d: &Declared, base: f64, now: f64) -> f64 {
    if d.better_lower {
        (now - base) / base
    } else {
        (base - now) / base
    }
}

/// Print one comparison table; true when every row is within its bound.
/// `two_sided` also rejects a gap in the better direction (`--aa`: the two
/// sides are the same build).
fn compare(env: &Env, title: &str, rows: &[(String, Json, Json)], two_sided: bool) -> bool {
    let mut ok = true;
    println!("{title}");
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "base", "this", "worse by", "bound"
    );
    for (workload, base, this) in rows {
        for d in &env.contract.end_to_end {
            let (Some(b), Some(t)) = (
                base.get(&d.name).and_then(Json::num),
                this.get(&d.name).and_then(Json::num),
            ) else {
                println!("{workload:<14} {:<14} missing on one side", d.name);
                ok = false;
                continue;
            };
            let gap = worse_by(d, b, t);
            let outside = gap > d.bound || (two_sided && gap < -d.bound);
            ok &= !outside;
            println!(
                "{workload:<14} {:<14} {b:>14.4} {t:>14.4} {:>8.2}% {:>6.0}%{}",
                d.name,
                gap * 100.0,
                d.bound * 100.0,
                if outside { "  OUTSIDE" } else { "" }
            );
        }
    }
    ok
}

/// Run every workload on `runs` consecutive seeds and print, per end-to-end
/// metric, the median and the distance between the quartiles as a share of
/// it — the steadiness a bound has to be read against. True when every
/// spread is within its metric's bound.
fn spread(env: &Env, opt: &Options, runs: usize) -> Result<bool, String> {
    let mut ok = true;
    println!("spread over seeds {}..{}", opt.seed, opt.seed + runs as u64);
    println!(
        "{:<14} {:<14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "IQR/med", "bound"
    );
    for w in &env.contract.workloads {
        let reports = (0..runs as u64)
            .map(|i| seeded(env, opt, w, false, opt.seed + i))
            .collect::<Result<Vec<_>, _>>()?;
        ok &= reports.iter().all(|r| r.failed == 0);
        for (i, d) in env.contract.end_to_end.iter().enumerate() {
            let values: Vec<f64> = reports.iter().map(|r| r.metrics[i].1).collect();
            let (q1, q3) = quartiles(&values);
            let share = (q3 - q1) / median(&values);
            ok &= share <= d.bound;
            println!(
                "{w:<14} {:<14} {:>14.4} {:>8.2}% {:>6.0}%{}",
                d.name,
                median(&values),
                share * 100.0,
                d.bound * 100.0,
                if share > d.bound / 3.0 {
                    "  above a third of the bound"
                } else {
                    ""
                }
            );
        }
    }
    Ok(ok)
}

pub fn run(env: &Env, opt: &Options) -> Result<bool, String> {
    let workloads = &env.contract.workloads;
    if opt.spread >= 2 {
        return spread(env, opt, opt.spread);
    }
    if opt.aa {
        let mut rows = Vec::new();
        let mut failed = 0;
        for w in workloads {
            let (a, b) = (one(env, opt, w, false)?, one(env, opt, w, false)?);
            failed += a.failed + b.failed;
            rows.push((w.clone(), values(&a), values(&b)));
        }
        let within = compare(env, "A/A: two runs of the same build", &rows, true);
        return Ok(within && failed == 0);
    }

    let mut per_workload = Vec::new();
    let mut failed = 0;
    for w in workloads {
        let (e2e, layers) = (one(env, opt, w, false)?, one(env, opt, w, true)?);
        failed += e2e.failed + layers.failed;
        per_workload.push((
            w.clone(),
            Json::obj([
                (
                    "attempted",
                    Json::Num((e2e.attempted + layers.attempted) as f64),
                ),
                ("failed", Json::Num((e2e.failed + layers.failed) as f64)),
                ("end_to_end", values(&e2e)),
                ("per_layer", values(&layers)),
            ]),
        ));
    }
    let rev = first_line("git", &["rev-parse", "--short", "HEAD"], &env.root);
    let row = Json::obj([
        ("rev", Json::text(rev.unwrap_or_else(|| "unknown".into()))),
        ("seed", Json::Num(opt.seed as f64)),
        ("seconds", Json::Num(opt.seconds)),
        ("scale", Json::Num(opt.scale)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_flags", Json::text(cpu_flags())),
        (
            "rustc",
            Json::text(first_line("rustc", &["--version"], &env.root).unwrap_or_default()),
        ),
        ("workloads", Json::Obj(per_workload.clone())),
    ]);

    // The document: the row, plus every metric's unit by name.
    let declared = env
        .contract
        .end_to_end
        .iter()
        .chain(&env.contract.per_layer);
    let units = Json::Obj(
        declared
            .map(|d| (d.name.clone(), Json::text(&d.unit)))
            .collect(),
    );
    let mut document = row.fields().to_vec();
    document.insert(document.len() - 1, ("units".to_string(), units));
    println!("{}", Json::Obj(document).pretty());

    let history = env.root.join("benchmark/history.jsonl");
    let mut ok = failed == 0;
    if let Some(rev) = &opt.compare {
        let text =
            std::fs::read_to_string(&history).map_err(|e| format!("{}: {e}", history.display()))?;
        let base = text
            .lines()
            .rev()
            .filter_map(|l| Json::parse(l).ok())
            .find(|r| r.get("rev").and_then(Json::str) == Some(rev.as_str()))
            .ok_or_else(|| format!("{}: no row for rev {rev}", history.display()))?;
        let rows: Vec<_> = per_workload
            .iter()
            .map(|(w, body)| {
                let base_values = base.path(&format!("workloads.{w}.end_to_end"));
                (
                    w.clone(),
                    base_values.cloned().unwrap_or(Json::Null),
                    body.get("end_to_end").cloned().unwrap_or(Json::Null),
                )
            })
            .collect();
        ok &= compare(
            env,
            &format!("against the recorded row of {rev}"),
            &rows,
            false,
        );
    }
    if opt.record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)
            .map_err(|e| format!("{}: {e}", history.display()))?;
        writeln!(file, "{row}").map_err(|e| format!("{}: {e}", history.display()))?;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        let lower = Declared {
            name: "latency_ms".into(),
            unit: "ms".into(),
            better_lower: true,
            bound: 0.1,
        };
        let higher = Declared {
            better_lower: false,
            ..Declared {
                name: "gcups".into(),
                unit: "GCUPS".into(),
                better_lower: true,
                bound: 0.1,
            }
        };
        assert!((worse_by(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(&lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(&higher, 10.0, 12.0) < 0.0);
    }
}
