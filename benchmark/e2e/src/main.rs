//! `swbench`: the end-to-end benchmark driver of swhybrid.
//!
//! With `--workload` it is one run of the driver contract: one workload,
//! one seed, `--seconds` of measurement, end-to-end metrics (`--trace 0`)
//! or per-layer metrics (`--trace 1`), one JSON object as the last line of
//! stdout. Without it, it is the suite: every workload both ways, one JSON
//! document, one row appended to `benchmark/history.jsonl`.
//!
//! The program under test is reached only as child processes and over its
//! TCP protocol; this crate links nothing the repository builds.

mod common;
mod gen;
mod json;
mod mstcp;
mod parse;
mod probes;
mod proc;
mod scan;
mod sched;
mod serve;
mod stats;
mod suite;
mod trace;

use common::{Ctx, Metrics, Outcome};
use gen::{ladder, DataSpec};
use json::Json;
use std::path::{Path, PathBuf};

/// One declared metric of `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better_lower: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end only.
    pub bound: f64,
}

/// `BENCHMARK.json`: the one place metric names, units and bounds live.
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            j.get(key)
                .map(Json::arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    Some(Declared {
                        name: m.get("name")?.str()?.to_string(),
                        unit: m.get("unit")?.str()?.to_string(),
                        better_lower: m.get("better")?.str()? == "lower",
                        bound: m.get("bound").and_then(Json::num).unwrap_or(0.0),
                    })
                })
                .collect::<Option<_>>()
                .ok_or_else(|| format!("{}: malformed `{key}`", path.display()))
        };
        Ok(Contract {
            workloads: j
                .get("workloads")
                .map(Json::arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|w| w.get("name")?.str().map(str::to_string))
                .collect(),
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
            run_seconds: j.get("run_seconds").and_then(Json::num).unwrap_or(10.0),
        })
    }
}

/// Where things are; the same for every run of one invocation.
pub struct Env {
    pub root: PathBuf,
    pub bin: PathBuf,
    pub layers: PathBuf,
    pub contract: Contract,
}

pub struct RunArgs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: f64,
}

/// What one run reports: the contract's result object, in parts.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let fields = [("value", Json::Num(*value)), ("unit", Json::text(unit))];
                            (name.clone(), Json::obj(fields))
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn dispatch(ctx: &mut Ctx, workload: &str) -> Result<Outcome, String> {
    let data = |ctx: &Ctx, residues: usize, query_lens: Vec<usize>| DataSpec {
        db_residues: ctx.scaled(residues),
        query_lens,
    };
    match workload {
        "scan_short" => scan::run(ctx, workload, &data(ctx, 950_000, ladder(64, 24, 96))),
        "scan_long" => scan::run(ctx, workload, &data(ctx, 160_000, vec![2100, 2600, 3100])),
        "serve_open" => serve::run(
            ctx,
            workload,
            &serve::Spec {
                data: data(ctx, 470_000, ladder(128, 30, 90)),
                cache: 0,
                rates: [50.0, 100.0, 180.0],
                limit_ms: 100.0,
            },
        ),
        "serve_cached" => serve::run(
            ctx,
            workload,
            &serve::Spec {
                data: data(ctx, 470_000, ladder(96, 30, 90)),
                cache: 128,
                rates: [500.0, 1000.0, 2000.0],
                limit_ms: 10.0,
            },
        ),
        "ms_tcp" => mstcp::run(ctx, workload, &data(ctx, 470_000, ladder(40, 100, 2000))),
        "sched_engine" => sched::run(ctx, workload),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One run: set up, measure, check, and (traced) probe the layers.
pub fn run_once(env: &Env, args: &RunArgs) -> Result<Report, String> {
    if !env.contract.workloads.iter().any(|w| w == args.workload) {
        return Err(format!(
            "BENCHMARK.json declares no workload {:?}",
            args.workload
        ));
    }
    let data = env.root.join("benchmark/.data").join(args.workload);
    common::fresh_dir(&data)?;
    let mut trace = trace::Trace::new(args.traced);
    let root = trace.open(None, "run", args.workload);
    let mut ctx = Ctx {
        bin: env.bin.clone(),
        layers: env.layers.clone(),
        data: data.clone(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        traced: args.traced,
        trace,
        root,
    };
    let mut outcome = dispatch(&mut ctx, args.workload)?;
    let mut measured: Metrics = std::mem::take(&mut outcome.metrics);
    if args.traced {
        let (probed, mismatches) = probes::run(&mut ctx, &outcome)?;
        measured.extend(probed);
        if mismatches > 0 {
            outcome.checker.fail(mismatches, || {
                format!("{mismatches} reported scores differ from the scalar oracle")
            });
        }
        ctx.trace.close(root);
        let self_times = ctx.trace.self_times();
        measured.insert("trace.spans".into(), ctx.trace.len() as f64);
        measured.insert(
            "trace.driver_self_s".into(),
            self_times.get("run").map_or(0.0, |r| r.2),
        );
        eprintln!("self time by span, {} (seed {}):", args.workload, args.seed);
        eprintln!(
            "  {:<28} {:>6} {:>10} {:>10}",
            "span", "count", "total s", "self s"
        );
        for (name, (count, total, own)) in &self_times {
            eprintln!("  {name:<28} {count:>6} {total:>10.4} {own:>10.4}");
        }
        let results = env.root.join("benchmark/results");
        let path = results.join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(&results)
            .and_then(|()| std::fs::write(&path, ctx.trace.to_jsonl()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let _ = std::fs::remove_dir_all(&data);
    for reason in &outcome.checker.reasons {
        eprintln!("FAILED {}: {reason}", args.workload);
    }

    // Report exactly what BENCHMARK.json declares, in its order. A layer
    // metric that has no meaning on this workload reads 0; none of those
    // is a time.
    let declared = if args.traced {
        &env.contract.per_layer
    } else {
        &env.contract.end_to_end
    };
    if let Some(stray) = measured
        .keys()
        .find(|k| !declared.iter().any(|d| &d.name == *k))
    {
        return Err(format!(
            "measured {stray:?}, which BENCHMARK.json does not declare"
        ));
    }
    let metrics = declared
        .iter()
        .map(|d| match measured.get(&d.name) {
            Some(v) if v.is_finite() => Ok((d.name.clone(), *v, d.unit.clone())),
            Some(v) => Err(format!("{} measured as {v}", d.name)),
            None if args.traced => Ok((d.name.clone(), 0.0, d.unit.clone())),
            None => Err(format!("{} was not measured", d.name)),
        })
        .collect::<Result<_, _>>()?;
    Ok(Report {
        attempted: outcome.checker.attempted.max(1),
        failed: outcome.checker.failed,
        metrics,
    })
}

struct Cli {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        const SWITCHES: [&str; 2] = ["aa", "smoke"];
        let mut cli = Cli {
            flags: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if SWITCHES.contains(&name) {
                cli.switches.push(name.to_string());
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                cli.flags.push((name.to_string(), value.clone()));
            }
        }
        Ok(cli)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args)?;
    let root = PathBuf::from(cli.get("root").unwrap_or("."));
    let root = root
        .canonicalize()
        .map_err(|e| format!("{}: {e}", root.display()))?;
    let path_flag = |name: &str| -> Result<PathBuf, String> {
        let p = PathBuf::from(
            cli.get(name)
                .ok_or_else(|| format!("--{name} PATH is required"))?,
        );
        p.canonicalize()
            .map_err(|e| format!("--{name} {}: {e}", p.display()))
    };
    let env = Env {
        bin: path_flag("bin")?,
        layers: path_flag("layers")?,
        contract: Contract::load(&root)?,
        root,
    };
    let smoke = cli.switches.iter().any(|s| s == "smoke");
    let seconds = cli.parsed(
        "seconds",
        if smoke { 0.5 } else { env.contract.run_seconds },
    )?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let scale = if smoke { 0.1 } else { 1.0 };
    let seed = cli.parsed("seed", 2013u64)?;

    if let Some(workload) = cli.get("workload") {
        let traced = match cli.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let report = run_once(
            &env,
            &RunArgs {
                workload,
                seed,
                seconds,
                traced,
                scale,
            },
        )?;
        println!("{}", report.to_json());
        return Ok(true);
    }
    let options = suite::Options {
        seed,
        seconds,
        scale,
        aa: cli.switches.iter().any(|s| s == "aa"),
        spread: cli.parsed("spread", 0)?,
        record: !smoke,
        compare: cli.get("compare").map(str::to_string),
    };
    suite::run(&env, &options)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("swbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads this binary knows are exactly those BENCHMARK.json
    /// declares, and the declared metrics are well-formed.
    #[test]
    fn benchmark_json_and_the_driver_agree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let contract = Contract::load(&root).unwrap();
        assert_eq!(
            contract.workloads,
            [
                "scan_short",
                "scan_long",
                "serve_open",
                "serve_cached",
                "ms_tcp",
                "sched_engine"
            ]
        );
        let e2e: Vec<&str> = contract
            .end_to_end
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(
            e2e,
            [
                "latency_ms",
                "queries_per_s",
                "gcups",
                "peak_rss_mb",
                "setup_s"
            ]
        );
        assert!(contract
            .end_to_end
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(!contract.per_layer.is_empty() && contract.per_layer.len() <= 128);
        // A layer metric that can be "not applicable" (0) on some workload
        // must not be a time: times come from the probes every traced run
        // makes, so they are measured everywhere.
        let always = [
            "seq.",
            "store.",
            "simd.profile_build_us",
            "simd.chunk_overhead_us",
            "core.sched.us_per_decision",
            "serve.parse_request_us",
            "serve.result_to_json_us",
            "cli.spawn_ms",
            "core.net.task_overhead_us",
            "core.net.register_ms",
            "core.pool.assign_to_start_us_p50",
            "gen.gen_s",
            "trace.driver_self_s",
        ];
        for d in &contract.per_layer {
            if ["s", "ms", "us", "ns"].contains(&d.unit.as_str()) {
                assert!(
                    always.iter().any(|p| d.name.starts_with(p)),
                    "{} is a time",
                    d.name
                );
            }
        }
    }

    #[test]
    fn report_prints_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![("latency_ms".into(), 1.25, "ms".into())],
        };
        let j = Json::parse(&report.to_json().to_string()).unwrap();
        let keys: Vec<&str> = j.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            j.path("metrics.latency_ms.value").and_then(Json::num),
            Some(1.25)
        );
        assert_eq!(
            j.path("metrics.latency_ms.unit").and_then(Json::str),
            Some("ms")
        );
        assert_eq!(j.get("correct").and_then(Json::bool), Some(true));
    }
}
