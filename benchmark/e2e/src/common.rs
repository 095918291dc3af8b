//! What every workload shares: the run's context, failure accounting, the
//! generated input files, and the `search` reference tables.

use crate::gen::{self, DataSpec, Dataset};
use crate::parse::{self, Hit, Kernels};
use crate::proc::{self, Exit};
use crate::stats::median;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest set-ups per run; `setup_s` is the median of them all.
pub const MIN_SETUPS: usize = 9;
/// How long a run goes on setting up, if that makes more than the fewest.
pub const SETUP_SECONDS: f64 = 1.5;
/// Both the master and the daemon poll their listener once in this long, so
/// a peer waits up to that to be accepted, by when in the period it
/// connects. A peer started the moment the address is printed connects at
/// one fixed point of the period, and which one moves with the box's load:
/// an `ms_tcp` boot then takes 19 ms or 32 ms, a daemon's 3 ms or 12 ms, and
/// the median of any number of them flips between the two. A user's peers
/// come at any point of the period; so do the set-ups' ([`hold`]).
const ACCEPT_PERIOD: Duration = Duration::from_millis(10);

/// How long the `k`-th set-up holds its peers back once the address is
/// printed: the golden-ratio sequence, which covers the period evenly
/// however many set-ups there are. The time held is not counted.
pub fn hold(k: usize) -> Duration {
    ACCEPT_PERIOD.mul_f64((k as f64 * 0.618_033_988_749_895).fract())
}
/// Fewest passes of a batch workload, however long one takes.
pub const MIN_PASSES: usize = 3;

pub struct Ctx {
    /// The program under test.
    pub bin: PathBuf,
    /// The per-layer probe binary.
    pub layers: PathBuf,
    /// Scratch directory of this workload, inside the checkout.
    pub data: PathBuf,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Problem-size factor: 1 for real runs, 0.1 for `--smoke`.
    pub scale: f64,
    pub traced: bool,
    pub trace: Trace,
    /// The span of the whole run; every other span descends from it.
    pub root: usize,
}

impl Ctx {
    pub fn path(&self, name: &str) -> String {
        self.data.join(name).to_string_lossy().into_owned()
    }

    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(1)
    }

    /// Whether a run that made `done` set-ups since `started` makes
    /// another: [`MIN_SETUPS`] and [`SETUP_SECONDS`]; just three at
    /// `--smoke` size.
    fn sets_up_again(&self, done: usize, started: Instant) -> bool {
        if self.scale < 1.0 {
            return done < 3;
        }
        done < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS
    }

    /// Run the program to completion under a span.
    pub fn run(
        &mut self,
        parent: usize,
        name: &str,
        key: &str,
        args: &[&str],
    ) -> Result<Exit, String> {
        let start = self.trace.now();
        let exit = proc::run(name, &self.bin, args)?;
        self.trace.add(
            Some(parent),
            &format!("process:{name}"),
            key,
            start,
            self.trace.at(exit.ended),
        );
        Ok(exit)
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checker {
    /// Count `ops` attempted operations, all of them failed unless `ok`.
    pub fn check(&mut self, ops: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.fail(ops, why);
        }
    }

    /// Count failures among operations already counted as attempted.
    pub fn fail(&mut self, ops: u64, why: impl FnOnce() -> String) {
        self.failed += ops;
        if self.reasons.len() < 8 {
            self.reasons.push(why());
        }
    }
}

pub type Metrics = BTreeMap<String, f64>;

/// One query against one reported subject, for the scalar re-scoring probe.
pub struct Rescore {
    pub query: String,
    pub subject: String,
    pub score: i64,
}

pub struct Outcome {
    pub checker: Checker,
    pub metrics: Metrics,
    /// Reported hits for the traced run's scalar re-scoring, with the
    /// FASTA database their subjects are in.
    pub rescore: Vec<Rescore>,
    pub db_fasta: String,
}

/// The five end-to-end metrics, as every workload reports them.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Median time of one operation as its user sees it, seconds.
    pub latency_s: f64,
    pub queries_per_s: f64,
    /// Nominal cells (Σ query length × database residues) per second.
    pub cells_per_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn into_metrics(self) -> Metrics {
        Metrics::from([
            ("setup_s".to_string(), self.setup_s),
            ("latency_ms".to_string(), self.latency_s * 1e3),
            ("queries_per_s".to_string(), self.queries_per_s),
            ("gcups".to_string(), self.cells_per_s / 1e9),
            ("peak_rss_mb".to_string(), self.peak_rss_mb),
        ])
    }
}

/// The generated inputs of one workload, on disk.
pub struct Inputs {
    pub data: Dataset,
    pub queries: String,
    pub db_fasta: String,
    pub store: String,
    /// Seconds spent generating and writing them.
    pub gen_s: f64,
}

pub fn write_inputs(ctx: &mut Ctx, label: &str, spec: &DataSpec) -> Result<Inputs, String> {
    let start = Instant::now();
    let span = ctx.trace.open(Some(ctx.root), "gen", label);
    let data = gen::generate(ctx.seed, label, spec);
    let (queries, db_fasta) = (ctx.path("queries.fasta"), ctx.path("db.fasta"));
    std::fs::write(&queries, gen::to_fasta(&data.queries))
        .and_then(|()| std::fs::write(&db_fasta, gen::to_fasta(&data.subjects)))
        .map_err(|e| format!("writing inputs under {}: {e}", ctx.data.display()))?;
    ctx.trace.close(span);
    Ok(Inputs {
        data,
        queries,
        db_fasta,
        store: ctx.path("db.swdb"),
        gen_s: start.elapsed().as_secs_f64(),
    })
}

/// `swhybrid db build`, timed from spawn to exit.
pub fn db_build(ctx: &mut Ctx, parent: usize, inputs: &Inputs) -> Result<Exit, String> {
    ctx.run(
        parent,
        "db-build",
        "",
        &["db", "build", &inputs.db_fasta, &inputs.store],
    )
}

/// Set up again and again, each time under its own span, [`MIN_SETUPS`]
/// times or for [`SETUP_SECONDS`]; returns the median time. `one(ctx, span,
/// k)` is the `k`-th set-up and returns what it took.
pub fn setups(
    ctx: &mut Ctx,
    mut one: impl FnMut(&mut Ctx, usize, usize) -> Result<f64, String>,
) -> Result<f64, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while ctx.sets_up_again(times.len(), started) {
        let k = times.len();
        let span = ctx.trace.open(Some(ctx.root), "setup", &k.to_string());
        times.push(one(ctx, span, k)?);
        ctx.trace.close(span);
    }
    Ok(median(&times))
}

/// [`setups`] of a workload with a database: each builds the store, then
/// `boot(ctx, span, k)` returns what it took to bring the workload's
/// processes to the point where they accept work.
pub fn store_setups(
    ctx: &mut Ctx,
    inputs: &Inputs,
    mut boot: impl FnMut(&mut Ctx, usize, usize) -> Result<f64, String>,
) -> Result<f64, String> {
    setups(ctx, |ctx, span, k| {
        Ok(db_build(ctx, span, inputs)?.wall_s + boot(ctx, span, k)?)
    })
}

/// The `search` CLI's top-10 table of every query: the reference every
/// other surface must reproduce. Two threads, outside any measured phase.
/// A planted homolog missing from its query's table is a failure.
pub fn reference_tables(
    ctx: &mut Ctx,
    checker: &mut Checker,
    inputs: &Inputs,
) -> Result<Vec<Vec<Hit>>, String> {
    let exit = ctx.run(
        ctx.root,
        "search-reference",
        "",
        &[
            "search",
            &inputs.queries,
            "--db-store",
            &inputs.store,
            "--top",
            "10",
            "--threads",
            "2",
        ],
    )?;
    let out = parse::search_output(&exit.stdout)?;
    if out.tables.len() != inputs.data.queries.len() {
        return Err(format!(
            "reference search printed {} tables for {} queries",
            out.tables.len(),
            inputs.data.queries.len()
        ));
    }
    check_planted(checker, &out.tables, &inputs.data.planted);
    Ok(out.tables)
}

/// Every planted homolog of the query is among the reported hits.
pub fn finds_planted(table: &[Hit], planted: &[String]) -> bool {
    planted
        .iter()
        .all(|id| table.iter().any(|h| &h.subject == id))
}

/// One failure per query whose table misses one of its planted homologs.
pub fn check_planted(checker: &mut Checker, tables: &[Vec<Hit>], planted: &[Vec<String>]) {
    for (qi, (table, ids)) in tables.iter().zip(planted).enumerate() {
        if !finds_planted(table, ids) {
            checker.fail(1, || {
                format!("q{qi}: a planted homolog is not in its top 10")
            });
        }
    }
}

/// Every reported hit of every query, for the scalar re-scoring probe.
pub fn rescore_rows(tables: &[Vec<Hit>], queries: &[gen::Record]) -> Vec<Rescore> {
    tables
        .iter()
        .zip(queries)
        .flat_map(|(table, q)| {
            table.iter().map(|h| Rescore {
                query: q.seq.clone(),
                subject: h.subject.clone(),
                score: h.score,
            })
        })
        .collect()
}

/// Relative gap between the medians of the odd passes (the traced ones,
/// where the program has any tracing to turn on) and the even passes.
pub fn overhead_share(walls: &[f64]) -> f64 {
    let plain: Vec<f64> = walls.iter().step_by(2).copied().collect();
    let traced: Vec<f64> = walls.iter().skip(1).step_by(2).copied().collect();
    if traced.is_empty() {
        return 0.0;
    }
    (median(&traced) - median(&plain)) / median(&plain)
}

/// The `simd` counters every scanning workload reports.
pub fn kernel_metrics(k: &Kernels, nominal_cells: f64) -> Metrics {
    Metrics::from([
        ("simd.rerun_share".to_string(), k.rerun_share()),
        (
            "simd.recompute_overhead".to_string(),
            k.cells_computed as f64 / nominal_cells - 1.0,
        ),
        ("simd.chunks_striped".to_string(), k.chunks_striped as f64),
        ("simd.chunks_interseq".to_string(), k.chunks_interseq as f64),
    ])
}

pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_attempts_failures_and_keeps_few_reasons() {
        let mut c = Checker::default();
        c.check(10, true, || unreachable!());
        c.check(5, false, || "five lost".into());
        for i in 0..20 {
            c.fail(1, || format!("late {i}"));
        }
        assert_eq!((c.attempted, c.failed), (15, 25));
        assert_eq!(c.reasons.len(), 8);
        assert_eq!(c.reasons[0], "five lost");
    }

    #[test]
    fn planted_check_needs_every_id() {
        let hit = |s: &str| Hit {
            score: 1,
            subject: s.into(),
            len: 1,
        };
        let table = [hit("a"), hit("b")];
        assert!(finds_planted(&table, &["b".into(), "a".into()]));
        assert!(!finds_planted(&table, &["a".into(), "c".into()]));
    }
}
