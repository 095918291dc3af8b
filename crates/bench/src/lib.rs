//! Shared harness for the paper-reproduction experiments.
//!
//! Every table and figure of the paper's evaluation (§V) is a function in
//! [`experiments`] that builds its workload through this module, runs the
//! platform simulation, and returns the paper-style rows; the `run_all`
//! binary runs them by name, prints them, and dumps machine-readable JSON
//! under `target/experiments/` for `EXPERIMENTS.md`.

use std::io::Write as _;
use std::path::PathBuf;

use swhybrid_json::Json;

use swhybrid_core::platform::{PlatformBuilder, SimOutcome};
use swhybrid_core::policy::Policy;
use swhybrid_device::task::{DeviceKind, TaskSpec};
use swhybrid_seq::db::DbStats;
use swhybrid_seq::synth::{paper_databases, QueryOrder, QuerySetSpec};

/// Seed used by every deterministic experiment.
pub const WORKLOAD_SEED: u64 = 2013;

/// The five paper databases at full scale, in Table II order.
pub fn databases() -> Vec<DbStats> {
    paper_databases()
        .iter()
        .map(|p| p.full_scale_stats())
        .collect()
}

/// The paper's 40-query set (ascending file order — see `DESIGN.md` §2).
pub fn paper_queries() -> QuerySetSpec {
    QuerySetSpec::paper()
}

/// The workload for one database under the paper query set.
pub fn workload(db: &DbStats, order: QueryOrder) -> Vec<TaskSpec> {
    let mut spec = paper_queries();
    spec.order = order;
    PlatformBuilder::workload(db, &spec, WORKLOAD_SEED)
}

/// A platform configuration of the evaluation: `gpus` GTX 580s plus
/// `sse_cores` i7 SSE cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of GPUs.
    pub gpus: usize,
    /// Number of SSE cores.
    pub sse_cores: usize,
}

impl Config {
    /// Short label like `"4G+4S"` or `"2 GPUs"`.
    pub fn label(&self) -> String {
        match (self.gpus, self.sse_cores) {
            (g, 0) => format!("{g} GPU{}", if g == 1 { "" } else { "s" }),
            (0, s) => format!("{s} SSE{}", if s == 1 { "" } else { "s" }),
            (g, s) => format!("{g}G+{s}S"),
        }
    }
}

/// Run one configuration on one database's paper workload.
pub fn run_config(
    config: Config,
    db: &DbStats,
    policy: Policy,
    adjustment: bool,
    order: QueryOrder,
) -> SimOutcome {
    PlatformBuilder::new()
        .add(DeviceKind::Gpu, config.gpus)
        .add(DeviceKind::SseCore, config.sse_cores)
        .policy(policy)
        .adjustment(adjustment)
        .run(workload(db, order))
}

/// A printable/serialisable experiment result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `"table3"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers (first column is the row label).
    pub headers: Vec<String>,
    /// Rows: label + one string per remaining header.
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Start a table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: Vec<String>) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, label: impl Into<String>, values: Vec<String>) {
        let values_len = values.len();
        assert_eq!(
            values_len + 1,
            self.headers.len(),
            "row has {} values for {} headers",
            values_len,
            self.headers.len() - 1
        );
        self.rows.push((label.into(), values));
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for (label, values) in &self.rows {
            widths[0] = widths[0].max(label.len());
            for (i, v) in values.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(v.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let fmt_line = |cells: Vec<String>, widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_line(self.headers.clone(), &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for (label, values) in &self.rows {
            let mut cells = vec![label.clone()];
            cells.extend(values.iter().cloned());
            out.push_str(&fmt_line(cells, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout and persist JSON under `target/experiments/<id>.json`.
    pub fn emit(&self) {
        println!("{}", self.render());
        if let Err(e) = self.save_json() {
            eprintln!("warning: could not save JSON for {}: {e}", self.id);
        }
    }

    fn save_json(&self) -> std::io::Result<PathBuf> {
        let dir = experiments_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().to_string_pretty().as_bytes())?;
        Ok(path)
    }

    /// The table as a JSON value (same shape serde produced: struct
    /// fields as keys, rows as `[label, [values...]]` pairs).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(&self.id)),
            ("title", Json::str(&self.title)),
            (
                "headers",
                Json::Arr(self.headers.iter().map(Json::str).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(label, values)| {
                            Json::Arr(vec![
                                Json::str(label),
                                Json::Arr(values.iter().map(Json::str).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where experiment JSON dumps land.
pub fn experiments_dir() -> PathBuf {
    // target/ lives next to the workspace root Cargo.toml.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.join("target").join("experiments")
}

/// Seconds with one decimal.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.1}")
}

/// Format a GCUPS value.
pub fn fmt_gcups(g: f64) -> String {
    format!("{g:.2}")
}

/// Format a "seconds / GCUPS" cell as the paper's tables do.
pub fn fmt_cell(out: &SimOutcome) -> String {
    format!("{} / {}", fmt_secs(out.seconds()), fmt_gcups(out.gcups()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn databases_are_the_five_paper_ones() {
        let dbs = databases();
        assert_eq!(dbs.len(), 5);
        assert!(dbs[4].name.contains("SwissProt"));
    }

    #[test]
    fn config_labels() {
        assert_eq!(
            Config {
                gpus: 1,
                sse_cores: 0
            }
            .label(),
            "1 GPU"
        );
        assert_eq!(
            Config {
                gpus: 4,
                sse_cores: 4
            }
            .label(),
            "4G+4S"
        );
        assert_eq!(
            Config {
                gpus: 0,
                sse_cores: 8
            }
            .label(),
            "8 SSEs"
        );
    }

    #[test]
    fn table_render_aligns() {
        let mut t = Table::new(
            "test",
            "Test table",
            vec!["db".into(), "a".into(), "b".into()],
        );
        t.row("swissprot", vec!["1.0".into(), "2.0".into()]);
        let s = t.render();
        assert!(s.contains("swissprot"));
        assert!(s.contains("Test table"));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("x", "x", vec!["a".into(), "b".into()]);
        t.row("r", vec![]);
    }

    #[test]
    fn workload_is_deterministic() {
        let dbs = databases();
        let a = workload(&dbs[0], QueryOrder::Shuffled);
        let b = workload(&dbs[0], QueryOrder::Shuffled);
        assert_eq!(a.len(), 40);
        assert_eq!(
            a.iter().map(|t| t.query_len).collect::<Vec<_>>(),
            b.iter().map(|t| t.query_len).collect::<Vec<_>>()
        );
    }
}

pub mod experiments;
