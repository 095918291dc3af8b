//! One function per paper table/figure (and per ablation/extension).
//!
//! Each function is deterministic and returns a [`Table`] ready to print —
//! the `run_all` driver calls these by name, and the integration tests
//! assert the headline shapes on the same code.

use crate::{databases, fmt_cell, fmt_gcups, fmt_secs, run_config, workload, Config, Table};
use swhybrid_core::platform::{PlatformBuilder, SimOutcome};
use swhybrid_core::policy::Policy;
use swhybrid_core::sim::SimPe;
use swhybrid_core::trace::Trace;
use swhybrid_device::load::LoadSchedule;
use swhybrid_device::perfmodel::PerfModel;
use swhybrid_device::task::{Device, DeviceKind, TaskSpec};
use swhybrid_seq::synth::QueryOrder;

/// Default order of the evaluation (see `DESIGN.md` §2).
pub const ORDER: QueryOrder = QueryOrder::Ascending;

/// Table II — the five genomic databases.
pub fn table2() -> Table {
    let mut t = Table::new(
        "table2",
        "Table II: genomic databases (synthetic stand-ins, full scale)",
        vec![
            "Database".into(),
            "Sequences".into(),
            "Residues".into(),
            "Mean len".into(),
            "Min".into(),
            "Max".into(),
        ],
    );
    for db in databases() {
        t.row(
            db.name.clone(),
            vec![
                db.num_sequences.to_string(),
                db.total_residues.to_string(),
                format!("{:.0}", db.mean_len()),
                db.min_len.to_string(),
                db.max_len.to_string(),
            ],
        );
    }
    t
}

/// Table III — SSE cores only: 1, 2, 4, 8 cores across the five databases.
pub fn table3() -> Table {
    let core_counts = [1usize, 2, 4, 8];
    let mut t = Table::new(
        "table3",
        "Table III: results for the SSE cores (time s / GCUPS)",
        std::iter::once("Database".to_string())
            .chain(core_counts.iter().map(|c| format!("{c} SSE")))
            .collect(),
    );
    for db in databases() {
        let cells: Vec<String> = core_counts
            .iter()
            .map(|&c| {
                let out = run_config(
                    Config {
                        gpus: 0,
                        sse_cores: c,
                    },
                    &db,
                    Policy::pss_default(),
                    true,
                    ORDER,
                );
                fmt_cell(&out)
            })
            .collect();
        t.row(db.name.clone(), cells);
    }
    t
}

/// Table IV — GPUs only: 1, 2, 4 GPUs across the five databases.
pub fn table4() -> Table {
    let gpu_counts = [1usize, 2, 4];
    let mut t = Table::new(
        "table4",
        "Table IV: results for the GPUs (time s / GCUPS)",
        std::iter::once("Database".to_string())
            .chain(gpu_counts.iter().map(|g| format!("{g} GPU")))
            .collect(),
    );
    for db in databases() {
        let cells: Vec<String> = gpu_counts
            .iter()
            .map(|&g| {
                let out = run_config(
                    Config {
                        gpus: g,
                        sse_cores: 0,
                    },
                    &db,
                    Policy::pss_default(),
                    true,
                    ORDER,
                );
                fmt_cell(&out)
            })
            .collect();
        t.row(db.name.clone(), cells);
    }
    t
}

/// Table V — hybrid configurations across the five databases.
pub fn table5() -> Table {
    let configs = [
        Config {
            gpus: 1,
            sse_cores: 1,
        },
        Config {
            gpus: 1,
            sse_cores: 2,
        },
        Config {
            gpus: 1,
            sse_cores: 4,
        },
        Config {
            gpus: 2,
            sse_cores: 4,
        },
        Config {
            gpus: 4,
            sse_cores: 4,
        },
    ];
    let mut t = Table::new(
        "table5",
        "Table V: results for the GPUs and SSEs (time s / GCUPS)",
        std::iter::once("Database".to_string())
            .chain(configs.iter().map(|c| c.label()))
            .collect(),
    );
    for db in databases() {
        let cells: Vec<String> = configs
            .iter()
            .map(|&c| fmt_cell(&run_config(c, &db, Policy::pss_default(), true, ORDER)))
            .collect();
        t.row(db.name.clone(), cells);
    }
    t
}

/// The Fig. 5 worked-example platform: one GPU exactly 6× faster than three
/// SSE cores, 20 tasks of 1 s GPU time each.
pub fn fig5_platform(adjustment: bool) -> PlatformBuilder {
    let flat = |name: &str, kind, gcups| {
        SimPe::new(Device {
            name: name.into(),
            kind,
            model: PerfModel::flat(gcups),
        })
    };
    PlatformBuilder::new()
        .pe(flat("GPU1", DeviceKind::Gpu, 6.0))
        .pe(flat("SSE1", DeviceKind::SseCore, 1.0))
        .pe(flat("SSE2", DeviceKind::SseCore, 1.0))
        .pe(flat("SSE3", DeviceKind::SseCore, 1.0))
        .policy(Policy::pss_default())
        .adjustment(adjustment)
        .comm_latency(0.0)
}

/// The Fig. 5 workload: 20 identical tasks of 6 Gcells (1 s on the GPU).
pub fn fig5_workload() -> Vec<TaskSpec> {
    (0..20)
        .map(|id| TaskSpec {
            id,
            query_len: 1000,
            queries: 1,
            db_residues: 6_000_000,
            db_sequences: 1_000,
        })
        .collect()
}

/// Fig. 5 — the worked example, with and without the adjustment mechanism.
/// Returns the summary table plus the two ASCII Gantt charts.
pub fn fig5() -> (Table, String) {
    let mut t = Table::new(
        "fig5",
        "Fig. 5: worked example (1 GPU 6x faster than 3 SSEs, 20 tasks)",
        vec![
            "Mechanism".into(),
            "Makespan (s)".into(),
            "Paper (s)".into(),
        ],
    );
    let mut gantts = String::new();
    for (label, adj, paper) in [
        ("with adjustment", true, 14.0),
        ("without adjustment", false, 18.0),
    ] {
        let (out, trace) = fig5_platform(adj).run_traced(fig5_workload());
        t.row(label, vec![fmt_secs(out.seconds()), fmt_secs(paper)]);
        gantts.push_str(&format!("--- {label} ---\n"));
        let names: Vec<String> = out.report.per_pe.iter().map(|p| p.name.clone()).collect();
        gantts.push_str(&trace.render_gantt(&names, 72));
        gantts.push('\n');
    }
    (t, gantts)
}

/// Fig. 6 — GCUPS with/without the adjustment mechanism, SwissProt.
pub fn fig6() -> Table {
    let configs = [
        Config {
            gpus: 1,
            sse_cores: 0,
        },
        Config {
            gpus: 1,
            sse_cores: 4,
        },
        Config {
            gpus: 2,
            sse_cores: 0,
        },
        Config {
            gpus: 2,
            sse_cores: 4,
        },
        Config {
            gpus: 4,
            sse_cores: 0,
        },
        Config {
            gpus: 4,
            sse_cores: 4,
        },
    ];
    let sw = databases().into_iter().last().expect("five databases");
    let mut t = Table::new(
        "fig6",
        "Fig. 6: GCUPS on UniProtKB/SwissProt with/without workload adjustment",
        vec![
            "Configuration".into(),
            "Without (GCUPS)".into(),
            "With (GCUPS)".into(),
            "Gain %".into(),
        ],
    );
    for c in configs {
        let with = run_config(c, &sw, Policy::pss_default(), true, ORDER);
        let without = run_config(c, &sw, Policy::pss_default(), false, ORDER);
        let gain = (with.gcups() / without.gcups() - 1.0) * 100.0;
        t.row(
            c.label(),
            vec![
                fmt_gcups(without.gcups()),
                fmt_gcups(with.gcups()),
                format!("{gain:+.1}"),
            ],
        );
    }
    t
}

/// The number of SSE cores in the Figs. 7/8 platform.
const FIG78_CORES: usize = 4;

/// Shared platform for Figs. 7/8: 4 SSE cores on the Ensembl Dog workload,
/// traced for its notification series.
fn fig78_run(load_on_core0: Option<LoadSchedule>) -> (SimOutcome, Trace) {
    let dog = databases().into_iter().next().expect("five databases");
    let mut b = PlatformBuilder::new()
        .add(DeviceKind::SseCore, FIG78_CORES)
        .policy(Policy::pss_default())
        .adjustment(true)
        .notify_interval(5.0);
    if let Some(load) = load_on_core0 {
        b = b.load_on(0, load);
    }
    b.run_traced(workload(&dog, ORDER))
}

/// Each core's `(time, gcups)` notification series, in core order.
fn fig78_series(trace: &Trace) -> Vec<Vec<(f64, f64)>> {
    (0..FIG78_CORES)
        .map(|core| trace.pe_notifications(core))
        .collect()
}

/// Figs. 7 & 8 — per-core GCUPS series, dedicated vs. local load on core 0
/// after 60 s. Returns `(series table, summary table)`.
pub fn fig7_fig8() -> (Table, Table) {
    let (dedicated, dedicated_trace) = fig78_run(None);
    let (loaded, loaded_trace) = fig78_run(Some(LoadSchedule::step_at(60.0, 0.45)));
    let runs = [fig78_series(&dedicated_trace), fig78_series(&loaded_trace)];

    let mut series = Table::new(
        "fig7_fig8_series",
        "Figs. 7/8: per-core GCUPS notifications (dedicated | loaded core 0 @60s)",
        vec![
            "t (s)".into(),
            "ded c0".into(),
            "ded c1".into(),
            "ded c2".into(),
            "ded c3".into(),
            "load c0".into(),
            "load c1".into(),
            "load c2".into(),
            "load c3".into(),
        ],
    );
    let horizon = dedicated.seconds().max(loaded.seconds());
    let mut t = 5.0;
    while t <= horizon {
        let mut row = Vec::with_capacity(2 * FIG78_CORES);
        for run in &runs {
            for core in run {
                let v = core
                    .iter()
                    .filter(|&&(time, _)| (time - t).abs() < 2.5)
                    .map(|&(_, g)| g)
                    .next_back();
                row.push(match v {
                    Some(g) => fmt_gcups(g),
                    None => "-".into(),
                });
            }
        }
        series.row(format!("{t:.0}"), row);
        t += 5.0;
    }

    let mut summary = Table::new(
        "fig8_summary",
        "Fig. 8: wall-clock impact of local load on core 0 (x0.45 after 60 s)",
        vec!["Scenario".into(), "Time (s)".into(), "GCUPS".into()],
    );
    summary.row(
        "dedicated (Fig. 7)",
        vec![fmt_secs(dedicated.seconds()), fmt_gcups(dedicated.gcups())],
    );
    summary.row(
        "core 0 loaded (Fig. 8)",
        vec![fmt_secs(loaded.seconds()), fmt_gcups(loaded.gcups())],
    );
    let inc = (loaded.seconds() / dedicated.seconds() - 1.0) * 100.0;
    summary.row(
        "increase (paper: +12.1%)",
        vec![format!("{inc:+.1}%"), "-".into()],
    );
    (series, summary)
}

/// Ablation — sensitivity of the Fig. 6 result to the query file order.
pub fn ablation_order() -> Table {
    let sw = databases().into_iter().last().expect("five databases");
    let mut t = Table::new(
        "ablation_order",
        "Ablation: query order vs adjustment gain (4 GPUs + 4 SSEs, SwissProt)",
        vec![
            "Order".into(),
            "Without (GCUPS)".into(),
            "With (GCUPS)".into(),
            "Gain %".into(),
        ],
    );
    let c = Config {
        gpus: 4,
        sse_cores: 4,
    };
    for (label, order) in [
        ("ascending", QueryOrder::Ascending),
        ("shuffled", QueryOrder::Shuffled),
        ("descending", QueryOrder::Descending),
    ] {
        let with = run_config(c, &sw, Policy::pss_default(), true, order);
        let without = run_config(c, &sw, Policy::pss_default(), false, order);
        let gain = (with.gcups() / without.gcups() - 1.0) * 100.0;
        t.row(
            label,
            vec![
                fmt_gcups(without.gcups()),
                fmt_gcups(with.gcups()),
                format!("{gain:+.1}"),
            ],
        );
    }
    t
}

/// Ablation — the four allocation policies on the hybrid platform.
pub fn ablation_policies() -> Table {
    let sw = databases().into_iter().last().expect("five databases");
    let mut t = Table::new(
        "ablation_policies",
        "Ablation: allocation policies (4 GPUs + 4 SSEs, SwissProt, adjustment on)",
        vec!["Policy".into(), "Time (s)".into(), "GCUPS".into()],
    );
    let c = Config {
        gpus: 4,
        sse_cores: 4,
    };
    for (label, policy) in [
        ("SS", Policy::SelfScheduling),
        ("PSS(5)", Policy::pss_default()),
        ("Fixed", Policy::Fixed),
        ("WFixed", Policy::WFixed),
    ] {
        let out = run_config(c, &sw, policy, true, ORDER);
        t.row(label, vec![fmt_secs(out.seconds()), fmt_gcups(out.gcups())]);
    }
    t
}

/// Ablation — the PSS window Ω under the Fig. 8 non-dedicated load.
pub fn ablation_omega() -> Table {
    let dog = databases().into_iter().next().expect("five databases");
    let mut t = Table::new(
        "ablation_omega",
        "Ablation: PSS window Omega under local load (4 SSEs, Ensembl Dog)",
        vec!["Omega".into(), "Time (s)".into(), "GCUPS".into()],
    );
    for omega in [1usize, 2, 5, 10, 20] {
        let out = PlatformBuilder::new()
            .add(DeviceKind::SseCore, 4)
            .policy(Policy::Pss { omega })
            .adjustment(true)
            .load_on(0, LoadSchedule::step_at(60.0, 0.45))
            .run(workload(&dog, ORDER));
        t.row(
            omega.to_string(),
            vec![fmt_secs(out.seconds()), fmt_gcups(out.gcups())],
        );
    }
    t
}

/// Ablation — GPU per-invocation startup cost vs small-database GCUPS
/// (the mechanism behind Table IV's "SwissProt is ~2× the small databases").
pub fn ablation_gpu_startup() -> Table {
    let dbs = databases();
    let dog = &dbs[0];
    let sw = &dbs[4];
    let mut t = Table::new(
        "ablation_gpu_startup",
        "Ablation: GPU per-task startup vs achieved GCUPS (4 GPUs)",
        vec![
            "Startup (s)".into(),
            "Ensembl Dog GCUPS".into(),
            "SwissProt GCUPS".into(),
            "Ratio".into(),
        ],
    );
    for startup in [0.0, 0.25, 0.85, 2.0, 5.0] {
        let model = PerfModel {
            startup_seconds: startup,
            ..PerfModel::of(DeviceKind::Gpu)
        };
        let run_db = |db: &swhybrid_seq::db::DbStats| {
            let mut b = PlatformBuilder::new();
            for i in 0..4 {
                b = b.pe(SimPe::new(Device {
                    name: DeviceKind::Gpu.pe_name(i),
                    kind: DeviceKind::Gpu,
                    model: model.clone(),
                }));
            }
            b.policy(Policy::pss_default())
                .adjustment(true)
                .run(workload(db, ORDER))
        };
        let small = run_db(dog);
        let big = run_db(sw);
        t.row(
            format!("{startup:.2}"),
            vec![
                fmt_gcups(small.gcups()),
                fmt_gcups(big.gcups()),
                format!("{:.2}", big.gcups() / small.gcups()),
            ],
        );
    }
    t
}

/// Ablation — the notification interval (the PSS feedback rate).
pub fn ablation_notify() -> Table {
    let dog = databases().into_iter().next().expect("five databases");
    let mut t = Table::new(
        "ablation_notify",
        "Ablation: notification interval under local load (4 SSEs, Ensembl Dog)",
        vec!["Interval (s)".into(), "Time (s)".into(), "GCUPS".into()],
    );
    for interval in [1.0, 2.0, 5.0, 15.0, 60.0] {
        let out = PlatformBuilder::new()
            .add(DeviceKind::SseCore, 4)
            .policy(Policy::pss_default())
            .adjustment(true)
            .notify_interval(interval)
            .load_on(0, LoadSchedule::step_at(60.0, 0.45))
            .run(workload(&dog, ORDER));
        t.row(
            format!("{interval:.0}"),
            vec![fmt_secs(out.seconds()), fmt_gcups(out.gcups())],
        );
    }
    t
}

/// Ablation — master↔slave communication latency: the paper argues it is
/// negligible at very-coarse granularity; this sweep quantifies where that
/// stops being true.
pub fn ablation_latency() -> Table {
    let sw = databases().into_iter().last().expect("five databases");
    let mut t = Table::new(
        "ablation_latency",
        "Ablation: one-way master-slave latency (4 GPUs + 4 SSEs, SwissProt)",
        vec!["Latency".into(), "Time (s)".into(), "GCUPS".into()],
    );
    for (label, latency) in [
        ("0 (shared mem)", 0.0),
        ("0.1 ms (GbE)", 0.0001),
        ("1 ms", 0.001),
        ("50 ms (WAN)", 0.05),
        ("1 s (grid)", 1.0),
    ] {
        let out = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 4)
            .add(DeviceKind::SseCore, 4)
            .policy(Policy::pss_default())
            .adjustment(true)
            .comm_latency(latency)
            .run(workload(&sw, ORDER));
        t.row(label, vec![fmt_secs(out.seconds()), fmt_gcups(out.gcups())]);
    }
    t
}

/// Ablation — SS vs PSS when local load appears mid-run (the adaptivity
/// claim of §V-C quantified against the non-adaptive baseline).
pub fn ablation_policy_under_load() -> Table {
    let dog = databases().into_iter().next().expect("five databases");
    let mut t = Table::new(
        "ablation_policy_under_load",
        "Ablation: policies under local load on core 0 (4 SSEs, Ensembl Dog)",
        vec![
            "Policy".into(),
            "Dedicated (s)".into(),
            "Loaded (s)".into(),
            "Penalty %".into(),
        ],
    );
    for (label, policy) in [
        ("SS", Policy::SelfScheduling),
        ("PSS(5)", Policy::pss_default()),
        ("Fixed", Policy::Fixed),
        ("WFixed", Policy::WFixed),
    ] {
        let run_with = |load: Option<LoadSchedule>| {
            let mut b = PlatformBuilder::new()
                .add(DeviceKind::SseCore, 4)
                .policy(policy)
                .adjustment(true);
            if let Some(l) = load {
                b = b.load_on(0, l);
            }
            b.run(workload(&dog, ORDER))
        };
        let dedicated = run_with(None);
        let loaded = run_with(Some(LoadSchedule::step_at(60.0, 0.45)));
        let penalty = (loaded.seconds() / dedicated.seconds() - 1.0) * 100.0;
        t.row(
            label,
            vec![
                fmt_secs(dedicated.seconds()),
                fmt_secs(loaded.seconds()),
                format!("{penalty:+.1}"),
            ],
        );
    }
    t
}

/// Ablation — ready-queue dispatch order (extension): the paper's
/// file-order dispatch vs size-aware dispatch (fast PEs take the largest
/// ready tasks), 4 GPUs + 4 SSEs across all databases.
pub fn ablation_dispatch() -> Table {
    use swhybrid_core::sched::Dispatch;
    let mut t = Table::new(
        "ablation_dispatch",
        "Ablation: ready-queue dispatch (4 GPUs + 4 SSEs vs 4 GPUs, time s)",
        vec![
            "Database".into(),
            "4 GPUs".into(),
            "hybrid file-order".into(),
            "hybrid size-aware".into(),
        ],
    );
    for db in databases() {
        let w = || workload(&db, ORDER);
        let gpu_only = PlatformBuilder::new().add(DeviceKind::Gpu, 4).run(w());
        let fifo = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 4)
            .add(DeviceKind::SseCore, 4)
            .run(w());
        let aware = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 4)
            .add(DeviceKind::SseCore, 4)
            .dispatch(Dispatch::SizeAware)
            .run(w());
        t.row(
            db.name.clone(),
            vec![
                fmt_secs(gpu_only.seconds()),
                fmt_secs(fifo.seconds()),
                fmt_secs(aware.seconds()),
            ],
        );
    }
    t
}

/// Ablation — inside one CUDASW++ invocation: why the database is sorted
/// (warp-divergence waste) and why small databases get poor GCUPS
/// (occupancy), from the structural simulator.
pub fn ablation_cudasw() -> Table {
    use swhybrid_device::cudasw::CudaswSim;
    use swhybrid_seq::synth::paper_databases;

    let sim = CudaswSim::gtx580();
    let mut t = Table::new(
        "ablation_cudasw",
        "Ablation: one CUDASW++ invocation, structural view (2,550-aa query)",
        vec![
            "Database (sampled)".into(),
            "Warps".into(),
            "Occupancy".into(),
            "Waste sorted".into(),
            "Waste unsorted".into(),
            "GCUPS".into(),
        ],
    );
    for profile in paper_databases().iter().take(4) {
        // Materialise a 6% sample: the length *distribution* is what the
        // kernels react to, and a sample preserves it.
        let lengths: Vec<usize> = profile
            .generate_scaled(5, 0.06)
            .sequences
            .iter()
            .map(|s| s.len())
            .collect();
        let sorted = sim.plan(2550, &lengths, true);
        // Interleaved short/long order as the unsorted strawman.
        let mut asc = lengths.clone();
        asc.sort_unstable();
        let (lo, hi) = asc.split_at(asc.len() / 2);
        let mut interleaved = Vec::with_capacity(asc.len());
        for i in 0..asc.len() / 2 {
            interleaved.push(lo[i]);
            interleaved.push(hi[hi.len() - 1 - i]);
        }
        let unsorted = sim.plan(2550, &interleaved, false);
        t.row(
            format!("{} (6%)", profile.name),
            vec![
                sorted.warps.to_string(),
                format!("{:.0}%", sorted.occupancy * 100.0),
                format!("{:.2}x", sorted.waste_factor()),
                format!("{:.2}x", unsorted.waste_factor()),
                fmt_gcups(sorted.gcups()),
            ],
        );
    }
    t
}

/// Extension — FPGA PEs joining the platform (paper §VI future work).
pub fn ext_fpga() -> Table {
    let sw = databases().into_iter().last().expect("five databases");
    let mut t = Table::new(
        "ext_fpga",
        "Extension: FPGA integration (SwissProt, PSS + adjustment)",
        vec!["Platform".into(), "Time (s)".into(), "GCUPS".into()],
    );
    for (label, g, s, f) in [
        ("4 GPUs", 4, 0, 0),
        ("4G+4S", 4, 4, 0),
        ("1 FPGA", 0, 0, 1),
        ("4G+1F", 4, 0, 1),
        ("4G+4S+2F", 4, 4, 2),
    ] {
        let out = PlatformBuilder::new()
            .add(DeviceKind::Gpu, g)
            .add(DeviceKind::SseCore, s)
            .add(DeviceKind::Fpga, f)
            .policy(Policy::pss_default())
            .adjustment(true)
            .run(workload(&sw, ORDER));
        t.row(label, vec![fmt_secs(out.seconds()), fmt_gcups(out.gcups())]);
    }
    t
}

/// Extension — PEs joining/leaving mid-run (paper §VI future work).
pub fn ext_membership() -> Table {
    let sw = databases().into_iter().last().expect("five databases");
    let mut t = Table::new(
        "ext_membership",
        "Extension: dynamic membership (SwissProt, 2 GPUs + 4 SSEs)",
        vec!["Scenario".into(), "Time (s)".into(), "GCUPS".into()],
    );
    let base = || {
        PlatformBuilder::new()
            .add(DeviceKind::Gpu, 2)
            .add(DeviceKind::SseCore, 4)
            .policy(Policy::pss_default())
            .adjustment(true)
    };
    let stable = base().run(workload(&sw, ORDER));
    t.row(
        "stable platform",
        vec![fmt_secs(stable.seconds()), fmt_gcups(stable.gcups())],
    );
    // gpu1 leaves at t=100 s: its tasks return to ready.
    let leave = base()
        .membership(1, 0.0, Some(100.0))
        .run(workload(&sw, ORDER));
    t.row(
        "gpu1 leaves @100s",
        vec![fmt_secs(leave.seconds()), fmt_gcups(leave.gcups())],
    );
    // a third GPU joins at t=100 s.
    let join = base()
        .add(DeviceKind::Gpu, 1)
        .membership(6, 100.0, None)
        .run(workload(&sw, ORDER));
    t.row(
        "gpu2 joins @100s",
        vec![fmt_secs(join.seconds()), fmt_gcups(join.gcups())],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_matches_paper_exactly() {
        let with = fig5_platform(true).run(fig5_workload());
        let without = fig5_platform(false).run(fig5_workload());
        assert!((with.seconds() - 14.0).abs() < 0.01, "{}", with.seconds());
        assert!(
            (without.seconds() - 18.0).abs() < 0.01,
            "{}",
            without.seconds()
        );
    }

    #[test]
    fn table3_sse_scaling_is_near_linear() {
        // §V-A-1: "speedups close to linear are obtained for all databases".
        let sw = databases().into_iter().last().unwrap();
        let t1 = run_config(
            Config {
                gpus: 0,
                sse_cores: 1,
            },
            &sw,
            Policy::pss_default(),
            true,
            ORDER,
        );
        let t8 = run_config(
            Config {
                gpus: 0,
                sse_cores: 8,
            },
            &sw,
            Policy::pss_default(),
            true,
            ORDER,
        );
        let speedup = t1.seconds() / t8.seconds();
        assert!((6.0..8.5).contains(&speedup), "speedup {speedup}");
        // §I: "7,190 seconds (one SSE core)" for SwissProt, within 1 %.
        assert!(
            (t1.seconds() / 7190.0 - 1.0).abs() <= 0.01,
            "1-core SwissProt time {}",
            t1.seconds()
        );
    }

    #[test]
    fn table4_swissprot_gpu_gcups_is_about_double_small_dbs() {
        let dbs = databases();
        let dog = run_config(
            Config {
                gpus: 4,
                sse_cores: 0,
            },
            &dbs[0],
            Policy::pss_default(),
            true,
            ORDER,
        );
        let sw = run_config(
            Config {
                gpus: 4,
                sse_cores: 0,
            },
            &dbs[4],
            Policy::pss_default(),
            true,
            ORDER,
        );
        let ratio = sw.gcups() / dog.gcups();
        assert!((1.4..2.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fig8_load_increase_is_modest() {
        let (_, summary) = fig7_fig8();
        // Third row's first value holds the formatted increase.
        let inc: f64 = summary.rows[2].1[0]
            .trim_end_matches('%')
            .parse()
            .expect("formatted number");
        // Paper: +12.1%. Capacity lost is ~14% of the platform from t=60;
        // PSS + adjustment keep the damage in the same band.
        assert!((2.0..30.0).contains(&inc), "increase {inc}%");
    }

    #[test]
    fn fig8_loaded_core_halves_while_the_others_keep_their_speed() {
        // §V-C: after the local load starts at 60 s, core 0's notifications
        // report "less than a half" of its dedicated GCUPS; the other three
        // cores are untouched.
        let (_, trace) = fig78_run(Some(LoadSchedule::step_at(60.0, 0.45)));
        let mean = |series: &[(f64, f64)], after: bool| {
            let g: Vec<f64> = series
                .iter()
                .filter(|&&(t, _)| (t > 60.0) == after)
                .map(|&(_, g)| g)
                .collect();
            assert!(!g.is_empty(), "a traced run records notifications");
            g.iter().sum::<f64>() / g.len() as f64
        };
        let series = fig78_series(&trace);
        let (before, after) = (mean(&series[0], false), mean(&series[0], true));
        assert!(after < 0.5 * before, "core 0: {before:.2} -> {after:.2}");
        for (core, s) in series.iter().enumerate().skip(1) {
            let (before, after) = (mean(s, false), mean(s, true));
            assert!(
                (after / before - 1.0).abs() <= 0.05,
                "core {core}: {before:.2} -> {after:.2}"
            );
        }
    }

    #[test]
    fn membership_scenarios_bracket_the_stable_run() {
        let t = ext_membership();
        let secs: Vec<f64> = t.rows.iter().map(|r| r.1[0].parse().unwrap()).collect();
        let (stable, leave, join) = (secs[0], secs[1], secs[2]);
        assert!(leave > stable, "losing a GPU must cost time");
        assert!(join < stable, "gaining a GPU must save time");
    }
}
