//! The paper's headline experiment under virtual time: 40 queries against
//! UniProtKB/SwissProt on hybrid platforms, with and without the dynamic
//! workload adjustment mechanism (§V, Fig. 6).
//!
//! Run with: `cargo run --release --example hybrid_platform`

use swhybrid::device::DeviceKind;
use swhybrid::exec::platform::PlatformBuilder;
use swhybrid::exec::policy::Policy;
use swhybrid::seq::synth::{paper_database, QuerySetSpec};

fn main() {
    let swissprot = paper_database("swissprot")
        .expect("preset exists")
        .full_scale_stats();
    let queries = QuerySetSpec::paper();
    println!(
        "workload: {} queries (100–5000 aa) × {} ({} residues)\n",
        queries.count, swissprot.name, swissprot.total_residues
    );

    let workload = || PlatformBuilder::workload(&swissprot, &queries, 2013);

    println!(
        "{:<12} {:>12} {:>10}   notes",
        "platform", "time (s)", "GCUPS"
    );
    let mut rows: Vec<(String, f64, f64, &str)> = Vec::new();
    for (gpus, sse, adj, note) in [
        (0, 1, true, "the paper's 7,190 s baseline"),
        (0, 8, true, "both hosts' SSE cores"),
        (4, 0, true, "GPU-only"),
        (4, 4, true, "the paper's biggest platform"),
        (4, 4, false, "same, adjustment disabled"),
    ] {
        let b = PlatformBuilder::new()
            .policy(Policy::pss_default())
            .adjustment(adj)
            .add(DeviceKind::Gpu, gpus)
            .add(DeviceKind::SseCore, sse);
        let label = b.describe() + if adj { "" } else { " (no adj)" };
        let out = b.run(workload());
        println!(
            "{:<12} {:>12.1} {:>10.2}   {}",
            label,
            out.seconds(),
            out.gcups(),
            note
        );
        rows.push((label, out.seconds(), out.gcups(), note));
    }

    let baseline = rows[0].1;
    let best = rows
        .iter()
        .filter(|r| !r.0.contains("no adj"))
        .map(|r| r.1)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nspeedup over one SSE core: {:.0}×  (paper: 7,190 s → 112 s ≈ 64×)",
        baseline / best
    );

    let with = rows[3].1;
    let without = rows[4].1;
    println!(
        "adjustment mechanism cuts 4G+4S time by {:.1}%  (paper: 57.2%)",
        (1.0 - with / without) * 100.0
    );

    // Per-PE breakdown of the best run, showing who did what.
    let out = PlatformBuilder::new()
        .add(DeviceKind::Gpu, 4)
        .add(DeviceKind::SseCore, 4)
        .run(workload());
    println!("\nper-PE breakdown (4 GPUs + 4 SSEs, with adjustment):");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>14}",
        "PE", "busy (s)", "completed", "cancelled", "cells (G)"
    );
    for pe in &out.report.per_pe {
        println!(
            "{:<6} {:>10.1} {:>10} {:>10} {:>14.1}",
            pe.name,
            pe.busy_seconds,
            pe.tasks_completed,
            pe.tasks_cancelled,
            pe.cells_computed / 1e9
        );
    }
    println!(
        "\nduplicated work from cancelled replicas: {:.1} Gcells ({:.2}% of total)",
        out.report.duplicated_cells / 1e9,
        100.0 * out.report.duplicated_cells / out.report.total_cells as f64
    );
}
