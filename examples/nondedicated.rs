//! Non-dedicated execution (paper §V-C, Figs. 7/8): external load appears
//! on core 0 after 60 s and the PSS policy adapts the task flow.
//!
//! Run with: `cargo run --release --example nondedicated`

use swhybrid::device::load::LoadSchedule;
use swhybrid::device::DeviceKind;
use swhybrid::exec::platform::PlatformBuilder;
use swhybrid::exec::policy::Policy;
use swhybrid::seq::synth::{paper_database, QuerySetSpec};

fn main() {
    let dog = paper_database("dog")
        .expect("preset exists")
        .full_scale_stats();
    let queries = QuerySetSpec::paper();
    let workload = || PlatformBuilder::workload(&dog, &queries, 2013);

    let dedicated = PlatformBuilder::new()
        .add(DeviceKind::SseCore, 4)
        .policy(Policy::pss_default())
        .run(workload());
    let (loaded, trace) = PlatformBuilder::new()
        .add(DeviceKind::SseCore, 4)
        .policy(Policy::pss_default())
        .load_on(0, LoadSchedule::step_at(60.0, 0.45))
        .run_traced(workload());

    println!("4 SSE cores × Ensembl Dog, PSS + workload adjustment\n");
    println!(
        "dedicated run:        {:>7.1} s  ({:.2} GCUPS)",
        dedicated.seconds(),
        dedicated.gcups()
    );
    println!(
        "core 0 loaded @60 s:  {:>7.1} s  ({:.2} GCUPS)",
        loaded.seconds(),
        loaded.gcups()
    );
    println!(
        "wall-clock increase:  {:+.1}%   (paper: +12.1% — 233.14 s → 261.4 s)\n",
        (loaded.seconds() / dedicated.seconds() - 1.0) * 100.0
    );

    println!("per-core GCUPS notifications around the load step:");
    println!(
        "{:>6}  {:>8} {:>8} {:>8} {:>8}",
        "t (s)", "core0", "core1", "core2", "core3"
    );
    let series: Vec<Vec<(f64, f64)>> = (0..4).map(|pe| trace.pe_notifications(pe)).collect();
    for &(t, g0) in series[0]
        .iter()
        .filter(|&&(t, _)| (40.0..=90.0).contains(&t))
    {
        let at = |pe: usize| -> String {
            series[pe]
                .iter()
                .find(|&&(tt, _)| (tt - t).abs() < 0.1)
                .map(|&(_, g)| format!("{g:.2}"))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{t:>6.0}  {:>8.2} {:>8} {:>8} {:>8}",
            g0,
            at(1),
            at(2),
            at(3)
        );
    }
    println!("\ncore 0's rate halves after t=60 s; the other cores keep full speed");
    println!("and the master's weighted means shift new tasks away from core 0.");

    // How many tasks each core completed — core 0 ends with fewer.
    println!("\ntasks completed per core:");
    for pe in &loaded.report.per_pe {
        println!("  {}: {}", pe.name, pe.tasks_completed);
    }
}
