//! Runs the paper experiments, printing their tables and saving the JSON
//! dumps under target/experiments/.
//!
//! `run_all` runs every experiment in paper order, `run_all NAME…` only
//! the named ones (still in paper order), `run_all --list` prints the names.
use swhybrid_bench::experiments as e;

const EXPERIMENTS: &[(&str, fn())] = &[
    ("table2", || e::table2().emit()),
    ("table3", || e::table3().emit()),
    ("table4", || e::table4().emit()),
    ("table5", || e::table5().emit()),
    ("fig5", || {
        let (table, gantts) = e::fig5();
        table.emit();
        println!("{gantts}");
    }),
    ("fig6", || e::fig6().emit()),
    ("fig7_fig8", || {
        let (series, summary) = e::fig7_fig8();
        series.emit();
        summary.emit();
    }),
    ("ablation_order", || e::ablation_order().emit()),
    ("ablation_policies", || e::ablation_policies().emit()),
    ("ablation_omega", || e::ablation_omega().emit()),
    ("ablation_gpu_startup", || e::ablation_gpu_startup().emit()),
    ("ablation_notify", || e::ablation_notify().emit()),
    ("ablation_latency", || e::ablation_latency().emit()),
    ("ablation_policy_under_load", || {
        e::ablation_policy_under_load().emit()
    }),
    ("ablation_cudasw", || e::ablation_cudasw().emit()),
    ("ablation_dispatch", || e::ablation_dispatch().emit()),
    ("ext_fpga", || e::ext_fpga().emit()),
    ("ext_membership", || e::ext_membership().emit()),
];

fn list() -> String {
    EXPERIMENTS
        .iter()
        .map(|(name, _)| format!("{name}\n"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", list());
        return;
    }
    if let Some(unknown) = args
        .iter()
        .find(|a| !EXPERIMENTS.iter().any(|(name, _)| name == a))
    {
        eprintln!("unknown experiment {unknown:?}; `run_all --list` prints the names");
        std::process::exit(2);
    }
    for (name, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            run();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_former_bin_exactly_once() {
        // One name per binary this runner replaced.
        let mut former_bins = vec![
            "ablation_cudasw",
            "ablation_dispatch",
            "ablation_gpu_startup",
            "ablation_latency",
            "ablation_notify",
            "ablation_omega",
            "ablation_order",
            "ablation_policies",
            "ablation_policy_under_load",
            "ext_fpga",
            "ext_membership",
            "fig5",
            "fig6",
            "fig7_fig8",
            "table2",
            "table3",
            "table4",
            "table5",
        ];
        let listed = list();
        let mut names: Vec<&str> = listed.lines().collect();
        assert_eq!(names.len(), 18);
        names.sort_unstable();
        former_bins.sort_unstable();
        // Equal to a duplicate-free list, so no name repeats.
        assert_eq!(names, former_bins);
    }
}
