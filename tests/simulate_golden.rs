//! `swhybrid simulate` reports, byte for byte against committed goldens.
//!
//! The simulator runs under virtual time with no RNG, so a report is a pure
//! function of its flags: any change to the device rows, the platform
//! builder or the scheduling engine that moves one printed number shows up
//! here as a diff. Regenerate a golden only for an intended change:
//! `target/release/swhybrid simulate … > tests/golden/NAME.txt`.

use std::process::Command;

fn simulate(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swhybrid"))
        .arg("simulate")
        .args(args)
        .output()
        .expect("spawn swhybrid");
    assert!(
        out.status.success(),
        "simulate {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 report")
}

/// Fails at the first differing line, naming it.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{name}: line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{name}: line count differs"
    );
    assert_eq!(actual, golden, "{name}: bytes differ");
}

#[test]
fn default_platform_report_matches_golden() {
    assert_golden(
        &simulate(&[]),
        include_str!("golden/simulate_default.txt"),
        "simulate_default",
    );
}

#[test]
fn hundred_pe_fleet_report_matches_golden() {
    assert_golden(
        &simulate(&[
            "--fleet",
            "sse:80+gpu:16+fpga:4",
            "--queries",
            "2000",
            "--policy",
            "pss",
        ]),
        include_str!("golden/simulate_fleet100_q2000.txt"),
        "simulate_fleet100_q2000",
    );
}

/// Shuffled file order puts the big tasks anywhere in the run, so the tail
/// takes several times the steals of the in-order report above.
#[test]
fn hundred_pe_fleet_shuffled_report_matches_golden() {
    assert_golden(
        &simulate(&[
            "--fleet",
            "sse:80+gpu:16+fpga:4",
            "--queries",
            "2000",
            "--policy",
            "pss",
            "--order",
            "shuffle",
        ]),
        include_str!("golden/simulate_fleet100_q2000_shuffle.txt"),
        "simulate_fleet100_q2000_shuffle",
    );
}

/// The benchmark's `sched_engine` command, at its full 100,000 tasks.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "100,000 tasks; run with `cargo test --release --test simulate_golden`"
)]
fn hundred_pe_fleet_at_benchmark_scale_matches_golden() {
    assert_golden(
        &simulate(&[
            "--fleet",
            "sse:80+gpu:16+fpga:4",
            "--queries",
            "100000",
            "--policy",
            "pss",
        ]),
        include_str!("golden/simulate_fleet100_q100000.txt"),
        "simulate_fleet100_q100000",
    );
}
