//! `run_all` stdout, byte for byte against a committed golden: all 18
//! paper tables, figures, ablations and extensions.
//!
//! Every experiment is deterministic (virtual time, fixed workload seed),
//! so any change to a calibration row, the platform builder or the
//! scheduling engine that moves one printed number shows up here as a
//! diff. Regenerate only for an intended change:
//! `target/release/run_all > crates/bench/tests/golden/run_all.txt`.

use std::process::Command;

#[test]
fn run_all_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .output()
        .expect("spawn run_all");
    assert!(
        out.status.success(),
        "run_all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("UTF-8 tables");
    let golden = include_str!("golden/run_all.txt");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "run_all: line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "run_all: line count differs"
    );
    assert_eq!(actual, golden, "run_all: bytes differ");
}
