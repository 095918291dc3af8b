//! `swhybrid master`'s printed report, through the binary.
//!
//! Every batch PE keeps `pool::BATCH_TOP_N` hits per query, so `--top`
//! can only cut that depth: the merged-hits header says both numbers.

use std::path::Path;
use std::process::Command;

use swhybrid::exec::pool::BATCH_TOP_N;

fn swhybrid(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swhybrid"))
        .args(args)
        .output()
        .expect("spawn swhybrid");
    assert!(
        out.status.success(),
        "swhybrid {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 report")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

/// `--top 20` over one query prints that query's best 10, under a header
/// that names both depths.
#[test]
fn master_top_beyond_the_batch_depth_says_what_it_holds() {
    let dir = std::env::temp_dir().join(format!("swhybrid_master_top_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    swhybrid(&["generate", "rat", "0.0005", path(&db)]);
    let fasta = std::fs::read_to_string(&db).unwrap();
    let first = fasta[1..].find('>').map_or(fasta.len(), |i| i + 1);
    assert!(
        fasta.matches('>').count() > BATCH_TOP_N,
        "the database must hold more subjects than the batch depth"
    );
    let query = dir.join("q.fasta");
    std::fs::write(&query, &fasta[..first]).unwrap();

    let report = swhybrid(&[
        "master",
        path(&query),
        path(&db),
        "--fleet",
        "sse:1",
        "--slaves",
        "0",
        "--listen",
        "127.0.0.1:0",
        "--top",
        "20",
    ]);
    let (_, merged) = report
        .split_once("\nmerged hits ")
        .unwrap_or_else(|| panic!("no merged-hits table in:\n{report}"));
    let mut lines = merged.lines();
    assert_eq!(
        lines.next(),
        Some(format!("(top 20 of each query's best {BATCH_TOP_N}):").as_str())
    );
    let rows: Vec<&str> = lines.filter(|l| l.contains("  score ")).collect();
    assert_eq!(rows.len(), BATCH_TOP_N, "{merged}");
    assert!(rows.iter().all(|r| r.contains("  q0  ")), "{merged}");
    std::fs::remove_dir_all(&dir).unwrap();
}
