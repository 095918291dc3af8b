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

/// The one-shot `search` and the batch master are one batch on one pool:
/// `master --fleet sse:2 --slaves 0` prints, row for row, the tables of
/// `search --threads 2 --top 10` merged across queries — score first,
/// then query, then database order.
#[test]
fn master_prints_the_merged_rows_of_search_tables() {
    let dir = std::env::temp_dir().join(format!("swhybrid_master_merge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fasta");
    swhybrid(&["generate", "rat", "0.001", path(&db)]);
    let fasta = std::fs::read_to_string(&db).unwrap();
    // Three records as queries, the first two cut short, so the search
    // fuses those two into one task and the master runs each alone.
    let records: Vec<&str> = fasta.split_inclusive('>').skip(1).take(4).collect();
    let mut queries = String::new();
    for (i, record) in records[1..].iter().enumerate() {
        let record = record.trim_end_matches('>');
        let (id, residues) = record.split_once('\n').unwrap();
        let residues: String = residues.split_whitespace().collect();
        let len = [40, 60, residues.len()][i].min(residues.len());
        queries.push_str(&format!(">{id}\n{}\n", &residues[..len]));
    }
    let query = dir.join("q.fasta");
    std::fs::write(&query, &queries).unwrap();

    let search = swhybrid(&[
        "search",
        path(&query),
        path(&db),
        "--threads",
        "2",
        "--top",
        &BATCH_TOP_N.to_string(),
    ]);
    // (score, query index, subject) for every table row, in table order.
    let mut rows: Vec<(i64, usize, String)> = Vec::new();
    for (qi, table) in search.split("\n# query ").skip(1).enumerate() {
        for line in table.lines().skip(2) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 6 {
                break;
            }
            rows.push((fields[1].parse().unwrap(), qi, fields[5].to_string()));
        }
    }
    assert_eq!(rows.iter().map(|r| r.1).max(), Some(2), "{search}");
    // A stable sort keeps each table's database order inside ties.
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let report = swhybrid(&[
        "master",
        path(&query),
        path(&db),
        "--fleet",
        "sse:2",
        "--slaves",
        "0",
        "--listen",
        "127.0.0.1:0",
        "--top",
        &rows.len().to_string(),
    ]);
    let (_, merged) = report
        .split_once("\nmerged hits ")
        .unwrap_or_else(|| panic!("no merged-hits table in:\n{report}"));
    let printed: Vec<(i64, usize, String)> = merged
        .lines()
        .skip(1)
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let query = fields[3].strip_prefix('q').unwrap().parse().unwrap();
            (fields[2].parse().unwrap(), query, fields[4].to_string())
        })
        .collect();
    assert_eq!(printed, rows, "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}
