//! `swhybrid search`'s printed report, through the binary.
//!
//! Every database snapshot scans in the stable length order of its
//! subjects, whichever file it was loaded from, so a FASTA file and the
//! `.swdb` store built from it print one report — hit tables and kernel
//! counters alike — at every `--threads`.

use std::path::Path;
use std::process::Command;

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

/// A deterministic pseudo-random protein of `len` residues.
fn protein(seed: u64, len: usize) -> String {
    const AA: &[u8] = b"ARNDCQEGHILKMFPSTWYV";
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            AA[(state >> 33) as usize % AA.len()] as char
        })
        .collect()
}

/// A database whose order mixes lengths: 128 subjects, two of them
/// (indices 0 and 64) of 3,000 residues and the rest 20–40. In database
/// order each 64-subject chunk holds one long subject, and the
/// inter-sequence lanes would idle behind it; in length order the first
/// chunk is all short subjects.
fn mixed_database(dir: &Path) -> (String, String, String) {
    let fasta: String = (0..128u64)
        .map(|i| {
            let len = if i % 64 == 0 {
                3000
            } else {
                20 + (i as usize * 7) % 21
            };
            format!(">subject-{i:03}\n{}\n", protein(i + 1, len))
        })
        .collect();
    let db = dir.join("db.fasta");
    std::fs::write(&db, fasta).unwrap();
    // One short query (the inter-sequence kernel's) and one that runs
    // striped, the second cut from a subject so it has strong hits.
    let query = dir.join("q.fasta");
    std::fs::write(
        &query,
        format!(
            ">short\n{}\n>long\n{}\n",
            protein(1000, 48),
            &protein(65, 3000)[100..300]
        ),
    )
    .unwrap();
    let store = dir.join("db.swdb");
    swhybrid(&["db", "build", path(&db), path(&store)]);
    (
        path(&query).to_string(),
        path(&db).to_string(),
        path(&store).to_string(),
    )
}

/// The report without its one timed line.
fn untimed(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains(" GCUPS"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn interseq_chunks(report: &str) -> u64 {
    let line = report
        .lines()
        .find_map(|l| l.strip_prefix("kernel auto: "))
        .unwrap_or_else(|| panic!("no kernel line in:\n{report}"));
    let (_, rest) = line.split_once(" striped / ").expect("kernel line shape");
    rest.split(' ').next().unwrap().parse().unwrap()
}

#[test]
fn fasta_and_store_print_one_report_at_every_thread_count() {
    let dir = std::env::temp_dir().join(format!("swhybrid_search_order_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (query, db, store) = mixed_database(&dir);
    for threads in ["1", "2"] {
        let common = ["--threads", threads, "--top", "8"];
        let via_fasta = swhybrid(&[&["search", &query, &db][..], &common].concat());
        let via_store =
            swhybrid(&[&["search", &query, "--db-store", &store][..], &common].concat());
        assert!(via_fasta.contains("kernel auto: "), "{via_fasta}");
        assert_eq!(
            untimed(&via_fasta),
            untimed(&via_store),
            "--threads {threads}"
        );
        // The 62 + 63 short subjects meet in length order, so at least one
        // chunk fills the inter-sequence lanes; in database order every
        // chunk carries a 3,000-residue subject and runs striped.
        assert!(
            interseq_chunks(&via_fasta) >= 1,
            "--threads {threads}: no inter-sequence chunk in\n{via_fasta}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--align` prints what it printed when the scan ran in database order:
/// the alignments read each hit's own residues, in database order.
#[test]
fn search_align_output_is_unchanged() {
    let dir = std::env::temp_dir().join(format!("swhybrid_search_align_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (query, db, store) = mixed_database(&dir);
    let golden = include_str!("golden/search_align.txt");
    for db_args in [vec![db.as_str()], vec!["--db-store", &store]] {
        let args = [
            &["search", &query][..],
            &db_args,
            &["--top", "3", "--align"],
        ]
        .concat();
        let report: String = untimed(&swhybrid(&args))
            .lines()
            .filter(|l| !l.starts_with("kernel auto: "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(report, golden, "{db_args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
