//! Build → open → snapshot round-trips: everything a store persists must
//! come back bit-identical, and the snapshot must be indistinguishable
//! from one packed out of the original sequences.

use std::path::PathBuf;

use swhybrid_seq::digest::db_digest;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::snapshot::DbSnapshot;
use swhybrid_seq::{Alphabet, DbArena};
use swhybrid_store::{build_store, DbFile, Store, Verify};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdb_rt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn toy_db(lens: &[usize]) -> Vec<EncodedSequence> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| EncodedSequence {
            id: format!("subject-{i:03}"),
            codes: (0..len).map(|j| ((i * 7 + j) % 20) as u8).collect(),
            alphabet: Alphabet::Protein,
        })
        .collect()
}

#[test]
fn build_open_snapshot_round_trip() {
    let dir = tmp_dir("basic");
    let path = dir.join("db.swdb");
    let db = toy_db(&[40, 0, 17, 5, 5, 123]);
    let summary = build_store(&path, "toy-db", &db).unwrap();
    assert_eq!(summary.sequences, 6);
    assert_eq!(summary.residues, 190);
    assert_eq!(summary.db_digest, db_digest(&db));

    // Full verification must pass on a freshly built store.
    let store = Store::open_verified(&path).unwrap();
    assert_eq!(store.name(), "toy-db");
    assert_eq!(store.len(), 6);
    assert_eq!(store.alphabet(), Alphabet::Protein);
    assert_eq!(store.db_digest(), db_digest(&db));
    assert_eq!(store.ids()[3], "subject-003");
    // The paper's index fields (§IV-B): count and longest sequence.
    let header = store.header();
    assert_eq!(header.num_seqs, 6);
    assert_eq!(header.min_len, 0);
    assert_eq!(header.max_len, 123);

    // The snapshot is indistinguishable from a FASTA-packed one, scan
    // order (the stored permutation) included.
    let snap = store.into_snapshot().unwrap();
    let packed = DbSnapshot::from_encoded("toy-db", &db);
    assert_eq!(snap.digest(), packed.digest());
    assert_eq!(snap.ids(), packed.ids());
    assert_eq!(snap.arena(), packed.arena());
    assert_eq!(snap.arena(), &DbArena::length_sorted(&db));
    assert!(snap.arena().is_shared());
    assert_eq!(snap.to_encoded(), db);
    snap.verify_digest().unwrap();
    for shards in 1..8 {
        assert_eq!(snap.shard_ranges(shards), packed.shard_ranges(shards));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_database_round_trips() {
    let dir = tmp_dir("empty");
    let path = dir.join("empty.swdb");
    build_store(&path, "", &[]).unwrap();
    let store = Store::open_verified(&path).unwrap();
    assert!(store.is_empty());
    let snap = store.into_snapshot().unwrap();
    assert_eq!(snap.len(), 0);
    assert_eq!(snap.digest(), db_digest(&[]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quick_open_trusts_digest_without_rehash() {
    // Quick and Full opens agree on a healthy store; Quick is the serve
    // fast path, Full is --verify-store.
    let dir = tmp_dir("quick");
    let path = dir.join("db.swdb");
    let db = toy_db(&[9, 30, 2]);
    build_store(&path, "q", &db).unwrap();
    let quick = Store::open(&path).unwrap();
    let full = Store::open_verified(&path).unwrap();
    assert_eq!(quick.db_digest(), full.db_digest());
    assert_eq!(quick.ids(), full.ids());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_is_atomic_rename_and_leaves_no_temp() {
    let dir = tmp_dir("atomic");
    let path = dir.join("db.swdb");
    let db = toy_db(&[3, 3, 3]);
    build_store(&path, "one", &db).unwrap();
    // Rebuilding over an existing store replaces it atomically.
    let db2 = toy_db(&[8, 1]);
    build_store(&path, "two", &db2).unwrap();
    let store = Store::open_verified(&path).unwrap();
    assert_eq!(store.name(), "two");
    assert_eq!(store.len(), 2);
    // No .tmp droppings.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_alphabets_rejected_at_build() {
    let dir = tmp_dir("mixed");
    let mut db = toy_db(&[4]);
    db.push(EncodedSequence {
        id: "dna".into(),
        codes: vec![0, 1, 2],
        alphabet: Alphabet::Dna,
    });
    assert!(build_store(dir.join("x.swdb"), "", &db).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_outlives_store_handle() {
    // The snapshot's arena keeps the mapping alive after the Store (and
    // even the file) are gone — the daemon's in-flight-jobs guarantee.
    let dir = tmp_dir("outlive");
    let path = dir.join("db.swdb");
    let db = toy_db(&[64, 32]);
    build_store(&path, "", &db).unwrap();
    let snap = Store::open(&path).unwrap().into_snapshot().unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(snap.residues(0), &db[0].codes[..]);
    assert_eq!(snap.to_encoded(), db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fasta_and_store_loads_share_one_scan_order() {
    // Ties (5, 5 and 17, 17) and an empty sequence, out of length order.
    let dir = tmp_dir("order");
    let lens = [40, 0, 17, 5, 5, 123, 17, 1];
    let letters = b"ARNDCQEGHILKMFPSTWYV";
    let fasta: String = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let residues: String = (0..len)
                .map(|j| letters[(i * 7 + j) % 20] as char)
                .collect();
            format!(">subject-{i:03}\n{residues}\n")
        })
        .collect();
    let fasta_path = dir.join("db.fasta");
    std::fs::write(&fasta_path, fasta).unwrap();
    let fasta_path = fasta_path.to_str().unwrap();
    let from_fasta = DbFile::Fasta(fasta_path).load(Alphabet::Protein).unwrap();
    let store_path = dir.join("db.swdb");
    build_store(&store_path, "db", &from_fasta.to_encoded()).unwrap();
    let store_path = store_path.to_str().unwrap();
    for verify in [Verify::Quick, Verify::Full] {
        let from_store = DbFile::Store(store_path, verify)
            .load(Alphabet::Protein)
            .unwrap();
        let order = |snap: &DbSnapshot| -> Vec<usize> {
            (0..snap.len()).map(|p| snap.arena().db_index(p)).collect()
        };
        assert_eq!(order(&from_fasta), order(&from_store));
        // Non-decreasing in length, ties in database order.
        assert_eq!(order(&from_store), vec![1, 7, 3, 4, 2, 6, 0, 5]);
        let arena = from_store.arena();
        for pos in 1..arena.len() {
            let key = |p: usize| (arena.seq_len(p), arena.db_index(p));
            assert!(key(pos - 1) < key(pos), "scan position {pos}");
        }
        for shards in 1..6 {
            assert_eq!(
                from_fasta.shard_ranges(shards),
                from_store.shard_ranges(shards)
            );
        }
        // Database-order views are unchanged by the scan order.
        assert_eq!(from_store.to_encoded(), from_fasta.to_encoded());
        assert_eq!(from_store.seq_len(5), 123);
    }
    std::fs::remove_dir_all(&dir).ok();
}
