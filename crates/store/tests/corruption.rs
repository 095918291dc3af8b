//! Corruption suite: every way a `.swdb` can be damaged must surface as a
//! typed [`StoreError`] — never a panic, never a silently wrong snapshot.

use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, SeqError};
use swhybrid_store::format::{ARENA_ALIGN, HEADER_LEN};
use swhybrid_store::{build_store, Store, StoreBytes, StoreError, Verify};

fn healthy_store_bytes() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "swdb_corrupt_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.swdb");
    let db: Vec<EncodedSequence> = (0..20)
        .map(|i| EncodedSequence {
            id: format!("s{i}"),
            codes: (0..(10 + i * 3)).map(|j| ((i + j) % 20) as u8).collect(),
            alphabet: Alphabet::Protein,
        })
        .collect();
    build_store(&path, "corruptible", &db).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

fn open(bytes: Vec<u8>, verify: Verify) -> Result<Store, StoreError> {
    Store::from_bytes(StoreBytes::from_vec(bytes), verify)
}

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

fn put_u64(bytes: &mut [u8], off: usize, v: u64) {
    bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn healthy_bytes_open_at_both_levels() {
    assert!(open(healthy_store_bytes(), Verify::Quick).is_ok());
    assert!(open(healthy_store_bytes(), Verify::Full).is_ok());
}

#[test]
fn wrong_magic_rejected() {
    let mut bytes = healthy_store_bytes();
    bytes[0] = b'X';
    match open(bytes, Verify::Quick) {
        Err(StoreError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {:?}", other.err()),
    }
}

#[test]
fn wrong_version_rejected() {
    let mut bytes = healthy_store_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match open(bytes, Verify::Quick) {
        Err(StoreError::BadVersion {
            found: 99,
            supported: 1,
        }) => {}
        other => panic!("expected BadVersion, got {:?}", other.err()),
    }
}

#[test]
fn truncated_below_header_rejected() {
    let bytes = healthy_store_bytes();
    for keep in [0, 7, 8, 100, HEADER_LEN as usize - 1] {
        match open(bytes[..keep].to_vec(), Verify::Quick) {
            Err(StoreError::Truncated { .. }) | Err(StoreError::BadMagic { .. }) => {}
            other => panic!("keep={keep}: expected Truncated, got {:?}", other.err()),
        }
    }
}

#[test]
fn truncated_mid_arena_rejected() {
    let bytes = healthy_store_bytes();
    let cut = bytes.len() - 5;
    match open(bytes[..cut].to_vec(), Verify::Quick) {
        Err(StoreError::Truncated { what, .. }) => {
            assert!(what.contains("arena"), "{what}")
        }
        other => panic!("expected Truncated, got {:?}", other.err()),
    }
}

#[test]
fn flipped_arena_byte_caught_by_checksum() {
    let mut bytes = healthy_store_bytes();
    let arena_off = u64_at(&bytes, 136) as usize;
    // Flip a byte to another *in-range* code: only the checksum can see it.
    let target = arena_off + 11;
    bytes[target] = (bytes[target] + 1) % 20;
    match open(bytes.clone(), Verify::Full) {
        Err(StoreError::ChecksumMismatch {
            section: "arena", ..
        }) => {}
        other => panic!("expected arena ChecksumMismatch, got {:?}", other.err()),
    }
    // A Quick open cannot see an in-range flip — documented tradeoff —
    // but it must still open without panicking.
    assert!(open(bytes, Verify::Quick).is_ok());
}

#[test]
fn out_of_range_arena_byte_caught_even_on_quick_open() {
    let mut bytes = healthy_store_bytes();
    let arena_off = u64_at(&bytes, 136) as usize;
    bytes[arena_off + 3] = 200; // not a protein code
    match open(bytes, Verify::Quick) {
        Err(StoreError::CodeOutOfRange {
            position: 3,
            byte: 200,
            ..
        }) => {}
        other => panic!("expected CodeOutOfRange, got {:?}", other.err()),
    }
}

#[test]
fn flipped_metadata_byte_caught_by_meta_checksum() {
    let mut bytes = healthy_store_bytes();
    let ids_off = u64_at(&bytes, 80) as usize;
    bytes[ids_off] ^= 0x01; // rename a subject
    match open(bytes, Verify::Quick) {
        Err(StoreError::ChecksumMismatch {
            section: "metadata",
            ..
        }) => {}
        other => panic!("expected metadata ChecksumMismatch, got {:?}", other.err()),
    }
}

#[test]
fn misaligned_arena_offset_rejected() {
    let mut bytes = healthy_store_bytes();
    let arena_off = u64_at(&bytes, 136);
    assert_eq!(arena_off % ARENA_ALIGN, 0);
    put_u64(&mut bytes, 136, arena_off + 1);
    match open(bytes, Verify::Quick) {
        Err(StoreError::Misaligned {
            section: "arena", ..
        }) => {}
        other => panic!("expected Misaligned, got {:?}", other.err()),
    }
}

#[test]
fn section_offset_pointing_into_header_rejected() {
    let mut bytes = healthy_store_bytes();
    put_u64(&mut bytes, 104, 8); // spans inside the fixed header
    match open(bytes, Verify::Quick) {
        Err(StoreError::BadGeometry(msg)) => assert!(msg.contains("spans"), "{msg}"),
        other => panic!("expected BadGeometry, got {:?}", other.err()),
    }
}

#[test]
fn section_offset_past_eof_rejected() {
    let mut bytes = healthy_store_bytes();
    let len = bytes.len() as u64;
    put_u64(&mut bytes, 96, len + 1024); // id_offsets beyond the file
    match open(bytes, Verify::Quick) {
        Err(StoreError::Truncated { what, .. }) => {
            assert!(what.contains("id_offsets"), "{what}")
        }
        other => panic!("expected Truncated, got {:?}", other.err()),
    }
}

#[test]
fn overflowing_section_offset_rejected() {
    let mut bytes = healthy_store_bytes();
    put_u64(&mut bytes, 136, u64::MAX - 63); // aligned, but off + len overflows
    match open(bytes, Verify::Quick) {
        Err(StoreError::BadGeometry(_)) | Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected geometry error, got {:?}", other.err()),
    }
}

/// Recompute and patch the metadata checksum the way the writer does —
/// the tool of a *consistent* forger, and of these tests.
fn refresh_meta_checksum(bytes: &mut [u8]) {
    let num_seqs = u64_at(bytes, 32);
    let has_perm = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) & 1 != 0;
    let stride = u64_at(bytes, 128).max(1);
    let chunks = num_seqs.div_ceil(stride);
    let mut sections = vec![
        (u64_at(bytes, 64), u64_at(bytes, 72)),  // name
        (u64_at(bytes, 80), u64_at(bytes, 88)),  // ids
        (u64_at(bytes, 96), (num_seqs + 1) * 8), // id_offsets
        (u64_at(bytes, 104), num_seqs * 16),     // spans
    ];
    if has_perm {
        sections.push((u64_at(bytes, 112), num_seqs * 8));
    }
    sections.push((u64_at(bytes, 120), chunks * 8));
    let mut h = swhybrid_seq::digest::Fnv1a::new();
    h.update(&bytes[..152]);
    for (off, len) in sections {
        h.update(&bytes[off as usize..(off + len) as usize]);
    }
    let sum = h.finish();
    put_u64(bytes, 152, sum);
}

#[test]
fn lying_digest_caught_by_full_verify_only() {
    let mut bytes = healthy_store_bytes();
    let digest = u64_at(&bytes, 24);
    put_u64(&mut bytes, 24, digest ^ 0xff);
    // The digest field is under the meta checksum, so a naive flip is
    // caught even on Quick.
    assert!(matches!(
        open(bytes.clone(), Verify::Quick),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    // A consistent forgery (meta checksum recomputed) passes Quick — the
    // digest is trusted there by design — but Full re-hashes the content.
    refresh_meta_checksum(&mut bytes);
    assert!(open(bytes.clone(), Verify::Quick).is_ok());
    match open(bytes, Verify::Full) {
        Err(StoreError::DigestMismatch { .. }) => {}
        other => panic!("expected DigestMismatch, got {:?}", other.err()),
    }
}

#[test]
fn inconsistent_spans_rejected() {
    // Spans whose lengths disagree with the header's min/max, or whose
    // offsets do not tile the arena, must be rejected even with a valid
    // checksum (refresh it after tampering).
    let mut bytes = healthy_store_bytes();
    let spans_off = u64_at(&bytes, 104) as usize;
    // First span: shift its offset by 1 — spans no longer tile the arena.
    let first = u64_at(&bytes, spans_off);
    put_u64(&mut bytes, spans_off, first + 1);
    refresh_meta_checksum(&mut bytes);
    // Caught no later than snapshot assembly (Full opens catch it earlier,
    // at the digest re-hash arena build).
    match open(bytes, Verify::Quick).and_then(Store::into_snapshot) {
        Err(StoreError::Seq(_)) | Err(StoreError::BadGeometry(_)) => {}
        Err(other) => panic!("expected span geometry error, got {other:?}"),
        Ok(_) => panic!("non-tiling spans produced a snapshot"),
    }
}

#[test]
fn inconsistent_chunk_table_rejected() {
    let mut bytes = healthy_store_bytes();
    let chunks_off = u64_at(&bytes, 120) as usize;
    let c0 = u64_at(&bytes, chunks_off);
    put_u64(&mut bytes, chunks_off, c0 + 7);
    refresh_meta_checksum(&mut bytes);
    let store = open(bytes, Verify::Quick).unwrap();
    // The lie survives open (chunks are cross-checked against spans at
    // snapshot assembly), but never reaches a scan.
    match store.into_snapshot() {
        Err(StoreError::Seq(_)) => {}
        Err(other) => panic!("expected Seq error, got {other:?}"),
        Ok(_) => panic!("corrupt chunk table produced a snapshot"),
    }
}

#[test]
fn permutation_other_than_the_stable_length_order_refused_by_name() {
    // The healthy store's lengths ascend, so its scan order is 0, 1, 2, ….
    // Swapping two entries keeps a permutation but not the length order:
    // a slave mapping this store would cut shard ranges into different
    // subjects than a master that parsed the FASTA.
    let mut bytes = healthy_store_bytes();
    let perm_off = u64_at(&bytes, 112) as usize;
    assert_eq!(u64_at(&bytes, perm_off), 0);
    put_u64(&mut bytes, perm_off, 1);
    put_u64(&mut bytes, perm_off + 8, 0);
    refresh_meta_checksum(&mut bytes);
    match open(bytes, Verify::Quick).and_then(Store::into_snapshot) {
        Err(StoreError::Seq(SeqError::ScanOrder { position: 1 })) => {}
        Err(other) => panic!("expected ScanOrder, got {other:?}"),
        Ok(_) => panic!("a permutation out of length order produced a snapshot"),
    }
}

#[test]
fn store_without_permutation_scans_in_length_order() {
    // Clear the section flag: the reader computes the stable length order
    // and the snapshot is the one the stored section gives.
    let healthy = open(healthy_store_bytes(), Verify::Full)
        .and_then(Store::into_snapshot)
        .unwrap();
    let mut bytes = healthy_store_bytes();
    bytes[12] &= !1;
    refresh_meta_checksum(&mut bytes);
    let store = open(bytes, Verify::Full).unwrap();
    assert!(!store.header().has_perm());
    let snap = store.into_snapshot().unwrap();
    assert_eq!(snap.arena(), healthy.arena());
    assert_eq!(snap.to_encoded(), healthy.to_encoded());
}

#[test]
fn no_input_panics_on_arbitrary_prefixes() {
    // Sledgehammer: opening any prefix of a healthy store must return an
    // error (or, for the full length, succeed) — never panic.
    let bytes = healthy_store_bytes();
    for keep in (0..bytes.len()).step_by(17).chain([bytes.len()]) {
        let result = std::panic::catch_unwind(|| open(bytes[..keep].to_vec(), Verify::Full));
        match result {
            Ok(Ok(_)) => assert_eq!(keep, bytes.len(), "short prefix {keep} opened"),
            Ok(Err(_)) => {}
            Err(_) => panic!("panicked at prefix {keep}"),
        }
    }
}
