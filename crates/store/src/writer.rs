//! Building `.swdb` stores.
//!
//! A build is atomic: the store is assembled in a temp file next to the
//! destination, flushed and fsynced, then renamed into place — a daemon
//! hot-reloading onto the path can never observe a half-written store.
//! The arena is streamed straight from the encoded sequences, so peak
//! memory is the encoded database plus O(metadata), not 2× the residues.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use swhybrid_seq::arena::length_order;
use swhybrid_seq::digest::{db_digest_feeding, Fnv1a};
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::snapshot::CHUNK_STRIDE;
use swhybrid_seq::Alphabet;

use crate::error::StoreError;
use crate::format::{Header, ARENA_ALIGN, FLAG_HAS_PERM, HEADER_LEN};

/// What a finished build wrote.
#[derive(Debug, Clone)]
pub struct BuildSummary {
    /// Final store path.
    pub path: PathBuf,
    /// Sequences stored.
    pub sequences: u64,
    /// Residues stored (arena bytes).
    pub residues: u64,
    /// The FNV db digest recorded in the header.
    pub db_digest: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Build a `.swdb` store at `path` from encoded sequences (database order).
///
/// All sequences must share one alphabet; the length-sorted scan
/// permutation is always computed and stored.
pub fn build_store(
    path: impl AsRef<Path>,
    name: &str,
    subjects: &[EncodedSequence],
) -> Result<BuildSummary, StoreError> {
    let path = path.as_ref();
    let alphabet = subjects
        .first()
        .map(|s| s.alphabet)
        .unwrap_or(Alphabet::Protein);
    if let Some(bad) = subjects.iter().find(|s| s.alphabet != alphabet) {
        return Err(StoreError::BadGeometry(format!(
            "sequence {:?} is encoded in {:?}, database is {:?}",
            bad.id, bad.alphabet, alphabet
        )));
    }

    let num_seqs = subjects.len() as u64;
    let total_residues: u64 = subjects.iter().map(|s| s.len() as u64).sum();
    let max_len = subjects.iter().map(|s| s.len() as u64).max().unwrap_or(0);
    let min_len = subjects.iter().map(|s| s.len() as u64).min().unwrap_or(0);

    // Metadata sections.
    let name_bytes = name.as_bytes();
    let mut ids = Vec::new();
    let mut id_offsets = Vec::with_capacity(subjects.len() + 1);
    id_offsets.push(0u64);
    for s in subjects {
        ids.extend_from_slice(s.id.as_bytes());
        id_offsets.push(ids.len() as u64);
    }
    let mut spans = Vec::with_capacity(subjects.len());
    let mut cursor = 0u64;
    for s in subjects {
        spans.push((cursor, s.len() as u64));
        cursor += s.len() as u64;
    }
    let perm: Vec<u64> = length_order(subjects.iter().map(|s| s.len()))
        .into_iter()
        .map(|i| i as u64)
        .collect();
    let chunks: Vec<u64> = (0..subjects.len().div_ceil(CHUNK_STRIDE))
        .map(|j| {
            subjects[j * CHUNK_STRIDE..((j + 1) * CHUNK_STRIDE).min(subjects.len())]
                .iter()
                .map(|s| s.len() as u64)
                .sum()
        })
        .collect();

    // Lay out the file.
    let name_off = HEADER_LEN;
    let ids_off = name_off + name_bytes.len() as u64;
    let id_offsets_off = ids_off + ids.len() as u64;
    let spans_off = id_offsets_off + id_offsets.len() as u64 * 8;
    let perm_off = spans_off + spans.len() as u64 * 16;
    let chunks_off = perm_off + perm.len() as u64 * 8;
    let chunks_end = chunks_off + chunks.len() as u64 * 8;
    let arena_off = chunks_end.div_ceil(ARENA_ALIGN) * ARENA_ALIGN;

    let le = |v: &[u64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let id_offsets_bytes = le(&id_offsets);
    let spans_bytes: Vec<u8> = spans
        .iter()
        .flat_map(|&(o, l)| {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&o.to_le_bytes());
            b[8..].copy_from_slice(&l.to_le_bytes());
            b
        })
        .collect();
    let perm_bytes = le(&perm);
    let chunks_bytes = le(&chunks);

    // The arena checksum streams over codes in database order, in the
    // db digest's walk.
    let mut arena_hash = Fnv1a::new();
    let db_digest = db_digest_feeding(subjects, &mut arena_hash);

    let mut header = Header {
        flags: FLAG_HAS_PERM,
        alphabet,
        db_digest,
        num_seqs,
        total_residues,
        max_len,
        min_len,
        name_off,
        name_len: name_bytes.len() as u64,
        ids_off,
        ids_len: ids.len() as u64,
        id_offsets_off,
        spans_off,
        perm_off,
        chunks_off,
        chunk_stride: CHUNK_STRIDE as u64,
        arena_off,
        arena_len: total_residues,
        meta_checksum: 0,
        arena_checksum: arena_hash.finish(),
    };

    // meta_checksum covers header bytes [0, 152) — which exclude both
    // checksum fields — then every metadata section in field order.
    let mut meta_hash = Fnv1a::new();
    meta_hash.update(&header.to_bytes()[..crate::format::META_CHECKSUM_COVERS as usize]);
    meta_hash.update(name_bytes);
    meta_hash.update(&ids);
    meta_hash.update(&id_offsets_bytes);
    meta_hash.update(&spans_bytes);
    meta_hash.update(&perm_bytes);
    meta_hash.update(&chunks_bytes);
    header.meta_checksum = meta_hash.finish();

    // Assemble in a temp file, fsync, rename: readers see old or new, never
    // a torn store.
    let tmp_path = path.with_file_name(format!(
        "{}.tmp.{}",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store.swdb".into()),
        std::process::id()
    ));
    let file = File::create(&tmp_path)?;
    let mut w = BufWriter::new(file);
    let write = (|| -> Result<u64, StoreError> {
        w.write_all(&header.to_bytes())?;
        w.write_all(name_bytes)?;
        w.write_all(&ids)?;
        w.write_all(&id_offsets_bytes)?;
        w.write_all(&spans_bytes)?;
        w.write_all(&perm_bytes)?;
        w.write_all(&chunks_bytes)?;
        w.write_all(&vec![0u8; (arena_off - chunks_end) as usize])?;
        for s in subjects {
            w.write_all(&s.codes)?;
        }
        w.flush()?;
        let file = w.get_ref();
        file.sync_all()?;
        Ok(arena_off + total_residues)
    })();
    let file_bytes = match write {
        Ok(n) => n,
        Err(e) => {
            std::fs::remove_file(&tmp_path).ok();
            return Err(e);
        }
    };
    drop(w);
    if let Err(e) = std::fs::rename(&tmp_path, path) {
        std::fs::remove_file(&tmp_path).ok();
        return Err(e.into());
    }

    Ok(BuildSummary {
        path: path.to_path_buf(),
        sequences: num_seqs,
        residues: total_residues,
        db_digest: header.db_digest,
        file_bytes,
    })
}
