//! An immutable, shareable view of one database generation.
//!
//! The serve daemon holds exactly one of these per generation: the subject
//! ids, the residue arena the scan kernels stream through, the FNV db
//! digest (cache key + remote-slave handshake), and per-chunk residue
//! counts for shard balancing. A query captures an `Arc<DbSnapshot>` at
//! admission and scans that snapshot to completion — a concurrent
//! hot-reload swaps the daemon's pointer but never mutates a snapshot, so
//! no query can observe a mixed-generation database.
//!
//! Every snapshot has one scan order: the stable length order
//! ([`crate::arena::length_order`]: ascending length, equal lengths in
//! database order), so each inter-sequence chunk holds subjects of like
//! length and its lanes finish together. Scan positions are what the
//! kernels, [`DbSnapshot::shard_ranges`] and a task's shard name; the
//! arena reports each hit's database index. Everything else a snapshot
//! answers — ids, [`DbSnapshot::residues`], [`DbSnapshot::seq_len`],
//! [`DbSnapshot::to_encoded`], the digest — is in database order. Because
//! the order is a function of the sequence lengths alone, two peers that
//! load one database, from FASTA or from a store, cut one shard range into
//! the same subjects.
//!
//! Snapshots come from two places: packed out of freshly parsed FASTA
//! ([`DbSnapshot::from_encoded`]), or borrowed zero-copy out of a
//! memory-mapped `.swdb` store file ([`DbSnapshot::from_parts`] over a
//! shared-window [`DbArena`] in the store's scan permutation). Both are
//! indistinguishable to consumers.

use crate::alphabet::Alphabet;
use crate::arena::DbArena;
use crate::digest::{db_digest, db_digest_parts};
use crate::error::SeqError;
use crate::sequence::EncodedSequence;

/// Sequences per entry of the chunked residue-count table.
pub const CHUNK_STRIDE: usize = 1024;

/// One immutable database generation: ids + length-ordered arena + digest.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    /// Human-readable database name ("" when unnamed).
    name: String,
    /// The alphabet every sequence is encoded in.
    alphabet: Alphabet,
    /// Subject ids, in database order.
    ids: Vec<String>,
    /// Residues in database order, scanned in the stable length order.
    arena: DbArena,
    /// FNV-1a digest over ids + codes (see [`crate::digest::db_digest`]).
    digest: u64,
    /// Weighted prefix sums over [`CHUNK_STRIDE`]-position chunks of the
    /// scan order: `weighted_prefix[j]` = Σ (len+1) of scan positions
    /// `[0, j·STRIDE)`. Lets shard balancing skip whole chunks instead of
    /// walking every span.
    weighted_prefix: Vec<u64>,
}

impl DbSnapshot {
    /// Build a snapshot by packing encoded sequences (the FASTA load path).
    /// The digest is computed here — O(db), once per load.
    pub fn from_encoded(name: impl Into<String>, subjects: &[EncodedSequence]) -> DbSnapshot {
        let alphabet = subjects
            .first()
            .map(|s| s.alphabet)
            .unwrap_or(Alphabet::Protein);
        let arena = DbArena::length_sorted(subjects);
        let ids = subjects.iter().map(|s| s.id.clone()).collect();
        let digest = db_digest(subjects);
        let weighted_prefix = weighted_chunk_prefix(&arena);
        DbSnapshot {
            name: name.into(),
            alphabet,
            ids,
            arena,
            digest,
            weighted_prefix,
        }
    }

    /// Assemble a snapshot from pre-built parts (the store load path). The
    /// digest is **trusted**, not recomputed — stores record it so cold
    /// start stays O(1) in database size; callers wanting paranoia re-hash
    /// with [`DbSnapshot::verify_digest`].
    ///
    /// The arena must scan in the stable length order; any other order is
    /// refused with [`SeqError::ScanOrder`]. `chunk_residues`, when given, are
    /// per-[`CHUNK_STRIDE`] *residue* sums over database order (unweighted,
    /// as a store persists them); they are verified against the arena
    /// spans, so a store whose chunk table disagrees with its spans is
    /// rejected.
    pub fn from_parts(
        name: impl Into<String>,
        alphabet: Alphabet,
        ids: Vec<String>,
        arena: DbArena,
        digest: u64,
        chunk_residues: Option<&[u64]>,
    ) -> Result<DbSnapshot, SeqError> {
        if ids.len() != arena.len() {
            return Err(SeqError::BadArena(format!(
                "{} ids for {} sequences",
                ids.len(),
                arena.len()
            )));
        }
        arena.check_length_order()?;
        if let Some(stored) = chunk_residues {
            let chunks = arena.len().div_ceil(CHUNK_STRIDE);
            if stored.len() != chunks {
                return Err(SeqError::BadArena(format!(
                    "chunk table has {} entries, expected {chunks}",
                    stored.len()
                )));
            }
            let mut spans_sum = vec![0u64; chunks];
            for pos in 0..arena.len() {
                spans_sum[arena.db_index(pos) / CHUNK_STRIDE] += arena.seq_len(pos) as u64;
            }
            for (j, (&res, &expect)) in stored.iter().zip(&spans_sum).enumerate() {
                if res != expect {
                    return Err(SeqError::BadArena(format!(
                        "chunk {j} records {res} residues but spans sum to {expect}"
                    )));
                }
            }
        }
        let weighted_prefix = weighted_chunk_prefix(&arena);
        Ok(DbSnapshot {
            name: name.into(),
            alphabet,
            ids,
            arena,
            digest,
            weighted_prefix,
        })
    }

    /// Recompute the digest from ids + arena and compare against the
    /// recorded one. `Ok(())` on match.
    pub fn verify_digest(&self) -> Result<(), SeqError> {
        let actual = db_digest_parts(&self.ids, &self.arena);
        if actual != self.digest {
            return Err(SeqError::BadArena(format!(
                "db digest mismatch: recorded {:016x}, content hashes to {actual:016x}",
                self.digest
            )));
        }
        Ok(())
    }

    /// Database name ("" when unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The alphabet the residues are encoded in.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total residues across all sequences.
    pub fn total_residues(&self) -> u64 {
        self.arena.total_residues()
    }

    /// Id of sequence `i` (database order).
    pub fn id(&self, i: usize) -> &str {
        &self.ids[i]
    }

    /// All ids, in database order.
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// Residues of sequence `i` (database order).
    pub fn residues(&self, i: usize) -> &[u8] {
        self.arena.residues(self.arena.scan_pos(i))
    }

    /// Length in residues of sequence `i` (database order).
    pub fn seq_len(&self, i: usize) -> usize {
        self.arena.seq_len(self.arena.scan_pos(i))
    }

    /// The length-ordered arena the kernels scan.
    pub fn arena(&self) -> &DbArena {
        &self.arena
    }

    /// The FNV-1a database digest (ids + codes, database order).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Total residues of the scan positions in `range`.
    pub fn range_residues(&self, range: std::ops::Range<usize>) -> u64 {
        self.arena.range_residues(range)
    }

    /// Materialise owned `EncodedSequence`s in database order
    /// (test/oracle convenience — copies every residue).
    pub fn to_encoded(&self) -> Vec<EncodedSequence> {
        (0..self.len())
            .map(|i| EncodedSequence {
                id: self.ids[i].clone(),
                codes: self.residues(i).to_vec(),
                alphabet: self.alphabet,
            })
            .collect()
    }

    /// Split the scan order into `shards` contiguous ranges of scan
    /// positions of roughly equal residue weight (each sequence weighs
    /// `len + 1`, so runs of empty sequences still advance the split).
    ///
    /// Produces exactly the ranges of a sequential weighted walk, but uses
    /// the chunked prefix sums to skip whole chunks — O(shards · (log c +
    /// STRIDE)) instead of O(sequences).
    pub fn shard_ranges(&self, shards: usize) -> Vec<(usize, usize)> {
        let count = self.len();
        if count == 0 {
            return vec![(0, 0)];
        }
        let n = shards.clamp(1, count) as u64;
        let total = *self.weighted_prefix.last().expect("prefix never empty");
        let mut out = Vec::with_capacity(n as usize);
        let mut start = 0usize;
        let mut i_floor = 0usize; // first position eligible to end the next shard
        for k in 1..n {
            // Smallest i in [i_floor, count-1) with A(i)·n ≥ k·total, where
            // A(i) is the weighted prefix through scan position i inclusive.
            let target = k * total;
            // First chunk whose end-of-chunk prefix crosses the target.
            let mut lo = i_floor / CHUNK_STRIDE;
            let mut hi = self.weighted_prefix.len() - 1; // number of chunks
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.weighted_prefix[mid + 1] * n >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let chunk = lo;
            let mut i = (chunk * CHUNK_STRIDE).max(i_floor);
            let mut acc = self.weighted_prefix[chunk]
                + self.arena.range_residues(chunk * CHUNK_STRIDE..i)
                + (i - chunk * CHUNK_STRIDE) as u64;
            let mut found = None;
            while i + 1 < count {
                acc += self.arena.seq_len(i) as u64 + 1;
                if acc * n >= target {
                    found = Some(i);
                    break;
                }
                i += 1;
            }
            match found {
                Some(i) => {
                    out.push((start, i + 1));
                    start = i + 1;
                    i_floor = i + 1;
                }
                None => break,
            }
        }
        out.push((start, count));
        out
    }
}

/// Weighted (`len + 1`) prefix sums at chunk granularity; entry `j` covers
/// scan positions `[0, j·STRIDE)`, final entry covers the whole database.
fn weighted_chunk_prefix(arena: &DbArena) -> Vec<u64> {
    let count = arena.len();
    let chunks = count.div_ceil(CHUNK_STRIDE);
    let mut prefix = Vec::with_capacity(chunks + 1);
    prefix.push(0u64);
    let mut acc = 0u64;
    for j in 0..chunks {
        let lo = j * CHUNK_STRIDE;
        let hi = ((j + 1) * CHUNK_STRIDE).min(count);
        acc += arena.range_residues(lo..hi) + (hi - lo) as u64;
        prefix.push(acc);
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(lens: &[usize]) -> Vec<EncodedSequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| EncodedSequence {
                id: format!("s{i}"),
                codes: (0..len).map(|j| ((i + j) % 20) as u8).collect(),
                alphabet: Alphabet::Protein,
            })
            .collect()
    }

    /// The sequential reference the chunked shard_ranges must reproduce.
    fn naive_shard_ranges(lens: &[usize], shards: usize) -> Vec<(usize, usize)> {
        if lens.is_empty() {
            return vec![(0, 0)];
        }
        let n = shards.clamp(1, lens.len());
        let total: u64 = lens.iter().map(|&l| l as u64 + 1).sum();
        let mut out = Vec::with_capacity(n);
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, &l) in lens.iter().enumerate() {
            acc += l as u64 + 1;
            let k = out.len() as u64 + 1;
            if out.len() < n - 1 && i + 1 < lens.len() && acc * n as u64 >= k * total {
                out.push((start, i + 1));
                start = i + 1;
            }
        }
        out.push((start, lens.len()));
        out
    }

    /// The store's chunk table for `lens` (database order): residues per
    /// [`CHUNK_STRIDE`] sequences.
    fn db_chunks(lens: &[usize]) -> Vec<u64> {
        lens.chunks(CHUNK_STRIDE)
            .map(|c| c.iter().map(|&l| l as u64).sum())
            .collect()
    }

    #[test]
    fn from_encoded_matches_db_digest_and_ids() {
        let db = seqs(&[5, 0, 9, 3]);
        let snap = DbSnapshot::from_encoded("toy", &db);
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.total_residues(), 17);
        assert_eq!(snap.digest(), db_digest(&db));
        assert_eq!(snap.id(2), "s2");
        assert_eq!(snap.residues(2), &db[2].codes[..]);
        assert_eq!(snap.seq_len(2), 9);
        assert_eq!(snap.to_encoded(), db);
        snap.verify_digest().unwrap();
        // The kernels scan by length: 0, 3, 5, 9.
        let order: Vec<usize> = (0..4).map(|p| snap.arena().db_index(p)).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn from_parts_validates_geometry_and_chunks() {
        let db = seqs(&[4, 2]);
        let good = DbSnapshot::from_encoded("", &db);
        let arena = DbArena::length_sorted(&db);
        // id count mismatch
        assert!(DbSnapshot::from_parts(
            "",
            Alphabet::Protein,
            vec!["only-one".into()],
            arena.clone(),
            good.digest(),
            None
        )
        .is_err());
        // an arena scanned in any order but the stable length order
        // (here database order) rejected by name
        assert!(matches!(
            DbSnapshot::from_parts(
                "",
                Alphabet::Protein,
                vec!["a".into(), "b".into()],
                DbArena::from_encoded(&db),
                good.digest(),
                None
            ),
            Err(SeqError::ScanOrder { position: 1 })
        ));
        // chunk table disagreeing with spans rejected
        assert!(DbSnapshot::from_parts(
            "",
            Alphabet::Protein,
            vec!["s0".into(), "s1".into()],
            arena.clone(),
            good.digest(),
            Some(&[7])
        )
        .is_err());
        // consistent parts accepted, digest trusted as recorded
        let snap = DbSnapshot::from_parts(
            "x",
            Alphabet::Protein,
            vec!["s0".into(), "s1".into()],
            arena,
            good.digest(),
            Some(&db_chunks(&[4, 2])),
        )
        .unwrap();
        assert_eq!(snap.digest(), good.digest());
        snap.verify_digest().unwrap();
        // A lying digest is carried verbatim but caught by verify_digest.
        let lying = DbSnapshot::from_parts(
            "x",
            Alphabet::Protein,
            vec!["s0".into(), "s1".into()],
            DbArena::length_sorted(&db),
            good.digest() ^ 1,
            None,
        )
        .unwrap();
        assert!(lying.verify_digest().is_err());
    }

    #[test]
    fn shard_ranges_match_sequential_reference() {
        // Deterministic pseudo-random lengths, sizes crossing CHUNK_STRIDE.
        let mut state = 0x9e37_79b9_u64;
        let mut lens = Vec::new();
        for _ in 0..(CHUNK_STRIDE * 3 + 77) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lens.push((state >> 33) as usize % 50);
        }
        // Shards cut the scan order, which is the lengths sorted.
        let scan_lens = |lens: &[usize]| {
            let mut sorted = lens.to_vec();
            sorted.sort_unstable();
            sorted
        };
        let db = seqs(&lens);
        let snap = DbSnapshot::from_encoded("", &db);
        for shards in [1, 2, 3, 7, 16, 64, 1000, lens.len(), lens.len() * 2] {
            assert_eq!(
                snap.shard_ranges(shards),
                naive_shard_ranges(&scan_lens(&lens), shards),
                "shards={shards}"
            );
        }
        // Small and degenerate databases.
        for lens in [vec![], vec![0], vec![0, 0, 0], vec![9], vec![1, 100, 1]] {
            let db = seqs(&lens);
            let snap = DbSnapshot::from_encoded("", &db);
            for shards in 1..6 {
                assert_eq!(
                    snap.shard_ranges(shards),
                    naive_shard_ranges(&scan_lens(&lens), shards)
                );
            }
        }
    }

    #[test]
    fn chunk_residues_round_trip() {
        // Lengths descend chunk by chunk, so the scan order moves sequences
        // across chunk boundaries: the table is checked in database order.
        let lens: Vec<usize> = (0..CHUNK_STRIDE + 10).map(|i| 9 - i / 128 % 10).collect();
        let db = seqs(&lens);
        let snap = DbSnapshot::from_encoded("", &db);
        let chunks = db_chunks(&lens);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks.iter().sum::<u64>(), snap.total_residues());
        // Feeding them back through from_parts re-verifies them.
        DbSnapshot::from_parts(
            "",
            Alphabet::Protein,
            snap.ids().to_vec(),
            snap.arena().clone(),
            snap.digest(),
            Some(&chunks),
        )
        .unwrap();
        // The same sums over scan positions disagree, and are refused.
        let scan_chunks: Vec<u64> = (0..2)
            .map(|j| snap.range_residues(j * CHUNK_STRIDE..((j + 1) * CHUNK_STRIDE).min(db.len())))
            .collect();
        assert_ne!(scan_chunks, chunks);
        assert!(DbSnapshot::from_parts(
            "",
            Alphabet::Protein,
            snap.ids().to_vec(),
            snap.arena().clone(),
            snap.digest(),
            Some(&scan_chunks),
        )
        .is_err());
    }
}
