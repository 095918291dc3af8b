//! Flat database arena: one contiguous residue buffer plus `(offset, len)`
//! spans.
//!
//! The alignment kernels scan the database sequentially; storing every
//! subject in its own `Vec<u8>` makes that scan chase one heap pointer per
//! sequence and defeats hardware prefetch. The arena packs all residues
//! into a single buffer **in database order** and keeps one span per
//! sequence **in scan order**: scan position `pos` reads `span(pos)` of
//! the one buffer, wherever that sequence sits in it.
//!
//! Scan order is either database order ([`DbArena::from_encoded`]) or the
//! stable length order ([`DbArena::length_sorted`]: ascending length, equal
//! lengths in database order). The length order makes chunks
//! length-homogeneous — what the inter-sequence kernel wants, since lanes
//! idle while the longest sequence of a batch drains — and only the spans
//! table is reordered for it; the residues never move. The arena keeps the
//! permutation both ways: consumers must report [`DbArena::db_index`],
//! never the scan position, so rankings stay bit-identical to a
//! database-order scan, and a snapshot finds a database index's sequence
//! through the inverse.
//!
//! The residue buffer is either owned (packed from encoded sequences) or
//! **shared**: a window into a reference-counted byte buffer such as a
//! memory-mapped `.swdb` store file ([`DbArena::from_shared`]). Shared
//! arenas let the daemon serve scans directly out of the page cache with
//! zero copies; every accessor behaves identically for both storages.

use std::fmt;
use std::sync::Arc;

use crate::error::SeqError;
use crate::sequence::EncodedSequence;

/// A reference-counted byte buffer an arena can borrow residues from
/// without copying — e.g. a memory-mapped store file.
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// Residue storage: an owned packed buffer, or a window into a shared one.
#[derive(Clone)]
enum Residues {
    Owned(Vec<u8>),
    Shared {
        buf: SharedBytes,
        offset: usize,
        len: usize,
    },
}

impl Residues {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Residues::Owned(v) => v,
            Residues::Shared { buf, offset, len } => &(**buf).as_ref()[*offset..*offset + *len],
        }
    }
}

/// A scan order that differs from database order, kept both ways.
#[derive(Clone, PartialEq, Eq)]
struct ScanOrder {
    /// Scan position → database index.
    db_index: Vec<usize>,
    /// Database index → scan position.
    scan_pos: Vec<usize>,
}

/// The stable length order of sequences with lengths `lens` (database
/// order): database indices by ascending length, equal lengths in database
/// order. The one scan order of every `DbSnapshot`, and the permutation a
/// `.swdb` store persists.
pub fn length_order(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    let lens: Vec<usize> = lens.collect();
    let mut order: Vec<usize> = (0..lens.len()).collect();
    order.sort_by_key(|&i| lens[i]);
    order
}

/// A flat, immutable database of encoded sequences.
#[derive(Clone)]
pub struct DbArena {
    /// All residues, concatenated in database order.
    residues: Residues,
    /// Per-sequence `(offset, len)` into `residues`, in scan order.
    spans: Vec<(usize, usize)>,
    /// `None` means scan order *is* database order.
    order: Option<ScanOrder>,
}

impl fmt::Debug for DbArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DbArena")
            .field("sequences", &self.spans.len())
            .field("residues", &self.residues.as_slice().len())
            .field("permuted", &self.order.is_some())
            .field(
                "storage",
                &match self.residues {
                    Residues::Owned(_) => "owned",
                    Residues::Shared { .. } => "shared",
                },
            )
            .finish()
    }
}

impl PartialEq for DbArena {
    fn eq(&self, other: &Self) -> bool {
        self.residues.as_slice() == other.residues.as_slice()
            && self.spans == other.spans
            && self.order == other.order
    }
}

impl Eq for DbArena {}

impl DbArena {
    /// Pack `subjects`, scanned in database order.
    pub fn from_encoded(subjects: &[EncodedSequence]) -> DbArena {
        let (residues, spans) = DbArena::pack(subjects);
        DbArena {
            residues: Residues::Owned(residues),
            spans,
            order: None,
        }
    }

    /// Pack `subjects`, scanned in the stable [`length_order`]. The
    /// residues are packed in database order exactly as
    /// [`DbArena::from_encoded`] packs them; only the spans are reordered.
    pub fn length_sorted(subjects: &[EncodedSequence]) -> DbArena {
        let (residues, spans) = DbArena::pack(subjects);
        let order = length_order(spans.iter().map(|&(_, len)| len));
        DbArena::with_order(Residues::Owned(residues), spans, order)
    }

    /// Every residue in database order, and each sequence's span in it.
    fn pack(subjects: &[EncodedSequence]) -> (Vec<u8>, Vec<(usize, usize)>) {
        let total: usize = subjects.iter().map(|s| s.len()).sum();
        let mut residues = Vec::with_capacity(total);
        let mut spans = Vec::with_capacity(subjects.len());
        for subject in subjects {
            spans.push((residues.len(), subject.codes.len()));
            residues.extend_from_slice(&subject.codes);
        }
        (residues, spans)
    }

    /// Reorder database-order `spans` into scan order `db_index` (scan
    /// position → database index, already checked to be a permutation).
    fn with_order(residues: Residues, spans: Vec<(usize, usize)>, db_index: Vec<usize>) -> DbArena {
        let mut scan_pos = vec![0; db_index.len()];
        for (pos, &i) in db_index.iter().enumerate() {
            scan_pos[i] = pos;
        }
        DbArena {
            residues,
            spans: db_index.iter().map(|&i| spans[i]).collect(),
            order: Some(ScanOrder { db_index, scan_pos }),
        }
    }

    /// Borrow a `len`-byte residue window at `offset` inside `buf` without
    /// copying — the zero-copy load path for memory-mapped stores.
    ///
    /// `spans` are in database order and must tile the window exactly:
    /// strictly contiguous (`offset_{i+1} = offset_i + len_i`, starting at
    /// 0) and summing to `len`. `perm`, the scan order (scan position →
    /// database index), must be a permutation of `0..spans.len()`.
    /// Violations return [`SeqError::BadArena`]; an arena built here is
    /// indistinguishable from a packed one to every consumer.
    pub fn from_shared(
        buf: SharedBytes,
        offset: usize,
        len: usize,
        spans: Vec<(usize, usize)>,
        perm: Vec<usize>,
    ) -> Result<DbArena, SeqError> {
        let buf_len = (*buf).as_ref().len();
        let end = offset
            .checked_add(len)
            .ok_or_else(|| SeqError::BadArena("window offset + len overflows".into()))?;
        if end > buf_len {
            return Err(SeqError::BadArena(format!(
                "window [{offset}, {end}) exceeds buffer of {buf_len} bytes"
            )));
        }
        let mut cursor = 0usize;
        for (i, &(off, l)) in spans.iter().enumerate() {
            if off != cursor {
                return Err(SeqError::BadArena(format!(
                    "span {i} starts at {off}, expected {cursor} (spans must tile the arena)"
                )));
            }
            cursor = cursor
                .checked_add(l)
                .ok_or_else(|| SeqError::BadArena(format!("span {i} length overflows")))?;
        }
        if cursor != len {
            return Err(SeqError::BadArena(format!(
                "spans cover {cursor} residues but the arena window holds {len}"
            )));
        }
        if perm.len() != spans.len() {
            return Err(SeqError::BadArena(format!(
                "permutation has {} entries for {} spans",
                perm.len(),
                spans.len()
            )));
        }
        let mut seen = vec![false; perm.len()];
        for &ix in &perm {
            if ix >= seen.len() || seen[ix] {
                return Err(SeqError::BadArena(format!(
                    "permutation entry {ix} out of range or repeated"
                )));
            }
            seen[ix] = true;
        }
        Ok(DbArena::with_order(
            Residues::Shared { buf, offset, len },
            spans,
            perm,
        ))
    }

    /// Whether the residue buffer is a shared (e.g. memory-mapped) window
    /// rather than an owned allocation.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self.residues, Residues::Shared { .. })
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total residues across all sequences.
    #[inline]
    pub fn total_residues(&self) -> u64 {
        self.residues.as_slice().len() as u64
    }

    /// Residues of the sequence at scan position `pos`.
    #[inline]
    pub fn residues(&self, pos: usize) -> &[u8] {
        let (offset, len) = self.spans[pos];
        &self.residues.as_slice()[offset..offset + len]
    }

    /// `(offset, len)` span of scan position `pos` in [`DbArena::buffer`].
    #[inline]
    pub fn span(&self, pos: usize) -> (usize, usize) {
        self.spans[pos]
    }

    /// Length in residues of the sequence at scan position `pos`.
    #[inline]
    pub fn seq_len(&self, pos: usize) -> usize {
        self.spans[pos].1
    }

    /// The whole residue buffer (database order).
    #[inline]
    pub fn buffer(&self) -> &[u8] {
        self.residues.as_slice()
    }

    /// Database index of the sequence at scan position `pos` — the
    /// un-permutation every consumer must apply before reporting hits.
    #[inline]
    pub fn db_index(&self, pos: usize) -> usize {
        match &self.order {
            Some(order) => order.db_index[pos],
            None => pos,
        }
    }

    /// Scan position of database index `i` — the inverse of
    /// [`DbArena::db_index`].
    #[inline]
    pub(crate) fn scan_pos(&self, i: usize) -> usize {
        match &self.order {
            Some(order) => order.scan_pos[i],
            None => i,
        }
    }

    /// `Ok` when the scan order is the stable [`length_order`] of the
    /// sequences; otherwise [`SeqError::ScanOrder`] naming the first scan
    /// position that breaks it.
    pub(crate) fn check_length_order(&self) -> Result<(), SeqError> {
        let key = |pos: usize| (self.seq_len(pos), self.db_index(pos));
        match (1..self.len()).find(|&pos| key(pos - 1) >= key(pos)) {
            Some(position) => Err(SeqError::ScanOrder { position }),
            None => Ok(()),
        }
    }

    /// Total residues of the scan positions in `range`.
    pub fn range_residues(&self, range: std::ops::Range<usize>) -> u64 {
        self.spans[range].iter().map(|&(_, len)| len as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

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

    /// Database-order spans tiling the packed residues, as a store keeps
    /// them.
    fn db_spans(subjects: &[EncodedSequence]) -> Vec<(usize, usize)> {
        let mut cursor = 0;
        subjects
            .iter()
            .map(|s| {
                cursor += s.len();
                (cursor - s.len(), s.len())
            })
            .collect()
    }

    #[test]
    fn db_order_round_trips() {
        let subjects = seqs(&[3, 0, 5, 1]);
        let arena = DbArena::from_encoded(&subjects);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.total_residues(), 9);
        for (i, s) in subjects.iter().enumerate() {
            assert_eq!(arena.residues(i), &s.codes[..]);
            assert_eq!(arena.seq_len(i), s.len());
            assert_eq!(arena.db_index(i), i);
            assert_eq!(arena.scan_pos(i), i);
        }
    }

    #[test]
    fn residues_are_contiguous_in_database_order() {
        let subjects = seqs(&[2, 4, 3]);
        let mut expect = Vec::new();
        for s in &subjects {
            expect.extend_from_slice(&s.codes);
        }
        let arena = DbArena::from_encoded(&subjects);
        assert_eq!(arena.buffer(), &expect[..]);
        assert_eq!(arena.span(1), (2, 4));
        // Length order reorders only the spans: the residues stay put.
        let sorted = DbArena::length_sorted(&subjects);
        assert_eq!(sorted.buffer(), &expect[..]);
        assert_eq!(sorted.span(0), (0, 2));
        assert_eq!(sorted.span(1), (6, 3));
        assert_eq!(sorted.span(2), (2, 4));
    }

    #[test]
    fn length_sorted_permutes_and_unpermutes() {
        let subjects = seqs(&[9, 2, 7, 2, 4]);
        let arena = DbArena::length_sorted(&subjects);
        // Ascending lengths, ties in database order.
        let lens: Vec<usize> = (0..arena.len()).map(|p| arena.seq_len(p)).collect();
        assert_eq!(lens, vec![2, 2, 4, 7, 9]);
        let order: Vec<usize> = (0..arena.len()).map(|p| arena.db_index(p)).collect();
        assert_eq!(order, vec![1, 3, 4, 2, 0]);
        assert_eq!(order, length_order(subjects.iter().map(|s| s.len())));
        // Every scan position still reads its own sequence's residues, and
        // `scan_pos` inverts `db_index`.
        for pos in 0..arena.len() {
            assert_eq!(
                arena.residues(pos),
                &subjects[arena.db_index(pos)].codes[..]
            );
            assert_eq!(arena.scan_pos(arena.db_index(pos)), pos);
        }
        arena.check_length_order().unwrap();
    }

    #[test]
    fn only_the_stable_length_order_passes_the_check() {
        let subjects = seqs(&[9, 2, 7, 2]);
        // Database order of unsorted lengths: position 1 (length 2) follows
        // length 9.
        assert!(matches!(
            DbArena::from_encoded(&subjects).check_length_order(),
            Err(SeqError::ScanOrder { position: 1 })
        ));
        // A length-ascending permutation with a tie out of database order.
        let buf: SharedBytes = Arc::new(DbArena::from_encoded(&subjects).buffer().to_vec());
        let tie_swapped =
            DbArena::from_shared(buf.clone(), 0, 20, db_spans(&subjects), vec![3, 1, 2, 0])
                .unwrap();
        assert!(matches!(
            tie_swapped.check_length_order(),
            Err(SeqError::ScanOrder { position: 1 })
        ));
        let stable =
            DbArena::from_shared(buf, 0, 20, db_spans(&subjects), vec![1, 3, 2, 0]).unwrap();
        stable.check_length_order().unwrap();
        assert_eq!(stable, DbArena::length_sorted(&subjects));
        // Sorted lengths in database order are that order already.
        DbArena::from_encoded(&seqs(&[1, 1, 3]))
            .check_length_order()
            .unwrap();
    }

    #[test]
    fn range_residues_sums_spans() {
        let subjects = seqs(&[3, 5, 2, 8]);
        let arena = DbArena::from_encoded(&subjects);
        assert_eq!(arena.range_residues(1..3), 7);
        assert_eq!(arena.range_residues(0..4), 18);
        assert_eq!(arena.range_residues(2..2), 0);
        // Scan positions, not database indices.
        let sorted = DbArena::length_sorted(&subjects);
        assert_eq!(sorted.range_residues(0..2), 5);
    }

    #[test]
    fn empty_database() {
        let arena = DbArena::from_encoded(&[]);
        assert!(arena.is_empty());
        assert_eq!(arena.total_residues(), 0);
        let sorted = DbArena::length_sorted(&[]);
        assert_eq!(sorted.len(), 0);
        sorted.check_length_order().unwrap();
    }

    #[test]
    fn shared_window_matches_owned_packing() {
        let subjects = seqs(&[3, 0, 5, 1]);
        let owned = DbArena::length_sorted(&subjects);
        // Embed the packed residues inside a larger shared buffer with a
        // leading pad, as a store file does.
        let mut file = vec![0xAAu8; 7];
        file.extend_from_slice(owned.buffer());
        file.push(0xBB);
        let buf: SharedBytes = Arc::new(file);
        let order = length_order(subjects.iter().map(|s| s.len()));
        let shared =
            DbArena::from_shared(buf, 7, owned.buffer().len(), db_spans(&subjects), order).unwrap();
        assert!(shared.is_shared());
        assert_eq!(shared, owned);
        for (i, subject) in subjects.iter().enumerate() {
            assert_eq!(shared.residues(shared.scan_pos(i)), &subject.codes[..]);
        }
    }

    #[test]
    fn shared_window_rejects_bad_geometry() {
        let buf: SharedBytes = Arc::new(vec![1u8, 2, 3, 4]);
        // Window past the end of the buffer.
        assert!(matches!(
            DbArena::from_shared(buf.clone(), 2, 3, vec![(0, 3)], vec![0]),
            Err(SeqError::BadArena(_))
        ));
        // Spans with a gap.
        assert!(DbArena::from_shared(buf.clone(), 0, 4, vec![(0, 1), (2, 2)], vec![0, 1]).is_err());
        // Spans overrunning the window.
        assert!(DbArena::from_shared(buf.clone(), 0, 4, vec![(0, 5)], vec![0]).is_err());
        // Spans undershooting the window.
        assert!(DbArena::from_shared(buf.clone(), 0, 4, vec![(0, 2)], vec![0]).is_err());
        // Bad permutation: repeated entry.
        assert!(DbArena::from_shared(buf.clone(), 0, 4, vec![(0, 2), (2, 2)], vec![0, 0]).is_err());
        // Bad permutation: out of range.
        assert!(DbArena::from_shared(buf, 0, 4, vec![(0, 2), (2, 2)], vec![0, 2]).is_err());
    }
}
