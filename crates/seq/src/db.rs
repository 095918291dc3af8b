//! In-memory sequence databases and their summary statistics.
//!
//! A *task* in the paper's execution environment is the comparison of one
//! query sequence against one whole genomic database (very coarse-grained
//! parallelisation, §IV). The scheduler never needs the residues themselves —
//! only the aggregate statistics ([`DbStats`]) that determine how many DP
//! cells a task updates — while the compute kernels need the materialised
//! [`Database`].

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::sequence::{EncodedSequence, Sequence};

/// Summary statistics of a sequence database.
///
/// `total_residues` is the quantity that matters for scheduling: comparing a
/// query of length `m` against the database updates
/// `m × total_residues` DP cells.
#[derive(Debug, Clone, PartialEq)]
pub struct DbStats {
    /// Human-readable database name.
    pub name: String,
    /// Number of sequences.
    pub num_sequences: usize,
    /// Sum of all sequence lengths.
    pub total_residues: u64,
    /// Length of the shortest sequence (0 for an empty database).
    pub min_len: usize,
    /// Length of the longest sequence (0 for an empty database).
    pub max_len: usize,
}

impl DbStats {
    /// Mean sequence length (0.0 for an empty database).
    pub fn mean_len(&self) -> f64 {
        if self.num_sequences == 0 {
            0.0
        } else {
            self.total_residues as f64 / self.num_sequences as f64
        }
    }
}

/// An in-memory sequence database.
#[derive(Debug, Clone, PartialEq)]
pub struct Database {
    /// Human-readable name (e.g. `"UniProtKB/SwissProt"`).
    pub name: String,
    /// The alphabet all member sequences are drawn from.
    pub alphabet: Alphabet,
    /// The sequences.
    pub sequences: Vec<Sequence>,
}

impl Database {
    /// Build a database from records, validating nothing (residues are
    /// validated when encoded).
    pub fn new(name: impl Into<String>, alphabet: Alphabet, sequences: Vec<Sequence>) -> Self {
        Database {
            name: name.into(),
            alphabet,
            sequences,
        }
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Compute summary statistics.
    pub fn stats(&self) -> DbStats {
        let mut total = 0u64;
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        for s in &self.sequences {
            total += s.len() as u64;
            min_len = min_len.min(s.len());
            max_len = max_len.max(s.len());
        }
        if self.sequences.is_empty() {
            min_len = 0;
        }
        DbStats {
            name: self.name.clone(),
            num_sequences: self.sequences.len(),
            total_residues: total,
            min_len,
            max_len,
        }
    }

    /// Encode every sequence under the database alphabet.
    pub fn encode_all(&self) -> Result<Vec<EncodedSequence>, SeqError> {
        self.sequences
            .iter()
            .map(|s| EncodedSequence::from_sequence(s, self.alphabet))
            .collect()
    }

    /// Find a sequence by identifier.
    pub fn get(&self, id: &str) -> Option<&Sequence> {
        self.sequences.iter().find(|s| s.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::new(
            "toy",
            Alphabet::Protein,
            vec![
                Sequence::of("a", b"MKVL"),
                Sequence::of("b", b"AW"),
                Sequence::of("c", b"ACDEFGHIKL"),
            ],
        )
    }

    #[test]
    fn stats_basic() {
        let s = db().stats();
        assert_eq!(s.num_sequences, 3);
        assert_eq!(s.total_residues, 16);
        assert_eq!(s.min_len, 2);
        assert_eq!(s.max_len, 10);
        assert!((s.mean_len() - 16.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty() {
        let d = Database::new("e", Alphabet::Protein, vec![]);
        let s = d.stats();
        assert_eq!(s.num_sequences, 0);
        assert_eq!(s.min_len, 0);
        assert_eq!(s.max_len, 0);
        assert_eq!(s.mean_len(), 0.0);
        assert!(d.is_empty());
    }

    #[test]
    fn get_by_id() {
        let d = db();
        assert_eq!(d.get("b").unwrap().residues, b"AW");
        assert!(d.get("zzz").is_none());
    }

    #[test]
    fn encode_all_sizes() {
        let enc = db().encode_all().unwrap();
        assert_eq!(enc.len(), 3);
        assert_eq!(enc[2].len(), 10);
    }
}
