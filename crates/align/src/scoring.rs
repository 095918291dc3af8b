//! Substitution matrices and gap models.
//!
//! A score is associated with each alignment column (paper §II): a reward
//! for a match, a penalty for a mismatch — generalised here to a full
//! substitution matrix for proteins — and a penalty for a gap, either linear
//! (Eq. 1) or affine (Gotoh's model, §II-A-3, where opening a gap costs more
//! than extending one).

use std::fmt;

use swhybrid_seq::alphabet::Alphabet;
use swhybrid_seq::digest::Fnv1a;

mod matrices;
pub use matrices::{BLOSUM50, BLOSUM62, PAM250};

/// The largest gap penalty (open or extend) a scoring scheme may carry.
/// The scalar kernels subtract `extend` from their `i32::MIN / 4` sentinel
/// and at most `open + 2 × extend` from a zero cell; the vector kernels
/// form `open + extend` in `i32` before clamping it to their lane width.
/// Under this bound none of that can overflow, and it is far above any
/// penalty that changes an alignment (no substitution score comes near
/// it).
pub const MAX_GAP_PENALTY: i32 = 1_000_000;

/// Gap penalty model. Penalties are stored as **positive magnitudes** and
/// subtracted by the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapModel {
    /// Every gap column costs `penalty` (the model of the paper's Eq. 1).
    Linear {
        /// Cost of each gap column (positive).
        penalty: i32,
    },
    /// A gap of length `L` costs `open + L × extend` (Gotoh): the *first*
    /// column of a gap costs `open + extend`, each following column `extend`.
    Affine {
        /// Additional cost of starting a gap (positive).
        open: i32,
        /// Cost of each gap column (positive).
        extend: i32,
    },
}

impl GapModel {
    /// Cost of a gap of `len` columns (positive magnitude).
    #[inline]
    pub fn cost(self, len: usize) -> i64 {
        match self {
            GapModel::Linear { penalty } => penalty as i64 * len as i64,
            GapModel::Affine { open, extend } => {
                if len == 0 {
                    0
                } else {
                    open as i64 + extend as i64 * len as i64
                }
            }
        }
    }
}

/// A substitution matrix over the codes of an [`Alphabet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstMatrix {
    /// Human-readable name (e.g. `"BLOSUM62"`).
    pub name: String,
    /// The alphabet whose codes index the matrix.
    pub alphabet: Alphabet,
    dim: usize,
    scores: Vec<i8>,
}

impl SubstMatrix {
    /// Build from a flat row-major table of `dim × dim` scores.
    pub fn from_flat(name: impl Into<String>, alphabet: Alphabet, scores: Vec<i8>) -> SubstMatrix {
        let dim = alphabet.size();
        assert_eq!(
            scores.len(),
            dim * dim,
            "substitution table must be {dim}×{dim}"
        );
        SubstMatrix {
            name: name.into(),
            alphabet,
            dim,
            scores,
        }
    }

    /// The standard BLOSUM62 protein matrix (NCBI 24×24).
    pub fn blosum62() -> SubstMatrix {
        SubstMatrix::from_flat("BLOSUM62", Alphabet::Protein, BLOSUM62.to_vec())
    }

    /// The standard BLOSUM50 protein matrix (NCBI 24×24).
    pub fn blosum50() -> SubstMatrix {
        SubstMatrix::from_flat("BLOSUM50", Alphabet::Protein, BLOSUM50.to_vec())
    }

    /// The classic PAM250 protein matrix (NCBI 24×24).
    pub fn pam250() -> SubstMatrix {
        SubstMatrix::from_flat("PAM250", Alphabet::Protein, PAM250.to_vec())
    }

    /// A simple match/mismatch matrix (the paper's Fig. 1/2 uses
    /// `ma = +1`, `mi = -1` over the DNA alphabet). The unknown code scores
    /// `mismatch` against everything including itself.
    pub fn match_mismatch(alphabet: Alphabet, ma: i8, mi: i8) -> SubstMatrix {
        let dim = alphabet.size();
        let unknown = alphabet.unknown_code() as usize;
        let mut scores = vec![mi; dim * dim];
        for i in 0..dim {
            if i != unknown {
                scores[i * dim + i] = ma;
            }
        }
        SubstMatrix::from_flat(format!("match/mismatch({ma},{mi})"), alphabet, scores)
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Score of aligning codes `a` and `b`.
    #[inline]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        debug_assert!((a as usize) < self.dim && (b as usize) < self.dim);
        self.scores[a as usize * self.dim + b as usize] as i32
    }

    /// Raw row for code `a` — used to build SIMD query profiles.
    #[inline]
    pub fn row(&self, a: u8) -> &[i8] {
        &self.scores[a as usize * self.dim..(a as usize + 1) * self.dim]
    }

    /// Maximum entry of the matrix.
    pub fn max_score(&self) -> i32 {
        self.scores.iter().copied().max().unwrap_or(0) as i32
    }
}

/// A complete scoring scheme: substitution matrix + gap model.
#[derive(Debug, Clone, PartialEq)]
pub struct Scoring {
    /// Substitution matrix.
    pub matrix: SubstMatrix,
    /// Gap model.
    pub gap: GapModel,
}

impl Scoring {
    /// BLOSUM62 with the CUDASW++ default affine gaps (open 10, extend 2).
    pub fn blosum62_affine() -> Scoring {
        Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine {
                open: 10,
                extend: 2,
            },
        }
    }

    /// The paper's didactic DNA scheme: `ma = +1`, `mi = −1`, `g = −2`
    /// (Fig. 1 and Fig. 2).
    pub fn paper_dna() -> Scoring {
        Scoring {
            matrix: SubstMatrix::match_mismatch(Alphabet::Dna, 1, -1),
            gap: GapModel::Linear { penalty: 2 },
        }
    }

    /// Substitution score for codes `a`, `b`.
    #[inline]
    pub fn sub(&self, a: u8, b: u8) -> i32 {
        self.matrix.score(a, b)
    }

    /// Stable digest of the scheme (matrix identity + gap model): the
    /// scoring half of the daemon's cache key and of the identity a remote
    /// PE proves at registration.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update_framed(self.matrix.name.as_bytes());
        h.update_framed(format!("{:?}", self.matrix.alphabet).as_bytes());
        match self.gap {
            GapModel::Linear { penalty } => {
                h.update(&[0]);
                h.update(&penalty.to_le_bytes());
            }
            GapModel::Affine { open, extend } => {
                h.update(&[1]);
                h.update(&open.to_le_bytes());
                h.update(&extend.to_le_bytes());
            }
        }
        h.finish()
    }
}

/// `BLOSUM62, gap open 10 extend 2`: how a refusal names a scheme.
impl fmt::Display for Scoring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.gap {
            GapModel::Linear { penalty } => write!(f, "{}, linear gap {penalty}", self.matrix.name),
            GapModel::Affine { open, extend } => {
                write!(f, "{}, gap open {open} extend {extend}", self.matrix.name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swhybrid_seq::alphabet::PROTEIN_RESIDUES;

    fn code(res: u8) -> u8 {
        Alphabet::Protein.encode_byte(res).unwrap()
    }

    #[test]
    fn blosum62_spot_values() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.score(code(b'A'), code(b'A')), 4);
        assert_eq!(m.score(code(b'W'), code(b'W')), 11);
        assert_eq!(m.score(code(b'C'), code(b'C')), 9);
        assert_eq!(m.score(code(b'A'), code(b'R')), -1);
        assert_eq!(m.score(code(b'W'), code(b'A')), -3);
        assert_eq!(m.score(code(b'*'), code(b'*')), 1);
        assert_eq!(m.score(code(b'A'), code(b'*')), -4);
    }

    #[test]
    fn blosum50_spot_values() {
        let m = SubstMatrix::blosum50();
        assert_eq!(m.score(code(b'A'), code(b'A')), 5);
        assert_eq!(m.score(code(b'W'), code(b'W')), 15);
        assert_eq!(m.score(code(b'C'), code(b'C')), 13);
        assert_eq!(m.score(code(b'*'), code(b'*')), 1);
    }

    #[test]
    fn pam250_spot_values() {
        let m = SubstMatrix::pam250();
        assert_eq!(m.score(code(b'W'), code(b'W')), 17);
        assert_eq!(m.score(code(b'C'), code(b'C')), 12);
        assert_eq!(m.score(code(b'A'), code(b'A')), 2);
    }

    fn assert_symmetric(m: &SubstMatrix) {
        for a in 0..m.dim() as u8 {
            for b in 0..a {
                assert_eq!(m.score(a, b), m.score(b, a), "{} is not symmetric", m.name);
            }
        }
    }

    #[test]
    fn standard_matrices_are_symmetric() {
        for m in [
            SubstMatrix::blosum62(),
            SubstMatrix::blosum50(),
            SubstMatrix::pam250(),
        ] {
            assert_symmetric(&m);
        }
    }

    #[test]
    fn diagonal_dominates_rows_for_blosum62() {
        // For the 20 standard amino acids, the self-score is the row maximum.
        let m = SubstMatrix::blosum62();
        for a in 0..20u8 {
            let diag = m.score(a, a);
            for b in 0..20u8 {
                if a != b {
                    assert!(
                        m.score(a, b) < diag,
                        "{}-{} >= {}-{}",
                        PROTEIN_RESIDUES[a as usize] as char,
                        PROTEIN_RESIDUES[b as usize] as char,
                        PROTEIN_RESIDUES[a as usize] as char,
                        PROTEIN_RESIDUES[a as usize] as char,
                    );
                }
            }
        }
    }

    #[test]
    fn match_mismatch_matrix() {
        let m = SubstMatrix::match_mismatch(Alphabet::Dna, 1, -1);
        assert_eq!(m.score(0, 0), 1);
        assert_eq!(m.score(0, 1), -1);
        // Unknown (N) never matches, not even itself.
        let n = Alphabet::Dna.unknown_code();
        assert_eq!(m.score(n, n), -1);
        assert_symmetric(&m);
    }

    #[test]
    fn max_score() {
        assert_eq!(SubstMatrix::blosum62().max_score(), 11);
    }

    #[test]
    fn gap_costs_linear() {
        let g = GapModel::Linear { penalty: 2 };
        assert_eq!(g.cost(0), 0);
        assert_eq!(g.cost(3), 6);
    }

    #[test]
    fn gap_costs_affine() {
        let g = GapModel::Affine {
            open: 10,
            extend: 2,
        };
        assert_eq!(g.cost(0), 0);
        assert_eq!(g.cost(1), 12);
        assert_eq!(g.cost(5), 20);
    }

    #[test]
    fn affine_with_zero_open_equals_linear() {
        let a = GapModel::Affine { open: 0, extend: 3 };
        let l = GapModel::Linear { penalty: 3 };
        for len in 0..10 {
            assert_eq!(a.cost(len), l.cost(len));
        }
    }

    #[test]
    fn row_matches_score() {
        let m = SubstMatrix::blosum62();
        for a in 0..24u8 {
            let row = m.row(a);
            for b in 0..24u8 {
                assert_eq!(row[b as usize] as i32, m.score(a, b));
            }
        }
    }

    #[test]
    fn digest_separates_schemes() {
        let a = Scoring::blosum62_affine().digest();
        let b = Scoring {
            matrix: SubstMatrix::blosum50(),
            gap: GapModel::Affine {
                open: 10,
                extend: 2,
            },
        }
        .digest();
        let c = Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine {
                open: 12,
                extend: 2,
            },
        }
        .digest();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Scoring::blosum62_affine().digest());
        assert_eq!(
            Scoring::blosum62_affine().to_string(),
            "BLOSUM62, gap open 10 extend 2"
        );
    }

    #[test]
    #[should_panic(expected = "substitution table")]
    fn from_flat_rejects_wrong_size() {
        SubstMatrix::from_flat("bad", Alphabet::Dna, vec![0; 7]);
    }
}
