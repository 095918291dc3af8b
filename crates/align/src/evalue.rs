//! Karlin–Altschul statistics: bit scores and E-values for local alignment
//! scores.
//!
//! CUDASW++-class tools report raw SW scores; production database search
//! additionally reports how *surprising* a score is. Under the
//! Karlin–Altschul model, the expected number of alignments with score ≥ S
//! between a query of length `m` and a database of `n` total residues is
//!
//! ```text
//! E = K · m' · n' · e^(−λS)
//! ```
//!
//! with edge-corrected lengths `m' = max(1, m − l)`, `n' = max(1, n − N·l)`
//! (`l` the expected alignment length, `N` the sequence count), and the bit
//! score `S' = (λS − ln K) / ln 2` so that `E = m'·n'·2^(−S')`.
//!
//! The `(λ, K)` pairs are the published BLAST parameters for the supported
//! scoring schemes; arbitrary pairs can be supplied with
//! [`KarlinAltschul::custom`].

use crate::scoring::{GapModel, Scoring};

/// Karlin–Altschul parameters for one scoring scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinAltschul {
    /// The scale parameter λ (per score unit).
    pub lambda: f64,
    /// The search-space constant K.
    pub k: f64,
    /// Expected relative entropy H (bits per aligned pair), used for the
    /// edge-effect length correction.
    pub h: f64,
}

impl KarlinAltschul {
    /// Published parameters for the scheme, if known.
    ///
    /// Supported: BLOSUM62 ungapped, BLOSUM62 with affine (11,1), (10,2)
    /// and (10,1) gaps; BLOSUM50 with (10,2) gaps (values from the NCBI
    /// BLAST parameter tables).
    pub fn for_scoring(scoring: &Scoring) -> Option<KarlinAltschul> {
        let name = scoring.matrix.name.as_str();
        match (name, scoring.gap) {
            ("BLOSUM62", GapModel::Linear { .. }) => Some(KarlinAltschul {
                lambda: 0.3176,
                k: 0.134,
                h: 0.40,
            }),
            (
                "BLOSUM62",
                GapModel::Affine {
                    open: 11,
                    extend: 1,
                },
            ) => Some(KarlinAltschul {
                lambda: 0.267,
                k: 0.041,
                h: 0.14,
            }),
            (
                "BLOSUM62",
                GapModel::Affine {
                    open: 10,
                    extend: 1,
                },
            ) => Some(KarlinAltschul {
                lambda: 0.243,
                k: 0.035,
                h: 0.12,
            }),
            (
                "BLOSUM62",
                GapModel::Affine {
                    open: 10,
                    extend: 2,
                },
            ) => Some(KarlinAltschul {
                lambda: 0.293,
                k: 0.075,
                h: 0.27,
            }),
            (
                "BLOSUM50",
                GapModel::Affine {
                    open: 10,
                    extend: 2,
                },
            ) => Some(KarlinAltschul {
                lambda: 0.166,
                k: 0.036,
                h: 0.12,
            }),
            _ => None,
        }
    }

    /// Build from explicit parameters.
    pub fn custom(lambda: f64, k: f64, h: f64) -> KarlinAltschul {
        assert!(
            lambda > 0.0 && k > 0.0 && h > 0.0,
            "parameters must be positive"
        );
        KarlinAltschul { lambda, k, h }
    }

    /// Bit score for a raw score `s`.
    pub fn bit_score(&self, s: i32) -> f64 {
        (self.lambda * s as f64 - self.k.ln()) / std::f64::consts::LN_2
    }

    /// Expected alignment length for a raw score (edge correction):
    /// `l ≈ λS / H` with `H` converted from bits to nats.
    fn expected_length(&self, s: i32) -> f64 {
        self.lambda * s as f64 / (self.h * std::f64::consts::LN_2)
    }

    /// E-value of raw score `s` for a query of `query_len` residues against
    /// a database of `db_residues` residues in `db_sequences` sequences.
    pub fn evalue(&self, s: i32, query_len: usize, db_residues: u64, db_sequences: usize) -> f64 {
        let l = self.expected_length(s);
        let m_eff = (query_len as f64 - l).max(1.0);
        let n_eff = (db_residues as f64 - db_sequences as f64 * l).max(db_sequences.max(1) as f64);
        self.k * m_eff * n_eff * (-self.lambda * s as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::SubstMatrix;

    fn default_params() -> KarlinAltschul {
        KarlinAltschul::for_scoring(&Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine {
                open: 10,
                extend: 2,
            },
        })
        .expect("published parameters exist")
    }

    #[test]
    fn known_schemes_have_parameters() {
        assert!(KarlinAltschul::for_scoring(&Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine {
                open: 11,
                extend: 1
            },
        })
        .is_some());
        assert!(KarlinAltschul::for_scoring(&Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Linear { penalty: 4 },
        })
        .is_some());
        // Unusual penalties have no published values.
        assert!(KarlinAltschul::for_scoring(&Scoring {
            matrix: SubstMatrix::pam250(),
            gap: GapModel::Affine { open: 3, extend: 3 },
        })
        .is_none());
    }

    #[test]
    fn bit_score_is_affine_in_raw_score() {
        let p = default_params();
        let b10 = p.bit_score(10);
        let b20 = p.bit_score(20);
        let b30 = p.bit_score(30);
        assert!((b30 - b20 - (b20 - b10)).abs() < 1e-9);
        assert!(b20 > b10);
    }

    #[test]
    fn evalue_decreases_exponentially_with_score() {
        let p = default_params();
        let e = |s| p.evalue(s, 350, 190_000_000, 500_000);
        assert!(e(40) > e(60));
        assert!(e(60) > e(100));
        // One more unit of score divides E by roughly e^λ.
        let ratio = e(100) / e(101);
        assert!(
            (ratio - p.lambda.exp()).abs() / p.lambda.exp() < 0.05,
            "ratio {ratio}"
        );
    }

    #[test]
    fn evalue_scales_with_search_space() {
        let p = default_params();
        let small = p.evalue(80, 350, 12_000_000, 25_000);
        let big = p.evalue(80, 350, 190_000_000, 500_000);
        assert!(big > small * 5.0, "big {big} vs small {small}");
    }

    #[test]
    fn high_scores_are_significant_in_swissprot_space() {
        // A planted-homolog score (≥ 1,000) must be overwhelming even
        // against all of SwissProt.
        let p = default_params();
        let e = p.evalue(1000, 400, 190_000_000, 537_505);
        assert!(e < 1e-100, "E = {e}");
        // While a random-noise score (~50) is not.
        assert!(p.evalue(50, 400, 190_000_000, 537_505) > 1e-3);
    }

    #[test]
    #[should_panic(expected = "parameters must be positive")]
    fn custom_rejects_nonpositive() {
        KarlinAltschul::custom(0.0, 0.1, 0.1);
    }
}
