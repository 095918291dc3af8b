//! Property-based cross-validation: the striped SIMD engine (all widths,
//! all implementation families) must agree with the scalar Gotoh oracle on
//! arbitrary sequences, scoring schemes, and gap parameters.

use proptest::prelude::*;
use std::sync::Arc;
use swhybrid::align::score_only::sw_score_affine;
use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::simd::engine::{EnginePreference, StripedEngine};
use swhybrid::simd::{Isa, KernelScratch, PreparedQuery};

fn protein_codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 1..max_len)
}

fn scoring_strategy() -> impl Strategy<Value = Scoring> {
    (1i32..=14, 1i32..=4, prop::bool::ANY).prop_map(|(open, extend, blosum50)| Scoring {
        matrix: if blosum50 {
            SubstMatrix::blosum50()
        } else {
            SubstMatrix::blosum62()
        },
        gap: GapModel::Affine { open, extend },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn striped_engine_matches_scalar_oracle(
        query in protein_codes(120),
        subject in protein_codes(160),
        scoring in scoring_strategy(),
    ) {
        let expect = sw_score_affine(&query, &subject, &scoring).score;
        let mut engine = StripedEngine::new(&query, &scoring, EnginePreference::Auto);
        prop_assert_eq!(engine.score(&subject, &mut KernelScratch::new()), expect);
        // Every tier this CPU has, not just the one Auto resolves to.
        for isa in Isa::available() {
            let prepared = Arc::new(PreparedQuery::with_isa(&query, &scoring, isa));
            let mut engine = StripedEngine::with_prepared(prepared);
            let mut scratch = KernelScratch::new();
            prop_assert_eq!(engine.score(&subject, &mut scratch), expect, "tier {:?}", isa);
        }
    }

    #[test]
    fn score_is_symmetric(
        a in protein_codes(80),
        b in protein_codes(80),
        scoring in scoring_strategy(),
    ) {
        // Standard matrices are symmetric, so swapping the pair must not
        // change the optimal local score.
        let mut ab = StripedEngine::new(&a, &scoring, EnginePreference::Auto);
        let mut ba = StripedEngine::new(&b, &scoring, EnginePreference::Auto);
        let mut scratch = KernelScratch::new();
        prop_assert_eq!(ab.score(&b, &mut scratch), ba.score(&a, &mut scratch));
    }

    #[test]
    fn score_nonnegative_and_bounded(
        query in protein_codes(100),
        subject in protein_codes(100),
        scoring in scoring_strategy(),
    ) {
        let mut engine = StripedEngine::new(&query, &scoring, EnginePreference::Auto);
        let mut scratch = KernelScratch::new();
        let score = engine.score(&subject, &mut scratch);
        prop_assert!(score >= 0);
        // Upper bound: best diagonal score × shorter length.
        let bound = scoring.matrix.max_score() * query.len().min(subject.len()) as i32;
        prop_assert!(score <= bound, "score {} > bound {}", score, bound);
    }

    #[test]
    fn appending_residues_never_decreases_score(
        query in protein_codes(60),
        subject in protein_codes(60),
        extra in protein_codes(20),
        scoring in scoring_strategy(),
    ) {
        // A local alignment of (q, t) is still available in (q, t ++ extra).
        let mut engine = StripedEngine::new(&query, &scoring, EnginePreference::Auto);
        let mut scratch = KernelScratch::new();
        let base = engine.score(&subject, &mut scratch);
        let mut longer = subject.clone();
        longer.extend_from_slice(&extra);
        prop_assert!(engine.score(&longer, &mut scratch) >= base);
    }

    #[test]
    fn self_alignment_score_is_diagonal_sum(
        query in protein_codes(90),
        scoring in scoring_strategy(),
    ) {
        // All standard matrices have a strictly dominant diagonal on the 20
        // amino-acid codes, so the best local alignment of q with itself is
        // the full ungapped diagonal.
        let expect: i32 = query.iter().map(|&c| scoring.matrix.score(c, c)).sum();
        let mut engine = StripedEngine::new(&query, &scoring, EnginePreference::Auto);
        let mut scratch = KernelScratch::new();
        prop_assert_eq!(engine.score(&query, &mut scratch), expect);
    }
}
