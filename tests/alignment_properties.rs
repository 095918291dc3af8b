//! Property-based invariants across the alignment kernels.

use proptest::prelude::*;
use swhybrid::align::gotoh::{gotoh_align, gotoh_score};
use swhybrid::align::score_only::{sw_score_affine, sw_score_linear};
use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::align::sw::{sw_align, sw_score};

fn protein_codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 0..max_len)
}

fn linear_scoring() -> impl Strategy<Value = Scoring> {
    (1i32..=6).prop_map(|g| Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Linear { penalty: g },
    })
}

fn affine_scoring() -> impl Strategy<Value = Scoring> {
    (0i32..=12, 1i32..=4).prop_map(|(open, extend)| Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine { open, extend },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn traceback_rescores_to_reported_score_linear(
        s in protein_codes(60),
        t in protein_codes(60),
        scoring in linear_scoring(),
    ) {
        let a = sw_align(&s, &t, &scoring);
        prop_assert_eq!(a.rescore(&s, &t, &scoring), a.score);
    }

    #[test]
    fn traceback_rescores_to_reported_score_affine(
        s in protein_codes(60),
        t in protein_codes(60),
        scoring in affine_scoring(),
    ) {
        let a = gotoh_align(&s, &t, &scoring);
        prop_assert_eq!(a.rescore(&s, &t, &scoring), a.score);
    }

    #[test]
    fn linear_row_kernel_equals_full_matrix(
        s in protein_codes(60),
        t in protein_codes(60),
        scoring in linear_scoring(),
    ) {
        prop_assert_eq!(
            sw_score_linear(&s, &t, &scoring).score,
            sw_score(&s, &t, &scoring)
        );
    }

    #[test]
    fn affine_row_kernel_equals_gotoh(
        s in protein_codes(60),
        t in protein_codes(60),
        scoring in affine_scoring(),
    ) {
        prop_assert_eq!(
            sw_score_affine(&s, &t, &scoring).score,
            gotoh_score(&s, &t, &scoring)
        );
    }

    #[test]
    fn affine_open_penalty_is_monotone(
        s in protein_codes(40),
        t in protein_codes(40),
        extend in 1i32..=3,
    ) {
        // Raising the gap-open penalty can never raise the score.
        let mut prev = i32::MAX;
        for open in [0, 2, 6, 12] {
            let scoring = Scoring {
                matrix: SubstMatrix::blosum62(),
                gap: GapModel::Affine { open, extend },
            };
            let score = gotoh_score(&s, &t, &scoring);
            prop_assert!(score <= prev);
            prev = score;
        }
    }

    #[test]
    fn alignment_ranges_consume_consistently(
        s in protein_codes(50),
        t in protein_codes(50),
        scoring in affine_scoring(),
    ) {
        let a = gotoh_align(&s, &t, &scoring);
        prop_assert_eq!(a.s_consumed(), a.s_range.1 - a.s_range.0);
        prop_assert_eq!(a.t_consumed(), a.t_range.1 - a.t_range.0);
        prop_assert!(a.s_range.1 <= s.len());
        prop_assert!(a.t_range.1 <= t.len());
    }
}
