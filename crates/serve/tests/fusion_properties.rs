//! Property tests of the fused-scan law the serve path relies on: scoring
//! a batch of queries in one shared database pass is **permutation
//! invariant** — each query's output (ranking, cell count, kernel usage)
//! depends only on the query and the database, never on who else rides in
//! the batch or in which order. This is what lets the dispatcher fuse and
//! regroup concurrent queries freely while staying byte-identical to
//! per-query cold scans.

use std::sync::Arc;

use proptest::prelude::*;
use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbArena};
use swhybrid_simd::engine::{EnginePreference, PreparedQuery};
use swhybrid_simd::{KernelChoice, ShardExecutor, ShardPlan};

fn scoring() -> Scoring {
    Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    }
}

/// Alphabet codes 0..20 (the canonical protein residues).
fn codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 1..max_len)
}

fn database(max_seqs: usize) -> impl Strategy<Value = Vec<EncodedSequence>> {
    prop::collection::vec(codes(50), 1..max_seqs).prop_map(|seqs| {
        seqs.into_iter()
            .enumerate()
            .map(|(i, codes)| EncodedSequence {
                id: format!("s{i}"),
                codes,
                alphabet: Alphabet::Protein,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fused_scoring_is_permutation_invariant_in_the_query_batch(
        db in database(20),
        queries in prop::collection::vec((codes(40), 1usize..10), 2..5),
        rotation in 0usize..4,
        reversed in prop::bool::ANY,
    ) {
        let s = scoring();
        let arena = DbArena::from_encoded(&db);
        let plan = ShardPlan {
            range: 0..arena.len(),
            chunk_size: 5,
            kernel: KernelChoice::Auto,
            prefetch: true,
        };
        let batch: Vec<(Arc<PreparedQuery>, usize)> = queries
            .iter()
            .map(|(q, top_n)| {
                (Arc::new(PreparedQuery::new(q, &s, EnginePreference::Auto)), *top_n)
            })
            .collect();

        // Rotation + optional reversal reaches every cyclic/dihedral
        // rearrangement of the batch — enough to falsify any positional
        // dependence.
        let mut permuted = batch.clone();
        permuted.rotate_left(rotation % batch.len());
        if reversed {
            permuted.reverse();
        }
        let mut index: Vec<usize> = (0..batch.len()).collect();
        index.rotate_left(rotation % batch.len());
        if reversed {
            index.reverse();
        }

        // The serve PE's entry point: one executor, one shard, one batch.
        let base = ShardExecutor::new().execute(&batch, &arena, &plan);
        let perm = ShardExecutor::new().execute(&permuted, &arena, &plan);
        prop_assert_eq!(base.len(), batch.len());
        for (slot, &orig) in index.iter().enumerate() {
            prop_assert_eq!(
                &perm[slot], &base[orig],
                "query {} ranked or counted differently at batch slot {}", orig, slot
            );
        }

        // And each batch slot equals the query's solo scan outright.
        for (k, entry) in batch.iter().enumerate() {
            let solo = ShardExecutor::new().execute(std::slice::from_ref(entry), &arena, &plan);
            prop_assert_eq!(&base[k], &solo[0]);
        }
    }
}
