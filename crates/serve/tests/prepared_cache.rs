//! Property tests of the prepared-query cache's crucial law: a cache hit
//! must be **byte-identical** to a cold profile build — same hits, same
//! cells, same kernel resolution counters — and a scoring change must miss.
//!
//! The lever that separates the two caches: `top_n` is part of the result
//! cache's key but *not* the prepared cache's. Submitting the same query at
//! a different depth therefore misses the result cache (a real scan runs)
//! while hitting the prepared cache — exactly the path under test.

use proptest::prelude::*;
use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbSnapshot};
use swhybrid_serve::prepared::{PreparedCache, PreparedKey};
use swhybrid_serve::service::{scoring_digest, QueryService, ServiceConfig};
use swhybrid_simd::engine::{EnginePreference, PreparedQuery};

/// The database as every driver holds it.
fn snap(db: &[EncodedSequence]) -> DbSnapshot {
    DbSnapshot::from_encoded("", db)
}

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
    prop::collection::vec(codes(60), 2..max_seqs).prop_map(|seqs| {
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

/// Kernel resolution counters from the `stats` verb, as comparable pairs.
fn kernel_counters(svc: &QueryService) -> Vec<(String, u64)> {
    let stats = svc.stats();
    let kernels = stats.get("kernels").unwrap();
    [
        "striped_i8",
        "striped_i16",
        "striped_scalar",
        "interseq_i8",
        "interseq_i16",
        "interseq_scalar",
        "chunks_striped",
        "chunks_interseq",
        "cells_computed",
    ]
    .iter()
    .map(|k| (k.to_string(), kernels.get(k).unwrap().as_u64().unwrap()))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same query at a new depth: result cache misses (a full scan runs),
    /// prepared cache hits — and everything observable (hits, cells, the
    /// per-kernel resolution counters) equals a service that rebuilt the
    /// profile cold because its prepared cache is disabled.
    #[test]
    fn prepared_cache_hit_is_byte_identical_to_cold_build(
        db in database(16),
        query in codes(40),
        depth_a in 1usize..6,
        extra in 1usize..6,
    ) {
        let depth_b = depth_a + extra; // different depth ⇒ result-cache miss
        let cached = QueryService::with_snapshot(snap(&db), scoring(), ServiceConfig { workers: 1, ..Default::default() });
        let cold = QueryService::with_snapshot(snap(&db), scoring(), ServiceConfig { workers: 1, prepared_capacity: 0, ..Default::default() });

        let first_cached = cached.search_blocking(query.clone(), depth_a, 1).unwrap();
        let first_cold = cold.search_blocking(query.clone(), depth_a, 1).unwrap();
        let second_cached = cached.search_blocking(query.clone(), depth_b, 1).unwrap();
        let second_cold = cold.search_blocking(query.clone(), depth_b, 1).unwrap();

        // The second submission really exercised the scan path on both
        // services (not the result cache)…
        prop_assert!(!second_cached.cached);
        prop_assert!(!second_cold.cached);
        // …and really exercised the prepared cache on one of them.
        let pc = cached.stats().get("prepared_cache").unwrap().clone();
        prop_assert_eq!(pc.get("hits").unwrap().as_u64(), Some(1));
        prop_assert_eq!(pc.get("misses").unwrap().as_u64(), Some(1));
        let pc_cold = cold.stats().get("prepared_cache").unwrap().clone();
        prop_assert_eq!(pc_cold.get("hits").unwrap().as_u64(), Some(0));

        // Byte-identity: hits, cells, and the kernel counters across the
        // whole two-submission history agree exactly.
        prop_assert_eq!(&first_cached.hits, &first_cold.hits);
        prop_assert_eq!(&second_cached.hits, &second_cold.hits);
        prop_assert_eq!(first_cached.cells, first_cold.cells);
        prop_assert_eq!(second_cached.cells, second_cold.cells);
        prop_assert_eq!(kernel_counters(&cached), kernel_counters(&cold));

        cached.shutdown();
        cold.shutdown();
    }

    /// Changing the scoring scheme changes the digest, and a digest change
    /// is a different key: the old profile must not be served.
    #[test]
    fn scoring_change_misses_the_prepared_cache(
        query in codes(40),
        open_a in 1i32..=14,
        open_b in 1i32..=14,
        extend in 1i32..=4,
    ) {
        let open_b = if open_a == open_b { (open_b % 14) + 1 } else { open_b };
        let open_b = if open_a == open_b { (open_a % 14) + 1 } else { open_b };
        let scheme = |open| Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine { open, extend },
        };
        let digest_a = scoring_digest(&scheme(open_a));
        let digest_b = scoring_digest(&scheme(open_b));
        prop_assert!(digest_a != digest_b);

        let mut cache = PreparedCache::new(8);
        let key = |digest| PreparedKey {
            query_digest: 1,
            scoring_digest: digest,
            preference: EnginePreference::Auto,
        };
        let profile = std::sync::Arc::new(PreparedQuery::new(
            &query,
            &scheme(open_a),
            EnginePreference::Auto,
        ));
        cache.insert(key(digest_a), &query, profile);
        prop_assert!(cache.get(&key(digest_a), &query).is_some());
        prop_assert!(cache.get(&key(digest_b), &query).is_none());
    }
}
