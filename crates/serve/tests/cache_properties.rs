//! Property tests of the result cache's one crucial law: a cache hit is
//! **byte-identical** to the cold path, and anything that could change the
//! ranking (here: the database, via its generation) invalidates it.

use proptest::prelude::*;
use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_core::pool::{PeExecutor, QueryPayload, TaskPayload};
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbSnapshot};
use swhybrid_serve::protocol::hits_to_json;
use swhybrid_serve::service::{QueryService, ServiceConfig};
use swhybrid_simd::search::Hit;

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
    prop::collection::vec(codes(60), 1..max_seqs).prop_map(|seqs| {
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

/// The one-shot scan of the whole database (`search --threads 1`).
fn cold_hits(query: &[u8], db: &[EncodedSequence], top_n: usize) -> Vec<Hit> {
    let payload = TaskPayload {
        queries: vec![QueryPayload {
            query: query.to_vec(),
            top_n,
        }],
        shard: (0, db.len()),
    };
    let mut result = PeExecutor::new(&scoring())
        .scan(&snap(db), &payload)
        .unwrap();
    result.queries.remove(0).hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cache_hit_is_byte_identical_and_generation_bump_invalidates(
        db_a in database(16),
        db_b in database(16),
        query in codes(40),
        top_n in 1usize..12,
    ) {
        let svc = QueryService::with_snapshot(snap(&db_a), scoring(), ServiceConfig { workers: 2, ..Default::default() });

        // Cold: the service's sharded scan equals a single-shot search.
        let cold = svc.search_blocking(query.clone(), top_n, 1).unwrap();
        prop_assert!(!cold.cached);
        prop_assert_eq!(&cold.hits, &cold_hits(&query, &db_a, top_n));

        // Warm: served from cache, zero kernel cells, byte-identical wire
        // payload.
        let warm = svc.search_blocking(query.clone(), top_n, 1).unwrap();
        prop_assert!(warm.cached);
        prop_assert_eq!(warm.cells, 0);
        prop_assert_eq!(
            hits_to_json(&warm.hits).to_string().into_bytes(),
            hits_to_json(&cold.hits).to_string().into_bytes()
        );

        // Swap the database: the generation bump must force a rescan that
        // matches the new database's cold scan.
        svc.swap_snapshot(snap(&db_b));
        let after = svc.search_blocking(query.clone(), top_n, 1).unwrap();
        prop_assert!(!after.cached, "stale cache entry survived a db swap");
        prop_assert_eq!(&after.hits, &cold_hits(&query, &db_b, top_n));

        // And the new generation caches independently.
        let after_warm = svc.search_blocking(query, top_n, 1).unwrap();
        prop_assert!(after_warm.cached);
        prop_assert_eq!(&after_warm.hits, &after.hits);

        svc.shutdown();
    }
}
