//! Cross-kernel equivalence: every kernel tier the CPU has (`Isa::available`:
//! AVX2, SSE4.1, portable) at every lane width (i8 and i16) must agree with
//! the scalar Gotoh oracle, and a database scan must return bit-identical
//! rankings under every `KernelChoice`, chunk size, and scan order.

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use swhybrid::align::score_only::sw_score_affine;
use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::exec::pool::{PeExecutor, QueryPayload, TaskPayload};
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::{Alphabet, DbArena, DbSnapshot};
use swhybrid::simd::engine::{EnginePreference, KernelStats, PreparedQuery, StripedEngine};
use swhybrid::simd::{
    chunk_floor, interseq, materialize_hits, Hit, Isa, KernelChoice, KernelScratch, ShardExecutor,
    ShardPlan,
};

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

/// Pairs on which the striped kernels' lazy-F loop carries far: a 2-, 3-,
/// 4- or 20-letter alphabet, a subject that is the query with one run cut
/// out and one run spliced in (gaps across several stripes), and gaps cheap
/// enough to take — `open` 0..=7, including the linear model, where
/// `goe == ext`.
fn lazy_f_case() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Scoring)> {
    (
        prop::sample::select(vec![2u8, 3, 4, 20]),
        prop::collection::vec(0u8..20, 8..160),
        prop::collection::vec(0u8..20, 0..40),
        (0usize..1000, 0usize..40, 0usize..1000),
        (0i32..=7, 1i32..=3, prop::bool::ANY, prop::bool::ANY),
    )
        .prop_map(|(letters, query, insert, (cut_at, cut, ins_at), gaps)| {
            let (open, extend, linear, blosum) = gaps;
            let query: Vec<u8> = query.iter().map(|r| r % letters).collect();
            let cut = cut.min(query.len() - 1);
            let cut_at = cut_at % (query.len() - cut + 1);
            let mut subject = [&query[..cut_at], &query[cut_at + cut..]].concat();
            let ins_at = ins_at % (subject.len() + 1);
            subject.splice(ins_at..ins_at, insert.iter().map(|r| r % letters));
            let scoring = Scoring {
                matrix: if blosum {
                    SubstMatrix::blosum62()
                } else {
                    SubstMatrix::match_mismatch(Alphabet::Protein, 5, -4)
                },
                gap: if linear {
                    GapModel::Linear { penalty: extend }
                } else {
                    GapModel::Affine { open, extend }
                },
            };
            (query, subject, scoring)
        })
}

/// The one compute call over the whole database, as `search --threads 1`
/// runs it: ranked top-`top_n` hits and the query's kernel counters.
fn pe_scan(
    query: &[u8],
    db: &DbSnapshot,
    scoring: &Scoring,
    top_n: usize,
) -> (Vec<Hit>, KernelStats) {
    let payload = TaskPayload {
        queries: vec![QueryPayload {
            query: query.to_vec(),
            top_n,
        }],
        shard: (0, db.len()),
    };
    let mut result = PeExecutor::new(scoring)
        .scan(db, &payload)
        .expect("shard in range");
    let q = result.queries.remove(0);
    (q.hits, q.kernels)
}

fn encode_db(subjects: &[Vec<u8>]) -> Vec<EncodedSequence> {
    subjects
        .iter()
        .enumerate()
        .map(|(i, codes)| EncodedSequence {
            id: format!("s{i}"),
            codes: codes.clone(),
            alphabet: Alphabet::Protein,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full fallback chain (i8 → i16 → scalar) returns the oracle
    /// score for every subject, whichever SIMD family backs the passes.
    #[test]
    fn scores_arena_matches_scalar_oracle(
        query in protein_codes(100),
        subjects in prop::collection::vec(protein_codes(120), 1..40),
        scoring in scoring_strategy(),
    ) {
        let db = encode_db(&subjects);
        let arena = DbArena::from_encoded(&db);
        let expect: Vec<i32> = subjects
            .iter()
            .map(|s| sw_score_affine(&query, s, &scoring).score)
            .collect();
        for isa in Isa::available() {
            let prepared = PreparedQuery::with_isa(&query, &scoring, isa);
            let mut stats = KernelStats::default();
            let got = interseq::scores_arena(&prepared, &arena, 0..arena.len(), &mut stats);
            prop_assert_eq!(&got, &expect, "{:?}", isa);
            prop_assert_eq!(stats.interseq_total(), subjects.len() as u64);
        }
    }

    /// Each tier × lane width individually agrees with the oracle on every
    /// job it resolves (None = saturated, checked by the chain law), and the
    /// striped chain of every tier returns the oracle score outright — also
    /// with gap penalties at and beyond what an i8 or i16 lane can hold,
    /// which every kernel must clamp, never wrap.
    #[test]
    fn every_lane_width_matches_oracle(
        query in protein_codes(90),
        mut subjects in prop::collection::vec(protein_codes(110), 1..40),
        scoring in scoring_strategy(),
    ) {
        // A self-match: saturates i8 once the query is long enough, so the
        // 16-bit kernels see work under every gap penalty below.
        subjects.push(query.clone());
        let db = encode_db(&subjects);
        let arena = DbArena::from_encoded(&db);
        let jobs: Vec<usize> = (0..arena.len()).collect();
        let GapModel::Affine { open, extend } = scoring.gap else {
            unreachable!("scoring_strategy is affine")
        };
        for open in [open, 10, 127, 128, 40_000] {
            let scoring = Scoring {
                matrix: scoring.matrix.clone(),
                gap: GapModel::Affine { open, extend },
            };
            let expect: Vec<i32> = subjects
                .iter()
                .map(|s| sw_score_affine(&query, s, &scoring).score)
                .collect();
            for isa in Isa::available() {
                let prepared = Arc::new(PreparedQuery::with_isa(&query, &scoring, isa));
                let passes = [
                    ("i8", interseq::pass_results::<i8>(&[&*prepared], &arena, &jobs)),
                    ("i16", interseq::pass_results::<i16>(&[&*prepared], &arena, &jobs)),
                ];
                for (width, pass) in passes {
                    let results = &pass.expect("a batch of one always shares a pass")[0];
                    prop_assert_eq!(results.len(), subjects.len());
                    for (r, &expect) in results.iter().zip(&expect) {
                        if let Some(score) = *r {
                            prop_assert_eq!(
                                score, expect,
                                "{:?} {} lane, gap open {}", isa, width, open
                            );
                        }
                    }
                }
                let mut engine = StripedEngine::with_prepared(Arc::clone(&prepared));
                let mut scratch = KernelScratch::new();
                for (s, &expect) in subjects.iter().zip(&expect) {
                    prop_assert_eq!(
                        engine.score(s, &mut scratch), expect,
                        "{:?} striped chain, gap open {}", isa, open
                    );
                }
            }
        }
    }

    /// Where lazy-F fires — low-complexity alphabets, gapped copies, cheap
    /// and linear gaps — the striped chain of every tier still returns the
    /// oracle score, both ways round. (Each width and the vector-vs-portable
    /// law on these inputs: `simd::striped`'s unit tests.)
    #[test]
    fn striped_chain_matches_oracle_where_lazy_f_fires(case in lazy_f_case()) {
        let (query, subject, scoring) = case;
        for (q, t) in [(&query, &subject), (&subject, &query)] {
            let expect = sw_score_affine(q, t, &scoring).score;
            for isa in Isa::available() {
                let prepared = Arc::new(PreparedQuery::with_isa(q, &scoring, isa));
                let mut engine = StripedEngine::with_prepared(prepared);
                prop_assert_eq!(
                    engine.score(t, &mut KernelScratch::new()), expect,
                    "{:?} striped chain, {:?}", isa, scoring.gap
                );
            }
        }
    }

    /// A database scan returns bit-identical hits under every kernel
    /// choice × chunk size × scan order × tier × prefetch setting.
    #[test]
    fn database_search_identical_across_kernel_choices(
        query in protein_codes(80),
        subjects in prop::collection::vec(protein_codes(150), 1..60),
        scoring in scoring_strategy(),
        chunk_size in 1usize..40,
    ) {
        let db = encode_db(&subjects);
        let baseline = pe_scan(&query, &DbSnapshot::from_encoded("", &db), &scoring, db.len()).0;
        // Scan order is the arena's: database order or ascending length.
        let orders = [
            ("db", DbArena::from_encoded(&db)),
            ("sorted", DbArena::length_sorted(&db)),
        ];
        for isa in Isa::available() {
            let prepared = Arc::new(PreparedQuery::with_isa(&query, &scoring, isa));
            for kernel in [KernelChoice::Striped, KernelChoice::InterSeq, KernelChoice::Auto] {
                for (order, arena) in &orders {
                    for prefetch in [false, true] {
                        let plan = ShardPlan {
                            range: 0..arena.len(),
                            chunk_size,
                            kernel,
                            prefetch,
                        };
                        let batch = [(Arc::clone(&prepared), db.len())];
                        let (scored, _) = ShardExecutor::new().execute(&batch, arena, &plan).remove(0);
                        let hits = materialize_hits(&scored, |i| db[i].id.clone());
                        prop_assert_eq!(
                            &hits, &baseline,
                            "kernel {:?} {:?} order {} chunk {} prefetch {}",
                            kernel, isa, order, chunk_size, prefetch
                        );
                    }
                }
            }
        }
    }
}

/// (open, extend) pairs around `−MIN` of each lane width (i8 first, then
/// i16): `open + extend` at or past the lane ceiling, where the vector
/// kernels cut `extend` to `−MIN − goe` and start `E`/`F` at `−MAX`, so
/// that their wrapping gap subtractions stay in range.
const GAP_EDGES: [(i32, i32); 10] = [
    (0, 127),
    (1, 127),
    (63, 64),
    (64, 64),
    (120, 10),
    (126, 1),
    (127, 1),
    (0, 32_767),
    (16_384, 16_384),
    (32_000, 1_000),
];

/// At every gap edge, on low-complexity inputs where gaps pay in the
/// 16-bit lanes, every tier agrees with the portable tier and the oracle:
/// the i8 and i16 inter-sequence passes at K = 1 and K = 8, result for
/// result (`None` exactly where the oracle reaches the lane ceiling), and
/// the striped chain's scores and i8/i16/scalar counts.
#[test]
fn gap_edges_agree_with_portable_and_oracle_on_every_tier() {
    let mut rng = ChaCha8Rng::seed_from_u64(4101);
    for (round, (open, extend)) in GAP_EDGES.into_iter().enumerate() {
        let letters = [2u8, 3, 4][round % 3];
        let scoring = Scoring {
            matrix: SubstMatrix::match_mismatch(Alphabet::Protein, 5, -4),
            gap: GapModel::Affine { open, extend },
        };
        let mut codes =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.random_range(0..letters)).collect() };
        let queries: Vec<Vec<u8>> = [2usize, 9, 17, 30, 40, 64, 90, 128]
            .iter()
            .map(|&m| codes(m))
            .collect();
        // Each query whole and with a run cut out, plus random subjects.
        let mut subjects: Vec<Vec<u8>> = queries
            .iter()
            .flat_map(|q| {
                let (at, run) = (q.len() / 3, q.len() / 5);
                [[&q[..at], &q[at + run..]].concat(), q.clone()]
            })
            .collect();
        subjects.extend((0..6).map(|k| codes(25 * k + 1)));
        let db = encode_db(&subjects);
        let arena = DbArena::from_encoded(&db);
        let jobs: Vec<usize> = (0..arena.len()).collect();
        let passes = |batch: &[&PreparedQuery]| {
            [
                interseq::pass_results::<i8>(batch, &arena, &jobs).expect("one scoring"),
                interseq::pass_results::<i16>(batch, &arena, &jobs).expect("one scoring"),
            ]
        };
        let chain = |prepared: PreparedQuery| {
            let mut engine = StripedEngine::with_prepared(Arc::new(prepared));
            let mut scratch = KernelScratch::new();
            let scores: Vec<i32> = subjects
                .iter()
                .map(|t| engine.score(t, &mut scratch))
                .collect();
            (scores, engine.stats())
        };

        // Per query, its i8 and i16 results on the portable tier.
        let mut oracle = Vec::new();
        for (q, query) in queries.iter().enumerate() {
            let expect: Vec<i32> = subjects
                .iter()
                .map(|t| sw_score_affine(query, t, &scoring).score)
                .collect();
            let portable = PreparedQuery::with_isa(query, &scoring, Isa::Portable);
            let [mut p8, mut p16] = passes(&[&portable]);
            let (p8, p16) = (p8.remove(0), p16.remove(0));
            for (results, ceiling) in [(&p8, i8::MAX as i32), (&p16, i16::MAX as i32)] {
                let want: Vec<Option<i32>> =
                    expect.iter().map(|&e| (e < ceiling).then_some(e)).collect();
                assert_eq!(results, &want, "portable, gaps {open}/{extend} query {q}");
            }
            let (scores, portable_stats) = chain(portable);
            assert_eq!(
                scores, expect,
                "portable chain, gaps {open}/{extend} query {q}"
            );

            for isa in Isa::available() {
                let case = format!("{isa:?} gaps {open}/{extend} query {q}");
                let solo = PreparedQuery::with_isa(query, &scoring, isa);
                let [s8, s16] = passes(&[&solo]);
                assert_eq!((&s8[0], &s16[0]), (&p8, &p16), "K = 1, {case}");
                let (scores, stats) = chain(solo);
                assert_eq!(scores, expect, "striped chain, {case}");
                assert_eq!(stats, portable_stats, "striped counts, {case}");
            }
            oracle.push((p8, p16));
        }
        for isa in Isa::available() {
            let tier: Vec<PreparedQuery> = queries
                .iter()
                .map(|q| PreparedQuery::with_isa(q, &scoring, isa))
                .collect();
            let batch: Vec<&PreparedQuery> = tier.iter().collect();
            let [f8, f16] = passes(&batch);
            for (q, (p8, p16)) in oracle.iter().enumerate() {
                let case = format!("{isa:?} K = 8, gaps {open}/{extend} query {q}");
                assert_eq!((&f8[q], &f16[q]), (p8, p16), "{case}");
            }
        }
    }
}

/// Exact i8 boundary: with match = +1 a 127-residue self-match scores
/// exactly `i8::MAX`. The i8 pass cannot distinguish that from overflow,
/// so it must report saturation and the i16 retry must return exactly 127.
#[test]
fn i8_exact_boundary_saturates_and_retries_exactly() {
    let scoring = Scoring {
        matrix: SubstMatrix::match_mismatch(Alphabet::Protein, 1, -4),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };
    let query: Vec<u8> = vec![3u8; 127];
    // The match run ends mid-sequence: a mismatching tail after it.
    let mut subject = query.clone();
    subject.extend(vec![7u8; 40]);
    let expect = sw_score_affine(&query, &subject, &scoring).score;
    assert_eq!(expect, 127, "constructed to land exactly on i8::MAX");

    let db = encode_db(&[subject]);
    let arena = DbArena::from_encoded(&db);
    for isa in Isa::available() {
        let prepared = PreparedQuery::with_isa(&query, &scoring, isa);
        let mut stats = KernelStats::default();
        let got = interseq::scores_arena(&prepared, &arena, 0..1, &mut stats);
        assert_eq!(got, vec![127], "{isa:?}");
        assert_eq!(
            stats.interseq_i8, 0,
            "a best of exactly i8::MAX must not resolve in the i8 pass"
        );
        assert_eq!(stats.interseq_i16 + stats.interseq_scalar, 1);
    }
}

/// Exact i16 boundary: 32767 = 7 × 31 × 151, so a 4681-residue self-match
/// with match = +7 scores exactly `i16::MAX` and must fall through both
/// vector passes to the exact scalar kernel.
#[test]
fn i16_exact_boundary_falls_through_to_scalar() {
    let scoring = Scoring {
        matrix: SubstMatrix::match_mismatch(Alphabet::Protein, 7, -4),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };
    let query: Vec<u8> = vec![5u8; 4681];
    let mut subject = query.clone();
    subject.extend(vec![2u8; 60]);
    let expect = sw_score_affine(&query, &subject, &scoring).score;
    assert_eq!(expect, 32767, "constructed to land exactly on i16::MAX");

    let db = encode_db(&[subject]);
    let arena = DbArena::from_encoded(&db);
    for isa in Isa::available() {
        let prepared = PreparedQuery::with_isa(&query, &scoring, isa);
        let mut stats = KernelStats::default();
        let got = interseq::scores_arena(&prepared, &arena, 0..1, &mut stats);
        assert_eq!(got, vec![32767], "{isa:?}");
        assert_eq!(stats.interseq_i8, 0);
        assert_eq!(stats.interseq_i16, 0);
        assert_eq!(stats.interseq_scalar, 1);
    }
}

/// Saturating subjects are charged for every extra pass, identically
/// across kernel choices: actual cells exceed nominal cells, and the
/// search results still match the striped baseline exactly.
#[test]
fn saturation_accounting_identical_across_kernels() {
    let scoring = Scoring {
        matrix: SubstMatrix::match_mismatch(Alphabet::Protein, 5, -4),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };
    let query: Vec<u8> = vec![1u8; 200]; // self-match 1000 > i8::MAX
    let mut subjects: Vec<Vec<u8>> = (0..40).map(|i| vec![(i % 20) as u8; 30]).collect();
    subjects.push(query.clone());
    let db = encode_db(&subjects);

    let nominal = (query.len() * subjects.iter().map(Vec::len).sum::<usize>()) as u64;
    let arena = DbArena::from_encoded(&db);
    let prepared = Arc::new(PreparedQuery::new(&query, &scoring, EnginePreference::Auto));
    let mut cells = Vec::new();
    let mut hits = Vec::new();
    for kernel in [
        KernelChoice::Striped,
        KernelChoice::InterSeq,
        KernelChoice::Auto,
    ] {
        let plan = ShardPlan {
            range: 0..db.len(),
            chunk_size: chunk_floor(),
            kernel,
            prefetch: true,
        };
        let batch = [(Arc::clone(&prepared), db.len())];
        let (scored, stats) = ShardExecutor::new()
            .execute(&batch, &arena, &plan)
            .remove(0);
        assert!(
            stats.cells_computed > nominal,
            "saturation retries must be charged ({kernel:?})"
        );
        cells.push(stats.cells_computed);
        hits.push(scored);
    }
    // Saturation is a property of the subject, not of the kernel: the
    // actual-cells accounting agrees across all three dispatch modes.
    assert_eq!(cells[0], cells[1]);
    assert_eq!(cells[0], cells[2]);
    assert_eq!(hits[0], hits[1]);
    assert_eq!(hits[0], hits[2]);
}

/// Long queries take the inter-sequence kernel under `Auto` and stay
/// exact: a 2,000- and a 3,100-residue query over a length-ordered arena
/// of two `chunk_floor()` chunks, on every tier. Every subject's score
/// equals the scalar oracle's, and the ranked list equals
/// `KernelChoice::Striped`'s. Planted homologs of the 2,000-residue query
/// saturate i8, so its i16 pass reruns them; the all-W query against itself
/// (BLOSUM62 W/W = 11, 3,100 × 11 > `i16::MAX`) saturates i16 as well, so
/// the scalar kernel scores that one.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "≈ 60 s unoptimized; run with `cargo test --release --test kernel_equivalence`"
)]
fn long_queries_go_inter_sequence_and_match_oracle_and_striped() {
    const W: u8 = 17;
    let scoring = Scoring::blosum62_affine();
    let mut rng = ChaCha8Rng::seed_from_u64(3100);
    let mut codes = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.random_range(0..20)).collect() };
    let homologous = codes(2000);
    let all_w = vec![W; 3100];
    // Two chunks of the floor: a short random background, then a longer
    // one with four windows of the 2,000-residue query (one residue in ten
    // replaced) and the all-W query itself, which keep the second chunk
    // inside the skew bound on every tier.
    let mut subjects: Vec<Vec<u8>> = (0..2 * chunk_floor() - 5)
        .map(|i| {
            if i < chunk_floor() {
                codes(10 + (i * 7) % 30)
            } else {
                codes(120 + (i * 37) % 80)
            }
        })
        .collect();
    for k in 0..4 {
        let mut window = homologous[300 * k..300 * k + 600 + 50 * k].to_vec();
        for (i, r) in window.iter_mut().enumerate() {
            if i % 10 == 3 {
                *r = (*r + 7) % 20;
            }
        }
        subjects.push(window);
    }
    subjects.push(all_w.clone());
    let db = encode_db(&subjects);
    let arena = DbArena::length_sorted(&db);
    let scan = |prepared: &Arc<PreparedQuery>, kernel: KernelChoice| {
        let plan = ShardPlan {
            range: 0..arena.len(),
            chunk_size: chunk_floor(),
            kernel,
            prefetch: true,
        };
        let batch = [(Arc::clone(prepared), db.len())];
        let (scored, stats) = ShardExecutor::new()
            .execute(&batch, &arena, &plan)
            .remove(0);
        (materialize_hits(&scored, |i| db[i].id.clone()), stats)
    };
    for (name, query) in [("2,000 aa", &homologous), ("3,100 aa all-W", &all_w)] {
        let expect: Vec<i32> = subjects
            .iter()
            .map(|s| sw_score_affine(query, s, &scoring).score)
            .collect();
        for isa in Isa::available() {
            let prepared = Arc::new(PreparedQuery::with_isa(query, &scoring, isa));
            let (hits, stats) = scan(&prepared, KernelChoice::Auto);
            assert_eq!(hits.len(), db.len(), "{isa:?} {name}");
            for hit in &hits {
                assert_eq!(hit.score, expect[hit.db_index], "{isa:?} {name} {}", hit.id);
            }
            assert_eq!(
                hits,
                scan(&prepared, KernelChoice::Striped).0,
                "{isa:?} {name}: Auto against Striped"
            );
            assert_eq!(
                (stats.chunks_interseq, stats.chunks_striped),
                (2, 0),
                "{isa:?} {name}: every chunk inter-sequence"
            );
            assert_eq!(stats.interseq_total(), db.len() as u64, "{isa:?} {name}");
            if query.len() == 2000 {
                assert!(stats.interseq_i16 >= 4, "{isa:?} {name}: {stats:?}");
            } else {
                assert_eq!(stats.interseq_scalar, 1, "{isa:?} {name}: {stats:?}");
            }
        }
    }
}

/// Short queries (24, 64 and 96 aa) against shard tails of long subjects.
/// The database's 36 longest subjects (1,200–2,000 aa) come last in its
/// length order, half of them hold a planted homolog of one query, and
/// 64 short subjects fill the first chunk: whole, the scan ends on a
/// sub-floor chunk of long subjects, and so does each shard when it is cut
/// in two. Those are the chunks the lane-fill cost test weighs for short
/// queries. On every tier, each shard's `Auto` scan equals its `Striped`
/// scan, and every score equals the Gotoh oracle's.
#[test]
fn short_queries_over_long_shard_tails_agree_on_every_tier() {
    let scoring = Scoring::blosum62_affine();
    let mut rng = ChaCha8Rng::seed_from_u64(2400);
    let mut codes = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.random_range(0..20)).collect() };
    let queries: Vec<Vec<u8>> = [24, 64, 96].into_iter().map(&mut codes).collect();
    let mut subjects: Vec<Vec<u8>> = (0..chunk_floor())
        .map(|i| codes(40 + (i * 13) % 200))
        .collect();
    for i in 0..36 {
        let mut subject = codes(1200 + (i * 29) % 800);
        if i % 2 == 0 {
            // A homolog: the query with one residue in ten replaced.
            let query = &queries[i / 2 % 3];
            let at = 30 * (i / 2);
            for (j, &r) in query.iter().enumerate() {
                subject[at + j] = if j % 10 == 3 { (r + 7) % 20 } else { r };
            }
        }
        subjects.push(subject);
    }
    let db = DbSnapshot::from_encoded("tails", &encode_db(&subjects));
    let arena = db.arena();
    let oracle: Vec<Vec<i32>> = queries
        .iter()
        .map(|q| {
            (0..db.len())
                .map(|i| sw_score_affine(q, db.residues(i), &scoring).score)
                .collect()
        })
        .collect();
    for shards in [1, 2] {
        for (start, end) in db.shard_ranges(shards) {
            let tail = start + (end - start) / chunk_floor() * chunk_floor();
            assert!(
                tail < end && (tail..end).all(|p| arena.seq_len(p) >= 1200),
                "{shards} shard(s): {start}..{end} must end on a sub-floor chunk of long subjects"
            );
            for (q, query) in queries.iter().enumerate() {
                for isa in Isa::available() {
                    let prepared = Arc::new(PreparedQuery::with_isa(query, &scoring, isa));
                    let scan = |kernel| {
                        let plan = ShardPlan {
                            range: start..end,
                            chunk_size: chunk_floor(),
                            kernel,
                            prefetch: true,
                        };
                        let batch = [(Arc::clone(&prepared), end - start)];
                        let (scored, _) =
                            ShardExecutor::new().execute(&batch, arena, &plan).remove(0);
                        materialize_hits(&scored, |i| db.id(i).to_string())
                    };
                    let auto = scan(KernelChoice::Auto);
                    let what = format!("{isa:?}, {} aa, shard {start}..{end}", query.len());
                    assert_eq!(auto.len(), end - start, "{what}");
                    for hit in &auto {
                        assert_eq!(hit.score, oracle[q][hit.db_index], "{what}: {}", hit.id);
                    }
                    assert_eq!(
                        auto,
                        scan(KernelChoice::Striped),
                        "{what}: Auto against Striped"
                    );
                }
            }
        }
    }
}
