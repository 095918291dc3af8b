//! Multi-threaded query × database search.
//!
//! This is the intra-node parallelisation the paper runs on each multicore
//! host (coarse-grained, Fig. 3b): the database is scanned in chunks that
//! worker threads claim in a self-scheduling fashion (an atomic cursor —
//! the same SS idea as Rognes' multi-threaded SSE search [17]), each worker
//! owning its own engine state so the scan is embarrassingly parallel.
//!
//! The database is a [`DbSnapshot`] — its flat [`DbArena`] is scanned in
//! place — and each claimed chunk is dispatched to one of two kernel
//! families ([`KernelChoice`]):
//!
//! * **Striped** — the adapted-Farrar intra-sequence kernel, one subject at
//!   a time. Its rate grows with the query length (level with InterSeq up
//!   to ≈ 170 residues, ≈ 2× ahead by 2048), and it wins on tiny or skewed
//!   chunks.
//! * **InterSeq** — the SWIPE-style inter-sequence kernel, `LANES` subjects
//!   per vector. A flat rate whatever the query: no per-subject setup, no
//!   lazy-F loop, near-perfect lane utilisation when chunk lengths are
//!   homogeneous ([`DbArena::length_sorted`]) — the kernel for short
//!   queries, and the one a fused query batch shares a score gather in.
//! * **Auto** (default) — picks per chunk from the query length, the
//!   chunk's size and its length skew (measured crossovers, see
//!   `exec`); the decision counters land in [`KernelStats`].
//!
//! Every kernel family resolves every subject to the exact Gotoh score, so
//! the ranked output is **bit-identical** across kernel choices, thread
//! counts, and scan orders: hits are keyed by *database* index (the arena
//! un-permutes length-sorted scan positions) and ranked by [`rank_hits`]'s
//! total order.
//!
//! The output is a ranked [`Hit`] list (top-N by score, ties broken by
//! database order), plus the kernel-usage counters. Workers carry plain
//! [`Scored`] records (`Copy`, no strings); subject identifiers are
//! materialised only for the merged top-N.

use std::ops::Range;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use crate::engine::{EnginePreference, KernelStats, PreparedQuery};
use crate::exec::{demux_top_n, materialize_hits, ShardExecutor, ShardPlan};
use swhybrid_align::alignment::Alignment;
use swhybrid_align::gotoh::gotoh_align;
use swhybrid_align::scoring::Scoring;
use swhybrid_seq::arena::DbArena;
use swhybrid_seq::DbSnapshot;

/// One database hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Index of the subject within the database.
    pub db_index: usize,
    /// Identifier of the subject sequence.
    pub id: String,
    /// Optimal local alignment score.
    pub score: i32,
    /// Subject length in residues.
    pub subject_len: usize,
}

/// A scored subject, as carried internally by scan workers: no identifier,
/// no allocation — `Hit`s (with their cloned id strings) are materialised
/// only for the merged top-N.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scored {
    /// Index of the subject within the database (already un-permuted when
    /// the scan order was length-sorted).
    pub db_index: usize,
    /// Optimal local alignment score.
    pub score: i32,
    /// Subject length in residues.
    pub subject_len: usize,
}

/// Which kernel family scores a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Always the adapted-Farrar striped kernel (one subject at a time).
    Striped,
    /// Always the SWIPE-style inter-sequence kernel (`LANES` subjects per
    /// vector).
    InterSeq,
    /// Decide per chunk from query length and chunk length-skew.
    #[default]
    Auto,
}

impl KernelChoice {
    /// Parse a CLI/protocol spelling.
    pub fn parse(s: &str) -> Option<KernelChoice> {
        match s {
            "striped" => Some(KernelChoice::Striped),
            "interseq" => Some(KernelChoice::InterSeq),
            "auto" => Some(KernelChoice::Auto),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`KernelChoice::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Striped => "striped",
            KernelChoice::InterSeq => "interseq",
            KernelChoice::Auto => "auto",
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Worker threads (≥ 1). The default is 1: thread count is a *platform*
    /// decision made by the execution environment, not the kernel layer.
    pub threads: usize,
    /// How many top hits to keep.
    pub top_n: usize,
    /// Subjects per self-scheduled chunk.
    pub chunk_size: usize,
    /// Kernel tier preference (widest vector tier vs portable).
    pub preference: EnginePreference,
    /// Kernel dispatch: striped, inter-sequence, or adaptive.
    pub kernel: KernelChoice,
    /// Software-prefetch the next subject's residue span ahead of use
    /// (inter-sequence lane refill and the striped sequential scan). A pure
    /// CPU hint: scores, rankings and [`KernelStats`] are identical either
    /// way.
    pub prefetch: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            threads: 1,
            top_n: 20,
            chunk_size: crate::exec::chunk_floor(),
            preference: EnginePreference::Auto,
            kernel: KernelChoice::Auto,
            prefetch: true,
        }
    }
}

/// Result of a database search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Ranked hits (best first), at most `top_n`.
    pub hits: Vec<Hit>,
    /// DP cells actually computed: every kernel pass is counted, including
    /// i16/scalar recomputation of saturated subjects.
    pub cells: u64,
    /// Nominal cell count (query length × total subject residues) — the
    /// classic GCUPS denominator, independent of saturation recomputes.
    pub cells_nominal: u64,
    /// Kernel usage across all workers.
    pub stats: KernelStats,
}

impl SearchResult {
    /// Recover the optimal local alignments for the ranked hits (the scan
    /// itself is score-only; only the reported top-N pay the quadratic
    /// traceback — the standard database-search trade-off).
    ///
    /// Each returned alignment's score equals the hit's score by
    /// construction (asserted in debug builds).
    pub fn align_hits(
        &self,
        query: &[u8],
        db: &DbSnapshot,
        scoring: &Scoring,
    ) -> Vec<(Hit, Alignment)> {
        self.hits
            .iter()
            .map(|hit| {
                let alignment = gotoh_align(query, db.residues(hit.db_index), scoring);
                debug_assert_eq!(alignment.score, hit.score, "hit {}", hit.id);
                (hit.clone(), alignment)
            })
            .collect()
    }
}

/// Output of an arena scan: ranked scores without materialised identifiers.
/// This is what sharded callers (the query service) merge; ids are attached
/// at the very end, for the global top-N only.
#[derive(Debug, Clone)]
pub struct ScanOutput {
    /// Ranked scored subjects (best first), at most `top_n`, keyed by
    /// database index.
    pub scored: Vec<Scored>,
    /// DP cells actually computed (all passes).
    pub cells: u64,
    /// Nominal cells (query length × scanned residues).
    pub cells_nominal: u64,
    /// Kernel usage across all workers.
    pub stats: KernelStats,
}

/// Rank hits deterministically: score descending, ties broken by database
/// order ascending. This is THE ranking of the whole workspace — every
/// merge of partial hit lists (per-worker, per-shard, per-process) goes
/// through here, so a result assembled from any decomposition of the
/// database is bit-identical to a single sequential scan.
pub fn rank_hits(hits: &mut [Hit]) {
    // Unstable sort: allocation-free, and deterministic anyway because the
    // comparator is a total order (db_index is unique per list).
    hits.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
}

/// [`rank_hits`]'s total order over the internal [`Scored`] records.
pub fn rank_scored(scored: &mut [Scored]) {
    scored.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
}

/// Merge any number of partial hit lists into the global top `top_n`.
///
/// Correct whenever each input list contains at least the top `top_n` hits
/// of its own partition (lists shorter than that are taken whole): any
/// global top-`top_n` hit is necessarily in its partition's top `top_n`.
pub fn merge_top_n(lists: impl IntoIterator<Item = Vec<Hit>>, top_n: usize) -> Vec<Hit> {
    let mut all: Vec<Hit> = lists.into_iter().flatten().collect();
    rank_hits(&mut all);
    all.truncate(top_n);
    all
}

/// THE one-shot search: one query against a whole database. Builds the
/// query profiles once (`config.preference`), scans the snapshot's arena
/// in place with [`search_arena`], and attaches identifiers to the ranked
/// top-N. Callers that keep [`PreparedQuery`]s across searches, or scan a
/// sub-range or a [`DbArena::length_sorted`] order, use [`search_arena`]
/// directly.
pub fn search_db(
    query: &[u8],
    db: &DbSnapshot,
    scoring: &Scoring,
    config: &SearchConfig,
) -> SearchResult {
    let prepared = Arc::new(PreparedQuery::new(query, scoring, config.preference));
    let out = search_arena(&prepared, db.arena(), 0..db.len(), config);
    SearchResult {
        hits: materialize_hits(&out.scored, |i| db.id(i).to_string()),
        cells: out.cells,
        cells_nominal: out.cells_nominal,
        stats: out.stats,
    }
}

/// Scan the arena positions in `range` with an already-prepared query (a
/// long-lived caller that keeps [`PreparedQuery`]s across searches skips
/// the per-query profile build entirely; `config.preference` is ignored,
/// the tier is baked into the prepared profiles). Workers claim chunks of
/// scan positions; each chunk is dispatched per `config.kernel`. Returned
/// records are keyed by **database** index ([`DbArena::db_index`]), so the
/// output is independent of the arena's scan order.
pub fn search_arena(
    prepared: &Arc<PreparedQuery>,
    arena: &DbArena,
    range: Range<usize>,
    config: &SearchConfig,
) -> ScanOutput {
    let batch = [(Arc::clone(prepared), config.top_n)];
    let mut outputs = scan_batch(&batch, arena, range, config);
    outputs.pop().expect("one output per batch entry")
}

/// THE worker-spawning scan: `config.threads` workers, each a
/// [`ShardExecutor`] with its own scratch, claim chunks of `range` from one
/// shared cursor and score every `(prepared query, top_n)` entry of `batch`
/// against each chunk; the per-worker lists are merged and demuxed into one
/// [`ScanOutput`] per entry (`config.top_n` is ignored, each entry carries
/// its own).
///
/// Per-query kernel work does not depend on the batch — the kernel choice
/// depends only on the query and the chunk shape, lane scheduling in the
/// inter-sequence pass is score-independent, and ranking is a total order —
/// so each output is byte-identical to scanning that query alone
/// (`fused_batch_matches_solo_scans` and the serve crate's permutation
/// property prove the law).
pub(crate) fn scan_batch(
    batch: &[(Arc<PreparedQuery>, usize)],
    arena: &DbArena,
    range: Range<usize>,
    config: &SearchConfig,
) -> Vec<ScanOutput> {
    assert!(config.threads >= 1, "at least one worker required");
    assert!(config.chunk_size >= 1, "chunk size must be positive");
    assert!(range.end <= arena.len(), "scan range out of bounds");
    let n_workers = config.threads.min(range.len().max(1));
    let cursor = AtomicUsize::new(0);
    let plan = ShardPlan::from_config(range.clone(), config);
    let worker = || ShardExecutor::new().fused(batch, arena, &plan, &cursor);

    let worker_outputs: Vec<Vec<(Vec<Scored>, KernelStats)>> = if n_workers == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked"))
                .collect()
        })
    };

    let mut merged: Vec<(Vec<Scored>, KernelStats)> =
        vec![(Vec::new(), KernelStats::default()); batch.len()];
    for worker in worker_outputs {
        for (k, (worker_scored, worker_stats)) in worker.into_iter().enumerate() {
            merged[k].0.extend(worker_scored);
            merged[k].1.merge(&worker_stats);
        }
    }
    demux_top_n(merged, batch, arena, range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use swhybrid_align::score_only::sw_score_affine;
    use swhybrid_align::scoring::{GapModel, SubstMatrix};
    use swhybrid_seq::sequence::EncodedSequence;
    use swhybrid_seq::Alphabet;

    /// [`search_db`] over freshly packed records.
    fn run(
        query: &[u8],
        scoring: &Scoring,
        config: SearchConfig,
        subjects: &[EncodedSequence],
    ) -> SearchResult {
        search_db(
            query,
            &DbSnapshot::from_encoded("", subjects),
            scoring,
            &config,
        )
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

    fn random_db(seed: u64, n: usize, max_len: usize) -> Vec<EncodedSequence> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let len = rng.random_range(1..max_len);
                EncodedSequence {
                    id: format!("s{i}"),
                    codes: (0..len).map(|_| rng.random_range(0..20u8)).collect(),
                    alphabet: Alphabet::Protein,
                }
            })
            .collect()
    }

    #[test]
    fn hits_match_scalar_scores_and_are_sorted() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(131);
        let query: Vec<u8> = (0..60).map(|_| rng.random_range(0..20u8)).collect();
        let db = random_db(133, 50, 120);
        let s = scoring();
        let result = run(
            &query,
            &s,
            SearchConfig {
                top_n: 50,
                ..Default::default()
            },
            &db,
        );
        assert_eq!(result.hits.len(), 50);
        for pair in result.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        for hit in &result.hits {
            let expect = sw_score_affine(&query, &db[hit.db_index].codes, &s).score;
            assert_eq!(hit.score, expect, "hit {}", hit.id);
        }
        assert_eq!(result.stats.total(), 50);
    }

    #[test]
    fn multithreaded_equals_single_threaded() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(137);
        let query: Vec<u8> = (0..80).map(|_| rng.random_range(0..20u8)).collect();
        let db = random_db(139, 200, 150);
        let s = scoring();
        let single = run(
            &query,
            &s,
            SearchConfig {
                threads: 1,
                top_n: 10,
                ..Default::default()
            },
            &db,
        );
        let multi = run(
            &query,
            &s,
            SearchConfig {
                threads: 4,
                top_n: 10,
                chunk_size: 7,
                ..Default::default()
            },
            &db,
        );
        assert_eq!(single.hits, multi.hits);
        assert_eq!(single.stats.total(), multi.stats.total());
    }

    #[test]
    fn every_kernel_choice_yields_identical_hits() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(171);
        let query: Vec<u8> = (0..70).map(|_| rng.random_range(0..20u8)).collect();
        let db = random_db(173, 160, 140);
        let s = scoring();
        let baseline = run(
            &query,
            &s,
            SearchConfig {
                kernel: KernelChoice::Striped,
                top_n: 25,
                ..Default::default()
            },
            &db,
        );
        for kernel in [KernelChoice::InterSeq, KernelChoice::Auto] {
            // Scan order is the arena's: database order, or ascending
            // length (hits are keyed by database index either way).
            for (order, arena) in [
                ("db", DbArena::from_encoded(&db)),
                ("sorted", DbArena::length_sorted(&db)),
            ] {
                let cfg = SearchConfig {
                    kernel,
                    top_n: 25,
                    threads: 3,
                    chunk_size: 33,
                    ..Default::default()
                };
                let prepared = Arc::new(PreparedQuery::new(&query, &s, cfg.preference));
                let out = search_arena(&prepared, &arena, 0..arena.len(), &cfg);
                let hits = materialize_hits(&out.scored, |i| db[i].id.clone());
                assert_eq!(hits, baseline.hits, "kernel {kernel:?} order {order}");
            }
        }
    }

    #[test]
    fn interseq_choice_populates_its_counters() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(177);
        let query: Vec<u8> = (0..50).map(|_| rng.random_range(0..20u8)).collect();
        let db = random_db(179, 100, 60);
        let s = scoring();
        let result = run(
            &query,
            &s,
            SearchConfig {
                kernel: KernelChoice::InterSeq,
                ..Default::default()
            },
            &db,
        );
        assert_eq!(result.stats.interseq_total(), 100);
        assert_eq!(result.stats.total(), 100);
        assert!(result.stats.chunks_interseq >= 1);
        assert_eq!(result.stats.chunks_striped, 0);
        assert!(result.cells > 0);
    }

    #[test]
    fn auto_prefers_interseq_on_homogeneous_chunks_and_striped_on_tiny_ones() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(181);
        let query: Vec<u8> = (0..60).map(|_| rng.random_range(0..20u8)).collect();
        let s = scoring();
        // 128 similar-length subjects in one big chunk: inter-sequence.
        let db = random_db(183, 128, 60);
        let bulk = run(
            &query,
            &s,
            SearchConfig {
                kernel: KernelChoice::Auto,
                chunk_size: 128,
                ..Default::default()
            },
            &db,
        );
        assert!(bulk.stats.chunks_interseq >= 1, "{:?}", bulk.stats);
        // 5 subjects: lanes can't fill, Auto must stay striped.
        let tiny = run(
            &query,
            &s,
            SearchConfig {
                kernel: KernelChoice::Auto,
                ..Default::default()
            },
            &db[..5],
        );
        assert_eq!(tiny.stats.chunks_interseq, 0);
        assert!(tiny.stats.chunks_striped >= 1);
    }

    #[test]
    fn top_n_truncates() {
        let db = random_db(141, 30, 60);
        let query: Vec<u8> = (0..40).map(|i| (i % 20) as u8).collect();
        let s = scoring();
        let result = run(
            &query,
            &s,
            SearchConfig {
                top_n: 5,
                ..Default::default()
            },
            &db,
        );
        assert_eq!(result.hits.len(), 5);
    }

    #[test]
    fn planted_homolog_ranks_first() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(149);
        let query: Vec<u8> = (0..100).map(|_| rng.random_range(0..20u8)).collect();
        let mut db = random_db(151, 40, 120);
        // Plant a copy of the query in the middle of the database.
        db[17] = EncodedSequence {
            id: "planted".into(),
            codes: query.clone(),
            alphabet: Alphabet::Protein,
        };
        let s = scoring();
        let result = run(&query, &s, SearchConfig::default(), &db);
        assert_eq!(result.hits[0].id, "planted");
        assert_eq!(
            result.hits[0].score,
            sw_score_affine(&query, &query, &s).score
        );
    }

    #[test]
    fn cells_accounting() {
        let db = random_db(157, 10, 50);
        let total: u64 = db.iter().map(|d| d.len() as u64).sum();
        let query: Vec<u8> = (0..25).map(|i| (i % 20) as u8).collect();
        let s = scoring();
        let result = run(&query, &s, SearchConfig::default(), &db);
        assert_eq!(result.cells_nominal, 25 * total);
        assert_eq!(result.cells, result.stats.cells_computed);
        // No subject here saturates i8, so actual equals nominal.
        assert_eq!(result.cells, result.cells_nominal);
    }

    #[test]
    fn saturating_subjects_cost_extra_cells() {
        let query: Vec<u8> = (0..200).map(|i| (i % 20) as u8).collect();
        let db = vec![EncodedSequence {
            id: "self".into(),
            codes: query.clone(),
            alphabet: Alphabet::Protein,
        }];
        let s = scoring();
        for kernel in [KernelChoice::Striped, KernelChoice::InterSeq] {
            let result = run(
                &query,
                &s,
                SearchConfig {
                    kernel,
                    ..Default::default()
                },
                &db,
            );
            assert!(
                result.cells > result.cells_nominal,
                "kernel {kernel:?}: self-match must saturate i8 and recompute"
            );
        }
    }

    #[test]
    fn align_hits_recovers_consistent_alignments() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(163);
        let query: Vec<u8> = (0..50).map(|_| rng.random_range(0..20u8)).collect();
        let db = random_db(165, 25, 80);
        let s = scoring();
        let result = run(
            &query,
            &s,
            SearchConfig {
                top_n: 5,
                ..Default::default()
            },
            &db,
        );
        let aligned = result.align_hits(&query, &DbSnapshot::from_encoded("", &db), &s);
        assert_eq!(aligned.len(), 5);
        for (hit, alignment) in &aligned {
            assert_eq!(alignment.score, hit.score);
            if !alignment.is_empty() {
                assert_eq!(
                    alignment.rescore(&query, &db[hit.db_index].codes, &s),
                    hit.score
                );
            }
        }
    }

    #[test]
    fn empty_database_yields_no_hits() {
        let query: Vec<u8> = vec![0, 1, 2];
        let s = scoring();
        let result = run(&query, &s, SearchConfig::default(), &[]);
        assert!(result.hits.is_empty());
        assert_eq!(result.cells, 0);
        assert_eq!(result.cells_nominal, 0);
    }

    #[test]
    fn merge_top_n_matches_whole_db_scan() {
        // Shard the database arbitrarily, scan each shard, merge the
        // per-shard top-N lists: the ranking must be bit-identical to a
        // single scan of the whole database. This is the invariant the
        // query service relies on when it splits one query across tasks.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(167);
        let query: Vec<u8> = (0..70).map(|_| rng.random_range(0..20u8)).collect();
        let db = random_db(169, 120, 100);
        let s = scoring();
        let cfg = SearchConfig {
            top_n: 15,
            ..Default::default()
        };
        let whole = run(&query, &s, cfg.clone(), &db);

        let bounds = [0usize, 13, 50, 51, 120];
        let shard_lists: Vec<Vec<Hit>> = bounds
            .windows(2)
            .map(|w| {
                let mut part = run(&query, &s, cfg.clone(), &db[w[0]..w[1]]).hits;
                // Shard hits index into the shard; rebase to global order.
                for h in &mut part {
                    h.db_index += w[0];
                }
                part
            })
            .collect();
        let merged = merge_top_n(shard_lists, cfg.top_n);
        assert_eq!(merged, whole.hits);
    }

    #[test]
    fn search_arena_subrange_matches_subject_slice() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(191);
        let query: Vec<u8> = (0..60).map(|_| rng.random_range(0..20u8)).collect();
        let db = random_db(193, 80, 90);
        let s = scoring();
        let cfg = SearchConfig {
            top_n: 10,
            ..Default::default()
        };
        let prepared = Arc::new(PreparedQuery::new(&query, &s, cfg.preference));
        let arena = DbArena::from_encoded(&db);
        let out = search_arena(&prepared, &arena, 20..55, &cfg);
        let slice = run(&query, &s, cfg.clone(), &db[20..55]);
        let rebased: Vec<Scored> = slice
            .hits
            .iter()
            .map(|h| Scored {
                db_index: h.db_index + 20,
                score: h.score,
                subject_len: h.subject_len,
            })
            .collect();
        assert_eq!(out.scored, rebased);
        assert_eq!(out.cells_nominal, slice.cells_nominal);
    }

    /// The fused-scan law: each output of a batched scan is byte-identical
    /// to scanning that query alone with the same configuration — scored
    /// list, cell counts, and kernel counters all match, across kernel
    /// choices, per-entry depths, and thread counts.
    #[test]
    fn fused_batch_matches_solo_scans() {
        let db = random_db(197, 120, 110);
        let s = scoring();
        let arena = DbArena::from_encoded(&db);
        let queries: Vec<Vec<u8>> = [(199u64, 40), (211, 80), (223, 17), (227, 60)]
            .iter()
            .map(|&(seed, len)| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                (0..len).map(|_| rng.random_range(0..20u8)).collect()
            })
            .collect();
        for kernel in [
            KernelChoice::Auto,
            KernelChoice::Striped,
            KernelChoice::InterSeq,
        ] {
            for threads in [1, 3] {
                let cfg = SearchConfig {
                    threads,
                    chunk_size: 9,
                    kernel,
                    ..Default::default()
                };
                let batch: Vec<(Arc<PreparedQuery>, usize)> = queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        (
                            Arc::new(PreparedQuery::new(q, &s, cfg.preference)),
                            5 + 3 * i, // distinct per-entry depths
                        )
                    })
                    .collect();
                let fused = scan_batch(&batch, &arena, 0..arena.len(), &cfg);
                assert_eq!(fused.len(), batch.len());
                for ((prepared, top_n), out) in batch.iter().zip(&fused) {
                    let solo_cfg = SearchConfig {
                        top_n: *top_n,
                        ..cfg
                    };
                    let solo = search_arena(prepared, &arena, 0..arena.len(), &solo_cfg);
                    assert_eq!(out.scored, solo.scored, "{kernel:?} t{threads}");
                    assert_eq!(out.cells, solo.cells);
                    assert_eq!(out.cells_nominal, solo.cells_nominal);
                    assert_eq!(out.stats.total(), solo.stats.total());
                }
            }
        }
    }

    /// `ShardExecutor::execute` on one worker is the same scan, and an
    /// empty batch returns nothing without touching the arena.
    #[test]
    fn fused_batch_edge_sizes() {
        let db = random_db(229, 40, 70);
        let s = scoring();
        let arena = DbArena::from_encoded(&db);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(233);
        let query: Vec<u8> = (0..30).map(|_| rng.random_range(0..20u8)).collect();
        let cfg = SearchConfig {
            top_n: 7,
            ..Default::default()
        };
        let prepared = Arc::new(PreparedQuery::new(&query, &s, cfg.preference));
        let plan = ShardPlan::from_config(10..35, &cfg);
        let fused = ShardExecutor::new().execute(&[(Arc::clone(&prepared), 7)], &arena, &plan);
        let solo = search_arena(&prepared, &arena, 10..35, &cfg);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].scored, solo.scored);
        assert_eq!(fused[0].cells, solo.cells);
        assert_eq!(fused[0].stats, solo.stats);
        assert!(ShardExecutor::new().execute(&[], &arena, &plan).is_empty());
        assert!(scan_batch(&[], &arena, 0..arena.len(), &cfg).is_empty());
    }

    #[test]
    fn merge_top_n_is_deterministic_on_ties() {
        let hit = |db_index: usize, score: i32| Hit {
            db_index,
            id: format!("s{db_index}"),
            score,
            subject_len: 10,
        };
        // Two lists with interleaved ties: db order must break them.
        let a = vec![hit(4, 50), hit(0, 40), hit(6, 40)];
        let b = vec![hit(2, 50), hit(1, 40), hit(5, 60)];
        let merged = merge_top_n([a, b], 4);
        let order: Vec<usize> = merged.iter().map(|h| h.db_index).collect();
        assert_eq!(order, vec![5, 2, 4, 0]);
    }
}
