//! The shard-execution layer: ONE implementation of the chunked database
//! scan.
//!
//! The paper's architecture (Fig. 1) is a single task-execution environment
//! driving heterogeneous PEs; this module is that environment's inner loop.
//! One owner drives it: the one compute step of every PE
//! (`core::pool::PeExecutor::scan`, one pass per task: daemon worker
//! threads, slaves, local-fleet threads, and the one-shot `search`'s shard
//! PEs).
//!
//! The owner builds a [`ShardPlan`] (which arena positions to scan, the
//! chunk size, the kernel choice, prefetch) and drives a
//! [`ShardExecutor`], which owns the per-worker [`KernelScratch`] for its
//! lifetime and implements chunk claiming, per-chunk [`KernelChoice`]
//! dispatch, multi-query DP driving (a lone query is the batch of one),
//! [`KernelStats`] accumulation, and the per-query top-N ranking. Because
//! the loop exists once, hit tables and kernel counters are byte-identical
//! across the transports by construction — the tri-path oracle test
//! pins this.
//!
//! The chunk size every PE scans at is [`chunk_floor`] = 2 × the widest
//! kernel lane count. Below that floor a chunk cannot fill the
//! inter-sequence lanes twice, and `Auto` weighs each such chunk by its
//! lane-fill cost, which sends most of them to the striped kernel.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::engine::{KernelStats, PreparedQuery, StripedEngine};
use crate::scratch::KernelScratch;
use crate::search::{rank_scored, Hit, KernelChoice, Scored};
use crate::vec::{Isa, MAX_LANES};
use swhybrid_seq::arena::DbArena;

/// The minimum chunk size any scan path may use: 2 × the widest
/// inter-sequence kernel lane count (AVX2, 32 × i8). A chunk narrower than
/// this cannot fill the lanes twice, so `Auto` sends it to the striped
/// kernel unless the query is short and the chunk's subjects long (the
/// lane-fill cost test) — a scan cut finer would lose most of the
/// inter-sequence kernel's throughput, a performance bug with no wrong
/// answers to catch it.
pub const fn chunk_floor() -> usize {
    2 * crate::vec::MAX_LANES
}

/// Everything an owner decides about scanning one shard: the arena slice,
/// how it is chunked, which kernel family scores each chunk, and whether to
/// issue software prefetches. The executor supplies the rest (scratch,
/// engines, counters).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Arena scan positions to cover.
    pub range: Range<usize>,
    /// Subjects per self-scheduled chunk.
    pub chunk_size: usize,
    /// Kernel dispatch: striped, inter-sequence, or adaptive.
    pub kernel: KernelChoice,
    /// Software-prefetch the next subject's residues ahead of use.
    pub prefetch: bool,
}

/// Should `Auto` send this chunk to the inter-sequence kernel?
///
/// A full chunk (at least `2 × lanes` subjects) makes one test, **skew**:
/// when one subject dwarfs the chunk every other lane idles while it drains
/// (the test compares the longest subject against the chunk's mean
/// length). The query's length is not a test there: on a length-ordered
/// scan the inter-sequence kernel wins or ties at every length. One random
/// query against a whole benchmark database (one PE, 2-vCPU AVX2 Xeon,
/// best of 3 in each of two alternated runs), ms, striped →
/// inter-sequence:
///
/// | query aa | 256 | 512 | 1,024 | 2,048 | 4,096 | 8,192 | 16,384 |
/// |---|---|---|---|---|---|---|---|
/// | AVX2, `ms_tcp` (470k res.) | 23 → 9.4 | 34 → 17 | 49 → 33 | 95 → 62 | 183 → 123 | 374 → 252 | 1,024 → 572 |
/// | SSE4.1, `ms_tcp` | 24 → 17 | 38 → 32 | 77 → 56 | 143 → 113 | 334 → 236 | 632 → 444 | 1,319 → 938 |
/// | AVX2, `scan_long` (160k res.) | 6.6 → 4.8 | 9.4 → 8.4 | 16 → 16 | 28 → 27 | 60 → 57 | 106 → 112 | 321 → 247 |
/// | SSE4.1, `scan_long` | 8.6 → 7.1 | 16 → 13 | 28 → 26 | 53 → 52 | 105 → 97 | 215 → 200 | 432 → 392 |
///
/// A sub-floor chunk — the tail a shard may end on, which on a
/// length-ordered scan holds its longest subjects — cannot fill the lanes
/// twice, and there the query's length decides: [`FillCost`] weighs one
/// inter-sequence pass against striping every subject.
fn auto_picks_interseq(prepared: &PreparedQuery, arena: &DbArena, chunk: Range<usize>) -> bool {
    /// Minimum lane utilisation (as 1/MAX_SKEW). Lanes refill from the
    /// subject queue, so a long outlier only hurts once the queue drains
    /// and the other lanes idle behind it: the wasted fraction of the
    /// chunk is bounded by `max_len·lanes / total`. Past 8 the striped
    /// kernel's sequential scan is 4–9× faster; the break-even itself
    /// reads ≈ 2 on both tiers.
    const MAX_SKEW: u64 = 8;
    let lanes = prepared.isa().lanes::<i8>();
    let total = arena.range_residues(chunk.clone());
    if total == 0 {
        return false;
    }
    if chunk.len() < 2 * lanes {
        let cost = FillCost::of(prepared.isa());
        return cost.picks_interseq(prepared.query_len(), lanes, arena, chunk, total);
    }
    let max_len = chunk.clone().map(|p| arena.seq_len(p)).max().unwrap_or(0) as u64;
    max_len * lanes as u64 <= MAX_SKEW * total
}

/// The lane-fill cost test for a sub-floor chunk: one inter-sequence pass
/// costs `columns × (m + gather)` and striping every subject costs
/// `Σlen × (stripe × ⌈m / lanes⌉ + column)`, both in DP rows of one
/// inter-sequence column. `columns` is the length of the pass: each
/// subject joins the lane that frees first, as the pass's refill does
/// ([`pass_columns`]; `max(max_len, ⌈Σlen / lanes⌉)` underestimates it up
/// to 2×, e.g. 21 subjects on 16 lanes run two rounds). `gather` is the
/// per-column score gather, which does not grow with the query; `stripe`
/// and `column` are the striped kernel's cost per vector of a stripe and
/// per subject residue.
///
/// The constants are fitted, per tier, to a ladder: the `scan_short` and
/// `ms_tcp` databases (seed 2013), tails of k ∈ {8, 21, 32, 48, 63}
/// subjects as the shard end and as a mid-database chunk, against queries
/// of m ∈ {1 … 2,048} aa (one PE, 2-vCPU AVX2 Xeon, best of 5 per point).
/// Striped time ÷ inter-sequence time at the `scan_short` shard end, `i`
/// where the test picks inter-sequence (k ≥ 32 is a full chunk on
/// SSE4.1):
///
/// | tier, subjects | 24 aa | 64 aa | 256 aa | 1,024 aa | 2,048 aa |
/// |---|---|---|---|---|---|
/// | AVX2, 8 (1,634–1,965 aa) | 0.77 | 0.81 | 0.65 | 0.38 | 0.34 |
/// | AVX2, 21 (1,275–1,965 aa) | 1.82 i | 1.86 i | 1.21 i | 0.97 | 0.79 |
/// | AVX2, 32 | 2.39 i | 2.79 i | 2.11 i | 1.18 i | 1.04 i |
/// | AVX2, 48 | 2.49 i | 2.41 i | 1.84 i | 1.07 i | 0.99 i |
/// | AVX2, 63 | 2.55 i | 2.59 i | 1.86 i | 1.25 i | 1.12 i |
/// | SSE4.1, 8 | 0.92 | 0.93 | 0.70 | 0.64 | 0.61 |
/// | SSE4.1, 21 | 1.24 i | 1.10 i | 0.91 | 0.88 | 0.82 |
///
/// At `ms_tcp`'s shard end the test makes the same picks at these points.
/// Over all 448 points it picks the slower kernel at 23, each within
/// 0.87–1.22 of break-even.
/// The portable tier has SSE4.1's lane counts and takes its constants; its
/// two kernels run within ≈ 10 % of each other from 24 aa up.
#[derive(Clone, Copy)]
struct FillCost {
    stripe: f64,
    column: f64,
    gather: f64,
}

impl FillCost {
    /// The tier's measured constants.
    fn of(isa: Isa) -> FillCost {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => FillCost {
                stripe: 1.5,
                column: 12.0,
                gather: 112.0,
            },
            _ => FillCost {
                stripe: 1.4,
                column: 8.0,
                gather: 64.0,
            },
        }
    }

    /// Whether one inter-sequence pass over `chunk` (`total` residues) on
    /// `lanes` lanes costs less than striping its subjects, for a query of
    /// `m` residues.
    fn picks_interseq(
        self,
        m: usize,
        lanes: usize,
        arena: &DbArena,
        chunk: Range<usize>,
        total: u64,
    ) -> bool {
        let columns = pass_columns(arena, chunk, lanes) as f64;
        let stripe = m.div_ceil(lanes) as f64;
        columns * (m as f64 + self.gather) < total as f64 * (self.stripe * stripe + self.column)
    }
}

/// Columns one inter-sequence pass over `chunk` takes on `lanes` lanes:
/// each subject joins the lane that frees first, as the pass's refill
/// does, and the pass lasts as long as its busiest lane.
fn pass_columns(arena: &DbArena, chunk: Range<usize>, lanes: usize) -> u64 {
    let mut busy = [0u64; MAX_LANES];
    let busy = &mut busy[..lanes];
    for pos in chunk {
        let free = (0..lanes).min_by_key(|&lane| busy[lane]).unwrap_or(0);
        busy[free] += arena.seq_len(pos) as u64;
    }
    busy.iter().copied().max().unwrap_or(0)
}

/// One worker of the shard-execution layer. Owns the worker's
/// [`KernelScratch`] for its lifetime — per-PE, not per-chunk, so chunk
/// N+1 finds chunk N's buffers warm — and implements the only chunk-claim
/// loop in the workspace ([`ShardExecutor::fused`]).
pub struct ShardExecutor {
    scratch: KernelScratch,
}

impl Default for ShardExecutor {
    fn default() -> Self {
        ShardExecutor::new()
    }
}

impl ShardExecutor {
    /// Fresh executor with empty scratch; buffers size themselves
    /// high-water on first use.
    pub fn new() -> Self {
        ShardExecutor {
            scratch: KernelScratch::new(),
        }
    }

    /// [`ShardExecutor::fused`] for a batch of one: this worker's scored
    /// subjects (at most a small multiple of `top_n`) and kernel counters
    /// for the chunks it claimed from `cursor`.
    pub fn solo(
        &mut self,
        prepared: &Arc<PreparedQuery>,
        arena: &DbArena,
        plan: &ShardPlan,
        cursor: &AtomicUsize,
        top_n: usize,
    ) -> (Vec<Scored>, KernelStats) {
        let batch = [(Arc::clone(prepared), top_n)];
        let mut outputs = self.fused(&batch, arena, plan, cursor);
        outputs.pop().expect("one output per batch entry")
    }

    /// THE chunk loop: claim chunks of `plan.range` from the shared
    /// `cursor`, dispatch each per `plan.kernel`, and score every batch
    /// query against the chunk before releasing it — all but the
    /// inter-sequence i8 pass's saturated subjects, whose i16 reruns wait
    /// in the scratch until a whole lane group has gathered, across chunks,
    /// and are all run by the call's end. Each entry is
    /// `(prepared query, top_n)`; `top_n` bounds that query's local list
    /// (only the global top-N can survive the merge). Per query the work
    /// does not depend on the rest of the batch, so a query's output is
    /// byte-identical whether it scans alone or fused. Returns one
    /// `(scored, stats)` pair per batch entry.
    pub fn fused(
        &mut self,
        batch: &[(Arc<PreparedQuery>, usize)],
        arena: &DbArena,
        plan: &ShardPlan,
        cursor: &AtomicUsize,
    ) -> Vec<(Vec<Scored>, KernelStats)> {
        let range = &plan.range;
        let chunk_size = plan.chunk_size;
        let scratch = &mut self.scratch;
        let mut engines: Vec<StripedEngine> = batch
            .iter()
            .map(|(prepared, _)| StripedEngine::with_prepared(Arc::clone(prepared)))
            .collect();
        let mut stats: Vec<KernelStats> = vec![KernelStats::default(); batch.len()];
        let mut locals: Vec<Vec<Scored>> = vec![Vec::new(); batch.len()];
        let scored = |pos: usize, score: i32| Scored {
            db_index: arena.db_index(pos),
            score,
            subject_len: arena.seq_len(pos),
        };
        // Per-chunk lists, hoisted out of the claim loop and reused (cleared
        // each chunk) so the steady-state loop allocates nothing.
        let mut picks_interseq: Vec<bool> = Vec::with_capacity(batch.len());
        let mut fused: Vec<usize> = Vec::with_capacity(batch.len());
        let mut fused_batch: Vec<&PreparedQuery> = Vec::with_capacity(batch.len());
        // Batch entry k's i8-saturated subjects wait in rerun queue k until
        // a whole i16 lane group has gathered, across chunks; none is left
        // from an earlier call.
        scratch.interseq.clear_reruns();
        loop {
            let start = range.start + cursor.fetch_add(chunk_size, Ordering::Relaxed);
            if start >= range.end {
                break;
            }
            let end = (start + chunk_size).min(range.end);
            // Decide every query's kernel for this chunk up front, then run
            // all the inter-sequence queries through ONE fused pass while
            // the chunk is hot: the per-column score gather is shared across
            // the batch and each query's DP loop runs over the
            // already-filled lane buffer.
            picks_interseq.clear();
            picks_interseq.extend(batch.iter().map(|(prepared, _)| match plan.kernel {
                KernelChoice::Striped => false,
                KernelChoice::InterSeq => true,
                KernelChoice::Auto => auto_picks_interseq(prepared, arena, start..end),
            }));
            fused.clear();
            fused.extend((0..batch.len()).filter(|&k| picks_interseq[k]));
            fused_batch.clear();
            fused_batch.extend(fused.iter().map(|&k| &*batch[k].0));
            // The fused pass runs first, then the striped queries; per-query
            // work and counters are the same either way because each query
            // takes exactly one of the paths.
            crate::interseq::scores_deferring(
                &fused_batch,
                |q| fused[q],
                arena,
                start..end,
                &mut stats,
                &mut scratch.interseq,
                plan.prefetch,
                |k, pos, score| locals[k].push(scored(pos, score)),
            );
            for (k, top_n) in batch.iter().map(|&(_, top_n)| top_n).enumerate() {
                if picks_interseq[k] {
                    stats[k].chunks_interseq += 1;
                } else {
                    stats[k].chunks_striped += 1;
                    for pos in start..end {
                        // Pull the next subject's residues towards L1
                        // while this one is scored.
                        if plan.prefetch && pos + 1 < end {
                            crate::scratch::prefetch_read(arena.residues(pos + 1));
                        }
                        let score = engines[k].score(arena.residues(pos), scratch);
                        locals[k].push(scored(pos, score));
                    }
                }
                // Keep the per-worker list bounded: only the global top-N
                // can survive the merge anyway.
                if locals[k].len() > 4 * top_n.max(16) {
                    rank_scored(&mut locals[k]);
                    locals[k].truncate(2 * top_n.max(8));
                }
            }
        }
        for (k, engine) in engines.iter().enumerate() {
            crate::interseq::flush_deferred(
                &batch[k].0,
                k,
                arena,
                &mut scratch.interseq,
                plan.prefetch,
                &mut stats[k],
                |pos, score| locals[k].push(scored(pos, score)),
            );
            stats[k].merge(&engine.stats());
        }
        locals.into_iter().zip(stats).collect()
    }

    /// Scan one whole shard with this (single) worker: the entry point of
    /// every PE, through `core::pool::PeExecutor::scan`, which makes one
    /// call per task. Drives the chunk loop over a private cursor
    /// and returns, per batch entry, its scored subjects ranked by
    /// [`rank_scored`] and cut to that entry's `top_n`, with its kernel
    /// counters.
    pub fn execute(
        &mut self,
        batch: &[(Arc<PreparedQuery>, usize)],
        arena: &DbArena,
        plan: &ShardPlan,
    ) -> Vec<(Vec<Scored>, KernelStats)> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut per_query = self.fused(batch, arena, plan, &AtomicUsize::new(0));
        for ((scored, _), (_, top_n)) in per_query.iter_mut().zip(batch) {
            rank_scored(scored);
            scored.truncate(*top_n);
        }
        per_query
    }
}

/// Materialise ranked [`Hit`]s from internal [`Scored`] records: the one
/// place identifier strings are attached (for the reported top-N only).
/// `id_of` maps a database index to its identifier — callers hold ids in
/// different shapes (encoded records, arena snapshots, store headers).
pub fn materialize_hits(scored: &[Scored], mut id_of: impl FnMut(usize) -> String) -> Vec<Hit> {
    scored
        .iter()
        .map(|s| Hit {
            db_index: s.db_index,
            id: id_of(s.db_index),
            score: s.score,
            subject_len: s.subject_len,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EnginePreference;
    use rand::{RngExt, SeedableRng};
    use swhybrid_align::score_only::sw_score_affine;
    use swhybrid_align::scoring::Scoring;
    use swhybrid_seq::sequence::EncodedSequence;
    use swhybrid_seq::Alphabet;

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

    fn random_query(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.random_range(0..20u8)).collect()
    }

    fn prepared(query: &[u8]) -> Arc<PreparedQuery> {
        let scoring = Scoring::blosum62_affine();
        Arc::new(PreparedQuery::new(query, &scoring, EnginePreference::Auto))
    }

    /// A PE's plan (chunk floor, prefetch on) over `range`, with `kernel`.
    fn plan(range: Range<usize>, kernel: KernelChoice) -> ShardPlan {
        ShardPlan {
            range,
            chunk_size: chunk_floor(),
            kernel,
            prefetch: true,
        }
    }

    /// One worker's scan of `plan` for one query: its ranked top-`top_n`
    /// hits (ids from `db`) and its kernel counters.
    fn scan(
        query: &[u8],
        db: &[EncodedSequence],
        arena: &DbArena,
        plan: &ShardPlan,
        top_n: usize,
    ) -> (Vec<Hit>, KernelStats) {
        let batch = [(prepared(query), top_n)];
        let (scored, stats) = ShardExecutor::new()
            .execute(&batch, arena, plan)
            .pop()
            .expect("one output per batch entry");
        (materialize_hits(&scored, |i| db[i].id.clone()), stats)
    }

    /// [`scan`] over the whole of `db`, packed in database order.
    fn scan_all(
        query: &[u8],
        db: &[EncodedSequence],
        kernel: KernelChoice,
        top_n: usize,
    ) -> (Vec<Hit>, KernelStats) {
        let arena = DbArena::from_encoded(db);
        scan(query, db, &arena, &plan(0..db.len(), kernel), top_n)
    }

    #[test]
    fn hits_match_scalar_scores_and_are_sorted() {
        let query = random_query(131, 60);
        let db = random_db(133, 50, 120);
        let (hits, stats) = scan_all(&query, &db, KernelChoice::Auto, 50);
        assert_eq!(hits.len(), 50);
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        let s = Scoring::blosum62_affine();
        for hit in &hits {
            let expect = sw_score_affine(&query, &db[hit.db_index].codes, &s).score;
            assert_eq!(hit.score, expect, "hit {}", hit.id);
        }
        assert_eq!(stats.total(), 50);
    }

    #[test]
    fn every_kernel_choice_yields_identical_hits() {
        let query = random_query(171, 70);
        let db = random_db(173, 160, 140);
        let (baseline, _) = scan_all(&query, &db, KernelChoice::Striped, 25);
        for kernel in [KernelChoice::InterSeq, KernelChoice::Auto] {
            // Scan order is the arena's: database order, or ascending
            // length (hits are keyed by database index either way).
            for (order, arena) in [
                ("db", DbArena::from_encoded(&db)),
                ("sorted", DbArena::length_sorted(&db)),
            ] {
                let plan = ShardPlan {
                    chunk_size: 33,
                    ..plan(0..arena.len(), kernel)
                };
                let (hits, _) = scan(&query, &db, &arena, &plan, 25);
                assert_eq!(hits, baseline, "kernel {kernel:?} order {order}");
            }
        }
    }

    #[test]
    fn interseq_choice_populates_its_counters() {
        let query = random_query(177, 50);
        let db = random_db(179, 100, 60);
        let (_, stats) = scan_all(&query, &db, KernelChoice::InterSeq, 20);
        assert_eq!(stats.interseq_total(), 100);
        assert_eq!(stats.total(), 100);
        assert!(stats.chunks_interseq >= 1);
        assert_eq!(stats.chunks_striped, 0);
        assert!(stats.cells_computed > 0);
    }

    #[test]
    fn auto_prefers_interseq_on_homogeneous_chunks_and_striped_on_tiny_ones() {
        let query = random_query(181, 60);
        // 128 similar-length subjects in one big chunk: inter-sequence.
        let db = random_db(183, 128, 60);
        let arena = DbArena::from_encoded(&db);
        let bulk = ShardPlan {
            chunk_size: 128,
            ..plan(0..db.len(), KernelChoice::Auto)
        };
        let (_, stats) = scan(&query, &db, &arena, &bulk, 20);
        assert!(stats.chunks_interseq >= 1, "{stats:?}");
        // 5 subjects: lanes can't fill, Auto must stay striped.
        let (_, tiny) = scan_all(&query, &db[..5], KernelChoice::Auto, 20);
        assert_eq!(tiny.chunks_interseq, 0);
        assert!(tiny.chunks_striped >= 1);
    }

    #[test]
    fn top_n_truncates() {
        let db = random_db(141, 30, 60);
        let query: Vec<u8> = (0..40).map(|i| (i % 20) as u8).collect();
        assert_eq!(scan_all(&query, &db, KernelChoice::Auto, 5).0.len(), 5);
    }

    #[test]
    fn planted_homolog_ranks_first() {
        let query = random_query(149, 100);
        let mut db = random_db(151, 40, 120);
        // Plant a copy of the query in the middle of the database.
        db[17] = EncodedSequence {
            id: "planted".into(),
            codes: query.clone(),
            alphabet: Alphabet::Protein,
        };
        let (hits, _) = scan_all(&query, &db, KernelChoice::Auto, 20);
        assert_eq!(hits[0].id, "planted");
        let s = Scoring::blosum62_affine();
        assert_eq!(hits[0].score, sw_score_affine(&query, &query, &s).score);
    }

    #[test]
    fn cells_accounting() {
        let db = random_db(157, 10, 50);
        let total: u64 = db.iter().map(|d| d.len() as u64).sum();
        let query: Vec<u8> = (0..25).map(|i| (i % 20) as u8).collect();
        let (_, stats) = scan_all(&query, &db, KernelChoice::Auto, 20);
        // No subject here saturates i8, so every cell is computed once.
        assert_eq!(stats.cells_computed, 25 * total);
    }

    #[test]
    fn saturating_subjects_cost_extra_cells() {
        let query: Vec<u8> = (0..200).map(|i| (i % 20) as u8).collect();
        let db = vec![EncodedSequence {
            id: "self".into(),
            codes: query.clone(),
            alphabet: Alphabet::Protein,
        }];
        for kernel in [KernelChoice::Striped, KernelChoice::InterSeq] {
            let (_, stats) = scan_all(&query, &db, kernel, 20);
            assert!(
                stats.cells_computed > 200 * 200,
                "kernel {kernel:?}: self-match must saturate i8 and recompute"
            );
        }
    }

    #[test]
    fn empty_database_yields_no_hits() {
        let (hits, stats) = scan_all(&[0, 1, 2], &[], KernelChoice::Auto, 20);
        assert!(hits.is_empty());
        assert_eq!(stats, KernelStats::default());
    }

    /// Shard the database arbitrarily, scan each shard, merge the per-shard
    /// top-N lists: the ranking must be bit-identical to one scan of the
    /// whole database. The query service and `search --threads N` rely on
    /// this when they split one query across shard tasks.
    #[test]
    fn merge_top_n_matches_whole_db_scan() {
        let query = random_query(167, 70);
        let db = random_db(169, 120, 100);
        let arena = DbArena::from_encoded(&db);
        let (whole, _) = scan_all(&query, &db, KernelChoice::Auto, 15);
        let bounds = [0usize, 13, 50, 51, 120];
        let shard_lists = bounds.windows(2).map(|w| {
            scan(
                &query,
                &db,
                &arena,
                &plan(w[0]..w[1], KernelChoice::Auto),
                15,
            )
            .0
        });
        assert_eq!(crate::search::merge_top_n(shard_lists, 15), whole);
    }

    #[test]
    fn subrange_matches_subject_slice() {
        let query = random_query(191, 60);
        let db = random_db(193, 80, 90);
        let arena = DbArena::from_encoded(&db);
        let (sub, sub_stats) = scan(&query, &db, &arena, &plan(20..55, KernelChoice::Auto), 10);
        let (slice, slice_stats) = scan_all(&query, &db[20..55], KernelChoice::Auto, 10);
        let rebased: Vec<(usize, i32)> = slice.iter().map(|h| (h.db_index + 20, h.score)).collect();
        let got: Vec<(usize, i32)> = sub.iter().map(|h| (h.db_index, h.score)).collect();
        assert_eq!(got, rebased);
        assert_eq!(sub_stats, slice_stats);
    }

    /// The fused-scan law: each output of a batched scan is byte-identical
    /// to scanning that query alone with the same plan — scored list and
    /// kernel counters both match, across kernel choices, chunk sizes and
    /// per-entry depths. Two queries have i8-saturating self-matches spread
    /// over every chunk: 24 of the 80-aa query, more than one i16 lane
    /// group on every tier, so their deferred reruns run both mid-scan and
    /// at the end, and 5 of the 60-aa query.
    #[test]
    fn fused_batch_matches_solo_scans() {
        let queries: Vec<Vec<u8>> = [(199u64, 40), (211, 80), (223, 17), (227, 60)]
            .iter()
            .map(|&(seed, len)| random_query(seed, len))
            .collect();
        let mut db = random_db(197, 120, 110);
        for i in 0..24 {
            db[5 * i + 1].codes = queries[1].clone();
        }
        for pos in [3, 40, 64, 90, 118] {
            db[pos].codes = queries[3].clone();
        }
        let arena = DbArena::from_encoded(&db);
        let batch: Vec<(Arc<PreparedQuery>, usize)> = queries
            .iter()
            .enumerate()
            // Distinct per-entry depths.
            .map(|(i, query)| (prepared(query), 5 + 3 * i))
            .collect();
        for kernel in [
            KernelChoice::Auto,
            KernelChoice::Striped,
            KernelChoice::InterSeq,
        ] {
            for chunk_size in [9, chunk_floor()] {
                let plan = ShardPlan {
                    chunk_size,
                    ..plan(0..arena.len(), kernel)
                };
                let fused = ShardExecutor::new().execute(&batch, &arena, &plan);
                assert_eq!(fused.len(), batch.len());
                for (entry, out) in batch.iter().zip(&fused) {
                    let solo =
                        ShardExecutor::new().execute(std::slice::from_ref(entry), &arena, &plan);
                    assert_eq!(out, &solo[0], "{kernel:?} chunk {chunk_size}");
                }
                let saturated = fused[1].1.interseq_i16 + fused[1].1.resolved_i16;
                assert_eq!(saturated, 24, "{kernel:?} chunk {chunk_size}");
            }
        }
    }

    /// Forty i8-saturating subjects, one per chunk: their i16 reruns wait
    /// across chunks and run in ⌈40 / i16 lanes⌉ passes, each a whole lane
    /// group but the last. Every score stays exact, and the counters are
    /// those of one rerun per subject.
    #[test]
    fn deferred_reruns_fill_whole_i16_lane_groups() {
        let query = random_query(241, 60);
        let mut db = random_db(243, 40 * 16, 50);
        for chunk in 0..40 {
            db[chunk * 16 + chunk % 16].codes = query.clone();
        }
        let arena = DbArena::from_encoded(&db);
        let plan = ShardPlan {
            chunk_size: 16,
            ..plan(0..arena.len(), KernelChoice::InterSeq)
        };
        let scoring = Scoring::blosum62_affine();
        for isa in Isa::available() {
            let batch = [(
                Arc::new(PreparedQuery::with_isa(&query, &scoring, isa)),
                db.len(),
            )];
            let mut executor = ShardExecutor::new();
            let (scored, stats) = executor.execute(&batch, &arena, &plan).remove(0);
            assert_eq!(
                (stats.interseq_i16, stats.interseq_scalar),
                (40, 0),
                "{isa:?}"
            );
            let lanes = isa.lanes::<i16>() as u64;
            assert_eq!(
                executor.scratch.interseq.w16.passes,
                40u64.div_ceil(lanes),
                "{isa:?}"
            );
            assert_eq!(scored.len(), db.len());
            for hit in &scored {
                let expect = sw_score_affine(&query, &db[hit.db_index].codes, &scoring).score;
                assert_eq!(hit.score, expect, "{isa:?} subject {}", hit.db_index);
            }
        }
    }

    /// `execute` is `solo` on a private cursor, ranked and cut to depth;
    /// an empty batch returns nothing without touching the arena.
    #[test]
    fn fused_batch_edge_sizes() {
        let db = random_db(229, 40, 70);
        let arena = DbArena::from_encoded(&db);
        let query = prepared(&random_query(233, 30));
        let plan = plan(10..35, KernelChoice::Auto);
        let executed = ShardExecutor::new().execute(&[(Arc::clone(&query), 7)], &arena, &plan);
        let (mut scored, stats) =
            ShardExecutor::new().solo(&query, &arena, &plan, &AtomicUsize::new(0), 7);
        rank_scored(&mut scored);
        scored.truncate(7);
        assert_eq!(executed, vec![(scored, stats)]);
        assert!(ShardExecutor::new().execute(&[], &arena, &plan).is_empty());
    }

    /// The `Auto` dispatcher's two tests on every tier (both scale with the
    /// tier's i8 lane count). A full chunk: skew, one row each side of the
    /// bound, and no query-length bound. A sub-floor chunk: the lane-fill
    /// cost, where the query's length decides.
    #[test]
    fn auto_dispatch_table() {
        let arena_of = |lens: &[usize]| {
            let db: Vec<EncodedSequence> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| EncodedSequence {
                    id: format!("s{i}"),
                    codes: vec![(i % 20) as u8; len],
                    alphabet: Alphabet::Protein,
                })
                .collect();
            DbArena::from_encoded(&db)
        };
        let scoring = Scoring::blosum62_affine();
        // A shard's tail on a length-ordered scan: k subjects spread evenly
        // over 1,200–2,000 aa, ascending.
        let tail = |k: usize| -> Vec<usize> { (0..k).map(|i| 1200 + 800 * i / (k - 1)).collect() };
        let ladder = [1, 8, 24, 64, 96, 128, 256, 512, 2048, 4096, 16_384];
        for isa in Isa::available() {
            let lanes = isa.lanes::<i8>();
            let picks = |query_len: usize, lens: &[usize]| {
                let prepared = PreparedQuery::with_isa(&vec![0u8; query_len], &scoring, isa);
                auto_picks_interseq(&prepared, &arena_of(lens), 0..lens.len())
            };
            let full = vec![300usize; chunk_floor()];
            // Query length: a full, unskewed chunk goes inter-sequence at
            // any length, and so does a chunk of exactly 2 × lanes.
            for query_len in [32, 128, 129, 2048, 4096, 16_384] {
                assert!(picks(query_len, &full), "{isa:?}: {query_len} aa");
                assert!(picks(query_len, &vec![300; 2 * lanes]), "{isa:?}");
            }
            assert!(!picks(64, &[]), "{isa:?}: empty chunk");
            assert!(!picks(64, &[0; 5]), "{isa:?}: empty subjects");
            // Skew: one subject at MAX_SKEW × the mean lane load is the
            // last inter-sequence chunk; a residue more tips it to striped.
            let mut skewed = full.clone();
            let rest = 300 * (skewed.len() - 1);
            // max·lanes ≤ 8·(rest + max)  ⇔  max ≤ 8·rest / (lanes − 8)
            let edge = 8 * rest / (lanes - 8);
            skewed[7] = edge;
            assert!(picks(64, &skewed), "{isa:?}: skew at the bound");
            skewed[7] = edge + 1;
            assert!(!picks(64, &skewed), "{isa:?}: skew past the bound");
            // Lane fill: a 21-subject tail (`scan_short`'s) goes
            // inter-sequence for a short query and striped for a long one;
            // an 8-subject tail stays striped at every query length.
            assert!(picks(64, &tail(21)), "{isa:?}: 21 subjects, 64 aa");
            assert!(!picks(2048, &tail(21)), "{isa:?}: 21 subjects, 2,048 aa");
            for query_len in ladder {
                assert!(
                    !picks(query_len, &tail(8)),
                    "{isa:?}: 8 subjects, {query_len} aa"
                );
            }
            // One subject fewer than the floor, of like lengths, fills two
            // lane rounds: inter-sequence at every query length (a fixed
            // lane-fill floor sent it striped).
            for query_len in ladder {
                assert!(picks(query_len, &vec![300; 2 * lanes - 1]), "{isa:?}");
            }
        }
    }

    /// A pass's length on a sub-floor chunk: the busiest lane, each subject
    /// joining the lane that frees first.
    #[test]
    fn pass_columns_follows_the_lane_refill() {
        let arena = DbArena::from_encoded(
            &[5usize, 3, 4, 2, 7]
                .iter()
                .map(|&len| EncodedSequence {
                    id: String::new(),
                    codes: vec![0; len],
                    alphabet: Alphabet::Protein,
                })
                .collect::<Vec<_>>(),
        );
        // Two lanes: 5 | 3, then 4 joins the second (3 → 7), 2 the first
        // (5 → 7), 7 the first again (tie, lowest lane): 14.
        assert_eq!(pass_columns(&arena, 0..5, 2), 14);
        assert_eq!(pass_columns(&arena, 0..5, 32), 7);
        assert_eq!(pass_columns(&arena, 1..3, 1), 7);
        assert_eq!(pass_columns(&arena, 2..2, 4), 0);
    }

    /// Pin the floor: 2 × the widest (AVX2 32 × i8) lane count. If a wider
    /// kernel is ever added, this test forces the floor (and every default
    /// chunk size) to be revisited.
    #[test]
    fn chunk_floor_is_twice_the_widest_lane_count() {
        assert_eq!(chunk_floor(), 64);
    }
}
