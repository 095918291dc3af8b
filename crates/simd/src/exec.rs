//! The shard-execution layer: ONE implementation of the chunked database
//! scan, shared by every owner of a shard.
//!
//! The paper's architecture (Fig. 1) is a single task-execution environment
//! driving heterogeneous PEs; this module is that environment's inner loop.
//! Two owners drive it:
//!
//! * the one-shot `search` scan workers ([`crate::search::search_arena`]),
//! * the one compute step of every PE (`core::pool::PeExecutor::scan`:
//!   daemon worker threads, slaves, local-fleet threads).
//!
//! Each owner builds a [`ShardPlan`] (which arena positions to scan, the
//! chunk size, the kernel preference, prefetch) and drives a
//! [`ShardExecutor`], which owns the per-worker [`KernelScratch`] for its
//! lifetime and implements chunk claiming, per-chunk [`KernelChoice`]
//! dispatch, multi-query DP driving (a lone query is the batch of one),
//! [`KernelStats`] accumulation, and the per-query top-N demux. Because the
//! loop exists once, hit tables and kernel counters are byte-identical
//! across the transports by construction — the tri-path oracle test
//! pins this.
//!
//! The chunk size every PE scans at is [`chunk_floor`] = 2 × the widest
//! kernel lane count. Below that floor the `Auto` dispatcher can never fill
//! the inter-sequence lanes, so every chunk silently degrades to the
//! striped kernel.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::engine::{KernelStats, PreparedQuery, StripedEngine};
use crate::scratch::KernelScratch;
use crate::search::{rank_scored, Hit, KernelChoice, ScanOutput, Scored, SearchConfig};
use swhybrid_align::stats::cells;
use swhybrid_seq::arena::DbArena;

/// The minimum chunk size any scan path may use: 2 × the widest
/// inter-sequence kernel lane count (AVX2, 32 × i8). A chunk narrower than
/// this can never satisfy the `Auto` dispatcher's lane-fill guard, so every
/// `Auto` chunk silently runs striped — a performance bug with no wrong
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

impl ShardPlan {
    /// Derive a plan from a [`SearchConfig`] (the search-path spelling).
    pub fn from_config(range: Range<usize>, config: &SearchConfig) -> ShardPlan {
        ShardPlan {
            range,
            chunk_size: config.chunk_size,
            kernel: config.kernel,
            prefetch: config.prefetch,
        }
    }
}

/// Should `Auto` send this chunk to the inter-sequence kernel?
///
/// Each of the three tests is a measured crossover against the striped
/// kernel (PR 22 tables in CHANGES.md: AVX2 and SSE4.1, whole-database
/// scans of a protein-composition database, a fresh query per timed scan):
///
/// * **lane fill** — in chunks of fewer than `2 × LANES` subjects the
///   inter-sequence lanes cannot stay full: on AVX2 it is 4–8× slower than
///   striped at 4–8 subjects, 1.3–1.5× slower at 32, level at 48–64 and
///   1.3× faster at 128;
/// * **query length** — striped throughput grows with the query (longer
///   stripes amortise the per-column lazy-F visit and the per-subject
///   setup) while inter-sequence throughput is flat. On a
///   protein-composition database the two are within ±10 % of each other
///   from 32 to 192 residues, crossing at ≈ 105 (SSE4.1) and ≈ 170 (AVX2);
///   above, striped pulls away (+16 % at 256, +30–40 % at 512, ≈ 2× by
///   2048). The tiers' crossovers are 1.5× apart in residues and would be
///   3× apart in stripe segments, so the constant is in residues. Only
///   uniform-composition synthetic subjects (more positive cells, so more
///   live carries) move the crossover up, to ≈ 165–225;
/// * **skew** — when one subject dwarfs the chunk every other lane idles
///   while it drains (the test compares the longest subject against the
///   chunk's mean length).
fn auto_picks_interseq(prepared: &PreparedQuery, arena: &DbArena, chunk: Range<usize>) -> bool {
    /// The measured striped/inter-sequence crossover, in query residues.
    const MAX_INTERSEQ_QUERY: usize = 128;
    /// Minimum lane utilisation (as 1/MAX_SKEW). Lanes refill from the
    /// subject queue, so a long outlier only hurts once the queue drains
    /// and the other lanes idle behind it: the wasted fraction of the
    /// chunk is bounded by `max_len·lanes / total`. Past 8 the striped
    /// kernel's sequential scan is 4–9× faster; the break-even itself
    /// reads ≈ 2 on both tiers.
    const MAX_SKEW: u64 = 8;
    let lanes = prepared.isa().lanes::<i8>() as u64;
    if (chunk.len() as u64) < 2 * lanes {
        return false;
    }
    if prepared.query_len() > MAX_INTERSEQ_QUERY {
        return false;
    }
    let total = arena.range_residues(chunk.clone());
    if total == 0 {
        return false;
    }
    let max_len = chunk.clone().map(|p| arena.seq_len(p)).max().unwrap_or(0) as u64;
    max_len * lanes <= MAX_SKEW * total
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
    /// query against the chunk before releasing it. Each entry is
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
        // Per-chunk lists, hoisted out of the claim loop and reused (cleared
        // each chunk) so the steady-state loop allocates nothing.
        let mut picks_interseq: Vec<bool> = Vec::with_capacity(batch.len());
        let mut fused: Vec<usize> = Vec::with_capacity(batch.len());
        let mut fused_batch: Vec<&PreparedQuery> = Vec::with_capacity(batch.len());
        let mut fused_stats: Vec<KernelStats> = Vec::with_capacity(batch.len());
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
            fused_stats.clear();
            fused_stats.resize(fused.len(), KernelStats::default());
            // The fused pass folds in first (its scores borrow `scratch`),
            // then the striped queries run; per-query work and counters are
            // the same either way because each query takes exactly one of
            // the paths.
            {
                let fused_scores = crate::interseq::scores_batch(
                    &fused_batch,
                    arena,
                    start..end,
                    &mut fused_stats,
                    scratch,
                    plan.prefetch,
                );
                for ((&k, scores), chunk_stats) in fused.iter().zip(fused_scores).zip(&fused_stats)
                {
                    stats[k].chunks_interseq += 1;
                    stats[k].merge(chunk_stats);
                    for (offset, &score) in scores.iter().enumerate() {
                        let pos = start + offset;
                        locals[k].push(Scored {
                            db_index: arena.db_index(pos),
                            score,
                            subject_len: arena.seq_len(pos),
                        });
                    }
                }
            }
            for (k, top_n) in batch.iter().map(|&(_, top_n)| top_n).enumerate() {
                if !picks_interseq[k] {
                    stats[k].chunks_striped += 1;
                    for pos in start..end {
                        // Pull the next subject's residues towards L1
                        // while this one is scored.
                        if plan.prefetch && pos + 1 < end {
                            crate::scratch::prefetch_read(arena.residues(pos + 1));
                        }
                        let score = engines[k].score(arena.residues(pos), scratch);
                        locals[k].push(Scored {
                            db_index: arena.db_index(pos),
                            score,
                            subject_len: arena.seq_len(pos),
                        });
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
            stats[k].merge(&engine.stats());
        }
        locals.into_iter().zip(stats).collect()
    }

    /// Scan one whole shard with this (single) worker: the entry point of
    /// the long-lived owners — every PE, through
    /// `core::pool::PeExecutor::scan` — that execute one shard task at a
    /// time. Drives the chunk loop over a private cursor and demuxes into
    /// per-query outputs.
    pub fn execute(
        &mut self,
        batch: &[(Arc<PreparedQuery>, usize)],
        arena: &DbArena,
        plan: &ShardPlan,
    ) -> Vec<ScanOutput> {
        if batch.is_empty() {
            return Vec::new();
        }
        let cursor = AtomicUsize::new(0);
        let per_query = self.fused(batch, arena, plan, &cursor);
        demux_top_n(per_query, batch, arena, plan.range.clone())
    }
}

/// THE per-query top-N demux: rank each query's merged scored list by
/// [`rank_scored`]'s total order, truncate to that query's depth, and
/// attach the cell accounting. Every multi-query path (fused search,
/// serve PE, slave) ends here, so per-query outputs are identical across
/// decompositions.
pub(crate) fn demux_top_n(
    merged: Vec<(Vec<Scored>, KernelStats)>,
    batch: &[(Arc<PreparedQuery>, usize)],
    arena: &DbArena,
    range: Range<usize>,
) -> Vec<ScanOutput> {
    merged
        .into_iter()
        .zip(batch)
        .map(|((mut scored, stats), (prepared, top_n))| {
            rank_scored(&mut scored);
            scored.truncate(*top_n);
            ScanOutput {
                scored,
                cells: stats.cells_computed,
                cells_nominal: cells(prepared.query_len(), 1) * arena.range_residues(range.clone()),
                stats,
            }
        })
        .collect()
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
    use crate::vec::Isa;
    use swhybrid_align::scoring::Scoring;
    use swhybrid_seq::sequence::EncodedSequence;
    use swhybrid_seq::Alphabet;

    /// The `Auto` dispatcher's three tests, one row each side of every
    /// boundary, on every tier (the lane-fill and skew bounds scale with
    /// the tier's i8 lane count; the query cutoff does not).
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
        for isa in Isa::available() {
            let lanes = isa.lanes::<i8>();
            let picks = |query_len: usize, lens: &[usize]| {
                let prepared = PreparedQuery::with_isa(&vec![0u8; query_len], &scoring, isa);
                auto_picks_interseq(&prepared, &arena_of(lens), 0..lens.len())
            };
            let full = vec![300usize; chunk_floor()];
            // Query length: the cutoff itself is inter-sequence, one past it
            // and everything longer is striped.
            assert!(picks(32, &full), "{isa:?}");
            assert!(picks(128, &full), "{isa:?}: at the cutoff");
            assert!(!picks(129, &full), "{isa:?}: one past the cutoff");
            assert!(!picks(2048, &full), "{isa:?}");
            assert!(!picks(4096, &full), "{isa:?}");
            // Lane fill: a chunk of 2 × lanes fills them, one subject fewer
            // does not — so the 63-subject tail is striped on AVX2 only.
            assert!(picks(64, &vec![300; 2 * lanes]), "{isa:?}");
            assert!(!picks(64, &vec![300; 2 * lanes - 1]), "{isa:?}");
            assert_eq!(picks(64, &[300; 63]), 63 >= 2 * lanes, "{isa:?}");
            assert!(!picks(64, &[]), "{isa:?}: empty chunk");
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
        }
    }

    /// Pin the floor: 2 × the widest (AVX2 32 × i8) lane count. If a wider
    /// kernel is ever added, this test forces the floor (and every default
    /// chunk size) to be revisited.
    #[test]
    fn chunk_floor_is_twice_the_widest_lane_count() {
        assert_eq!(chunk_floor(), 64);
    }
}
