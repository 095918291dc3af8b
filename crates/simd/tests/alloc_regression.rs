//! Steady-state allocation regression: after the first (warming) chunk, a
//! scan worker's hot path must perform **zero** heap allocations per chunk,
//! for every kernel family — striped, and the inter-sequence chain at both
//! K = 1 and K > 1, with its i16 reruns deferred across chunks. The [`KernelScratch`] buffers are sized high-water on
//! the first chunk and only `clear()`/`resize()`d afterwards; this test is
//! the enforcement for that contract (see `crates/simd/src/scratch.rs`).
//!
//! The counting allocator wraps the system allocator and counts every
//! `alloc`/`realloc`/`alloc_zeroed` call process-wide, so every probe runs
//! inside one `#[test]` (the default harness would interleave counts from
//! concurrent tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbArena};
use swhybrid_simd::engine::{EnginePreference, KernelStats, PreparedQuery, StripedEngine};
use swhybrid_simd::interseq::scores_batch;
use swhybrid_simd::{Isa, KernelChoice, KernelScratch, ShardExecutor, ShardPlan};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator plus a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count across `f`, measured on this thread only in the sense
/// that nothing else runs concurrently (single `#[test]`).
fn allocations_during<R>(mut f: impl FnMut() -> R) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    std::hint::black_box(r);
    ALLOCATIONS.load(Ordering::Relaxed) - before
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

/// Deterministic pseudo-random residues (no rand dependency in this test:
/// the allocator hook must observe only the kernels).
fn residues(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 20) as u8
        })
        .collect()
}

fn arena(n: usize, max_len: usize) -> DbArena {
    let db: Vec<EncodedSequence> = (0..n)
        .map(|i| EncodedSequence {
            id: format!("s{i}"),
            codes: residues(i as u64 + 1, 40 + (i * 17) % max_len),
            alphabet: Alphabet::Protein,
        })
        .collect();
    DbArena::from_encoded(&db)
}

/// The K = 1 scan path: a batch of one through the batch chain.
fn scores_one(
    prepared: &PreparedQuery,
    arena: &DbArena,
    range: std::ops::Range<usize>,
    stats: &mut KernelStats,
    scratch: &mut KernelScratch,
    prefetch: bool,
) {
    let stats = std::slice::from_mut(stats);
    scores_batch(&[prepared], arena, range, stats, scratch, prefetch);
}

#[test]
fn warm_scan_paths_allocate_nothing_per_chunk() {
    let scoring = scoring();
    let arena = arena(96, 160);
    let chunk = 32usize;
    let chunks: Vec<std::ops::Range<usize>> = (0..arena.len())
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(arena.len()))
        .collect();
    assert!(
        chunks.len() >= 3,
        "need several chunks to measure steady state"
    );

    for isa in Isa::available() {
        let query = residues(99, 120);
        let prepared = PreparedQuery::with_isa(&query, &scoring, isa);

        // Inter-sequence chain at K = 1: chunk 0 warms the scratch high-water;
        // every later chunk must be allocation-free.
        let mut scratch = KernelScratch::new();
        let mut stats = KernelStats::default();
        scores_one(
            &prepared,
            &arena,
            chunks[0].clone(),
            &mut stats,
            &mut scratch,
            true,
        );
        for c in &chunks[1..] {
            let n = allocations_during(|| {
                scores_one(&prepared, &arena, c.clone(), &mut stats, &mut scratch, true);
            });
            assert_eq!(
                n, 0,
                "interseq chunk {c:?} allocated {n} times after warmup ({isa:?})"
            );
        }

        // Striped engine: one warming call sizes both width workspaces.
        let mut scratch = KernelScratch::new();
        let mut engine =
            StripedEngine::with_prepared(Arc::new(PreparedQuery::with_isa(&query, &scoring, isa)));
        engine.score(arena.residues(0), &mut scratch);
        let n = allocations_during(|| {
            for pos in 0..arena.len() {
                engine.score(arena.residues(pos), &mut scratch);
            }
        });
        assert_eq!(
            n, 0,
            "striped scan allocated {n} times after warmup ({isa:?})"
        );
    }

    // Inter-sequence chain at K = 3: the batch and per-query outputs are
    // part of the scratch too.
    let q0 = residues(7, 90);
    let q1 = residues(8, 110);
    let q2 = residues(9, 70);
    let batch: Vec<PreparedQuery> = [&q0, &q1, &q2]
        .iter()
        .map(|q| PreparedQuery::new(q, &scoring, EnginePreference::Auto))
        .collect();
    let refs: Vec<&PreparedQuery> = batch.iter().collect();
    let mut scratch = KernelScratch::new();
    let mut stats = vec![KernelStats::default(); refs.len()];
    scores_batch(
        &refs,
        &arena,
        chunks[0].clone(),
        &mut stats,
        &mut scratch,
        true,
    );
    for c in &chunks[1..] {
        let n = allocations_during(|| {
            scores_batch(&refs, &arena, c.clone(), &mut stats, &mut scratch, true);
        });
        assert_eq!(n, 0, "fused chunk {c:?} allocated {n} times after warmup");
    }

    // Chunk-count independence: the steady-state cost does not depend on
    // how many chunks have already been scanned — 40 extra chunks (with
    // prefetch off, covering both traversal modes) still cost zero.
    let query = residues(3, 100);
    let prepared = PreparedQuery::new(&query, &scoring, EnginePreference::Auto);
    let mut scratch = KernelScratch::new();
    let mut stats = KernelStats::default();
    scores_one(&prepared, &arena, 0..32, &mut stats, &mut scratch, false);
    let n = allocations_during(|| {
        for _ in 0..20 {
            scores_one(&prepared, &arena, 16..48, &mut stats, &mut scratch, false);
            scores_one(&prepared, &arena, 32..64, &mut stats, &mut scratch, false);
        }
    });
    assert_eq!(n, 0, "40 warm chunks allocated {n} times");

    // The shard executor's chunk loop, with chunks whose subjects saturate
    // i8: each chunk's reruns wait in the scratch's queues across chunks.
    // A call allocates its per-call lists (engines, counters, hit lists),
    // so a warm executor's scan of 10 chunks and of 40 must allocate the
    // same: the chunks themselves, deferral included, allocate nothing.
    let query = residues(11, 60);
    let db: Vec<EncodedSequence> = (0..40 * 32)
        .map(|i| EncodedSequence {
            id: format!("s{i}"),
            // Four or five self-matches per chunk of 32.
            codes: if i % 7 == 3 {
                query.clone()
            } else {
                residues(i as u64 + 500, 30 + i % 40)
            },
            alphabet: Alphabet::Protein,
        })
        .collect();
    let arena = DbArena::from_encoded(&db);
    for isa in Isa::available() {
        let batch = [(Arc::new(PreparedQuery::with_isa(&query, &scoring, isa)), 5)];
        let plan = |chunks: usize| ShardPlan {
            range: 0..32 * chunks,
            chunk_size: 32,
            kernel: KernelChoice::InterSeq,
            prefetch: true,
        };
        let mut executor = ShardExecutor::new();
        let (_, stats) = executor.execute(&batch, &arena, &plan(40)).remove(0);
        let planted = (0..db.len()).filter(|i| i % 7 == 3).count() as u64;
        assert_eq!(stats.interseq_i16, planted, "{isa:?}: {stats:?}");
        let short = allocations_during(|| executor.execute(&batch, &arena, &plan(10)));
        let long = allocations_during(|| executor.execute(&batch, &arena, &plan(40)));
        assert_eq!(
            short,
            long,
            "{isa:?}: 30 more saturating chunks allocated {} times",
            long as i64 - short as i64
        );
    }
}
