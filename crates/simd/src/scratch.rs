//! Per-worker kernel scratch: every buffer the scan hot path needs, owned
//! once per PE thread and reused across chunks.
//!
//! The paper's dynamic workload adjustment assumes each PE's measured GCUPS
//! reflects the hardware; an allocator round-trip per claimed chunk breaks
//! that. [`KernelScratch`] therefore owns the complete working set of every
//! kernel family — the striped H/E rows ([`crate::portable::Workspace`] at
//! both widths), the inter-sequence lane state at both widths (one slot
//! per batch query), the chunk's job list and the i16 rerun queues, and
//! the score output vectors — all sized high-water: each buffer grows to the
//! largest chunk/query it has seen and is then only `clear()`ed and
//! `resize()`d (a length change, never a reallocation) on reuse. After the
//! first chunk a worker claims, the steady-state scan performs **zero** heap
//! allocations per chunk (enforced by `tests/alloc_regression.rs`).
//!
//! Ownership: one `KernelScratch` per PE, inside its [`crate::ShardExecutor`]
//! (every PE's `core::pool::PeExecutor`: serve workers, slaves, fleet
//! threads, `search` shards) and living for the PE's lifetime — per-PE,
//! not per-chunk, because the whole point is that chunk N+1 finds chunk N's
//! buffers still warm in cache.

#![allow(unsafe_code)]

use crate::lanes::Lane;
use crate::portable::Workspace;

/// Reusable buffers for one inter-sequence lane width: one slot of DP state
/// and results per batch query, plus the portable pass's lane state. Grown
/// high-water, never shrunk.
pub(crate) struct WidthBuf<T: Lane> {
    /// Per-query pass results (`Some(score)` exact, `None` saturated).
    pub(crate) results: Vec<Vec<Option<i32>>>,
    /// Per-query lane-major H rows, `(m + 1) * lanes`.
    pub(crate) h: Vec<Vec<T>>,
    /// Per-query lane-major E rows, `(m + 1) * lanes`.
    pub(crate) e: Vec<Vec<T>>,
    /// Per-lane running best: flattened `nq * lanes` in the vector pass,
    /// `lanes` in the portable pass (one query at a time).
    pub(crate) best: Vec<T>,
    /// Portable pass: query-major score columns, `dim * m`.
    pub(crate) colprof: Vec<T>,
    /// Portable pass: the gathered score column, `(m + 1) * lanes`.
    pub(crate) score_col: Vec<T>,
    /// Portable pass: per-lane job index (or IDLE).
    pub(crate) lane_job: Vec<usize>,
    /// Portable pass: per-lane position within the subject.
    pub(crate) lane_pos: Vec<usize>,
    /// Portable pass: per-lane liveness for the current column.
    pub(crate) live: Vec<bool>,
    /// Portable pass: per-lane H[j-1] of the previous column.
    pub(crate) diag: Vec<T>,
    /// Portable pass: per-lane F carry.
    pub(crate) f: Vec<T>,
    /// Passes run on this buffer: what the rerun-packing tests count.
    #[cfg(test)]
    pub(crate) passes: u64,
}

impl<T: Lane> WidthBuf<T> {
    pub(crate) fn new() -> Self {
        WidthBuf {
            results: Vec::new(),
            h: Vec::new(),
            e: Vec::new(),
            best: Vec::new(),
            colprof: Vec::new(),
            score_col: Vec::new(),
            lane_job: Vec::new(),
            lane_pos: Vec::new(),
            live: Vec::new(),
            diag: Vec::new(),
            f: Vec::new(),
            #[cfg(test)]
            passes: 0,
        }
    }

    /// Make sure at least `nq` per-query slots exist. Never shrinks, so a
    /// smaller batch leaves the larger batch's warm rows in place.
    pub(crate) fn grow_slots(&mut self, nq: usize) {
        if self.results.len() < nq {
            self.results.resize_with(nq, Vec::new);
            self.h.resize_with(nq, Vec::new);
            self.e.resize_with(nq, Vec::new);
        }
    }
}

/// The inter-sequence kernel chain's complete buffer set: job lists plus
/// one [`WidthBuf`] per lane width of the i8 → i16 fallback chain.
pub(crate) struct InterSeqScratch {
    /// Scan positions of the current chunk.
    pub(crate) jobs: Vec<usize>,
    /// Per batch entry of a multi-chunk scan: the scan positions whose i8
    /// lane saturated and whose i16 rerun waits for a whole lane group.
    pub(crate) reruns: Vec<Vec<usize>>,
    pub(crate) w8: WidthBuf<i8>,
    pub(crate) w16: WidthBuf<i16>,
}

impl InterSeqScratch {
    fn new() -> Self {
        InterSeqScratch {
            jobs: Vec::new(),
            reruns: Vec::new(),
            w8: WidthBuf::new(),
            w16: WidthBuf::new(),
        }
    }

    /// Empty every rerun queue, keeping its capacity.
    pub(crate) fn clear_reruns(&mut self) {
        self.reruns.iter_mut().for_each(Vec::clear);
    }
}

/// Every buffer the scan kernels need, owned by one worker thread for its
/// lifetime. See the module docs for the ownership and sizing model.
pub struct KernelScratch {
    /// Striped i8 DP rows (first pass of the saturation chain).
    pub(crate) ws8: Workspace<i8>,
    /// Striped i16 DP rows (the saturation rerun width).
    pub(crate) ws16: Workspace<i16>,
    /// Inter-sequence chain buffers.
    pub(crate) interseq: InterSeqScratch,
    /// Inter-sequence chain score output, one vector per batch query.
    pub(crate) scores: Vec<Vec<i32>>,
}

impl KernelScratch {
    /// Fresh, empty scratch; every buffer sizes itself high-water on first
    /// use.
    pub fn new() -> Self {
        KernelScratch {
            ws8: Workspace::new(),
            ws16: Workspace::new(),
            interseq: InterSeqScratch::new(),
            scores: Vec::new(),
        }
    }
}

impl Default for KernelScratch {
    fn default() -> Self {
        KernelScratch::new()
    }
}

/// Hint the CPU to pull the head of `data` (up to four cache lines) into
/// L1 ahead of use. Purely advisory: results never depend on it, which is
/// why [`crate::exec::ShardPlan::prefetch`] may toggle it freely.
#[inline(always)]
pub(crate) fn prefetch_read(data: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let mut off = 0usize;
        while off < data.len() && off < 256 {
            // SAFETY: prefetch is a pure hint and the pointer stays
            // within `data`'s bounds.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(off) as *const i8) };
            off += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}
