//! Inter-sequence (SWIPE-style) Smith-Waterman — the Rognes \[17\] kernel
//! family.
//!
//! The paper's related-work table credits Rognes' inter-sequence SIMD
//! parallelisation with the best multicore GCUPS. Where Farrar's *striped*
//! kernel vectorises **within** one query × subject comparison, the
//! inter-sequence kernel scores `LANES` *different database sequences*
//! simultaneously, one per lane. Lanes refill from the database queue as
//! their sequences finish, so utilisation stays high regardless of length
//! skew — and, unlike the striped kernel, there is no lazy-F fixpoint loop
//! and no per-subject setup: the DP state lives across subjects and a
//! finished lane costs one column reset.
//!
//! The per-step substitution gather — each lane needs
//! `score(query[j], c_lane)` for its own residue `c_lane` — is the crux.
//! `SimdVec::gather` builds one vector per *query symbol* by looking the
//! lanes' residue codes up in that symbol's row of the symbol-major score
//! table (`PreparedQuery::score_table`): two byte shuffles, one per
//! 16-code half of the row, and an add. The DP loop then indexes this
//! `dprofile` by `query[j]`, a single load per cell, exactly like SWIPE's
//! score profile. The gather depends only on the lanes' residues, never on
//! the query, so a pass takes a query **batch**: the gather is built once
//! per column and every query of the batch runs its own DP column over it.
//! A lone query is the batch of one — there is no separate solo kernel.
//!
//! Lanes are stepped in *runs*: after each retire and refill, every lane
//! can take as many columns as the live lane with the fewest residues
//! left, so those columns run with no per-lane retire test and the lane
//! cursors move once per run.
//!
//! Inside a run each query's DP *sweeps* `SWEEP` (4) columns per pass over
//! its rows: per query row, `H` and `E` are loaded once, the sweep's cells
//! are computed in registers — a column's `H` and `E` feed the next
//! column's — and stored once, and the columns' `F` chains run side by
//! side. The sweep is written once, generic over its column count, and
//! instantiated at `SWEEP` and at 1 for a run's odd tail. A cell's four gap
//! subtractions use the wrapping `SimdVec::sub`, which issues on one more
//! vector port than the saturating ops: `vec::GapTerms` clamps the
//! penalties once and sets the floor `E` and `F` start at, which keeps
//! every lane in range (DESIGN.md §5h).
//!
//! Two implementations share one contract (`Some(score)` exact, `None`
//! saturated — recompute wider):
//!
//! * `pass_body`, the vector pass, written once over `SimdVec` and
//!   instantiated per tier ([`Isa`]) and width;
//! * `pass_portable_buf`, lane-major arrays over any [`Lane`] width —
//!   the cross-architecture path and the reference the vector pass is
//!   tested against, result for result.
//!
//! [`scores_batch`] is the saturation chain the database scan drives: one
//! 8-bit pass for the batch over a [`DbArena`] range, then per query the
//! saturated subjects rerun at 16 bits and stragglers finish with the exact
//! scalar kernel — the same fallback chain as the striped engine, but
//! batched per pass instead of per subject.

#![allow(unsafe_code)]

use std::ops::Range;

use crate::engine::{KernelStats, PreparedQuery};
use crate::lanes::Lane;
use crate::scratch::{InterSeqScratch, KernelScratch, WidthBuf};
use crate::vec::{GapTerms, Isa, SimdVec, Width, MAX_LANES, TABLE_DIM};
use swhybrid_align::gotoh::gap_params;
use swhybrid_align::score_only::sw_score_affine;
use swhybrid_align::scoring::Scoring;
use swhybrid_seq::arena::DbArena;

/// Sentinel for an idle lane.
const IDLE: usize = usize::MAX;

/// Score the scan positions `range` of `arena` against one query with the
/// inter-sequence chain, returning one exact score per position in range
/// order: [`scores_batch`] for a batch of one on a fresh scratch.
pub fn scores_arena(
    prepared: &PreparedQuery,
    arena: &DbArena,
    range: Range<usize>,
    stats: &mut KernelStats,
) -> Vec<i32> {
    let mut scratch = KernelScratch::new();
    let stats = std::slice::from_mut(stats);
    scores_batch(&[prepared], arena, range, stats, &mut scratch, false)[0].clone()
}

/// THE inter-sequence saturation chain: score every query in `batch`
/// against the scan positions `range` — ONE shared 8-bit pass, then per
/// query an i16 rerun of its saturated subjects and the exact scalar kernel
/// for stragglers. Returns one exact score vector per batch entry, in range
/// order, borrowed from `scratch` (every buffer lives there and is reused
/// across chunks: zero steady-state allocations).
///
/// Per query, scores and the `stats` accounting (`interseq_i8` /
/// `interseq_i16` / `interseq_scalar`, `cells_computed`) do not depend on
/// who else is in the batch: sharing a pass changes wall-clock, never
/// results. Queries whose scoring or tier differ cannot share a gather, so
/// a mixed batch runs one pass per query instead. `prefetch` turns on the
/// advisory next-subject prefetch at lane refill; it never changes scores
/// or `stats`.
pub fn scores_batch<'s>(
    batch: &[&PreparedQuery],
    arena: &DbArena,
    range: Range<usize>,
    stats: &mut [KernelStats],
    scratch: &'s mut KernelScratch,
    prefetch: bool,
) -> &'s [Vec<i32>] {
    assert_eq!(batch.len(), stats.len(), "one stats slot per query");
    let KernelScratch {
        interseq, scores, ..
    } = scratch;
    if batch.is_empty() {
        return &scores[..0];
    }
    if scores.len() < batch.len() {
        scores.resize_with(batch.len(), Vec::new);
    }
    let InterSeqScratch {
        jobs,
        sat,
        jobs16,
        w8,
        w16,
    } = interseq;
    jobs.clear();
    jobs.extend(range);
    let residues: u64 = jobs.iter().map(|&p| arena.seq_len(p) as u64).sum();

    let group = if shares_pass(batch) { batch.len() } else { 1 };
    for ((queries, stats), scores) in batch
        .chunks(group)
        .zip(stats.chunks_mut(group))
        .zip(scores.chunks_mut(group))
    {
        pass::<i8>(queries, arena, jobs, prefetch, w8);
        for (q, ((prepared, stats), out)) in queries.iter().zip(stats).zip(scores).enumerate() {
            stats.cells_computed += prepared.query_len() as u64 * residues;
            let r8 = &w8.results[q];
            resolve_saturated(
                prepared, arena, jobs, r8, sat, jobs16, w16, prefetch, stats, out,
            );
        }
    }
    &scores[..batch.len()]
}

/// Resolve one query's i8 pass results into exact scores: keep the exact
/// i8 lanes, rerun the saturated subjects at 16 bits (a pass for a batch of
/// one), and finish stragglers with the exact scalar kernel — accumulating
/// the width counters and the rerun cells into `stats`. `sat`/`jobs16`/`w16`
/// are scratch (reused across chunks); `out` receives one score per job.
#[allow(clippy::too_many_arguments)]
fn resolve_saturated(
    prepared: &PreparedQuery,
    arena: &DbArena,
    jobs: &[usize],
    r8: &[Option<i32>],
    sat: &mut Vec<usize>,
    jobs16: &mut Vec<usize>,
    w16: &mut WidthBuf<i16>,
    prefetch: bool,
    stats: &mut KernelStats,
    out: &mut Vec<i32>,
) {
    let query = prepared.query();
    let m = query.len() as u64;

    out.clear();
    out.resize(jobs.len(), 0);
    sat.clear(); // indices into `jobs`
    for (k, r) in r8.iter().enumerate() {
        match *r {
            Some(score) => {
                out[k] = score;
                stats.interseq_i8 += 1;
            }
            None => sat.push(k),
        }
    }
    if sat.is_empty() {
        return;
    }

    jobs16.clear();
    jobs16.extend(sat.iter().map(|&k| jobs[k]));
    stats.cells_computed += m * jobs16.iter().map(|&p| arena.seq_len(p) as u64).sum::<u64>();
    pass::<i16>(
        std::slice::from_ref(&prepared),
        arena,
        jobs16,
        prefetch,
        w16,
    );
    for (&k, r16) in sat.iter().zip(&w16.results[0]) {
        match *r16 {
            Some(score) => {
                out[k] = score;
                stats.interseq_i16 += 1;
            }
            None => {
                let subject = arena.residues(jobs[k]);
                stats.cells_computed += m * subject.len() as u64;
                out[k] = sw_score_affine(query, subject, prepared.scoring()).score;
                stats.interseq_scalar += 1;
            }
        }
    }
}

/// Whether every query of `batch` can ride ONE pass: the same tier, the
/// same padded score table and the same gap penalties (the serve path
/// guarantees one scoring per fused task). Allocation-free.
fn shares_pass(batch: &[&PreparedQuery]) -> bool {
    let Some((first, rest)) = batch.split_first() else {
        return false;
    };
    rest.iter().all(|p| {
        p.isa() == first.isa()
            && p.gap_penalties() == first.gap_penalties()
            && p.score_table() == first.score_table()
    })
}

/// One raw pass at width `T` on a fresh buffer: per batch query, one result
/// per job (`Some(score)` exact, `None` saturated `T::MAX`). `None` when
/// the batch cannot share a pass. The scan goes through [`scores_batch`];
/// this is the per-width view the kernel-equivalence tests compare against
/// the scalar oracle.
pub fn pass_results<T: Width>(
    batch: &[&PreparedQuery],
    arena: &DbArena,
    jobs: &[usize],
) -> Option<Vec<Vec<Option<i32>>>> {
    shares_pass(batch).then(|| {
        let mut buf = WidthBuf::new();
        pass::<T>(batch, arena, jobs, false, &mut buf);
        buf.results
    })
}

/// One pass at width `T` for a batch that [`shares_pass`], on the batch's
/// tier: results land in `buf.results[q]` for batch query `q`.
fn pass<T: Width>(
    batch: &[&PreparedQuery],
    arena: &DbArena,
    jobs: &[usize],
    prefetch: bool,
    buf: &mut WidthBuf<T>,
) {
    let Some(first) = batch.first() else {
        return;
    };
    debug_assert!(shares_pass(batch));
    buf.grow_slots(batch.len());
    match first.isa() {
        // SAFETY (both arms): a `PreparedQuery` only ever holds a tier that
        // `Isa::is_available` confirmed when it was built.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { pass_avx2::<T::Avx2>(batch, arena, jobs, prefetch, buf) },
        #[cfg(target_arch = "x86_64")]
        Isa::Sse41 => unsafe { pass_sse41::<T::Sse41>(batch, arena, jobs, prefetch, buf) },
        Isa::Portable => {
            for (slot, p) in batch.iter().enumerate() {
                pass_portable_buf(p.query(), p.scoring(), arena, jobs, prefetch, buf, slot);
            }
        }
    }
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pass_avx2<V: SimdVec>(
    batch: &[&PreparedQuery],
    arena: &DbArena,
    jobs: &[usize],
    prefetch: bool,
    buf: &mut WidthBuf<V::Elem>,
) {
    pass_body::<V>(batch, arena, jobs, prefetch, buf)
}

/// # Safety
/// The CPU must support SSE4.1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn pass_sse41<V: SimdVec>(
    batch: &[&PreparedQuery],
    arena: &DbArena,
    jobs: &[usize],
    prefetch: bool,
    buf: &mut WidthBuf<V::Elem>,
) {
    pass_body::<V>(batch, arena, jobs, prefetch, buf)
}

/// Per-lane scan cursors over the arena's flat residue buffer.
struct LaneCursors {
    /// Index into `jobs` (or [`IDLE`]).
    job: [usize; MAX_LANES],
    /// Absolute offset of the next residue in the arena buffer.
    cur: [usize; MAX_LANES],
    /// Absolute end offset of the lane's sequence.
    end: [usize; MAX_LANES],
    next: usize,
}

impl LaneCursors {
    fn new(lanes: usize, arena: &DbArena, jobs: &[usize], prefetch: bool) -> Self {
        let mut cursors = LaneCursors {
            job: [IDLE; MAX_LANES],
            cur: [0; MAX_LANES],
            end: [0; MAX_LANES],
            next: 0,
        };
        for lane in 0..lanes {
            cursors.assign(lane, arena, jobs, prefetch);
        }
        cursors
    }

    /// Give `lane` the next queued job (or mark it idle).
    fn assign(&mut self, lane: usize, arena: &DbArena, jobs: &[usize], prefetch: bool) {
        if self.next < jobs.len() {
            let (offset, len) = arena.span(jobs[self.next]);
            self.job[lane] = self.next;
            self.cur[lane] = offset;
            self.end[lane] = offset + len;
            self.next += 1;
            // Hide the NEXT refill's residue fetch behind the columns
            // about to run: whichever lane retires first will start
            // reading this span at its head.
            if prefetch && self.next < jobs.len() {
                crate::scratch::prefetch_read(arena.residues(jobs[self.next]));
            }
        } else {
            // An idle lane reads from the buffer's head, in bounds for
            // any run (a run fits in a live lane's span).
            self.job[lane] = IDLE;
            self.cur[lane] = 0;
        }
    }

    /// Columns every lane can take before a live one retires: the fewest
    /// residues a live lane has left (≥ 1 once retired lanes are refilled),
    /// or `None` when every lane is idle.
    fn run(&self, lanes: usize) -> Option<usize> {
        (0..lanes)
            .filter(|&lane| self.job[lane] != IDLE)
            .map(|lane| self.end[lane] - self.cur[lane])
            .min()
    }
}

/// Database columns one DP sweep advances: per query row, `H` and `E` are
/// loaded and stored once for this many cells. One constant, chosen by
/// measurement on `scan_short` (4 beat 2 and 3; DESIGN.md §5h), never an
/// option.
const SWEEP: usize = 4;

/// THE vector inter-sequence pass: every query of `batch` scored against
/// `jobs` in one lane traversal. Lanes hold different database sequences
/// and refill from the job queue as sequences finish; each column gathers
/// the lanes' scores once and every query's DP advances over them,
/// [`SWEEP`] columns per row pass ([`Sweep::columns`]). Per query the
/// instruction sequence does not depend on the rest of the batch, which is
/// what keeps a shared pass byte-identical to passes of one. Gap penalties
/// come clamped from [`GapTerms`], so every tier saturates exactly where
/// the portable pass does, and `E`/`F` start at its floor, so the gap
/// terms subtract with wrapping `sub`.
///
/// # Safety
/// The CPU must support `V`'s instructions. `batch` must be non-empty and
/// satisfy [`shares_pass`], and `buf` must have a slot per batch query.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pass_body<V: SimdVec>(
    batch: &[&PreparedQuery],
    arena: &DbArena,
    jobs: &[usize],
    prefetch: bool,
    buf: &mut WidthBuf<V::Elem>,
) {
    let lanes = V::LANES;
    let (zero, max) = (V::Elem::ZERO, V::Elem::MAX);
    let first = batch[0];
    let (goe, ext) = first.gap_penalties();
    let gaps = GapTerms::<V::Elem>::new(goe, ext);
    debug_assert!(gaps.cannot_wrap(), "{gaps:?}");
    let mut sweep = Sweep::<V> {
        table: first.score_table(),
        symbols: first.scoring().matrix.dim(),
        residues: arena.buffer(),
        goe: V::splat(gaps.goe),
        ext: V::splat(gaps.ext),
        floor: V::splat(gaps.floor),
        zero: V::splat(zero),
        dprofile: [[zero; TABLE_DIM * MAX_LANES]; SWEEP],
    };

    // Per-query DP state over the SHARED lane assignment: query q's
    // `j * lanes + lane` is its prefix j against that lane's subject.
    // Caller-owned and sized high-water: clear + resize only change the
    // length once warm.
    let WidthBuf {
        results,
        h,
        e,
        best,
        ..
    } = buf;
    for (((results, h), e), p) in results
        .iter_mut()
        .zip(h.iter_mut())
        .zip(e.iter_mut())
        .zip(batch)
    {
        results.clear();
        results.resize(jobs.len(), None);
        let rows = (p.query_len() + 1) * lanes;
        h.clear();
        h.resize(rows, zero);
        e.clear();
        e.resize(rows, gaps.floor);
    }
    // Per-query per-lane best, flattened `q * lanes + lane`.
    best.clear();
    best.resize(batch.len() * lanes, zero);
    let mut cursors = LaneCursors::new(lanes, arena, jobs, prefetch);

    loop {
        // Retire finished lanes for EVERY query (the traversal is shared,
        // so all queries finish a subject together; empty subjects retire
        // a whole run at once) and refill from the queue.
        for lane in 0..lanes {
            while cursors.job[lane] != IDLE && cursors.cur[lane] == cursors.end[lane] {
                let job = cursors.job[lane];
                for (q, p) in batch.iter().enumerate() {
                    let b = best[q * lanes + lane];
                    results[q][job] = (b != max).then(|| b.to_i32());
                    for j in 0..=p.query_len() {
                        h[q][j * lanes + lane] = zero;
                        e[q][j * lanes + lane] = gaps.floor;
                    }
                    best[q * lanes + lane] = zero;
                }
                cursors.assign(lane, arena, jobs, prefetch);
            }
        }
        // Step every lane `run` columns with no retire test, SWEEP at a
        // time and the odd tail one at a time, then move the cursors once.
        let Some(run) = cursors.run(lanes) else {
            break;
        };
        let swept = run - run % SWEEP;
        for t in (0..swept).step_by(SWEEP) {
            sweep.columns::<SWEEP>(batch, &cursors.cur, t, h, e, best);
        }
        for t in swept..run {
            sweep.columns::<1>(batch, &cursors.cur, t, h, e, best);
        }
        for lane in 0..lanes {
            if cursors.job[lane] != IDLE {
                cursors.cur[lane] += run;
            }
        }
    }
}

/// What every sweep of one vector pass shares: the score table and the
/// residues it gathers from, the gap vectors, and one vector of lane scores
/// per query symbol for each of up to [`SWEEP`] columns (on the stack).
#[cfg(target_arch = "x86_64")]
struct Sweep<'a, V: SimdVec> {
    table: &'a [i8; TABLE_DIM * TABLE_DIM],
    symbols: usize,
    residues: &'a [u8],
    goe: V,
    ext: V,
    floor: V,
    zero: V,
    dprofile: [[V::Elem; TABLE_DIM * MAX_LANES]; SWEEP],
}

#[cfg(target_arch = "x86_64")]
impl<V: SimdVec> Sweep<'_, V> {
    /// Columns `t..t + N` of the current run, for every query of `batch`:
    /// gather each column's lane scores, then sweep each query's DP over
    /// them row by row — `H`/`E` loaded once per row, the `N` cells computed
    /// in registers (a column's `H` and `E` feed the next column's), stored
    /// once. Written once; instantiated at [`SWEEP`] and at 1.
    ///
    /// # Safety
    /// As [`pass_body`]'s, inside its run loop: `t + N` is at most the
    /// run's length, and `h`, `e`, `best` are sized for `batch`.
    #[inline(always)]
    unsafe fn columns<const N: usize>(
        &mut self,
        batch: &[&PreparedQuery],
        cur: &[usize; MAX_LANES],
        t: usize,
        h: &mut [Vec<V::Elem>],
        e: &mut [Vec<V::Elem>],
        best: &mut [V::Elem],
    ) {
        let lanes = V::LANES;
        let mut codes = [0u8; MAX_LANES];
        for (c, dprofile) in self.dprofile[..N].iter_mut().enumerate() {
            // One residue per lane, masked to five bits (a byte of the
            // padded table's rows); idle lanes read the buffer's head
            // (their results are never used).
            for (code, &cur) in codes.iter_mut().zip(&cur[..lanes]) {
                // SAFETY: a live lane's `cur + t + c` is below its `end`,
                // an idle lane's `cur` is 0 and `t + c` is below a live
                // lane's remaining span; both are inside `residues`.
                *code = *self.residues.get_unchecked(cur + t + c) % TABLE_DIM as u8;
            }
            // SAFETY: `table` is TABLE_DIM rows of TABLE_DIM bytes, every
            // code was just masked below TABLE_DIM, `symbols` ≤ TABLE_DIM,
            // and `dprofile` holds TABLE_DIM × MAX_LANES elements.
            V::gather(
                self.table.as_ptr(),
                &codes,
                self.symbols,
                dprofile.as_mut_ptr(),
            );
        }
        let profile: [*const V::Elem; N] = std::array::from_fn(|c| self.dprofile[c].as_ptr());

        // Each query sweeps its own DP over the already-gathered lane
        // scores. The chains are independent, so the CPU overlaps their
        // latencies — and, within a query, the N columns' `F` chains.
        for (q, p) in batch.iter().enumerate() {
            // SAFETY: rows `0..=m` of `lanes` elements were sized by the
            // pass; query codes are below the matrix dimension (`symbols`;
            // `PreparedQuery` checks them), so every dprofile row read was
            // written by this sweep's gather.
            let (h, e) = (h[q].as_mut_ptr(), e[q].as_mut_ptr());
            let best = best[q * lanes..][..lanes].as_mut_ptr();
            let mut f = [self.floor; N];
            let mut diag = [self.zero; N];
            let mut v_best = V::load(best);
            for (j, &symbol) in p.query().iter().enumerate() {
                let off = (j + 1) * lanes;
                // The previous column's `H` and `E` at this row; each cell
                // replaces them with its own for the next column.
                let mut v_left = V::load(h.add(off));
                let mut v_e = V::load(e.add(off));
                for c in 0..N {
                    v_e = v_left.sub(self.goe).max(v_e.sub(self.ext));
                    let v_h = diag[c]
                        .adds(V::load(profile[c].add(symbol as usize * lanes)))
                        .max(v_e)
                        .max(f[c])
                        .max(self.zero);
                    v_best = v_best.max(v_h);
                    f[c] = v_h.sub(self.goe).max(f[c].sub(self.ext));
                    diag[c] = v_left;
                    v_left = v_h;
                }
                v_left.store(h.add(off));
                v_e.store(e.add(off));
            }
            v_best.store(best);
        }
    }
}

/// The portable inter-sequence pass over `jobs` (scan positions into
/// `arena`), generic in the lane width: the non-x86 path and the oracle
/// the vector pass is tested against. `Some(score)` is exact; `None` means
/// the lane reached `T::MAX` and the subject must be rescored wider. All
/// lane state lives in `buf` (reused across chunks); results land in
/// `buf.results[slot]`, the DP rows in slot `slot` too.
///
/// Gap penalties are clamped into `T` exactly like the vector pass clamps
/// them, so both paths saturate identically.
#[allow(clippy::needless_range_loop)] // lane-state arrays are co-indexed
fn pass_portable_buf<T: Lane>(
    query: &[u8],
    scoring: &Scoring,
    arena: &DbArena,
    jobs: &[usize],
    prefetch: bool,
    buf: &mut WidthBuf<T>,
    slot: usize,
) {
    let lanes = T::SIMD_LANES;
    let m = query.len();
    let (open, extend) = gap_params(scoring.gap);
    let goe = T::from_i32_sat(open + extend);
    let ext = T::from_i32_sat(extend);

    let WidthBuf {
        results,
        h,
        e,
        colprof,
        score_col,
        best,
        lane_job,
        lane_pos,
        live,
        diag,
        f,
    } = buf;
    let (results, h, e) = (&mut results[slot], &mut h[slot], &mut e[slot]);

    // Query-major score columns: colprof[c * m + j] = score(query[j], c),
    // the portable analogue of the vector kernels' score gather.
    let dim = scoring.matrix.dim();
    colprof.clear();
    colprof.resize(dim * m, T::ZERO);
    for c in 0..dim {
        for (j, &q) in query.iter().enumerate() {
            colprof[c * m + j] = T::from_i32_sat(scoring.matrix.score(q, c as u8));
        }
    }

    results.clear();
    results.resize(jobs.len(), None);
    // Lane-major DP state: index `j * lanes + lane` holds the value for
    // query prefix j in that lane's comparison.
    h.clear();
    h.resize((m + 1) * lanes, T::ZERO);
    e.clear();
    e.resize((m + 1) * lanes, T::MIN);
    score_col.clear();
    score_col.resize((m + 1) * lanes, T::ZERO);
    best.clear();
    best.resize(lanes, T::ZERO);
    lane_job.clear();
    lane_job.resize(lanes, IDLE); // index into `jobs`, or IDLE
    lane_pos.clear();
    lane_pos.resize(lanes, 0usize);
    live.clear();
    live.resize(lanes, false);
    diag.clear();
    diag.resize(lanes, T::ZERO);
    f.clear();
    f.resize(lanes, T::MIN);
    let mut next = 0usize;
    let mut active = 0usize;

    for lane in 0..lanes {
        if next < jobs.len() {
            lane_job[lane] = next;
            lane_pos[lane] = 0;
            next += 1;
            active += 1;
            if prefetch && next < jobs.len() {
                crate::scratch::prefetch_read(arena.residues(jobs[next]));
            }
        }
    }

    while active > 0 {
        // Retire lanes whose subject is exhausted (several in a row when
        // subjects are empty) and refill from the job queue.
        for lane in 0..lanes {
            loop {
                let job = lane_job[lane];
                if job == IDLE || lane_pos[lane] < arena.seq_len(jobs[job]) {
                    break;
                }
                let b = best[lane];
                results[job] = (b != T::MAX).then(|| b.to_i32());
                for j in 0..=m {
                    h[j * lanes + lane] = T::ZERO;
                    e[j * lanes + lane] = T::MIN;
                }
                best[lane] = T::ZERO;
                if next < jobs.len() {
                    lane_job[lane] = next;
                    lane_pos[lane] = 0;
                    next += 1;
                    // Hide the NEXT refill's residue fetch behind the
                    // columns about to run.
                    if prefetch && next < jobs.len() {
                        crate::scratch::prefetch_read(arena.residues(jobs[next]));
                    }
                } else {
                    lane_job[lane] = IDLE;
                    active -= 1;
                }
            }
        }
        if active == 0 {
            break;
        }

        // Gather this step's score columns: one residue per live lane.
        for lane in 0..lanes {
            let job = lane_job[lane];
            if job == IDLE {
                live[lane] = false;
                continue;
            }
            live[lane] = true;
            let c = arena.residues(jobs[job])[lane_pos[lane]] as usize;
            let row = &colprof[c * m..(c + 1) * m];
            for j in 0..m {
                score_col[(j + 1) * lanes + lane] = row[j];
            }
        }

        // One DP column per live lane, all lanes advanced in lock-step.
        // diag[lane] carries H[j-1] of the *previous* column; both carries
        // restart every column (same values a fresh vec would hold).
        diag.fill(T::ZERO);
        f.fill(T::MIN);
        for j in 1..=m {
            let base = j * lanes;
            for lane in 0..lanes {
                if !live[lane] {
                    continue;
                }
                let old_h = h[base + lane];
                let ej = (old_h.sat_sub(goe)).max(e[base + lane].sat_sub(ext));
                let mut v = diag[lane].sat_add(score_col[base + lane]);
                if ej > v {
                    v = ej;
                }
                if f[lane] > v {
                    v = f[lane];
                }
                if v < T::ZERO {
                    v = T::ZERO;
                }
                e[base + lane] = ej;
                f[lane] = (v.sat_sub(goe)).max(f[lane].sat_sub(ext));
                diag[lane] = old_h;
                h[base + lane] = v;
                if v > best[lane] {
                    best[lane] = v;
                }
            }
        }

        for lane in 0..lanes {
            if live[lane] {
                lane_pos[lane] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use swhybrid_align::scoring::{GapModel, SubstMatrix};
    use swhybrid_seq::sequence::EncodedSequence;
    use swhybrid_seq::Alphabet;

    fn scoring() -> Scoring {
        Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine {
                open: 10,
                extend: 2,
            },
        }
    }

    fn subject(id: &str, codes: Vec<u8>) -> EncodedSequence {
        EncodedSequence {
            id: id.into(),
            codes,
            alphabet: Alphabet::Protein,
        }
    }

    fn random_subjects(seed: u64, n: usize, max_len: usize) -> Vec<EncodedSequence> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let len = rng.random_range(1..max_len);
                subject(
                    &format!("s{i}"),
                    (0..len).map(|_| rng.random_range(0..20u8)).collect(),
                )
            })
            .collect()
    }

    fn random_query(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.random_range(0..20u8)).collect()
    }

    /// The whole chain on every tier returns the oracle score for every
    /// subject.
    fn assert_chain_matches_oracle(query: &[u8], subjects: &[EncodedSequence]) {
        let s = scoring();
        let arena = DbArena::from_encoded(subjects);
        for isa in Isa::available() {
            let prepared = PreparedQuery::with_isa(query, &s, isa);
            let mut stats = KernelStats::default();
            let got = scores_arena(&prepared, &arena, 0..arena.len(), &mut stats);
            assert_eq!(got.len(), subjects.len());
            for (i, subject) in subjects.iter().enumerate() {
                let expect = sw_score_affine(query, &subject.codes, &s).score;
                assert_eq!(got[i], expect, "{isa:?} subject {i}");
            }
            assert_eq!(stats.interseq_total(), subjects.len() as u64, "{isa:?}");
        }
    }

    #[test]
    fn matches_scalar_on_random_database() {
        assert_chain_matches_oracle(&random_query(211, 70), &random_subjects(212, 50, 140));
    }

    #[test]
    fn length_skew_is_handled_by_lane_refill() {
        // One very long subject among many short ones: lanes refill while
        // the long lane keeps going.
        let mut subjects = random_subjects(214, 30, 25);
        subjects.insert(7, subject("long", random_query(213, 900)));
        assert_chain_matches_oracle(&random_query(215, 40), &subjects);
    }

    #[test]
    fn fewer_subjects_than_lanes_empty_subjects_and_an_empty_database() {
        let query = random_query(216, 30);
        assert_chain_matches_oracle(&query, &random_subjects(217, 3, 50));
        assert_chain_matches_oracle(&query, &[subject("empty", vec![])]);
        assert_chain_matches_oracle(&query, &[]);
    }

    #[test]
    fn saturating_subject_falls_back_to_scalar() {
        // Self-comparison of 3,100 tryptophans exceeds i16 range
        // (3,100 × 11 = 34,100 under BLOSUM62).
        let long: Vec<u8> = vec![17u8; 3100];
        let s = scoring();
        let expect = sw_score_affine(&long, &long, &s).score;
        assert!(expect > i16::MAX as i32, "premise: must exceed i16");
        let arena = DbArena::from_encoded(&[subject("self", long.clone())]);
        for isa in Isa::available() {
            let prepared = PreparedQuery::with_isa(&long, &s, isa);
            let mut stats = KernelStats::default();
            assert_eq!(scores_arena(&prepared, &arena, 0..1, &mut stats), [expect]);
            assert_eq!(stats.interseq_scalar, 1, "{isa:?}");
            // Three passes' worth of cells: i8, i16 and scalar.
            assert_eq!(stats.cells_computed, 3 * 3100 * 3100);
        }
    }

    #[test]
    fn chain_runs_the_width_chain() {
        let query = random_query(219, 80);
        let mut subjects = random_subjects(220, 40, 60);
        // Plant an i8-saturating subject.
        subjects[5] = subject("sat8", query.clone());
        assert_chain_matches_oracle(&query, &subjects);
        let arena = DbArena::from_encoded(&subjects);
        for isa in Isa::available() {
            let prepared = PreparedQuery::with_isa(&query, &scoring(), isa);
            let mut stats = KernelStats::default();
            scores_arena(&prepared, &arena, 0..arena.len(), &mut stats);
            assert_eq!(stats.interseq_i16, 1, "planted subject saturates i8");
            assert_eq!(stats.interseq_i8, 39);
        }
    }

    #[test]
    fn a_shared_pass_is_byte_identical_to_passes_of_one() {
        // Different lengths, one query with a planted i8-saturating
        // self-match: the K = 4 chain must reproduce each K = 1 chain's
        // scores AND its width/cell accounting exactly, with the scratch
        // reused across both.
        let queries: Vec<Vec<u8>> = [(1u64, 20usize), (2, 55), (3, 20), (4, 90)]
            .iter()
            .map(|&(seed, m)| random_query(230 + seed, m))
            .collect();
        let mut subjects = random_subjects(232, 70, 60);
        subjects[13] = subject("self", queries[1].clone());
        let arena = DbArena::from_encoded(&subjects);
        for isa in Isa::available() {
            let prepared: Vec<PreparedQuery> = queries
                .iter()
                .map(|q| PreparedQuery::with_isa(q, &scoring(), isa))
                .collect();
            let batch: Vec<&PreparedQuery> = prepared.iter().collect();
            let mut scratch = KernelScratch::new();
            let mut batch_stats = vec![KernelStats::default(); batch.len()];
            let range = 0..arena.len();
            let fused = scores_batch(
                &batch,
                &arena,
                range.clone(),
                &mut batch_stats,
                &mut scratch,
                true,
            )
            .to_vec();
            assert_eq!(fused.len(), batch.len());
            for (q, prepared) in batch.iter().enumerate() {
                let mut solo_stats = [KernelStats::default()];
                let solo = scores_batch(
                    &[prepared],
                    &arena,
                    range.clone(),
                    &mut solo_stats,
                    &mut scratch,
                    false,
                );
                assert_eq!(solo.len(), 1);
                assert_eq!(fused[q], solo[0], "{isa:?} query {q}");
                assert_eq!(batch_stats[q], solo_stats[0], "{isa:?} query {q} stats");
            }
        }
    }

    #[test]
    fn mixed_scorings_and_tiers_run_one_pass_per_query() {
        let query = random_query(233, 30);
        let cheap = Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine { open: 4, extend: 1 },
        };
        let subjects = random_subjects(234, 40, 50);
        let arena = DbArena::from_encoded(&subjects);
        let tiers: Vec<Isa> = Isa::available().collect();
        let a = PreparedQuery::with_isa(&query, &scoring(), tiers[0]);
        let b = PreparedQuery::with_isa(&query, &cheap, tiers[0]);
        let c = PreparedQuery::with_isa(&query, &cheap, Isa::Portable);
        let batch = [&a, &b, &c];
        let mut stats = vec![KernelStats::default(); batch.len()];
        let mut scratch = KernelScratch::new();
        let got = scores_batch(
            &batch,
            &arena,
            0..arena.len(),
            &mut stats,
            &mut scratch,
            false,
        );
        for ((prepared, scores), stats) in batch.into_iter().zip(got).zip(&stats) {
            for (k, subject) in subjects.iter().enumerate() {
                let expect = sw_score_affine(&query, &subject.codes, prepared.scoring()).score;
                assert_eq!(scores[k], expect);
            }
            assert_eq!(stats.interseq_total(), subjects.len() as u64);
        }
    }

    /// Eight queries from 1 to 128 residues: a full fused package, up to
    /// the longest query the inter-sequence kernel takes.
    fn run_queries() -> Vec<Vec<u8>> {
        [1usize, 5, 20, 33, 57, 64, 100, 128]
            .iter()
            .enumerate()
            .map(|(k, &m)| random_query(240 + k as u64, m))
            .collect()
    }

    /// The vector pass at width `T` on every tier, for the eight queries in
    /// one pass (K = 8) and each alone (K = 1), result for result against
    /// the portable pass; the portable pass's exact results against the
    /// scalar kernel. Returns the portable results, one list per query.
    fn width_matches_portable<T: crate::vec::Width>(
        queries: &[Vec<u8>],
        arena: &DbArena,
    ) -> Vec<Vec<Option<i32>>> {
        let s = scoring();
        let jobs: Vec<usize> = (0..arena.len()).collect();
        let oracle: Vec<Vec<Option<i32>>> = queries
            .iter()
            .map(|q| {
                let p = PreparedQuery::with_isa(q, &s, Isa::Portable);
                pass_results::<T>(&[&p], arena, &jobs).unwrap().remove(0)
            })
            .collect();
        for (q, results) in queries.iter().zip(&oracle) {
            for (&job, r) in jobs.iter().zip(results) {
                if let Some(score) = *r {
                    assert_eq!(score, sw_score_affine(q, arena.residues(job), &s).score);
                }
            }
        }
        for isa in Isa::available() {
            let tier: Vec<PreparedQuery> = queries
                .iter()
                .map(|q| PreparedQuery::with_isa(q, &s, isa))
                .collect();
            let batch: Vec<&PreparedQuery> = tier.iter().collect();
            let fused = pass_results::<T>(&batch, arena, &jobs).unwrap();
            assert_eq!(fused, oracle, "{isa:?} K = 8");
            for (q, p) in batch.iter().enumerate() {
                let solo = pass_results::<T>(&[p], arena, &jobs).unwrap();
                assert_eq!(solo[0], oracle[q], "{isa:?} K = 1, query {q}");
            }
        }
        oracle
    }

    /// Both widths in database and in length order; returns the i8
    /// portable results in database order.
    fn runs_match_portable(subjects: &[EncodedSequence]) -> Vec<Vec<Option<i32>>> {
        let queries = run_queries();
        let sorted = DbArena::length_sorted(subjects);
        width_matches_portable::<i8>(&queries, &sorted);
        width_matches_portable::<i16>(&queries, &sorted);
        let arena = DbArena::from_encoded(subjects);
        width_matches_portable::<i16>(&queries, &arena);
        width_matches_portable::<i8>(&queries, &arena)
    }

    fn of_lengths(seed: u64, lengths: &[usize]) -> Vec<EncodedSequence> {
        lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| subject(&format!("s{i}"), random_query(seed + i as u64, len)))
            .collect()
    }

    #[test]
    fn runs_where_several_lanes_retire_on_one_column() {
        // Groups of equal lengths, so a column retires many lanes at once
        // and the refills start the next run together.
        let lengths: Vec<usize> = (0..100).map(|i| [7, 7, 7, 12, 3, 3, 19][i % 7]).collect();
        runs_match_portable(&of_lengths(500, &lengths));
    }

    #[test]
    fn runs_across_empty_subjects_between_long_ones() {
        let mut lengths = vec![150];
        lengths.extend([0; 40]);
        lengths.push(120);
        lengths.extend([0; 5]);
        lengths.extend([90, 0, 0, 45]);
        lengths.extend([0; 33]);
        let results = runs_match_portable(&of_lengths(600, &lengths));
        assert!(results.iter().all(|r| r[1] == Some(0)), "empty scores zero");
    }

    #[test]
    fn runs_while_the_queue_drains_and_lanes_idle() {
        // The long subject comes first in the buffer, the short ones after
        // it: lanes go idle at the buffer's end while it runs on, and must
        // read in-bounds codes. Then a queue shorter than any lane count.
        let mut lengths = vec![200];
        lengths.extend([2; 50]);
        runs_match_portable(&of_lengths(700, &lengths));
        runs_match_portable(&of_lengths(750, &[9, 40, 1]));
    }

    #[test]
    fn runs_of_one_residue_subjects() {
        runs_match_portable(&of_lengths(800, &[1; 75]));
    }

    #[test]
    fn runs_of_all_equal_lengths_end_together() {
        // The length-sorted case: every lane's run ends on one column.
        runs_match_portable(&of_lengths(900, &[23; 70]));
    }

    #[test]
    fn a_subject_saturates_i8_in_the_middle_of_a_run() {
        // Equal lengths, so one run spans every lane's subject; subject 20
        // holds query 7 as a self-match from residue 6 on, which saturates
        // the i8 lane partway through the run.
        let queries = run_queries();
        let mut subjects = of_lengths(1000, &[140; 40]);
        subjects[20].codes[6..6 + queries[7].len()].copy_from_slice(&queries[7]);
        let results = runs_match_portable(&subjects);
        assert_eq!(results[7][20], None, "the planted self-match saturates i8");
        assert!(results[7].iter().filter(|r| r.is_none()).count() < 4);
    }

    #[test]
    fn runs_of_every_length_around_the_sweep() {
        // Equal lengths, so every run is exactly one subject long and every
        // lane retires right after the run's last column: runs of 1, 2 and
        // 3 columns, one and two whole sweeps, and every odd tail after
        // them.
        for len in 1..=2 * SWEEP + 3 {
            runs_match_portable(&of_lengths(1100 + len as u64, &[len; 40]));
        }
        // Staggered lengths: lanes retire one or two at a time, so runs of
        // every length follow each other, each tail followed by a retire.
        let lengths: Vec<usize> = (0..90).map(|i| 1 + (i * 7) % (3 * SWEEP + 2)).collect();
        runs_match_portable(&of_lengths(1200, &lengths));
    }

    #[test]
    fn an_i8_saturation_on_every_column_of_a_sweep() {
        // Equal lengths, so runs start on each subject's first residue and
        // every sweep covers residues `k × SWEEP..`. Query 7 planted as a
        // self-match at SWEEP consecutive offsets saturates the i8 lane on
        // columns of every residue class mod SWEEP — on the second column
        // of a sweep among them.
        let queries = run_queries();
        let mut subjects = of_lengths(1300, &[150; 40]);
        for c in 0..SWEEP {
            let at = 9 + c;
            subjects[10 + 5 * c].codes[at..at + queries[7].len()].copy_from_slice(&queries[7]);
        }
        let results = runs_match_portable(&subjects);
        for c in 0..SWEEP {
            assert_eq!(results[7][10 + 5 * c], None, "planted at offset class {c}");
        }
    }

    #[test]
    fn chain_on_a_subrange_of_a_sorted_arena() {
        let query = random_query(221, 50);
        let subjects = random_subjects(222, 25, 120);
        let prepared = PreparedQuery::new(&query, &scoring(), Default::default());
        let arena = DbArena::length_sorted(&subjects);
        let mut stats = KernelStats::default();
        let got = scores_arena(&prepared, &arena, 5..20, &mut stats);
        for (k, pos) in (5..20).enumerate() {
            let expect =
                sw_score_affine(&query, &subjects[arena.db_index(pos)].codes, &scoring()).score;
            assert_eq!(got[k], expect, "pos {pos}");
        }
        assert_eq!(stats.interseq_total(), 15);
    }
}
