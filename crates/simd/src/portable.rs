//! Portable striped Smith-Waterman kernel.
//!
//! Implements Farrar's striped recurrence with the paper's signed-integer
//! adaptation over plain arrays, one "vector" being `T::SIMD_LANES`
//! consecutive elements. It is architecture-independent, auto-vectorisable,
//! and — most importantly — the executable specification the vector kernel
//! in `simd::striped` is compared against lane-for-lane.
//!
//! ## Recurrence (per database residue, column `j`)
//!
//! ```text
//! H[q][j] = max(0, H[q-1][j-1] + sub(q, t_j), E[q][j], F[q][j])
//! E[q][j] = max(H[q][j-1] - Goe, E[q][j-1] - ext)   (gap along the subject)
//! F[q][j] = max(H[q-1][j] - Goe, F[q-1][j] - ext)   (gap along the query)
//! ```
//!
//! `F`'s vertical dependency crosses lanes; the main pass runs the `F` chain
//! inside each stripe only, and a *lazy-F* loop repairs the columns where
//! the carry out of one stripe matters in the next (Farrar 2007; the repair
//! here also refreshes the stored `E`, closing the corner case SWPS3
//! reported in Farrar's original code).
//!
//! ## Lazy-F exit
//!
//! The loop propagates *only* the carry that crossed a stripe: `c` starts as
//! the main pass's end-of-stripe `F` shifted one lane up, and at each vector
//! the kernel (1) stops if `c ≤ max(H − goe, 0)` in every lane, (2)
//! otherwise raises `H`/`E`/`best` where `c > H`, (3) decays `c ← c − ext`.
//! After the last vector `c` shifts up again, at most `lanes` times. This is
//! Farrar's exit; the `0` is what his unsigned lanes give for free (both
//! sides of his comparison saturate at zero) and the paper's signed lanes
//! have to spell out. The exit at (1) ends the whole loop, not the pass, and
//! that is exact, lane by lane:
//!
//! * `c ≤ 0`: `H ≥ 0` everywhere, so a carry at or below zero raises no
//!   cell now, and it only decays.
//! * `0 < c ≤ H − goe`: the main pass already ran the in-stripe chain out
//!   of every `H` it stored, so one vector on `F_main ≥ H − goe ≥ c ≥
//!   c − ext`: the carry is under the main chain there, both decay by `ext`
//!   per vector, so it stays under it to the end of the stripe.
//! * Either way the lane's end-of-stripe carry is at most
//!   `max(F_main's, 0)`, i.e. the next pass would start, lane for lane, at
//!   or under what this pass started from (or under zero) — a carry whose
//!   effect is already applied. So no later pass has anything left to raise.
//! * A repaired cell `H = c` opens nothing new: its own chain starts at
//!   `c − goe ≤ c − ext`, which the decaying carry already covers. So no
//!   gap-open is ever folded back into `c`. (Folding `H − goe` back in
//!   turns `c` into the full `F` recurrence, which is live at almost every
//!   vector: every column then runs all `lanes` passes where this loop
//!   visits one or two vectors — CI greps for it.)
//! * The `H` compared at (1) must be the value the vector held *before*
//!   step (2) of the same visit — the main pass's, or an earlier pass's
//!   repair, whose continuation that pass applied. Comparing the decayed
//!   carry against the just-repaired cell (`c − ext` vs `c − goe`) reads
//!   "dominated" whenever `goe == ext` — linear gaps — one vector before the
//!   carry has reached the cells it still has to raise.

use crate::lanes::Lane;
use crate::profile::StripedProfile;

/// Outcome of one striped kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedOutcome {
    /// The computed local alignment score (widened to i32).
    pub score: i32,
    /// Whether the lane type saturated — the score is then a lower bound
    /// and the caller must recompute at a wider width.
    pub saturated: bool,
}

/// Reusable DP rows for the striped kernels (this portable one and the
/// vector kernel in `simd::striped`); allocate once
/// per worker — typically as part of [`crate::scratch::KernelScratch`] —
/// and reuse across subjects and chunks. Rows grow high-water: `reset`
/// only changes lengths, so steady-state reuse never reallocates.
#[derive(Debug, Default)]
pub struct Workspace<T: Lane> {
    pub(crate) h_load: Vec<T>,
    pub(crate) h_store: Vec<T>,
    pub(crate) e: Vec<T>,
    /// The wrap-around H vector of the current column (portable path only;
    /// the vector kernel keeps it in a register).
    pub(crate) vh: Vec<T>,
    /// The F carry vector (portable path only).
    pub(crate) vf: Vec<T>,
    /// Lazy-F vectors visited with a live carry (step 2 ran), summed over
    /// every call on this workspace: the no-clock measure of the lazy loop's
    /// cost against the `seg_len × subject` vectors of the main pass.
    pub(crate) lazy_vectors: u64,
}

impl<T: Lane> Workspace<T> {
    /// Fresh (empty) workspace; rows are sized lazily per profile.
    pub fn new() -> Self {
        Workspace {
            h_load: Vec::new(),
            h_store: Vec::new(),
            e: Vec::new(),
            vh: Vec::new(),
            vf: Vec::new(),
            lazy_vectors: 0,
        }
    }

    pub(crate) fn reset(&mut self, slots: usize) {
        self.h_load.clear();
        self.h_load.resize(slots, T::ZERO);
        self.h_store.clear();
        self.h_store.resize(slots, T::ZERO);
        self.e.clear();
        self.e.resize(slots, T::MIN);
    }
}

/// Score `subject` (encoded codes) against the striped `profile` with affine
/// gaps: opening a gap costs `goe = open + extend`, extending costs `ext`.
pub fn sw_striped_portable<T: Lane>(
    profile: &StripedProfile<T>,
    subject: &[u8],
    goe: i32,
    ext: i32,
    ws: &mut Workspace<T>,
) -> StripedOutcome {
    let lanes = profile.lanes;
    let seg_len = profile.seg_len;
    let slots = seg_len * lanes;
    ws.reset(slots);
    let goe = T::from_i32_sat(goe);
    let ext = T::from_i32_sat(ext);
    let mut best = T::ZERO;
    ws.vh.clear();
    ws.vh.resize(lanes, T::ZERO);
    ws.vf.clear();
    ws.vf.resize(lanes, T::MIN);
    let Workspace {
        h_load,
        h_store,
        e,
        vh: v_h,
        vf: v_f,
        lazy_vectors,
    } = ws;

    for &r in subject {
        debug_assert!((r as usize) < profile.alphabet_size);
        // vH := H[last vector] of previous column, shifted one lane up
        // (lane 0 receives the zero boundary).
        let last = &h_load[(seg_len - 1) * lanes..seg_len * lanes];
        v_h[0] = T::ZERO;
        v_h[1..lanes].copy_from_slice(&last[..lanes - 1]);
        for f in v_f.iter_mut() {
            *f = T::MIN;
        }

        for k in 0..seg_len {
            let prof = profile.vector(r, k);
            let e_row = &mut e[k * lanes..(k + 1) * lanes];
            let h_row = &mut h_store[k * lanes..(k + 1) * lanes];
            let h_prev = &h_load[k * lanes..(k + 1) * lanes];
            for l in 0..lanes {
                let mut h = v_h[l].sat_add(prof[l]);
                let e = e_row[l];
                if e > h {
                    h = e;
                }
                if v_f[l] > h {
                    h = v_f[l];
                }
                if h < T::ZERO {
                    h = T::ZERO;
                }
                if h > best {
                    best = h;
                }
                h_row[l] = h;
                let h_open = h.sat_sub(goe);
                e_row[l] = max(h_open, e.sat_sub(ext));
                v_f[l] = max(h_open, v_f[l].sat_sub(ext));
                v_h[l] = h_prev[l];
            }
        }

        // Lazy-F: carry F across stripes (module doc, "Lazy-F exit"). Each
        // pass shifts the carry one stripe, so `lanes` passes bound the
        // longest cross-stripe gap run; the carry only ever decays by `ext`
        // (no gap-open is folded back in), and the whole loop — not the
        // pass — ends at the first vector where every lane's carry is dead
        // (≤ 0) or dominated by the `H` this vector held *before* this
        // visit repairs it.
        let mut repaired = lanes * seg_len;
        'lazy: for pass in 0..lanes {
            for l in (1..lanes).rev() {
                v_f[l] = v_f[l - 1];
            }
            v_f[0] = T::MIN;
            for k in 0..seg_len {
                let e_row = &mut e[k * lanes..(k + 1) * lanes];
                let h_row = &mut h_store[k * lanes..(k + 1) * lanes];
                if (0..lanes).all(|l| v_f[l] <= max(h_row[l].sat_sub(goe), T::ZERO)) {
                    repaired = pass * seg_len + k;
                    break 'lazy;
                }
                for l in 0..lanes {
                    if v_f[l] > h_row[l] {
                        h_row[l] = v_f[l];
                        let h_open = v_f[l].sat_sub(goe);
                        if h_open > e_row[l] {
                            e_row[l] = h_open;
                        }
                        if v_f[l] > best {
                            best = v_f[l];
                        }
                    }
                    v_f[l] = v_f[l].sat_sub(ext);
                }
            }
        }
        *lazy_vectors += repaired as u64;

        std::mem::swap(h_load, h_store);
    }

    StripedOutcome {
        score: best.to_i32(),
        saturated: best == T::MAX,
    }
}

#[inline(always)]
fn max<T: Ord>(a: T, b: T) -> T {
    if a > b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use swhybrid_align::score_only::sw_score_affine;
    use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
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

    fn striped_score<T: Lane>(q: &[u8], t: &[u8], s: &Scoring) -> StripedOutcome {
        let (open, ext) = swhybrid_align::gotoh::gap_params(s.gap);
        let profile = StripedProfile::<T>::build(q, &s.matrix);
        let mut ws = Workspace::new();
        sw_striped_portable(&profile, t, open + ext, ext, &mut ws)
    }

    #[test]
    fn matches_scalar_reference_i16_random() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(71);
        let s = scoring();
        for round in 0..60 {
            let ql = rng.random_range(1..120);
            let tl = rng.random_range(1..120);
            let q: Vec<u8> = (0..ql).map(|_| rng.random_range(0..20u8)).collect();
            let t: Vec<u8> = (0..tl).map(|_| rng.random_range(0..20u8)).collect();
            let out = striped_score::<i16>(&q, &t, &s);
            let expect = sw_score_affine(&q, &t, &s).score;
            assert_eq!(out.score, expect, "round {round}: ql={ql} tl={tl}");
            assert!(!out.saturated);
        }
    }

    #[test]
    fn matches_scalar_reference_i8_random() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(73);
        let s = scoring();
        for round in 0..60 {
            let ql = rng.random_range(1..80);
            let tl = rng.random_range(1..80);
            let q: Vec<u8> = (0..ql).map(|_| rng.random_range(0..20u8)).collect();
            let t: Vec<u8> = (0..tl).map(|_| rng.random_range(0..20u8)).collect();
            let out = striped_score::<i8>(&q, &t, &s);
            let expect = sw_score_affine(&q, &t, &s).score;
            if out.saturated {
                assert!(expect >= i8::MAX as i32, "spurious saturation");
            } else {
                assert_eq!(out.score, expect, "round {round}");
            }
        }
    }

    #[test]
    fn long_gap_runs_exercise_lazy_f() {
        // A query that aligns with one very long deletion forces F to carry
        // across many stripes.
        let s = Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine { open: 2, extend: 1 },
        };
        let motif = b"MKVLAWCDEFGHIKLMNPQRSTVWYA";
        let mut q_ascii = Vec::new();
        q_ascii.extend_from_slice(motif);
        q_ascii.extend_from_slice(&[b'G'; 70]); // long insert in the query
        q_ascii.extend_from_slice(motif);
        let q = Alphabet::Protein.encode(&q_ascii).unwrap();
        let mut t_ascii = Vec::new();
        t_ascii.extend_from_slice(motif);
        t_ascii.extend_from_slice(motif);
        let t = Alphabet::Protein.encode(&t_ascii).unwrap();
        let out = striped_score::<i16>(&q, &t, &s);
        assert_eq!(out.score, sw_score_affine(&q, &t, &s).score);
    }

    #[test]
    fn i8_saturation_detected_on_high_scores() {
        // Identical 200-residue sequences: self-score far exceeds 127.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(79);
        let q: Vec<u8> = (0..200).map(|_| rng.random_range(0..20u8)).collect();
        let out = striped_score::<i8>(&q, &q, &scoring());
        assert!(out.saturated);
        assert_eq!(out.score, i8::MAX as i32);
        // i16 handles it.
        let out16 = striped_score::<i16>(&q, &q, &scoring());
        assert!(!out16.saturated);
        assert_eq!(out16.score, sw_score_affine(&q, &q, &scoring()).score);
    }

    #[test]
    fn empty_subject_scores_zero() {
        let q = Alphabet::Protein.encode(b"MKVLAW").unwrap();
        let out = striped_score::<i16>(&q, &[], &scoring());
        assert_eq!(out.score, 0);
        assert!(!out.saturated);
    }

    #[test]
    fn single_residue_pair() {
        let q = Alphabet::Protein.encode(b"W").unwrap();
        let t = Alphabet::Protein.encode(b"W").unwrap();
        let out = striped_score::<i8>(&q, &t, &scoring());
        assert_eq!(out.score, 11); // W-W under BLOSUM62
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let s = scoring();
        let q1 = Alphabet::Protein.encode(b"MKVLAWMKVLAWMKVLAW").unwrap();
        let q2 = Alphabet::Protein.encode(b"CCCCC").unwrap();
        let t = Alphabet::Protein.encode(b"MKVLAW").unwrap();
        let (open, ext) = swhybrid_align::gotoh::gap_params(s.gap);
        let mut ws = Workspace::<i16>::new();
        let p1 = StripedProfile::<i16>::build(&q1, &s.matrix);
        let p2 = StripedProfile::<i16>::build(&q2, &s.matrix);
        let a = sw_striped_portable(&p1, &t, open + ext, ext, &mut ws);
        let b = sw_striped_portable(&p2, &t, open + ext, ext, &mut ws);
        let c = sw_striped_portable(&p1, &t, open + ext, ext, &mut ws);
        assert_eq!(a.score, c.score, "workspace reuse must not leak state");
        assert_eq!(b.score, sw_score_affine(&q2, &t, &s).score);
    }

    #[test]
    fn linear_gap_model_via_zero_open() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(83);
        let s = Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Linear { penalty: 3 },
        };
        for _ in 0..20 {
            let q: Vec<u8> = (0..50).map(|_| rng.random_range(0..20u8)).collect();
            let t: Vec<u8> = (0..50).map(|_| rng.random_range(0..20u8)).collect();
            let out = striped_score::<i16>(&q, &t, &s);
            assert_eq!(out.score, swhybrid_align::sw::sw_score(&q, &t, &s));
        }
    }
}
