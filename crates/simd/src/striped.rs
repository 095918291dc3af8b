//! The vector striped kernel: Farrar's recurrence with the paper's signed
//! lanes, written once over `SimdVec`.
//!
//! [`sw_striped`] is the only way in: one `match` on the tier the
//! [`crate::engine::PreparedQuery`] resolved. The vector tiers all run
//! `striped_body`; the portable tier runs
//! [`crate::portable::sw_striped_portable`], the executable specification
//! the body is compared against lane-for-lane (same scores, same
//! saturation flag, same number of lazy-F vectors walked, at every width
//! and lane count). The lazy-F loop is Farrar's, bounded: it carries only
//! what crossed a stripe and leaves at the first vector where that carry is
//! dead or dominated — one or two vectors a column on protein data, where
//! a loop that re-folds `H − goe` into the carry runs `lanes` full passes.
//! After one plain pass, the carries of every longer hop are combined by a
//! `log2(lanes)`-step max-plus scan across lanes and applied in one more
//! pass, so a column walks at most `2 × seg_len` lazy vectors where
//! Farrar's walks up to `lanes × seg_len`. That bound is what a homolog
//! needs: rescored at i16, its vertical gap out of the high-scoring
//! diagonal stays live down the whole column, and Farrar's loop walked
//! ≈ 4.5 vectors per main-pass vector (AVX2 i16) where this one walks 1.6;
//! a 2,600-aa query against two planted copies takes ≈ 7 ms where it
//! took ≈ 15 (AVX2, one core).
//!
//! The main loop's gap terms subtract with the wrapping `SimdVec::sub`,
//! not the saturating `subs`: the penalties come clamped from
//! `vec::GapTerms`, whose floor `E` and `F` start at keeps every lane in
//! range, and a cell then issues its subtractions on one more vector port.
//! The lazy-F loop keeps `subs`, since its carry shifts `MIN` into lane 0.

#![allow(unsafe_code)]

use crate::lanes::Lane;
use crate::portable::{stripe_decay, sw_striped_portable, StripedOutcome, Workspace, PLAIN_PASSES};
use crate::profile::StripedProfile;
use crate::vec::{GapTerms, Isa, SimdVec, Width, MAX_LANES};

/// Score `subject` against the striped `profile` on tier `isa`. The
/// profile must have been built with `isa.lanes::<T>()` lanes; `ws` holds
/// the DP rows and is reused (grown high-water) across calls.
///
/// # Panics
/// Panics if `isa` is not available on this CPU or the profile's lane count
/// is not the tier's.
pub(crate) fn sw_striped<T: Width>(
    isa: Isa,
    profile: &StripedProfile<T>,
    subject: &[u8],
    goe: i32,
    ext: i32,
    ws: &mut Workspace<T>,
) -> StripedOutcome {
    assert!(isa.is_available(), "{isa:?} kernels cannot run on this CPU");
    assert_eq!(
        profile.lanes,
        isa.lanes::<T>(),
        "profile built for another tier"
    );
    match isa {
        // SAFETY (both arms): the tier's CPU feature was checked above, and
        // the profile holds `seg_len` vectors of the tier's lane count.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { striped_avx2::<T::Avx2>(profile, subject, goe, ext, ws) },
        #[cfg(target_arch = "x86_64")]
        Isa::Sse41 => unsafe { striped_sse41::<T::Sse41>(profile, subject, goe, ext, ws) },
        Isa::Portable => sw_striped_portable(profile, subject, goe, ext, ws),
    }
}

/// # Safety
/// The CPU must support AVX2; `profile.lanes` must equal `V::LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn striped_avx2<V: SimdVec>(
    profile: &StripedProfile<V::Elem>,
    subject: &[u8],
    goe: i32,
    ext: i32,
    ws: &mut Workspace<V::Elem>,
) -> StripedOutcome {
    striped_body::<V>(profile, subject, goe, ext, ws)
}

/// # Safety
/// The CPU must support SSE4.1; `profile.lanes` must equal `V::LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn striped_sse41<V: SimdVec>(
    profile: &StripedProfile<V::Elem>,
    subject: &[u8],
    goe: i32,
    ext: i32,
    ws: &mut Workspace<V::Elem>,
) -> StripedOutcome {
    striped_body::<V>(profile, subject, goe, ext, ws)
}

/// THE vector striped recurrence (see [`crate::portable`] for the
/// recurrence itself and for why the lazy-F loop carries only what crossed
/// a stripe and may leave at the first vector where that carry is dead or
/// dominated by the pre-repair `H`). Gap penalties and the `E`/`F` floor
/// come from [`GapTerms`] (see the module docs for why the main loop may
/// then wrap), so every tier saturates exactly where the portable kernel
/// does.
///
/// # Safety
/// The CPU must support `V`'s instructions and `profile.lanes` must equal
/// `V::LANES`: the DP rows are `seg_len × LANES` elements and every vector
/// access below is at `k × LANES` with `k < seg_len`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn striped_body<V: SimdVec>(
    profile: &StripedProfile<V::Elem>,
    subject: &[u8],
    goe: i32,
    ext: i32,
    ws: &mut Workspace<V::Elem>,
) -> StripedOutcome {
    let lanes = V::LANES;
    let seg_len = profile.seg_len;
    let gaps = GapTerms::<V::Elem>::new(goe, ext);
    debug_assert!(gaps.cannot_wrap(), "{gaps:?}");
    ws.reset(seg_len * lanes);
    // `E` starts at the floor, not at `MIN`, so its gap terms cannot wrap.
    ws.e.fill(gaps.floor);
    // Raw pointers hoisted out of the DP loop: going through the
    // workspace's Vec headers each iteration would force the compiler to
    // re-load the data pointers after every store.
    let mut h_load = ws.h_load.as_mut_ptr();
    let mut h_store = ws.h_store.as_mut_ptr();
    let e_arr = ws.e.as_mut_ptr();

    let v_goe = V::splat(gaps.goe);
    let v_ext = V::splat(gaps.ext);
    let v_floor = V::splat(gaps.floor);
    let v_zero = V::splat(V::Elem::ZERO);
    let v_min = V::splat(V::Elem::MIN);
    // The scan's decay for a hop of `2^step` stripes, one per doubling
    // step the widest tier takes.
    let v_hops: [V; MAX_LANES.ilog2() as usize] =
        std::array::from_fn(|step| V::splat(stripe_decay(1 << step, seg_len, gaps.ext)));
    let mut v_best = v_zero;
    let mut lazy_vectors = 0u64;

    for &r in subject {
        let mut v_f = v_floor;
        // vH = previous column's last vector shifted one lane up (lane 0
        // receives the zero boundary).
        let mut v_h = V::load(h_load.add((seg_len - 1) * lanes)).shift_in(v_zero);

        for k in 0..seg_len {
            let v_e = V::load(e_arr.add(k * lanes));
            v_h = v_h
                .adds(V::load(profile.vector_ptr(r, k)))
                .max(v_e)
                .max(v_f)
                .max(v_zero);
            v_best = v_best.max(v_h);
            v_h.store(h_store.add(k * lanes));
            let h_open = v_h.sub(v_goe);
            h_open.max(v_e.sub(v_ext)).store(e_arr.add(k * lanes));
            v_f = h_open.max(v_f.sub(v_ext));
            v_h = V::load(h_load.add(k * lanes));
        }

        // Lazy-F, line for line the portable kernel's loop: `PLAIN_PASSES`
        // passes of the carry, then at most one pass of every longer hop,
        // scanned across lanes in `log2(lanes)` doubling steps. The carry
        // is only shifted, decayed or the `max` of such terms, and the
        // whole loop ends at the first vector where every lane of it is
        // dead (≤ 0) or dominated by the `H` loaded before this visit's
        // repair.
        let mut walked = (PLAIN_PASSES + 1) * seg_len;
        'lazy: for pass in 0..=PLAIN_PASSES {
            v_f = v_f.shift_in(v_min);
            if pass == PLAIN_PASSES {
                for (step, &v_hop) in v_hops.iter().enumerate() {
                    let s = 1 << step;
                    if s >= lanes {
                        break;
                    }
                    v_f = v_f.max(v_f.shift_lanes(s, v_min).subs(v_hop));
                }
            }
            for k in 0..seg_len {
                let mut v_h = V::load(h_store.add(k * lanes));
                if !v_f.any_gt(v_h.subs(v_goe).max(v_zero)) {
                    walked = pass * seg_len + k;
                    break 'lazy;
                }
                if v_f.any_gt(v_h) {
                    v_h = v_h.max(v_f);
                    v_h.store(h_store.add(k * lanes));
                    v_best = v_best.max(v_h);
                }
                v_f = v_f.subs(v_ext);
            }
        }
        lazy_vectors += walked as u64;

        std::mem::swap(&mut h_load, &mut h_store);
    }

    ws.lazy_vectors += lazy_vectors;
    let best = v_best.hmax();
    StripedOutcome {
        score: best.to_i32(),
        saturated: best == V::Elem::MAX,
    }
}

/// Every tier × lane width × {vector body, portable oracle at the tier's
/// lane count} against the scalar oracle, on inputs where the lazy-F loop
/// carries far (low-complexity alphabets, gap runs across several stripes,
/// `goe == ext`, scores landing on the lane ceiling), and the no-clock
/// guard on how many vectors that loop walks.
#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use swhybrid_align::gotoh::gap_params;
    use swhybrid_align::score_only::sw_score_affine;
    use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
    use swhybrid_seq::Alphabet;

    /// Vector body and portable oracle at one tier and width: they must
    /// agree on score and saturation flag and — being the same loop line
    /// for line — on the lazy-F vectors walked; against the oracle, the
    /// flag is up exactly when the true score reaches the lane ceiling and
    /// the score is exact otherwise. Returns the lazy-F vector count.
    fn check_width<T: Width>(isa: Isa, q: &[u8], t: &[u8], s: &Scoring, expect: i32) -> u64 {
        let what = || format!("{isa:?} {} ({:?})", std::any::type_name::<T>(), s.gap);
        let (open, ext) = gap_params(s.gap);
        let profile = StripedProfile::<T>::build_with_lanes(q, &s.matrix, isa.lanes::<T>());
        let (mut ws_v, mut ws_p) = (Workspace::new(), Workspace::new());
        let vector = sw_striped(isa, &profile, t, open + ext, ext, &mut ws_v);
        let portable = sw_striped_portable(&profile, t, open + ext, ext, &mut ws_p);
        assert_eq!(vector, portable, "{}: vector body vs portable", what());
        assert_eq!(
            ws_v.lazy_vectors,
            ws_p.lazy_vectors,
            "{}: lazy-F vectors walked, vector body vs portable",
            what()
        );
        assert_eq!(
            vector.saturated,
            expect >= T::MAX.to_i32(),
            "{}: saturation flag, true score {expect}",
            what()
        );
        if !vector.saturated {
            assert_eq!(vector.score, expect, "{}: q={q:?} t={t:?}", what());
        }
        ws_v.lazy_vectors
    }

    /// [`check_width`] on every tier this CPU has, at both widths.
    fn check(q: &[u8], t: &[u8], s: &Scoring) {
        let expect = sw_score_affine(q, t, s).score;
        for isa in Isa::available() {
            check_width::<i8>(isa, q, t, s, expect);
            check_width::<i16>(isa, q, t, s, expect);
        }
    }

    fn random_seq(rng: &mut ChaCha8Rng, letters: u8, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..letters)).collect()
    }

    /// `q` with one run of `run` residues cut out at `at`: aligning the two
    /// takes a gap of `run` along the query, i.e. an F chain across
    /// `run / seg_len` stripes.
    fn with_deletion(q: &[u8], at: usize, run: usize) -> Vec<u8> {
        [&q[..at], &q[at + run..]].concat()
    }

    #[test]
    fn low_complexity_alphabets_with_cheap_gaps() {
        let mut rng = ChaCha8Rng::seed_from_u64(2201);
        for letters in [2u8, 3, 4] {
            for _ in 0..120 {
                let s = Scoring {
                    matrix: SubstMatrix::blosum62(),
                    gap: GapModel::Affine {
                        open: rng.random_range(0..=7),
                        extend: rng.random_range(1..=3),
                    },
                };
                let (ql, tl) = (rng.random_range(1..150), rng.random_range(1..150));
                let q = random_seq(&mut rng, letters, ql);
                let t = random_seq(&mut rng, letters, tl);
                check(&q, &t, &s);
            }
        }
    }

    #[test]
    fn gap_runs_across_three_or_more_stripes() {
        // Query lengths that give `seg_len` 1..=4 at every lane count in
        // use (8, 16, 32), with a deleted run of at least 3 × seg_len + 1
        // residues between two flanks strong enough to pay for the gap.
        let mut rng = ChaCha8Rng::seed_from_u64(2202);
        for lanes in [8usize, 16, 32] {
            for seg_len in 1..=4usize {
                for _ in 0..12 {
                    let shortest = ((seg_len - 1) * lanes + 1).max(3 * seg_len + 5);
                    let ql = rng.random_range(shortest..=seg_len * lanes);
                    let run = rng.random_range(3 * seg_len + 1..=(3 * seg_len + 4).min(ql - 4));
                    let at = rng.random_range(2..=ql - run - 2);
                    let s = Scoring {
                        matrix: SubstMatrix::match_mismatch(Alphabet::Protein, 5, -4),
                        gap: GapModel::Affine {
                            open: rng.random_range(0..=2),
                            extend: 1,
                        },
                    };
                    let q = random_seq(&mut rng, 20, ql);
                    let t = with_deletion(&q, at, run);
                    check(&q, &t, &s);
                    check(&t, &q, &s);
                }
            }
        }
    }

    #[test]
    fn zero_open_and_linear_gaps() {
        // `goe == ext`: where an exit test against the just-repaired `H`
        // reads "dominated" one vector early.
        let mut rng = ChaCha8Rng::seed_from_u64(2203);
        for round in 0..160 {
            let penalty = rng.random_range(1..=4);
            let s = Scoring {
                matrix: SubstMatrix::blosum62(),
                gap: if round % 2 == 0 {
                    GapModel::Linear { penalty }
                } else {
                    GapModel::Affine {
                        open: 0,
                        extend: penalty,
                    }
                },
            };
            let letters = [3u8, 20][round / 2 % 2];
            let (ql, tl) = (rng.random_range(1..140), rng.random_range(1..140));
            let q = random_seq(&mut rng, letters, ql);
            let t = if round % 4 < 2 {
                random_seq(&mut rng, letters, tl)
            } else {
                let run = rng.random_range(0..q.len().min(20));
                with_deletion(&q, rng.random_range(0..=q.len() - run), run)
            };
            check(&q, &t, &s);
        }
    }

    /// The portable kernel's two lazy-F tests, on every tier and width.
    #[test]
    fn long_gap_runs_and_linear_model_on_every_tier() {
        let motif = b"MKVLAWCDEFGHIKLMNPQRSTVWYA";
        let q = Alphabet::Protein
            .encode(&[&motif[..], &[b'G'; 70], &motif[..]].concat())
            .unwrap();
        let t = Alphabet::Protein
            .encode(&[&motif[..], &motif[..]].concat())
            .unwrap();
        let cheap = Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine { open: 2, extend: 1 },
        };
        check(&q, &t, &cheap);

        let mut rng = ChaCha8Rng::seed_from_u64(83);
        let linear = Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Linear { penalty: 3 },
        };
        for _ in 0..20 {
            let q = random_seq(&mut rng, 20, 50);
            let t = random_seq(&mut rng, 20, 50);
            check(&q, &t, &linear);
        }
    }

    #[test]
    fn scores_landing_on_the_lane_ceiling_through_a_repaired_cell() {
        // Two flanks of distinct residues around one extra query residue,
        // match +m, gap cost m: the best path crosses the gap, so the cell
        // that reaches the ceiling is downstream of an F carry.
        let land = |m: i8, flanks: usize| {
            let s = Scoring {
                matrix: SubstMatrix::match_mismatch(Alphabet::Protein, m, -4),
                gap: GapModel::Affine {
                    open: 0,
                    extend: m as i32,
                },
            };
            let t: Vec<u8> = (0..flanks).map(|i| (i % 19) as u8).collect();
            let mut q = t.clone();
            q.insert(flanks / 2, 19);
            (q, t, s)
        };
        // 32767 = 31 × 1057: 1058 matches of +31 less one gap of 31.
        for (m, flanks, expect) in [
            (1i8, 129usize, i8::MAX as i32 + 1),
            (1, 128, i8::MAX as i32),
            (1, 127, i8::MAX as i32 - 1),
            (31, 1058, i16::MAX as i32),
            (31, 1057, i16::MAX as i32 - 31),
        ] {
            let (q, t, s) = land(m, flanks);
            assert_eq!(
                sw_score_affine(&q, &t, &s).score,
                expect,
                "constructed to land on (or just under) the lane ceiling"
            );
            check(&q, &t, &s);
        }
    }

    /// The lazy-F loop's cost without a clock: vectors it walks with a live
    /// carry per vector of the main pass, on a protein chunk. Farrar's exit
    /// makes this a fraction of one; a loop that re-folds `H − goe` into
    /// the carry and tests it per pass reads exactly `lanes`.
    #[test]
    fn lazy_f_walks_a_fraction_of_the_main_pass() {
        let mut rng = ChaCha8Rng::seed_from_u64(2204);
        let s = Scoring::blosum62_affine();
        let subjects: Vec<Vec<u8>> = (0..10)
            .map(|_| {
                let len = rng.random_range(60..500);
                random_seq(&mut rng, 20, len)
            })
            .collect();
        let residues: usize = subjects.iter().map(Vec::len).sum();
        for qlen in [128usize, 512, 2048] {
            let q = random_seq(&mut rng, 20, qlen);
            for isa in Isa::available() {
                let ratio = |lazy: u64, lanes: usize| {
                    lazy as f64 / (qlen.div_ceil(lanes) * residues) as f64
                };
                let (mut lazy8, mut lazy16) = (0, 0);
                for t in &subjects {
                    let expect = sw_score_affine(&q, t, &s).score;
                    lazy8 += check_width::<i8>(isa, &q, t, &s, expect);
                    lazy16 += check_width::<i16>(isa, &q, t, &s, expect);
                }
                let (r8, r16) = (
                    ratio(lazy8, isa.lanes::<i8>()),
                    ratio(lazy16, isa.lanes::<i16>()),
                );
                assert!(r8 < 0.5, "{isa:?} i8 q{qlen}: lazy/main = {r8:.3}");
                assert!(r16 < 0.5, "{isa:?} i16 q{qlen}: lazy/main = {r16:.3}");
            }
        }
    }

    /// `q` as the benchmark plants a homolog of it: random flanks of 10 to
    /// 149 residues, about a fifth of the positions substituted, and about 1 %
    /// each of deletions and insertions.
    fn planted_copy(rng: &mut ChaCha8Rng, q: &[u8]) -> Vec<u8> {
        let flank = |rng: &mut ChaCha8Rng| {
            let len = rng.random_range(10..150);
            random_seq(rng, 20, len)
        };
        let mut substituted = vec![false; q.len()];
        for _ in 0..q.len() / 5 {
            substituted[rng.random_range(0..q.len())] = true;
        }
        let mut out = flank(rng);
        for (&aa, &swap) in q.iter().zip(&substituted) {
            let roll: f64 = rng.random();
            if roll < 0.01 {
                continue;
            }
            if roll < 0.02 {
                out.push(rng.random_range(0..20));
            }
            out.push(if swap { rng.random_range(0..20) } else { aa });
        }
        out.extend(flank(rng));
        out
    }

    /// The lazy-F loop's cost on a true homolog, without a clock. A
    /// 2,000-aa query against its planted copy saturates i8 and is rescored
    /// at i16, where the vertical gap out of the high-scoring diagonal stays
    /// alive down the whole column: Farrar's loop, shifting the carry one
    /// stripe per pass, walked ≈ 4.5 vectors per main-pass vector at AVX2
    /// i16. One plain pass and one scanned pass walk at most two.
    #[test]
    fn lazy_f_stays_bounded_on_a_homolog() {
        let mut rng = ChaCha8Rng::seed_from_u64(2205);
        let s = Scoring::blosum62_affine();
        let q = random_seq(&mut rng, 20, 2000);
        let t = planted_copy(&mut rng, &q);
        let expect = sw_score_affine(&q, &t, &s).score;
        assert!(
            expect > i8::MAX as i32 && expect < i16::MAX as i32,
            "a homolog saturates i8 and resolves at i16: {expect}"
        );
        for isa in Isa::available() {
            check_width::<i8>(isa, &q, &t, &s, expect);
            let lazy16 = check_width::<i16>(isa, &q, &t, &s, expect);
            let main = q.len().div_ceil(isa.lanes::<i16>()) * t.len();
            let ratio = lazy16 as f64 / main as f64;
            assert!(ratio <= 2.0, "{isa:?} i16: lazy/main = {ratio:.3}");
        }
    }
}
