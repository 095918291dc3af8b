//! The vector striped kernel: Farrar's recurrence with the paper's signed
//! lanes, written once over `SimdVec`.
//!
//! [`sw_striped`] is the only way in: one `match` on the tier the
//! [`crate::engine::PreparedQuery`] resolved. The vector tiers all run
//! `striped_body`; the portable tier runs
//! [`crate::portable::sw_striped_portable`], the executable specification
//! the body is compared against lane-for-lane (same scores, same
//! saturation flag, at every width and lane count).

#![allow(unsafe_code)]

use crate::lanes::Lane;
use crate::portable::{sw_striped_portable, StripedOutcome, Workspace};
use crate::profile::StripedProfile;
use crate::vec::{Isa, SimdVec, Width};

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
/// recurrence itself and for why the lazy-F loop may stop only once the
/// carry is dominated everywhere). Gap penalties are clamped into the lane
/// type exactly as the portable kernel clamps them, so every tier saturates
/// identically.
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
    ws.reset(seg_len * lanes);
    // Raw pointers hoisted out of the DP loop: going through the
    // workspace's Vec headers each iteration would force the compiler to
    // re-load the data pointers after every store.
    let mut h_load = ws.h_load.as_mut_ptr();
    let mut h_store = ws.h_store.as_mut_ptr();
    let e_arr = ws.e.as_mut_ptr();

    let v_goe = V::splat(V::Elem::from_i32_sat(goe));
    let v_ext = V::splat(V::Elem::from_i32_sat(ext));
    let v_zero = V::splat(V::Elem::ZERO);
    let v_min = V::splat(V::Elem::MIN);
    let mut v_best = v_zero;

    for &r in subject {
        let mut v_f = v_min;
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
            let h_open = v_h.subs(v_goe);
            h_open.max(v_e.subs(v_ext)).store(e_arr.add(k * lanes));
            v_f = h_open.max(v_f.subs(v_ext));
            v_h = V::load(h_load.add(k * lanes));
        }

        // Lazy-F fixpoint: each pass shifts the carry one stripe.
        'lazy: for _ in 0..lanes {
            v_f = v_f.shift_in(v_min);
            let mut alive = false;
            for k in 0..seg_len {
                let mut v_h = V::load(h_store.add(k * lanes));
                if v_f.any_gt(v_h) {
                    v_h = v_h.max(v_f);
                    v_h.store(h_store.add(k * lanes));
                    V::load(e_arr.add(k * lanes))
                        .max(v_h.subs(v_goe))
                        .store(e_arr.add(k * lanes));
                    v_best = v_best.max(v_h);
                }
                let h_open = v_h.subs(v_goe);
                alive |= v_f.any_gt(h_open);
                v_f = v_f.subs(v_ext).max(h_open);
            }
            if !alive {
                break 'lazy;
            }
        }

        std::mem::swap(&mut h_load, &mut h_store);
    }

    let best = v_best.hmax();
    StripedOutcome {
        score: best.to_i32(),
        saturated: best == V::Elem::MAX,
    }
}
