//! The vector abstraction under both kernel families, and the one module
//! that touches `std::arch`.
//!
//! [`SimdVec`] is the complete list of vector operations the two DP
//! recurrences need — nothing else in the crate names an intrinsic (the
//! prefetch hint in [`crate::scratch`] aside). [`crate::striped`] and
//! [`crate::interseq`] each write their recurrence **once** as an
//! `#[inline(always)]` body generic over `V: SimdVec`; a `#[target_feature]`
//! stub per ISA tier instantiates it, so the body is compiled with the
//! tier's instructions enabled and every trait method inlines down to its
//! single intrinsic — except [`SimdVec::gather`], the inter-sequence score
//! build, which is two byte shuffles (`pshufb`) and an add per query
//! symbol, SWIPE's score-profile construction. A new tier (AVX-512BW, NEON)
//! is one more set of impls here plus one match arm per algorithm.
//!
//! [`GapTerms`] is the one place gap penalties are clamped into a lane: both
//! bodies take `goe`, `ext` and the `E`/`F` floor from it, and its range
//! argument is what lets their main loops subtract gaps with the wrapping
//! [`SimdVec::sub`] (three vector ports on current Intel cores) instead of
//! the saturating [`SimdVec::subs`] (two), with bit-identical scores.
//!
//! [`Isa`] names the tiers. The tier is resolved **once**, when a
//! [`crate::engine::PreparedQuery`] is built, and every kernel dispatch
//! afterwards is a single `match` on the stored value.

#![allow(unsafe_code)]

use crate::engine::EnginePreference;
use crate::lanes::Lane;

/// Lane count of the widest vector of any tier (AVX2, 32 × i8). Sizes the
/// per-lane cursor arrays of the inter-sequence pass and sets
/// [`crate::exec::chunk_floor`].
pub(crate) const MAX_LANES: usize = 32;

/// Rows and row stride of the padded score table the inter-sequence gather
/// reads ([`crate::engine::PreparedQuery::score_table`]): one 32-byte row
/// per query symbol, one byte per database residue code, so any residue
/// masked to five bits indexes a row, and the row's two 16-byte halves are
/// the two shuffle tables of [`SimdVec::gather`].
pub(crate) const TABLE_DIM: usize = 32;

/// An instruction-set tier of the vector kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// 256-bit registers: 32 × i8 / 16 × i16 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 128-bit registers: 16 × i8 / 8 × i16 lanes. SSE4.1 is the floor
    /// because signed byte `max` arrived with it — the paper's "signed
    /// integers instead of unsigned" adaptation presumes it.
    #[cfg(target_arch = "x86_64")]
    Sse41,
    /// The array kernels of [`crate::portable`] and the portable
    /// inter-sequence pass: every architecture, and the test oracle.
    Portable,
}

impl Isa {
    #[cfg(target_arch = "x86_64")]
    const ALL: [Isa; 3] = [Isa::Avx2, Isa::Sse41, Isa::Portable];
    #[cfg(not(target_arch = "x86_64"))]
    const ALL: [Isa; 1] = [Isa::Portable];

    /// Whether this CPU can run the tier.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Sse41 => is_x86_feature_detected!("sse4.1"),
            Isa::Portable => true,
        }
    }

    /// Every tier this CPU can run, widest first; [`Isa::Portable`] is
    /// always last.
    pub fn available() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|isa| isa.is_available())
    }

    /// THE tier decision: the widest available tier.
    pub(crate) fn resolve(preference: EnginePreference) -> Isa {
        match preference {
            EnginePreference::Auto => Isa::available()
                .next()
                .expect("the portable tier is always available"),
        }
    }

    /// Lanes per vector of element type `T` on this tier.
    pub(crate) fn lanes<T: Lane>(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => 2 * T::SIMD_LANES,
            _ => T::SIMD_LANES,
        }
    }
}

/// A vector of `LANES` signed saturating DP lanes: exactly the operations
/// the striped and inter-sequence recurrences use.
///
/// # Safety
/// Every method requires that the CPU supports the implementing tier's
/// instructions (callers sit behind a `#[target_feature]` stub reached only
/// through a [`crate::engine::PreparedQuery`] whose [`Isa`] was checked
/// with [`Isa::is_available`]). Pointer arguments must be valid for `LANES`
/// elements; no alignment is required.
pub trait SimdVec: Copy {
    /// The lane type.
    type Elem: Lane;
    /// Lanes per vector.
    const LANES: usize;

    /// Every lane `x` (gap penalties, the zero floor, the −∞ carry).
    unsafe fn splat(x: Self::Elem) -> Self;
    /// Read one vector of DP state or profile scores.
    unsafe fn load(p: *const Self::Elem) -> Self;
    /// Write one vector of DP state.
    unsafe fn store(self, p: *mut Self::Elem);
    /// Lane-wise saturating add (`H_diag + score`).
    unsafe fn adds(self, o: Self) -> Self;
    /// Lane-wise saturating subtract (the striped lazy-F loop's gap terms).
    unsafe fn subs(self, o: Self) -> Self;
    /// Lane-wise wrapping subtract: the DP main loops' gap terms, which
    /// [`GapTerms`] keeps in range. On current Intel cores it issues on
    /// three vector ports, where the saturating ops and `max` take two.
    unsafe fn sub(self, o: Self) -> Self;
    /// Lane-wise signed max (the recurrence's `max` and the zero floor).
    unsafe fn max(self, o: Self) -> Self;
    /// Whether any lane of `self` exceeds `o` (striped lazy-F: is the carry
    /// still alive?).
    unsafe fn any_gt(self, o: Self) -> bool;
    /// Move every lane up by one; lane 0 receives the top lane of `fill`'s
    /// low 128 bits. Striped only — its layout puts query position `j + 1`
    /// one lane above `j` at the stripe wrap. Callers pass a splat: zero
    /// for the `H` boundary, `MIN` for the `F` carry.
    unsafe fn shift_in(self, fill: Self) -> Self;
    /// The inter-sequence score gather. For each query symbol `s` below
    /// `symbols` (≤ `TABLE_DIM`), write to `dprofile[s × LANES..][..LANES]`
    /// the score of `s` against every lane's current residue:
    /// `table[s][codes[lane]]`, the lane's code looked up in the symbol's
    /// row with two byte shuffles (one per 16-code half of the row) and an
    /// add. `table` is the `TABLE_DIM × TABLE_DIM` symbol-major score
    /// table, every `codes[lane]` is below `TABLE_DIM` (the shuffles read
    /// registers, not memory, so a code past it is wrong, never unsafe),
    /// and `dprofile` has room for `TABLE_DIM × LANES` elements.
    unsafe fn gather(
        table: *const i8,
        codes: &[u8; MAX_LANES],
        symbols: usize,
        dprofile: *mut Self::Elem,
    );

    /// Largest lane (the striped kernel's final score).
    #[inline(always)]
    unsafe fn hmax(self) -> Self::Elem {
        let mut lanes = [Self::Elem::MIN; MAX_LANES];
        self.store(lanes.as_mut_ptr());
        let mut best = lanes[0];
        for &x in &lanes[1..Self::LANES] {
            best = best.max(x);
        }
        best
    }
}

/// The kernel lane widths, `i8` and `i16`: names each width's vector type
/// on every tier, so a dispatch site is one `match` written once for both
/// widths of the saturation chain.
pub trait Width: Lane {
    /// This width in a 128-bit register.
    #[cfg(target_arch = "x86_64")]
    type Sse41: SimdVec<Elem = Self>;
    /// This width in a 256-bit register.
    #[cfg(target_arch = "x86_64")]
    type Avx2: SimdVec<Elem = Self>;
}

impl Width for i8 {
    #[cfg(target_arch = "x86_64")]
    type Sse41 = x86::Sse41I8;
    #[cfg(target_arch = "x86_64")]
    type Avx2 = x86::Avx2I8;
}

impl Width for i16 {
    #[cfg(target_arch = "x86_64")]
    type Sse41 = x86::Sse41I16;
    #[cfg(target_arch = "x86_64")]
    type Avx2 = x86::Avx2I16;
}

/// The gap terms of both vector DP bodies, clamped **once**, here, so that
/// their main loops subtract with the wrapping [`SimdVec::sub`]:
///
/// * `goe` — `open + extend` clamped into `[0, MAX]`, as the portable
///   kernels clamp it;
/// * `ext` — `extend` clamped to `MAX` and then to `−MIN − goe`;
/// * `floor` — `−goe`, where every `E` and `F` starts instead of `MIN`.
///
/// No lane wraps: `H ∈ [0, MAX]`, so `H − goe ≥ −MAX`; an `E` or `F` is
/// `max(H − goe, …) ≥ floor` after every update, so `E − ext ≥ −goe − ext
/// ≥ MIN`. Scores are those of saturating arithmetic: a negative `E`/`F`
/// never reaches `H` (the zero floor), and `ext` is cut only where
/// `goe + extend > −MIN`, and then every extension is already negative
/// (`E ≤ MAX − goe`, so `E − ext ≤ MAX + MIN < 0` either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GapTerms<T> {
    pub(crate) goe: T,
    pub(crate) ext: T,
    pub(crate) floor: T,
}

impl<T: Lane> GapTerms<T> {
    /// The clamped terms for `goe = open + extend` and `ext = extend`.
    pub(crate) fn new(goe: i32, ext: i32) -> Self {
        let goe = T::from_i32_sat(goe.max(0));
        let room = -T::MIN.to_i32() - goe.to_i32();
        GapTerms {
            goe,
            ext: T::from_i32_sat(ext.clamp(0, room)),
            floor: T::from_i32_sat(-goe.to_i32()),
        }
    }

    /// The no-wrap precondition of the wrapping gap subtractions.
    pub(crate) fn cannot_wrap(self) -> bool {
        let (goe, ext) = (self.goe.to_i32(), self.ext.to_i32());
        goe >= 0 && ext >= 0 && goe + ext <= -T::MIN.to_i32() && self.floor.to_i32() == -goe
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{SimdVec, MAX_LANES, TABLE_DIM};
    use std::arch::x86_64::*;

    /// Shuffle indices for the first 16 lane codes (each below
    /// `TABLE_DIM`): `+ 0x70` keeps a code below 16 a valid index into a
    /// row's first 16 bytes and sets the sign bit of a code of 16 or more;
    /// `- 16` does the reverse for the row's second 16 bytes. `pshufb`
    /// writes zero where the sign bit is set, so adding the two lookups
    /// reads each lane's byte from the half that holds it.
    #[inline(always)]
    unsafe fn split_codes(codes: &[u8; MAX_LANES]) -> (__m128i, __m128i) {
        let codes = _mm_loadu_si128(codes.as_ptr() as *const __m128i);
        (
            _mm_add_epi8(codes, _mm_set1_epi8(0x70)),
            _mm_sub_epi8(codes, _mm_set1_epi8(16)),
        )
    }

    /// One symbol's scores against 16 lanes: its table row looked up by
    /// the [`split_codes`] pair.
    #[inline(always)]
    unsafe fn lookup16(row: *const i8, (lo, hi): (__m128i, __m128i)) -> __m128i {
        let row = row as *const __m128i;
        let (row_lo, row_hi) = (_mm_loadu_si128(row), _mm_loadu_si128(row.add(1)));
        _mm_add_epi8(_mm_shuffle_epi8(row_lo, lo), _mm_shuffle_epi8(row_hi, hi))
    }

    /// 16 × i8 in a 128-bit register.
    #[derive(Clone, Copy)]
    pub struct Sse41I8(__m128i);

    impl SimdVec for Sse41I8 {
        type Elem = i8;
        const LANES: usize = 16;

        #[inline(always)]
        unsafe fn splat(x: i8) -> Self {
            Self(_mm_set1_epi8(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const i8) -> Self {
            Self(_mm_loadu_si128(p as *const __m128i))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i8) {
            _mm_storeu_si128(p as *mut __m128i, self.0)
        }
        #[inline(always)]
        unsafe fn adds(self, o: Self) -> Self {
            Self(_mm_adds_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn subs(self, o: Self) -> Self {
            Self(_mm_subs_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm_sub_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Self(_mm_max_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn any_gt(self, o: Self) -> bool {
            _mm_movemask_epi8(_mm_cmpgt_epi8(self.0, o.0)) != 0
        }
        #[inline(always)]
        unsafe fn shift_in(self, fill: Self) -> Self {
            Self(_mm_alignr_epi8::<15>(self.0, fill.0))
        }
        #[inline(always)]
        unsafe fn gather(
            table: *const i8,
            codes: &[u8; MAX_LANES],
            symbols: usize,
            dprofile: *mut i8,
        ) {
            let idx = split_codes(codes);
            for s in 0..symbols {
                let v = lookup16(table.add(s * TABLE_DIM), idx);
                _mm_storeu_si128(dprofile.add(s * 16) as *mut __m128i, v);
            }
        }
    }

    /// 8 × i16 in a 128-bit register.
    #[derive(Clone, Copy)]
    pub struct Sse41I16(__m128i);

    impl SimdVec for Sse41I16 {
        type Elem = i16;
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn splat(x: i16) -> Self {
            Self(_mm_set1_epi16(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const i16) -> Self {
            Self(_mm_loadu_si128(p as *const __m128i))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i16) {
            _mm_storeu_si128(p as *mut __m128i, self.0)
        }
        #[inline(always)]
        unsafe fn adds(self, o: Self) -> Self {
            Self(_mm_adds_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn subs(self, o: Self) -> Self {
            Self(_mm_subs_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm_sub_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Self(_mm_max_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn any_gt(self, o: Self) -> bool {
            _mm_movemask_epi8(_mm_cmpgt_epi16(self.0, o.0)) != 0
        }
        #[inline(always)]
        unsafe fn shift_in(self, fill: Self) -> Self {
            Self(_mm_alignr_epi8::<14>(self.0, fill.0))
        }
        #[inline(always)]
        unsafe fn gather(
            table: *const i8,
            codes: &[u8; MAX_LANES],
            symbols: usize,
            dprofile: *mut i16,
        ) {
            // Look up 16 lanes, sign-extend the low 8.
            let idx = split_codes(codes);
            for s in 0..symbols {
                let wide = _mm_cvtepi8_epi16(lookup16(table.add(s * TABLE_DIM), idx));
                _mm_storeu_si128(dprofile.add(s * 8) as *mut __m128i, wide);
            }
        }
    }

    /// `shift_in` for 256-bit registers: `_mm256_alignr_epi8` shifts within
    /// each 128-bit half, so first build the vector whose halves are what
    /// each half must shift in — `fill`'s low half below, `v`'s low half
    /// above. The byte count is the lane width (`16 - BYTES` for alignr).
    #[inline(always)]
    unsafe fn shift_in_256<const KEEP: i32>(v: __m256i, fill: __m256i) -> __m256i {
        let below = _mm256_permute2x128_si256::<0x02>(v, fill);
        _mm256_alignr_epi8::<KEEP>(v, below)
    }

    /// 32 × i8 in a 256-bit register.
    #[derive(Clone, Copy)]
    pub struct Avx2I8(__m256i);

    impl SimdVec for Avx2I8 {
        type Elem = i8;
        const LANES: usize = 32;

        #[inline(always)]
        unsafe fn splat(x: i8) -> Self {
            Self(_mm256_set1_epi8(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const i8) -> Self {
            Self(_mm256_loadu_si256(p as *const __m256i))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i8) {
            _mm256_storeu_si256(p as *mut __m256i, self.0)
        }
        #[inline(always)]
        unsafe fn adds(self, o: Self) -> Self {
            Self(_mm256_adds_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn subs(self, o: Self) -> Self {
            Self(_mm256_subs_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm256_sub_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Self(_mm256_max_epi8(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn any_gt(self, o: Self) -> bool {
            _mm256_movemask_epi8(_mm256_cmpgt_epi8(self.0, o.0)) != 0
        }
        #[inline(always)]
        unsafe fn shift_in(self, fill: Self) -> Self {
            Self(shift_in_256::<15>(self.0, fill.0))
        }
        #[inline(always)]
        unsafe fn gather(
            table: *const i8,
            codes: &[u8; MAX_LANES],
            symbols: usize,
            dprofile: *mut i8,
        ) {
            // `split_codes` for 32 lanes; `vpshufb` looks up within each
            // 128-bit half, so each half of a row is broadcast to both.
            let codes = _mm256_loadu_si256(codes.as_ptr() as *const __m256i);
            let lo = _mm256_add_epi8(codes, _mm256_set1_epi8(0x70));
            let hi = _mm256_sub_epi8(codes, _mm256_set1_epi8(16));
            for s in 0..symbols {
                let row = table.add(s * TABLE_DIM) as *const __m128i;
                let (row_lo, row_hi) = (
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(row)),
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(1))),
                );
                let v = _mm256_add_epi8(
                    _mm256_shuffle_epi8(row_lo, lo),
                    _mm256_shuffle_epi8(row_hi, hi),
                );
                _mm256_storeu_si256(dprofile.add(s * 32) as *mut __m256i, v);
            }
        }
    }

    /// 16 × i16 in a 256-bit register.
    #[derive(Clone, Copy)]
    pub struct Avx2I16(__m256i);

    impl SimdVec for Avx2I16 {
        type Elem = i16;
        const LANES: usize = 16;

        #[inline(always)]
        unsafe fn splat(x: i16) -> Self {
            Self(_mm256_set1_epi16(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const i16) -> Self {
            Self(_mm256_loadu_si256(p as *const __m256i))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i16) {
            _mm256_storeu_si256(p as *mut __m256i, self.0)
        }
        #[inline(always)]
        unsafe fn adds(self, o: Self) -> Self {
            Self(_mm256_adds_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn subs(self, o: Self) -> Self {
            Self(_mm256_subs_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm256_sub_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Self(_mm256_max_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn any_gt(self, o: Self) -> bool {
            _mm256_movemask_epi8(_mm256_cmpgt_epi16(self.0, o.0)) != 0
        }
        #[inline(always)]
        unsafe fn shift_in(self, fill: Self) -> Self {
            Self(shift_in_256::<14>(self.0, fill.0))
        }
        #[inline(always)]
        unsafe fn gather(
            table: *const i8,
            codes: &[u8; MAX_LANES],
            symbols: usize,
            dprofile: *mut i16,
        ) {
            // Look up 16 lanes, sign-extend with vpmovsxbw.
            let idx = split_codes(codes);
            for s in 0..symbols {
                let wide = _mm256_cvtepi8_epi16(lookup16(table.add(s * TABLE_DIM), idx));
                _mm256_storeu_si256(dprofile.add(s * 16) as *mut __m256i, wide);
            }
        }
    }
}

/// The kernel-equivalence table: every tier this CPU has × {i8, i16} ×
/// {striped, inter-sequence at K = 1, 4 and 8}, each cell compared with
/// the portable kernels (scores, saturation flags and lazy-F vectors) and,
/// where it resolves, with the scalar oracle — at every gap pair of the
/// "clamped once" table, including those where [`GapTerms`] cuts `ext`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PreparedQuery;
    use crate::interseq::pass_results;
    use crate::portable::{sw_striped_portable, Workspace};
    use crate::profile::StripedProfile;
    use crate::striped::sw_striped;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use swhybrid_align::gotoh::gap_params;
    use swhybrid_align::score_only::sw_score_affine;
    use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
    use swhybrid_seq::arena::DbArena;
    use swhybrid_seq::sequence::EncodedSequence;
    use swhybrid_seq::Alphabet;

    /// The "clamped once" table of (open, extend) pairs. First the default
    /// open, the last an i8 lane holds, the first it must clamp, and one an
    /// i16 lane must clamp. Then pairs around `−MIN`, where `open + extend`
    /// meets the lane ceiling and [`GapTerms`] cuts `ext` to `−MIN − goe`
    /// and puts the `E`/`F` floor at `−MAX`: i8 pairs, then i16 pairs.
    const GAPS: [(i32, i32); 14] = [
        (10, 2),
        (127, 2),
        (128, 2),
        (40_000, 2),
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

    fn scoring((open, extend): (i32, i32)) -> Scoring {
        Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine { open, extend },
        }
    }

    fn codes(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..20u8)).collect()
    }

    fn subject(id: &str, codes: Vec<u8>) -> EncodedSequence {
        EncodedSequence {
            id: id.into(),
            codes,
            alphabet: Alphabet::Protein,
        }
    }

    fn random_subjects(rng: &mut ChaCha8Rng, n: usize, max_len: usize) -> Vec<EncodedSequence> {
        (0..n)
            .map(|i| {
                let len = rng.random_range(1..max_len);
                subject(&format!("s{i}"), codes(rng, len))
            })
            .collect()
    }

    /// Run one case at both widths on every available tier.
    fn table(case8: fn(Isa), case16: fn(Isa)) {
        for isa in Isa::available() {
            case8(isa);
            case16(isa);
        }
    }

    #[test]
    fn portable_is_always_the_last_tier_and_auto_takes_the_first() {
        let tiers: Vec<Isa> = Isa::available().collect();
        assert_eq!(tiers.last(), Some(&Isa::Portable));
        assert_eq!(Isa::resolve(EnginePreference::Auto), tiers[0]);
        assert_eq!(Isa::Portable.lanes::<i8>(), 16);
        assert_eq!(Isa::Portable.lanes::<i16>(), 8);
        assert!(tiers.iter().all(|t| t.lanes::<i8>() <= MAX_LANES));
    }

    fn striped_case<T: Width>(isa: Isa) {
        let mut rng = ChaCha8Rng::seed_from_u64(101 + isa.lanes::<T>() as u64);
        let (mut ws, mut ws_portable) = (Workspace::<T>::new(), Workspace::<T>::new());
        for (open, extend) in GAPS {
            let s = scoring((open, extend));
            let (goe, ext) = (open + extend, extend);
            for round in 0..25 {
                let query_len = rng.random_range(1..200);
                let q = codes(&mut rng, query_len);
                // Random subjects, the empty subject, and a self-match that
                // saturates i8 once the query is long enough.
                let subject_len = rng.random_range(1..200);
                let subjects = [codes(&mut rng, subject_len), Vec::new(), q.clone()];
                let profile =
                    StripedProfile::<T>::build_with_lanes(&q, &s.matrix, isa.lanes::<T>());
                for t in &subjects {
                    let got = sw_striped(isa, &profile, t, goe, ext, &mut ws);
                    let portable = sw_striped_portable(&profile, t, goe, ext, &mut ws_portable);
                    let case = format!(
                        "{isa:?} gaps {open}/{extend} round {round} q={} t={}",
                        q.len(),
                        t.len()
                    );
                    assert_eq!(got, portable, "{case}");
                    if !got.saturated {
                        assert_eq!(got.score, sw_score_affine(&q, t, &s).score, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn striped_matches_portable_and_oracle_on_every_tier_and_width() {
        table(striped_case::<i8>, striped_case::<i16>);
    }

    #[test]
    fn striped_i8_flags_saturation_where_i16_resolves() {
        let mut rng = ChaCha8Rng::seed_from_u64(107);
        let q = codes(&mut rng, 300);
        let s = scoring((10, 2));
        for isa in Isa::available() {
            let p8 = StripedProfile::<i8>::build_with_lanes(&q, &s.matrix, isa.lanes::<i8>());
            let out8 = sw_striped(isa, &p8, &q, 12, 2, &mut Workspace::new());
            assert!(out8.saturated, "{isa:?}");
            assert_eq!(out8.score, i8::MAX as i32);
            let p16 = StripedProfile::<i16>::build_with_lanes(&q, &s.matrix, isa.lanes::<i16>());
            let out16 = sw_striped(isa, &p16, &q, 12, 2, &mut Workspace::new());
            assert!(!out16.saturated, "{isa:?}");
            assert_eq!(out16.score, sw_score_affine(&q, &q, &s).score);
        }
    }

    #[test]
    fn striped_score_does_not_depend_on_the_lane_count() {
        // The striped score is lane-layout invariant: 8- and 16-lane
        // portable runs agree (this also validates build_with_lanes).
        let matrix = SubstMatrix::blosum62();
        let mut rng = ChaCha8Rng::seed_from_u64(305);
        let mut ws = Workspace::<i16>::new();
        for _ in 0..20 {
            let (q, t) = (codes(&mut rng, 60), codes(&mut rng, 80));
            let p8 = StripedProfile::<i16>::build_with_lanes(&q, &matrix, 8);
            let p16 = StripedProfile::<i16>::build_with_lanes(&q, &matrix, 16);
            let s8 = sw_striped_portable(&p8, &t, 12, 2, &mut ws);
            let s16 = sw_striped_portable(&p16, &t, 12, 2, &mut ws);
            assert_eq!(s8.score, s16.score);
        }
    }

    /// One tier's inter-sequence pass at width `T`, K = 1 and K = 4, against
    /// the portable pass and the oracle.
    fn interseq_case<T: Width>(isa: Isa) {
        let mut rng = ChaCha8Rng::seed_from_u64(301 + isa.lanes::<T>() as u64);
        // Different lengths on purpose: a shared pass must keep each
        // query's own DP extent while sharing the lane traversal.
        let queries: Vec<Vec<u8>> = [20usize, 47, 1, 111]
            .iter()
            .map(|&m| codes(&mut rng, m))
            .collect();
        // Random subjects, runs of empty and tiny ones (lanes retire
        // several jobs in one column), and a self-match of query 1 that
        // saturates the i8 pass for that query only.
        let mut subjects = random_subjects(&mut rng, 90, 70);
        for at in [3, 4, 5, 60] {
            subjects[at].codes.clear();
        }
        subjects[17].codes = vec![3, 1, 4];
        subjects[89].codes = vec![1];
        subjects[40].codes = queries[1].clone();
        let arena = DbArena::from_encoded(&subjects);
        let all: Vec<usize> = (0..arena.len()).collect();

        for (open, extend) in GAPS {
            let s = scoring((open, extend));
            let tier: Vec<PreparedQuery> = queries
                .iter()
                .map(|q| PreparedQuery::with_isa(q, &s, isa))
                .collect();
            let batch: Vec<&PreparedQuery> = tier.iter().collect();
            // Every job, and fewer jobs than any tier has lanes.
            for jobs in [&all[..], &all[38..41]] {
                let fused = pass_results::<T>(&batch, &arena, jobs).expect("one scoring");
                assert_eq!(fused.len(), batch.len());
                for (q, query) in queries.iter().enumerate() {
                    let case =
                        format!("{isa:?} gaps {open}/{extend} query {q} jobs {}", jobs.len());
                    let oracle = PreparedQuery::with_isa(query, &s, Isa::Portable);
                    let portable = pass_results::<T>(&[&oracle], &arena, jobs).unwrap();
                    let solo = pass_results::<T>(&[batch[q]], &arena, jobs).unwrap();
                    assert_eq!(solo[0], portable[0], "K = 1 vs portable, {case}");
                    assert_eq!(fused[q], solo[0], "K = 4 vs K = 1, {case}");
                    for (&job, r) in jobs.iter().zip(&solo[0]) {
                        if let Some(score) = *r {
                            let expect = sw_score_affine(query, arena.residues(job), &s).score;
                            assert_eq!(score, expect, "job {job}, {case}");
                        }
                    }
                }
            }
            let fused = pass_results::<T>(&batch, &arena, &all).unwrap();
            assert_eq!(fused[0][3], Some(0), "an empty subject scores zero");
            if T::MAX.to_i32() == i8::MAX as i32 {
                assert_eq!(fused[1][40], None, "planted self-match must saturate i8");
            }
        }
    }

    #[test]
    fn interseq_pass_matches_portable_and_oracle_on_every_tier_and_width() {
        table(interseq_case::<i8>, interseq_case::<i16>);
    }

    #[test]
    fn interseq_i16_pass_flags_saturation_like_portable() {
        // 3,100 tryptophans self-align to 34,100 > i16::MAX.
        let query = vec![17u8; 3100];
        let s = scoring((10, 2));
        let arena = DbArena::from_encoded(&[subject("self", query.clone())]);
        for isa in Isa::available() {
            let prepared = PreparedQuery::with_isa(&query, &s, isa);
            let r16 = pass_results::<i16>(&[&prepared], &arena, &[0]).unwrap();
            assert_eq!(r16[0], vec![None], "{isa:?}");
        }
    }

    #[test]
    fn a_pass_refuses_mixed_scorings_and_mixed_tiers() {
        let mut rng = ChaCha8Rng::seed_from_u64(431);
        let query = codes(&mut rng, 30);
        let arena = DbArena::from_encoded(&random_subjects(&mut rng, 8, 30));
        let jobs: Vec<usize> = (0..arena.len()).collect();
        let tiers: Vec<Isa> = Isa::available().collect();
        for &isa in &tiers {
            let a = PreparedQuery::with_isa(&query, &scoring((10, 2)), isa);
            let b = PreparedQuery::with_isa(&query, &scoring((4, 2)), isa);
            assert!(
                pass_results::<i8>(&[&a, &b], &arena, &jobs).is_none(),
                "mixed gap penalties must refuse to share a pass ({isa:?})"
            );
            let c = PreparedQuery::with_isa(&query, &scoring((10, 2)), tiers[0]);
            assert_eq!(
                pass_results::<i8>(&[&a, &c], &arena, &jobs).is_some(),
                isa == tiers[0]
            );
        }
    }

    #[test]
    fn gap_terms_clamp_once_and_cannot_wrap() {
        // (goe, ext) in, (goe', ext', floor) out.
        let i8_table = [
            ((12, 2), (12, 2, -12)),
            ((0, 127), (0, 127, 0)),
            ((1, 127), (1, 127, -1)),
            ((64, 64), (64, 64, -64)),
            ((127, 1), (127, 1, -127)),
            ((127, 64), (127, 1, -127)),
            ((128, 64), (127, 1, -127)),
            ((130, 10), (127, 1, -127)),
            ((40_002, 2), (127, 1, -127)),
        ];
        for ((goe, ext), (g, x, floor)) in i8_table {
            let want = GapTerms::<i8> {
                goe: g,
                ext: x,
                floor,
            };
            assert_eq!(GapTerms::<i8>::new(goe, ext), want, "i8 {goe}/{ext}");
        }
        let i16_table = [
            ((12, 2), (12, 2, -12)),
            ((130, 10), (130, 10, -130)),
            ((32_767, 32_767), (32_767, 1, -32_767)),
            ((32_768, 16_384), (32_767, 1, -32_767)),
            ((33_000, 1_000), (32_767, 1, -32_767)),
        ];
        for ((goe, ext), (g, x, floor)) in i16_table {
            let want = GapTerms::<i16> {
                goe: g,
                ext: x,
                floor,
            };
            assert_eq!(GapTerms::<i16>::new(goe, ext), want, "i16 {goe}/{ext}");
        }
        // Wherever the second clamp does not bite, `ext` is the plain
        // lane clamp; everywhere, the wrapping subtractions stay in range.
        for goe in -3..=300 {
            for ext in -3..=300 {
                let (g8, g16) = (
                    GapTerms::<i8>::new(goe, ext),
                    GapTerms::<i16>::new(goe, ext),
                );
                assert!(g8.cannot_wrap() && g16.cannot_wrap(), "{goe}/{ext}");
                if goe >= 0 && ext >= 0 && goe.min(127) + ext <= 128 {
                    assert_eq!(g8.ext, i8::from_i32_sat(ext), "{goe}/{ext}");
                }
                assert_eq!(g16.ext.to_i32(), ext.max(0), "{goe}/{ext}");
            }
        }
    }

    /// Eight queries of 1 to 128 residues over `letters` letters, and
    /// subjects where gaps pay under +5/−4: each query with a run cut out,
    /// with a run spliced in, and itself, plus random subjects (some empty).
    fn gap_edge_inputs(rng: &mut ChaCha8Rng, letters: u8) -> (Vec<Vec<u8>>, Vec<EncodedSequence>) {
        let letter = |rng: &mut ChaCha8Rng, len: usize| -> Vec<u8> {
            (0..len).map(|_| rng.random_range(0..letters)).collect()
        };
        let queries: Vec<Vec<u8>> = [1usize, 5, 20, 33, 57, 64, 100, 128]
            .iter()
            .map(|&m| letter(rng, m))
            .collect();
        let mut subjects = Vec::new();
        for q in &queries {
            let run = rng.random_range(1..=q.len().div_ceil(4));
            let at = rng.random_range(0..=q.len() - run);
            subjects.push([&q[..at], &q[at + run..]].concat());
            let insert = letter(rng, run);
            subjects.push([&q[..at], &insert[..], &q[at..]].concat());
            subjects.push(q.clone());
        }
        for _ in 0..8 {
            let len = rng.random_range(0..150);
            subjects.push(letter(rng, len));
        }
        let subjects = subjects
            .into_iter()
            .enumerate()
            .map(|(i, codes)| subject(&format!("s{i}"), codes))
            .collect();
        (queries, subjects)
    }

    /// One tier at width `T` on one gap pair: the striped body against the
    /// portable kernel (score, saturation flag, lazy-F vectors walked) and
    /// the inter-sequence pass at K = 8 and K = 1 against the portable pass
    /// (every result), both against the oracle scores `expect[q][k]`.
    fn gap_edge_case<T: Width>(
        isa: Isa,
        s: &Scoring,
        queries: &[Vec<u8>],
        arena: &DbArena,
        expect: &[Vec<i32>],
    ) {
        let (open, extend) = gap_params(s.gap);
        let what = format!(
            "{isa:?} {} gaps {open}/{extend}",
            std::any::type_name::<T>()
        );
        let exact = |score: i32| (score < T::MAX.to_i32()).then_some(score);
        let (mut ws, mut ws_portable) = (Workspace::<T>::new(), Workspace::<T>::new());
        for (q, query) in queries.iter().enumerate() {
            let profile = StripedProfile::<T>::build_with_lanes(query, &s.matrix, isa.lanes::<T>());
            for (k, &want) in expect[q].iter().enumerate() {
                let t = arena.residues(k);
                let got = sw_striped(isa, &profile, t, open + extend, extend, &mut ws);
                let portable =
                    sw_striped_portable(&profile, t, open + extend, extend, &mut ws_portable);
                let case = format!("{what} striped query {q} subject {k}");
                assert_eq!(got, portable, "{case}");
                assert_eq!(ws.lazy_vectors, ws_portable.lazy_vectors, "{case}");
                assert_eq!((!got.saturated).then_some(got.score), exact(want), "{case}");
            }
        }
        let jobs: Vec<usize> = (0..arena.len()).collect();
        let tier: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| PreparedQuery::with_isa(q, s, isa))
            .collect();
        let batch: Vec<&PreparedQuery> = tier.iter().collect();
        let fused = pass_results::<T>(&batch, arena, &jobs).expect("one scoring");
        for (q, query) in queries.iter().enumerate() {
            let case = format!("{what} inter-sequence query {q}");
            let oracle = PreparedQuery::with_isa(query, s, Isa::Portable);
            let portable = pass_results::<T>(&[&oracle], arena, &jobs)
                .unwrap()
                .remove(0);
            let solo = pass_results::<T>(&[batch[q]], arena, &jobs)
                .unwrap()
                .remove(0);
            assert_eq!(solo, portable, "K = 1, {case}");
            assert_eq!(fused[q], portable, "K = 8, {case}");
            let want: Vec<Option<i32>> = expect[q].iter().map(|&e| exact(e)).collect();
            assert_eq!(portable, want, "portable vs oracle, {case}");
        }
    }

    #[test]
    fn gap_edges_match_portable_and_oracle_on_low_complexity_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(331);
        let mut gapped = 0;
        for (round, (open, extend)) in GAPS.into_iter().enumerate() {
            let s = Scoring {
                matrix: SubstMatrix::match_mismatch(Alphabet::Protein, 5, -4),
                gap: GapModel::Affine { open, extend },
            };
            let (queries, subjects) = gap_edge_inputs(&mut rng, [2, 3, 4][round % 3]);
            let arena = DbArena::from_encoded(&subjects);
            let expect: Vec<Vec<i32>> = queries
                .iter()
                .map(|q| {
                    subjects
                        .iter()
                        .map(|t| sw_score_affine(q, &t.codes, &s).score)
                        .collect()
                })
                .collect();
            // Gaps pay: some alignment scores above every ungapped one.
            let ungapped = Scoring {
                gap: GapModel::Affine {
                    open: 1_000_000,
                    extend: 1_000_000,
                },
                ..s.clone()
            };
            gapped += queries
                .iter()
                .zip(&expect)
                .map(|(q, row)| {
                    let no_gaps = subjects
                        .iter()
                        .map(|t| sw_score_affine(q, &t.codes, &ungapped).score);
                    row.iter().zip(no_gaps).filter(|&(&e, n)| e > n).count()
                })
                .sum::<usize>();
            for isa in Isa::available() {
                gap_edge_case::<i8>(isa, &s, &queries, &arena, &expect);
                gap_edge_case::<i16>(isa, &s, &queries, &arena, &expect);
            }
        }
        assert!(gapped > 0, "no input paid for a gap");
    }

    /// `sub` against `wrapping` and `subs` against the lane's saturating
    /// subtract, lane for lane, on every pair of edge values (`MIN`, `MAX`,
    /// zero and their neighbours) and on random lanes.
    #[cfg(target_arch = "x86_64")]
    fn subtract_case<V: SimdVec>(wrapping: fn(V::Elem, V::Elem) -> V::Elem) {
        let (min, max) = (V::Elem::MIN.to_i32(), V::Elem::MAX.to_i32());
        let edges = [min, min + 1, -1, 0, 1, max - 1, max];
        let mut pairs: Vec<(i32, i32)> = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        pairs.extend(
            (0..4 * V::LANES).map(|_| (rng.random_range(min..=max), rng.random_range(min..=max))),
        );
        pairs.resize(pairs.len().next_multiple_of(V::LANES), (max, min));
        let elem = V::Elem::from_i32_sat;
        for chunk in pairs.chunks(V::LANES) {
            let a: Vec<V::Elem> = chunk.iter().map(|&(a, _)| elem(a)).collect();
            let b: Vec<V::Elem> = chunk.iter().map(|&(_, b)| elem(b)).collect();
            let (mut diff, mut sat) =
                (vec![V::Elem::ZERO; V::LANES], vec![V::Elem::ZERO; V::LANES]);
            // SAFETY: the caller checked the tier; every buffer spans LANES.
            unsafe {
                let (va, vb) = (V::load(a.as_ptr()), V::load(b.as_ptr()));
                va.sub(vb).store(diff.as_mut_ptr());
                va.subs(vb).store(sat.as_mut_ptr());
            }
            for lane in 0..V::LANES {
                let (x, y) = (a[lane], b[lane]);
                assert_eq!(diff[lane], wrapping(x, y), "{x:?} - {y:?} wrapping");
                assert_eq!(sat[lane], x.sat_sub(y), "{x:?} - {y:?} saturating");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sub_wraps_and_subs_saturates_on_every_tier_and_width() {
        if Isa::Sse41.is_available() {
            subtract_case::<<i8 as Width>::Sse41>(i8::wrapping_sub);
            subtract_case::<<i16 as Width>::Sse41>(i16::wrapping_sub);
        }
        if Isa::Avx2.is_available() {
            subtract_case::<<i8 as Width>::Avx2>(i8::wrapping_sub);
            subtract_case::<<i16 as Width>::Avx2>(i16::wrapping_sub);
        }
    }

    /// The cross-lane and gather operations of one vector type against
    /// their scalar definitions (the element-wise ones are covered by the
    /// kernel table above).
    #[cfg(target_arch = "x86_64")]
    fn vector_ops_case<V: SimdVec>() {
        let elem = |x: usize| V::Elem::from_i32_sat(x as i32);
        let ramp: Vec<V::Elem> = (0..V::LANES).map(|l| elem(l + 1)).collect();
        let mut out = vec![V::Elem::ZERO; V::LANES];
        // SAFETY: the caller checked the tier; every pointer spans LANES
        // elements (or the documented table / dprofile extents).
        unsafe {
            let v = V::load(ramp.as_ptr());
            assert_eq!(v.hmax(), elem(V::LANES));
            assert!(v.any_gt(V::splat(elem(V::LANES - 1))));
            assert!(!v.any_gt(V::splat(elem(V::LANES))));
            v.shift_in(V::splat(V::Elem::MIN)).store(out.as_mut_ptr());
            assert_eq!(out[0], V::Elem::MIN);
            assert_eq!(out[1..], ramp[..V::LANES - 1]);

            // Every byte distinct mod 251, half of them negative.
            let table: Vec<i8> = (0..TABLE_DIM * TABLE_DIM)
                .map(|i| (i % 251) as i8)
                .collect();
            let mut lane_codes = [0u8; MAX_LANES];
            for (lane, code) in lane_codes.iter_mut().enumerate() {
                *code = ((lane * 7 + 3) % TABLE_DIM) as u8;
            }
            // One column holds codes from both 16-code halves of a row.
            let live = &lane_codes[..V::LANES];
            assert!(live.iter().any(|&c| c < 16) && live.iter().any(|&c| c >= 16));
            let mut dprofile = vec![V::Elem::ZERO; TABLE_DIM * V::LANES];
            V::gather(
                table.as_ptr(),
                &lane_codes,
                TABLE_DIM,
                dprofile.as_mut_ptr(),
            );
            let mut negative = 0;
            for symbol in 0..TABLE_DIM {
                for lane in 0..V::LANES {
                    let expect = table[symbol * TABLE_DIM + lane_codes[lane] as usize];
                    let got = dprofile[symbol * V::LANES + lane].to_i32();
                    assert_eq!(got, expect as i32, "symbol {symbol} lane {lane}");
                    negative += usize::from(got < 0);
                }
            }
            assert!(negative > 0, "negative scores must sign-extend");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shift_and_gather_match_their_scalar_definitions() {
        if Isa::Sse41.is_available() {
            vector_ops_case::<<i8 as Width>::Sse41>();
            vector_ops_case::<<i16 as Width>::Sse41>();
        }
        if Isa::Avx2.is_available() {
            vector_ops_case::<<i8 as Width>::Avx2>();
            vector_ops_case::<<i16 as Width>::Avx2>();
        }
    }
}
