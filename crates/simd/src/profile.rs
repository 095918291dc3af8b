//! The striped query profile (Farrar 2007, §"query profile").
//!
//! For a query of `m` residues processed with `L` SIMD lanes, the query is
//! split into `seg_len = ceil(m / L)` vectors: query position `j` (0-based)
//! is stored in vector `j % seg_len`, lane `j / seg_len`. For every alphabet
//! code `r` the profile stores the substitution scores `sub(query[j], r)` in
//! that layout, so the inner loop's score lookup is a single aligned vector
//! load.
//!
//! Padding positions (`j ≥ m`) carry [`Lane::MIN`] so that, with saturating
//! arithmetic and the explicit zero floor of the signed kernel, they can
//! never contribute a positive score (their `H` sticks at zero, which is
//! also the score of the empty alignment).

use crate::lanes::Lane;
use swhybrid_align::scoring::SubstMatrix;

/// A striped query profile over lane type `T`.
#[derive(Debug, Clone)]
pub struct StripedProfile<T: Lane> {
    /// Number of vectors per alphabet code.
    pub seg_len: usize,
    /// Lanes per vector (`T::SIMD_LANES`).
    pub lanes: usize,
    /// Query length in residues.
    pub query_len: usize,
    /// Alphabet size (number of codes with a profile row).
    pub alphabet_size: usize,
    /// `alphabet_size × seg_len × lanes` scores; vector `k` of code `r`
    /// starts at `(r * seg_len + k) * lanes`.
    data: Vec<T>,
}

impl<T: Lane> StripedProfile<T> {
    /// Build a profile for `query` (encoded codes) under `matrix`, with the
    /// lane count of the 128-bit register for `T`.
    ///
    /// # Panics
    /// Panics if the query is empty or contains codes outside the matrix.
    pub fn build(query: &[u8], matrix: &SubstMatrix) -> StripedProfile<T> {
        StripedProfile::build_with_lanes(query, matrix, T::SIMD_LANES)
    }

    /// Build a profile with an explicit lane count (e.g. 32 × i8 for the
    /// AVX2 kernels). The striped score is lane-count invariant; only the
    /// memory layout changes.
    #[allow(clippy::needless_range_loop)] // (k, lane) index math is the layout definition
    pub fn build_with_lanes(query: &[u8], matrix: &SubstMatrix, lanes: usize) -> StripedProfile<T> {
        assert!(!query.is_empty(), "query must not be empty");
        assert!(lanes >= 1, "need at least one lane");
        let m = query.len();
        let seg_len = m.div_ceil(lanes);
        let alphabet_size = matrix.dim();
        let mut data = vec![T::MIN; alphabet_size * seg_len * lanes];
        for r in 0..alphabet_size {
            let row = matrix.row(r as u8);
            for k in 0..seg_len {
                for lane in 0..lanes {
                    let j = lane * seg_len + k;
                    if j < m {
                        let code = query[j] as usize;
                        assert!(
                            code < alphabet_size,
                            "query code {code} out of range for {}",
                            matrix.name
                        );
                        data[(r * seg_len + k) * lanes + lane] = T::from_i32_sat(row[code] as i32);
                    }
                }
            }
        }
        StripedProfile {
            seg_len,
            lanes,
            query_len: m,
            alphabet_size,
            data,
        }
    }

    /// The scores of vector `k` for alphabet code `r` (`lanes` elements).
    #[inline(always)]
    pub fn vector(&self, r: u8, k: usize) -> &[T] {
        let base = (r as usize * self.seg_len + k) * self.lanes;
        &self.data[base..base + self.lanes]
    }

    /// Raw pointer to vector `k` of code `r` — what the vector kernel
    /// hands to `SimdVec::load`.
    #[inline(always)]
    pub fn vector_ptr(&self, r: u8, k: usize) -> *const T {
        self.data[(r as usize * self.seg_len + k) * self.lanes..].as_ptr()
    }

    /// Query position stored at `(k, lane)`, or `None` if it is padding.
    #[inline]
    pub fn position(&self, k: usize, lane: usize) -> Option<usize> {
        let j = lane * self.seg_len + k;
        (j < self.query_len).then_some(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swhybrid_seq::Alphabet;

    fn profile_i8(query: &str) -> StripedProfile<i8> {
        let q = Alphabet::Protein.encode(query.as_bytes()).unwrap();
        StripedProfile::<i8>::build(&q, &SubstMatrix::blosum62())
    }

    #[test]
    fn layout_dimensions() {
        let p = profile_i8("MKVLAWCDEFGHIKLMN"); // 17 residues
        assert_eq!(p.lanes, 16);
        assert_eq!(p.seg_len, 2); // ceil(17/16)
        assert_eq!(p.seg_len * p.lanes, 32); // slots, padding included
        assert_eq!(p.query_len, 17);
    }

    #[test]
    fn every_query_position_mapped_once() {
        let p = profile_i8("MKVLAWCDEFGHIKLMNPQRSTVWYACDEFGHIK"); // 34 residues
        let mut seen = vec![false; p.query_len];
        for k in 0..p.seg_len {
            for lane in 0..p.lanes {
                if let Some(j) = p.position(k, lane) {
                    assert!(!seen[j], "position {j} mapped twice");
                    seen[j] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some positions unmapped");
    }

    #[test]
    fn scores_match_matrix() {
        let matrix = SubstMatrix::blosum62();
        let q = Alphabet::Protein.encode(b"MKVLAW").unwrap();
        let p = StripedProfile::<i8>::build(&q, &matrix);
        for r in 0..matrix.dim() as u8 {
            for k in 0..p.seg_len {
                let v = p.vector(r, k);
                #[allow(clippy::needless_range_loop)] // lane indexes both v and position()
                for lane in 0..p.lanes {
                    match p.position(k, lane) {
                        Some(j) => {
                            assert_eq!(v[lane] as i32, matrix.score(q[j], r));
                        }
                        None => assert_eq!(v[lane], i8::MIN),
                    }
                }
            }
        }
    }

    #[test]
    fn i16_profile_has_eight_lanes() {
        let matrix = SubstMatrix::blosum62();
        let q = Alphabet::Protein.encode(b"MKVLAWCDE").unwrap();
        let p = StripedProfile::<i16>::build(&q, &matrix);
        assert_eq!(p.lanes, 8);
        assert_eq!(p.seg_len, 2); // ceil(9/8)
                                  // Padding is i16::MIN.
        assert_eq!(p.vector(0, 1)[7], i16::MIN);
    }

    #[test]
    fn exact_multiple_of_lanes_has_no_padding() {
        let matrix = SubstMatrix::blosum62();
        let q = Alphabet::Protein.encode(b"MKVLAWCD").unwrap(); // 8 = i16 lanes
        let p = StripedProfile::<i16>::build(&q, &matrix);
        assert_eq!(p.seg_len, 1);
        for k in 0..p.seg_len {
            for lane in 0..p.lanes {
                assert!(p.position(k, lane).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "query must not be empty")]
    fn empty_query_rejected() {
        let matrix = SubstMatrix::blosum62();
        StripedProfile::<i8>::build(&[], &matrix);
    }
}
