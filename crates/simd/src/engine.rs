//! Kernel dispatch with the adapted-Farrar saturation-fallback chain.
//!
//! A database scan runs the cheapest kernel first (i8 lanes: 32 on AVX2, 16
//! on SSE4.1 and the portable tier); when a subject's score saturates the
//! 8-bit range the engine recomputes it with i16 lanes (16 / 8), and —
//! should even that saturate — falls back to the exact scalar Gotoh kernel
//! (i32). This mirrors the paper's §IV-C: "our version
//! uses signed integers … augmenting the maximum score to 2⁸−1 (8 bits) and
//! 2¹⁶−1 (16 bits)"; with two's-complement signed lanes the practical
//! ceilings are 127 and 32,767, after which the scalar kernel is exact.

use std::sync::Arc;

use crate::profile::StripedProfile;
use crate::scratch::KernelScratch;
use crate::striped::sw_striped;
use crate::vec::{Isa, TABLE_DIM};
use swhybrid_align::gotoh::gap_params;
use swhybrid_align::score_only::sw_score_affine;
use swhybrid_align::scoring::Scoring;

/// Which implementation family to use. Every caller takes the widest
/// tier; tests reach the narrower ones through [`PreparedQuery::with_isa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnginePreference {
    /// The widest vector tier the CPU supports ([`Isa::available`]),
    /// portable when it supports none.
    #[default]
    Auto,
}

/// Counters describing which kernels actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Subjects resolved by the striped 8-bit kernel.
    pub resolved_i8: u64,
    /// Subjects that saturated 8 bits and were resolved by the striped
    /// 16-bit kernel.
    pub resolved_i16: u64,
    /// Subjects that saturated 16 bits and needed the scalar i32 kernel.
    pub resolved_scalar: u64,
    /// Subjects resolved by the inter-sequence 8-bit kernel.
    pub interseq_i8: u64,
    /// Subjects that saturated the inter-sequence 8-bit pass and were
    /// resolved by the inter-sequence 16-bit pass.
    pub interseq_i16: u64,
    /// Subjects that saturated both inter-sequence passes and needed the
    /// scalar i32 kernel.
    pub interseq_scalar: u64,
    /// Chunks the dispatcher sent to the striped kernel.
    pub chunks_striped: u64,
    /// Chunks the dispatcher sent to the inter-sequence kernel.
    pub chunks_interseq: u64,
    /// DP cells actually computed (every pass counted: an i8 pass that
    /// saturates and is recomputed at i16 costs both passes' cells).
    pub cells_computed: u64,
}

impl KernelStats {
    /// Total subjects scored.
    pub fn total(&self) -> u64 {
        self.resolved_i8
            + self.resolved_i16
            + self.resolved_scalar
            + self.interseq_i8
            + self.interseq_i16
            + self.interseq_scalar
    }

    /// Subjects scored by the inter-sequence kernel family.
    pub fn interseq_total(&self) -> u64 {
        self.interseq_i8 + self.interseq_i16 + self.interseq_scalar
    }

    /// Merge counters from another worker.
    pub fn merge(&mut self, other: &KernelStats) {
        self.resolved_i8 += other.resolved_i8;
        self.resolved_i16 += other.resolved_i16;
        self.resolved_scalar += other.resolved_scalar;
        self.interseq_i8 += other.interseq_i8;
        self.interseq_i16 += other.interseq_i16;
        self.interseq_scalar += other.interseq_scalar;
        self.chunks_striped += other.chunks_striped;
        self.chunks_interseq += other.chunks_interseq;
        self.cells_computed += other.cells_computed;
    }
}

/// The immutable, shareable half of a query's engine: the encoded query,
/// the scoring scheme, the kernel tier, and the tier's two striped
/// profiles.
///
/// Building the profiles is the per-query setup cost of a database scan
/// (`O(query × alphabet)` work and the dominant allocation). A
/// `PreparedQuery` is built once and shared — across the worker threads of
/// one scan, and across *scans* by a long-lived server that sees the same
/// query repeatedly. Engines ([`StripedEngine`]) stay per-thread because
/// they own mutable counters; the profiles they read are behind an
/// [`Arc`].
///
/// The tier is decided here, once (`Isa::resolve`), and checked against
/// the CPU; every kernel dispatch downstream is a `match` on it.
pub struct PreparedQuery {
    query: Vec<u8>,
    scoring: Scoring,
    goe: i32,
    ext: i32,
    /// Always a tier `Isa::is_available` confirmed: the kernels' `unsafe`
    /// dispatch relies on it.
    isa: Isa,
    /// Striped profiles with the tier's lane counts.
    profile8: StripedProfile<i8>,
    profile16: StripedProfile<i16>,
    score_table: Box<[i8; TABLE_DIM * TABLE_DIM]>,
}

impl PreparedQuery {
    /// Build the profiles for an encoded `query` under `scoring`, for the
    /// tier `preference` resolves to on this CPU.
    pub fn new(query: &[u8], scoring: &Scoring, preference: EnginePreference) -> PreparedQuery {
        PreparedQuery::with_isa(query, scoring, Isa::resolve(preference))
    }

    /// Build for an explicit tier — how the equivalence tests reach every
    /// tier the CPU has, not just the widest.
    ///
    /// # Panics
    /// Panics if `isa` is not available on this CPU, if a gap penalty is
    /// negative (they are magnitudes), if the query is empty or holds codes
    /// outside the matrix, or if the matrix has more than 32 codes.
    pub fn with_isa(query: &[u8], scoring: &Scoring, isa: Isa) -> PreparedQuery {
        assert!(isa.is_available(), "{isa:?} kernels cannot run on this CPU");
        let (open, ext) = gap_params(scoring.gap);
        assert!(open >= 0 && ext >= 0, "negative gap penalty {open}/{ext}");
        let matrix = &scoring.matrix;
        PreparedQuery {
            query: query.to_vec(),
            scoring: scoring.clone(),
            goe: open + ext,
            ext,
            isa,
            profile8: StripedProfile::build_with_lanes(query, matrix, isa.lanes::<i8>()),
            profile16: StripedProfile::build_with_lanes(query, matrix, isa.lanes::<i16>()),
            score_table: build_score_table(matrix),
        }
    }

    /// The encoded query.
    pub fn query(&self) -> &[u8] {
        &self.query
    }

    /// Query length in residues.
    pub fn query_len(&self) -> usize {
        self.query.len()
    }

    /// The scoring scheme the profiles were built under.
    pub fn scoring(&self) -> &Scoring {
        &self.scoring
    }

    /// The kernel tier the profiles were built for.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Gap penalties as `(open + extend, extend)` — the magnitudes the
    /// kernels subtract.
    pub fn gap_penalties(&self) -> (i32, i32) {
        (self.goe, self.ext)
    }

    /// Substitution scores for the inter-sequence kernels' score gather,
    /// symbol-major and padded to `TABLE_DIM` rows of `TABLE_DIM` bytes:
    /// row `s` (a query symbol) holds `score(s, c)` at byte `c` for every
    /// database code `c`; rows and bytes past the alphabet are zero.
    pub(crate) fn score_table(&self) -> &[i8; TABLE_DIM * TABLE_DIM] {
        &self.score_table
    }
}

/// Build [`PreparedQuery::score_table`].
fn build_score_table(
    matrix: &swhybrid_align::scoring::SubstMatrix,
) -> Box<[i8; TABLE_DIM * TABLE_DIM]> {
    let dim = matrix.dim();
    assert!(
        dim <= TABLE_DIM,
        "alphabet of {dim} codes exceeds {TABLE_DIM}"
    );
    let mut table = Box::new([0i8; TABLE_DIM * TABLE_DIM]);
    for s in 0..dim {
        for c in 0..dim {
            table[s * TABLE_DIM + c] = matrix.score(s as u8, c as u8) as i8;
        }
    }
    table
}

/// A query bound to its striped profiles and scoring scheme: scores one
/// subject at a time with the fallback chain. The engine itself is cheap —
/// profiles live in a shared [`PreparedQuery`], DP rows in the caller's
/// [`KernelScratch`] — so the scratch (one per worker thread) carries the
/// reusable buffers across engines, queries and chunks.
///
/// ```
/// use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
/// use swhybrid_simd::engine::{EnginePreference, StripedEngine};
/// use swhybrid_simd::scratch::KernelScratch;
/// use swhybrid_seq::Alphabet;
///
/// let scoring = Scoring {
///     matrix: SubstMatrix::blosum62(),
///     gap: GapModel::Affine { open: 10, extend: 2 },
/// };
/// let query = Alphabet::Protein.encode(b"MKVLAWCDEF").unwrap();
/// let subject = Alphabet::Protein.encode(b"MKVLWCDEF").unwrap();
/// let mut scratch = KernelScratch::new();
/// let mut engine = StripedEngine::new(&query, &scoring, EnginePreference::Auto);
/// assert!(engine.score(&subject, &mut scratch) > 0);
/// assert_eq!(engine.stats().total(), 1);
/// ```
pub struct StripedEngine {
    prepared: Arc<PreparedQuery>,
    stats: KernelStats,
}

impl StripedEngine {
    /// Build the engine for an encoded `query` under `scoring` (profiles
    /// are built fresh; use [`StripedEngine::with_prepared`] to share them).
    pub fn new(query: &[u8], scoring: &Scoring, preference: EnginePreference) -> StripedEngine {
        StripedEngine::with_prepared(Arc::new(PreparedQuery::new(query, scoring, preference)))
    }

    /// Wrap an already-built [`PreparedQuery`]; construction is free (the
    /// DP rows live in the caller's [`KernelScratch`]).
    pub fn with_prepared(prepared: Arc<PreparedQuery>) -> StripedEngine {
        StripedEngine {
            prepared,
            stats: KernelStats::default(),
        }
    }

    /// Query length in residues.
    pub fn query_len(&self) -> usize {
        self.prepared.query_len()
    }

    /// Kernel-usage counters accumulated so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Score one encoded subject, with the 8→16→scalar fallback chain.
    /// Every pass that runs is charged to `cells_computed`, so reported
    /// GCUPS reflect work actually done on saturated workloads. `scratch`
    /// provides the DP rows; in steady state (same query length) the call
    /// performs zero heap allocations.
    pub fn score(&mut self, subject: &[u8], scratch: &mut KernelScratch) -> i32 {
        if subject.is_empty() {
            self.stats.resolved_i8 += 1;
            return 0;
        }
        let p = &*self.prepared;
        let pass_cells = p.query.len() as u64 * subject.len() as u64;
        self.stats.cells_computed += pass_cells;
        let out8 = sw_striped(p.isa, &p.profile8, subject, p.goe, p.ext, &mut scratch.ws8);
        if !out8.saturated {
            self.stats.resolved_i8 += 1;
            return out8.score;
        }
        self.stats.cells_computed += pass_cells;
        let out16 = sw_striped(
            p.isa,
            &p.profile16,
            subject,
            p.goe,
            p.ext,
            &mut scratch.ws16,
        );
        if !out16.saturated {
            self.stats.resolved_i16 += 1;
            return out16.score;
        }
        self.stats.resolved_scalar += 1;
        self.stats.cells_computed += pass_cells;
        sw_score_affine(&p.query, subject, &p.scoring).score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use swhybrid_align::scoring::{GapModel, SubstMatrix};

    fn scoring() -> Scoring {
        Scoring {
            matrix: SubstMatrix::blosum62(),
            gap: GapModel::Affine {
                open: 10,
                extend: 2,
            },
        }
    }

    fn random_seq(rng: &mut impl rand::RngExt, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..20u8)).collect()
    }

    #[test]
    fn engine_matches_scalar_on_random_db() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(113);
        let s = scoring();
        let query = random_seq(&mut rng, 90);
        for isa in Isa::available() {
            let mut scratch = KernelScratch::new();
            let prepared = PreparedQuery::with_isa(&query, &s, isa);
            let mut engine = StripedEngine::with_prepared(Arc::new(prepared));
            for _ in 0..30 {
                let len = rng.random_range(1..200);
                let subject = random_seq(&mut rng, len);
                let got = engine.score(&subject, &mut scratch);
                let expect = sw_score_affine(&query, &subject, &s).score;
                assert_eq!(got, expect, "{isa:?}");
            }
            assert_eq!(engine.stats().total(), 30);
        }
    }

    #[test]
    fn fallback_chain_engages_on_high_scores() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(127);
        // Self-comparison of a long query forces >127 score (i16 path).
        let query = random_seq(&mut rng, 400);
        let s = scoring();
        let mut engine = StripedEngine::new(&query, &s, EnginePreference::Auto);
        let got = engine.score(&query, &mut KernelScratch::new());
        let expect = sw_score_affine(&query, &query, &s).score;
        assert_eq!(got, expect);
        assert!(expect > 127, "test premise: score must exceed i8 range");
        assert_eq!(
            engine.stats().resolved_i16 + engine.stats().resolved_scalar,
            1
        );
    }

    #[test]
    fn scalar_fallback_for_extreme_scores() {
        // A score beyond 32,767: 3,100 tryptophans self-align to
        // 3,100 × 11 = 34,100 under BLOSUM62 (W-W = 11).
        let query: Vec<u8> = vec![17u8; 3100];
        let s = scoring();
        let mut engine = StripedEngine::new(&query, &s, EnginePreference::Auto);
        let got = engine.score(&query, &mut KernelScratch::new());
        let expect = sw_score_affine(&query, &query, &s).score;
        assert_eq!(got, expect);
        assert!(expect > i16::MAX as i32, "test premise: must exceed i16");
        assert_eq!(engine.stats().resolved_scalar, 1);
    }

    #[test]
    fn empty_subject() {
        let s = scoring();
        let query = vec![0u8, 1, 2];
        let mut engine = StripedEngine::new(&query, &s, EnginePreference::Auto);
        assert_eq!(engine.score(&[], &mut KernelScratch::new()), 0);
    }
}
