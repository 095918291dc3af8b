//! Adapted-Farrar striped SIMD Smith-Waterman (paper §IV-C).
//!
//! The paper executes SW on the multicore hosts with "a modified version of
//! the Farrar algorithm … using **signed** integers instead of unsigned ones
//! to store the values of the SW DP matrices" (Farrar's original biases
//! unsigned 8-bit lanes because SSE2 lacks signed byte `max`). This crate
//! implements that adaptation:
//!
//! * [`profile`] — the striped query profile (Farrar's layout: query
//!   position `j` lives in vector `j % seg_len`, lane `j / seg_len`),
//! * [`lanes`] — the signed saturating lane arithmetic (`i8`/`i16`/`i32`),
//! * `vec` — the `SimdVec` trait (the dozen vector operations the two
//!   recurrences need), its four x86 impls (SSE4.1 and AVX2, i8 and i16) —
//!   the only place `std::arch` arithmetic appears — and [`Isa`], the tier
//!   resolved once per [`PreparedQuery`],
//! * `striped` — the vector striped kernel, written once over `SimdVec`,
//! * [`portable`] — the striped kernel over plain arrays (works on every
//!   architecture; the reference for the vector kernel),
//! * [`engine`] — [`PreparedQuery`] and the striped saturation-fallback
//!   chain: 8-bit kernel first, recompute with 16 bits on saturation, fall
//!   back to the exact scalar kernel as a last resort,
//! * [`interseq`] — the Rognes/SWIPE-style *inter-sequence* kernel family
//!   (the related-work baseline \[17\]): `LANES` database sequences scored
//!   simultaneously in the lanes of one vector, lanes refilling from the
//!   queue, for a whole query *batch* per pass (a lone query is the batch
//!   of one); one vector pass over `SimdVec`, one portable pass, and their
//!   i8 → i16 → scalar saturation chain,
//! * [`exec`] — the shard executor: THE chunk-claim loop every PE drives
//!   (through `core::pool::PeExecutor::scan`), with adaptive per-chunk
//!   kernel dispatch,
//! * [`search`] — what a scan reports ([`Hit`], [`KernelChoice`]) and the
//!   one ranking and top-N merge every decomposition goes through.
//!
//! Every kernel computes the **Gotoh affine-gap local alignment score** and
//! is validated against `swhybrid_align::score_only::sw_score_affine`.

pub mod engine;
pub mod exec;
pub mod interseq;
pub mod lanes;
pub mod portable;
pub mod profile;
pub mod scratch;
pub mod search;
mod striped;
pub(crate) mod vec;

pub use engine::{EnginePreference, KernelStats, PreparedQuery, StripedEngine};
pub use exec::{chunk_floor, materialize_hits, ShardExecutor, ShardPlan};
pub use profile::StripedProfile;
pub use scratch::KernelScratch;
pub use search::{Hit, KernelChoice};
pub use vec::Isa;
