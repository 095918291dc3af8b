//! Smith-Waterman / Gotoh local alignment algorithms.
//!
//! This crate is the algorithmic substrate of `swhybrid` (paper §II):
//!
//! * [`evalue`] — Karlin–Altschul bit scores and E-values,
//! * [`scoring`] — substitution matrices (BLOSUM62/50, PAM250,
//!   match/mismatch) and linear / affine gap models,
//! * [`alignment`] — alignment representation (ops, CIGAR, pretty printing
//!   as in the paper's Fig. 1),
//! * [`sw`] — the classic quadratic-space Smith-Waterman (Eq. 1: phase 1
//!   builds the similarity matrix, phase 2 obtains the optimal local
//!   alignment by traceback, Fig. 2),
//! * [`gotoh`] — the affine-gap variant with the three DP matrices H/E/F
//!   (§II-A-3),
//! * [`score_only`] — linear-space score-only kernels; these are the
//!   reference implementations the SIMD kernels are validated against.
//!
//! All kernels operate on *encoded* sequences (`&[u8]` alphabet codes, see
//! `swhybrid_seq::alphabet`) so that a substitution score is a single table
//! lookup.

pub mod alignment;
pub mod evalue;
pub mod gotoh;
pub mod score_only;
pub mod scoring;
pub mod sw;

pub use alignment::{AlignOp, Alignment};
pub use scoring::{GapModel, Scoring, SubstMatrix};
