//! Sequence substrate for `swhybrid`.
//!
//! This crate provides everything the task execution environment needs to
//! represent biological data:
//!
//! * [`alphabet`] — DNA / RNA / protein alphabets and residue encoding,
//! * [`sequence`] — sequence records (identifier, description, residues),
//! * [`arena`] — a flat database arena (contiguous residues + spans) with an
//!   optional length-sorted scan order, the memory layout the scan kernels
//!   stream through,
//! * [`fasta`] — a streaming FASTA reader/writer (queries are read whole;
//!   the paper's indexed sequence file of §IV-B is the `.swdb` database
//!   store of the `swhybrid-store` crate),
//! * [`db`] — an in-memory database with summary statistics,
//! * [`snapshot`] — an immutable, shareable view of one database generation
//!   (ids + database-order arena + digest), the unit a serve daemon
//!   hot-swaps atomically,
//! * [`digest`] — stable content digests for queries and databases (the
//!   cache keys of the persistent query service),
//! * [`synth`] — deterministic synthetic generators standing in for the five
//!   public protein databases used in the paper's evaluation (Table II).
//!
//! The paper compares 40 query sequences (lengths equally distributed between
//! 100 and 5,000 amino acids) against five genomic databases; [`synth`]
//! reproduces those workloads at full scale (metadata only) or at a reduced
//! scale (materialised residues) suitable for real kernel execution.

pub mod alphabet;
pub mod arena;
pub mod db;
pub mod digest;
pub mod error;
pub mod fasta;
pub mod sequence;
pub mod snapshot;
pub mod synth;

pub use alphabet::Alphabet;
pub use arena::{DbArena, SharedBytes};
pub use db::{Database, DbStats};
pub use error::SeqError;
pub use sequence::Sequence;
pub use snapshot::DbSnapshot;
