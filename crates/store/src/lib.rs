//! Persistent memory-mapped database store for `swhybrid`.
//!
//! The paper's §IV-B introduces an indexed sequence-file format so the
//! master can retrieve sequences without re-parsing flat FASTA;
//! `seq::index` reproduces it for *queries*. This crate is the *database*
//! side: a versioned, checksummed `.swdb` file holding everything the
//! runtime previously reconstructed per boot — the encoded flat residue
//! arena, per-sequence spans and ids, the length-sorted scan permutation,
//! per-chunk residue counts for shard balancing, and the FNV db digest —
//! laid out little-endian with a 64-byte-aligned arena so [`DbArena`]
//! borrows straight from the mapping with zero copies.
//!
//! * [`format`] — the on-disk layout (header, sections, checksums),
//! * [`writer`] — atomic store builds (temp file + fsync + rename),
//! * [`reader`] — validated opens and zero-copy [`DbSnapshot`] loads,
//! * [`load`] — THE database loader ([`DbFile::load`]): FASTA path or
//!   store path in, [`DbSnapshot`] out, alphabet checked,
//! * [`mmap`] — read-only file mapping with an owned-read fallback,
//! * [`error`] — one typed variant per way a store can be corrupt.
//!
//! [`DbArena`]: swhybrid_seq::DbArena
//! [`DbSnapshot`]: swhybrid_seq::DbSnapshot

pub mod error;
pub mod format;
pub mod load;
pub mod mmap;
pub mod reader;
pub mod writer;

pub use error::StoreError;
pub use load::DbFile;
pub use mmap::StoreBytes;
pub use reader::{Store, Verify};
pub use writer::{build_store, BuildSummary};
