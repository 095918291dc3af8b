//! Typed errors for the `.swdb` store and the database loader.
//!
//! Every way a store file can be wrong — truncated, foreign, version-skewed,
//! bit-flipped, internally inconsistent, or in the wrong alphabet for the
//! scoring — maps to a distinct variant (as does a FASTA source that
//! cannot be read), so
//! callers (and operators reading daemon logs) see *what* is corrupt, and no
//! corruption path ever reaches the scan kernels as a panic or a silently
//! wrong score.

use std::fmt;
use std::io;

use swhybrid_seq::{Alphabet, SeqError};

/// Errors produced while building or opening a `.swdb` store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not begin with the `.swdb` magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not supported by this build.
    BadVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file ends before a section it promises.
    Truncated {
        /// What was being read.
        what: String,
        /// Bytes required.
        need: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// A section offset violates its alignment requirement.
    Misaligned {
        /// Section name.
        section: &'static str,
        /// Offset recorded in the header.
        offset: u64,
        /// Required alignment.
        align: u64,
    },
    /// Header fields or section contents are internally inconsistent.
    BadGeometry(String),
    /// A stored checksum does not match the bytes on disk.
    ChecksumMismatch {
        /// Which checksum failed ("metadata" or "arena").
        section: &'static str,
        /// Checksum recorded in the header.
        recorded: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The recorded db digest does not match the re-hashed content
    /// (only checked on verified opens).
    DigestMismatch {
        /// Digest recorded in the header.
        recorded: u64,
        /// Digest of the content actually present.
        actual: u64,
    },
    /// An arena byte is not a valid code for the store's alphabet — a
    /// kernel fed this byte would index past its score matrix.
    CodeOutOfRange {
        /// Byte offset within the arena.
        position: u64,
        /// The offending byte.
        byte: u8,
        /// Number of codes in the alphabet.
        alphabet_size: u8,
    },
    /// A sequence-layer invariant failed while assembling the snapshot.
    Seq(SeqError),
    /// The store's residues are not encoded in the scoring matrix's
    /// alphabet: a kernel would index the matrix with foreign codes.
    AlphabetMismatch {
        /// Alphabet recorded in the store.
        store: Alphabet,
        /// Alphabet of the scoring matrix.
        scoring: Alphabet,
    },
    /// The database is a FASTA file that could not be read, parsed, or
    /// encoded under the scoring alphabet.
    Fasta(SeqError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::BadMagic { found } => write!(
                f,
                "not a .swdb store (magic {:?})",
                String::from_utf8_lossy(found)
            ),
            StoreError::BadVersion { found, supported } => write!(
                f,
                "unsupported store version {found} (this build reads version {supported})"
            ),
            StoreError::Truncated { what, need, have } => {
                write!(f, "truncated store: {what} needs {need} bytes, file has {have}")
            }
            StoreError::Misaligned {
                section,
                offset,
                align,
            } => write!(
                f,
                "misaligned store: {section} section at offset {offset}, required alignment {align}"
            ),
            StoreError::BadGeometry(msg) => write!(f, "inconsistent store geometry: {msg}"),
            StoreError::ChecksumMismatch {
                section,
                recorded,
                actual,
            } => write!(
                f,
                "{section} checksum mismatch: header records {recorded:016x}, bytes hash to {actual:016x}"
            ),
            StoreError::DigestMismatch { recorded, actual } => write!(
                f,
                "db digest mismatch: header records {recorded:016x}, content hashes to {actual:016x}"
            ),
            StoreError::CodeOutOfRange {
                position,
                byte,
                alphabet_size,
            } => write!(
                f,
                "arena byte {byte} at offset {position} is not a valid code (alphabet has {alphabet_size} codes)"
            ),
            StoreError::Seq(e) => write!(f, "sequence layer rejected store contents: {e}"),
            StoreError::AlphabetMismatch { store, scoring } => write!(
                f,
                "store alphabet {store:?} does not match scoring alphabet {scoring:?}"
            ),
            StoreError::Fasta(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Seq(e) | StoreError::Fasta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SeqError> for StoreError {
    fn from(e: SeqError) -> Self {
        StoreError::Seq(e)
    }
}
