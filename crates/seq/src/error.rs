//! Error type shared across the sequence substrate.

use std::fmt;
use std::io;

/// Errors produced while reading, encoding, or packing sequence data.
#[derive(Debug)]
pub enum SeqError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A residue character is not part of the selected alphabet.
    InvalidResidue {
        /// The offending byte.
        byte: u8,
        /// Zero-based position within the sequence.
        position: usize,
    },
    /// The input is not syntactically valid FASTA.
    MalformedFasta(String),
    /// An arena's geometry (window, spans, permutation) is inconsistent.
    BadArena(String),
    /// A snapshot's scan order is not the stable length order of its
    /// sequences (ascending length, equal lengths in database order), so
    /// one shard range would name different subjects than on a peer that
    /// loaded the same database another way.
    ScanOrder {
        /// First scan position that breaks the order.
        position: usize,
    },
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::Io(e) => write!(f, "I/O error: {e}"),
            SeqError::InvalidResidue { byte, position } => write!(
                f,
                "invalid residue {:?} (0x{byte:02x}) at position {position}",
                *byte as char
            ),
            SeqError::MalformedFasta(msg) => write!(f, "malformed FASTA: {msg}"),
            SeqError::BadArena(msg) => write!(f, "bad arena: {msg}"),
            SeqError::ScanOrder { position } => write!(
                f,
                "scan order is not the stable length order (breaks at scan position {position})"
            ),
        }
    }
}

impl std::error::Error for SeqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SeqError {
    fn from(e: io::Error) -> Self {
        SeqError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_residue() {
        let e = SeqError::InvalidResidue {
            byte: b'!',
            position: 3,
        };
        let s = e.to_string();
        assert!(s.contains("'!'"), "{s}");
        assert!(s.contains("position 3"), "{s}");
    }

    #[test]
    fn display_malformed_fasta() {
        let e = SeqError::MalformedFasta("expected '>' header".into());
        assert_eq!(e.to_string(), "malformed FASTA: expected '>' header");
    }

    #[test]
    fn io_error_round_trips_through_source() {
        use std::error::Error;
        let e: SeqError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
