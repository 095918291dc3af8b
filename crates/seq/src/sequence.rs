//! Sequence records.

use crate::alphabet::Alphabet;
use crate::error::SeqError;

/// A biological sequence record: identifier, optional description, and the
/// residues as ASCII bytes.
///
/// Residues are stored as ASCII (the on-disk representation) and encoded to
/// dense codes on demand with [`Sequence::encode`]; alignment kernels cache
/// the encoded form themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// Identifier (the first word of the FASTA header).
    pub id: String,
    /// Free-text description (the rest of the FASTA header), may be empty.
    pub description: String,
    /// Residues as ASCII bytes (uppercase by convention, not enforced).
    pub residues: Vec<u8>,
}

impl Sequence {
    /// Create a record from parts.
    pub fn new(id: impl Into<String>, description: impl Into<String>, residues: Vec<u8>) -> Self {
        Sequence {
            id: id.into(),
            description: description.into(),
            residues,
        }
    }

    /// Convenience constructor for tests and examples: no description.
    pub fn of(id: impl Into<String>, residues: &[u8]) -> Self {
        Sequence::new(id, "", residues.to_vec())
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the record has zero residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Encode the residues into alphabet codes.
    pub fn encode(&self, alphabet: Alphabet) -> Result<Vec<u8>, SeqError> {
        alphabet.encode(&self.residues)
    }

    /// Full FASTA header line content (without the leading `>`).
    pub fn header(&self) -> String {
        if self.description.is_empty() {
            self.id.clone()
        } else {
            format!("{} {}", self.id, self.description)
        }
    }
}

/// An encoded sequence: codes plus a back-reference to the alphabet.
///
/// This is what the alignment kernels consume. Constructing one validates
/// every residue exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSequence {
    /// Identifier copied from the source record.
    pub id: String,
    /// Dense alphabet codes.
    pub codes: Vec<u8>,
    /// The alphabet the codes belong to.
    pub alphabet: Alphabet,
}

impl EncodedSequence {
    /// Encode a [`Sequence`] under `alphabet`.
    pub fn from_sequence(seq: &Sequence, alphabet: Alphabet) -> Result<Self, SeqError> {
        Ok(EncodedSequence {
            id: seq.id.clone(),
            codes: seq.encode(alphabet)?,
            alphabet,
        })
    }

    /// Encode raw ASCII residues under `alphabet` with a synthetic id.
    pub fn from_residues(
        id: impl Into<String>,
        residues: &[u8],
        alphabet: Alphabet,
    ) -> Result<Self, SeqError> {
        Ok(EncodedSequence {
            id: id.into(),
            codes: alphabet.encode(residues)?,
            alphabet,
        })
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sequence has zero residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Decode back to ASCII residues.
    pub fn decode(&self) -> Vec<u8> {
        self.alphabet.decode_all(&self.codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Sequence::new("sp|P1", "test protein", b"MKV".to_vec());
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.residues, b"MKV");
        assert_eq!(s.header(), "sp|P1 test protein");
    }

    #[test]
    fn header_without_description() {
        let s = Sequence::of("q1", b"ACGT");
        assert_eq!(s.header(), "q1");
    }

    #[test]
    fn encode_round_trip() {
        let s = Sequence::of("q1", b"MKVLAW");
        let enc = EncodedSequence::from_sequence(&s, Alphabet::Protein).unwrap();
        assert_eq!(enc.len(), 6);
        assert_eq!(enc.decode(), b"MKVLAW");
    }

    #[test]
    fn encode_rejects_bad_residue() {
        let s = Sequence::of("q1", b"MKV7");
        assert!(EncodedSequence::from_sequence(&s, Alphabet::Protein).is_err());
    }

    #[test]
    fn empty_sequence() {
        let s = Sequence::of("e", b"");
        assert!(s.is_empty());
        let enc = EncodedSequence::from_sequence(&s, Alphabet::Protein).unwrap();
        assert!(enc.is_empty());
    }

    #[test]
    fn from_residues_constructor() {
        let enc = EncodedSequence::from_residues("x", b"acgt", Alphabet::Dna).unwrap();
        assert_eq!(enc.codes, vec![0, 1, 2, 3]);
        assert_eq!(enc.decode(), b"ACGT");
    }
}
