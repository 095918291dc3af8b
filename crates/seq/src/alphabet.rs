//! Biological alphabets and residue encoding.
//!
//! The paper (§II) treats DNA, RNA and protein sequences as strings over
//! Σ = {A,T,G,C}, Σ = {A,U,G,C} and the 20-letter amino-acid alphabet
//! respectively. The alignment kernels work on small integer *codes* rather
//! than ASCII so that substitution-matrix lookups are a single indexed load;
//! this module owns the bidirectional mapping.
//!
//! Protein codes follow the canonical NCBI ordering
//! `ARNDCQEGHILKMFPSTWYVBZX*` so that the substitution matrices in
//! `swhybrid-align` can be copied verbatim from the standard tables.

use crate::error::SeqError;

/// Canonical protein residue ordering used by NCBI substitution matrices.
pub const PROTEIN_RESIDUES: &[u8; 24] = b"ARNDCQEGHILKMFPSTWYVBZX*";

/// Number of codes in the protein alphabet (20 amino acids + B, Z, X, *).
pub const PROTEIN_CODES: usize = 24;

/// Code used for "unknown/any" protein residue (X).
pub const PROTEIN_UNKNOWN: u8 = 22;

/// DNA residue ordering.
pub const DNA_RESIDUES: &[u8; 5] = b"ACGTN";

/// RNA residue ordering.
pub const RNA_RESIDUES: &[u8; 5] = b"ACGUN";

/// Code used for "unknown/any" nucleotide (N).
pub const NUCLEOTIDE_UNKNOWN: u8 = 4;

/// Entry of a code table for a byte outside the alphabet. No alphabet has
/// this many codes.
pub(crate) const NO_CODE: u8 = 0xff;

/// A 256-entry code table: each of `residues` maps to its index, upper and
/// lower case alike, and each of `aliases` (upper and lower case) to
/// `unknown`. Every other byte maps to [`NO_CODE`].
const fn code_table(residues: &[u8], aliases: &[u8], unknown: u8) -> [u8; 256] {
    let mut table = [NO_CODE; 256];
    let mut i = 0;
    while i < residues.len() {
        table[residues[i] as usize] = i as u8;
        table[residues[i].to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < aliases.len() {
        table[aliases[i] as usize] = unknown;
        table[aliases[i].to_ascii_lowercase() as usize] = unknown;
        i += 1;
    }
    table
}

/// IUPAC nucleotide ambiguity codes other than `N`: all read as `N`.
const NUCLEOTIDE_ALIASES: &[u8] = b"RYSWKMBDHV";

static DNA_TABLE: [u8; 256] = code_table(DNA_RESIDUES, NUCLEOTIDE_ALIASES, NUCLEOTIDE_UNKNOWN);
static RNA_TABLE: [u8; 256] = code_table(RNA_RESIDUES, NUCLEOTIDE_ALIASES, NUCLEOTIDE_UNKNOWN);
// Selenocysteine / pyrrolysine / ambiguous J map to unknown.
static PROTEIN_TABLE: [u8; 256] = code_table(PROTEIN_RESIDUES, b"UOJ", PROTEIN_UNKNOWN);

/// A biological alphabet: which ASCII residues are legal and how they map to
/// dense integer codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alphabet {
    /// Deoxyribonucleic acid: A, C, G, T (+ N for ambiguity).
    Dna,
    /// Ribonucleic acid: A, C, G, U (+ N for ambiguity).
    Rna,
    /// Protein: the 20 standard amino acids plus B, Z, X and the stop `*`.
    Protein,
}

impl Alphabet {
    /// Number of distinct codes in this alphabet.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            Alphabet::Dna | Alphabet::Rna => 5,
            Alphabet::Protein => PROTEIN_CODES,
        }
    }

    /// The residues of this alphabet in code order.
    #[inline]
    pub const fn residues(self) -> &'static [u8] {
        match self {
            Alphabet::Dna => DNA_RESIDUES,
            Alphabet::Rna => RNA_RESIDUES,
            Alphabet::Protein => PROTEIN_RESIDUES,
        }
    }

    /// Code reserved for unknown residues.
    #[inline]
    pub const fn unknown_code(self) -> u8 {
        match self {
            Alphabet::Dna | Alphabet::Rna => NUCLEOTIDE_UNKNOWN,
            Alphabet::Protein => PROTEIN_UNKNOWN,
        }
    }

    /// Map an ASCII residue (case-insensitive) to its code.
    ///
    /// Returns `None` for bytes outside the alphabet. Ambiguity codes that
    /// are not explicitly modelled (e.g. IUPAC `R`, `Y` for DNA; `U`, `O`
    /// for protein) map to the unknown code rather than `None`, matching the
    /// permissive behaviour of database-search tools.
    #[inline]
    pub fn encode_byte(self, byte: u8) -> Option<u8> {
        match self.code_table()[byte as usize] {
            NO_CODE => None,
            code => Some(code),
        }
    }

    /// This alphabet's code for every byte value, [`NO_CODE`] for a byte
    /// outside it: one indexed load per residue, no case fold or branch.
    #[inline]
    pub(crate) const fn code_table(self) -> &'static [u8; 256] {
        match self {
            Alphabet::Dna => &DNA_TABLE,
            Alphabet::Rna => &RNA_TABLE,
            Alphabet::Protein => &PROTEIN_TABLE,
        }
    }

    /// Map a code back to its canonical (uppercase) ASCII residue.
    ///
    /// # Panics
    /// Panics if `code` is out of range for the alphabet.
    #[inline]
    pub fn decode(self, code: u8) -> u8 {
        self.residues()[code as usize]
    }

    /// Encode a whole ASCII residue string into codes.
    ///
    /// Fails with [`SeqError::InvalidResidue`] on the first illegal byte.
    pub fn encode(self, residues: &[u8]) -> Result<Vec<u8>, SeqError> {
        let table = self.code_table();
        let codes: Vec<u8> = residues.iter().map(|&b| table[b as usize]).collect();
        match codes.iter().position(|&c| c == NO_CODE) {
            None => Ok(codes),
            Some(position) => Err(SeqError::InvalidResidue {
                byte: residues[position],
                position,
            }),
        }
    }

    /// Decode a code slice back into ASCII residues.
    pub fn decode_all(self, codes: &[u8]) -> Vec<u8> {
        codes.iter().map(|&c| self.decode(c)).collect()
    }

    /// Whether every byte of `residues` is legal in this alphabet.
    pub fn validates(self, residues: &[u8]) -> bool {
        let table = self.code_table();
        residues.iter().all(|&b| table[b as usize] != NO_CODE)
    }

    /// Guess the alphabet of an ASCII residue string.
    ///
    /// Uses the heuristic common to sequence tools: if ≥ 90 % of the first
    /// 1,000 residues are ACGTUN the sequence is treated as nucleic acid
    /// (DNA unless it contains U), otherwise protein.
    pub fn guess(residues: &[u8]) -> Alphabet {
        let sample = &residues[..residues.len().min(1000)];
        if sample.is_empty() {
            return Alphabet::Protein;
        }
        let mut nucleic = 0usize;
        let mut has_u = false;
        let mut has_t = false;
        for &b in sample {
            match b.to_ascii_uppercase() {
                b'A' | b'C' | b'G' | b'N' => nucleic += 1,
                b'T' => {
                    nucleic += 1;
                    has_t = true;
                }
                b'U' => {
                    nucleic += 1;
                    has_u = true;
                }
                _ => {}
            }
        }
        if nucleic * 10 >= sample.len() * 9 {
            if has_u && !has_t {
                Alphabet::Rna
            } else {
                Alphabet::Dna
            }
        } else {
            Alphabet::Protein
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protein_round_trip() {
        for (code, &res) in PROTEIN_RESIDUES.iter().enumerate() {
            assert_eq!(Alphabet::Protein.encode_byte(res), Some(code as u8));
            assert_eq!(Alphabet::Protein.decode(code as u8), res);
        }
    }

    #[test]
    fn dna_round_trip() {
        for (code, &res) in DNA_RESIDUES.iter().enumerate() {
            assert_eq!(Alphabet::Dna.encode_byte(res), Some(code as u8));
            assert_eq!(Alphabet::Dna.decode(code as u8), res);
        }
    }

    #[test]
    fn rna_uses_u_not_t() {
        assert_eq!(Alphabet::Rna.encode_byte(b'U'), Some(3));
        assert!(Alphabet::Rna.encode_byte(b'T').is_none());
        assert!(Alphabet::Dna.encode_byte(b'U').is_none());
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(Alphabet::Protein.encode_byte(b'w'), Some(17));
        assert_eq!(Alphabet::Dna.encode_byte(b'g'), Some(2));
    }

    #[test]
    fn ambiguity_maps_to_unknown() {
        assert_eq!(Alphabet::Dna.encode_byte(b'R'), Some(NUCLEOTIDE_UNKNOWN));
        assert_eq!(Alphabet::Protein.encode_byte(b'U'), Some(PROTEIN_UNKNOWN));
        assert_eq!(Alphabet::Protein.encode_byte(b'J'), Some(PROTEIN_UNKNOWN));
    }

    #[test]
    fn illegal_bytes_rejected() {
        assert!(Alphabet::Protein.encode_byte(b'7').is_none());
        assert!(Alphabet::Dna.encode_byte(b'E').is_none());
        let err = Alphabet::Dna.encode(b"ACGE").unwrap_err();
        match err {
            SeqError::InvalidResidue { byte, position } => {
                assert_eq!(byte, b'E');
                assert_eq!(position, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn encode_decode_all() {
        let codes = Alphabet::Protein.encode(b"MKVL").unwrap();
        assert_eq!(Alphabet::Protein.decode_all(&codes), b"MKVL");
    }

    #[test]
    fn guess_dna_rna_protein() {
        assert_eq!(Alphabet::guess(b"ACGTACGTACGT"), Alphabet::Dna);
        assert_eq!(Alphabet::guess(b"ACGUACGUACGU"), Alphabet::Rna);
        assert_eq!(Alphabet::guess(b"MKVLAWPFSRE"), Alphabet::Protein);
        assert_eq!(Alphabet::guess(b""), Alphabet::Protein);
    }

    #[test]
    fn validates_checks_every_byte() {
        assert!(Alphabet::Protein.validates(b"ACDEFGHIKLMNPQRSTVWY"));
        assert!(!Alphabet::Protein.validates(b"ACDE1"));
    }

    #[test]
    fn sizes_match_residue_tables() {
        for a in [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein] {
            assert_eq!(a.size(), a.residues().len());
            assert!((a.unknown_code() as usize) < a.size());
        }
    }
}
