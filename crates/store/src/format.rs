//! The `.swdb` on-disk layout (version 1).
//!
//! Everything is little-endian. The file is one fixed header followed by
//! the metadata sections and, 64-byte aligned, the residue arena:
//!
//! ```text
//! off  size  field
//!   0     8  magic            b"SWHYBDB\0"
//!   8     4  version          u32 (= 1)
//!  12     4  flags            u32 (bit 0: perm section present)
//!  16     1  alphabet         u8 (0 = DNA, 1 = RNA, 2 = protein)
//!  17     7  pad              zero
//!  24     8  db_digest        u64  FNV-1a over ids + codes (db order)
//!  32     8  num_seqs         u64
//!  40     8  total_residues   u64  (= arena_len)
//!  48     8  max_len          u64
//!  56     8  min_len          u64
//!  64     8  name_off         u64 ┐ database name (UTF-8)
//!  72     8  name_len         u64 ┘
//!  80     8  ids_off          u64 ┐ concatenated id bytes (UTF-8)
//!  88     8  ids_len          u64 ┘
//!  96     8  id_offsets_off   u64  (num_seqs + 1) × u64 prefix offsets
//! 104     8  spans_off        u64  num_seqs × (offset u64, len u64)
//! 112     8  perm_off         u64  num_seqs × u64 (iff flags bit 0)
//! 120     8  chunks_off       u64  ⌈num_seqs / chunk_stride⌉ × u64
//! 128     8  chunk_stride     u64  sequences per chunk entry
//! 136     8  arena_off        u64  64-byte aligned
//! 144     8  arena_len        u64
//! 152     8  meta_checksum    u64  FNV-1a over bytes [0, 152) ++ every
//!                                  metadata section, in field order
//! 160     8  arena_checksum   u64  FNV-1a over the arena bytes
//! 168        sections…
//! ```
//!
//! The arena holds every sequence's codes concatenated **in database
//! order**, and the spans describe it in that order. The scan permutation
//! (scan position → database index) is the stable length order of the
//! spans — ascending length, equal lengths in database order — and is the
//! order every snapshot scans and every shard range names; a reader
//! reorders only its spans table through it, and refuses any other order.
//! A store without the section is scanned in that order too, computed at
//! open. `meta_checksum` is always verified on open (it is tiny);
//! `arena_checksum` and the db digest re-hash are opt-in
//! ([`crate::Verify::Full`]) so cold start stays O(metadata), with an
//! always-on code-bound scan guaranteeing corrupt arena bytes can never
//! reach a kernel out of matrix range.

use swhybrid_seq::Alphabet;

use crate::error::StoreError;

/// Magic bytes identifying a `.swdb` store.
pub const MAGIC: &[u8; 8] = b"SWHYBDB\0";

/// Format version this build reads and writes.
pub const VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 168;

/// Required alignment of the arena section.
pub const ARENA_ALIGN: u64 = 64;

/// Flag bit: the length-sorted scan permutation section is present.
pub const FLAG_HAS_PERM: u32 = 1;

/// Byte range of the header covered by `meta_checksum` (both checksum
/// fields excluded).
pub const META_CHECKSUM_COVERS: u64 = 152;

/// Alphabet → header byte.
pub fn alphabet_code(a: Alphabet) -> u8 {
    match a {
        Alphabet::Dna => 0,
        Alphabet::Rna => 1,
        Alphabet::Protein => 2,
    }
}

/// Header byte → alphabet.
pub fn alphabet_from_code(code: u8) -> Result<Alphabet, StoreError> {
    match code {
        0 => Ok(Alphabet::Dna),
        1 => Ok(Alphabet::Rna),
        2 => Ok(Alphabet::Protein),
        other => Err(StoreError::BadGeometry(format!(
            "unknown alphabet code {other}"
        ))),
    }
}

/// The parsed fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub flags: u32,
    pub alphabet: Alphabet,
    pub db_digest: u64,
    pub num_seqs: u64,
    pub total_residues: u64,
    pub max_len: u64,
    pub min_len: u64,
    pub name_off: u64,
    pub name_len: u64,
    pub ids_off: u64,
    pub ids_len: u64,
    pub id_offsets_off: u64,
    pub spans_off: u64,
    pub perm_off: u64,
    pub chunks_off: u64,
    pub chunk_stride: u64,
    pub arena_off: u64,
    pub arena_len: u64,
    pub meta_checksum: u64,
    pub arena_checksum: u64,
}

impl Header {
    /// Whether the permutation section is present.
    pub fn has_perm(&self) -> bool {
        self.flags & FLAG_HAS_PERM != 0
    }

    /// Byte length of the id-offsets section.
    pub fn id_offsets_len(&self) -> u64 {
        (self.num_seqs + 1) * 8
    }

    /// Byte length of the spans section.
    pub fn spans_len(&self) -> u64 {
        self.num_seqs * 16
    }

    /// Byte length of the permutation section (0 when absent).
    pub fn perm_len(&self) -> u64 {
        if self.has_perm() {
            self.num_seqs * 8
        } else {
            0
        }
    }

    /// Number of chunk entries.
    pub fn num_chunks(&self) -> u64 {
        self.num_seqs.div_ceil(self.chunk_stride.max(1))
    }

    /// Byte length of the chunks section.
    pub fn chunks_len(&self) -> u64 {
        self.num_chunks() * 8
    }

    /// Serialise to the fixed 168-byte layout.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN as usize] {
        let mut out = [0u8; HEADER_LEN as usize];
        out[0..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16] = alphabet_code(self.alphabet);
        let fields = [
            (24, self.db_digest),
            (32, self.num_seqs),
            (40, self.total_residues),
            (48, self.max_len),
            (56, self.min_len),
            (64, self.name_off),
            (72, self.name_len),
            (80, self.ids_off),
            (88, self.ids_len),
            (96, self.id_offsets_off),
            (104, self.spans_off),
            (112, self.perm_off),
            (120, self.chunks_off),
            (128, self.chunk_stride),
            (136, self.arena_off),
            (144, self.arena_len),
            (152, self.meta_checksum),
            (160, self.arena_checksum),
        ];
        for (off, v) in fields {
            out[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parse and structurally validate the fixed header from the start of
    /// `bytes` (the whole file).
    pub fn parse(bytes: &[u8]) -> Result<Header, StoreError> {
        let have = bytes.len() as u64;
        if have < HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "fixed header".into(),
                need: HEADER_LEN,
                have,
            });
        }
        if &bytes[0..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[0..8]);
            return Err(StoreError::BadMagic { found });
        }
        // Invariant: `bytes` holds HEADER_LEN bytes, so a 4-byte range converts.
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::BadVersion {
                found: version,
                supported: VERSION,
            });
        }
        // Invariant: every offset below is at most HEADER_LEN − 8, so 8 bytes convert.
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let header = Header {
            // Invariant: a 4-byte range inside HEADER_LEN converts.
            flags: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
            alphabet: alphabet_from_code(bytes[16])?,
            db_digest: u64_at(24),
            num_seqs: u64_at(32),
            total_residues: u64_at(40),
            max_len: u64_at(48),
            min_len: u64_at(56),
            name_off: u64_at(64),
            name_len: u64_at(72),
            ids_off: u64_at(80),
            ids_len: u64_at(88),
            id_offsets_off: u64_at(96),
            spans_off: u64_at(104),
            perm_off: u64_at(112),
            chunks_off: u64_at(120),
            chunk_stride: u64_at(128),
            arena_off: u64_at(136),
            arena_len: u64_at(144),
            meta_checksum: u64_at(152),
            arena_checksum: u64_at(160),
        };
        if header.chunk_stride == 0 {
            return Err(StoreError::BadGeometry("chunk stride of zero".into()));
        }
        if header.total_residues != header.arena_len {
            return Err(StoreError::BadGeometry(format!(
                "total_residues {} != arena_len {}",
                header.total_residues, header.arena_len
            )));
        }
        if !header.arena_off.is_multiple_of(ARENA_ALIGN) {
            return Err(StoreError::Misaligned {
                section: "arena",
                offset: header.arena_off,
                align: ARENA_ALIGN,
            });
        }
        for (section, off, len) in header.sections() {
            let end = off.checked_add(len).ok_or_else(|| {
                StoreError::BadGeometry(format!("{section} section offset + length overflows"))
            })?;
            if off < HEADER_LEN {
                return Err(StoreError::BadGeometry(format!(
                    "{section} section at {off} overlaps the header"
                )));
            }
            if end > have {
                return Err(StoreError::Truncated {
                    what: format!("{section} section"),
                    need: end,
                    have,
                });
            }
        }
        Ok(header)
    }

    /// Every section as `(name, offset, byte length)`, in file order.
    pub fn sections(&self) -> Vec<(&'static str, u64, u64)> {
        let mut v = vec![
            ("name", self.name_off, self.name_len),
            ("ids", self.ids_off, self.ids_len),
            ("id_offsets", self.id_offsets_off, self.id_offsets_len()),
            ("spans", self.spans_off, self.spans_len()),
        ];
        if self.has_perm() {
            v.push(("perm", self.perm_off, self.perm_len()));
        }
        v.push(("chunks", self.chunks_off, self.chunks_len()));
        v.push(("arena", self.arena_off, self.arena_len));
        v
    }

    /// The metadata sections covered by `meta_checksum` (everything except
    /// the arena), in checksum order.
    pub fn meta_sections(&self) -> Vec<(&'static str, u64, u64)> {
        let mut v = self.sections();
        v.pop(); // arena
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Header {
        Header {
            flags: FLAG_HAS_PERM,
            alphabet: Alphabet::Protein,
            db_digest: 0xdead_beef_cafe_f00d,
            num_seqs: 3,
            total_residues: 10,
            max_len: 5,
            min_len: 2,
            name_off: HEADER_LEN,
            name_len: 4,
            ids_off: HEADER_LEN + 4,
            ids_len: 6,
            id_offsets_off: HEADER_LEN + 10,
            spans_off: HEADER_LEN + 10 + 32,
            perm_off: HEADER_LEN + 10 + 32 + 48,
            chunks_off: HEADER_LEN + 10 + 32 + 48 + 24,
            chunk_stride: 1024,
            arena_off: 320,
            arena_len: 10,
            meta_checksum: 1,
            arena_checksum: 2,
        }
    }

    #[test]
    fn header_round_trips() {
        let h = sample();
        let mut file = h.to_bytes().to_vec();
        file.resize(h.arena_off as usize + h.arena_len as usize, 0);
        assert_eq!(Header::parse(&file).unwrap(), h);
    }

    #[test]
    fn alphabet_codes_round_trip() {
        for a in [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein] {
            assert_eq!(alphabet_from_code(alphabet_code(a)).unwrap(), a);
        }
        assert!(alphabet_from_code(9).is_err());
    }
}
