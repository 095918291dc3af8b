//! Opening `.swdb` stores and borrowing snapshots out of them.
//!
//! [`Store::open`] performs the always-on validation: fixed-header
//! geometry, section bounds, the metadata checksum (tiny), id/span/chunk
//! consistency, and a vectorizable code-bound sweep of the arena — the
//! last one guarantees that no corrupt byte can ever index a score matrix
//! out of range, even on the fast path. [`Store::open_verified`]
//! additionally re-hashes the arena checksum and the full db digest
//! (`--verify-store`, `db inspect`).
//!
//! [`Store::into_snapshot`] hands the daemon a [`DbSnapshot`] whose arena
//! **borrows the mapping** — residues are never copied; the kernels scan
//! the page cache directly, in the stored length-sorted scan permutation
//! (computed at open for a store written without one).

use std::path::Path;
use std::sync::Arc;

use swhybrid_seq::arena::{length_order, DbArena};
use swhybrid_seq::digest::db_digest_parts;
use swhybrid_seq::snapshot::DbSnapshot;
use swhybrid_seq::{Alphabet, SharedBytes};

use crate::error::StoreError;
use crate::format::Header;
use crate::mmap::StoreBytes;

/// How much of the store to check at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Structural validation, metadata checksum, arena code bounds.
    Quick,
    /// `Quick` plus the arena checksum and a full db-digest re-hash.
    Full,
}

/// An opened, validated `.swdb` store.
pub struct Store {
    bytes: Arc<StoreBytes>,
    header: Header,
    name: String,
    ids: Vec<String>,
    spans: Vec<(usize, usize)>,
    perm: Vec<usize>,
    chunks: Vec<u64>,
}

impl Store {
    /// Open with [`Verify::Quick`].
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(path, Verify::Quick)
    }

    /// Open with [`Verify::Full`].
    pub fn open_verified(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(path, Verify::Full)
    }

    /// Open `path`, memory-mapping where possible, at the given
    /// verification level.
    pub fn open_with(path: impl AsRef<Path>, verify: Verify) -> Result<Store, StoreError> {
        Store::from_bytes(StoreBytes::open(path)?, verify)
    }

    /// Validate an already-loaded byte buffer (tests, corruption
    /// injection).
    pub fn from_bytes(bytes: StoreBytes, verify: Verify) -> Result<Store, StoreError> {
        let data = bytes.as_ref();
        let header = Header::parse(data)?;

        // Metadata checksum first: everything below parses those bytes.
        let mut meta_hash = swhybrid_seq::digest::Fnv1a::new();
        meta_hash.update(&data[..crate::format::META_CHECKSUM_COVERS as usize]);
        for (_, off, len) in header.meta_sections() {
            meta_hash.update(&data[off as usize..(off + len) as usize]);
        }
        let actual = meta_hash.finish();
        if actual != header.meta_checksum {
            return Err(StoreError::ChecksumMismatch {
                section: "metadata",
                recorded: header.meta_checksum,
                actual,
            });
        }

        let section = |off: u64, len: u64| &data[off as usize..(off + len) as usize];
        let u64s = |off: u64, count: u64| -> Vec<u64> {
            // Invariant: `chunks_exact(8)` yields 8-byte slices only.
            section(off, count * 8)
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .collect()
        };

        let name = String::from_utf8(section(header.name_off, header.name_len).to_vec())
            .map_err(|_| StoreError::BadGeometry("database name is not UTF-8".into()))?;

        // Ids: prefix offsets must be monotonic and end at ids_len.
        let id_offsets = u64s(header.id_offsets_off, header.num_seqs + 1);
        if id_offsets.first() != Some(&0) || id_offsets.last() != Some(&header.ids_len) {
            return Err(StoreError::BadGeometry(format!(
                "id offsets span [{:?}, {:?}], ids section holds {} bytes",
                id_offsets.first(),
                id_offsets.last(),
                header.ids_len
            )));
        }
        let ids_bytes = section(header.ids_off, header.ids_len);
        let mut ids = Vec::with_capacity(header.num_seqs as usize);
        for (i, w) in id_offsets.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(StoreError::BadGeometry(format!(
                    "id offsets decrease at entry {i}"
                )));
            }
            let id = std::str::from_utf8(&ids_bytes[w[0] as usize..w[1] as usize])
                .map_err(|_| StoreError::BadGeometry(format!("id {i} is not UTF-8")))?;
            ids.push(id.to_string());
        }

        // Invariant: a 16-byte chunk splits into two 8-byte halves.
        let spans: Vec<(usize, usize)> = section(header.spans_off, header.spans_len())
            .chunks_exact(16)
            .map(|b| {
                (
                    u64::from_le_bytes(b[..8].try_into().unwrap()) as usize,
                    u64::from_le_bytes(b[8..].try_into().unwrap()) as usize,
                )
            })
            .collect();
        if let Some((max, min)) =
            spans
                .iter()
                .map(|&(_, l)| l as u64)
                .fold(None, |acc: Option<(u64, u64)>, l| {
                    Some(acc.map_or((l, l), |(mx, mn)| (mx.max(l), mn.min(l))))
                })
        {
            if max != header.max_len || min != header.min_len {
                return Err(StoreError::BadGeometry(format!(
                    "header records lengths [{}, {}], spans hold [{min}, {max}]",
                    header.min_len, header.max_len
                )));
            }
        }

        let perm: Vec<usize> = if header.has_perm() {
            u64s(header.perm_off, header.num_seqs)
                .into_iter()
                .map(|v| v as usize)
                .collect()
        } else {
            length_order(spans.iter().map(|&(_, len)| len))
        };
        let chunks = u64s(header.chunks_off, header.num_chunks());

        // Always-on arena safety sweep: every byte must be a valid code, so
        // a Quick open can never feed an out-of-range byte to a kernel.
        // A max-reduction has no early exit, so the compiler vectorizes it;
        // only when it fails do we rescan to locate the offending byte.
        let arena = section(header.arena_off, header.arena_len);
        let bound = header.alphabet.size() as u8;
        let max_code = arena.iter().fold(0u8, |m, &b| m.max(b));
        if max_code >= bound {
            // Invariant: a maximum at or past `bound` is some byte's value.
            let pos = arena
                .iter()
                .position(|&b| b >= bound)
                .expect("max_code >= bound implies an offending byte exists");
            return Err(StoreError::CodeOutOfRange {
                position: pos as u64,
                byte: arena[pos],
                alphabet_size: bound,
            });
        }

        if verify == Verify::Full {
            let mut h = swhybrid_seq::digest::Fnv1a::new();
            h.update(arena);
            let actual = h.finish();
            if actual != header.arena_checksum {
                return Err(StoreError::ChecksumMismatch {
                    section: "arena",
                    recorded: header.arena_checksum,
                    actual,
                });
            }
        }

        let store = Store {
            bytes: Arc::new(bytes),
            header,
            name,
            ids,
            spans,
            perm,
            chunks,
        };

        if verify == Verify::Full {
            // Re-hash ids + codes and compare against the recorded digest.
            let arena = store.arena()?;
            let actual = db_digest_parts(&store.ids, &arena);
            if actual != store.header.db_digest {
                return Err(StoreError::DigestMismatch {
                    recorded: store.header.db_digest,
                    actual,
                });
            }
        }
        Ok(store)
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Database name recorded in the store.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The alphabet the arena is encoded in.
    pub fn alphabet(&self) -> Alphabet {
        self.header.alphabet
    }

    /// The recorded FNV db digest — *trusted* on Quick opens; verified
    /// opens have re-hashed it.
    pub fn db_digest(&self) -> u64 {
        self.header.db_digest
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Subject ids, database order.
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// Per-chunk residue counts ([`swhybrid_seq::snapshot::CHUNK_STRIDE`]
    /// sequences per entry).
    pub fn chunk_residues(&self) -> &[u64] {
        &self.chunks
    }

    /// Whether the bytes are served by a live memory mapping (as opposed
    /// to an owned read).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// An arena borrowing the mapped bytes (zero-copy), scanned in the
    /// store's permutation.
    fn arena(&self) -> Result<DbArena, StoreError> {
        let shared: SharedBytes = self.bytes.clone();
        Ok(DbArena::from_shared(
            shared,
            self.header.arena_off as usize,
            self.header.arena_len as usize,
            self.spans.clone(),
            self.perm.clone(),
        )?)
    }

    /// Turn the store into a [`DbSnapshot`] whose arena borrows the
    /// mapping. The stored chunk table is cross-checked against the spans,
    /// and a permutation that is not the stable length order of the spans
    /// is refused ([`swhybrid_seq::SeqError::ScanOrder`]).
    pub fn into_snapshot(self) -> Result<DbSnapshot, StoreError> {
        let arena = self.arena()?;
        Ok(DbSnapshot::from_parts(
            self.name,
            self.header.alphabet,
            self.ids,
            arena,
            self.header.db_digest,
            Some(&self.chunks),
        )?)
    }
}
