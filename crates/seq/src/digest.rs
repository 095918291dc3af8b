//! Content digests for queries and databases.
//!
//! A long-running search service must know when two queries are *the same
//! work* (so a cached result can be reused) and when the database a result
//! was computed against has changed (so the cached result is stale). Both
//! questions are answered with a stable 64-bit FNV-1a digest over the
//! encoded content: alphabet codes are canonical (case and formatting
//! differences in the FASTA source disappear at encoding time), so two
//! textually different files describing the same sequences digest equally.
//!
//! FNV-1a is not cryptographic; it is used here as a cache key, where an
//! adversarially constructed collision is not part of the threat model and
//! a stray collision costs a wrong cache hit in ~2⁻⁶⁴ of lookups.

use crate::sequence::EncodedSequence;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Start a fresh digest.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb `bytes` into `self` and `other` in one walk. The two
    /// multiply chains do not depend on each other, so the processor runs
    /// them side by side: two digests for about the time of one.
    fn update_pair(&mut self, other: &mut Fnv1a, bytes: &[u8]) {
        let (mut a, mut b) = (self.0, other.0);
        for &byte in bytes {
            a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        (self.0, other.0) = (a, b);
    }

    /// Absorb a length-prefixed byte run (makes the digest unambiguous
    /// under concatenation: `["ab","c"]` ≠ `["a","bc"]`).
    pub fn update_framed(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one encoded query: its alphabet codes only. Two queries with
/// the same residues digest equally regardless of their FASTA ids — the
/// id does not change the scores, so it must not split the cache.
pub fn query_digest(codes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update_framed(codes);
    h.finish()
}

/// Digest of a database: ids *and* codes of every sequence, in order.
/// Ids participate because hit lists report them — renaming a subject
/// changes the observable result even though scores are unchanged. Order
/// participates because `db_index` (the tie-break of every ranking) does.
pub fn db_digest(subjects: &[EncodedSequence]) -> u64 {
    db_walk(subjects, |h, codes| h.update(codes))
}

/// [`db_digest`], also absorbing every sequence's codes, in database
/// order and unframed, into `codes_hash` in the same walk (a store's arena
/// checksum).
pub fn db_digest_feeding(subjects: &[EncodedSequence], codes_hash: &mut Fnv1a) -> u64 {
    db_walk(subjects, |h, codes| h.update_pair(codes_hash, codes))
}

/// The [`db_digest`] walk, with `absorb` taking each sequence's codes
/// after their length.
fn db_walk(subjects: &[EncodedSequence], mut absorb: impl FnMut(&mut Fnv1a, &[u8])) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&(subjects.len() as u64).to_le_bytes());
    for s in subjects {
        h.update_framed(s.id.as_bytes());
        h.update(&(s.codes.len() as u64).to_le_bytes());
        absorb(&mut h, &s.codes);
    }
    h.finish()
}

/// [`db_digest`] computed from a database's parts — ids plus an arena —
/// instead of `EncodedSequence`s. Bit-identical to [`db_digest`] over the
/// sequences the parts were built from, so a store file's recorded digest
/// and a FASTA-loaded daemon's recomputed one agree.
///
/// The walk is in database order whatever the arena's scan order: sequence
/// `i` is read at its scan position.
pub fn db_digest_parts(ids: &[String], arena: &crate::arena::DbArena) -> u64 {
    debug_assert_eq!(ids.len(), arena.len());
    let mut h = Fnv1a::new();
    h.update(&(ids.len() as u64).to_le_bytes());
    for (i, id) in ids.iter().enumerate() {
        h.update_framed(id.as_bytes());
        h.update_framed(arena.residues(arena.scan_pos(i)));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn enc(id: &str, residues: &[u8]) -> EncodedSequence {
        EncodedSequence {
            id: id.into(),
            codes: Alphabet::Protein.encode(residues).unwrap(),
            alphabet: Alphabet::Protein,
        }
    }

    #[test]
    fn query_digest_depends_only_on_codes() {
        let a = enc("a", b"MKVLAW");
        let b = enc("completely-different-id", b"MKVLAW");
        let c = enc("a", b"MKVLAC");
        assert_eq!(query_digest(&a.codes), query_digest(&b.codes));
        assert_ne!(query_digest(&a.codes), query_digest(&c.codes));
    }

    #[test]
    fn db_digest_sees_ids_order_and_content() {
        let base = vec![enc("a", b"MKVL"), enc("b", b"AWCD")];
        let renamed = vec![enc("a", b"MKVL"), enc("z", b"AWCD")];
        let reordered = vec![enc("b", b"AWCD"), enc("a", b"MKVL")];
        let edited = vec![enc("a", b"MKVL"), enc("b", b"AWCE")];
        let d = db_digest(&base);
        assert_ne!(d, db_digest(&renamed));
        assert_ne!(d, db_digest(&reordered));
        assert_ne!(d, db_digest(&edited));
        assert_eq!(d, db_digest(&base.clone()));
    }

    #[test]
    fn framing_disambiguates_splits() {
        // ["ab", "c"] vs ["a", "bc"]: same concatenation, different dbs.
        let one = vec![enc("x", b"AC"), enc("y", b"D")];
        let two = vec![enc("x", b"A"), enc("y", b"CD")];
        assert_ne!(db_digest(&one), db_digest(&two));
    }

    #[test]
    fn digest_parts_matches_db_digest() {
        let db = vec![enc("a", b"MKVL"), enc("b", b"AWCD"), enc("c", b"")];
        let ids: Vec<String> = db.iter().map(|s| s.id.clone()).collect();
        let arena = crate::arena::DbArena::from_encoded(&db);
        assert_eq!(db_digest_parts(&ids, &arena), db_digest(&db));
        // A length-ordered arena scans c, a, b but digests a, b, c.
        let sorted = crate::arena::DbArena::length_sorted(&db);
        assert_eq!(sorted.db_index(0), 2);
        assert_eq!(db_digest_parts(&ids, &sorted), db_digest(&db));
        assert_eq!(
            db_digest_parts(&[], &crate::arena::DbArena::from_encoded(&[])),
            db_digest(&[])
        );
    }

    #[test]
    fn feeding_walk_matches_both_digests() {
        for db in [
            vec![],
            vec![enc("a", b"MKVL"), enc("b", b""), enc("c", b"AWCDE")],
        ] {
            let mut codes = Fnv1a::new();
            assert_eq!(db_digest_feeding(&db, &mut codes), db_digest(&db));
            let mut serial = Fnv1a::new();
            for s in &db {
                serial.update(&s.codes);
            }
            assert_eq!(codes.finish(), serial.finish());
        }
    }

    #[test]
    fn empty_inputs_digest_stably() {
        assert_eq!(query_digest(&[]), query_digest(&[]));
        assert_ne!(query_digest(&[]), query_digest(&[0]));
        assert_eq!(db_digest(&[]), db_digest(&[]));
    }
}
