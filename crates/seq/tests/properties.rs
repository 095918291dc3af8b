//! Property-based tests of the sequence substrate: FASTA round-trips,
//! encoding laws, database chunking.

use proptest::prelude::*;
use swhybrid_seq::alphabet::Alphabet;
use swhybrid_seq::fasta;
use swhybrid_seq::sequence::Sequence;

/// Characters legal in generated identifiers and description words.
const ID_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.|-";

fn word(min: usize, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(ID_CHARS.to_vec()), min..max + 1)
        .prop_map(|chars| String::from_utf8(chars).unwrap())
}

/// Identifier strings that survive a FASTA header round-trip (no spaces —
/// FASTA splits at the first whitespace).
fn fasta_id() -> impl Strategy<Value = String> {
    word(1, 24)
}

/// Description text (may be empty; single spaces between words, so equality
/// is exact — FASTA collapses neither but we avoid leading/trailing runs).
fn fasta_desc() -> impl Strategy<Value = String> {
    prop::collection::vec(word(1, 12), 0..5).prop_map(|words| words.join(" "))
}

/// Residue strings over the protein alphabet's canonical letters.
fn residues() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(b"ARNDCQEGHILKMFPSTWYV".to_vec()),
        0..200,
    )
}

fn records() -> impl Strategy<Value = Vec<Sequence>> {
    prop::collection::vec(
        (fasta_id(), fasta_desc(), residues())
            .prop_map(|(id, desc, res)| Sequence::new(id, desc, res)),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fasta_write_parse_round_trips(recs in records()) {
        let text = fasta::to_string(&recs);
        let parsed = fasta::parse_str(&text).unwrap();
        prop_assert_eq!(parsed, recs);
    }

    #[test]
    fn protein_encode_decode_is_identity(res in residues()) {
        let codes = Alphabet::Protein.encode(&res).unwrap();
        prop_assert_eq!(Alphabet::Protein.decode_all(&codes), res);
    }

    #[test]
    fn encoding_is_case_insensitive(res in residues()) {
        let lower: Vec<u8> = res.iter().map(|b| b.to_ascii_lowercase()).collect();
        prop_assert_eq!(
            Alphabet::Protein.encode(&res).unwrap(),
            Alphabet::Protein.encode(&lower).unwrap()
        );
    }

    #[test]
    fn chunking_partitions_any_database(recs in records(), n in 1usize..6) {
        let db = swhybrid_seq::Database::new("p", Alphabet::Protein, recs.clone());
        let chunks = db.chunks_by_residues(n);
        prop_assert_eq!(chunks.len(), n);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, recs.len());
        let flattened: Vec<&Sequence> = chunks.iter().flat_map(|c| c.iter()).collect();
        for (orig, got) in recs.iter().zip(flattened) {
            prop_assert_eq!(orig, got);
        }
    }
}
