//! Corruption suite for FASTA input: every damaged or unusual file that
//! `search`, `master`, `slave`, `serve` and `db build` read through
//! [`read_encoded`] must give a typed [`SeqError`] or a defined parse —
//! never a panic.

use std::path::PathBuf;

use swhybrid_seq::fasta::read_encoded;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, SeqError};

/// Write `bytes` to a fresh file and read it back as protein.
fn read(tag: &str, bytes: &[u8]) -> Result<Vec<EncodedSequence>, SeqError> {
    let dir = std::env::temp_dir().join(format!("fasta_corrupt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("input.fasta");
    std::fs::write(&path, bytes).unwrap();
    let out = read_encoded(&path, Alphabet::Protein);
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn malformed(result: Result<Vec<EncodedSequence>, SeqError>) -> String {
    match result {
        Err(SeqError::MalformedFasta(msg)) => msg,
        other => panic!("expected MalformedFasta, got {other:?}"),
    }
}

/// Regression: the error preview of a non-header first line was cut at
/// byte 40, which panics when byte 40 falls inside a multi-byte character.
#[test]
fn multi_byte_character_at_the_preview_cut_is_an_error_not_a_panic() {
    let mut line = "M".repeat(39);
    line.push('é');
    line.push_str("KVL\n>q\nMKV\n");
    assert!(!line.is_char_boundary(40));
    let msg = malformed(read("multibyte", line.as_bytes()));
    assert!(msg.starts_with("expected '>' header"), "{msg}");
    // The preview keeps whole characters: 39 residues and the `é`.
    assert!(msg.contains(&format!("{}é", "M".repeat(39))), "{msg}");
    assert!(!msg.contains("KVL"), "{msg}");
}

#[test]
fn residues_before_the_first_header_are_an_error() {
    let msg = malformed(read("headless", b"MKVL\n>q\nMKV\n"));
    assert!(msg.contains("\"MKVL\""), "{msg}");
}

#[test]
fn non_utf8_bytes_are_an_io_error() {
    for (tag, bytes) in [
        ("utf8_header", &b">q\xff\xfe\nMKV\n"[..]),
        ("utf8_body", &b">q\nMK\xc3\nV\n"[..]),
    ] {
        match read(tag, bytes) {
            Err(SeqError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("{tag}: expected an I/O error, got {other:?}"),
        }
    }
}

#[test]
fn a_non_protein_residue_names_its_record() {
    let msg = malformed(read("residue", b">ok\nMKV\n>bad\nMK1V\n"));
    assert!(msg.starts_with("record bad:"), "{msg}");
    assert!(msg.contains("'1'") && msg.contains("position 2"), "{msg}");
    // A multi-byte character inside a record is a residue error too.
    let msg = malformed(read("residue_utf8", ">bad\nMKéV\n".as_bytes()));
    assert!(msg.starts_with("record bad:"), "{msg}");
}

/// A header with no residues is a legal, empty record, wherever it sits.
#[test]
fn a_header_only_final_record_is_an_empty_record() {
    for (tag, bytes) in [
        ("tail", &b">a\nMKV\n>b\n"[..]),
        ("tail_no_newline", &b">a\nMKV\n>b"[..]),
    ] {
        let records = read(tag, bytes).unwrap();
        let shape: Vec<(&str, usize)> = records.iter().map(|r| (r.id.as_str(), r.len())).collect();
        assert_eq!(shape, [("a", 3), ("b", 0)], "{tag}");
    }
}

/// CRLF line endings parse exactly as LF ones.
#[test]
fn crlf_line_endings_parse_as_lf() {
    let lf = read("lf", b">a desc\nMKV\nLAW\n>b\nW\n").unwrap();
    let crlf = read("crlf", b">a desc\r\nMKV\r\nLAW\r\n>b\r\nW\r\n").unwrap();
    assert_eq!(crlf, lf);
    assert_eq!(crlf[0].id, "a");
    assert_eq!(crlf[0].len(), 6);
}
