//! Differential tests of the FASTA reader and the alphabet code tables
//! against the implementations they replaced: a line-by-line `String`
//! reader that builds each record whole and then encodes it, and the
//! per-byte `match` of `Alphabet::encode_byte`. Results must agree exactly:
//! equal `Ok` values, and on `Err` the same variant and the same message.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;

use proptest::prelude::*;
use swhybrid_seq::fasta::{self, FastaReader, BUFFER_BYTES};
use swhybrid_seq::sequence::{EncodedSequence, Sequence};
use swhybrid_seq::{Alphabet, SeqError};

/// The reader `fasta` had before it scanned bytes: one UTF-8 `read_line`
/// per line, one whole `Sequence` per record, encoded afterwards.
mod oracle {
    use super::*;

    pub struct Reader<R: BufRead> {
        inner: R,
        pending_header: Option<String>,
        line: String,
    }

    impl<R: BufRead> Reader<R> {
        pub fn new(inner: R) -> Self {
            Reader {
                inner,
                pending_header: None,
                line: String::new(),
            }
        }

        pub fn next_record(&mut self) -> Result<Option<Sequence>, SeqError> {
            let header = match self.pending_header.take() {
                Some(h) => h,
                None => loop {
                    self.line.clear();
                    if self.inner.read_line(&mut self.line)? == 0 {
                        return Ok(None);
                    }
                    let trimmed = self.line.trim_end();
                    if trimmed.is_empty() {
                        continue;
                    }
                    if let Some(h) = trimmed.strip_prefix('>') {
                        break h.to_string();
                    }
                    return Err(SeqError::MalformedFasta(format!(
                        "expected '>' header, found {:?}",
                        preview(trimmed)
                    )));
                },
            };
            let mut residues = Vec::new();
            loop {
                self.line.clear();
                if self.inner.read_line(&mut self.line)? == 0 {
                    break;
                }
                let trimmed = self.line.trim_end();
                if let Some(h) = trimmed.strip_prefix('>') {
                    self.pending_header = Some(h.to_string());
                    break;
                }
                residues.extend(trimmed.bytes().filter(|b| !b.is_ascii_whitespace()));
            }
            let (id, description) = match header.split_once(char::is_whitespace) {
                Some((id, desc)) => (id.to_string(), desc.trim().to_string()),
                None => (header.to_string(), String::new()),
            };
            Ok(Some(Sequence::new(id, description, residues)))
        }

        pub fn read_all(&mut self) -> Result<Vec<Sequence>, SeqError> {
            let mut out = Vec::new();
            while let Some(rec) = self.next_record()? {
                out.push(rec);
            }
            Ok(out)
        }
    }

    fn preview(line: &str) -> &str {
        line.char_indices()
            .nth(40)
            .map_or(line, |(end, _)| &line[..end])
    }

    /// `read_encoded` as it was: each record read whole, then encoded.
    pub fn read_encoded(
        bytes: &[u8],
        alphabet: Alphabet,
    ) -> Result<Vec<EncodedSequence>, SeqError> {
        let mut reader = Reader::new(bytes);
        let mut encoded = Vec::new();
        while let Some(record) = reader.next_record()? {
            let codes = encode(alphabet, &record.residues)
                .map_err(|e| SeqError::MalformedFasta(format!("record {}: {e}", record.id)))?;
            encoded.push(EncodedSequence {
                id: record.id,
                codes,
                alphabet,
            });
        }
        Ok(encoded)
    }

    fn encode(alphabet: Alphabet, residues: &[u8]) -> Result<Vec<u8>, SeqError> {
        let mut out = Vec::with_capacity(residues.len());
        for (position, &byte) in residues.iter().enumerate() {
            match encode_byte(alphabet, byte) {
                Some(code) => out.push(code),
                None => return Err(SeqError::InvalidResidue { byte, position }),
            }
        }
        Ok(out)
    }

    /// `Alphabet::encode_byte` as a case fold and a `match`.
    pub fn encode_byte(alphabet: Alphabet, byte: u8) -> Option<u8> {
        let up = byte.to_ascii_uppercase();
        match alphabet {
            Alphabet::Dna => match up {
                b'A' => Some(0),
                b'C' => Some(1),
                b'G' => Some(2),
                b'T' => Some(3),
                b'N' | b'R' | b'Y' | b'S' | b'W' | b'K' | b'M' | b'B' | b'D' | b'H' | b'V' => {
                    Some(4)
                }
                _ => None,
            },
            Alphabet::Rna => match up {
                b'A' => Some(0),
                b'C' => Some(1),
                b'G' => Some(2),
                b'U' => Some(3),
                b'N' | b'R' | b'Y' | b'S' | b'W' | b'K' | b'M' | b'B' | b'D' | b'H' | b'V' => {
                    Some(4)
                }
                _ => None,
            },
            Alphabet::Protein => match up {
                b'A' => Some(0),
                b'R' => Some(1),
                b'N' => Some(2),
                b'D' => Some(3),
                b'C' => Some(4),
                b'Q' => Some(5),
                b'E' => Some(6),
                b'G' => Some(7),
                b'H' => Some(8),
                b'I' => Some(9),
                b'L' => Some(10),
                b'K' => Some(11),
                b'M' => Some(12),
                b'F' => Some(13),
                b'P' => Some(14),
                b'S' => Some(15),
                b'T' => Some(16),
                b'W' => Some(17),
                b'Y' => Some(18),
                b'V' => Some(19),
                b'B' => Some(20),
                b'Z' => Some(21),
                b'X' => Some(22),
                b'*' => Some(23),
                b'U' | b'O' | b'J' => Some(22),
                _ => None,
            },
        }
    }
}

const ALPHABETS: [Alphabet; 3] = [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein];

/// Assert that two results agree: equal values, or errors of the same
/// variant with the same message.
fn agree<T: PartialEq + std::fmt::Debug>(
    got: Result<T, SeqError>,
    want: Result<T, SeqError>,
    input: &[u8],
) {
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert_eq!(g, w, "input {input:?}"),
        (Err(g), Err(w)) => {
            assert_eq!(
                std::mem::discriminant(g),
                std::mem::discriminant(w),
                "input {input:?}: {g:?} vs {w:?}"
            );
            assert_eq!(g.to_string(), w.to_string(), "input {input:?}");
        }
        _ => panic!("input {input:?}: got {got:?}, want {want:?}"),
    }
}

/// A temp file per test (tests run on parallel threads).
struct TempFasta(PathBuf);

impl TempFasta {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fasta_diff_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempFasta(dir)
    }

    fn read_encoded(
        &self,
        bytes: &[u8],
        alphabet: Alphabet,
    ) -> Result<Vec<EncodedSequence>, SeqError> {
        let path = self.0.join("input.fasta");
        std::fs::write(&path, bytes).unwrap();
        fasta::read_encoded(&path, alphabet)
    }
}

impl Drop for TempFasta {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Check every reading of `bytes` against the oracle: `read_all` through
/// a roomy and a tiny buffer, and `read_encoded` under every alphabet.
fn check(files: &TempFasta, bytes: &[u8]) {
    let want = || oracle::Reader::new(bytes).read_all();
    agree(FastaReader::new(bytes).read_all(), want(), bytes);
    let tiny = BufReader::with_capacity(3, bytes);
    agree(FastaReader::new(tiny).read_all(), want(), bytes);
    for alphabet in ALPHABETS {
        agree(
            files.read_encoded(bytes, alphabet),
            oracle::read_encoded(bytes, alphabet),
            bytes,
        );
    }
}

/// Pieces of byte soup: residues of each alphabet, header marks, digits,
/// every whitespace byte `str::trim_end` and `is_ascii_whitespace`
/// disagree on (`\x0b`), non-ASCII whitespace (U+00A0, U+0085), other
/// multi-byte characters, and invalid UTF-8.
const PIECES: &[&[u8]] = &[
    b"M",
    b"K",
    b"v",
    b"w",
    b"ACGT",
    b"acgu",
    b"X*",
    b"BZJ",
    b">",
    b">q",
    b">id desc",
    b"\n",
    b"\n",
    b"\n",
    b"\n>",
    b"\r",
    b"\r\n",
    b"\t",
    b"\x0b",
    b"\x0c",
    b" ",
    b"1",
    b"7",
    "\u{a0}".as_bytes(),
    "\u{85}".as_bytes(),
    "é".as_bytes(),
    "\u{3000}".as_bytes(),
    b"\xff",
    b"\xc3",
    b"\xe2\x82",
];

fn soup() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::bool::ANY,
        prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..80),
    )
        .prop_map(|(headed, pieces)| {
            // Half the inputs open with a header, so most of them reach
            // their records instead of failing on the first line.
            let mut bytes = if headed {
                b">r0 x\n".to_vec()
            } else {
                Vec::new()
            };
            pieces.iter().for_each(|p| bytes.extend_from_slice(p));
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_soup_reads_as_the_oracle_reads_it(bytes in soup()) {
        let files = TempFasta::new("soup");
        check(&files, &bytes);
    }
}

/// A record with a bad residue and then a line that is not UTF-8 fails on
/// the line, not the residue: a record is read to its end before its
/// encoding error is reported, as when it was read whole and then encoded.
#[test]
fn a_bad_residue_then_a_non_utf8_line_fails_with_the_io_error() {
    let files = TempFasta::new("precedence");
    for bytes in [
        &b">a\nMK1V\nMK\xff\n>b\nMKV\n"[..],
        // The non-UTF-8 line is the next record's header.
        &b">a\nMK1V\n>b\xff\nMKV\n"[..],
    ] {
        match files.read_encoded(bytes, Alphabet::Protein) {
            Err(SeqError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("{bytes:?}: expected the I/O error, got {other:?}"),
        }
        check(&files, bytes);
    }
    // Past the record's end the residue error comes first.
    let bytes = b">a\nMK1V\n>b\nMK\xff\n";
    match files.read_encoded(bytes, Alphabet::Protein) {
        Err(SeqError::MalformedFasta(msg)) => assert!(msg.starts_with("record a:"), "{msg}"),
        other => panic!("expected record a's residue error, got {other:?}"),
    }
    check(&files, bytes);
}

#[test]
fn code_tables_match_the_case_fold_and_match() {
    for alphabet in ALPHABETS {
        for byte in 0..=u8::MAX {
            assert_eq!(
                alphabet.encode_byte(byte),
                oracle::encode_byte(alphabet, byte),
                "{alphabet:?} byte 0x{byte:02x}"
            );
            assert_eq!(
                alphabet.validates(&[byte]),
                oracle::encode_byte(alphabet, byte).is_some()
            );
        }
    }
}

/// Lines and line ends that cross the edge of the reader's buffer, read
/// from a file through [`FastaReader::open`]'s buffer and checked against
/// the oracle.
mod buffer_edges {
    use super::*;

    /// `>a` and residue lines of 60 up to byte `at`, then `tail`.
    fn padded_to(at: usize, tail: &[u8]) -> Vec<u8> {
        let mut bytes = b">a\n".to_vec();
        while bytes.len() < at {
            let n = (at - bytes.len()).min(61);
            bytes.extend(std::iter::repeat_n(b'M', n - 1));
            bytes.push(b'\n');
        }
        assert_eq!(bytes.len(), at);
        bytes.extend_from_slice(tail);
        bytes
    }

    fn read_file(files: &TempFasta, bytes: &[u8]) -> Vec<Sequence> {
        let path = files.0.join("input.fasta");
        std::fs::write(&path, bytes).unwrap();
        let records = FastaReader::open(&path).unwrap().read_all().unwrap();
        assert_eq!(records, oracle::Reader::new(bytes).read_all().unwrap());
        check(files, bytes);
        records
    }

    #[test]
    fn a_one_line_record_longer_than_the_buffer() {
        let files = TempFasta::new("long_line");
        let mut bytes = b">long\n".to_vec();
        bytes.extend(std::iter::repeat_n(b'W', 200_000));
        bytes.extend_from_slice(b"\n>b\nMK\n");
        const { assert!(200_000 > BUFFER_BYTES) };
        let records = read_file(&files, &bytes);
        assert_eq!(records[0].residues.len(), 200_000);
        let encoded = files.read_encoded(&bytes, Alphabet::Protein).unwrap();
        assert_eq!(encoded[0].codes, vec![17; 200_000]);
        assert_eq!(encoded[1].codes, [12, 11]);
    }

    #[test]
    fn a_header_across_the_buffer_edge() {
        let files = TempFasta::new("header_edge");
        for at in [BUFFER_BYTES - 5, BUFFER_BYTES - 1, BUFFER_BYTES] {
            let records = read_file(&files, &padded_to(at, b">straddle its description\nKV\n"));
            assert_eq!(records[1].id, "straddle");
            assert_eq!(records[1].description, "its description");
            assert_eq!(records[1].residues, b"KV");
        }
    }

    #[test]
    fn a_crlf_split_by_the_buffer_edge() {
        let files = TempFasta::new("crlf_edge");
        let mut bytes = padded_to(BUFFER_BYTES - 3, b"KV\r\n>b\r\nW\r\n");
        assert_eq!(&bytes[BUFFER_BYTES - 1..=BUFFER_BYTES], b"\r\n");
        let records = read_file(&files, &bytes);
        assert_eq!(records[0].residues.last(), Some(&b'V'));
        assert_eq!(records[1].residues, b"W");
        // The same with every line ending CRLF.
        bytes = String::from_utf8(bytes)
            .unwrap()
            .replace("\r\n", "\n")
            .replace('\n', "\r\n")
            .into_bytes();
        read_file(&files, &bytes);
    }

    #[test]
    fn no_trailing_newline() {
        let files = TempFasta::new("no_newline");
        // The last line starts one byte before the buffer's edge.
        for (tail, count) in [(&b"KV"[..], 1), (b"KV\r", 1), (b"KV \t", 1), (b">last", 2)] {
            let records = read_file(&files, &padded_to(BUFFER_BYTES - 1, tail));
            assert_eq!(records.len(), count);
            if count == 1 {
                assert!(records[0].residues.ends_with(b"MKV"));
            }
        }
        let records = read_file(&files, b">a\nMKV");
        assert_eq!(records[0].residues, b"MKV");
    }
}
