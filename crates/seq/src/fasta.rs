//! Streaming FASTA reader and writer.
//!
//! Biological "databases" are in fact huge flat FASTA files (paper §IV-B);
//! this module reads them one line at a time. A reader on a file holds one
//! [`BUFFER_BYTES`] read buffer, the current line, and the current record:
//! its raw residues ([`FastaReader::next_record`]) or, in [`read_encoded`],
//! its alphabet codes, appended straight from each line through the
//! alphabet's code table. It never holds the whole file.
//!
//! Lines are scanned as bytes. An ASCII line is trimmed at its end of the
//! bytes `str::trim_end` strips (`\t \n \x0b \x0c \r` and space), and its
//! residues skip the bytes `u8::is_ascii_whitespace` names (which keeps a
//! `\x0b` inside a line, where it is an invalid residue). A line holding a
//! byte ≥ 0x80 is checked as UTF-8 and trimmed as a `str`, so non-ASCII
//! whitespace at its end is stripped and invalid UTF-8 is an
//! [`io::ErrorKind::InvalidData`] error.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::alphabet::{Alphabet, NO_CODE};
use crate::error::SeqError;
use crate::sequence::{EncodedSequence, Sequence};

/// Capacity of the read buffer [`FastaReader::open`] puts under a file.
pub const BUFFER_BYTES: usize = 64 << 10;

/// Streaming FASTA reader: yields one [`Sequence`] per record.
pub struct FastaReader<R: BufRead> {
    inner: R,
    /// Header of the next record, if we've already consumed its `>` line.
    pending_header: Option<String>,
    line: Vec<u8>,
    records_read: usize,
}

/// One input line, trimmed at its end.
enum Line<'a> {
    /// End of input.
    Eof,
    /// A `>` line: the header text after the `>`. Valid UTF-8.
    Header(&'a [u8]),
    /// Any other line (possibly empty). Valid UTF-8.
    Body(&'a [u8]),
}

impl FastaReader<BufReader<std::fs::File>> {
    /// Open a FASTA file from disk.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SeqError> {
        let file = std::fs::File::open(path)?;
        Ok(FastaReader::new(BufReader::with_capacity(
            BUFFER_BYTES,
            file,
        )))
    }
}

impl<R: BufRead> FastaReader<R> {
    /// Wrap any buffered reader.
    pub fn new(inner: R) -> Self {
        FastaReader {
            inner,
            pending_header: None,
            line: Vec::new(),
            records_read: 0,
        }
    }

    /// Number of records yielded so far.
    pub fn records_read(&self) -> usize {
        self.records_read
    }

    /// Read the next record, or `Ok(None)` at end of input.
    pub fn next_record(&mut self) -> Result<Option<Sequence>, SeqError> {
        let mut residues = Vec::new();
        let Some(header) = self.scan_record(|body| {
            residues.extend(body.iter().filter(|b| !b.is_ascii_whitespace()));
        })?
        else {
            return Ok(None);
        };
        let (id, description) = split_header(&header);
        Ok(Some(Sequence::new(id, description, residues)))
    }

    /// Collect every remaining record.
    pub fn read_all(&mut self) -> Result<Vec<Sequence>, SeqError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }

    /// Read one record: hand each of its residue lines to `body`, and
    /// return its header, or `Ok(None)` at end of input. The record ends at
    /// the next `>` line, whose header is kept for the next call, or at end
    /// of input.
    fn scan_record(&mut self, mut body: impl FnMut(&[u8])) -> Result<Option<String>, SeqError> {
        let header = match self.pending_header.take() {
            Some(h) => h,
            // Skip blank lines before the first record.
            None => loop {
                match next_line(&mut self.inner, &mut self.line)? {
                    Line::Eof => return Ok(None),
                    Line::Header(h) => break String::from_utf8_lossy(h).into_owned(),
                    Line::Body([]) => continue,
                    Line::Body(text) => {
                        return Err(SeqError::MalformedFasta(format!(
                            "expected '>' header, found {:?}",
                            preview(&String::from_utf8_lossy(text))
                        )))
                    }
                }
            },
        };
        loop {
            match next_line(&mut self.inner, &mut self.line)? {
                Line::Eof => break,
                Line::Header(h) => {
                    self.pending_header = Some(String::from_utf8_lossy(h).into_owned());
                    break;
                }
                Line::Body(text) => body(text),
            }
        }
        self.records_read += 1;
        Ok(Some(header))
    }
}

/// Read the next line of `inner` into `line` and trim its end.
fn next_line<'a>(inner: &mut impl BufRead, line: &'a mut Vec<u8>) -> Result<Line<'a>, SeqError> {
    line.clear();
    if inner.read_until(b'\n', line)? == 0 {
        return Ok(Line::Eof);
    }
    let trimmed = if line.is_ascii() {
        let end = line
            .iter()
            .rposition(|&b| !matches!(b, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' '))
            .map_or(0, |last| last + 1);
        &line[..end]
    } else {
        std::str::from_utf8(line)
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?
            .trim_end()
            .as_bytes()
    };
    Ok(match trimmed.split_first() {
        Some((b'>', header)) => Line::Header(header),
        _ => Line::Body(trimmed),
    })
}

impl<R: BufRead> Iterator for FastaReader<R> {
    type Item = Result<Sequence, SeqError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// The first 40 characters of `line`, for an error message.
fn preview(line: &str) -> &str {
    line.char_indices()
        .nth(40)
        .map_or(line, |(end, _)| &line[..end])
}

/// Split a FASTA header into `(id, description)` at the first whitespace.
fn split_header(header: &str) -> (String, String) {
    match header.split_once(char::is_whitespace) {
        Some((id, desc)) => (id.to_string(), desc.trim().to_string()),
        None => (header.to_string(), String::new()),
    }
}

/// Parse a full FASTA string (convenience for tests/examples).
///
/// ```
/// let records = swhybrid_seq::fasta::parse_str(">q1 my protein\nMKVL\nAW\n").unwrap();
/// assert_eq!(records[0].id, "q1");
/// assert_eq!(records[0].residues, b"MKVLAW");
/// ```
pub fn parse_str(input: &str) -> Result<Vec<Sequence>, SeqError> {
    FastaReader::new(input.as_bytes()).read_all()
}

/// Read a FASTA file and encode every record under `alphabet`, one line at
/// a time: each line's residues become codes as it is read, and only the
/// current record's codes are held beside the finished records. An
/// encoding failure names its record; it is reported once the record has
/// been read to its end, so a read error later in the same record wins.
pub fn read_encoded(
    path: impl AsRef<Path>,
    alphabet: Alphabet,
) -> Result<Vec<EncodedSequence>, SeqError> {
    let table = alphabet.code_table();
    let mut reader = FastaReader::open(path)?;
    let mut encoded = Vec::new();
    let mut codes = Vec::new();
    loop {
        codes.clear();
        // The first invalid residue of the record: (byte, position).
        let mut invalid = None;
        let Some(header) = reader.scan_record(|body| {
            if invalid.is_none() {
                invalid = encode_line(table, body, &mut codes);
            }
        })?
        else {
            return Ok(encoded);
        };
        let (id, _) = split_header(&header);
        if let Some((byte, position)) = invalid {
            let e = SeqError::InvalidResidue { byte, position };
            return Err(SeqError::MalformedFasta(format!("record {id}: {e}")));
        }
        encoded.push(EncodedSequence {
            id,
            // An exact-size copy: `codes` keeps its capacity for the next
            // record.
            codes: codes.clone(),
            alphabet,
        });
    }
}

/// Append the codes of one trimmed line's residues to `codes`, skipping
/// ASCII whitespace. On an invalid byte, stop and return it with its
/// position in the record (the codes before it stay appended).
fn encode_line(table: &[u8; 256], body: &[u8], codes: &mut Vec<u8>) -> Option<(u8, usize)> {
    let start = codes.len();
    codes.extend(body.iter().map(|&b| table[b as usize]));
    if !codes[start..].contains(&NO_CODE) {
        return None;
    }
    // Whitespace inside the line, or an invalid residue: redo it bytewise.
    codes.truncate(start);
    for &b in body.iter().filter(|b| !b.is_ascii_whitespace()) {
        match table[b as usize] {
            NO_CODE => return Some((b, codes.len())),
            code => codes.push(code),
        }
    }
    None
}

/// Width at which [`write_fasta`] wraps residue lines.
pub const LINE_WIDTH: usize = 60;

/// Write records as FASTA, wrapping residues at [`LINE_WIDTH`] columns.
pub fn write_fasta<'a, W: Write>(
    writer: &mut W,
    records: impl IntoIterator<Item = &'a Sequence>,
) -> io::Result<()> {
    for rec in records {
        writeln!(writer, ">{}", rec.header())?;
        for chunk in rec.residues.chunks(LINE_WIDTH) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
        if rec.residues.is_empty() {
            // Keep the record visible even with no residues.
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Render records to a FASTA string.
pub fn to_string<'a>(records: impl IntoIterator<Item = &'a Sequence>) -> String {
    let mut buf = Vec::new();
    write_fasta(&mut buf, records).expect("writing to Vec cannot fail");
    // Invariant: ids and descriptions are `String`s and residues are read
    // from text or drawn from an alphabet, so the output is UTF-8 — not
    // necessarily ASCII (an id may hold any character).
    String::from_utf8(buf).expect("FASTA records are UTF-8 text")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = ">q1 first protein\nMKVL\nAWPF\n>q2\nACDE\n";

    #[test]
    fn parses_two_records() {
        let recs = parse_str(SAMPLE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "q1");
        assert_eq!(recs[0].description, "first protein");
        assert_eq!(recs[0].residues, b"MKVLAWPF");
        assert_eq!(recs[1].id, "q2");
        assert_eq!(recs[1].description, "");
        assert_eq!(recs[1].residues, b"ACDE");
    }

    #[test]
    fn iterator_interface() {
        let recs: Result<Vec<_>, _> = FastaReader::new(SAMPLE.as_bytes()).collect();
        assert_eq!(recs.unwrap().len(), 2);
    }

    #[test]
    fn blank_lines_and_crlf_tolerated() {
        let recs = parse_str("\n\n>a desc\r\nMK\r\nVL\r\n\n>b\nW\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].residues, b"MKVL");
        assert_eq!(recs[1].residues, b"W");
    }

    #[test]
    fn garbage_before_header_is_error() {
        assert!(parse_str("MKVL\n>a\nMK\n").is_err());
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(parse_str("").unwrap().is_empty());
        assert!(parse_str("\n\n").unwrap().is_empty());
    }

    #[test]
    fn record_with_no_residues() {
        let recs = parse_str(">only_header\n>b\nMK\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].residues.is_empty());
        assert_eq!(recs[1].residues, b"MK");
    }

    #[test]
    fn round_trip_write_parse() {
        let recs = parse_str(SAMPLE).unwrap();
        let text = to_string(&recs);
        let reparsed = parse_str(&text).unwrap();
        assert_eq!(recs, reparsed);
    }

    #[test]
    fn long_sequences_wrap() {
        let long = Sequence::of("long", &[b'A'; 130]);
        let text = to_string(std::iter::once(&long));
        let max_line = text.lines().map(|l| l.len()).max().unwrap();
        assert!(max_line <= LINE_WIDTH.max(5));
        let reparsed = parse_str(&text).unwrap();
        assert_eq!(reparsed[0].residues.len(), 130);
    }

    #[test]
    fn records_read_counter() {
        let mut r = FastaReader::new(SAMPLE.as_bytes());
        assert_eq!(r.records_read(), 0);
        r.next_record().unwrap();
        assert_eq!(r.records_read(), 1);
        r.read_all().unwrap();
        assert_eq!(r.records_read(), 2);
    }
}
