//! Streaming FASTA reader and writer.
//!
//! Biological "databases" are in fact huge flat FASTA files (paper §IV-B);
//! this module parses them one record at a time, so building a database
//! store never holds the raw text of more than one record.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::sequence::{EncodedSequence, Sequence};

/// Streaming FASTA reader: yields one [`Sequence`] per record.
pub struct FastaReader<R: BufRead> {
    inner: R,
    /// Header of the next record, if we've already consumed its `>` line.
    pending_header: Option<String>,
    line: String,
    records_read: usize,
}

impl FastaReader<BufReader<std::fs::File>> {
    /// Open a FASTA file from disk.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SeqError> {
        let file = std::fs::File::open(path)?;
        Ok(FastaReader::new(BufReader::new(file)))
    }
}

impl<R: BufRead> FastaReader<R> {
    /// Wrap any buffered reader.
    pub fn new(inner: R) -> Self {
        FastaReader {
            inner,
            pending_header: None,
            line: String::new(),
            records_read: 0,
        }
    }

    /// Number of records yielded so far.
    pub fn records_read(&self) -> usize {
        self.records_read
    }

    /// Read the next record, or `Ok(None)` at end of input.
    pub fn next_record(&mut self) -> Result<Option<Sequence>, SeqError> {
        let header = match self.pending_header.take() {
            Some(h) => h,
            None => {
                // Skip blank lines before the first record.
                loop {
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
                }
            }
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

        let (id, description) = split_header(&header);
        self.records_read += 1;
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

/// Read a FASTA file and encode every record under `alphabet`, one record
/// at a time (the raw text of a record is dropped as soon as it is
/// encoded). An encoding failure names its record.
pub fn read_encoded(
    path: impl AsRef<Path>,
    alphabet: Alphabet,
) -> Result<Vec<EncodedSequence>, SeqError> {
    let mut reader = FastaReader::open(path)?;
    let mut encoded = Vec::new();
    while let Some(record) = reader.next_record()? {
        let sequence = EncodedSequence::from_sequence(&record, alphabet)
            .map_err(|e| SeqError::MalformedFasta(format!("record {}: {e}", record.id)))?;
        encoded.push(sequence);
    }
    Ok(encoded)
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
