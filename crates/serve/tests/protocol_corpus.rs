//! Mutated-line corpus for the daemon's request protocol: every damaged
//! `search`, `status`, `cancel`, `reload` and `stats` line must parse to a
//! request or to an `Err` — never a panic — and parsing one may allocate
//! only in proportion to the line. A client's line is at most `MAX_LINE`
//! bytes, so that bound is what keeps a hostile client's cost per line
//! bounded.
//!
//! The counting allocator is process-wide, so the whole corpus runs inside
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use swhybrid_serve::protocol::{
    parse_request, request_to_json, ReloadRequest, Request, SearchRequest,
};

struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator plus a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes a parse may allocate per byte of its line: a JSON value is 32
/// bytes, and arrays grow by doubling (each `realloc` counts its new
/// size). The same bound as the master/slave wire corpus.
const BYTES_PER_LINE_BYTE: u64 = 64;

/// Allocation any parse may make whatever its line: error messages and
/// the first small vectors.
const BASE_BYTES: u64 = 4096;

/// One healthy line per verb that carries fields, as the client writes it.
fn requests() -> Vec<Request> {
    vec![
        Request::Search(SearchRequest {
            query: "MKVLAWGHIKLMNPQRST".into(),
            top_n: 7,
            deadline_ms: Some(2500),
            tag: Some("q\"1".into()),
            ack: true,
        }),
        Request::Status { job: 3 },
        Request::Cancel { job: 9 },
        Request::Stats,
        Request::Reload(ReloadRequest {
            store: Some("/data/db.swdb".into()),
            fasta: None,
            verify: true,
        }),
        Request::Reload(ReloadRequest {
            store: None,
            fasta: Some("db.fasta".into()),
            verify: false,
        }),
    ]
}

/// Every mutation of `line`: each truncation, each byte deleted, each byte
/// replaced by a JSON-significant or foreign character, and each JSON
/// number, string, literal and array swapped for a value of another type
/// or range — 100-deep nesting among them.
fn mutations(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for cut in 0..bytes.len() {
        out.push(line[..cut].to_string());
        out.push(format!("{}{}", &line[..cut], &line[cut + 1..]));
        for with in [
            "\"", "{", "}", "[", "]", ",", ":", "-", "0", "9", ".", "e", "x", " ", "\\", "é",
            "\u{0}",
        ] {
            out.push(format!("{}{with}{}", &line[..cut], &line[cut + 1..]));
        }
    }
    let deep_array = format!("{}{}", "[".repeat(100), "]".repeat(100));
    let deep_object = format!("{}1{}", "{\"a\":".repeat(100), "}".repeat(100));
    let values = [
        "-1",
        "0",
        "1.5",
        "1e300",
        "-1e300",
        "18446744073709551616",
        "9007199254740993",
        "null",
        "true",
        "false",
        "\"7\"",
        "\"\"",
        "\"search\"",
        "[]",
        "{}",
        "[-1,300]",
        deep_array.as_str(),
        deep_object.as_str(),
    ];
    for (start, end) in value_spans(bytes) {
        for with in values {
            out.push(format!("{}{with}{}", &line[..start], &line[end..]));
        }
    }
    out
}

/// Byte spans of every number, string, literal and array in a compact
/// JSON line (object keys included: a mangled key is a missing field).
fn value_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let past = |mut end: usize, more: fn(&u8) -> bool| {
        while bytes.get(end).is_some_and(more) {
            end += 1;
        }
        end
    };
    let number = |b: &u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'-');
    let mut spans = Vec::new();
    let mut opens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let value_end = match bytes[i] {
            b'"' => {
                let mut end = i + 1;
                while bytes[end] != b'"' {
                    end += if bytes[end] == b'\\' { 2 } else { 1 };
                }
                Some(end + 1)
            }
            b'-' | b'0'..=b'9' => Some(past(i + 1, number)),
            b't' | b'f' | b'n' => Some(past(i + 1, u8::is_ascii_lowercase)),
            b'[' => {
                opens.push(i);
                None
            }
            b']' => {
                spans.push((opens.pop().expect("balanced line"), i + 1));
                None
            }
            _ => None,
        };
        if let Some(end) = value_end {
            spans.push((i, end));
        }
        i = value_end.unwrap_or(i + 1);
    }
    spans
}

#[test]
fn mutated_request_lines_parse_or_refuse_with_bounded_allocation() {
    let (mut ok, mut refused) = (0usize, 0usize);
    for request in requests() {
        let line = request_to_json(&request).to_string();
        // The healthy line round-trips.
        assert_eq!(parse_request(&line), Ok(request), "{line}");
        for mutated in mutations(&line) {
            let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
            let outcome = catch_unwind(AssertUnwindSafe(|| parse_request(&mutated).is_ok()));
            let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
            match outcome {
                Err(_) => panic!("parse_request panicked on {mutated:?}"),
                Ok(true) => ok += 1,
                Ok(false) => refused += 1,
            }
            let bound = BYTES_PER_LINE_BYTE * mutated.len() as u64 + BASE_BYTES;
            assert!(
                bytes <= bound,
                "parsing {} bytes allocated {bytes} (bound {bound}): {mutated:?}",
                mutated.len()
            );
        }
    }
    assert!(ok > 0 && refused > ok, "{ok} parsed, {refused} refused");

    // Named refusals, one per rule the parser enforces on a field.
    let cases = [
        (r#"{"verb":"search","query":"MK","top_n":0}"#, "top_n"),
        (
            r#"{"verb":"search","query":"MK","deadline_ms":-1}"#,
            "deadline_ms",
        ),
        (r#"{"verb":"search","query":7}"#, "missing \"query\""),
        (r#"{"verb":"cancel","job":"7"}"#, "missing \"job\""),
        (r#"{"verb":"status","job":1.5}"#, "missing \"job\""),
        (
            r#"{"verb":"reload","store":"a","fasta":"b"}"#,
            "exactly one",
        ),
        (r#"{"verb":"stat"}"#, "unknown verb"),
        (r#"{"job":3}"#, "missing \"verb\""),
    ];
    for (line, says) in cases {
        let message = parse_request(line).unwrap_err();
        assert!(message.contains(says), "{line}: {message}");
    }
    let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
    assert!(parse_request(&deep).unwrap_err().starts_with("bad JSON"));
}
