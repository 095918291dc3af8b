//! Mutated-line corpus for `Json::parse`: every damaged line must parse to
//! a value or to a `ParseError` — never a panic — and parsing one may
//! allocate only in proportion to the line. Every line the wire, the
//! daemon and the event export read goes through this parser, so this is
//! the bound under all of them.
//!
//! The counting allocator is process-wide, so the whole corpus runs inside
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use swhybrid_json::{Json, MAX_DEPTH};

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
/// bytes, a one-element array reserves four of them, and arrays grow by
/// doubling (each `realloc` counts its new size). The bound of the wire
/// and request corpora.
const BYTES_PER_LINE_BYTE: u64 = 64;

/// Allocation any parse may make whatever its line: the error message and
/// the first small vectors.
const BASE_BYTES: u64 = 4096;

/// Healthy lines of every shape the parser knows: nested objects and
/// arrays, every number form, every escape (a surrogate pair among them)
/// and raw multi-byte characters.
fn documents() -> Vec<String> {
    let nested = format!(
        "{}0{}",
        "[".repeat(MAX_DEPTH - 1),
        "]".repeat(MAX_DEPTH - 1)
    );
    vec![
        r#"{"type":"tasks","tasks":[{"task":3,"desc":{"query":"MKVL","shard":[0,128],"top_n":10}}],"gcups":12.5}"#.into(),
        r#"{"ok":true,"hits":[{"subject":"sp|P1|A\"B","score":57}],"cached":false,"kernels":null}"#.into(),
        r#"["\u00e9\ud83e\udd80 tab\t slash\/ quote\" back\\ \b\f\n\r é🦀"]"#.into(),
        r#"[-0.5,1E+3,-12e-2,0,[],{},[[{"k":[null,true]}]]]"#.into(),
        nested,
    ]
}

/// Every mutation of `line` at each character boundary: the truncation,
/// the character deleted, and the character replaced by a JSON-significant
/// or foreign one; then each number, string, literal and array swapped for
/// a value of another type or range — nesting past `MAX_DEPTH` among them.
fn mutations(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (cut, c) in line.char_indices() {
        let (head, tail) = (&line[..cut], &line[cut + c.len_utf8()..]);
        out.push(head.to_string());
        out.push(format!("{head}{tail}"));
        for with in [
            "\"", "{", "}", "[", "]", ",", ":", "-", "+", "0", "9", ".", "e", "x", " ", "\\",
            "\\u", "\\ud800", "é", "\u{0}", "\u{1f}",
        ] {
            out.push(format!("{head}{with}{tail}"));
        }
    }
    let deep_array = format!("{}{}", "[".repeat(100), "]".repeat(100));
    let deep_object = format!("{}1{}", "{\"a\":".repeat(100), "}".repeat(100));
    let values = [
        "-",
        "-0",
        "01",
        "1.",
        ".5",
        "1e",
        "1e300",
        "-1e999",
        "18446744073709551616",
        "nul",
        "truex",
        "\"\\u12\"",
        "\"\\udc00\"",
        "\"\\ud800\\u0041\"",
        "\"unterminated",
        "[1,]",
        "{\"a\"}",
        deep_array.as_str(),
        deep_object.as_str(),
    ];
    for (start, end) in value_spans(line.as_bytes()) {
        for with in values {
            out.push(format!("{}{with}{}", &line[..start], &line[end..]));
        }
    }
    out
}

/// Byte spans of every number, string, literal and array in a compact
/// JSON line (object keys included). Every span starts and ends on an
/// ASCII byte, so it is a character boundary.
fn value_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let past = |mut end: usize, more: fn(&u8) -> bool| {
        while bytes.get(end).is_some_and(more) {
            end += 1;
        }
        end
    };
    let number = |b: &u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
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
fn mutated_lines_parse_or_refuse_with_bounded_allocation() {
    let (mut ok, mut refused) = (0usize, 0usize);
    for line in documents() {
        // The healthy line parses, and its compact form round-trips.
        let value = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(Json::parse(&value.to_string()), Ok(value), "{line}");
        for mutated in mutations(&line) {
            let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
            let outcome = catch_unwind(AssertUnwindSafe(|| Json::parse(&mutated).is_ok()));
            let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
            match outcome {
                Err(_) => panic!("Json::parse panicked on {mutated:?}"),
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

    // Named refusals, one per rule the parser enforces.
    let cases = [
        ("", "unexpected end of input"),
        ("[1 2]", "expected ',' or ']'"),
        ("{\"a\" 1}", "expected ':'"),
        ("\"\\ud800x\"", "unpaired surrogate"),
        ("\"\\ud800\\u0041\"", "invalid low surrogate"),
        ("\"\\q\"", "invalid escape"),
        ("\"\\u12g4\"", "invalid hex digit"),
        ("\"\u{1}\"", "control character"),
        ("\"open", "unterminated string"),
        ("-", "invalid number"),
        ("1 2", "trailing characters"),
    ];
    for (line, says) in cases {
        let error = Json::parse(line).unwrap_err();
        assert!(error.message.contains(says), "{line:?}: {error}");
        assert!(error.offset <= line.len(), "{line:?}: {error}");
    }
    let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(Json::parse(&deep)
        .unwrap_err()
        .message
        .contains("MAX_DEPTH"));
}
