//! Mutated-line corpus for the master/slave wire: every damaged `tasks`
//! package line (master → slave) and `finished` line (slave → master)
//! must decode to a message or to a typed [`io::ErrorKind::InvalidData`]
//! error — never a panic — and decoding one may allocate only in
//! proportion to the line. A peer's line is at most `MAX_LINE` bytes, so
//! that bound is what keeps a hostile peer's cost per line bounded.
//!
//! The counting allocator is the one of `alloc_regression.rs`; it is
//! process-wide, so everything runs inside one `#[test]` per message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swhybrid_core::net::{decode, MasterMsg, SlaveMsg, Wire};
use swhybrid_core::pool::{QueryPayload, QueryResult, TaskPayload, TaskResult};
use swhybrid_simd::engine::KernelStats;
use swhybrid_simd::search::Hit;

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

/// The two tests share the process-wide counter: one runs at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Bytes a decode may allocate per byte of its line. A JSON value is 32
/// bytes and a one-digit number with its comma 2 bytes of line, and
/// arrays grow by doubling (each `realloc` counts its new size): ≈ 32 per
/// byte for a residue list, the densest shape. The healthy lines below
/// read 26 (`tasks`) and 9 (`finished`).
const BYTES_PER_LINE_BYTE: u64 = 64;

/// Allocation any decode may make whatever its line: error messages and
/// the first small vectors.
const BASE_BYTES: u64 = 4096;

fn payload(shard: (usize, usize), lens: &[usize]) -> TaskPayload {
    TaskPayload {
        queries: lens
            .iter()
            .enumerate()
            .map(|(i, &len)| QueryPayload {
                query: (0..len).map(|j| ((i * 7 + j) % 24) as u8).collect(),
                top_n: 10 + i,
            })
            .collect(),
        shard,
    }
}

/// A package line as a batch master ships it: short tasks that one pass
/// fuses, a multi-query task and a sub-shard task.
fn tasks_line() -> String {
    let msg = MasterMsg::Tasks {
        tasks: vec![
            (4, payload((0, 500), &[24])),
            (5, payload((0, 500), &[31])),
            (9, payload((0, 500), &[12, 17])),
            (17, payload((128, 256), &[40])),
        ],
    };
    msg.to_json().to_string()
}

fn finished_line() -> String {
    let hit = |db_index: usize, score: i32| Hit {
        db_index,
        id: format!("sp|P{db_index:05}|SUBJ_{db_index}"),
        score,
        subject_len: 80 + db_index,
    };
    let kernels = KernelStats {
        resolved_i8: 3,
        resolved_i16: 1,
        resolved_scalar: 0,
        interseq_i8: 120,
        interseq_i16: 2,
        interseq_scalar: 1,
        chunks_striped: 1,
        chunks_interseq: 2,
        cells_computed: 9_007_199_254_740_991,
    };
    let msg = SlaveMsg::Finished {
        task: 42,
        result: TaskResult {
            gcups: Some(2.75),
            queries: vec![
                QueryResult {
                    hits: vec![hit(7, 91), hit(3, 64), hit(250, -2)],
                    kernels,
                },
                QueryResult {
                    hits: vec![hit(11, 40)],
                    kernels: KernelStats::default(),
                },
            ],
        },
    };
    msg.to_json().to_string()
}

/// Every mutation of `line`: each truncation, each byte deleted, each byte
/// replaced by a JSON-significant or foreign character, and each JSON
/// number, string and array swapped for a value of another type or range.
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
    let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
    let values = [
        "-1",
        "1.5",
        "1e300",
        "-1e300",
        "256",
        "18446744073709551616",
        "9007199254740993",
        "null",
        "true",
        "\"7\"",
        "\"\"",
        "[]",
        "{}",
        "[-1,300]",
        deep.as_str(),
    ];
    for (start, end) in value_spans(bytes) {
        for with in values {
            out.push(format!("{}{with}{}", &line[..start], &line[end..]));
        }
    }
    out
}

/// Byte spans of every number, string and array in a compact JSON line
/// (object keys included: a mangled key is a missing field).
fn value_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut opens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let mut end = i + 1;
                while bytes[end] != b'"' {
                    end += if bytes[end] == b'\\' { 2 } else { 1 };
                }
                spans.push((i, end + 1));
                i = end + 1;
                continue;
            }
            b'-' | b'0'..=b'9' => {
                let mut end = i + 1;
                while end < bytes.len() && matches!(bytes[end], b'0'..=b'9' | b'.' | b'e' | b'-') {
                    end += 1;
                }
                spans.push((i, end));
                i = end;
                continue;
            }
            b'[' => opens.push(i),
            b']' => spans.push((opens.pop().expect("balanced line"), i + 1)),
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Decode every mutation of `line` as `M`, asserting no panic, a typed
/// error when it fails, and allocation bounded by the line. Returns how
/// many decoded and how many were refused.
fn run_corpus<M: Wire>(line: &str) -> (usize, usize) {
    let (mut ok, mut refused) = (0, 0);
    for mutated in mutations(line) {
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode::<M>(&mutated).map(|_| ())));
        let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
        match outcome {
            Err(_) => panic!("decode panicked on {mutated:?}"),
            Ok(Ok(())) => ok += 1,
            Ok(Err(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{mutated:?}: {e}");
                refused += 1;
            }
        }
        let bound = BYTES_PER_LINE_BYTE * mutated.len() as u64 + BASE_BYTES;
        assert!(
            bytes <= bound,
            "decoding {} bytes allocated {bytes} (bound {bound}): {mutated:?}",
            mutated.len()
        );
    }
    (ok, refused)
}

/// `line` with `from` replaced by `to` once, decoded as `M`: the typed
/// error's message.
fn refusal<M: Wire + std::fmt::Debug>(line: &str, from: &str, to: &str) -> String {
    assert!(line.contains(from), "{from} not in {line}");
    let mutated = line.replacen(from, to, 1);
    match decode::<M>(&mutated) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => e.to_string(),
        other => panic!("{from} → {to}: expected InvalidData, got {other:?}"),
    }
}

#[test]
fn mutated_tasks_lines_are_typed_errors_with_bounded_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let line = tasks_line();
    // The healthy line round-trips.
    let healthy = decode::<MasterMsg>(&line).unwrap();
    assert_eq!(healthy.to_json().to_string(), line);
    let (ok, refused) = run_corpus::<MasterMsg>(&line);
    assert!(refused > ok, "{ok} decoded, {refused} refused");

    // Named refusals, one per rule the decoder enforces on a package.
    let cases = [
        (
            r#""tasks":[4,"#,
            r#""tasks":[4,4,"#,
            "4 payloads for 5 tasks",
        ),
        (r#""tasks":[4,"#, r#""tasks":[-4,"#, "task id"),
        (r#""query":[0,"#, r#""query":[256,"#, "not a byte"),
        (r#""query":[0,"#, r#""query":[1.5,"#, "not a byte"),
        (r#""shard":[128,256]"#, r#""shard":[128]"#, "shard"),
        (r#""shard":[128,256]"#, r#""shard":[128,-1]"#, "shard bound"),
        (r#""top_n":10"#, r#""top_n":"10""#, "top_n"),
        (
            r#""type":"tasks""#,
            r#""type":"task""#,
            "unknown master message type",
        ),
    ];
    for (from, to, says) in cases {
        let message = refusal::<MasterMsg>(&line, from, to);
        assert!(message.contains(says), "{from} → {to}: {message}");
    }
    let empty = line.replacen(
        r#"{"queries":[{"query":[0,"#,
        r#"{"queries":[],"x":[{"query":[0,"#,
        1,
    );
    let message = decode::<MasterMsg>(&empty).unwrap_err().to_string();
    assert!(message.contains("'queries' is empty"), "{message}");
}

#[test]
fn mutated_finished_lines_are_typed_errors_with_bounded_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let line = finished_line();
    let healthy = decode::<SlaveMsg>(&line).unwrap();
    assert_eq!(healthy.to_json().to_string(), line);
    let (ok, refused) = run_corpus::<SlaveMsg>(&line);
    assert!(refused > ok, "{ok} decoded, {refused} refused");

    let cases = [
        (r#""gcups":2.75,"#, "", "missing field 'gcups'"),
        (
            r#""gcups":2.75"#,
            r#""gcups":null"#,
            "'gcups' is not a number",
        ),
        (r#""task":42"#, r#""task":-42"#, "'task'"),
        (
            r#""score":91"#,
            r#""score":91.5"#,
            "'score' is not an integer",
        ),
        (
            r#""striped_i8":3"#,
            r#""striped_i8":-3"#,
            "kernel counter 'striped_i8'",
        ),
        (
            r#","cells_computed":0}"#,
            "}",
            "missing field 'cells_computed'",
        ),
        (
            r#""queries":[{"#,
            r#""queries":7,"q":[{"#,
            "'queries' is not an array",
        ),
        (r#""hits":[{"#, r#""hits":[7,{"#, "missing field 'db_index'"),
    ];
    for (from, to, says) in cases {
        let message = refusal::<SlaveMsg>(&line, from, to);
        assert!(message.contains(says), "{from} → {to}: {message}");
    }
}
