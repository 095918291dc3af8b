//! `swbench-layers`: per-layer probes of swhybrid's library.
//!
//! Each probe times calls into one layer through the short list of public
//! items below — the **pinned library surface**. A change that renames or
//! removes one of them has to say so, because it breaks this binary:
//!
//! * `seq::fasta::FastaReader`, `seq::sequence::EncodedSequence`,
//!   `seq::{Alphabet, DbSnapshot}` (and the `DbArena` it hands out)
//! * `store::{build_store, Store, Verify}`
//! * `simd::{PreparedQuery, EnginePreference, ShardPlan, ShardExecutor,
//!   KernelChoice, KernelStats, chunk_floor}`
//! * `align::scoring::Scoring`, `align::score_only::sw_score_affine`
//! * `exec::sched::{Scheduler, MasterConfig, Assignment, VirtualClock, Clock}`,
//!   `device::task::TaskSpec`
//! * `json::Json`
//! * `serve::protocol::parse_request`, `serve::server::result_to_json`,
//!   `serve::SearchReply`, `simd::Hit`
//!
//! Output: one JSON object on the last line of stdout — `metrics` (name →
//! value), `spans` (one per probe, seconds since this process started) and
//! `aux` (values the driver combines with its own measurements).

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

use swhybrid::align::score_only::sw_score_affine;
use swhybrid::align::scoring::Scoring;
use swhybrid::device::task::TaskSpec;
use swhybrid::exec::sched::{Assignment, Clock, MasterConfig, Scheduler, VirtualClock};
use swhybrid::json::Json;
use swhybrid::seq::fasta::FastaReader;
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::{Alphabet, DbSnapshot};
use swhybrid::serve::protocol::parse_request;
use swhybrid::serve::server::result_to_json;
use swhybrid::serve::SearchReply;
use swhybrid::simd::{
    chunk_floor, EnginePreference, Hit, KernelChoice, KernelStats, PreparedQuery, ShardExecutor,
    ShardPlan,
};
use swhybrid::store::{build_store, Store, Verify};

/// Query-length ladder of the kernel probes.
const LADDER: [usize; 5] = [32, 128, 512, 2048, 4096];
/// Saturating add/sub/max vector operations per DP cell vector, counted
/// from the i8 inner loops (`interseq_avx2.rs`: E 3, H 4, best 1, F 3;
/// `avx2.rs` striped: H 4, best 1, E 3, F 2). Lazy-F passes and loads are
/// not counted, so the shares below are lower bounds on port use.
const LANE_OPS_PER_CELL_INTERSEQ: f64 = 11.0;
const LANE_OPS_PER_CELL_STRIPED: f64 = 10.0;
/// Most cells the scalar oracle re-scores in one run.
const RESCORE_CELLS: u64 = 80_000_000;

struct Probes {
    epoch: Instant,
    metrics: Vec<(String, f64)>,
    spans: Vec<(String, f64, f64)>,
}

impl Probes {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Run `body` as one span named after the layer it probes.
    fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Probes) -> T) -> T {
        let start = self.epoch.elapsed().as_secs_f64();
        let out = body(self);
        self.spans
            .push((name.to_string(), start, self.epoch.elapsed().as_secs_f64()));
        out
    }
}

/// Seconds per call: repeats `body` until `budget_s` is used (at least
/// once) and returns the mean.
fn time_per_call<T>(budget_s: f64, mut body: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        black_box(body());
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_s {
            return elapsed / f64::from(calls);
        }
    }
}

/// Median seconds of `reps` separately timed calls.
fn median_of<T>(reps: usize, mut body: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(body());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// A small deterministic generator for probe queries (splitmix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn protein(&mut self, len: usize) -> Vec<u8> {
        const AA: &[u8; 20] = b"ACDEFGHIKLMNPQRSTVWY";
        (0..len).map(|_| AA[(self.next() % 20) as usize]).collect()
    }

    fn codes(&mut self, len: usize) -> Vec<u8> {
        Alphabet::Protein
            .encode(&self.protein(len))
            .expect("probe residues are protein")
    }
}

fn load_encoded(path: &str) -> Result<Vec<EncodedSequence>, String> {
    FastaReader::open(path)
        .and_then(|mut r| r.read_all())
        .map_err(|e| format!("{path}: {e}"))?
        .iter()
        .map(|r| {
            EncodedSequence::from_sequence(r, Alphabet::Protein).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn seq_and_store(p: &mut Probes, db_path: &str, work: &str) -> Result<DbSnapshot, String> {
    let bytes = std::fs::metadata(db_path)
        .map_err(|e| format!("{db_path}: {e}"))?
        .len() as f64;
    let parse_s = p.span("seq.fasta_parse", |_| {
        median_of(5, || {
            FastaReader::open(db_path)
                .and_then(|mut r| r.read_all())
                .map(|v| v.len())
        })
    });
    p.put("seq.fasta_parse_mb_s", bytes / 1e6 / parse_s);
    let encoded = load_encoded(db_path)?;
    let snapshot_s = p.span("seq.snapshot_build", |_| {
        median_of(5, || DbSnapshot::from_encoded("probe", &encoded).len())
    });
    p.put("seq.snapshot_build_ms", snapshot_s * 1e3);

    let store_path = format!("{work}/probe.swdb");
    let mut file_bytes = 0;
    let build_s = p.span("store.build", |_| {
        median_of(3, || {
            file_bytes = build_store(&store_path, "probe", &encoded).map_or(0, |s| s.file_bytes);
        })
    });
    if file_bytes == 0 {
        return Err(format!("{store_path}: store build failed"));
    }
    p.put("store.build_ms", build_s * 1e3);
    p.put("store.file_bytes", file_bytes as f64);
    for (name, verify) in [
        ("store.open_quick", Verify::Quick),
        ("store.open_full", Verify::Full),
    ] {
        let open_s = p.span(name, |_| {
            median_of(5, || Store::open_with(&store_path, verify).map(|s| s.len()))
        });
        p.put(format!("{name}_ms"), open_s * 1e3);
    }
    let snapshot_s = p.span("store.snapshot", |_| {
        median_of(5, || {
            Store::open_with(&store_path, Verify::Quick)
                .and_then(Store::into_snapshot)
                .map(|s| s.len())
        })
    });
    // Open (quick) plus the conversion to a snapshot: what a boot pays.
    p.put("store.snapshot_ms", snapshot_s * 1e3);
    Store::open_with(&store_path, Verify::Quick)
        .and_then(Store::into_snapshot)
        .map_err(|e| format!("{store_path}: {e}"))
}

/// One whole-database scan through the shard executor; returns seconds per
/// scan and the kernel counters of one scan.
fn scan(
    exec: &mut ShardExecutor,
    prepared: &Arc<PreparedQuery>,
    db: &DbSnapshot,
    kernel: KernelChoice,
    chunk_size: usize,
) -> (f64, KernelStats) {
    let plan = ShardPlan {
        range: 0..db.len(),
        chunk_size,
        kernel,
        prefetch: true,
    };
    let mut stats = KernelStats::default();
    let per_scan = time_per_call(0.04, || {
        let cursor = AtomicUsize::new(0);
        let (scored, s) = exec.solo(prepared, db.arena(), &plan, &cursor, 10);
        stats = s;
        scored.len()
    });
    (per_scan, stats)
}

fn simd(p: &mut Probes, db: &DbSnapshot, seed: u64) {
    let scoring = Scoring::blosum62_affine();
    let mut mix = Mix(seed);
    let mut exec = ShardExecutor::new();
    let residues = db.total_residues() as f64;
    let kernels = [
        ("striped", KernelChoice::Striped),
        ("interseq", KernelChoice::InterSeq),
        ("auto", KernelChoice::Auto),
    ];
    for qlen in LADDER {
        let codes = mix.codes(qlen);
        if [32, 512, 4096].contains(&qlen) {
            let build_s = p.span("simd.profile_build", |_| {
                median_of(9, || {
                    PreparedQuery::new(&codes, &scoring, EnginePreference::Auto).query_len()
                })
            });
            p.put(format!("simd.profile_build_us.q{qlen}"), build_s * 1e6);
        }
        let prepared = Arc::new(PreparedQuery::new(&codes, &scoring, EnginePreference::Auto));
        let mut gcups = HashMap::new();
        for (name, kernel) in kernels {
            let (secs, _) = p.span(&format!("simd.scan.{name}"), |_| {
                scan(&mut exec, &prepared, db, kernel, chunk_floor())
            });
            let g = qlen as f64 * residues / secs / 1e9;
            gcups.insert(name, g);
            p.put(format!("simd.gcups.{name}.q{qlen}"), g);
        }
        // How much of the better forced kernel's speed the dispatcher gets.
        p.put(
            format!("simd.auto_vs_best.q{qlen}"),
            gcups["auto"] / gcups["striped"].max(gcups["interseq"]),
        );
    }

    // Chunk dispatch: the same scan claimed in floor-sized chunks and as a
    // single chunk; the difference per extra chunk.
    let prepared = Arc::new(PreparedQuery::new(
        &mix.codes(128),
        &scoring,
        EnginePreference::Auto,
    ));
    p.span("simd.chunk_overhead", |p| {
        let (chunked, stats) = scan(
            &mut exec,
            &prepared,
            db,
            KernelChoice::InterSeq,
            chunk_floor(),
        );
        let (whole, _) = scan(
            &mut exec,
            &prepared,
            db,
            KernelChoice::InterSeq,
            db.len().max(chunk_floor()),
        );
        let extra_chunks = (stats.chunks_interseq as f64 - 1.0).max(1.0);
        p.put(
            "simd.chunk_overhead_us",
            (chunked - whole) / extra_chunks * 1e6,
        );
    });

    // Fusion: four queries scanned one after another against one fused scan.
    p.span("simd.fused", |p| {
        let batch: Vec<(Arc<PreparedQuery>, usize)> = (0..4)
            .map(|_| {
                let codes = mix.codes(60);
                (
                    Arc::new(PreparedQuery::new(&codes, &scoring, EnginePreference::Auto)),
                    10,
                )
            })
            .collect();
        let plan = ShardPlan {
            range: 0..db.len(),
            chunk_size: chunk_floor(),
            kernel: KernelChoice::Auto,
            prefetch: true,
        };
        let solo = time_per_call(0.04, || {
            batch
                .iter()
                .map(|(q, top)| {
                    exec.solo(q, db.arena(), &plan, &AtomicUsize::new(0), *top)
                        .0
                        .len()
                })
                .sum::<usize>()
        });
        let fused = time_per_call(0.04, || {
            exec.fused(&batch, db.arena(), &plan, &AtomicUsize::new(0))
                .len()
        });
        p.put("simd.fused_speedup.k4", solo / fused);
    });
}

/// Saturating i8 add + max vector operations per second on this core, in
/// lane operations (vector ops × lanes) ÷ 1e9, measured with eight
/// independent dependency chains.
fn i8_lane_gops() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        const ITERS: u64 = 4_000_000;

        #[target_feature(enable = "avx2")]
        unsafe fn avx2_chains(iters: u64) -> i32 {
            let (one, floor) = (_mm256_set1_epi8(1), _mm256_set1_epi8(-100));
            let mut acc = [_mm256_setzero_si256(); 8];
            for _ in 0..iters {
                for a in &mut acc {
                    *a = _mm256_max_epi8(_mm256_adds_epi8(*a, one), floor);
                }
            }
            let mut sum = acc[0];
            for a in &acc[1..] {
                sum = _mm256_adds_epi8(sum, *a);
            }
            _mm256_extract_epi32::<0>(sum)
        }

        unsafe fn sse2_chains(iters: u64) -> i32 {
            let (one, floor) = (_mm_set1_epi8(1), _mm_set1_epi8(3));
            let mut acc = [_mm_setzero_si128(); 8];
            for _ in 0..iters {
                for a in &mut acc {
                    *a = _mm_max_epu8(_mm_adds_epu8(*a, one), floor);
                }
            }
            let mut sum = acc[0];
            for a in &acc[1..] {
                sum = _mm_adds_epi8(sum, *a);
            }
            _mm_cvtsi128_si32(sum)
        }

        let avx2 = is_x86_feature_detected!("avx2");
        let start = Instant::now();
        // SAFETY: `avx2_chains` runs only when the CPU reports AVX2; SSE2
        // is part of x86-64. Neither touches memory.
        black_box(unsafe {
            if avx2 {
                avx2_chains(black_box(ITERS))
            } else {
                sse2_chains(black_box(ITERS))
            }
        });
        let lanes = if avx2 { 32.0 } else { 16.0 };
        ITERS as f64 * 16.0 * lanes / start.elapsed().as_secs_f64() / 1e9
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        const ITERS: u64 = 50_000_000;
        let start = Instant::now();
        let mut acc = [0i8; 8];
        for _ in 0..black_box(ITERS) {
            for a in &mut acc {
                *a = a.saturating_add(1).max(-100);
            }
        }
        black_box(acc);
        ITERS as f64 * 16.0 / start.elapsed().as_secs_f64() / 1e9
    }
}

/// The scalar oracle: its own speed, and every reported hit re-scored.
fn align(
    p: &mut Probes,
    db: &DbSnapshot,
    seed: u64,
    rescore: Option<(&str, &str)>,
) -> Result<(), String> {
    let scoring = Scoring::blosum62_affine();
    let query = Mix(seed ^ 0xA11C).codes(400);
    let subjects = db.len().min(48);
    let cells: f64 = (0..subjects)
        .map(|i| (query.len() * db.seq_len(i)) as f64)
        .sum();
    let secs = p.span("align.scalar", |_| {
        time_per_call(0.05, || {
            (0..subjects)
                .map(|i| sw_score_affine(&query, db.residues(i), &scoring).score)
                .sum::<i32>()
        })
    });
    p.put("align.scalar_gcups", cells / secs / 1e9);

    let (mut rescored, mut mismatches) = (0u64, 0u64);
    if let Some((rows_path, db_path)) = rescore {
        let subjects: HashMap<String, Vec<u8>> = load_encoded(db_path)?
            .into_iter()
            .map(|s| (s.id, s.codes))
            .collect();
        let rows = std::fs::read_to_string(rows_path).map_err(|e| format!("{rows_path}: {e}"))?;
        p.span("align.rescore", |_| {
            let mut budget = RESCORE_CELLS;
            let mut last_query: (String, Vec<u8>) = Default::default();
            for row in rows.lines() {
                let mut cols = row.split('\t');
                let (Some(q), Some(id), Some(score)) = (cols.next(), cols.next(), cols.next())
                else {
                    mismatches += 1;
                    continue;
                };
                if last_query.0 != q {
                    let codes = Alphabet::Protein.encode(q.as_bytes()).unwrap_or_default();
                    last_query = (q.to_string(), codes);
                }
                let Some(subject) = subjects.get(id) else {
                    mismatches += 1;
                    continue;
                };
                let cells = (last_query.1.len() * subject.len()) as u64;
                if cells > budget {
                    break;
                }
                budget -= cells;
                rescored += 1;
                let oracle = sw_score_affine(&last_query.1, subject, &scoring).score;
                if score.parse::<i32>().ok() != Some(oracle) {
                    mismatches += 1;
                }
            }
        });
    }
    p.put("probe.rescored_hits", rescored as f64);
    p.put("probe.rescore_mismatches", mismatches as f64);
    Ok(())
}

/// Drive the bare scheduling engine under virtual time: 100 PEs of three
/// speeds, `tasks` tasks, every request/start/finish relayed and nothing
/// else. Returns (wall seconds, scheduling decisions).
fn bare_engine(tasks: usize) -> (f64, u64) {
    const DB_RESIDUES: u64 = 190_814_275;
    let specs: Vec<TaskSpec> = (0..tasks)
        .map(|id| TaskSpec {
            id,
            query_len: 100 + (id * 4900) / tasks.max(1),
            queries: 1,
            db_residues: DB_RESIDUES,
            db_sequences: 537_505,
        })
        .collect();
    let cells: Vec<f64> = specs
        .iter()
        .map(|s| s.query_len as f64 * DB_RESIDUES as f64)
        .collect();
    let speeds: Vec<f64> = (0..100)
        .map(|pe| match pe {
            0..=79 => 2.7,
            80..=95 => 30.0,
            _ => 20.0,
        })
        .collect();

    let start = Instant::now();
    let mut engine = Scheduler::new(specs, MasterConfig::default());
    let clock = VirtualClock::new();
    for (pe, gcups) in speeds.iter().enumerate() {
        engine.register(format!("pe{pe}"), *gcups);
    }
    let mut decisions = 0u64;
    // Per PE: tasks assigned and not started, the task it runs with the
    // epoch of its finish event; a cancelled replica bumps the epoch so
    // that its finish event is ignored.
    let mut queue: Vec<VecDeque<usize>> = vec![VecDeque::new(); speeds.len()];
    let mut running: Vec<Option<usize>> = vec![None; speeds.len()];
    let mut epoch = vec![0u64; speeds.len()];
    let mut waiting: Vec<usize> = Vec::new();
    // (finish time, pe, epoch), earliest first; ties by PE id.
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize, u64)>> = BinaryHeap::new();

    // Ask for work until the PE runs something or is told to wait.
    macro_rules! feed {
        ($pe:expr, $now:expr) => {{
            let (pe, now): (usize, f64) = ($pe, $now);
            while running[pe].is_none() {
                if queue[pe].is_empty() {
                    decisions += 1;
                    match engine.request(pe, now) {
                        Assignment::Tasks(t) if !t.is_empty() => queue[pe].extend(t),
                        Assignment::Steal { task, from } => {
                            queue[from].retain(|&t| t != task);
                            queue[pe].push_back(task);
                        }
                        Assignment::Replicate(task) => queue[pe].push_back(task),
                        Assignment::Done => break,
                        Assignment::Tasks(_) | Assignment::Wait => {
                            waiting.push(pe);
                            break;
                        }
                    }
                }
                if let Some(task) = queue[pe].pop_front() {
                    engine.task_started(pe, task, now);
                    running[pe] = Some(task);
                    let finish = now + cells[task] / (speeds[pe] * 1e9);
                    heap.push(std::cmp::Reverse((finish.to_bits(), pe, epoch[pe])));
                }
            }
        }};
    }

    for pe in 0..speeds.len() {
        feed!(pe, 0.0);
    }
    while let Some(std::cmp::Reverse((bits, pe, ep))) = heap.pop() {
        if ep != epoch[pe] {
            continue;
        }
        let now = f64::from_bits(bits);
        clock.advance_to(now);
        let Some(task) = running[pe].take() else {
            continue;
        };
        let cancelled = engine.task_finished(pe, task, clock.now(), Some(speeds[pe]));
        for other in cancelled {
            queue[other].retain(|&t| t != task);
            if running[other] == Some(task) {
                running[other] = None;
                epoch[other] += 1;
                feed!(other, now);
            }
        }
        feed!(pe, now);
        for idle in std::mem::take(&mut waiting) {
            feed!(idle, now);
        }
    }
    assert!(
        engine.all_finished(),
        "bare engine run left tasks unfinished"
    );
    (start.elapsed().as_secs_f64(), decisions)
}

fn sched(p: &mut Probes, tasks: usize) -> f64 {
    p.span("core.sched", |p| {
        let (small_s, _) = bare_engine(tasks / 4);
        let (full_s, decisions) = bare_engine(tasks);
        p.put("core.sched.decisions", decisions as f64);
        p.put(
            "core.sched.us_per_decision",
            full_s / decisions.max(1) as f64 * 1e6,
        );
        // 1 would be linear in the task count.
        p.put(
            "core.sched.scaling_exponent",
            (full_s / small_s).ln() / 4f64.ln(),
        );
        full_s
    })
}

fn wire(p: &mut Probes, seed: u64) {
    let mut mix = Mix(seed ^ 0x51DE);
    let text = |mix: &mut Mix, len| String::from_utf8(mix.protein(len)).expect("ASCII");
    let reply = SearchReply {
        job: 7,
        tag: Some("41".into()),
        cached: false,
        cancelled: false,
        generation: 0,
        cells: 28_000_000,
        elapsed_ms: 12.5,
        kernels: KernelStats::default(),
        hits: (0..10)
            .map(|i| Hit {
                db_index: 100 + i,
                id: format!("s{:06}", 100 + i),
                score: 200 - i as i32,
                subject_len: 300 + i,
            })
            .collect(),
    };
    let result_line = result_to_json(&reply).to_string();
    // A four-query fused task, shaped like the master/slave wire message.
    let task_line = Json::obj([
        ("type", Json::str("task")),
        ("task", Json::Num(17.0)),
        ("shard", Json::Arr(vec![Json::Num(0.0), Json::Num(672.0)])),
        (
            "queries",
            Json::Arr(
                (0..4)
                    .map(|i| {
                        Json::obj([
                            ("job", Json::Num(i as f64)),
                            ("top_n", Json::Num(10.0)),
                            ("query", Json::str(text(&mut mix, 60))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string();
    let bytes = (result_line.len() + task_line.len()) as f64;
    let parsed =
        [Json::parse(&result_line), Json::parse(&task_line)].map(|j| j.expect("own output parses"));
    let parse_s = p.span("json.parse", |_| {
        time_per_call(0.03, || {
            Json::parse(&result_line).is_ok() & Json::parse(&task_line).is_ok()
        })
    });
    p.put("json.parse_mb_s", bytes / 1e6 / parse_s);
    let write_s = p.span("json.write", |_| {
        time_per_call(0.03, || {
            parsed[0].to_string().len() + parsed[1].to_string().len()
        })
    });
    p.put("json.write_mb_s", bytes / 1e6 / write_s);

    let request = format!(
        "{{\"verb\":\"search\",\"query\":\"{}\",\"top_n\":10,\"tag\":\"41\"}}",
        text(&mut mix, 60)
    );
    let request_s = p.span("serve.parse_request", |_| {
        time_per_call(0.03, || parse_request(&request).is_ok())
    });
    p.put("serve.parse_request_us", request_s * 1e6);
    let reply_s = p.span("serve.result_to_json", |_| {
        time_per_call(0.03, || result_to_json(&reply).to_string().len())
    });
    p.put("serve.result_to_json_us", reply_s * 1e6);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let need = |name: &str| flag(&args, name).ok_or_else(|| format!("{name} is required"));
    let (db_path, work) = (need("--db")?, need("--work")?);
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|_| "--seed: not a number")?;
    let tasks: usize = need("--sched-tasks")?
        .parse()
        .map_err(|_| "--sched-tasks: not a number")?;
    let rescore = flag(&args, "--rescore").zip(flag(&args, "--rescore-db"));

    let mut p = Probes {
        epoch: Instant::now(),
        metrics: Vec::new(),
        spans: Vec::new(),
    };
    let db = seq_and_store(&mut p, db_path, work)?;
    simd(&mut p, &db, seed);
    let lane_gops = p.span("machine.i8_lanes", |_| i8_lane_gops());
    p.put("machine.i8_lane_gops", lane_gops);
    for (kernel, ops) in [
        ("interseq", LANE_OPS_PER_CELL_INTERSEQ),
        ("striped", LANE_OPS_PER_CELL_STRIPED),
    ] {
        let name = format!("simd.gcups.{kernel}.q512");
        let gcups = p.metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        p.put(
            format!("simd.lane_ops_share.{kernel}.q512"),
            gcups * ops / lane_gops,
        );
    }
    align(&mut p, &db, seed, rescore)?;
    let sched_bare_s = sched(&mut p, tasks.max(4));
    wire(&mut p, seed);

    let out = Json::obj([
        (
            "metrics",
            Json::Obj(
                p.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                p.spans
                    .iter()
                    .map(|(name, start, end)| {
                        Json::obj([
                            ("name", Json::str(name.as_str())),
                            ("start_s", Json::Num(*start)),
                            ("end_s", Json::Num(*end)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "aux",
            Json::obj([("sched_bare_s", Json::Num(sched_bare_s))]),
        ),
    ]);
    println!("{out}");
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("swbench-layers: {e}");
        std::process::exit(2);
    }
}
