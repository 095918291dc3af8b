//! What a simulation keeps: a plain `Simulator::run` holds what its report
//! reads, not one sample per progress notification. A 100-PE fleet fires a
//! notification per PE every 5 virtual seconds (≈ 13 per task on the
//! `simulate` benchmark fleet), so storing them (24 B each, ≈ 315 B per
//! task) was most of the pass's heap. The scheduler still receives every
//! notification, so the traced and untraced runs make the same schedule.
//!
//! The counting allocator tracks live bytes and their high-water mark; it
//! is process-wide, so everything runs inside one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use swhybrid_core::platform::PlatformBuilder;
use swhybrid_core::policy::Policy;
use swhybrid_core::sim::{SimConfig, SimPe, SimReport, Simulator};
use swhybrid_device::perfmodel::PerfModel;
use swhybrid_device::task::{Device, DeviceKind, TaskSpec};
use swhybrid_device::FleetSpec;
use swhybrid_seq::synth::{paper_database, QueryOrder, QuerySetSpec};

struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE_BYTES.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: pure pass-through to the system allocator plus relaxed counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the move's worst case, both blocks live at once.
        grew(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        shrank(layout.size());
        moved
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap high-water above the live bytes at the call, while `f` runs.
fn peak_heap_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = std::hint::black_box(f());
    (out, PEAK_BYTES.load(Ordering::Relaxed) - base)
}

/// `simulate --fleet sse:80+gpu:16+fpga:4 --queries N --policy pss`.
fn fleet100(tasks: usize, order: QueryOrder) -> (PlatformBuilder, Vec<TaskSpec>) {
    let db = paper_database("swissprot").unwrap().full_scale_stats();
    let mut spec = QuerySetSpec::paper();
    spec.count = tasks;
    spec.order = order;
    let fleet = FleetSpec::parse("sse:80+gpu:16+fpga:4").unwrap();
    let builder = PlatformBuilder::new()
        .fleet(&fleet)
        .policy(Policy::pss_default());
    (builder, PlatformBuilder::workload(&db, &spec, 2013))
}

/// The paper's Fig. 5 platform: one GPU 6× faster than three SSE cores,
/// 20 tasks of 1 s on the GPU.
fn fig5(adjustment: bool) -> Simulator {
    let flat = |name: &str, kind, gcups| {
        SimPe::new(Device {
            name: name.into(),
            kind,
            model: PerfModel::flat(gcups),
        })
    };
    let pes = vec![
        flat("GPU1", DeviceKind::Gpu, 6.0),
        flat("SSE1", DeviceKind::SseCore, 1.0),
        flat("SSE2", DeviceKind::SseCore, 1.0),
        flat("SSE3", DeviceKind::SseCore, 1.0),
    ];
    let tasks = (0..20)
        .map(|id| TaskSpec {
            id,
            query_len: 1000,
            queries: 1,
            db_residues: 6_000_000,
            db_sequences: 1_000,
        })
        .collect();
    let mut config = SimConfig {
        comm_latency: 0.0,
        ..SimConfig::default()
    };
    config.master.adjustment = adjustment;
    Simulator::new(pes, tasks, config)
}

fn assert_same_schedule(plain: &SimReport, traced: &SimReport, what: &str) {
    assert_eq!(plain.makespan, traced.makespan, "{what}: makespan");
    assert_eq!(plain.per_pe, traced.per_pe, "{what}: per-PE report");
    assert_eq!(
        plain.duplicated_cells, traced.duplicated_cells,
        "{what}: duplicated cells"
    );
}

/// Peak heap per task of a plain 20,000-task run on the 100-PE fleet.
/// Storing every notification and Gantt segment peaked at 1,069 B per task;
/// the scheduler's own state and the report peak at 96. The notifications
/// alone (≥ 315 B per task) would cross this bound.
const MAX_PEAK_BYTES_PER_TASK: usize = 300;

#[test]
fn a_plain_run_keeps_what_its_report_reads() {
    const TASKS: usize = 20_000;
    let (builder, workload) = fleet100(TASKS, QueryOrder::Ascending);
    let (out, peak) = peak_heap_during(|| builder.run(workload));
    let completed: usize = out.report.per_pe.iter().map(|p| p.tasks_completed).sum();
    assert_eq!(completed, TASKS);
    let per_task = peak / TASKS;
    println!("peak heap {peak} B over {TASKS} tasks = {per_task} B/task");
    assert!(
        per_task < MAX_PEAK_BYTES_PER_TASK,
        "a plain run peaked at {per_task} B per task (bound {MAX_PEAK_BYTES_PER_TASK}): \
         is it storing a sample per notification again?"
    );

    // Recording never perturbs the schedule.
    for adjustment in [true, false] {
        let plain = fig5(adjustment).run();
        let (traced, trace) = fig5(adjustment).run_traced();
        assert_same_schedule(&plain, &traced, "Fig. 5");
        assert!(!trace.segments.is_empty() && !trace.notifications.is_empty());
    }
    let (builder, workload) = fleet100(2_000, QueryOrder::Shuffled);
    let plain = builder.clone().run(workload.clone()).report;
    let (traced, trace) = builder.run_traced(workload);
    assert_same_schedule(&plain, &traced.report, "shuffled fleet");
    let completed = trace
        .segments
        .iter()
        .filter(|s| s.end_kind == swhybrid_core::trace::SegmentEnd::Completed)
        .count();
    assert_eq!(completed, 2_000);
}
