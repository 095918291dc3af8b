//! Allocation regressions in the core crate.
//!
//! A batch PE: the database is loaded and packed once, and a PE's executor
//! (kernel scratch included) lives as long as the PE — so the second and
//! later tasks a PE executes, fused tasks of short queries included, must
//! allocate far less than the database holds. (A PE that re-packed the
//! database into a fresh arena per task, with fresh scratch, allocated at
//! least one full copy of it every time.)
//!
//! The scheduling engine: with no event sink installed, handing out a batch
//! allocates nothing beyond what the task pool allocates for it.
//!
//! The counting allocator is the one of `crates/simd/tests/
//! alloc_regression.rs`, counting bytes instead of calls, per thread: each
//! `#[test]` runs on a thread of its own and counts only its own bytes, and
//! everything measured here (a PE's scan, a scheduler request) runs on the
//! calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_core::policy::Policy;
use swhybrid_core::pool::{PeExecutor, QueryPayload, TaskPayload, FUSE_MAX};
use swhybrid_core::sched::{MasterConfig, Scheduler};
use swhybrid_core::task::TaskPool;
use swhybrid_device::task::TaskSpec;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbSnapshot};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // reach it at any point of a thread's life.
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: pure pass-through to the system allocator plus a thread-local
// counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_allocated_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATED_BYTES.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATED_BYTES.with(Cell::get) - before
}

/// Deterministic pseudo-random residues (no rand dependency: the
/// allocator hook must observe only the PE).
fn residues(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 20) as u8
        })
        .collect()
}

#[test]
fn later_batch_tasks_allocate_less_than_the_database_holds() {
    let subjects: Vec<EncodedSequence> = (0..1500)
        .map(|i| EncodedSequence {
            id: format!("s{i}"),
            codes: residues(i as u64 + 1, 120 + (i * 37) % 300),
            alphabet: Alphabet::Protein,
        })
        .collect();
    let db = DbSnapshot::from_encoded("alloc", &subjects);
    drop(subjects);
    let scoring = Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };
    // The paper's grain: each query against the whole database.
    let tasks: Vec<TaskPayload> = (0..5)
        .map(|i| TaskPayload {
            queries: vec![QueryPayload {
                query: residues(9000 + i, 60 + 7 * i as usize),
                top_n: 10,
            }],
            shard: (0, db.len()),
        })
        .collect();

    let mut pe = PeExecutor::new(&scoring);
    // The first task sizes the PE's scratch high-water.
    let first = bytes_allocated_during(|| pe.scan(&db, &tasks[0]).unwrap());
    assert!(first > 0);
    for (task, payload) in tasks.iter().enumerate().skip(1) {
        let bytes = bytes_allocated_during(|| {
            let result = pe.scan(&db, payload).unwrap();
            assert_eq!(result.queries[0].hits.len(), 10);
            result
        });
        assert!(
            bytes < db.total_residues(),
            "task {task} allocated {bytes} bytes against a database of {} residues: \
             a PE must not copy the database (or rebuild its scratch) per task",
            db.total_residues()
        );
    }

    // Fused tasks: 8 short queries each, one pass per task. The first
    // sizes the fused pass's scratch; later ones reuse it.
    let fused: Vec<TaskPayload> = (0..3)
        .map(|t| TaskPayload {
            queries: (0..8)
                .map(|i| QueryPayload {
                    query: residues(20_000 + 8 * t + i, 24 + 4 * i as usize),
                    top_n: 10,
                })
                .collect(),
            shard: (0, db.len()),
        })
        .collect();
    assert_eq!(fused[0].queries.len(), FUSE_MAX, "full tasks");
    let mut pe = PeExecutor::new(&scoring);
    let first = bytes_allocated_during(|| pe.scan(&db, &fused[0]).unwrap());
    assert!(first > 0);
    for (t, task) in fused.iter().enumerate().skip(1) {
        let bytes = bytes_allocated_during(|| {
            let result = pe.scan(&db, task).unwrap();
            assert!(result.queries.iter().all(|q| q.hits.len() == 10));
            result
        });
        assert!(
            bytes < db.total_residues(),
            "fused task {t} allocated {bytes} bytes against a database of {} residues: \
             a fused pass must not copy the database (or rebuild its scratch)",
            db.total_residues()
        );
    }
}

fn sched_specs(n: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|id| TaskSpec {
            id,
            query_len: 1000,
            queries: 1,
            db_residues: 1_000_000,
            db_sequences: 100,
        })
        .collect()
}

/// A PSS engine and a bare pool over the same 100 tasks. The engine owes
/// PE 0 a batch of 6: it runs 6× the speed of the two others.
fn pss_engine() -> (Scheduler, TaskPool) {
    let config = MasterConfig::default();
    assert_eq!(config.policy, Policy::pss_default());
    let mut m = Scheduler::new(sched_specs(100), config);
    for (i, gcups) in [6.0, 1.0, 1.0].into_iter().enumerate() {
        let pe = m.register(format!("pe{i}"), gcups);
        m.notify_progress(pe, 0.0, gcups);
    }
    (m, TaskPool::new(sched_specs(100)))
}

#[test]
fn without_a_sink_a_batch_allocates_what_the_pool_allocates() {
    let (mut m, mut pool) = pss_engine();
    let pool_bytes = bytes_allocated_during(|| pool.take_ready(6, 0));
    let bytes = bytes_allocated_during(|| m.request(0, 0.0));
    assert_eq!(m.pool().executing_ids().count(), 6, "a batch of 6");
    assert_eq!(
        bytes, pool_bytes,
        "a request without a sink allocated {bytes} bytes where the pool's own \
         take_ready allocated {pool_bytes}: is it building events nobody reads?"
    );

    // The measurement sees an event's task list once a sink reads it.
    let (mut m, mut pool) = pss_engine();
    m.set_event_sink(|_| {});
    let pool_bytes = bytes_allocated_during(|| pool.take_ready(6, 0));
    let bytes = bytes_allocated_during(|| m.request(0, 0.0));
    assert!(bytes > pool_bytes, "{bytes} vs {pool_bytes}");
}
