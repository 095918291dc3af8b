//! Hybrid-fleet integration: real SIMD PEs and modeled accelerators (real
//! scores through the repo kernels, speed attributed from the calibrated
//! device models) run on the *same* scheduling pool, and their merged hit
//! table is byte-identical to the single-process one-shot search of the
//! same workload. This is the acceptance surface of the `--fleet` runtime:
//! heterogeneity may change who computes what and how fast the run is
//! reported to be — never what a query scores.

use std::sync::{Arc, Mutex};

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::device::{Device, DeviceKind, FleetSpec, TaskSpec};
use swhybrid::exec::net::{merge_hits, Batch, DistributedOutcome, MasterServer, QueryHit};
use swhybrid::exec::pool::{query_tasks, PeExecutor, QueryPayload, TaskPayload, BATCH_TOP_N};
use swhybrid::exec::sched::MasterConfig;
use swhybrid::exec::trace::{EventKind, RuntimeEvent};
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::synth::{paper_database, QueryOrder, QuerySetSpec};
use swhybrid::seq::{Alphabet, DbSnapshot};

fn scoring() -> Scoring {
    Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    }
}

struct Fixture {
    queries: Vec<EncodedSequence>,
    db: DbSnapshot,
}

impl Fixture {
    fn build() -> Fixture {
        let db = paper_database("dog").unwrap().generate_scaled(77, 0.0015);
        let db = DbSnapshot::from_encoded("dog", &db.encode_all().unwrap());
        let queries = QuerySetSpec {
            count: 6,
            min_len: 40,
            max_len: 200,
            order: QueryOrder::Shuffled,
        }
        .generate(78)
        .iter()
        .map(|q| EncodedSequence::from_sequence(q, Alphabet::Protein).unwrap())
        .collect();
        Fixture { queries, db }
    }

    /// The spec the runtime derives for query `task` — what a modeled
    /// PE's speed attribution is a function of.
    fn task_spec(&self, task: usize) -> TaskSpec {
        TaskSpec {
            id: task,
            query_len: self.queries[task].len(),
            queries: 1,
            db_residues: self.db.total_residues(),
            db_sequences: self.db.len(),
        }
    }

    /// Run the batch on the fleet `spec` alone — a master that waits for
    /// no slave — and return the outcome with the run's event stream.
    fn run_fleet(&self, spec: &str) -> (DistributedOutcome, Vec<RuntimeEvent>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let outcome = MasterServer::bind("127.0.0.1:0", MasterConfig::default(), 0)
            .unwrap()
            .with_event_sink(move |e| sink.lock().unwrap().push(e.clone()))
            .serve(Batch {
                tasks: query_tasks(&self.queries, &self.db),
                db: &self.db,
                scoring: &scoring(),
                fleet: FleetSpec::parse(spec).unwrap().build(),
            })
            .unwrap();
        let events = std::mem::take(&mut *seen.lock().unwrap());
        (outcome, events)
    }

    /// The one-shot oracle: per-query whole-database scans at the batch
    /// depth (what `search --threads 1` runs), merged through the same
    /// canonical ranking rule the runtime uses.
    fn one_shot(&self) -> Vec<QueryHit> {
        let scoring = scoring();
        let mut pe = PeExecutor::new(&scoring);
        merge_hits(self.queries.iter().enumerate().map(|(i, q)| {
            let payload = TaskPayload {
                queries: vec![QueryPayload {
                    query: q.codes.clone(),
                    top_n: BATCH_TOP_N,
                }],
                shard: (0, self.db.len()),
            };
            (
                i,
                pe.scan(&self.db, &payload).unwrap().queries.remove(0).hits,
            )
        }))
    }

    /// Per-task `TaskFinished` speeds of every PE named `name` in the run.
    fn finished_speeds(events: &[RuntimeEvent], name: &str) -> Vec<(usize, f64)> {
        let pe_id = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::PeRegistered { pe, name: n } if n == name => Some(*pe),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{name} never registered"));
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskFinished {
                    pe,
                    task,
                    measured_gcups,
                    ..
                } if pe == pe_id => Some((task, measured_gcups)),
                _ => None,
            })
            .collect()
    }
}

#[test]
fn gpu_and_sse_fleet_matches_one_shot_search() {
    let fx = Fixture::build();
    let (out, _) = fx.run_fleet("gpu:1+sse:2");
    assert_eq!(
        out.hits,
        fx.one_shot(),
        "hybrid hit table must be byte-identical to the one-shot search"
    );
    // Every task was completed by a fleet member, under its fleet name.
    assert_eq!(out.completed_by.len(), fx.queries.len());
    assert!(out
        .completed_by
        .iter()
        .all(|n| ["gpu0", "sse0", "sse1"].contains(&n.as_str())));
}

#[test]
fn modeled_pes_attribute_model_speed_real_pes_measure() {
    let fx = Fixture::build();
    let (out, events) = fx.run_fleet("gpu:1+sse:1+fpga:1");
    assert_eq!(out.hits, fx.one_shot());

    // Modeled kinds quote their calibrated device model for exactly the
    // finished task's spec — reproducible across runs.
    let gpu = Device::new("gpu0", DeviceKind::Gpu);
    for (task, gcups) in Fixture::finished_speeds(&events, "gpu0") {
        assert_eq!(gcups, gpu.task_gcups(&fx.task_spec(task)));
    }
    let fpga = Device::new("fpga0", DeviceKind::Fpga);
    for (task, gcups) in Fixture::finished_speeds(&events, "fpga0") {
        assert_eq!(gcups, fpga.task_gcups(&fx.task_spec(task)));
    }
    // The real SIMD PE reports a wall-clock measurement: positive, finite,
    // and (on a tiny test workload) nowhere near the accelerators' curves.
    for (_, gcups) in Fixture::finished_speeds(&events, "sse0") {
        assert!(gcups.is_finite() && gcups > 0.0);
    }
}

#[test]
fn all_modeled_fleet_still_scores_exactly() {
    // Even with no real-measurement PE in the fleet at all, every score
    // comes from the repo kernels: the model only shapes scheduling.
    let fx = Fixture::build();
    let (out, _) = fx.run_fleet("gpu:2");
    assert_eq!(out.hits, fx.one_shot());
    assert!(out.completed_by.iter().all(|n| n == "gpu0" || n == "gpu1"));
}
