//! The master/slave task execution environment running on *real threads*
//! with real kernels: three slave PEs compare a small query set against a
//! reduced-scale synthetic database, the master allocates tasks under PSS,
//! and the merged hit list comes back exactly as Fig. 4 describes.
//!
//! Run with: `cargo run --release --example task_environment`

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::device::FleetPe;
use swhybrid::exec::net::Batch;
use swhybrid::exec::policy::Policy;
use swhybrid::exec::pool::query_tasks;
use swhybrid::exec::sched::MasterConfig;
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::synth::{paper_database, QueryOrder, QuerySetSpec};
use swhybrid::seq::{Alphabet, DbSnapshot};

fn main() {
    // --- The queries: eight synthetic proteins, encoded once ------------
    let encoded_queries: Vec<EncodedSequence> = QuerySetSpec {
        count: 8,
        min_len: 60,
        max_len: 400,
        order: QueryOrder::Ascending,
    }
    .generate(5)
    .iter()
    .map(|q| {
        EncodedSequence::from_sequence(q, Alphabet::Protein).expect("synthetic residues are valid")
    })
    .collect();
    println!(
        "queries: {} sequences, longest {} aa",
        encoded_queries.len(),
        encoded_queries.iter().map(|q| q.len()).max().unwrap_or(0)
    );

    // --- The database: scaled-down Ensembl Dog ---------------------------
    // The master converts it once; every PE scans that form in place.
    let db = paper_database("dog")
        .expect("preset exists")
        .generate_scaled(6, 0.004);
    let db = DbSnapshot::from_encoded(
        "dog",
        &db.encode_all().expect("synthetic residues are valid"),
    );
    println!(
        "database: {} sequences, {} residues\n",
        db.len(),
        db.total_residues()
    );

    // --- Run the environment: one master, three slaves -------------------
    let scoring = Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };
    let outcome = Batch {
        tasks: query_tasks(&encoded_queries, &db),
        db: &db,
        scoring: &scoring,
        fleet: vec![
            FleetPe::simd("slave-0", 1.0),
            FleetPe::simd("slave-1", 1.0),
            FleetPe::simd("slave-2", 1.0),
        ],
    }
    .run(MasterConfig {
        policy: Policy::pss_default(),
        adjustment: true,
        dispatch: Default::default(),
    });

    println!(
        "executed {} tasks in {:.2} s  →  {:.2} GCUPS on this machine",
        outcome.completed_by.len(),
        outcome.elapsed_seconds,
        outcome.gcups
    );
    println!("\ntask → completing slave:");
    for (task, pe) in outcome.completed_by.iter().enumerate() {
        println!(
            "  query {:>2} ({:>4} aa)  →  {}",
            task,
            encoded_queries[task].len(),
            pe
        );
    }
    println!("\nmerged hit list (top 10 overall):");
    println!("{:>5} {:>6}  query  subject", "rank", "score");
    for (rank, qh) in outcome.hits.iter().take(10).enumerate() {
        println!(
            "{:>5} {:>6}  q{:<4}  {}",
            rank + 1,
            qh.hit.score,
            qh.query_index,
            qh.hit.id
        );
    }
}
