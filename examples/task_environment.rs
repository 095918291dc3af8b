//! The master/slave task execution environment running on *real threads*
//! with real kernels: three slave PEs compare a small query set against a
//! reduced-scale synthetic database, the master allocates tasks under PSS,
//! and the merged hit list comes back exactly as Fig. 4 describes.
//!
//! Also demonstrates the indexed query-file format of §IV-B.
//!
//! Run with: `cargo run --release --example task_environment`

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::device::FleetPe;
use swhybrid::exec::net::Batch;
use swhybrid::exec::policy::Policy;
use swhybrid::exec::sched::MasterConfig;
use swhybrid::seq::fasta;
use swhybrid::seq::index::IndexedFasta;
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::synth::{paper_database, QueryOrder, QuerySetSpec};
use swhybrid::seq::{Alphabet, DbSnapshot};

fn main() {
    // --- Build the inputs: a query FASTA file + its index (§IV-B) --------
    let queries = QuerySetSpec {
        count: 8,
        min_len: 60,
        max_len: 400,
        order: QueryOrder::Ascending,
    }
    .generate(5);
    let dir = std::env::temp_dir().join("swhybrid_example");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let qpath = dir.join("queries.fasta");
    std::fs::write(&qpath, fasta::to_string(&queries)).expect("write queries");

    let mut indexed = IndexedFasta::open(&qpath).expect("index builds");
    println!(
        "indexed query file: {} sequences, longest {} aa, index at {}",
        indexed.count(),
        indexed.index().max_len,
        swhybrid::seq::index::index_path_for(&qpath).display()
    );
    // Random access through the index, exactly like the master's
    // "acquire sequences" step.
    let encoded_queries: Vec<EncodedSequence> = (0..indexed.count())
        .map(|i| {
            let record = indexed.fetch(i).expect("offset is valid");
            EncodedSequence::from_sequence(&record, Alphabet::Protein)
                .expect("synthetic residues are valid")
        })
        .collect();

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
        queries: &encoded_queries,
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
    std::fs::remove_dir_all(&dir).ok();
}
