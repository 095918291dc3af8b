//! Protein database search with the adapted-Farrar engine — real compute.
//!
//! Generates a reduced-scale synthetic SwissProt (same length distribution
//! and residue composition as the paper's biggest database), plants one
//! distant homolog of the query, and scans the whole database as one PE's
//! task (`PeExecutor::scan`, the compute call of every driver), reporting
//! the ranked hits and the measured GCUPS (compare with Table III's
//! per-core rate).
//!
//! Run with: `cargo run --release --example protein_search`

use std::time::Instant;

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::exec::pool::{PeExecutor, QueryPayload, TaskPayload};
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::synth::{paper_database, random_protein, rng};
use swhybrid::seq::{Alphabet, DbSnapshot, Sequence};

fn main() {
    let scoring = Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };

    // ~1,000 synthetic SwissProt-like sequences (scale 0.2% of 537,505).
    let profile = paper_database("swissprot").expect("preset exists");
    let mut db = profile.generate_scaled(11, 0.002);
    println!(
        "database: {} ({} sequences, {} residues)",
        db.name,
        db.stats().num_sequences,
        db.stats().total_residues
    );

    // A 400-residue query, plus a mutated copy planted into the database.
    let mut r = rng(99);
    let query_res = random_protein(&mut r, 400);
    let mut homolog = query_res.clone();
    for i in (0..homolog.len()).step_by(7) {
        homolog[i] = random_protein(&mut r, 1)[0]; // ~14% point mutations
    }
    db.sequences.push(Sequence::new(
        "planted|homolog",
        "mutated copy of the query",
        homolog,
    ));

    let query = EncodedSequence::from_residues("query", &query_res, Alphabet::Protein)
        .expect("synthetic residues are valid");
    // Pack the database once into the snapshot every driver scans.
    let subjects = DbSnapshot::from_encoded(
        db.name.as_str(),
        &db.encode_all().expect("synthetic residues are valid"),
    );

    // One task: the query at depth 10 against the whole database.
    let task = TaskPayload {
        queries: vec![QueryPayload {
            query: query.codes.clone(),
            top_n: 10,
        }],
        shard: (0, subjects.len()),
    };
    let start = Instant::now();
    let mut result = PeExecutor::new(&scoring)
        .scan(&subjects, &task)
        .expect("the shard is the whole database");
    let secs = start.elapsed().as_secs_f64();
    let result = result.queries.remove(0);
    let stats = result.kernels;

    println!(
        "\nscanned {} cells in {:.3} s  →  {:.2} GCUPS (paper's SSE core: ~2.7)",
        stats.cells_computed,
        secs,
        stats.cells_computed as f64 / secs / 1e9
    );
    println!(
        "kernel usage: {} × 8-bit, {} × 16-bit, {} × scalar",
        stats.resolved_i8, stats.resolved_i16, stats.resolved_scalar
    );
    println!("\ntop hits:");
    println!("{:>4}  {:>6}  {:>6}  id", "rank", "score", "len");
    for (rank, hit) in result.hits.iter().enumerate() {
        println!(
            "{:>4}  {:>6}  {:>6}  {}",
            rank + 1,
            hit.score,
            hit.subject_len,
            hit.id
        );
    }
    assert_eq!(
        result.hits[0].id, "planted|homolog",
        "the planted homolog must rank first"
    );
    println!("\nthe planted homolog ranks first, as it should.");
}
