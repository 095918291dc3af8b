//! Quickstart: the five-minute tour of the `swhybrid` API.
//!
//! Reproduces the paper's didactic Fig. 2 — the Smith-Waterman similarity
//! matrix with traceback — then shows that the striped SIMD engine agrees
//! with the scalar oracle.
//!
//! Run with: `cargo run --example quickstart`

use swhybrid::align::gotoh::gotoh_align;
use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::align::sw::SwMatrix;
use swhybrid::seq::fasta;
use swhybrid::seq::Alphabet;
use swhybrid::simd::engine::{EnginePreference, StripedEngine};
use swhybrid::simd::KernelScratch;

fn main() {
    // --- Fig. 2: the SW similarity matrix and local traceback ------------
    // ma = +1, mi = −1, g = −2 (the paper's example scheme).
    let scoring = Scoring::paper_dna();
    let s2 = Alphabet::Dna.encode(b"GCTGAC").expect("valid DNA");
    let t2 = Alphabet::Dna.encode(b"GAAGCTA").expect("valid DNA");
    let matrix = SwMatrix::build(&s2, &t2, &scoring);
    println!(
        "— Fig. 2: similarity matrix (best local score = {}) —",
        matrix.best_score()
    );
    println!("{}", matrix.render(b"GCTGAC", b"GAAGCTA"));
    let local = matrix.traceback(&s2, &t2);
    println!(
        "local alignment: cigar {}, s[{}..{}] vs t[{}..{}]\n{}\n",
        local.cigar(),
        local.s_range.0,
        local.s_range.1,
        local.t_range.0,
        local.t_range.1,
        local.pretty(b"GCTGAC", b"GAAGCTA"),
    );

    // --- Proteins: BLOSUM62 + affine gaps (Gotoh) ------------------------
    let records =
        fasta::parse_str(">q1 kinase fragment\nMKVLAWCDEFGHIK\n>q2 homolog\nMKVLWCDEFGIK\n")
            .expect("valid FASTA");
    let blosum = Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    };
    let q1 = records[0].encode(Alphabet::Protein).expect("valid protein");
    let q2 = records[1].encode(Alphabet::Protein).expect("valid protein");
    let aligned = gotoh_align(&q1, &q2, &blosum);
    println!(
        "— protein local alignment (BLOSUM62, affine): score {} ({}% identity) —",
        aligned.score,
        (aligned.identity() * 100.0).round(),
    );
    println!(
        "{}\n",
        aligned.pretty(&records[0].residues, &records[1].residues)
    );

    // --- The adapted-Farrar striped engine agrees with the oracle --------
    let mut engine = StripedEngine::new(&q1, &blosum, EnginePreference::Auto);
    let mut scratch = KernelScratch::new();
    let striped = engine.score(&q2, &mut scratch);
    println!(
        "striped SIMD score: {striped} (scalar oracle: {})",
        aligned.score
    );
    assert_eq!(striped, aligned.score);
    println!("kernels used: {:?}", engine.stats());
}
