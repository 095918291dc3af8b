//! End-to-end integration: indexed files on disk → master/slave runtime on
//! real threads → merged hit lists, across crates.

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::device::FleetPe;
use swhybrid::exec::net::{Batch, DistributedOutcome};
use swhybrid::exec::policy::Policy;
use swhybrid::exec::sched::MasterConfig;
use swhybrid::seq::fasta::{self, FastaReader};
use swhybrid::seq::index::{index_path_for, IndexedFasta, SeqIndex};
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

fn pe(name: &str) -> FleetPe {
    FleetPe::simd(name, 1.0)
}

/// One batch on a local fleet alone: the batch function with no listener.
fn run_local(
    fleet: Vec<FleetPe>,
    queries: &[EncodedSequence],
    db: &DbSnapshot,
    master: MasterConfig,
) -> DistributedOutcome {
    Batch {
        queries,
        db,
        scoring: &scoring(),
        fleet,
    }
    .run(master)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swhybrid_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn indexed_fasta_random_access_equals_sequential_parse() {
    let dir = temp_dir("index");
    let db = paper_database("rat").unwrap().generate_scaled(21, 0.001);
    let path = dir.join("db.fasta");
    std::fs::write(&path, fasta::to_string(&db.sequences)).unwrap();

    // Index built from the file matches the records parsed sequentially.
    let sequential = FastaReader::open(&path).unwrap().read_all().unwrap();
    let mut indexed = IndexedFasta::open(&path).unwrap();
    assert_eq!(indexed.count(), sequential.len());
    assert_eq!(
        indexed.index().max_len,
        sequential.iter().map(|s| s.len()).max().unwrap() as u64
    );
    // Reverse-order access through the offsets.
    for i in (0..sequential.len()).rev() {
        assert_eq!(indexed.fetch(i).unwrap(), sequential[i]);
    }
    // The saved index file round-trips.
    let idx_path = index_path_for(&path);
    assert!(idx_path.exists());
    let loaded = SeqIndex::read_from(&mut std::io::BufReader::new(
        std::fs::File::open(idx_path).unwrap(),
    ))
    .unwrap();
    assert_eq!(&loaded, indexed.index());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn real_runtime_hits_match_direct_kernel_scores() {
    let db = paper_database("dog").unwrap().generate_scaled(31, 0.0015);
    let db = DbSnapshot::from_encoded("dog", &db.encode_all().unwrap());
    let queries: Vec<EncodedSequence> = QuerySetSpec {
        count: 5,
        min_len: 50,
        max_len: 220,
        order: QueryOrder::Ascending,
    }
    .generate(32)
    .iter()
    .map(|q| EncodedSequence::from_sequence(q, Alphabet::Protein).unwrap())
    .collect();

    let out = run_local(
        vec![pe("a"), pe("b")],
        &queries,
        &db,
        MasterConfig {
            policy: Policy::pss_default(),
            adjustment: true,
            dispatch: Default::default(),
        },
    );
    assert_eq!(out.completed_by.len(), 5);
    assert!(out.completed_by.iter().all(|n| n == "a" || n == "b"));

    // Every reported hit's score equals a direct scalar computation.
    for qh in &out.hits {
        let expect = swhybrid::align::score_only::sw_score_affine(
            &queries[qh.query_index].codes,
            db.residues(qh.hit.db_index),
            &scoring(),
        )
        .score;
        assert_eq!(qh.hit.score, expect);
    }
    // Merged list is sorted best-first.
    for w in out.hits.windows(2) {
        assert!(w[0].hit.score >= w[1].hit.score);
    }
}

#[test]
fn runtime_results_are_identical_across_policies_and_pe_counts() {
    let db = paper_database("mouse").unwrap().generate_scaled(41, 0.001);
    let db = DbSnapshot::from_encoded("mouse", &db.encode_all().unwrap());
    let queries: Vec<EncodedSequence> = QuerySetSpec {
        count: 4,
        min_len: 60,
        max_len: 150,
        order: QueryOrder::Descending,
    }
    .generate(42)
    .iter()
    .map(|q| EncodedSequence::from_sequence(q, Alphabet::Protein).unwrap())
    .collect();

    let key = |pes: Vec<FleetPe>, policy: Policy, adjustment: bool| {
        let out = run_local(
            pes,
            &queries,
            &db,
            MasterConfig {
                policy,
                adjustment,
                dispatch: Default::default(),
            },
        );
        let mut v: Vec<(usize, usize, i32)> = out
            .hits
            .iter()
            .map(|h| (h.query_index, h.hit.db_index, h.hit.score))
            .collect();
        v.sort_unstable();
        v
    };

    let reference = key(vec![pe("solo")], Policy::SelfScheduling, false);
    assert_eq!(
        key(vec![pe("a"), pe("b"), pe("c")], Policy::pss_default(), true),
        reference
    );
    assert_eq!(key(vec![pe("a"), pe("b")], Policy::Fixed, false), reference);
    assert_eq!(key(vec![pe("a"), pe("b")], Policy::WFixed, true), reference);
}
