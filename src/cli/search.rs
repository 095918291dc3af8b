//! The one-shot `search` verb: load the queries and the database, run
//! them as one batch on `--threads` PEs, rank, and (optionally) print
//! Gotoh alignments for the reported hits.

use std::io::{self, Write};

use super::args::{scoring_from_opts, Opts};
use super::db::{db_file, load_db, load_encoded};
use super::kernel_counts;
use crate::align::alignment::Alignment;
use crate::align::evalue::KarlinAltschul;
use crate::align::gotoh::gotoh_align;
use crate::align::scoring::Scoring;
use crate::device::FleetPe;
use crate::exec::net::{Batch, QueryHit};
use crate::exec::policy::Policy;
use crate::exec::pool::{fuses, QueryPayload, TaskPayload};
use crate::exec::sched::{Dispatch, MasterConfig};
use crate::seq::sequence::EncodedSequence;
use crate::seq::DbSnapshot;
use crate::simd::engine::KernelStats;
use crate::simd::search::Hit;

pub(super) fn cmd_search(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "top",
            "threads",
            "matrix",
            "gap-open",
            "gap-extend",
            "db-store",
        ],
        &["align", "verify-store"],
    )?;
    let scoring = scoring_from_opts(&opts)?;
    let top_n: usize = opts.get_parsed("top", 10)?;
    let threads: usize = opts.get_parsed("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    let (paths, file) = db_file(&opts, "search", "<query.fasta> ", 1)?;
    let qpath = &paths[0];
    let db = load_db(file, &scoring)?;
    let queries = load_encoded(qpath)?;
    if queries.is_empty() {
        return Err(format!("{qpath}: no query sequences"));
    }
    println!(
        "{} quer{} × {} subjects",
        queries.len(),
        if queries.len() == 1 { "y" } else { "ies" },
        db.len()
    );

    let start = std::time::Instant::now();
    let (tables, kernel_stats) = search_tables(&queries, &db, &scoring, top_n, threads);
    let mut out = std::io::stdout().lock();
    for (query, hits) in queries.iter().zip(tables) {
        write_hit_table(&mut out, &query.id, query.len(), &hits, &db, &scoring)
            .map_err(|e| format!("stdout: {e}"))?;
        if opts.has("align") {
            for (hit, alignment) in align_hits(&hits, &query.codes, &db, &scoring) {
                println!(
                    "\n>{} score {} cigar {} identity {:.0}%",
                    hit.id,
                    hit.score,
                    alignment.cigar(),
                    alignment.identity() * 100.0
                );
                let q_ascii = query.decode();
                let s_ascii = db.alphabet().decode_all(db.residues(hit.db_index));
                println!("{}", alignment.pretty(&q_ascii, &s_ascii));
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let total_cells = kernel_stats.cells_computed;
    println!(
        "\n{total_cells} cells in {secs:.3} s = {:.2} GCUPS",
        total_cells as f64 / secs / 1e9
    );
    println!("kernel auto: {}", kernel_counts(&kernel_stats));
    Ok(())
}

/// Every query against the database as one [`Batch`] on `threads` SIMD
/// PEs: the run's tasks ([`fused_tasks`]) over the residue-balanced shards
/// `serve --workers N` also cuts ([`DbSnapshot::shard_ranges`]), each PE
/// pulling one task at a time with no replica, so every task is scanned
/// exactly once whatever `threads` is. Returns each query's ranked top
/// `top_n` hits, in input order, and the run's summed kernel counters.
pub(super) fn search_tables(
    queries: &[EncodedSequence],
    db: &DbSnapshot,
    scoring: &Scoring,
    top_n: usize,
    threads: usize,
) -> (Vec<Vec<Hit>>, KernelStats) {
    let outcome = Batch {
        tasks: fused_tasks(queries, top_n, &db.shard_ranges(threads)),
        db,
        scoring,
        fleet: (0..threads)
            .map(|i| FleetPe::simd(format!("sse{i}"), 1.0))
            .collect(),
    }
    .run(MasterConfig {
        policy: Policy::SelfScheduling,
        adjustment: false,
        dispatch: Dispatch::FileOrder,
    });
    // The merge ranks each query's hits score first, then database order,
    // as `merge_top_n` does: a table is its query's first `top_n`.
    let mut tables = vec![Vec::new(); queries.len()];
    for QueryHit { query_index, hit } in outcome.hits {
        if tables[query_index].len() < top_n {
            tables[query_index].push(hit);
        }
    }
    (tables, outcome.kernels)
}

/// `search`'s tasks, each paired with the input indices of its queries:
/// the queries longest first, each joining the group before it while the
/// pool's rule lets it ([`fuses`]), so a long query is a group of its own
/// and up to `FUSE_MAX` short ones share one; then each group over each of
/// `shards`, group by group. Longest first, a PE's scratch reaches its
/// high-water mark on the first pass and every later pass's profiles fit
/// where a longer one's were freed, so the heap does not grow pass by
/// pass.
pub(super) fn fused_tasks(
    queries: &[EncodedSequence],
    top_n: usize,
    shards: &[(usize, usize)],
) -> Vec<(Vec<usize>, TaskPayload)> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(queries[i].len()));
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in order {
        match groups.last_mut() {
            Some(members)
                if fuses(members.len(), &queries[members[0]].codes, &queries[i].codes) =>
            {
                members.push(i)
            }
            _ => groups.push(vec![i]),
        }
    }
    let mut tasks = Vec::new();
    for members in groups {
        let queries: Vec<QueryPayload> = members
            .iter()
            .map(|&i| QueryPayload {
                query: queries[i].codes.clone(),
                top_n,
            })
            .collect();
        for &shard in shards {
            let task = TaskPayload {
                queries: queries.clone(),
                shard,
            };
            tasks.push((members.clone(), task));
        }
    }
    tasks
}

/// Write one query's hit table to `out`: its header, then one row per hit
/// with bit score and E-value where the scheme has Karlin-Altschul
/// parameters.
pub(super) fn write_hit_table(
    out: &mut impl Write,
    id: &str,
    query_len: usize,
    hits: &[Hit],
    db: &DbSnapshot,
    scoring: &Scoring,
) -> io::Result<()> {
    let stats_params = KarlinAltschul::for_scoring(scoring);
    writeln!(out, "\n# query {id} ({query_len} aa)")?;
    writeln!(
        out,
        "{:>4}  {:>6}  {:>8}  {:>9}  {:>6}  subject",
        "rank", "score", "bits", "E-value", "len"
    )?;
    for (rank, hit) in hits.iter().enumerate() {
        let (bits, evalue) = match &stats_params {
            Some(p) => (
                format!("{:.1}", p.bit_score(hit.score)),
                format!(
                    "{:.1e}",
                    p.evalue(hit.score, query_len, db.total_residues(), db.len())
                ),
            ),
            None => ("-".into(), "-".into()),
        };
        writeln!(
            out,
            "{:>4}  {:>6}  {:>8}  {:>9}  {:>6}  {}",
            rank + 1,
            hit.score,
            bits,
            evalue,
            hit.subject_len,
            hit.id
        )?;
    }
    Ok(())
}

/// Recover the optimal local alignments of the reported hits: the scan is
/// score-only, so only the top-N pay the quadratic traceback (the standard
/// database-search trade-off). Each alignment's score equals its hit's by
/// construction (asserted in debug builds).
pub(super) fn align_hits<'h>(
    hits: &'h [Hit],
    query: &[u8],
    db: &DbSnapshot,
    scoring: &Scoring,
) -> Vec<(&'h Hit, Alignment)> {
    hits.iter()
        .map(|hit| {
            let alignment = gotoh_align(query, db.residues(hit.db_index), scoring);
            debug_assert_eq!(alignment.score, hit.score, "hit {}", hit.id);
            (hit, alignment)
        })
        .collect()
}
