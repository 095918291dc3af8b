//! The one-shot `search` verb: load the queries and the database, scan
//! every query on `--threads` shard PEs, rank, and (optionally) print
//! Gotoh alignments for the reported hits.

use std::io::{self, Write};

use super::args::{scoring_from_opts, Opts};
use super::db::{db_file, load_db, load_encoded};
use super::kernel_counts;
use crate::align::alignment::Alignment;
use crate::align::evalue::KarlinAltschul;
use crate::align::gotoh::gotoh_align;
use crate::align::scoring::Scoring;
use crate::exec::pool::{fuses, PeExecutor, QueryPayload, TaskPayload, TaskResult};
use crate::seq::sequence::EncodedSequence;
use crate::seq::DbSnapshot;
use crate::simd::engine::KernelStats;
use crate::simd::search::{merge_top_n, Hit};

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
    let results = ShardPes::new(&db, &scoring, threads).search(&queries, top_n)?;
    let mut kernel_stats = KernelStats::default();
    let mut out = std::io::stdout().lock();
    for (query, (hits, kernels)) in queries.iter().zip(results) {
        kernel_stats.merge(&kernels);
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

/// The PEs of one `search` run: one [`PeExecutor`] per residue-balanced
/// shard of the database ([`DbSnapshot::shard_ranges`], the split
/// `serve --workers N` makes).
pub(super) struct ShardPes<'a> {
    db: &'a DbSnapshot,
    shards: Vec<(usize, usize)>,
    pes: Vec<PeExecutor<'a>>,
}

impl<'a> ShardPes<'a> {
    pub(super) fn new(db: &'a DbSnapshot, scoring: &'a Scoring, threads: usize) -> ShardPes<'a> {
        let shards = db.shard_ranges(threads);
        let pes = shards.iter().map(|_| PeExecutor::new(scoring)).collect();
        ShardPes { db, shards, pes }
    }

    /// Every query against the database, merged per query, in input
    /// order: its ranked top `top_n` hits and the shards' summed kernel
    /// counters. The run's tasks are made once ([`fused_tasks`]) and each
    /// shard PE scans every one of them over its shard, one pass per task
    /// ([`PeExecutor::scan`]), on the calling thread when there is one
    /// shard and on one scoped thread per shard otherwise.
    pub(super) fn search(
        &mut self,
        queries: &[EncodedSequence],
        top_n: usize,
    ) -> Result<Vec<(Vec<Hit>, KernelStats)>, String> {
        let db = self.db;
        let tasks = fused_tasks(queries, top_n, (0, db.len()));
        let scan_shard = |pe: &mut PeExecutor, shard| -> io::Result<Vec<TaskResult>> {
            tasks
                .iter()
                .map(|(_, task)| {
                    pe.scan(
                        db,
                        &TaskPayload {
                            shard,
                            ..task.clone()
                        },
                    )
                })
                .collect()
        };
        let per_shard = match &mut self.pes[..] {
            [pe] => vec![scan_shard(pe, self.shards[0])],
            pes => std::thread::scope(|scope| {
                let handles: Vec<_> = pes
                    .iter_mut()
                    .zip(&self.shards)
                    .map(|(pe, &shard)| scope.spawn(move || scan_shard(pe, shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard PE panicked"))
                    .collect()
            }),
        };
        let mut lists: Vec<Vec<Vec<Hit>>> = vec![Vec::new(); queries.len()];
        let mut kernels = vec![KernelStats::default(); queries.len()];
        for results in per_shard {
            let results = results.map_err(|e| e.to_string())?;
            for ((members, _), result) in tasks.iter().zip(results) {
                for (&i, q) in members.iter().zip(result.queries) {
                    kernels[i].merge(&q.kernels);
                    lists[i].push(q.hits);
                }
            }
        }
        Ok(lists
            .into_iter()
            .zip(kernels)
            .map(|(lists, kernels)| (merge_top_n(lists, top_n), kernels))
            .collect())
    }
}

/// `search`'s tasks over `shard`, each paired with the input indices of
/// its queries: the queries longest first, each joining the task before it
/// while the pool's rule lets it ([`fuses`]), so a long query is a task of
/// its own and up to `FUSE_MAX` short ones share one. Longest first, a
/// PE's scratch reaches its high-water mark on the first pass and every
/// later pass's profiles fit where a longer one's were freed, so the heap
/// does not grow pass by pass.
pub(super) fn fused_tasks(
    queries: &[EncodedSequence],
    top_n: usize,
    shard: (usize, usize),
) -> Vec<(Vec<usize>, TaskPayload)> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(queries[i].len()));
    let mut tasks: Vec<(Vec<usize>, TaskPayload)> = Vec::new();
    for i in order {
        let query = QueryPayload {
            query: queries[i].codes.clone(),
            top_n,
        };
        match tasks.last_mut() {
            Some((members, task)) if fuses(members.len(), &task.queries[0].query, &query.query) => {
                members.push(i);
                task.queries.push(query);
            }
            _ => tasks.push((
                vec![i],
                TaskPayload {
                    queries: vec![query],
                    shard,
                },
            )),
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
