//! The one-shot `search` verb: load the queries and the database, scan,
//! rank, and (optionally) print Gotoh alignments for the reported hits.

use super::args::{kernel_from_opts, scoring_from_opts, Opts};
use super::db::{db_file, load_db, load_encoded};
use crate::simd::search::{search_db, SearchConfig};

pub(super) fn cmd_search(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "top",
            "threads",
            "matrix",
            "gap-open",
            "gap-extend",
            "kernel",
            "db-store",
        ],
        &["align", "verify-store"],
    )?;
    let scoring = scoring_from_opts(&opts)?;
    let kernel = kernel_from_opts(&opts)?;
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
    let mut total_cells = 0u64;
    let mut kernel_stats = crate::simd::engine::KernelStats::default();
    for query in &queries {
        let result = search_db(
            &query.codes,
            &db,
            &scoring,
            &SearchConfig {
                threads,
                top_n,
                kernel,
                ..Default::default()
            },
        );
        total_cells += result.cells;
        kernel_stats.merge(&result.stats);
        let stats_params = crate::align::evalue::KarlinAltschul::for_scoring(&scoring);
        let db_residues: u64 = db.total_residues();
        println!("\n# query {} ({} aa)", query.id, query.len());
        println!(
            "{:>4}  {:>6}  {:>8}  {:>9}  {:>6}  subject",
            "rank", "score", "bits", "E-value", "len"
        );
        for (rank, hit) in result.hits.iter().enumerate() {
            let (bits, evalue) = match &stats_params {
                Some(p) => (
                    format!("{:.1}", p.bit_score(hit.score)),
                    format!(
                        "{:.1e}",
                        p.evalue(hit.score, query.len(), db_residues, db.len())
                    ),
                ),
                None => ("-".into(), "-".into()),
            };
            println!(
                "{:>4}  {:>6}  {:>8}  {:>9}  {:>6}  {}",
                rank + 1,
                hit.score,
                bits,
                evalue,
                hit.subject_len,
                hit.id
            );
        }
        if opts.has("align") {
            for (hit, alignment) in result.align_hits(&query.codes, &db, &scoring) {
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
    println!(
        "\n{total_cells} cells in {secs:.3} s = {:.2} GCUPS",
        total_cells as f64 / secs / 1e9
    );
    println!(
        "kernel {}: {} striped / {} inter-sequence chunks, \
         subjects i8/i16/scalar striped {}+{}+{} interseq {}+{}+{}",
        kernel.name(),
        kernel_stats.chunks_striped,
        kernel_stats.chunks_interseq,
        kernel_stats.resolved_i8,
        kernel_stats.resolved_i16,
        kernel_stats.resolved_scalar,
        kernel_stats.interseq_i8,
        kernel_stats.interseq_i16,
        kernel_stats.interseq_scalar,
    );
    Ok(())
}
