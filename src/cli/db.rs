//! Database plumbing: query-set loading, [`load_db`] — the one call by
//! which every verb turns the database it was given into a
//! [`DbSnapshot`] — and the `db build` / `db inspect` / `generate`
//! verbs.

use crate::align::scoring::Scoring;
use crate::seq::fasta::read_encoded;
use crate::seq::sequence::EncodedSequence;
use crate::seq::synth::paper_database;
use crate::seq::{Alphabet, DbSnapshot};
use crate::store::{build_store, DbFile, Store};

use super::args::{store_verify, Opts};

/// Read a FASTA file and encode every record as protein (query sets, and
/// the input of `db build`).
pub(super) fn load_encoded(path: &str) -> Result<Vec<EncodedSequence>, String> {
    read_encoded(path, Alphabet::Protein).map_err(|e| format!("{path}: {e}"))
}

/// Which database a verb was given: `--db-store FILE.swdb` (validated
/// fully under `--verify-store`), or else one more positional FASTA path
/// after the verb's `n_leading` own ones (`leading` names those in the
/// usage error). Returns the leading paths and the database.
pub(super) fn db_file<'a>(
    opts: &'a Opts,
    verb: &str,
    leading: &str,
    n_leading: usize,
) -> Result<(&'a [String], DbFile<'a>), String> {
    match (opts.get("db-store"), opts.positional.as_slice()) {
        (Some(store), paths) if paths.len() == n_leading => Ok((
            paths,
            DbFile::Store(store, store_verify(opts.has("verify-store"))),
        )),
        (None, paths) if paths.len() == n_leading + 1 => {
            Ok((&paths[..n_leading], DbFile::Fasta(&paths[n_leading])))
        }
        _ => Err(format!(
            "{verb} takes {leading}<db.fasta> (or {leading}--db-store FILE.swdb)"
        )),
    }
}

/// Load a verb's database — a FASTA file, or a `.swdb` store whose arena
/// is scanned in place — for scoring under `scoring`. The report is
/// identical either way, kernel counters included: both scan the one
/// stable length order, and hits are keyed by database index.
pub(super) fn load_db(file: DbFile<'_>, scoring: &Scoring) -> Result<DbSnapshot, String> {
    file.load(scoring.matrix.alphabet)
        .map_err(|e| format!("{}: {e}", file.path()))
}

pub(super) fn cmd_db(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_db_build(&args[1..]),
        Some("inspect") => cmd_db_inspect(&args[1..]),
        _ => Err("db takes a subcommand: build | inspect".into()),
    }
}

fn cmd_db_build(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["name"], &[])?;
    let [fasta, out] = opts.positional.as_slice() else {
        return Err("db build takes <db.fasta> <out.swdb>".into());
    };
    let subjects = load_encoded(fasta)?;
    let name = match opts.get("name") {
        Some(n) => n.to_string(),
        None => std::path::Path::new(out)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default(),
    };
    let summary = build_store(out, &name, &subjects).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "built {}: {} sequences, {} residues, digest {:016x}, {} bytes",
        summary.path.display(),
        summary.sequences,
        summary.residues,
        summary.db_digest,
        summary.file_bytes
    );
    Ok(())
}

fn cmd_db_inspect(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], &["verify"])?;
    let [path] = opts.positional.as_slice() else {
        return Err("db inspect takes <store.swdb>".into());
    };
    let file_bytes = std::fs::metadata(path)
        .map_err(|e| format!("{path}: {e}"))?
        .len();
    let store = Store::open_with(path, store_verify(opts.has("verify")))
        .map_err(|e| format!("{path}: {e}"))?;
    let h = store.header();
    println!("store:      {path} ({file_bytes} bytes)");
    println!("name:       {}", store.name());
    println!("alphabet:   {:?}", store.alphabet());
    println!("sequences:  {}", h.num_seqs);
    println!(
        "residues:   {} (arena {} bytes at offset {})",
        h.total_residues, h.arena_len, h.arena_off
    );
    println!("lengths:    {}..{}", h.min_len, h.max_len);
    println!(
        "digest:     {:016x}{}",
        store.db_digest(),
        if opts.has("verify") {
            " (re-hashed, arena checksum verified)"
        } else {
            " (stored; metadata checksum verified)"
        }
    );
    println!(
        "chunks:     {} x {} residue-count stride",
        store.chunk_residues().len(),
        h.chunk_stride
    );
    println!(
        "scan perm:  {}",
        if h.has_perm() {
            "length-sorted (present)"
        } else {
            "absent (length order computed at open)"
        }
    );
    println!("mapped:     {}", store.is_mapped());
    Ok(())
}

pub(super) fn cmd_generate(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["seed"], &[])?;
    let [name, scale, out] = opts.positional.as_slice() else {
        return Err("generate takes <db-name> <scale> <out.fasta>".into());
    };
    let profile = paper_database(name).ok_or_else(|| format!("unknown database {name:?}"))?;
    let scale: f64 = scale.parse().map_err(|_| format!("bad scale {scale:?}"))?;
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err("scale must be in (0, 1]".into());
    }
    let seed = opts.get_parsed("seed", 2013u64)?;
    let db = profile.generate_scaled(seed, scale);
    let stats = db.stats();
    let text = crate::seq::fasta::to_string(&db.sequences);
    std::fs::write(out, text).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} sequences, {} residues (stand-in for {})",
        out, stats.num_sequences, stats.total_residues, profile.name
    );
    Ok(())
}
