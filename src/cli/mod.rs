//! The `swhybrid` command-line front end: one module per verb family.
//!
//! The binary (`src/bin/swhybrid.rs`) is a thin shell around [`run`]; every
//! verb lives here in the library so the whole CLI surface is testable
//! in-process (no subprocess spawning, no argv plumbing):
//!
//! * `args` — the shared flag parser plus the scoring / policy / fleet
//!   option decoders every verb reuses,
//! * `db` — database plumbing: `db build|inspect`, `generate`,
//!   and `db::load_db`, by which every verb loads its database (FASTA
//!   or a memory-mapped `.swdb` store) into the one `DbSnapshot`,
//! * `search` — the one-shot `search` verb, one batch on the pool,
//! * `master_slave` — the distributed `master` / `slave` pair and the
//!   virtual-time `simulate` verb,
//! * `serve` — the persistent daemon (`serve`) and its clients
//!   (`query`, `reload`).

mod args;
mod db;
mod master_slave;
mod search;
mod serve;

const USAGE: &str = "\
swhybrid — biological sequence comparison on hybrid platforms

USAGE:
  swhybrid db build <db.fasta> <out.swdb> [--name NAME]
      Compile a FASTA database into a persistent `.swdb` store, the
      paper's indexed sequence file: sequence count and length extrema in
      the header, the encoded residue arena (64-byte aligned,
      memory-mappable), ids, per-sequence spans, the length-sorted scan
      permutation, per-chunk residue counts, and the FNV database digest
      — everything the runtime otherwise reconstructs on every boot.
      Written atomically (temp file + fsync + rename).

  swhybrid db inspect <store.swdb> [--verify]
      Print a store's header: name, alphabet, sequence/residue counts,
      length extrema, digest, section sizes. --verify additionally
      checks the arena checksum and re-hashes the full database digest.

  swhybrid generate <db-name> <scale> <out.fasta>
      Write a synthetic stand-in for one of the paper's databases.
      <db-name>: dog | rat | human | mouse | swissprot
      <scale>:   fraction of the full sequence count, e.g. 0.01

  swhybrid search <query.fasta> <db.fasta> [--top N] [--threads N]
                  [--matrix blosum62|blosum50|pam250]
                  [--gap-open N] [--gap-extend N] [--align]
                  [--db-store FILE.swdb] [--verify-store]
      Compare every query against the database; print ranked hits (and
      alignments with --align). Each chunk goes to the SWIPE-style
      inter-sequence kernel, at any query length, unless it holds too few
      subjects to fill the lanes (a shard's tail) or subjects of too
      unlike lengths; those go to the adapted-Farrar striped engine.
      The queries run as one batch on the pool `master` uses: longest
      first, up to 8 queries of at most 128 aa share a task, and each task
      is cut over N residue-balanced shards (the shards `serve --workers
      N` makes). --threads N runs N PEs, each pulling one (task, shard)
      at a time; with N = 1 the one PE scans on the calling thread. Hit
      tables and the `kernel auto:` line do not depend on N. Tables print
      in input order once every query is scanned. Gap penalties
      (--gap-open, --gap-extend; every verb) must be at most 1000000.
      --db-store replaces <db.fasta> with a `.swdb` store: the arena is
      memory-mapped and scanned in place (no parse, no re-encode), with
      hit tables byte-identical to the FASTA path. --verify-store
      re-checks the arena checksum and digest before scanning.

  swhybrid simulate [--fleet SPEC] [--db NAME] [--policy ss|pss|fixed|wfixed]
                    [--no-adjustment] [--order asc|desc|shuffle] [--queries N]
      Run the paper's 40-query workload (or --queries N) on a simulated
      hybrid platform under virtual time and report time/GCUPS. --fleet
      takes the same sse:8+gpu:2 spec as master/serve (default
      gpu:4+sse:4).

  swhybrid master <query.fasta> <db.fasta> --listen HOST:PORT --slaves N
                  [--fleet SPEC] [--db-store FILE.swdb] [--verify-store]
                  [--policy ...] [--no-adjustment] [--top N]
                  [--register-timeout SECS] [--slave-deadline SECS]
                  [--events FILE.json] [--matrix ...] [--gap-open N]
                  [--gap-extend N]
      Start the distributed master: waits for N slaves to register (at most
      --register-timeout seconds; 0 waits forever), then distributes one
      task per query, each shipped with its query and scored against the
      whole database at a fixed depth of 10 hits per query, and prints the
      best --top rows of those merged hits (so at most 10 per query). A
      slave silent for --slave-deadline seconds is declared dead and its
      tasks requeued.
      --events streams the structured run-event log as JSON lines (one
      event per line, written as the run progresses).
      --fleet sse:2+gpu:1 additionally hosts a local hybrid fleet in the
      master process — real SIMD PEs plus modeled accelerators (real
      scores, calibrated model speed) — on the same scheduling pool as
      the TCP slaves; with --fleet, --slaves 0 runs entirely locally.
      --db-store loads the database from a `.swdb` store instead of FASTA
      (then only <query.fasta> is positional).

  swhybrid serve <db.fasta> --listen HOST:PORT [--workers N] [--fleet SPEC]
                 [--shards N] [--db-store FILE.swdb] [--verify-store]
                 [--listen-slaves HOST:PORT] [--max-active N]
                 [--queue-depth N] [--client-inflight N] [--cache N]
                 [--retain N] [--policy ss|pss] [--no-adjustment]
                 [--matrix ...] [--gap-open N] [--gap-extend N]
      Start the persistent query daemon: the database stays resident and
      the master/slave scheduler stays warm between queries. Speaks
      newline-delimited JSON (verbs: search, status, cancel, stats,
      shutdown) with bounded admission, per-client in-flight limits, an
      LRU result cache, and live metrics. Runs until a client sends
      shutdown, then drains in-flight queries and exits.
      Queries that queue behind a running group are fused: up to 8
      queries of at most 128 aa share each database pass, and a longer
      query scans alone (the rule search cuts its tasks by); results
      stay byte-identical to per-query scans. --retain bounds how many
      finished jobs keep answering status before eviction.
      --listen-slaves additionally accepts remote slave processes
      (`swhybrid slave`) on a second port: they join the same
      scheduling pool as the local workers, take database shards, and may
      connect or disconnect at any time while the daemon keeps serving.
      --fleet sse:2+gpu:1 replaces --workers with a hybrid worker fleet:
      one PE thread per member, modeled accelerators registering their
      calibrated speed (results stay byte-identical to SIMD workers).
      --db-store boots the daemon from a `.swdb` store instead of FASTA:
      the arena is memory-mapped and the stored digest seeds the slave
      handshake without an O(db) startup re-hash (--verify-store opts
      back into the full checksum + digest check). A running daemon
      hot-swaps databases via the `reload` verb (see swhybrid reload).

  swhybrid query [query.fasta] --connect HOST:PORT [--top N]
                 [--deadline-ms N] [--stats] [--shutdown]
      Send each query in the FASTA to a running daemon and print the
      ranked hits (marking cache-served results). --stats prints the
      daemon's metrics snapshot; --shutdown asks it to drain and exit.

  swhybrid reload --connect HOST:PORT (--store FILE.swdb [--verify]
                  | --fasta FILE.fasta)
      Atomically hot-swap a running daemon onto a new database without
      restarting it: in-flight queries finish on the old snapshot, new
      queries see only the new one, the result cache is invalidated, and
      remote slaves are disconnected for re-admission under the new
      digest. --verify makes the daemon fully checksum the store first.

  swhybrid slave <db.fasta> --connect HOST:PORT [--name NAME] [--gcups X]
                 [--matrix ...] [--gap-open N] [--gap-extend N]
                 [--heartbeat SECS] [--reconnect-retries N]
      Join a master (`swhybrid master --listen`) or a daemon's slave port
      (`swhybrid serve --listen-slaves`) as a PE. Only the database is
      loaded: every task arrives with its query and shard. At registration
      the slave proves, by one digest, that it loaded exactly the
      master's database and scores with the master's --matrix and --gap-*;
      otherwise it is refused with a `database or scoring mismatch` error.
      A leading <query.fasta> (the older `slave <query.fasta> <db.fasta>`
      form) is accepted and ignored, not opened. The slave heartbeats
      every --heartbeat seconds and reconnects with exponential backoff up
      to --reconnect-retries times if the connection drops.

  swhybrid help
      Show this message.
";

/// The kernel counters as `search` and `master` print them:
/// `N striped / M inter-sequence chunks, subjects i8/i16/scalar striped
/// a+b+c interseq d+e+f`.
fn kernel_counts(k: &crate::simd::engine::KernelStats) -> String {
    format!(
        "{} striped / {} inter-sequence chunks, \
         subjects i8/i16/scalar striped {}+{}+{} interseq {}+{}+{}",
        k.chunks_striped,
        k.chunks_interseq,
        k.resolved_i8,
        k.resolved_i16,
        k.resolved_scalar,
        k.interseq_i8,
        k.interseq_i16,
        k.interseq_scalar,
    )
}

/// Dispatch one invocation: `args` is `argv` without the program name.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(())
        }
        Some("db") => db::cmd_db(&args[1..]),
        Some("generate") => db::cmd_generate(&args[1..]),
        Some("search") => search::cmd_search(&args[1..]),
        Some("reload") => serve::cmd_reload(&args[1..]),
        Some("simulate") => master_slave::cmd_simulate(&args[1..]),
        Some("master") => master_slave::cmd_master(&args[1..]),
        Some("slave") => master_slave::cmd_slave(&args[1..]),
        Some("serve") => serve::cmd_serve(&args[1..]),
        Some("query") => serve::cmd_query(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests;
