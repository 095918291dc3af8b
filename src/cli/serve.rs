//! The persistent-daemon verbs: `serve` (boot the query daemon from FASTA
//! or a `.swdb` store), `query` (client: search / stats / shutdown), and
//! `reload` (client: atomic hot-swap onto a new database).

use super::args::{fleet_from_opts, policy_from_opts, scoring_from_opts, Opts};
use super::db::{db_file, load_db};
use crate::json::Json;
use crate::seq::fasta::FastaReader;

pub(super) fn cmd_serve(args: &[String]) -> Result<(), String> {
    use crate::serve::{ServeDaemon, ServiceConfig};

    let opts = Opts::parse(
        args,
        &[
            "listen",
            "listen-slaves",
            "workers",
            "shards",
            "max-active",
            "queue-depth",
            "client-inflight",
            "cache",
            "policy",
            "matrix",
            "gap-open",
            "gap-extend",
            "retain",
            "db-store",
            "fleet",
        ],
        &["no-adjustment", "verify-store"],
    )?;
    let scoring = scoring_from_opts(&opts)?;
    // The daemon boots either from FASTA (parse + encode + digest on every
    // start) or from a `.swdb` store (memory-mapped arena, stored digest —
    // no O(db) re-hash unless --verify-store asks for it).
    let (_, file) = db_file(&opts, "serve", "", 0)?;
    let dbpath = file.path();
    let snapshot = load_db(file, &scoring)?;
    let listen = opts.get("listen").unwrap_or("127.0.0.1:7979");
    let policy = policy_from_opts(&opts)?;
    if policy.is_static() {
        return Err(format!(
            "serve needs a dynamic policy (ss|pss), got {:?}",
            opts.get("policy").unwrap_or_default()
        ));
    }
    let fleet = fleet_from_opts(&opts)?;
    if fleet.is_some() && opts.get("workers").is_some() {
        return Err("--fleet replaces --workers (one PE thread per fleet member)".into());
    }
    let default = ServiceConfig::default();
    let config = ServiceConfig {
        workers: opts.get_parsed("workers", default.workers)?,
        fleet,
        shards: opts.get_parsed("shards", default.shards)?,
        max_active: opts.get_parsed("max-active", default.max_active)?,
        queue_depth: opts.get_parsed("queue-depth", default.queue_depth)?,
        per_client_inflight: opts.get_parsed("client-inflight", default.per_client_inflight)?,
        cache_capacity: opts.get_parsed("cache", default.cache_capacity)?,
        policy,
        adjustment: !opts.has("no-adjustment"),
        retained_jobs: opts.get_parsed("retain", default.retained_jobs)?,
        ..default
    };
    if config.queue_depth == 0 || config.per_client_inflight == 0 {
        return Err("--queue-depth and --client-inflight must be at least 1".into());
    }
    let residues = snapshot.total_residues();
    let digest = snapshot.digest();
    let mapped = snapshot.arena().is_shared();
    let workers = match &config.fleet {
        Some(f) => format!("fleet {}", f.describe()),
        None => format!("{} worker(s)", config.workers.max(1)),
    };
    let daemon = ServeDaemon::bind_snapshot(listen, snapshot, scoring, config)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    println!(
        "serving {dbpath} ({residues} residues{}) on {} with {workers}, \
         digest {digest:016x}",
        if mapped { ", memory-mapped" } else { "" },
        daemon.local_addr().map_err(|e| e.to_string())?
    );
    if let Some(slave_addr) = opts.get("listen-slaves") {
        let bound = daemon
            .listen_slaves(slave_addr, crate::exec::net::NetConfig::default())
            .map_err(|e| format!("bind slave port {slave_addr}: {e}"))?;
        println!("accepting remote slaves on {bound} (swhybrid slave {dbpath} --connect {bound})");
    }
    daemon.run().map_err(|e| e.to_string())
}

pub(super) fn cmd_query(args: &[String]) -> Result<(), String> {
    use crate::serve::protocol::SearchRequest;
    use crate::serve::ServeClient;

    let opts = Opts::parse(
        args,
        &["connect", "top", "deadline-ms"],
        &["stats", "shutdown"],
    )?;
    let connect = opts
        .get("connect")
        .ok_or_else(|| "--connect HOST:PORT is required".to_string())?;
    let top_n: usize = opts.get_parsed("top", 10)?;
    let deadline_ms = match opts.get("deadline-ms") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--deadline-ms: cannot parse {v:?}"))?,
        ),
    };
    let mut client =
        ServeClient::connect(connect).map_err(|e| format!("connect {connect}: {e}"))?;

    match opts.positional.as_slice() {
        [] => {}
        [qpath] => {
            let records = FastaReader::open(qpath)
                .map_err(|e| format!("{qpath}: {e}"))?
                .read_all()
                .map_err(|e| format!("{qpath}: {e}"))?;
            if records.is_empty() {
                return Err(format!("{qpath}: no query sequences"));
            }
            for record in &records {
                let reply = client
                    .search_request(SearchRequest {
                        query: String::from_utf8_lossy(&record.residues).into_owned(),
                        top_n,
                        deadline_ms,
                        tag: Some(record.id.clone()),
                        ack: false,
                    })
                    .map_err(|e| e.to_string())?;
                print_daemon_result(&record.id, &reply)?;
            }
        }
        _ => return Err("query takes at most one <query.fasta>".into()),
    }

    if opts.has("stats") {
        let stats = client.stats().map_err(|e| e.to_string())?;
        println!("{}", stats.to_string_pretty());
    }
    if opts.has("shutdown") {
        let reply = client.shutdown().map_err(|e| e.to_string())?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown refused: {reply}"));
        }
        println!("daemon draining for shutdown");
    }
    Ok(())
}

pub(super) fn cmd_reload(args: &[String]) -> Result<(), String> {
    use crate::serve::ServeClient;

    let opts = Opts::parse(args, &["connect", "store", "fasta"], &["verify"])?;
    if !opts.positional.is_empty() {
        return Err("reload takes flags only".into());
    }
    let connect = opts
        .get("connect")
        .ok_or_else(|| "--connect HOST:PORT is required".to_string())?;
    let mut client =
        ServeClient::connect(connect).map_err(|e| format!("connect {connect}: {e}"))?;
    let reply = match (opts.get("store"), opts.get("fasta")) {
        (Some(store), None) => client.reload_store(store, opts.has("verify")),
        (None, Some(fasta)) => {
            if opts.has("verify") {
                return Err("--verify applies to --store reloads only".into());
            }
            client.reload_fasta(fasta)
        }
        _ => return Err("reload needs exactly one of --store or --fasta".into()),
    }
    .map_err(|e| e.to_string())?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = reply.get("error").and_then(Json::as_str).unwrap_or("error");
        let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
        return Err(format!("reload refused: {code}: {reason}"));
    }
    println!(
        "daemon now serving {} (generation {}): {} sequences, {} residues, digest {}",
        reply.get("name").and_then(Json::as_str).unwrap_or("?"),
        reply.get("generation").and_then(Json::as_u64).unwrap_or(0),
        reply.get("sequences").and_then(Json::as_u64).unwrap_or(0),
        reply.get("residues").and_then(Json::as_u64).unwrap_or(0),
        reply.get("digest").and_then(Json::as_str).unwrap_or("?"),
    );
    println!("remote slaves (if any) were disconnected for re-admission under the new digest");
    Ok(())
}

fn print_daemon_result(qid: &str, reply: &Json) -> Result<(), String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = reply.get("error").and_then(Json::as_str).unwrap_or("error");
        let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
        return Err(format!("query {qid}: {code}: {reason}"));
    }
    let job = reply.get("job").and_then(Json::as_u64).unwrap_or(0);
    let cached = reply.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let elapsed = reply
        .get("elapsed_ms")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let cells = reply.get("cells").and_then(Json::as_u64).unwrap_or(0);
    println!(
        "\n# query {qid}: job {job} {} in {elapsed:.1} ms ({cells} cells)",
        if cached { "cached" } else { "scanned" }
    );
    println!("{:>4}  {:>6}  {:>6}  subject", "rank", "score", "len");
    let hits = crate::serve::ServeClient::hits(reply).map_err(|e| format!("bad result: {e}"))?;
    for (rank, hit) in hits.iter().enumerate() {
        println!(
            "{:>4}  {:>6}  {:>6}  {}",
            rank + 1,
            hit.score,
            hit.subject_len,
            hit.id
        );
    }
    Ok(())
}
