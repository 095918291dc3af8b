//! The distributed pair — `master` (task distribution over TCP) and
//! `slave` (a PE for a master or a daemon) — plus the virtual-time
//! `simulate` verb that reproduces the paper's platform experiments
//! without hardware.

use crate::exec::platform::PlatformBuilder;
use crate::seq::synth::{paper_database, QueryOrder, QuerySetSpec};

use super::args::{fleet_from_opts, policy_from_opts, scoring_from_opts, Opts};
use super::db::{db_file, load_db, load_encoded};
use super::kernel_counts;

pub(super) fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["fleet", "db", "policy", "order", "queries"],
        &["no-adjustment"],
    )?;
    if !opts.positional.is_empty() {
        return Err(format!(
            "simulate takes flags only (got {:?})",
            opts.positional[0]
        ));
    }
    // The same `sse:8+gpu:2` spec string the real runtimes accept; the
    // default is the paper's biggest hybrid, 4 GPUs + 4 SSE cores.
    let fleet = fleet_from_opts(&opts)?.unwrap_or_else(|| {
        crate::device::FleetSpec::parse("gpu:4+sse:4").expect("default fleet spec parses")
    });
    let db = paper_database(opts.get("db").unwrap_or("swissprot"))
        .ok_or_else(|| format!("unknown database {:?}", opts.get("db").unwrap_or("")))?
        .full_scale_stats();
    let policy = policy_from_opts(&opts)?;
    let order = match opts.get("order").unwrap_or("asc") {
        "asc" => QueryOrder::Ascending,
        "desc" => QueryOrder::Descending,
        "shuffle" => QueryOrder::Shuffled,
        other => return Err(format!("unknown order {other:?}")),
    };
    let mut spec = QuerySetSpec::paper();
    spec.count = opts.get_parsed("queries", 40usize)?;
    if spec.count == 0 {
        return Err("--queries must be at least 1".into());
    }
    spec.order = order;

    let workload = PlatformBuilder::workload(&db, &spec, 2013);
    let builder = PlatformBuilder::new()
        .fleet(&fleet)
        .policy(policy)
        .adjustment(!opts.has("no-adjustment"));
    let label = builder.describe();
    let out = builder.run(workload);

    println!("platform:  {label}");
    println!("database:  {} ({} residues)", db.name, db.total_residues);
    println!(
        "workload:  {} queries, {:?} order, policy {:?}, adjustment {}",
        spec.count,
        order,
        policy,
        !opts.has("no-adjustment")
    );
    println!(
        "result:    {:.1} s  |  {:.2} GCUPS  |  duplicated work {:.1}%",
        out.seconds(),
        out.gcups(),
        100.0 * out.report.duplicated_cells / out.report.total_cells.max(1) as f64
    );
    println!("\nper-PE:");
    for pe in &out.report.per_pe {
        println!(
            "  {:<6} {:>9.1} s busy  {:>3} completed  {:>3} cancelled",
            pe.name, pe.busy_seconds, pe.tasks_completed, pe.tasks_cancelled
        );
    }
    Ok(())
}

pub(super) fn cmd_master(args: &[String]) -> Result<(), String> {
    use crate::exec::net::{Batch, MasterServer, NetConfig};
    use crate::exec::pool::{query_tasks, BATCH_TOP_N};
    use crate::exec::sched::MasterConfig;

    let opts = Opts::parse(
        args,
        &[
            "listen",
            "slaves",
            "fleet",
            "policy",
            "top",
            "register-timeout",
            "slave-deadline",
            "events",
            "db-store",
            "matrix",
            "gap-open",
            "gap-extend",
        ],
        &["no-adjustment", "verify-store"],
    )?;
    let fleet = fleet_from_opts(&opts)?;
    // The master holds the database either way (it sizes the tasks and may
    // host a local fleet): from FASTA, or mapped out of a `.swdb` store so
    // batch runs and the daemon share one on-disk format.
    let scoring = scoring_from_opts(&opts)?;
    let (paths, file) = db_file(&opts, "master", "<query.fasta> ", 1)?;
    let qpath = &paths[0];
    let db = load_db(file, &scoring)?;
    let listen = opts.get("listen").unwrap_or("0.0.0.0:7878");
    let slaves: usize = opts.get_parsed("slaves", 1)?;
    if slaves == 0 && fleet.is_none() {
        return Err("--slaves must be at least 1 (or pass --fleet for a local hybrid run)".into());
    }
    let queries = load_encoded(qpath)?;
    if queries.is_empty() {
        return Err(format!("{qpath}: no query sequences"));
    }
    // How many merged rows to print; every PE keeps `BATCH_TOP_N` hits
    // per query whatever this says.
    let top: usize = opts.get_parsed("top", 10)?;

    let mut net = NetConfig::default();
    if let Some(secs) = opts.get("register-timeout") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| format!("--register-timeout: cannot parse {secs:?}"))?;
        net.register_timeout = if secs > 0.0 {
            Some(std::time::Duration::from_secs_f64(secs))
        } else {
            None
        };
    }
    if let Some(secs) = opts.get("slave-deadline") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| format!("--slave-deadline: cannot parse {secs:?}"))?;
        if secs <= 0.0 {
            return Err("--slave-deadline must be positive".into());
        }
        net.slave_deadline = std::time::Duration::from_secs_f64(secs);
    }
    let mut server = MasterServer::bind_with(
        listen,
        MasterConfig {
            policy: policy_from_opts(&opts)?,
            adjustment: !opts.has("no-adjustment"),
            dispatch: Default::default(),
        },
        slaves,
        net,
    )
    .map_err(|e| format!("bind {listen}: {e}"))?;
    // Stream events as JSONL while the run progresses (a crashed or killed
    // master still leaves every event up to that point on disk), instead
    // of buffering the whole log until exit.
    let mut events_streamed = None;
    if let Some(path) = opts.get("events") {
        use std::io::Write;
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = std::io::LineWriter::new(file);
        let written = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counter = std::sync::Arc::clone(&written);
        server = server.with_event_sink(move |event| {
            // A full disk must not take the run down with it.
            let _ = writeln!(out, "{}", event.to_json());
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        events_streamed = Some((written, path.to_string()));
    }
    println!(
        "master listening on {} for {} slave(s), {} tasks",
        server.local_addr().map_err(|e| e.to_string())?,
        slaves,
        queries.len()
    );
    if let Some(spec) = &fleet {
        // The hybrid path: the master hosts its own fleet — real SIMD PEs
        // plus modeled accelerators — on the same pool the TCP slaves feed
        // from.
        println!("local fleet: {}", spec.describe());
    }
    let batch = Batch {
        tasks: query_tasks(&queries, &db),
        db: &db,
        scoring: &scoring,
        fleet: fleet.map(|spec| spec.build()).unwrap_or_default(),
    };
    let outcome = server.serve(batch).map_err(|e| e.to_string())?;
    if let Some((written, path)) = events_streamed {
        println!(
            "streamed {} events to {path}",
            written.load(std::sync::atomic::Ordering::Relaxed)
        );
    }
    println!(
        "\ncompleted {} tasks in {:.2} s  →  {:.2} GCUPS",
        outcome.completed_by.len(),
        outcome.elapsed_seconds,
        outcome.gcups
    );
    // Kernel accounting mirrors `swhybrid search`: the same counters, here
    // aggregated over the wire from every slave's reports.
    let k = &outcome.kernels;
    if k.total() > 0 {
        println!("kernel (all slaves): {}", kernel_counts(k));
        for (name, k) in &outcome.kernels_by_pe {
            println!("  {name}: {} cells, {}", k.cells_computed, kernel_counts(k));
        }
    }
    println!("\nmerged hits (top {top} of each query's best {BATCH_TOP_N}):");
    for (rank, qh) in outcome.hits.iter().take(top).enumerate() {
        println!(
            "{:>4}  score {:>5}  q{}  {}",
            rank + 1,
            qh.hit.score,
            qh.query_index,
            qh.hit.id
        );
    }
    Ok(())
}

pub(super) fn cmd_slave(args: &[String]) -> Result<(), String> {
    use crate::exec::net::{run_slave, NetConfig};
    use crate::store::DbFile;

    let opts = Opts::parse(
        args,
        &[
            "connect",
            "name",
            "gcups",
            "heartbeat",
            "reconnect-retries",
            "matrix",
            "gap-open",
            "gap-extend",
        ],
        &[],
    )?;
    let connect = opts
        .get("connect")
        .ok_or_else(|| "--connect HOST:PORT is required".to_string())?;
    let name = opts.get("name").unwrap_or("slave").to_string();
    let gcups: f64 = opts.get_parsed("gcups", 1.0)?;
    let scoring = scoring_from_opts(&opts)?;
    let mut net = NetConfig::default();
    if let Some(secs) = opts.get("heartbeat") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| format!("--heartbeat: cannot parse {secs:?}"))?;
        if secs <= 0.0 {
            return Err("--heartbeat must be positive".into());
        }
        net.heartbeat_interval = std::time::Duration::from_secs_f64(secs);
    }
    net.reconnect_max_retries = opts.get_parsed("reconnect-retries", net.reconnect_max_retries)?;

    // Every task arrives with its queries, so only the database is loaded.
    // A leading query file (the form slaves once took) is accepted and
    // never opened.
    let ([_, dbpath] | [dbpath]) = opts.positional.as_slice() else {
        return Err("slave takes <db.fasta> (a leading <query.fasta> is ignored)".into());
    };
    let db = load_db(DbFile::Fasta(dbpath), &scoring)?;
    println!("{name}: connecting to {connect}");
    let executed =
        run_slave(connect, &name, gcups, &db, &scoring, &net).map_err(|e| e.to_string())?;
    println!("{name}: done, executed {executed} task(s)");
    Ok(())
}
