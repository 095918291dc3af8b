//! The master process: runs one batch to completion on the shared
//! pool-drive loop — on a local fleet, on slaves that connect over TCP, or
//! on both at once.

use std::io;
use std::net::ToSocketAddrs;
use std::time::Instant;

use super::accept::Acceptor;
use super::session::serve_slaves;
use super::{merge_hits, DistributedOutcome, NetConfig};
use crate::pool::{drive, BatchOwner, LocalEndpoint, PeExecutor, PePool};
use crate::sched::{MasterConfig, Scheduler};
use crate::stats::observed_gcups;
use crate::trace::RuntimeEvent;
use swhybrid_align::scoring::Scoring;
use swhybrid_device::fleet::FleetPe;
use swhybrid_device::task::TaskSpec;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::DbSnapshot;
use swhybrid_simd::engine::KernelStats;

/// A live event consumer, as accepted by [`MasterServer::with_event_sink`].
type EventCallback = Box<dyn FnMut(&RuntimeEvent) + Send>;

/// One batch run: the paper's task set — one task per query, each against
/// the whole database under one scoring scheme ([`BatchOwner`]) — and the
/// PEs the master hosts itself. With a fleet this is the paper's Fig. 1 in
/// one process: the master is not only a dispatcher but may *itself* host
/// real SIMD cores and modeled accelerators, sharing the pool (and thus
/// the scheduler) with whatever slaves connect over TCP.
pub struct Batch<'a> {
    /// The encoded query set (task id = query index, as everywhere).
    pub queries: &'a [EncodedSequence],
    /// The loaded database.
    pub db: &'a DbSnapshot,
    /// Alignment scoring.
    pub scoring: &'a Scoring,
    /// The master's own PEs (e.g. from `FleetSpec::build()`); empty when
    /// only slaves compute.
    pub fleet: Vec<FleetPe>,
}

impl Batch<'_> {
    /// Run the batch on its fleet alone: no listener, no remote slaves —
    /// the same pool, scheduler and drive loop as a distributed run, with
    /// only local-thread endpoints on it.
    pub fn run(self, config: MasterConfig) -> DistributedOutcome {
        // Every way a batch fails is a transport failure: no slave
        // registered, every slave lost, the listener broke.
        run_batch(self, config, None, None)
            .expect("a batch without a listener has no transport to fail")
    }
}

/// The paper's very coarse grain: one task per query, each against the
/// whole database.
pub fn query_specs(queries: &[EncodedSequence], db: &DbSnapshot) -> Vec<TaskSpec> {
    let db_residues = db.total_residues();
    queries
        .iter()
        .enumerate()
        .map(|(id, q)| TaskSpec {
            id,
            query_len: q.len(),
            queries: 1,
            db_residues,
            db_sequences: db.len(),
        })
        .collect()
}

/// The listening half of a master: where slaves connect, how many the
/// registration barrier waits for, and the liveness timings.
pub struct MasterServer {
    listener: Acceptor,
    config: MasterConfig,
    expected_slaves: usize,
    net: NetConfig,
    sink: Option<EventCallback>,
}

impl MasterServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// default [`NetConfig`] timings.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: MasterConfig,
        expected_slaves: usize,
    ) -> io::Result<MasterServer> {
        Self::bind_with(addr, config, expected_slaves, NetConfig::default())
    }

    /// Bind with explicit [`NetConfig`] timings. Fails with
    /// [`io::ErrorKind::InvalidInput`] when the timings are inconsistent
    /// (see [`NetConfig::validate`]).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        config: MasterConfig,
        expected_slaves: usize,
        net: NetConfig,
    ) -> io::Result<MasterServer> {
        // Zero slaves is legal — the run can be carried entirely by a
        // local fleet (see [`Batch::fleet`]); the PE-count
        // requirement is checked at serve time, when the fleet is known.
        net.validate()?;
        Ok(MasterServer {
            listener: Acceptor::bind(addr)?,
            config,
            expected_slaves,
            net,
            sink: None,
        })
    }

    /// Stream every [`RuntimeEvent`] to `sink` as it is emitted (e.g. a
    /// JSONL file flushed per line, so a crashed run still leaves a usable
    /// trace) instead of collecting them into
    /// [`DistributedOutcome::events`]. Called with the master's lock held
    /// — keep it short.
    pub fn with_event_sink(
        mut self,
        sink: impl FnMut(&RuntimeEvent) + Send + 'static,
    ) -> MasterServer {
        self.sink = Some(Box::new(sink));
        self
    }

    /// The bound address (give this to the slaves).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Run `batch` until every task is finished and every slave has
    /// disconnected: the batch's fleet on threads of this process (real
    /// SIMD speed measured, a modeled accelerator's attributed from its
    /// device model), slaves over TCP as they come and go.
    ///
    /// Registration is a barrier: work is only handed out once the fleet
    /// and `expected_slaves` have *registered* (required for static
    /// policies and matching the paper's "waits for the slaves to
    /// register") — or [`NetConfig::register_timeout`] expires, whichever
    /// is first. The listener keeps accepting throughout the run, so a
    /// connection that fails its handshake never consumes a slave's place
    /// and late or reconnecting slaves can always get in.
    pub fn serve(self, batch: Batch<'_>) -> io::Result<DistributedOutcome> {
        let slaves = (self.listener, self.expected_slaves, self.net);
        run_batch(batch, self.config, self.sink, Some(slaves))
    }
}

/// Run one batch to completion on one pool: its fleet's PEs as local
/// threads, plus whatever slaves connect to the `slaves` listener (with
/// the number the registration barrier waits for and the liveness
/// timings). Either half may be absent (not both); every PE — local or
/// remote — is an endpoint on the same [`drive`] loop under the same
/// [`Scheduler`], and runs the same payload.
///
/// One deliberate difference from the simulator: real replicas are not
/// preempted — a replica that loses the race runs to completion and its
/// result is discarded (cooperative cancellation would complicate the
/// kernels for no behavioural gain at this scale).
fn run_batch(
    batch: Batch<'_>,
    config: MasterConfig,
    sink: Option<EventCallback>,
    slaves: Option<(Acceptor, usize, NetConfig)>,
) -> io::Result<DistributedOutcome> {
    let fleet_size = batch.fleet.len();
    let (listener, expected_slaves, net) = match slaves {
        Some((listener, expected, net)) => (Some(listener), expected, net),
        None => (None, 0, NetConfig::default()),
    };
    assert!(
        expected_slaves + fleet_size >= 1,
        "need at least one PE (slave or fleet member)"
    );
    let specs = query_specs(batch.queries, batch.db);
    let total_cells: u64 = specs.iter().map(|s| s.cells()).sum();
    let mut master = Scheduler::new(specs, config);
    if let Some(sink) = sink {
        master.set_event_sink(sink);
    }
    let pool = PePool::new(
        master,
        BatchOwner::new(batch.queries, batch.db, batch.scoring),
        expected_slaves + fleet_size,
    );
    let start = Instant::now();
    let mut lost_since: Option<Instant> = None;

    std::thread::scope(|scope| {
        // Admit the whole local fleet before any of its threads runs, so
        // the event stream opens with the complete registration block
        // (the paper's barrier) and PE ids follow the fleet's order.
        let ids: Vec<_> = batch.fleet.iter().map(|pe| pool.admit_fleet(pe)).collect();
        for pe_id in ids {
            let pool = &pool;
            let mut executor = PeExecutor::new(batch.scoring);
            scope.spawn(move || {
                // A fleet thread runs the very payload a slave is shipped.
                let mut endpoint = LocalEndpoint::new(|task| {
                    let scan = |payload| {
                        executor
                            .scan(batch.db, &payload)
                            .expect("a batch shard fits")
                    };
                    pool.payload(task).map(scan).unwrap_or_default()
                });
                drive(pool, pe_id, &mut endpoint);
            });
        }
        if let Some(listener) = &listener {
            let (pool, net) = (&pool, &net);
            scope.spawn(move || {
                if let Err(e) = serve_slaves(listener, pool, net) {
                    pool.lock().set_abort(e.kind(), e.to_string());
                    pool.notify_all();
                }
            });
        }
        // Every change this loop reacts to notifies the hub, so it sleeps
        // until one happens or its own next deadline — the registration
        // timeout before the barrier opens, the all-lost grace after.
        let mut g = pool.lock();
        loop {
            if g.abort().is_some() {
                break;
            }
            if g.barrier_open() && g.master.all_finished() && g.alive() == 0 {
                break;
            }
            let deadline = if !g.barrier_open() {
                net.register_timeout.map(|t| (start, t))
            } else if g.alive() == 0 {
                let since = *lost_since.get_or_insert_with(Instant::now);
                Some((since, net.all_lost_grace))
            } else {
                lost_since = None;
                None
            };
            let Some((since, limit)) = deadline else {
                g = pool.wait(g);
                continue;
            };
            let left = limit.saturating_sub(since.elapsed());
            if !left.is_zero() {
                g = pool.wait_timeout(g, left);
                continue;
            }
            if g.barrier_open() {
                g.set_abort(
                    io::ErrorKind::ConnectionAborted,
                    "every slave disconnected mid-run",
                );
            } else if g.registered() == 0 {
                g.set_abort(
                    io::ErrorKind::TimedOut,
                    format!("no slave registered within {limit:?}"),
                );
            } else {
                // Proceed degraded with the slaves we have rather than
                // hang on a no-show.
                g.open_barrier();
            }
            pool.notify_all();
        }
        drop(g);
        if let Some(listener) = &listener {
            listener.stop();
        }
        // Wake every parked endpoint so the scope can join them.
        pool.notify_all();
    });

    let elapsed_seconds = start.elapsed().as_secs_f64();
    let mut core = pool.into_inner();
    if let Some((kind, message)) = core.take_abort() {
        return Err(io::Error::new(kind, message));
    }
    let kernels_by_pe: Vec<(String, KernelStats)> = core
        .owner
        .kernels_by_pe
        .iter()
        .enumerate()
        .filter(|(_, k)| **k != KernelStats::default())
        .map(|(pe, k)| (core.master.pe_name(pe).to_string(), *k))
        .collect();
    let events = core.master.take_events();
    let hits = merge_hits(
        core.owner
            .results
            .into_iter()
            .enumerate()
            .filter_map(|(task, hits)| hits.map(|hits| (task, hits))),
    );
    Ok(DistributedOutcome {
        elapsed_seconds,
        total_cells,
        gcups: observed_gcups(total_cells, elapsed_seconds),
        hits,
        completed_by: core.owner.completed_by,
        kernels: core.owner.kernels,
        kernels_by_pe,
        events,
    })
}
