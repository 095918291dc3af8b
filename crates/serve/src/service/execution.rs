//! The execution path: the pool-owner callbacks (result demux, payload
//! assembly) and the local PE worker's shard scan, which is the ONE
//! compute step every PE runs ([`scan_shard`]) — the same call a slave and
//! a local-fleet thread make, so served hit tables and kernel counters are
//! byte-identical to theirs by construction.

use std::sync::Arc;

use swhybrid_core::pool::{
    scan_shard, Deferred, Identity, PoolOwner, QueryPayload, QueryResult, TaskPayload, TaskResult,
};
use swhybrid_core::sched::Scheduler;
use swhybrid_core::task::{PeId, TaskId};
use swhybrid_simd::engine::PreparedQuery;
use swhybrid_simd::search::merge_top_n;
use swhybrid_simd::{ShardExecutor, ShardPlan};

use super::admit::retire;
use super::fusion::pump;
use super::{Completion, Finished, Inner, Phase, SearchReply, ServeOwner};

impl PoolOwner for ServeOwner {
    fn on_finished(
        &mut self,
        master: &mut Scheduler,
        _pe: PeId,
        task: TaskId,
        result: TaskResult,
        was_first: bool,
        now: f64,
    ) -> Option<Deferred> {
        // Every shard scan counts, winner or not: the counters report
        // kernel work the platform actually performed (remote slaves
        // report theirs over the wire).
        self.metrics.kernels.merge(&result.kernels());
        if !was_first {
            return None;
        }
        let ft = self.task_map.get(&task)?.clone();
        // Demux the result: entry k belongs to batch member k (a remote's
        // list was checked against its payload on arrival). A skipped
        // scan's entries are empty: the member's shard is done with
        // nothing to contribute.
        let mut done = Vec::new();
        for (&job_id, q) in ft.jobs.iter().zip(result.queries) {
            if let Some(d) = record_shard(self, now, job_id, ft.shard_idx, q) {
                done.push(d);
            }
        }
        // The group finishes atomically (every member shares the same
        // shard set, so the last task completes them all): drop its task
        // entries so the map stays bounded over the daemon's lifetime,
        // free its scheduling slot, and refill from the queue — a freed
        // slot admits up to `fusion` queued queries as the next group.
        if ft.jobs.iter().all(|id| !self.jobs.contains_key(id)) {
            for t in &ft.group_tasks {
                self.task_map.remove(t);
            }
            self.active_groups -= 1;
            pump(master, self);
        }
        if done.is_empty() {
            return None;
        }
        Some(Box::new(move || {
            for (completion, reply) in done {
                if let Some(cb) = completion {
                    cb(reply);
                }
            }
        }))
    }

    fn task_payload(&self, _master: &Scheduler, task: TaskId) -> Option<TaskPayload> {
        let ft = self.task_map.get(&task)?;
        // A remote slave holds the *current* database; never ship it a
        // shard of an older snapshot (possible only transiently, since a
        // swap disconnects remotes — but a task can already be in flight).
        // A wholly cancelled batch is not worth shipping either; a batch
        // with any live member ships complete, cancelled members included,
        // so fused results pair with `FusedTask::jobs` positionally.
        if ft
            .jobs
            .iter()
            .all(|id| self.jobs.get(id).is_none_or(|j| j.cancelled))
        {
            return None;
        }
        let mut queries = Vec::with_capacity(ft.jobs.len());
        let mut shard = None;
        for id in &ft.jobs {
            let job = self.jobs.get(id)?;
            if job.generation != self.db_generation {
                return None;
            }
            shard = Some(*job.shards.get(ft.shard_idx)?);
            queries.push(QueryPayload {
                query: job.codes.clone(),
                top_n: job.top_n,
            });
        }
        Some(TaskPayload {
            queries,
            shard: shard?,
        })
    }

    fn identity(&self) -> &Identity {
        &self.identity
    }
}

/// Execute one fused shard task on a local worker: snapshot the batch
/// under the lock, then run [`scan_shard`] over the shard off it. The pool
/// (via [`swhybrid_core::pool::LocalEndpoint`] and
/// [`ServeOwner::on_finished`]) handles started/finished bookkeeping, and
/// attributes a modeled worker's speed.
pub(super) fn execute_task(
    inner: &Inner,
    task: TaskId,
    executor: &mut ShardExecutor,
) -> TaskResult {
    let (entries, range, db) = {
        let g = inner.pool.lock();
        let o = &g.owner;
        let Some(ft) = o.task_map.get(&task) else {
            // Unknown task (should not happen): report a skip, not a scan.
            return TaskResult::default();
        };
        // Batch members stay positional: a cancelled (or vanished) member
        // keeps its slot as `None` so results pair with `FusedTask::jobs`.
        let mut entries: Vec<Option<(Arc<PreparedQuery>, usize)>> =
            Vec::with_capacity(ft.jobs.len());
        let mut range = None;
        let mut snapshot = None;
        for id in &ft.jobs {
            let entry = o.jobs.get(id).filter(|j| !j.cancelled).map(|job| {
                range = Some(job.shards[ft.shard_idx]);
                snapshot = Some(Arc::clone(&job.db));
                (Arc::clone(&job.prepared), job.top_n)
            });
            entries.push(entry);
        }
        let Some(db) = snapshot else {
            // Every member cancelled mid-run: complete the task without
            // burning kernels and without a speed report (a 0.0 would
            // poison the PSS window).
            return TaskResult {
                queries: vec![QueryResult::default(); entries.len()],
                ..TaskResult::default()
            };
        };
        (entries, range.expect("live member sets the range"), db)
    };
    let (s, e) = range;
    let live: Vec<(Arc<PreparedQuery>, usize)> = entries.iter().flatten().cloned().collect();
    let plan = ShardPlan {
        range: s..e,
        chunk_size: inner.cfg.chunk_size,
        kernel: inner.cfg.kernel,
        prefetch: true,
    };
    let mut result = scan_shard(executor, &live, &db, &plan);
    // Back to batch positions: a cancelled member contributes nothing.
    let mut scanned = std::mem::take(&mut result.queries).into_iter();
    result.queries = entries
        .iter()
        .map(|entry| match entry {
            Some(_) => scanned.next().expect("one output per live batch member"),
            None => QueryResult::default(),
        })
        .collect();
    result
}

/// Fold a winning shard result into its job; on the last shard, finalize:
/// merge, cache, meter, release the admission slot, pump the queue.
/// Returns the completion to invoke off the lock.
fn record_shard(
    o: &mut ServeOwner,
    now: f64,
    job_id: u64,
    shard_idx: usize,
    shard: QueryResult,
) -> Option<(Option<Completion>, SearchReply)> {
    {
        let job = o.jobs.get_mut(&job_id)?;
        let Phase::Running {
            pending,
            shard_hits,
            cells: acc,
            kernels: kacc,
        } = &mut job.phase
        else {
            return None;
        };
        if shard_hits[shard_idx].is_some() {
            return None;
        }
        *acc += shard.kernels.cells_computed;
        kacc.merge(&shard.kernels);
        shard_hits[shard_idx] = Some(shard.hits);
        *pending -= 1;
        if *pending > 0 {
            return None;
        }
    }
    // Last shard in: finalize. The job leaves the registry whole — its
    // query, profiles, shard list and snapshot go with it.
    let job = o.jobs.remove(&job_id)?;
    let Phase::Running {
        shard_hits,
        cells,
        kernels,
        ..
    } = job.phase
    else {
        unreachable!("guarded above");
    };
    let merged = merge_top_n(
        shard_hits
            .into_iter()
            .map(|h| h.expect("all shards recorded")),
        job.top_n,
    );
    let elapsed_ms = (now - job.submitted_at) * 1000.0;
    let reply = SearchReply {
        job: job_id,
        tag: job.tag,
        cached: false,
        cancelled: job.cancelled,
        generation: job.generation,
        cells,
        elapsed_ms,
        kernels,
        hits: if job.cancelled {
            Vec::new()
        } else {
            merged.clone()
        },
    };
    if !job.cancelled {
        o.cache.insert(job.key, &job.codes, merged);
        o.metrics.completed += 1;
        o.metrics.latency.observe(elapsed_ms);
    }
    let record = Finished {
        cancelled: job.cancelled,
        cached: false,
    };
    retire(o, job_id, record, now);
    o.active_jobs -= 1;
    o.queue.release(job.client);
    // The scheduling slot is the *group's*; [`ServeOwner::on_finished`]
    // frees it (and pumps the queue) when the whole group is done.
    Some((job.completion, reply))
}
