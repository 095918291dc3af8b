//! The execution path: the pool-owner callbacks (result demux) and the one
//! payload builder. A local worker scans what the builder hands it with
//! `PeExecutor::scan`, the ONE compute step every PE runs — the same call
//! a slave and a local-fleet thread make on the same payload, so served
//! hit tables and kernel counters are byte-identical to theirs by
//! construction.

use std::sync::Arc;

use swhybrid_core::pool::{
    Deferred, Identity, PoolOwner, QueryPayload, QueryResult, TaskPayload, TaskResult,
};
use swhybrid_core::sched::Scheduler;
use swhybrid_core::task::{PeId, TaskId};
use swhybrid_seq::DbSnapshot;
use swhybrid_simd::search::merge_top_n;

use super::admit::retire;
use super::fusion::pump;
use super::{Completion, Finished, Phase, SearchReply, ServeOwner};

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
        // list was checked against its payload on arrival).
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
        // slot admits the next group of queued queries.
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
                completion(reply);
            }
        }))
    }

    fn task_payload(&self, _master: &Scheduler, task: TaskId) -> Option<TaskPayload> {
        // A remote slave holds the *current* database; never ship it a
        // shard of an older snapshot (possible only transiently, since a
        // swap disconnects remotes — but a task can already be in flight).
        let (payload, db) = self.payload(task)?;
        Arc::ptr_eq(&db, &self.db).then_some(payload)
    }

    fn identity(&self) -> &Identity {
        &self.identity
    }
}

impl ServeOwner {
    /// What any PE scans for `task`, and on which snapshot: every batch
    /// member's query (cancelled ones included, so results pair with
    /// `FusedTask::jobs` positionally) over the group's shard of the
    /// snapshot its jobs were admitted under. `None` once the task is no
    /// longer tracked (its group has replied).
    pub(super) fn payload(&self, task: TaskId) -> Option<(TaskPayload, Arc<DbSnapshot>)> {
        let ft = self.task_map.get(&task)?;
        let head = self.jobs.get(ft.jobs.first()?)?;
        let queries = ft
            .jobs
            .iter()
            .map(|id| {
                let job = self.jobs.get(id)?;
                Some(QueryPayload {
                    query: job.codes.clone(),
                    top_n: job.top_n,
                })
            })
            .collect::<Option<_>>()?;
        let shard = *head.shards.get(ft.shard_idx)?;
        Some((TaskPayload { queries, shard }, Arc::clone(&head.db)))
    }
}

/// Fold a winning shard result into its job; on the last shard, finalize:
/// merge, cache, meter, release the admission slot. Returns the completion
/// to invoke off the lock — none for a cancelled job, which replied when
/// it was cancelled.
fn record_shard(
    o: &mut ServeOwner,
    now: f64,
    job_id: u64,
    shard_idx: usize,
    shard: QueryResult,
) -> Option<(Completion, SearchReply)> {
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
    // query, shard list and snapshot go with it.
    let job = o.jobs.remove(&job_id)?;
    let record = Finished {
        cancelled: job.cancelled,
        cached: false,
    };
    retire(o, job_id, record, now);
    o.active_jobs -= 1;
    o.queue.release(job.client);
    // The scheduling slot is the *group's*; [`ServeOwner::on_finished`]
    // frees it (and pumps the queue) when the whole group is done.
    let completion = job.completion?;
    let Phase::Running {
        shard_hits,
        cells,
        kernels,
        ..
    } = job.phase
    else {
        unreachable!("guarded above");
    };
    let hits = merge_top_n(
        shard_hits
            .into_iter()
            .map(|h| h.expect("all shards recorded")),
        job.top_n,
    );
    let elapsed_ms = (now - job.submitted_at) * 1000.0;
    o.cache.insert(job.key, &job.codes, hits.clone());
    o.metrics.completed += 1;
    o.metrics.latency.observe(elapsed_ms);
    let reply = SearchReply {
        job: job_id,
        tag: job.tag,
        cached: false,
        cancelled: false,
        generation: job.generation,
        cells,
        elapsed_ms,
        kernels,
        hits,
    };
    Some((completion, reply))
}
