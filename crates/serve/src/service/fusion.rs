//! Scheduling and cross-query fusion: draining the admission queue into
//! fused shard-task groups, and the fusion-window flusher that stops a
//! straggler from waiting forever for companions.

use std::sync::Arc;
use std::time::Duration;

use swhybrid_core::sched::Scheduler;
use swhybrid_device::task::TaskSpec;

use super::{FusedTask, Inner, Phase, ServeOwner};

/// The fusion-window flusher: a mostly-idle thread that schedules a held
/// undersized group once its window elapses. Under steady concurrent
/// load the batch fills before the deadline and this thread never pumps;
/// it exists so a straggler's query cannot wait forever for companions
/// that never come. With no window open it sleeps until notified (a submit
/// that opens one notifies); it ends once the service has stopped its
/// engine (`keep_alive` off — set under the lock, then notified).
pub(super) fn spawn_window_flusher(inner: Arc<Inner>) -> std::thread::JoinHandle<()> {
    let window = inner.cfg.fusion_window_ms / 1000.0;
    std::thread::Builder::new()
        .name("serve-fuser".to_string())
        .spawn(move || loop {
            let mut g = inner.pool.lock();
            if !g.master.keep_alive() {
                return;
            }
            let now = inner.pool.now();
            match g.owner.window_open_since {
                Some(t0) if now - t0 >= window => {
                    g.owner.window_open_since = None;
                    let core = &mut *g;
                    pump(&mut core.master, &mut core.owner, now, true);
                    drop(g);
                    inner.pool.notify_all();
                }
                Some(t0) => {
                    // Sleep out the remainder; a submit that fills the
                    // batch pumps on its own thread, so oversleeping here
                    // only ever delays a straggler, never a full group.
                    let left = (window - (now - t0)).max(0.0005);
                    let _g = inner.pool.wait_timeout(g, Duration::from_secs_f64(left));
                }
                None => {
                    let _g = inner.pool.wait(g);
                }
            }
        })
        .expect("spawn fusion-window flusher")
}

/// Admit queued jobs into the task pool up to the active-group bound,
/// fusing co-queued same-generation queries into shared shard tasks (up
/// to [`super::ServiceConfig::fusion`] queries per group).
pub(super) fn pump(master: &mut Scheduler, o: &mut ServeOwner, now: f64, flush: bool) {
    // A popped job whose snapshot generation differs from the group being
    // formed starts the next group instead (it cannot be pushed back into
    // the admission queue). In the rare swap-db race this can transiently
    // overshoot `max_active` by the carried group; it never loses a job.
    let mut carry: Option<u64> = None;
    while carry.is_some() || o.active_groups < o.cfg.max_active {
        // Fusion window: an undersized backlog (carried jobs excepted —
        // they are already popped) holds briefly for companions instead
        // of scheduling a lonely pass. The flusher thread re-pumps with
        // `flush` once the window elapses; draining flushes immediately.
        if carry.is_none()
            && !flush
            && !o.draining
            && o.cfg.fusion > 1
            && o.cfg.fusion_window_ms > 0.0
            && o.queue.depth() > 0
            && o.queue.depth() < o.cfg.fusion
        {
            if o.window_open_since.is_none() {
                o.window_open_since = Some(now);
            }
            return;
        }
        let mut group: Vec<u64> = carry.take().into_iter().collect();
        while group.len() < o.cfg.fusion {
            let Some(job_id) = o.queue.pop_next() else {
                break;
            };
            if o.jobs.get(&job_id).is_none_or(|j| j.cancelled) {
                continue;
            }
            if group
                .first()
                .is_some_and(|head| o.jobs[head].generation != o.jobs[&job_id].generation)
            {
                carry = Some(job_id);
                break;
            }
            group.push(job_id);
        }
        if group.is_empty() {
            o.window_open_since = None;
            break;
        }
        o.window_open_since = None;
        schedule_group(master, o, &group);
    }
}

/// Submit one fused group (1..=fusion jobs sharing a database snapshot
/// generation) as a set of shard tasks, one task per shard scoring the
/// whole batch.
fn schedule_group(master: &mut Scheduler, o: &mut ServeOwner, group: &[u64]) {
    let Some(&head) = group.first() else {
        return;
    };
    let (shards, specs) = {
        let first = &o.jobs[&head];
        let shards = first.db.shard_ranges(o.cfg.shards);
        // A fused task computes every member's matrix against the shard,
        // so its spec charges the batch's summed query length — PSS cell
        // accounting then counts K× cells per task automatically.
        let qlen: usize = group
            .iter()
            .map(|id| {
                o.jobs[id]
                    .prepared
                    .as_ref()
                    .expect("queued jobs carry profiles")
                    .query_len()
            })
            .sum();
        let specs: Vec<TaskSpec> = shards
            .iter()
            .map(|&(s, e)| TaskSpec {
                id: 0, // rewritten by the pool
                query_len: qlen,
                queries: group.len(),
                db_residues: first.db.range_residues(s..e),
                db_sequences: e - s,
            })
            .collect();
        (shards, specs)
    };
    let tasks = master.submit_tasks(specs);
    o.metrics.fused_tasks += tasks.len() as u64;
    o.metrics.fused_queries += (tasks.len() * group.len()) as u64;
    for (shard_idx, &t) in tasks.iter().enumerate() {
        o.task_map.insert(
            t,
            FusedTask {
                jobs: group.to_vec(),
                shard_idx,
                group_tasks: tasks.clone(),
            },
        );
    }
    let n = shards.len();
    for id in group {
        let job = o.jobs.get_mut(id).expect("grouped jobs are live");
        job.shards = shards.clone();
        job.phase = Phase::Running {
            pending: n,
            shard_hits: vec![None; n],
            cells: 0,
            kernels: Default::default(),
        };
        o.active_jobs += 1;
    }
    o.active_groups += 1;
}
