//! Scheduling and cross-query fusion: draining the admission queue into
//! fused shard-task groups.

use swhybrid_core::sched::Scheduler;
use swhybrid_device::task::TaskSpec;

use super::{FusedTask, Phase, ServeOwner};

/// Admit queued jobs into the task pool up to the active-group bound,
/// fusing co-queued same-generation queries into shared shard tasks (up
/// to [`super::ServiceConfig::fusion`] queries per group). A free slot
/// never waits for companions: what fuses is what queued while every slot
/// was busy.
pub(super) fn pump(master: &mut Scheduler, o: &mut ServeOwner) {
    // A popped job whose snapshot generation differs from the group being
    // formed starts the next group instead (it cannot be pushed back into
    // the admission queue). In the rare swap-db race this can transiently
    // overshoot `max_active` by the carried group; it never loses a job.
    let mut carry: Option<u64> = None;
    while carry.is_some() || o.active_groups < o.cfg.max_active {
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
            break;
        }
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
        let qlen: usize = group.iter().map(|id| o.jobs[id].codes.len()).sum();
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
