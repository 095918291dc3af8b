//! Scheduling and cross-query fusion: draining the admission queue into
//! fused shard-task groups by the rule `search` cuts its tasks by
//! (`pool::fuses`). Queries are fused here, where the daemon makes its
//! tasks; a PE scans each task it is given in one pass.

use swhybrid_core::pool::fuses;
use swhybrid_core::sched::Scheduler;
use swhybrid_device::task::TaskSpec;

use super::{FusedTask, Phase, ServeOwner};

/// Admit queued jobs into the task pool up to the active-group bound. A
/// group takes jobs in dispatch order while each [`fuses`] with the group
/// and is of the head's database generation; any other job is a group of
/// its own, and a job that cannot join stays queued for the next group. A
/// free slot never waits for companions: what fuses is what queued while
/// every slot was busy.
pub(super) fn pump(master: &mut Scheduler, o: &mut ServeOwner) {
    while o.active_groups < o.cfg.max_active {
        let mut group = Vec::new();
        // Every queued job is live: a cancel withdraws a queued job from
        // the queue and the registry together.
        while let Some(job) = o.queue.pop_next_if(|next| {
            group.first().is_none_or(|head| {
                let (head, next) = (&o.jobs[head], &o.jobs[&next]);
                fuses(group.len(), &head.codes, &next.codes) && head.generation == next.generation
            })
        }) {
            group.push(job);
        }
        if group.is_empty() {
            break;
        }
        schedule_group(master, o, &group);
    }
}

/// Submit one fused group (1..=`pool::FUSE_MAX` jobs sharing a database
/// snapshot generation) as a set of shard tasks, one task per shard
/// scoring the whole batch.
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
