//! Scheduling and cross-query fusion: draining the admission queue into
//! fused shard-task groups by the rule `search` cuts its tasks by
//! (`pool::fuses`). Queries are fused here, where the daemon makes its
//! tasks; a PE scans each task it is given in one pass.

use swhybrid_core::pool::{fuses, task_spec};
use swhybrid_core::sched::Scheduler;

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
        let db = &o.jobs[&head].db;
        let shards = db.shard_ranges(o.cfg.shards);
        let lens = || group.iter().map(|id| o.jobs[id].codes.len());
        let specs: Vec<_> = shards.iter().map(|&s| task_spec(db, s, lens())).collect();
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
