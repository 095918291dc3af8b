//! Tasks, task states, and the task pool.
//!
//! "Each task can be in one of three states: *ready*, *executing* or
//! *finished*. … When a slave PE requests tasks and there are no more ready
//! tasks, the workload adjustment mechanism assigns tasks in the executing
//! state to the idle PE. Note that, in this case, there can be more than
//! one node executing the same task." (§IV-A-3)

use std::collections::{BTreeSet, VecDeque};

use swhybrid_device::task::TaskSpec;

/// Identifier of a task (index into the pool).
pub type TaskId = usize;

/// Identifier of a processing element (index into the platform).
pub type PeId = usize;

/// The three task states of §IV-A-3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Not yet assigned to any PE.
    Ready,
    /// Assigned to (and possibly replicated on) one or more PEs.
    Executing,
    /// Completed; results can be collected.
    Finished,
}

/// A task plus its scheduling state.
#[derive(Debug, Clone)]
pub struct Task {
    /// The immutable work description.
    pub spec: TaskSpec,
    /// Current state.
    pub state: TaskState,
    /// PEs currently holding the task (assigned or running).
    pub executors: Vec<PeId>,
    /// The PE that completed the task first, once finished.
    pub finished_by: Option<PeId>,
}

/// The master's pool of tasks.
///
/// Beside the tasks it keeps two indexes, so the workload adjustment's
/// questions ("which tasks are executing?", "what does this PE hold?") cost
/// what is in flight, not every task of the run. Only the mutators that
/// change a task's `state` or `executors` touch them. Both are id-ordered,
/// so they enumerate exactly what a walk over `tasks` would, in the same
/// order.
#[derive(Debug, Clone, Default)]
pub struct TaskPool {
    /// The live tasks: ids `forgotten..len()`, in id order.
    tasks: Vec<Task>,
    /// Finished tasks dropped from the front by
    /// [`TaskPool::forget_finished_prefix`]; their ids are never reused.
    forgotten: usize,
    /// FIFO of ready task ids (allocation order = query file order).
    ready: VecDeque<TaskId>,
    finished_count: usize,
    /// The tasks in the executing state.
    executing: BTreeSet<TaskId>,
    /// Per PE (grown on demand), the executing tasks whose `executors`
    /// contain it.
    held: Vec<BTreeSet<TaskId>>,
}

impl TaskPool {
    /// Build a pool from the workload, all tasks ready, in file order.
    /// Each spec's `id` is rewritten to its slot, as [`TaskPool::push`]
    /// does.
    pub fn new(specs: Vec<TaskSpec>) -> TaskPool {
        let ready = (0..specs.len()).collect();
        let tasks = specs
            .into_iter()
            .enumerate()
            .map(|(id, spec)| Task {
                spec: TaskSpec { id, ..spec },
                state: TaskState::Ready,
                executors: Vec::new(),
                finished_by: None,
            })
            .collect();
        TaskPool {
            tasks,
            ready,
            ..TaskPool::default()
        }
    }

    /// Append one new task to the pool in the ready state (multi-batch
    /// lifecycle: a long-running master keeps accepting work after the
    /// initial workload drains). The spec's `id` is rewritten to the pool
    /// slot so ids stay dense and stable.
    pub fn push(&mut self, mut spec: TaskSpec) -> TaskId {
        let id = self.len();
        spec.id = id;
        self.tasks.push(Task {
            spec,
            state: TaskState::Ready,
            executors: Vec::new(),
            finished_by: None,
        });
        self.ready.push_back(id);
        id
    }

    /// Total number of tasks ever in the pool: every id below this was
    /// issued, forgotten ones included.
    pub fn len(&self) -> usize {
        self.forgotten + self.tasks.len()
    }

    /// Whether the pool has never held a task.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tasks still held: every id issued minus the forgotten
    /// finished prefix.
    pub fn live(&self) -> usize {
        self.tasks.len()
    }

    /// Access a task that is still held (panics on a forgotten id).
    pub fn get(&self, id: TaskId) -> &Task {
        self.find(id).expect("task was finished and forgotten")
    }

    fn held_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id - self.forgotten]
    }

    fn hold(&mut self, id: TaskId, pe: PeId) {
        if self.held.len() <= pe {
            self.held.resize_with(pe + 1, BTreeSet::new);
        }
        self.held[pe].insert(id);
    }

    fn unhold(&mut self, id: TaskId, pe: PeId) {
        if let Some(held) = self.held.get_mut(pe) {
            held.remove(&id);
        }
    }

    /// Move a ready task (already off the queue) to executing on `pe`.
    fn assign(&mut self, id: TaskId, pe: PeId) {
        let task = self.held_mut(id);
        debug_assert_eq!(task.state, TaskState::Ready);
        task.state = TaskState::Executing;
        task.executors.push(pe);
        self.executing.insert(id);
        self.hold(id, pe);
    }

    /// An issued task, or `None` once it has been forgotten.
    pub fn find(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.checked_sub(self.forgotten)?)
    }

    /// The state of an issued task; a forgotten one is finished.
    pub fn state(&self, id: TaskId) -> TaskState {
        self.find(id).map_or(TaskState::Finished, |t| t.state)
    }

    /// Drop the finished tasks at the front of the pool, so an engine that
    /// outlives its workloads holds in memory only the tasks still in
    /// flight. Ids are not reused: [`TaskPool::len`] keeps counting them and
    /// [`TaskPool::state`] answers `Finished`. Finished tasks are in neither
    /// index, so the indexes are untouched.
    pub fn forget_finished_prefix(&mut self) {
        let finished = self
            .tasks
            .iter()
            .take_while(|t| t.state == TaskState::Finished)
            .count();
        self.tasks.drain(..finished);
        self.forgotten += finished;
    }

    /// Number of tasks still in the ready state.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Number of finished tasks.
    pub fn finished_count(&self) -> usize {
        self.finished_count
    }

    /// Whether every task has finished.
    pub fn all_finished(&self) -> bool {
        self.finished_count == self.len()
    }

    /// Tasks currently in the executing state, in id order.
    pub fn executing_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.executing.iter().copied()
    }

    /// The executing tasks `pe` holds (assigned or running), in id order.
    pub(crate) fn held_by(&self, pe: PeId) -> impl Iterator<Item = TaskId> + '_ {
        self.held.get(pe).into_iter().flatten().copied()
    }

    /// Pop up to `n` ready tasks (file order) and assign them to `pe`.
    pub fn take_ready(&mut self, n: usize, pe: PeId) -> Vec<TaskId> {
        let mut out = Vec::with_capacity(n.min(self.ready.len()));
        for _ in 0..n {
            let Some(id) = self.ready.pop_front() else {
                break;
            };
            self.assign(id, pe);
            out.push(id);
        }
        out
    }

    /// Pop up to `n` ready tasks for `pe`, choosing by size instead of file
    /// order: largest-first when `prefer_large`, smallest-first otherwise
    /// (the size-aware dispatch extension — fast PEs take the big tasks so
    /// slow PEs can never become the straggler on one).
    pub fn take_ready_by_size(&mut self, n: usize, pe: PeId, prefer_large: bool) -> Vec<TaskId> {
        let mut out = Vec::with_capacity(n.min(self.ready.len()));
        for _ in 0..n {
            let Some(pos) = (0..self.ready.len()).max_by_key(|&i| {
                let cells = self.get(self.ready[i]).spec.cells() as i128;
                if prefer_large {
                    cells
                } else {
                    -cells
                }
            }) else {
                break;
            };
            let id = self.ready.remove(pos).expect("position is in range");
            self.assign(id, pe);
            out.push(id);
        }
        out
    }

    /// Add `pe` as an additional executor of an already-executing task
    /// (the workload adjustment replication).
    pub fn replicate(&mut self, id: TaskId, pe: PeId) {
        let task = self.held_mut(id);
        assert_eq!(
            task.state,
            TaskState::Executing,
            "only executing tasks can be replicated"
        );
        assert!(
            !task.executors.contains(&pe),
            "PE {pe} already executes task {id}"
        );
        task.executors.push(pe);
        self.hold(id, pe);
    }

    /// Move an executing task from one holder to another (work stealing of
    /// a not-yet-started batch entry).
    pub fn reassign(&mut self, id: TaskId, from: PeId, to: PeId) {
        let task = self.held_mut(id);
        assert_eq!(
            task.state,
            TaskState::Executing,
            "can only reassign executing tasks"
        );
        assert!(
            task.executors.contains(&from),
            "PE {from} does not hold task {id}"
        );
        assert!(
            !task.executors.contains(&to),
            "PE {to} already holds task {id}"
        );
        task.executors.retain(|&p| p != from);
        task.executors.push(to);
        self.unhold(id, from);
        self.hold(id, to);
    }

    /// Mark a task finished by `pe`. Returns the *other* executors whose
    /// replicas must be cancelled; idempotent calls after the first return
    /// an empty list.
    pub fn finish(&mut self, id: TaskId, pe: PeId) -> Vec<PeId> {
        if self.state(id) == TaskState::Finished {
            return Vec::new();
        }
        self.finished_count += 1;
        let task = self.held_mut(id);
        task.state = TaskState::Finished;
        task.finished_by = Some(pe);
        let mut others = std::mem::take(&mut task.executors);
        self.executing.remove(&id);
        for &p in &others {
            self.unhold(id, p);
        }
        others.retain(|&p| p != pe);
        others
    }

    /// Return a task held by a departing PE to the ready state
    /// (membership extension). No-op if other PEs still hold it.
    pub fn release(&mut self, id: TaskId, pe: PeId) {
        if self.state(id) != TaskState::Executing {
            return;
        }
        let task = self.held_mut(id);
        task.executors.retain(|&p| p != pe);
        if task.executors.is_empty() {
            task.state = TaskState::Ready;
            self.executing.remove(&id);
            // Front of the queue: departed work is the most urgent.
            self.ready.push_front(id);
        }
        self.unhold(id, pe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|id| TaskSpec {
                id,
                query_len: 100 * (id + 1),
                queries: 1,
                db_residues: 1_000_000,
                db_sequences: 1000,
            })
            .collect()
    }

    #[test]
    fn pool_starts_all_ready_in_order() {
        let pool = TaskPool::new(specs(5));
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.ready_count(), 5);
        assert_eq!(pool.finished_count(), 0);
        assert!(!pool.all_finished());
        assert!(pool.tasks.iter().all(|t| t.state == TaskState::Ready));
    }

    #[test]
    fn take_ready_respects_order_and_count() {
        let mut pool = TaskPool::new(specs(5));
        let got = pool.take_ready(2, 7);
        assert_eq!(got, vec![0, 1]);
        assert_eq!(pool.get(0).state, TaskState::Executing);
        assert_eq!(pool.get(0).executors, vec![7]);
        assert_eq!(pool.ready_count(), 3);
        // Asking for more than available returns what is left.
        let rest = pool.take_ready(10, 8);
        assert_eq!(rest, vec![2, 3, 4]);
        assert_eq!(pool.ready_count(), 0);
    }

    #[test]
    fn finish_cancels_replicas_once() {
        let mut pool = TaskPool::new(specs(1));
        pool.take_ready(1, 0);
        pool.replicate(0, 1);
        pool.replicate(0, 2);
        let cancels = pool.finish(0, 1);
        assert_eq!(cancels, vec![0, 2]);
        assert_eq!(pool.get(0).state, TaskState::Finished);
        assert_eq!(pool.get(0).finished_by, Some(1));
        assert!(pool.all_finished());
        // Second finish (the replica crossing the line later) is a no-op.
        assert!(pool.finish(0, 2).is_empty());
        assert_eq!(pool.get(0).finished_by, Some(1));
    }

    #[test]
    #[should_panic(expected = "already executes")]
    fn double_replication_on_same_pe_rejected() {
        let mut pool = TaskPool::new(specs(1));
        pool.take_ready(1, 0);
        pool.replicate(0, 0);
    }

    #[test]
    #[should_panic(expected = "only executing tasks")]
    fn replicating_ready_task_rejected() {
        let mut pool = TaskPool::new(specs(1));
        pool.replicate(0, 0);
    }

    #[test]
    fn release_requeues_at_front() {
        let mut pool = TaskPool::new(specs(3));
        let got = pool.take_ready(2, 0);
        assert_eq!(got, vec![0, 1]);
        pool.release(1, 0);
        assert_eq!(pool.get(1).state, TaskState::Ready);
        // Task 1 now precedes task 2 in the ready queue.
        let next = pool.take_ready(2, 1);
        assert_eq!(next, vec![1, 2]);
    }

    #[test]
    fn release_with_replica_keeps_executing() {
        let mut pool = TaskPool::new(specs(1));
        pool.take_ready(1, 0);
        pool.replicate(0, 1);
        pool.release(0, 0);
        assert_eq!(pool.get(0).state, TaskState::Executing);
        assert_eq!(pool.get(0).executors, vec![1]);
    }

    #[test]
    fn a_forgotten_prefix_keeps_its_ids_and_answers_finished() {
        let mut pool = TaskPool::new(specs(3));
        pool.take_ready(3, 0);
        pool.finish(1, 0);
        pool.forget_finished_prefix();
        assert_eq!(pool.live(), 3, "executing task 0 holds the window open");
        pool.finish(0, 0);
        pool.forget_finished_prefix();
        assert_eq!((pool.live(), pool.len()), (1, 3));
        assert_eq!(pool.state(0), TaskState::Finished);
        assert_eq!(pool.state(2), TaskState::Executing);
        assert_eq!(pool.executing_ids().collect::<Vec<_>>(), vec![2]);
        // A replica crossing the line after its task was forgotten loses.
        assert!(pool.finish(1, 5).is_empty());
        pool.release(1, 5);
        assert_eq!(pool.finished_count(), 2);
        // Ids are never reused.
        assert_eq!(pool.push(specs(1).remove(0)), 3);
        assert_eq!(pool.take_ready(1, 1), vec![3]);
        assert!(!pool.all_finished());
    }

    #[test]
    fn executing_ids_enumerates() {
        let mut pool = TaskPool::new(specs(3));
        pool.take_ready(2, 0);
        pool.finish(0, 0);
        let execs: Vec<TaskId> = pool.executing_ids().collect();
        assert_eq!(execs, vec![1]);
    }

    const PES: PeId = 5;

    /// The walk the indexes replace: every held task that `keep`s, in id
    /// order.
    fn walk(pool: &TaskPool, keep: impl Fn(&Task) -> bool) -> Vec<TaskId> {
        let held = pool.tasks.iter().enumerate();
        held.filter(|(_, t)| keep(t))
            .map(|(i, _)| pool.forgotten + i)
            .collect()
    }

    fn executing_walk(pool: &TaskPool) -> Vec<TaskId> {
        walk(pool, |t| t.state == TaskState::Executing)
    }

    /// Apply one `(operation, pick, pe)` step, where `pick` chooses among
    /// the tasks (and holders) the operation is legal on; a step with no
    /// legal target does nothing.
    fn apply(pool: &mut TaskPool, (op, pick, pe): (u8, usize, PeId)) {
        let choose = |ids: Vec<TaskId>| (!ids.is_empty()).then(|| ids[pick % ids.len()]);
        let executing = executing_walk(pool);
        let not_held_by_pe: Vec<TaskId> = executing
            .iter()
            .copied()
            .filter(|&t| !pool.get(t).executors.contains(&pe))
            .collect();
        let holder_of = |pool: &TaskPool, t: TaskId| {
            let executors = &pool.get(t).executors;
            executors[pick % executors.len()]
        };
        let with_holders = |n: fn(usize) -> bool| -> Vec<TaskId> {
            let ids = executing.iter().copied();
            ids.filter(|&t| n(pool.get(t).executors.len())).collect()
        };
        match op {
            0 => {
                pool.push(specs(1 + pick % 3).remove(0));
            }
            1 => {
                pool.take_ready(pick % 4, pe);
            }
            2 => {
                pool.take_ready_by_size(pick % 4, pe, pick % 2 == 0);
            }
            3 => {
                if let Some(t) = choose(not_held_by_pe) {
                    pool.replicate(t, pe);
                }
            }
            4 => {
                if let Some(t) = choose(not_held_by_pe) {
                    let from = holder_of(pool, t);
                    pool.reassign(t, from, pe);
                }
            }
            // The winner: one of its holders crosses the line first.
            5 => {
                if let Some(t) = choose(executing) {
                    let winner = holder_of(pool, t);
                    pool.finish(t, winner);
                }
            }
            // A late loser, possibly after its task was forgotten.
            6 => {
                let finished = (0..pool.len()).filter(|&t| pool.state(t) == TaskState::Finished);
                if let Some(t) = choose(finished.collect()) {
                    assert!(pool.finish(t, pe).is_empty());
                }
            }
            7 => {
                if let Some(t) = choose(with_holders(|n| n == 1)) {
                    let sole = holder_of(pool, t);
                    pool.release(t, sole);
                    assert_eq!(pool.get(t).state, TaskState::Ready);
                }
            }
            8 => {
                if let Some(t) = choose(with_holders(|n| n > 1)) {
                    let replica = holder_of(pool, t);
                    pool.release(t, replica);
                    assert_eq!(pool.get(t).state, TaskState::Executing);
                }
            }
            _ => pool.forget_finished_prefix(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The indexes answer what the walks they replace would, in the same
        /// order, after every mutator in any interleaving.
        #[test]
        fn indexes_match_the_walks_they_replace(
            start in 0usize..6,
            steps in prop::collection::vec((0u8..10, 0usize..64, 0..PES), 1..120),
        ) {
            let mut pool = TaskPool::new(specs(start));
            for step in steps {
                apply(&mut pool, step);
                prop_assert_eq!(
                    pool.executing_ids().collect::<Vec<_>>(),
                    executing_walk(&pool),
                    "executing after {:?}",
                    step
                );
                for pe in 0..PES {
                    prop_assert_eq!(
                        pool.held_by(pe).collect::<Vec<_>>(),
                        walk(&pool, |t| t.executors.contains(&pe)),
                        "held by PE {} after {:?}",
                        pe,
                        step
                    );
                }
            }
        }
    }
}
