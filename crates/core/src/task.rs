//! Tasks, task states, and the task pool.
//!
//! "Each task can be in one of three states: *ready*, *executing* or
//! *finished*. … When a slave PE requests tasks and there are no more ready
//! tasks, the workload adjustment mechanism assigns tasks in the executing
//! state to the idle PE. Note that, in this case, there can be more than
//! one node executing the same task." (§IV-A-3)

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
#[derive(Debug, Clone, Default)]
pub struct TaskPool {
    /// The live tasks: ids `forgotten..len()`, in id order.
    tasks: Vec<Task>,
    /// Finished tasks dropped from the front by
    /// [`TaskPool::forget_finished_prefix`]; their ids are never reused.
    forgotten: usize,
    /// FIFO of ready task ids (allocation order = query file order).
    ready: std::collections::VecDeque<TaskId>,
    finished_count: usize,
}

impl TaskPool {
    /// Build a pool from the workload, all tasks ready, in file order.
    pub fn new(specs: Vec<TaskSpec>) -> TaskPool {
        let ready = (0..specs.len()).collect();
        let tasks = specs
            .into_iter()
            .map(|spec| Task {
                spec,
                state: TaskState::Ready,
                executors: Vec::new(),
                finished_by: None,
            })
            .collect();
        TaskPool {
            tasks,
            forgotten: 0,
            ready,
            finished_count: 0,
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

    /// An issued task, or `None` once it has been forgotten.
    pub fn find(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.checked_sub(self.forgotten)?)
    }

    /// The state of an issued task; a forgotten one is finished.
    pub fn state(&self, id: TaskId) -> TaskState {
        self.find(id).map_or(TaskState::Finished, |t| t.state)
    }

    /// Drop the finished tasks at the front of the pool, so an engine that
    /// outlives its workloads holds (and [`TaskPool::executing_ids`] walks)
    /// only the tasks still in flight. Ids are not reused: [`TaskPool::len`]
    /// keeps counting them and [`TaskPool::state`] answers `Finished`.
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

    /// Tasks currently in the executing state.
    pub fn executing_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TaskState::Executing)
            .map(|(i, _)| self.forgotten + i)
    }

    /// Pop up to `n` ready tasks (file order) and assign them to `pe`.
    pub fn take_ready(&mut self, n: usize, pe: PeId) -> Vec<TaskId> {
        let mut out = Vec::with_capacity(n.min(self.ready.len()));
        for _ in 0..n {
            let Some(id) = self.ready.pop_front() else {
                break;
            };
            let task = self.held_mut(id);
            debug_assert_eq!(task.state, TaskState::Ready);
            task.state = TaskState::Executing;
            task.executors.push(pe);
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
            let task = self.held_mut(id);
            debug_assert_eq!(task.state, TaskState::Ready);
            task.state = TaskState::Executing;
            task.executors.push(pe);
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
        let others: Vec<PeId> = task
            .executors
            .iter()
            .copied()
            .filter(|&p| p != pe)
            .collect();
        task.executors.clear();
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
            // Front of the queue: departed work is the most urgent.
            self.ready.push_front(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
