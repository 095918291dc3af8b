//! Admission control: the bounded queue between the TCP front end and the
//! task pool.
//!
//! A server that admits everything melts under load; one that admits
//! nothing past the worker count wastes its queue. The policy here is the
//! standard middle ground: a bounded queue (excess requests get an
//! immediate, well-formed rejection — backpressure, not a hang), a
//! per-client in-flight ceiling (one chatty client cannot starve the
//! rest), and **oldest-deadline-first** dispatch (a request that declared
//! urgency is scheduled before patient bulk work; ties fall back to
//! arrival order, so deadline-less traffic is plain FIFO).

use std::collections::HashMap;

/// Why a query was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The queue is at its depth bound.
    QueueFull {
        /// The configured bound.
        depth: usize,
    },
    /// The submitting client is at its in-flight ceiling.
    ClientLimit {
        /// The configured ceiling.
        limit: usize,
    },
    /// The daemon is draining for shutdown.
    Draining,
}

impl AdmitError {
    /// Stable machine-readable error code for the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            AdmitError::QueueFull { .. } => "queue_full",
            AdmitError::ClientLimit { .. } => "client_limit",
            AdmitError::Draining => "draining",
        }
    }

    /// Human-readable rejection reason.
    pub fn reason(&self) -> String {
        match self {
            AdmitError::QueueFull { depth } => {
                format!("admission queue full ({depth} queued)")
            }
            AdmitError::ClientLimit { limit } => {
                format!("client at its in-flight limit ({limit})")
            }
            AdmitError::Draining => "daemon is draining for shutdown".into(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    job: u64,
    /// Absolute deadline in service seconds; `INFINITY` when none given.
    deadline: f64,
    /// Arrival tiebreak.
    seq: u64,
}

/// The bounded, deadline-ordered admission queue. Tracks per-client
/// in-flight counts across the job's whole life (queued *and* running):
/// a client slot frees only when its job completes or is cancelled.
#[derive(Debug)]
pub struct AdmissionQueue {
    depth_limit: usize,
    per_client_limit: usize,
    queue: Vec<QueuedJob>,
    inflight: HashMap<u64, usize>,
    next_seq: u64,
    /// High-water mark of the queue depth.
    pub max_depth: usize,
}

impl AdmissionQueue {
    /// Create a queue with the given bounds (both must be at least 1).
    pub fn new(depth_limit: usize, per_client_limit: usize) -> AdmissionQueue {
        assert!(depth_limit >= 1, "queue depth bound must be at least 1");
        assert!(per_client_limit >= 1, "per-client limit must be at least 1");
        AdmissionQueue {
            depth_limit,
            per_client_limit,
            queue: Vec::new(),
            inflight: HashMap::new(),
            next_seq: 0,
            max_depth: 0,
        }
    }

    /// Try to admit `job` for `client`. On success the job is queued and
    /// the client's in-flight count is charged.
    pub fn admit(&mut self, job: u64, client: u64, deadline: f64) -> Result<(), AdmitError> {
        let inflight = self.inflight.get(&client).copied().unwrap_or(0);
        if inflight >= self.per_client_limit {
            return Err(AdmitError::ClientLimit {
                limit: self.per_client_limit,
            });
        }
        if self.queue.len() >= self.depth_limit {
            return Err(AdmitError::QueueFull {
                depth: self.depth_limit,
            });
        }
        self.queue.push(QueuedJob {
            job,
            deadline,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        *self.inflight.entry(client).or_insert(0) += 1;
        self.max_depth = self.max_depth.max(self.queue.len());
        Ok(())
    }

    /// Pop the most urgent queued job — smallest deadline, ties by arrival
    /// — if `accept` takes it; a refused job stays queued at the head.
    /// Does NOT release the client slot — the job is now running.
    pub fn pop_next_if(&mut self, accept: impl FnOnce(u64) -> bool) -> Option<u64> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.deadline
                    .partial_cmp(&b.deadline)
                    .expect("deadlines are not NaN")
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)?;
        accept(self.queue[best].job).then(|| self.queue.swap_remove(best).job)
    }

    /// Remove a still-queued job (cancellation). Returns whether it was
    /// queued; the caller must [`AdmissionQueue::release`] the client slot.
    pub fn remove(&mut self, job: u64) -> bool {
        match self.queue.iter().position(|q| q.job == job) {
            Some(i) => {
                self.queue.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Free one in-flight slot of `client` (its job completed or was
    /// cancelled).
    pub fn release(&mut self, client: u64) {
        if let Some(n) = self.inflight.get_mut(&client) {
            *n -= 1;
            if *n == 0 {
                self.inflight.remove(&client);
            }
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Dispatch rank of a queued job (0 = next), if still queued.
    pub fn position(&self, job: u64) -> Option<usize> {
        let me = self.queue.iter().find(|q| q.job == job)?;
        Some(
            self.queue
                .iter()
                .filter(|q| (q.deadline, q.seq) < (me.deadline, me.seq))
                .count(),
        )
    }

    /// The configured depth bound.
    pub fn depth_limit(&self) -> usize {
        self.depth_limit
    }

    /// The configured per-client ceiling.
    pub fn per_client_limit(&self) -> usize {
        self.per_client_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_order_with_fifo_ties() {
        let mut q = AdmissionQueue::new(8, 8);
        q.admit(0, 1, f64::INFINITY).unwrap();
        q.admit(1, 1, 5.0).unwrap();
        q.admit(2, 1, 5.0).unwrap();
        q.admit(3, 1, 1.0).unwrap();
        assert_eq!(q.position(3), Some(0));
        assert_eq!(q.position(1), Some(1));
        // A refused head stays queued, still first.
        assert_eq!(q.pop_next_if(|job| job != 3), None);
        assert_eq!(q.position(3), Some(0));
        assert_eq!(q.pop_next_if(|_| true), Some(3));
        assert_eq!(q.pop_next_if(|_| true), Some(1));
        assert_eq!(q.pop_next_if(|_| true), Some(2));
        assert_eq!(q.pop_next_if(|_| true), Some(0));
        assert_eq!(q.pop_next_if(|_| true), None);
    }

    #[test]
    fn depth_bound_rejects() {
        let mut q = AdmissionQueue::new(2, 8);
        q.admit(0, 1, 1.0).unwrap();
        q.admit(1, 1, 1.0).unwrap();
        assert_eq!(
            q.admit(2, 1, 1.0).unwrap_err(),
            AdmitError::QueueFull { depth: 2 }
        );
        assert_eq!(q.max_depth, 2);
    }

    #[test]
    fn client_limit_spans_queued_and_running() {
        let mut q = AdmissionQueue::new(8, 2);
        q.admit(0, 7, 1.0).unwrap();
        q.admit(1, 7, 1.0).unwrap();
        assert_eq!(
            q.admit(2, 7, 1.0).unwrap_err(),
            AdmitError::ClientLimit { limit: 2 }
        );
        // Popping (job starts running) does not free the slot…
        assert_eq!(q.pop_next_if(|_| true), Some(0));
        assert!(q.admit(2, 7, 1.0).is_err());
        // …completion does. Other clients were never blocked.
        q.release(7);
        q.admit(2, 7, 1.0).unwrap();
        q.admit(3, 8, 1.0).unwrap();
    }

    #[test]
    fn cancel_removes_from_queue() {
        let mut q = AdmissionQueue::new(8, 8);
        q.admit(0, 1, 1.0).unwrap();
        q.admit(1, 1, 2.0).unwrap();
        assert!(q.remove(0));
        assert!(!q.remove(0));
        q.release(1);
        assert_eq!(q.pop_next_if(|_| true), Some(1));
        assert_eq!(q.depth(), 0);
    }
}
