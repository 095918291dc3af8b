//! Admission glue: query submission (with the cache fast path), blocking
//! convenience, status lookup, cancellation, and terminal-job retention.

use std::sync::Arc;

use swhybrid_seq::digest::query_digest;
use swhybrid_simd::engine::KernelStats;

use super::fusion::pump;
use super::{
    CancelOutcome, Completion, Finished, Job, JobStatus, Phase, QueryService, SearchReply,
    ServeOwner, SubmitError,
};
use crate::admission::AdmitError;
use crate::cache::CacheKey;

/// Record a job (already out of `jobs`) as terminal, mark it for eviction
/// and sweep the retention window.
pub(super) fn retire(o: &mut ServeOwner, job: u64, record: Finished, now: f64) {
    o.finished.insert(job, record);
    o.retired.push_back((job, now));
    sweep_retired(o, now);
}

/// Evict retired jobs beyond the count bound or older than the retention
/// window. Status on an evicted id answers [`JobStatus::Expired`].
pub(super) fn sweep_retired(o: &mut ServeOwner, now: f64) {
    while let Some(&(job, at)) = o.retired.front() {
        if o.retired.len() > o.cfg.retained_jobs || now - at > o.cfg.retention_secs {
            o.retired.pop_front();
            o.finished.remove(&job);
            o.metrics.jobs_expired += 1;
        } else {
            break;
        }
    }
}

impl QueryService {
    /// Submit a query. On a cache hit the completion fires before this
    /// returns (with `cached: true` and zero cells); otherwise the query
    /// is admitted (or rejected with backpressure) and the completion
    /// fires when the scan finishes. Returns the job id.
    pub fn submit(
        &self,
        codes: Vec<u8>,
        top_n: usize,
        deadline_ms: Option<u64>,
        tag: Option<String>,
        client: u64,
        completion: Completion,
    ) -> Result<u64, SubmitError> {
        let inner = &self.inner;
        let pool = &inner.pool;
        let top_n = top_n.max(1);
        let qdigest = query_digest(&codes);
        let mut g = pool.lock();
        let core = &mut *g;
        let o = &mut core.owner;
        if o.draining {
            o.metrics.rejected_draining += 1;
            return Err(SubmitError::Draining);
        }
        let now = pool.now();
        let job_id = o.next_job_id;
        let key = CacheKey {
            query_digest: qdigest,
            db_generation: o.db_generation,
            db_digest: o.db.digest(),
            scoring_digest: inner.scoring_digest,
            top_n,
        };

        // Fast path: serve from cache.
        if let Some(hits) = o.cache.get(&key, &codes) {
            o.next_job_id += 1;
            let generation = o.db_generation;
            let record = Finished {
                cancelled: false,
                cached: true,
            };
            retire(o, job_id, record, now);
            o.metrics.completed += 1;
            o.metrics.served_from_cache += 1;
            let elapsed_ms = (pool.now() - now) * 1000.0;
            o.metrics.latency.observe(elapsed_ms);
            drop(g);
            completion(SearchReply {
                job: job_id,
                tag,
                cached: true,
                cancelled: false,
                generation,
                cells: 0,
                elapsed_ms,
                kernels: KernelStats::default(),
                hits,
            });
            return Ok(job_id);
        }

        // Cold path: admit. Each shard task builds the profiles it scans.
        let deadline = deadline_ms
            .map(|ms| now + ms as f64 / 1000.0)
            .unwrap_or(f64::INFINITY);
        if let Err(e) = o.queue.admit(job_id, client, deadline) {
            match &e {
                AdmitError::QueueFull { .. } => o.metrics.rejected_queue_full += 1,
                AdmitError::ClientLimit { .. } => o.metrics.rejected_client_limit += 1,
                AdmitError::Draining => o.metrics.rejected_draining += 1,
            }
            return Err(e);
        }
        o.next_job_id += 1;
        let db = Arc::clone(&o.db);
        let generation = o.db_generation;
        o.jobs.insert(
            job_id,
            Job {
                client,
                tag,
                codes,
                db,
                generation,
                top_n,
                key,
                submitted_at: now,
                shards: Vec::new(),
                phase: Phase::Queued,
                cancelled: false,
                completion: Some(completion),
            },
        );
        o.metrics.admitted += 1;
        pump(&mut core.master, o);
        drop(g);
        pool.notify_all();
        Ok(job_id)
    }

    /// Submit and block until the reply arrives (in-process convenience).
    pub fn search_blocking(
        &self,
        codes: Vec<u8>,
        top_n: usize,
        client: u64,
    ) -> Result<SearchReply, SubmitError> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.submit(
            codes,
            top_n,
            None,
            None,
            client,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        )?;
        Ok(rx.recv().expect("service dropped before replying"))
    }

    /// Where a job currently is. An id that was issued but whose terminal
    /// record has been evicted answers [`JobStatus::Expired`]; an id never
    /// issued answers [`JobStatus::Unknown`].
    pub fn status(&self, job: u64) -> JobStatus {
        let g = self.inner.pool.lock();
        let o = &g.owner;
        match o.jobs.get(&job).map(|j| &j.phase) {
            Some(Phase::Queued) => JobStatus::Queued {
                position: o.queue.position(job).unwrap_or(0),
            },
            Some(Phase::Running {
                pending,
                shard_hits,
                ..
            }) => JobStatus::Running {
                shards_done: shard_hits.len() - pending,
                shards_total: shard_hits.len(),
            },
            None => match o.finished.get(&job) {
                Some(f) => JobStatus::Done {
                    cancelled: f.cancelled,
                    cached: f.cached,
                },
                None if job < o.next_job_id => JobStatus::Expired,
                None => JobStatus::Unknown,
            },
        }
    }

    /// Cancel a job. Queued jobs are withdrawn before any kernel runs;
    /// running jobs scan their remaining shards (at most `shards` tasks,
    /// run like any other so a remote holding one is never dropped) but
    /// their hits are discarded and never cached. Either way the
    /// submitter's completion fires promptly with `cancelled: true`.
    pub fn cancel(&self, job: u64) -> CancelOutcome {
        let pool = &self.inner.pool;
        let mut g = pool.lock();
        let now = pool.now();
        let o = &mut g.owner;
        let Some(j) = o.jobs.get_mut(&job) else {
            // A terminal job, retained or evicted, already completed.
            return if job < o.next_job_id {
                CancelOutcome::AlreadyDone
            } else {
                CancelOutcome::Unknown
            };
        };
        if j.cancelled {
            return CancelOutcome::AlreadyDone;
        }
        j.cancelled = true;
        let client = j.client;
        let tag = j.tag.clone();
        let generation = j.generation;
        let elapsed_ms = (now - j.submitted_at) * 1000.0;
        let completion = j.completion.take();
        if matches!(j.phase, Phase::Queued) {
            // Withdrawn before any kernel ran, so terminal at once; a
            // running job stays until its in-flight shards land.
            o.jobs.remove(&job);
            o.queue.remove(job);
            o.queue.release(client);
            let record = Finished {
                cancelled: true,
                cached: false,
            };
            retire(o, job, record, now);
        }
        o.metrics.cancelled += 1;
        drop(g);
        if let Some(cb) = completion {
            cb(SearchReply {
                job,
                tag,
                cached: false,
                cancelled: true,
                generation,
                cells: 0,
                elapsed_ms,
                kernels: KernelStats::default(),
                hits: Vec::new(),
            });
        }
        CancelOutcome::Cancelled
    }
}
