//! Observability: the `stats` reply body.

use swhybrid_core::net::kernels_to_json;
use swhybrid_core::pool::FUSE_MAX;
use swhybrid_json::Json;

use super::admit::sweep_retired;
use super::QueryService;

impl QueryService {
    /// Snapshot the daemon's metrics as the `stats` reply body.
    pub fn stats(&self) -> Json {
        let inner = &self.inner;
        let mut g = inner.pool.lock();
        let now = inner.pool.now();
        let o = &mut g.owner;
        // Age-based eviction must not depend on traffic: an idle daemon's
        // registry drains on the next stats poll.
        sweep_retired(o, now);
        let m = &o.metrics;
        let pes = m.pes.lock().expect("per-PE series lock");
        let cs = o.cache.stats();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("type", Json::str("stats")),
            ("uptime_s", Json::Num(inner.pool.now())),
            ("draining", Json::Bool(o.draining)),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::Num(o.queue.depth() as f64)),
                    ("limit", Json::Num(o.queue.depth_limit() as f64)),
                    ("max_depth", Json::Num(o.queue.max_depth as f64)),
                    (
                        "per_client_limit",
                        Json::Num(o.queue.per_client_limit() as f64),
                    ),
                ]),
            ),
            (
                "jobs",
                Json::obj(vec![
                    ("active", Json::Num(o.active_jobs as f64)),
                    ("admitted", Json::Num(m.admitted as f64)),
                    ("completed", Json::Num(m.completed as f64)),
                    ("cancelled", Json::Num(m.cancelled as f64)),
                    (
                        "rejected_queue_full",
                        Json::Num(m.rejected_queue_full as f64),
                    ),
                    (
                        "rejected_client_limit",
                        Json::Num(m.rejected_client_limit as f64),
                    ),
                    ("rejected_draining", Json::Num(m.rejected_draining as f64)),
                    ("expired", Json::Num(m.jobs_expired as f64)),
                    (
                        "registry",
                        Json::Num((o.jobs.len() + o.finished.len()) as f64),
                    ),
                ]),
            ),
            (
                "fusion",
                Json::obj(vec![
                    ("max", Json::Num(FUSE_MAX as f64)),
                    ("tasks", Json::Num(m.fused_tasks as f64)),
                    ("queries", Json::Num(m.fused_queries as f64)),
                    (
                        "factor",
                        Json::Num(if m.fused_tasks == 0 {
                            0.0
                        } else {
                            m.fused_queries as f64 / m.fused_tasks as f64
                        }),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Num(cs.hits as f64)),
                    ("misses", Json::Num(cs.misses as f64)),
                    ("collisions", Json::Num(cs.collisions as f64)),
                    ("hit_rate", Json::Num(cs.hit_rate())),
                    ("insertions", Json::Num(cs.insertions as f64)),
                    ("evictions", Json::Num(cs.evictions as f64)),
                    ("size", Json::Num(o.cache.len() as f64)),
                    ("capacity", Json::Num(o.cache.capacity() as f64)),
                    ("served_from_cache", Json::Num(m.served_from_cache as f64)),
                ]),
            ),
            ("latency_ms", m.latency.to_json()),
            ("kernels", kernels_to_json(&m.kernels)),
            (
                "pes",
                Json::Arr(
                    pes.iter()
                        .enumerate()
                        .map(|(pe, p)| {
                            Json::obj(vec![
                                ("pe", Json::Num(pe as f64)),
                                ("name", Json::str(&p.name)),
                                ("tasks_finished", Json::Num(p.tasks_finished as f64)),
                                ("mean_gcups", Json::Num(p.mean_gcups())),
                                ("last_gcups", Json::Num(p.last_gcups)),
                                // Folded from `task_kernels` runtime events,
                                // which every transport now emits — local PE
                                // threads and remote slaves alike — so this
                                // breakdown agrees with `--events` streams.
                                ("kernels", kernels_to_json(&p.kernels)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "db",
                Json::obj(vec![
                    ("name", Json::str(o.db.name())),
                    ("sequences", Json::Num(o.db.len() as f64)),
                    ("residues", Json::Num(o.db.total_residues() as f64)),
                    ("generation", Json::Num(o.db_generation as f64)),
                    ("digest", Json::str(format!("{:016x}", o.db.digest()))),
                    ("mapped", Json::Bool(o.db.arena().is_shared())),
                ]),
            ),
        ])
    }
}
