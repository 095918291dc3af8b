//! The daemon's live metrics: latency histogram, admission counters, and
//! per-PE throughput folded from the scheduler's event stream.
//!
//! Per-PE GCUPS is not measured separately by the service — it is *derived*
//! from the [`RuntimeEvent`] stream the scheduler already emits
//! ([`EventKind::TaskFinished`] carries the measured speed of every
//! completion), so the numbers the `stats` verb reports are exactly the
//! numbers the PSS policy schedules by. The service installs
//! [`fold_event`] as the engine's event sink, so each event is folded the
//! moment it is emitted and never stored.

use std::sync::{Arc, Mutex};

use swhybrid_core::trace::{EventKind, RuntimeEvent};
use swhybrid_json::Json;
use swhybrid_simd::engine::KernelStats;

/// Upper bounds (milliseconds) of the latency histogram buckets; the last
/// bucket is unbounded.
pub const LATENCY_BOUNDS_MS: [f64; 12] = [
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    5000.0,
    f64::INFINITY,
];

/// Fixed-bucket latency histogram (milliseconds).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BOUNDS_MS.len()],
    count: u64,
    sum_ms: f64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BOUNDS_MS.len()],
            count: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn observe(&mut self, ms: f64) {
        let bucket = LATENCY_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(LATENCY_BOUNDS_MS.len() - 1);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, 0 when empty.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Upper-bound estimate of the q-quantile (the bound of the bucket the
    /// quantile falls in; the top bucket reports the observed max).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                let bound = LATENCY_BOUNDS_MS[i];
                return if bound.is_finite() {
                    bound
                } else {
                    self.max_ms
                };
            }
        }
        self.max_ms
    }

    /// The histogram as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("mean_ms", Json::Num(self.mean_ms())),
            ("max_ms", Json::Num(self.max_ms)),
            ("p50_ms", Json::Num(self.quantile_ms(0.5))),
            ("p90_ms", Json::Num(self.quantile_ms(0.9))),
            ("p99_ms", Json::Num(self.quantile_ms(0.99))),
            (
                "buckets",
                Json::Arr(
                    self.counts
                        .iter()
                        .zip(LATENCY_BOUNDS_MS)
                        .map(|(&c, b)| {
                            Json::obj(vec![
                                (
                                    "le_ms",
                                    if b.is_finite() {
                                        Json::Num(b)
                                    } else {
                                        Json::str("inf")
                                    },
                                ),
                                ("count", Json::Num(c as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Cumulative throughput of one PE worker, folded from events.
#[derive(Debug, Clone, Default)]
pub struct PeMetric {
    /// The PE's registered name.
    pub name: String,
    /// Completions (winner or not — the kernel ran either way).
    pub tasks_finished: u64,
    /// Sum of measured GCUPS over completions with a finite measurement.
    sum_gcups: f64,
    measured: u64,
    /// Most recent measured GCUPS.
    pub last_gcups: f64,
    /// Cumulative kernel usage of this PE's winning scans, folded from
    /// `task_kernels` events. Both transports emit them — local PE
    /// threads and remote slaves — so the per-PE breakdown in `stats`
    /// agrees with a `--events` stream of the same run.
    pub kernels: KernelStats,
}

impl PeMetric {
    /// Mean measured GCUPS across completions.
    pub fn mean_gcups(&self) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            self.sum_gcups / self.measured as f64
        }
    }
}

/// All service-level counters behind the `stats` verb.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries admitted to the queue.
    pub admitted: u64,
    /// Queries rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Queries rejected by the per-client in-flight limit.
    pub rejected_client_limit: u64,
    /// Queries rejected because the daemon was draining.
    pub rejected_draining: u64,
    /// Queries cancelled (queued or running).
    pub cancelled: u64,
    /// Queries completed (scan or cache).
    pub completed: u64,
    /// Completions answered from the cache.
    pub served_from_cache: u64,
    /// Shard tasks dispatched into the pool (each scans one database shard
    /// for its whole query batch).
    pub fused_tasks: u64,
    /// Queries carried by those tasks, summed: `fused_queries /
    /// fused_tasks` is the achieved fusion factor (1.0 = unfused).
    pub fused_queries: u64,
    /// Terminal jobs evicted from the registry after the retention window.
    pub jobs_expired: u64,
    /// End-to-end latency (admission→reply, cache hits included).
    pub latency: LatencyHistogram,
    /// Cumulative kernel usage across every shard scan (winner or not).
    pub kernels: KernelStats,
    /// Per-PE throughput, indexed by `PeId`. Shared with the engine's
    /// event sink, which is the only writer (see [`fold_event`]); both
    /// sides run under the pool lock, so this lock is never contended.
    pub pes: Arc<Mutex<Vec<PeMetric>>>,
}

/// Fold one runtime event into a per-PE series.
pub fn fold_event(pes: &mut Vec<PeMetric>, event: &RuntimeEvent) {
    match &event.kind {
        EventKind::PeRegistered { pe, name } | EventKind::PeJoined { pe, name } => {
            if pes.len() <= *pe {
                pes.resize_with(pe + 1, PeMetric::default);
            }
            pes[*pe].name = name.clone();
        }
        EventKind::TaskFinished {
            pe, measured_gcups, ..
        } => {
            if pes.len() <= *pe {
                pes.resize_with(pe + 1, PeMetric::default);
            }
            let m = &mut pes[*pe];
            m.tasks_finished += 1;
            if measured_gcups.is_finite() {
                m.sum_gcups += measured_gcups;
                m.measured += 1;
                m.last_gcups = *measured_gcups;
            }
        }
        EventKind::TaskKernels { pe, kernels, .. } => {
            if pes.len() <= *pe {
                pes.resize_with(pe + 1, PeMetric::default);
            }
            pes[*pe].kernels.merge(kernels);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        for ms in [0.5, 1.5, 3.0, 8.0, 900.0] {
            h.observe(ms);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean_ms() - 182.6).abs() < 1e-9);
        assert_eq!(h.quantile_ms(0.5), 5.0); // 3rd of 5 lands in (2, 5]
        assert_eq!(h.quantile_ms(1.0), 1000.0);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64().unwrap(), 5);
        assert_eq!(
            j.get("buckets").unwrap().as_array().unwrap().len(),
            LATENCY_BOUNDS_MS.len()
        );
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let mut h = LatencyHistogram::default();
        h.observe(123_456.0);
        assert_eq!(h.quantile_ms(0.5), 123_456.0);
    }

    #[test]
    fn events_fold_into_pe_metrics() {
        let mut pes = Vec::new();
        fold_event(
            &mut pes,
            &RuntimeEvent {
                time: 0.0,
                kind: EventKind::PeRegistered {
                    pe: 0,
                    name: "cpu0".into(),
                },
            },
        );
        fold_event(
            &mut pes,
            &RuntimeEvent {
                time: 1.0,
                kind: EventKind::TaskFinished {
                    pe: 0,
                    task: 0,
                    winner: true,
                    measured_gcups: 2.0,
                },
            },
        );
        fold_event(
            &mut pes,
            &RuntimeEvent {
                time: 2.0,
                kind: EventKind::TaskFinished {
                    pe: 0,
                    task: 1,
                    winner: false,
                    measured_gcups: 4.0,
                },
            },
        );
        assert_eq!(pes[0].name, "cpu0");
        assert_eq!(pes[0].tasks_finished, 2);
        assert!((pes[0].mean_gcups() - 3.0).abs() < 1e-12);
        assert!((pes[0].last_gcups - 4.0).abs() < 1e-12);
        // NaN measurements (replicas finished without timing) are skipped.
        fold_event(
            &mut pes,
            &RuntimeEvent {
                time: 3.0,
                kind: EventKind::TaskFinished {
                    pe: 0,
                    task: 2,
                    winner: false,
                    measured_gcups: f64::NAN,
                },
            },
        );
        assert_eq!(pes[0].tasks_finished, 3);
        assert!((pes[0].mean_gcups() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn task_kernels_events_fold_into_per_pe_counters() {
        let mut pes = Vec::new();
        let kernels = KernelStats {
            resolved_i8: 7,
            chunks_striped: 2,
            cells_computed: 1234,
            ..Default::default()
        };
        // Arrives before any registration event: the series must grow.
        fold_event(
            &mut pes,
            &RuntimeEvent {
                time: 1.0,
                kind: EventKind::TaskKernels {
                    pe: 1,
                    task: 0,
                    kernels,
                },
            },
        );
        fold_event(
            &mut pes,
            &RuntimeEvent {
                time: 2.0,
                kind: EventKind::TaskKernels {
                    pe: 1,
                    task: 1,
                    kernels,
                },
            },
        );
        assert_eq!(pes[1].kernels.resolved_i8, 14);
        assert_eq!(pes[1].kernels.chunks_striped, 4);
        assert_eq!(pes[1].kernels.cells_computed, 2468);
        assert_eq!(pes[0].kernels, KernelStats::default());
    }
}
