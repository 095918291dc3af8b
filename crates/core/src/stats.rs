//! Per-PE observed-speed statistics — the Ω-window weighted mean of PSS.
//!
//! "To distribute tasks to PEs, the master analyzes periodic notifications
//! sent by the slave PEs, reporting the progress in processing tasks. It
//! then calculates the weighted mean from the last Ω notifications sent by
//! each pᵢ slave PE. A small Ω indicates that only very recent histories
//! will be considered … high values for Ω indicate that not only recent
//! histories will be considered but also older ones." (§IV-A-2)
//!
//! The weights are linear-decay: the most recent of the Ω retained samples
//! has weight Ω, the oldest weight 1.

use std::collections::VecDeque;

/// Smallest duration (seconds) a real runtime will divide by when turning a
/// completed task into a speed observation.
///
/// Wall-clock timers can report a zero (or denormal) elapsed time for a tiny
/// task. Reporting `0.0` GCUPS for such a completion used to *poison* the
/// Ω-window mean: an instantaneously-finished task — the strongest possible
/// evidence of a *fast* PE — dragged its speed estimate towards zero.
/// Clamping the denominator turns the same measurement into a very large
/// (but finite, so not discarded by [`PeSpeedStats::observe`]) speed.
pub const MIN_MEASURED_SECONDS: f64 = 1e-6;

/// Convert a completed task's `cells` / `seconds` measurement into a GCUPS
/// observation, clamping the duration to [`MIN_MEASURED_SECONDS`].
///
/// Every real PE (local fleet threads, daemon workers, TCP slaves) reports
/// task speeds through this helper; the virtual-time simulator keeps its own
/// exact arithmetic.
pub fn observed_gcups(cells: u64, seconds: f64) -> f64 {
    cells as f64 / seconds.max(MIN_MEASURED_SECONDS) / 1e9
}

/// Observed-speed history of one PE.
#[derive(Debug, Clone)]
pub struct PeSpeedStats {
    /// Static (theoretical) GCUPS supplied at registration; used until the
    /// first observation arrives.
    pub static_gcups: f64,
    omega: usize,
    /// GCUPS samples, oldest first, at most `omega` retained.
    samples: VecDeque<f64>,
    /// The weighted mean of `samples`, recomputed on every observation:
    /// the scheduler reads it for every PE on every decision, far more
    /// often than a notification arrives.
    mean: f64,
}

impl PeSpeedStats {
    /// New history with window `omega` (≥ 1) and a static prior.
    pub fn new(static_gcups: f64, omega: usize) -> PeSpeedStats {
        assert!(omega >= 1, "Ω must be at least 1");
        assert!(static_gcups > 0.0, "static speed must be positive");
        PeSpeedStats {
            static_gcups,
            omega,
            samples: VecDeque::with_capacity(omega),
            mean: static_gcups,
        }
    }

    /// Record an observation (a progress notification or a completed task's
    /// implicit speed report).
    pub fn observe(&mut self, gcups: f64) {
        if !(gcups.is_finite() && gcups >= 0.0) {
            return; // ignore degenerate observations
        }
        if self.samples.len() == self.omega {
            self.samples.pop_front();
        }
        self.samples.push_back(gcups);
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &g) in self.samples.iter().enumerate() {
            let w = (i + 1) as f64; // oldest weight 1, newest weight len
            num += w * g;
            den += w;
        }
        self.mean = num / den;
    }

    /// Whether any observation has been recorded.
    pub fn has_observations(&self) -> bool {
        !self.samples.is_empty()
    }

    /// The Ω-window linearly-weighted mean speed, or the static prior when
    /// no observation exists yet.
    pub fn weighted_mean_gcups(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_used_until_first_observation() {
        let s = PeSpeedStats::new(30.0, 4);
        assert_eq!(s.weighted_mean_gcups(), 30.0);
        assert!(!s.has_observations());
    }

    #[test]
    fn single_observation_replaces_prior() {
        let mut s = PeSpeedStats::new(30.0, 4);
        s.observe(2.0);
        assert_eq!(s.weighted_mean_gcups(), 2.0);
    }

    #[test]
    fn recent_samples_weigh_more() {
        let mut s = PeSpeedStats::new(1.0, 3);
        s.observe(10.0);
        s.observe(10.0);
        // Speed collapses. Weighted mean (1*10 + 2*10 + 3*1) / 6 = 33/6 =
        // 5.5 — well below the plain mean 7.0: the collapse is noticed
        // quickly.
        s.observe(1.0);
        assert!((s.weighted_mean_gcups() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut s = PeSpeedStats::new(1.0, 2);
        s.observe(100.0);
        s.observe(4.0);
        s.observe(4.0);
        assert_eq!(s.samples.len(), 2);
        // The 100.0 sample fell out of the window entirely.
        assert!((s.weighted_mean_gcups() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn small_omega_adapts_faster_than_large() {
        let mut fast = PeSpeedStats::new(1.0, 2);
        let mut slow = PeSpeedStats::new(1.0, 10);
        for _ in 0..10 {
            fast.observe(10.0);
            slow.observe(10.0);
        }
        fast.observe(1.0);
        slow.observe(1.0);
        assert!(fast.weighted_mean_gcups() < slow.weighted_mean_gcups());
    }

    #[test]
    fn degenerate_observations_ignored() {
        let mut s = PeSpeedStats::new(5.0, 3);
        s.observe(f64::NAN);
        s.observe(-3.0);
        s.observe(f64::INFINITY);
        assert!(!s.has_observations());
        assert_eq!(s.weighted_mean_gcups(), 5.0);
    }

    #[test]
    #[should_panic(expected = "Ω must be at least 1")]
    fn zero_omega_rejected() {
        PeSpeedStats::new(1.0, 0);
    }

    #[test]
    fn zero_duration_completion_never_lowers_the_estimate() {
        // Regression for the PSS-poisoning bug: a task that completes in
        // less than the timer resolution must raise (or leave) the speed
        // estimate, never drag it towards zero.
        let mut s = PeSpeedStats::new(30.0, 4);
        s.observe(25.0);
        let before = s.weighted_mean_gcups();
        let g = observed_gcups(1_000_000, 0.0);
        assert!(g.is_finite() && g > 0.0);
        s.observe(g);
        assert!(
            s.weighted_mean_gcups() >= before,
            "zero-duration completion lowered the estimate: {} -> {}",
            before,
            s.weighted_mean_gcups()
        );
    }

    #[test]
    fn observed_gcups_matches_plain_division_for_normal_durations() {
        let g = observed_gcups(2_000_000_000, 2.0);
        assert!((g - 1.0).abs() < 1e-12);
    }
}
