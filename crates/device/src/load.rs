//! External-load schedules for non-dedicated platforms.
//!
//! The paper's §V-C evaluates PSS on a non-dedicated machine by starting the
//! compute-bound `superpi` benchmark on core 0 after 60 s: that core's GCUPS
//! drops to "less than a half". A [`LoadSchedule`] is the simulation-side
//! equivalent: a step function of throughput multipliers over (virtual)
//! time. The simulator multiplies a PE's dedicated rate by the schedule to
//! obtain its momentary effective rate, and integrates across steps to
//! compute completion times.

/// A piecewise-constant throughput multiplier over time.
///
/// Each entry `(t, m)` means "from time `t` onwards the PE runs at `m` × its
/// dedicated rate". Times are strictly increasing; the multiplier before the
/// first entry is 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSchedule {
    steps: Vec<(f64, f64)>,
}

impl Default for LoadSchedule {
    fn default() -> Self {
        LoadSchedule::dedicated()
    }
}

impl LoadSchedule {
    /// No external load, ever.
    pub fn dedicated() -> LoadSchedule {
        LoadSchedule { steps: Vec::new() }
    }

    /// Build from explicit steps.
    ///
    /// # Panics
    /// Panics on non-increasing times or non-positive multipliers.
    pub fn from_steps(steps: Vec<(f64, f64)>) -> LoadSchedule {
        let mut prev = f64::NEG_INFINITY;
        for &(t, m) in &steps {
            assert!(t > prev, "step times must be strictly increasing");
            assert!(m > 0.0, "multiplier must be positive (got {m})");
            prev = t;
        }
        LoadSchedule { steps }
    }

    /// The paper's §V-C scenario: full speed until `at`, then `multiplier`.
    pub fn step_at(at: f64, multiplier: f64) -> LoadSchedule {
        LoadSchedule::from_steps(vec![(at, multiplier)])
    }

    /// The multiplier in effect at time `t`.
    pub fn multiplier_at(&self, t: f64) -> f64 {
        let mut m = 1.0;
        for &(start, mult) in &self.steps {
            if t >= start {
                m = mult;
            } else {
                break;
            }
        }
        m
    }

    /// The next change strictly after `t`, if any.
    pub fn next_change_after(&self, t: f64) -> Option<f64> {
        self.steps.iter().map(|&(s, _)| s).find(|&s| s > t)
    }

    /// Work units completed between `from` and `to` at a dedicated rate of
    /// `rate` units/second under this schedule.
    pub fn work_done(&self, from: f64, to: f64, rate: f64) -> f64 {
        assert!(to >= from, "interval must be forward");
        let mut done = 0.0;
        let mut t = from;
        while t < to {
            let seg_end = self.next_change_after(t).filter(|&c| c < to).unwrap_or(to);
            done += (seg_end - t) * rate * self.multiplier_at(t);
            t = seg_end;
        }
        done
    }

    /// Time at which `work` units complete, starting at `from` with a
    /// dedicated rate of `rate` units/second.
    pub fn finish_time(&self, from: f64, work: f64, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        if work <= 0.0 {
            return from;
        }
        let mut t = from;
        let mut remaining = work;
        loop {
            let m = self.multiplier_at(t);
            let seg_rate = rate * m;
            match self.next_change_after(t) {
                Some(change) => {
                    let seg_capacity = (change - t) * seg_rate;
                    if seg_capacity >= remaining {
                        return t + remaining / seg_rate;
                    }
                    remaining -= seg_capacity;
                    t = change;
                }
                None => return t + remaining / seg_rate,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_is_identity() {
        let l = LoadSchedule::dedicated();
        assert_eq!(l.multiplier_at(0.0), 1.0);
        assert_eq!(l.multiplier_at(1e9), 1.0);
        assert!((l.finish_time(5.0, 10.0, 2.0) - 10.0).abs() < 1e-12);
        assert!((l.work_done(0.0, 4.0, 3.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn step_at_halves_rate() {
        let l = LoadSchedule::step_at(60.0, 0.5);
        assert_eq!(l.multiplier_at(59.9), 1.0);
        assert_eq!(l.multiplier_at(60.0), 0.5);
        // 100 units at rate 1 starting at t=0: 60 done by t=60, remaining
        // 40 at half speed takes 80 s → finish at 140.
        assert!((l.finish_time(0.0, 100.0, 1.0) - 140.0).abs() < 1e-9);
    }

    #[test]
    fn finish_before_step_is_unaffected() {
        let l = LoadSchedule::step_at(60.0, 0.5);
        assert!((l.finish_time(0.0, 30.0, 1.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn work_done_integrates_across_steps() {
        let l = LoadSchedule::from_steps(vec![(10.0, 0.5), (20.0, 2.0)]);
        // [0,10): ×1 → 10; [10,20): ×0.5 → 5; [20,30): ×2 → 20. Total 35.
        assert!((l.work_done(0.0, 30.0, 1.0) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn work_done_and_finish_time_are_inverse() {
        let l = LoadSchedule::from_steps(vec![(3.0, 0.25), (9.0, 1.5)]);
        for &(from, work, rate) in &[(0.0, 7.0, 1.3), (2.5, 20.0, 0.7), (10.0, 4.0, 2.0)] {
            let end = l.finish_time(from, work, rate);
            let back = l.work_done(from, end, rate);
            assert!((back - work).abs() < 1e-9, "work {work} → {back}");
        }
    }

    #[test]
    fn next_change_after_steps() {
        let l = LoadSchedule::from_steps(vec![(5.0, 0.5), (15.0, 1.0)]);
        assert_eq!(l.next_change_after(5.0), Some(15.0));
        assert_eq!(l.next_change_after(15.0), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_steps_rejected() {
        LoadSchedule::from_steps(vec![(5.0, 0.5), (5.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "multiplier must be positive")]
    fn zero_multiplier_rejected() {
        LoadSchedule::from_steps(vec![(5.0, 0.0)]);
    }
}
