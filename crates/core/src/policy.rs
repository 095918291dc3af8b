//! Task allocation policies (§IV-A).
//!
//! "We do not believe that there is a single task allocation policy that is
//! best suited for all databases and query sequence sizes" — the policy is
//! a *user choice*. Implemented:
//!
//! * [`Policy::SelfScheduling`] — one task per request (§IV-A-1); the
//!   policy of most related work (\[12\], \[14\], \[15\], \[16\], \[17\]),
//! * [`Policy::Pss`] — Package Weighted Adaptive Self-Scheduling
//!   (§IV-A-2): batch = `Allocate(N, pᵢ) × Φ(pᵢ, P)` where `Allocate` is SS
//!   (= 1) and `Φ` scales by the PE's Ω-window weighted-mean speed relative
//!   to the slowest live PE — exactly the behaviour of the paper's Fig. 5
//!   (GPU 6× faster than an SSE core receives 6 tasks at once),
//! * [`Policy::Fixed`] — even up-front split (Singh & Aruni \[10\], who
//!   "assume that multicores and accelerators have the same processing
//!   power"),
//! * [`Policy::WFixed`] — up-front split proportional to *theoretical*
//!   speed (Meng & Chaudhary's configuration-file weights \[13\]).

use crate::task::PeId;

/// The allocation policy selected by the user.
///
/// ```
/// use swhybrid_core::policy::Policy;
///
/// // Fig. 5: a GPU observed 6x faster than the slowest PE gets 6 tasks.
/// let pss = Policy::pss_default();
/// let speeds = [6.0, 1.0, 1.0, 1.0];
/// let alive = [true; 4];
/// assert_eq!(pss.batch_size(0, &speeds, &alive), 6);
/// assert_eq!(pss.batch_size(1, &speeds, &alive), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// One task per request.
    SelfScheduling,
    /// Package Weighted Adaptive Self-Scheduling with window `omega`.
    Pss {
        /// Notification window Ω (≥ 1).
        omega: usize,
    },
    /// Static even split across PEs at start; nothing afterwards.
    Fixed,
    /// Static split proportional to the registered theoretical GCUPS.
    WFixed,
}

impl Policy {
    /// The paper's default: PSS with a moderate window.
    pub fn pss_default() -> Policy {
        Policy::Pss { omega: 5 }
    }

    /// Whether the policy allocates everything up-front.
    pub fn is_static(&self) -> bool {
        matches!(self, Policy::Fixed | Policy::WFixed)
    }

    /// The Ω window used for speed statistics (dynamic policies).
    pub fn omega(&self) -> usize {
        match self {
            Policy::Pss { omega } => *omega,
            _ => 5,
        }
    }

    /// Batch size for a *dynamic* request: `speeds[pe]` is the current
    /// estimated GCUPS of each registered PE (index = PeId), `alive[pe]`
    /// says whether the PE still participates.
    ///
    /// For static policies this returns 0 — quotas are computed once by
    /// [`Policy::static_quotas`].
    pub fn batch_size(&self, pe: PeId, speeds: &[f64], alive: &[bool]) -> usize {
        match self {
            Policy::SelfScheduling => 1,
            Policy::Pss { .. } => {
                let min_alive = speeds
                    .iter()
                    .zip(alive)
                    .filter(|&(_, &a)| a)
                    .map(|(&s, _)| s)
                    .fold(f64::INFINITY, f64::min);
                if !min_alive.is_finite() || min_alive <= 0.0 {
                    return 1;
                }
                let phi = (speeds[pe] / min_alive).round() as usize;
                phi.max(1)
            }
            Policy::Fixed | Policy::WFixed => 0,
        }
    }

    /// Up-front quotas for static policies: `total` tasks split across the
    /// PEs (by weight for WFixed, evenly for Fixed). Quotas sum to `total`;
    /// remainders go to the highest-weight PEs (ties: lowest id).
    pub fn static_quotas(&self, total: usize, static_gcups: &[f64]) -> Vec<usize> {
        let p = static_gcups.len();
        assert!(p > 0, "at least one PE required");
        let weights: Vec<f64> = match self {
            Policy::Fixed => vec![1.0; p],
            Policy::WFixed => static_gcups.to_vec(),
            _ => panic!("static_quotas is only defined for static policies"),
        };
        let wsum: f64 = weights.iter().sum();
        assert!(wsum > 0.0, "weights must be positive");
        // Largest-remainder apportionment.
        let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / wsum).collect();
        let mut quotas: Vec<usize> = exact.iter().map(|&e| e.floor() as usize).collect();
        let assigned: usize = quotas.iter().sum();
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| {
            let ra = exact[a] - exact[a].floor();
            let rb = exact[b] - exact[b].floor();
            rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
        });
        for &i in order.iter().take(total - assigned) {
            quotas[i] += 1;
        }
        quotas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ss_is_always_one() {
        let p = Policy::SelfScheduling;
        assert_eq!(p.batch_size(0, &[100.0, 1.0], &[true, true]), 1);
        assert_eq!(p.batch_size(1, &[100.0, 1.0], &[true, true]), 1);
        assert!(!p.is_static());
    }

    #[test]
    fn pss_fig5_worked_example() {
        // Fig. 5: 1 GPU 6× faster than 3 SSE cores → GPU gets 6 tasks,
        // each SSE core gets 1.
        let p = Policy::pss_default();
        let speeds = [6.0, 1.0, 1.0, 1.0];
        let alive = [true; 4];
        assert_eq!(p.batch_size(0, &speeds, &alive), 6);
        for pe in 1..4 {
            assert_eq!(p.batch_size(pe, &speeds, &alive), 1);
        }
    }

    #[test]
    fn pss_rounds_ratio() {
        let p = Policy::pss_default();
        let alive = [true, true];
        assert_eq!(p.batch_size(0, &[2.4, 1.0], &alive), 2);
        assert_eq!(p.batch_size(0, &[2.6, 1.0], &alive), 3);
        // A PE slower than the minimum still gets at least one task.
        assert_eq!(p.batch_size(1, &[10.0, 0.4], &[true, true]), 1);
    }

    #[test]
    fn pss_ignores_dead_pes_for_minimum() {
        let p = Policy::pss_default();
        // PE 1 is dead; minimum alive speed is 5.0, not 1.0.
        let speeds = [10.0, 1.0, 5.0];
        let alive = [true, false, true];
        assert_eq!(p.batch_size(0, &speeds, &alive), 2);
    }

    #[test]
    fn pss_degenerate_speeds_fall_back_to_one() {
        let p = Policy::pss_default();
        assert_eq!(p.batch_size(0, &[0.0, 0.0], &[true, true]), 1);
        assert_eq!(p.batch_size(0, &[5.0], &[false]), 1);
    }

    #[test]
    fn fixed_quotas_even() {
        let q = Policy::Fixed.static_quotas(10, &[30.0, 2.7, 2.7]);
        assert_eq!(q.iter().sum::<usize>(), 10);
        assert_eq!(q, vec![4, 3, 3]);
    }

    #[test]
    fn wfixed_quotas_proportional() {
        let q = Policy::WFixed.static_quotas(12, &[30.0, 3.0, 3.0]);
        assert_eq!(q.iter().sum::<usize>(), 12);
        // 30:3:3 → 10:1:1.
        assert_eq!(q, vec![10, 1, 1]);
    }

    #[test]
    fn quotas_handle_remainders() {
        let q = Policy::WFixed.static_quotas(10, &[2.0, 1.0, 1.0]);
        assert_eq!(q.iter().sum::<usize>(), 10);
        assert_eq!(q[0], 5);
        assert_eq!(q[1] + q[2], 5);
    }

    #[test]
    fn quotas_with_more_pes_than_tasks() {
        let q = Policy::Fixed.static_quotas(2, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(q.iter().sum::<usize>(), 2);
        assert!(q.iter().all(|&x| x <= 1));
    }

    #[test]
    #[should_panic(expected = "only defined for static")]
    fn dynamic_policy_has_no_quotas() {
        Policy::SelfScheduling.static_quotas(5, &[1.0]);
    }

    #[test]
    fn omega_accessor() {
        assert_eq!(Policy::Pss { omega: 9 }.omega(), 9);
        assert_eq!(Policy::pss_default().omega(), 5);
    }
}
