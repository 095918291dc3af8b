//! Dynamic membership — PEs joining and leaving mid-run.
//!
//! The paper's §VI lists "tackle situations where nodes join/leave the
//! platform while an SW application is executing" as future work. The
//! mechanics live in [`crate::sched::Scheduler::pe_joins`] /
//! [`crate::sched::Scheduler::pe_leaves`] and the simulator's `Join`/`Leave`
//! events; this module provides the user-facing description of a membership
//! scenario plus helpers to attach one to a platform.

use crate::sim::SimPe;

/// A membership plan for one PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Membership {
    /// When the PE joins (0.0 = present from the start).
    pub join_at: f64,
    /// When the PE leaves, if it does.
    pub leave_at: Option<f64>,
}

impl Default for Membership {
    fn default() -> Self {
        Membership {
            join_at: 0.0,
            leave_at: None,
        }
    }
}

impl Membership {
    /// Present for the whole run.
    pub fn permanent() -> Membership {
        Membership::default()
    }

    /// Joins late.
    pub fn joining_at(t: f64) -> Membership {
        assert!(t >= 0.0, "join time must be non-negative");
        Membership {
            join_at: t,
            leave_at: None,
        }
    }

    /// Leaves early.
    pub fn leaving_at(t: f64) -> Membership {
        assert!(t > 0.0, "leave time must be positive");
        Membership {
            join_at: 0.0,
            leave_at: Some(t),
        }
    }

    /// A window of presence.
    pub fn window(join: f64, leave: f64) -> Membership {
        assert!(leave > join, "leave must follow join");
        Membership {
            join_at: join,
            leave_at: Some(leave),
        }
    }

    /// Apply the plan to a simulated PE.
    pub fn apply(self, mut pe: SimPe) -> SimPe {
        pe.join_at = self.join_at;
        pe.leave_at = self.leave_at;
        pe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swhybrid_device::cpu::CpuSseDevice;

    #[test]
    fn constructors() {
        assert_eq!(Membership::permanent().join_at, 0.0);
        assert_eq!(Membership::joining_at(5.0).join_at, 5.0);
        assert_eq!(Membership::leaving_at(9.0).leave_at, Some(9.0));
        let w = Membership::window(2.0, 8.0);
        assert_eq!((w.join_at, w.leave_at), (2.0, Some(8.0)));
    }

    #[test]
    #[should_panic(expected = "leave must follow join")]
    fn inverted_window_rejected() {
        Membership::window(8.0, 2.0);
    }

    #[test]
    fn apply_sets_fields() {
        let pe = SimPe::new("x", Arc::new(CpuSseDevice::i7_core("x")));
        let pe = Membership::window(1.0, 4.0).apply(pe);
        assert_eq!(pe.join_at, 1.0);
        assert_eq!(pe.leave_at, Some(4.0));
    }
}
