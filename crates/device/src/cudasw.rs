//! Structural simulation of one CUDASW++ 2.0 invocation.
//!
//! [`crate::perfmodel`] gives the *aggregate* throughput curve the platform
//! experiments need; this module models *why* that curve looks the way it
//! does, reproducing the internal organisation Liu et al. (2010) describe:
//!
//! 1. the database is **sorted by subject length**;
//! 2. subjects ≤ a length threshold go to the **inter-task** kernel: one
//!    thread per subject (virtualised-SIMD SIMT), so a warp's cost is its
//!    *longest* member — length skew inside a warp is divergence waste,
//!    and sorting is what keeps warps homogeneous;
//! 3. longer subjects go to the **intra-task** kernel: one block
//!    cooperates on a single alignment at reduced efficiency;
//! 4. the device only reaches peak throughput when enough warps are in
//!    flight to saturate the SMs (**occupancy** ramp) — the physical origin
//!    of the `db_fill` term in the aggregate model.
//!
//! The device's peak and per-invocation startup are the GTX 580 row of
//! the calibration table ([`PerfModel::of`]); the plan's `seconds`
//! estimate and that aggregate curve are cross-validated in the tests.

use crate::perfmodel::PerfModel;
use crate::task::DeviceKind;

/// Subject-length threshold between CUDASW++ 2.0's inter-task and
/// intra-task kernels (Liu et al. 2010 use 3,072).
const INTER_INTRA_THRESHOLD: usize = 3072;

/// Configuration of the simulated device/kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct CudaswSim {
    /// Subject-length threshold between the two kernels.
    pub threshold: usize,
    /// Threads per warp (cost quantum of the inter-task kernel).
    pub warp: usize,
    /// Peak aggregate GCUPS with saturated occupancy.
    pub peak_gcups: f64,
    /// Relative efficiency of the intra-task kernel (block-wide barriers).
    pub intra_efficiency: f64,
    /// Warps in flight needed for full occupancy (SMs × resident warps).
    pub full_occupancy_warps: usize,
    /// Fixed per-invocation seconds (process + context + transfer base).
    pub startup_seconds: f64,
}

impl Default for CudaswSim {
    fn default() -> Self {
        CudaswSim::gtx580()
    }
}

impl CudaswSim {
    /// A GTX 580 (16 SMs, Fermi-class residency) with the GPU row's peak
    /// and startup.
    pub fn gtx580() -> CudaswSim {
        let row = PerfModel::of(DeviceKind::Gpu);
        CudaswSim {
            threshold: INTER_INTRA_THRESHOLD,
            warp: 32,
            peak_gcups: row.peak_gcups,
            intra_efficiency: 0.55,
            full_occupancy_warps: 16 * 48,
            startup_seconds: row.startup_seconds,
        }
    }

    /// Plan one invocation: `query_len` against subjects of the given
    /// lengths. Set `presorted` to false to model a database that was *not*
    /// length-sorted (the ablation shows why CUDASW++ sorts).
    pub fn plan(&self, query_len: usize, subject_lengths: &[usize], presorted: bool) -> CudaswPlan {
        let mut lengths: Vec<usize> = subject_lengths.to_vec();
        if presorted {
            lengths.sort_unstable();
        }
        let split = lengths.partition_point(|&l| l <= self.threshold);
        let (short, long) = lengths.split_at(split);

        // Inter-task kernel: warps of `warp` subjects; each warp costs its
        // longest member for every lane.
        let mut padded_cells: u64 = 0;
        let mut actual_short_cells: u64 = 0;
        let mut warps = 0usize;
        for chunk in short.chunks(self.warp) {
            let maxl = *chunk.iter().max().expect("chunks are non-empty") as u64;
            padded_cells += maxl * self.warp as u64 * query_len as u64;
            actual_short_cells += chunk.iter().map(|&l| l as u64).sum::<u64>() * query_len as u64;
            warps += 1;
        }

        // Intra-task kernel: one block per subject, reduced efficiency.
        let long_cells: u64 = long.iter().map(|&l| l as u64).sum::<u64>() * query_len as u64;

        let occupancy = if warps == 0 {
            1.0
        } else {
            (warps as f64 / self.full_occupancy_warps as f64).min(1.0)
        };
        // Occupancy below ~10% is clamped: even one block keeps some SMs hot.
        let occ_eff = occupancy.max(0.1);
        let inter_seconds = padded_cells as f64 / (self.peak_gcups * 1e9 * occ_eff);
        let intra_seconds = long_cells as f64 / (self.peak_gcups * 1e9 * self.intra_efficiency);
        let actual_cells = actual_short_cells + long_cells;

        CudaswPlan {
            inter_subjects: short.len(),
            intra_subjects: long.len(),
            warps,
            actual_cells,
            padded_cells: padded_cells + long_cells,
            occupancy,
            seconds: self.startup_seconds + inter_seconds + intra_seconds,
        }
    }
}

/// The outcome of planning one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CudaswPlan {
    /// Subjects handled by the inter-task (SIMT) kernel.
    pub inter_subjects: usize,
    /// Subjects handled by the intra-task (cooperative) kernel.
    pub intra_subjects: usize,
    /// Inter-task warps launched.
    pub warps: usize,
    /// Useful DP cells.
    pub actual_cells: u64,
    /// Cells actually computed including warp-divergence padding.
    pub padded_cells: u64,
    /// Fraction of full SM occupancy achieved by the inter-task grid.
    pub occupancy: f64,
    /// Estimated wall seconds for the invocation.
    pub seconds: f64,
}

impl CudaswPlan {
    /// Divergence waste: computed cells / useful cells (≥ 1).
    pub fn waste_factor(&self) -> f64 {
        if self.actual_cells == 0 {
            1.0
        } else {
            self.padded_cells as f64 / self.actual_cells as f64
        }
    }

    /// Effective useful GCUPS of the invocation.
    pub fn gcups(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.actual_cells as f64 / self.seconds / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swhybrid_seq::synth::paper_database;

    fn dog_lengths() -> Vec<usize> {
        paper_database("dog")
            .expect("preset exists")
            .generate_scaled(5, 0.06) // ~1,500 sequences
            .sequences
            .iter()
            .map(|s| s.len())
            .collect()
    }

    #[test]
    fn split_respects_threshold() {
        let sim = CudaswSim::gtx580();
        let lengths = vec![100, 200, 4000, 3072, 3073, 50];
        let plan = sim.plan(1000, &lengths, true);
        assert_eq!(plan.inter_subjects, 4);
        assert_eq!(plan.intra_subjects, 2);
        assert_eq!(plan.warps, 1);
    }

    #[test]
    fn sorting_reduces_divergence_waste() {
        // The reason CUDASW++ sorts its database: warps of like-sized
        // subjects waste almost nothing; shuffled warps pay for their
        // longest member.
        let sim = CudaswSim::gtx580();
        let mut lengths = dog_lengths();
        let sorted = sim.plan(1000, &lengths, true);
        // A deterministic interleave: short/long alternating (worst-ish).
        lengths.sort_unstable();
        let n = lengths.len();
        let mut shuffled = Vec::with_capacity(n);
        let (lo, hi) = lengths.split_at(n / 2);
        for i in 0..n / 2 {
            shuffled.push(lo[i]);
            shuffled.push(hi[hi.len() - 1 - i]);
        }
        let unsorted = sim.plan(1000, &shuffled, false);
        assert!(
            sorted.waste_factor() < unsorted.waste_factor() * 0.9,
            "sorted {} vs unsorted {}",
            sorted.waste_factor(),
            unsorted.waste_factor()
        );
        assert!(sorted.seconds < unsorted.seconds);
        // Useful cells are identical either way.
        assert_eq!(sorted.actual_cells, unsorted.actual_cells);
    }

    #[test]
    fn sorted_waste_is_small() {
        let sim = CudaswSim::gtx580();
        let plan = sim.plan(1000, &dog_lengths(), true);
        assert!(plan.waste_factor() < 1.35, "waste {}", plan.waste_factor());
    }

    #[test]
    fn occupancy_ramps_with_database_size() {
        let sim = CudaswSim::gtx580();
        let small = sim.plan(1000, &vec![300; 64], true); // 2 warps
        let big = sim.plan(1000, &vec![300; 64 * 1000], true); // 2000 warps
        assert!(small.occupancy < 0.01);
        assert!((big.occupancy - 1.0).abs() < 1e-9);
        assert!(small.gcups() < big.gcups());
    }

    #[test]
    fn plan_agrees_with_aggregate_model_on_dog_scale() {
        // The structural simulation and the calibrated aggregate curve must
        // land in the same ballpark for a realistic database (they were
        // fitted to the same published numbers).
        let sim = CudaswSim::gtx580();
        let lengths: Vec<usize> = paper_database("dog")
            .expect("preset exists")
            .generate_scaled(5, 1.0 / 8.0)
            .sequences
            .iter()
            .map(|s| s.len())
            .collect();
        let plan = sim.plan(2550, &lengths, true);
        let aggregate = PerfModel::of(DeviceKind::Gpu);
        let agg_secs = aggregate.startup(plan.actual_cells / 2550)
            + plan.actual_cells as f64 / aggregate.effective_rate(2550, lengths.len());
        let ratio = plan.seconds / agg_secs;
        assert!(
            (0.4..2.5).contains(&ratio),
            "structural {} vs aggregate {agg_secs}",
            plan.seconds
        );
    }

    #[test]
    fn empty_database_costs_startup_only() {
        let sim = CudaswSim::gtx580();
        let plan = sim.plan(500, &[], true);
        assert_eq!(plan.actual_cells, 0);
        assert_eq!(plan.waste_factor(), 1.0);
        assert!((plan.seconds - sim.startup_seconds).abs() < 1e-12);
    }
}
