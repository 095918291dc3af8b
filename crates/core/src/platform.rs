//! The public facade: describe a hybrid platform, run a workload.
//!
//! ```
//! use swhybrid_core::platform::PlatformBuilder;
//! use swhybrid_core::policy::Policy;
//! use swhybrid_device::DeviceKind;
//! use swhybrid_seq::synth::{paper_database, QuerySetSpec};
//!
//! let sw = paper_database("swissprot").unwrap().full_scale_stats();
//! let workload = PlatformBuilder::workload(&sw, &QuerySetSpec::paper(), 0);
//! let outcome = PlatformBuilder::new()
//!     .add(DeviceKind::Gpu, 4)
//!     .add(DeviceKind::SseCore, 4)
//!     .policy(Policy::pss_default())
//!     .adjustment(true)
//!     .run(workload);
//! assert!(outcome.report.makespan > 0.0);
//! ```

use crate::policy::Policy;
use crate::sim::{SimConfig, SimPe, SimReport, Simulator};
use crate::trace::Trace;
use swhybrid_device::load::LoadSchedule;
use swhybrid_device::task::{Device, DeviceKind, TaskSpec};
use swhybrid_device::FleetSpec;
use swhybrid_seq::db::DbStats;
use swhybrid_seq::synth::QuerySetSpec;

/// Outcome of a platform run: the report plus a configuration echo.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// A short human-readable description, e.g. `"4 GPUs + 4 SSEs"`.
    pub platform: String,
    /// The simulation report (PE ids are the order PEs were added in).
    pub report: SimReport,
}

impl SimOutcome {
    /// Wall-clock (virtual) seconds.
    pub fn seconds(&self) -> f64 {
        self.report.makespan
    }

    /// Useful GCUPS.
    pub fn gcups(&self) -> f64 {
        self.report.gcups
    }
}

/// Builder for simulated hybrid platforms.
#[derive(Clone)]
pub struct PlatformBuilder {
    pes: Vec<SimPe>,
    config: SimConfig,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        PlatformBuilder::new()
    }
}

impl PlatformBuilder {
    /// Empty platform, PSS + adjustment defaults.
    pub fn new() -> PlatformBuilder {
        PlatformBuilder {
            pes: Vec::new(),
            config: SimConfig::default(),
        }
    }

    /// Add `n` PEs of `kind` on the kind's calibrated row, numbered after
    /// the ones already present (`gpu0`, `gpu1`, …).
    pub fn add(mut self, kind: DeviceKind, n: usize) -> Self {
        let first = self.count(kind);
        for i in first..first + n {
            self.pes
                .push(SimPe::new(Device::new(kind.pe_name(i), kind)));
        }
        self
    }

    fn count(&self, kind: DeviceKind) -> usize {
        self.pes.iter().filter(|p| p.device.kind == kind).count()
    }

    /// Add an arbitrary PE.
    pub fn pe(mut self, pe: SimPe) -> Self {
        self.pes.push(pe);
        self
    }

    /// Add every PE of a parsed fleet spec, in written order — the same
    /// `sse:8+gpu:2` spec the real runtimes (`master --fleet`, `serve
    /// --fleet`) accept, so a simulated platform and a real hybrid run can
    /// be configured from one string.
    pub fn fleet(mut self, spec: &FleetSpec) -> Self {
        for &(kind, count) in spec.entries() {
            self = self.add(kind, count);
        }
        self
    }

    /// Select the allocation policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.master.policy = policy;
        self
    }

    /// Enable/disable the workload adjustment mechanism.
    pub fn adjustment(mut self, on: bool) -> Self {
        self.config.master.adjustment = on;
        self
    }

    /// Select the ready-queue dispatch order (extension; the paper's
    /// behaviour is [`crate::sched::Dispatch::FileOrder`]).
    pub fn dispatch(mut self, dispatch: crate::sched::Dispatch) -> Self {
        self.config.master.dispatch = dispatch;
        self
    }

    /// Progress-notification period (seconds).
    pub fn notify_interval(mut self, seconds: f64) -> Self {
        self.config.notify_interval = seconds;
        self
    }

    /// Master↔slave one-way latency (seconds).
    pub fn comm_latency(mut self, seconds: f64) -> Self {
        self.config.comm_latency = seconds;
        self
    }

    /// Attach a load schedule to PE `index`.
    pub fn load_on(mut self, index: usize, load: LoadSchedule) -> Self {
        self.pes[index].load = load;
        self
    }

    /// PE `index` is present from `join_at` (0.0 = from the start) until
    /// `leave_at`, if it leaves (the paper's §VI future work: nodes joining
    /// and leaving while an application runs).
    pub fn membership(mut self, index: usize, join_at: f64, leave_at: Option<f64>) -> Self {
        assert!(join_at >= 0.0, "join time must be non-negative");
        assert!(
            leave_at.is_none_or(|leave| leave > join_at),
            "leave must follow join"
        );
        self.pes[index].join_at = join_at;
        self.pes[index].leave_at = leave_at;
        self
    }

    /// Build the workload for a database and query set: one task per query,
    /// in file order.
    pub fn workload(db: &DbStats, queries: &QuerySetSpec, seed: u64) -> Vec<TaskSpec> {
        queries
            .lengths(seed)
            .into_iter()
            .enumerate()
            .map(|(id, query_len)| TaskSpec {
                id,
                query_len,
                queries: 1,
                db_residues: db.total_residues,
                db_sequences: db.num_sequences,
            })
            .collect()
    }

    /// A short description like `"2 GPUs + 4 SSEs"`: PE counts by kind,
    /// always GPU → SSE → FPGA whatever the order they were added in.
    pub fn describe(&self) -> String {
        DeviceKind::ALL
            .into_iter()
            .map(|kind| (kind, self.count(kind)))
            .filter(|&(_, n)| n > 0)
            .map(|(kind, n)| format!("{n} {kind}{}", if n == 1 { "" } else { "s" }))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Run the workload to completion under virtual time.
    pub fn run(self, workload: Vec<TaskSpec>) -> SimOutcome {
        let platform = self.describe();
        let report = Simulator::new(self.pes, workload, self.config).run();
        SimOutcome { platform, report }
    }

    /// [`PlatformBuilder::run`], also returning the run's Gantt segments and
    /// notification series ([`Simulator::run_traced`]).
    pub fn run_traced(self, workload: Vec<TaskSpec>) -> (SimOutcome, Trace) {
        let platform = self.describe();
        let (report, trace) = Simulator::new(self.pes, workload, self.config).run_traced();
        (SimOutcome { platform, report }, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swhybrid_seq::synth::paper_database;

    fn swissprot() -> DbStats {
        paper_database("swissprot").unwrap().full_scale_stats()
    }

    #[test]
    #[should_panic(expected = "leave must follow join")]
    fn inverted_membership_window_rejected() {
        PlatformBuilder::new()
            .add(DeviceKind::Gpu, 1)
            .membership(0, 8.0, Some(2.0));
    }

    #[test]
    fn membership_sets_the_window() {
        let b = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 2)
            .membership(1, 1.0, Some(4.0));
        assert_eq!((b.pes[1].join_at, b.pes[1].leave_at), (1.0, Some(4.0)));
    }

    #[test]
    fn workload_matches_query_spec() {
        let w = PlatformBuilder::workload(&swissprot(), &QuerySetSpec::paper(), 0);
        assert_eq!(w.len(), 40);
        assert_eq!(w[0].query_len, 100);
        assert_eq!(w[39].query_len, 5000);
        assert!(w
            .iter()
            .all(|t| t.db_residues == swissprot().total_residues));
    }

    #[test]
    fn describe_platforms() {
        assert_eq!(
            PlatformBuilder::new()
                .add(DeviceKind::Gpu, 4)
                .add(DeviceKind::SseCore, 4)
                .describe(),
            "4 GPUs + 4 SSEs"
        );
        assert_eq!(
            PlatformBuilder::new().add(DeviceKind::Gpu, 1).describe(),
            "1 GPU"
        );
        assert_eq!(
            PlatformBuilder::new()
                .add(DeviceKind::Gpu, 1)
                .add(DeviceKind::SseCore, 2)
                .add(DeviceKind::Fpga, 1)
                .describe(),
            "1 GPU + 2 SSEs + 1 FPGA"
        );
    }

    #[test]
    fn gpu_only_platform_runs_swissprot_workload() {
        let w = PlatformBuilder::workload(&swissprot(), &QuerySetSpec::paper(), 0);
        let out = PlatformBuilder::new().add(DeviceKind::Gpu, 1).run(w);
        // One GTX 580 over the full SwissProt workload: hundreds of seconds.
        assert!(out.seconds() > 300.0, "{}", out.seconds());
        assert!(out.gcups() > 10.0, "{}", out.gcups());
        assert_eq!(out.report.per_pe[0].name, "gpu0");
    }

    #[test]
    fn a_late_joiner_listed_first_keeps_its_id_and_name() {
        // PE ids are list positions, late joiners included: row 0 of the
        // report (and of a Gantt drawn from it) is the GPU, which runs
        // nothing before it joins.
        let w = PlatformBuilder::workload(&swissprot(), &QuerySetSpec::paper(), 0);
        let (out, trace) = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 1)
            .add(DeviceKind::SseCore, 1)
            .membership(0, 100.0, None)
            .run_traced(w);
        let names: Vec<&str> = out.report.per_pe.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["gpu0", "sse0"]);
        assert_eq!(out.report.per_pe[0].kind, DeviceKind::Gpu);
        let on = |pe| trace.segments.iter().filter(move |s| s.pe == pe);
        assert!(on(0).count() > 0 && on(0).all(|s| s.start >= 100.0));
        assert!(on(1).any(|s| s.start < 100.0));
    }

    #[test]
    fn hybrid_beats_gpu_only_on_swissprot() {
        // The paper's headline for big databases (§V-A-3): GPUs + SSEs beat
        // the GPU-only configuration when the adjustment mechanism is on.
        // (Asserted at 2 GPUs, where the SSE share is decisive; the 4-GPU
        // wash is covered by the workspace-level shape tests.)
        let w = || PlatformBuilder::workload(&swissprot(), &QuerySetSpec::paper(), 0);
        let gpu_only = PlatformBuilder::new().add(DeviceKind::Gpu, 2).run(w());
        let hybrid = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 2)
            .add(DeviceKind::SseCore, 4)
            .run(w());
        assert!(
            hybrid.seconds() < gpu_only.seconds(),
            "hybrid {} vs gpu-only {}",
            hybrid.seconds(),
            gpu_only.seconds()
        );
    }

    #[test]
    fn without_adjustment_hybrid_loses_to_gpu_only() {
        // Fig. 6's striking result (strongest at 4 GPUs + 4 SSEs): without
        // the adjustment mechanism the hybrid platform is *slower* than the
        // GPU-only one — the SSE cores grab huge tasks near the end of the
        // queue and everyone waits for them.
        let w = || PlatformBuilder::workload(&swissprot(), &QuerySetSpec::paper(), 0);
        let gpu_only = PlatformBuilder::new().add(DeviceKind::Gpu, 4).run(w());
        let hybrid_no_adj = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 4)
            .add(DeviceKind::SseCore, 4)
            .adjustment(false)
            .run(w());
        assert!(
            hybrid_no_adj.seconds() > 1.5 * gpu_only.seconds(),
            "no-adjustment hybrid {} should lose badly to gpu-only {}",
            hybrid_no_adj.seconds(),
            gpu_only.seconds()
        );
    }

    #[test]
    fn adjustment_gain_matches_headline_magnitude() {
        // §I: "our workload adjustment mechanism is able to reduce the
        // total execution time in 57.2%". Our calibration lands at ~49% for
        // the same 4 GPUs + 4 SSEs SwissProt configuration.
        let w = || PlatformBuilder::workload(&swissprot(), &QuerySetSpec::paper(), 0);
        let with = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 4)
            .add(DeviceKind::SseCore, 4)
            .run(w());
        let without = PlatformBuilder::new()
            .add(DeviceKind::Gpu, 4)
            .add(DeviceKind::SseCore, 4)
            .adjustment(false)
            .run(w());
        let reduction = 1.0 - with.seconds() / without.seconds();
        assert!(
            (0.30..0.75).contains(&reduction),
            "time reduction {reduction:.2} out of the paper's magnitude band"
        );
    }
}
