//! The work unit and the processing element.
//!
//! In the paper's system "a task is defined to be the comparison of one
//! query sequence to one genomic database" (§IV) — the very coarse-grained
//! decomposition of Fig. 3c. A [`TaskSpec`] carries exactly the metadata a
//! performance model needs: query length and database size. A [`Device`]
//! is one PE as the scheduler sees it: a name, a kind, and the kind's
//! throughput curve, which turns a task into seconds.

use crate::perfmodel::PerfModel;

/// Immutable description of one task (query × whole database).
///
/// The serve path additionally emits *fused* tasks — up to K co-resident
/// queries scored against one database shard in a single pass. A fused
/// task sets `queries` to K and `query_len` to the *sum* of the fused
/// query lengths, so [`TaskSpec::cells`] naturally charges K× the cells of
/// one pass and the PSS speed estimates stay calibrated.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Stable task identifier (index into the query file).
    pub id: usize,
    /// Query residues scored against the database: one query's length for
    /// the paper's grain, the sum over the batch for a fused task.
    pub query_len: usize,
    /// Number of queries fused into this task (1 for the paper's grain).
    pub queries: usize,
    /// Total residues of the database the query is compared against.
    pub db_residues: u64,
    /// Number of sequences in the database (drives accelerator occupancy).
    pub db_sequences: usize,
}

impl TaskSpec {
    /// DP cells this task updates.
    #[inline]
    pub fn cells(&self) -> u64 {
        self.query_len as u64 * self.db_residues
    }

    /// Representative task used to derive a device's *static* GCUPS prior
    /// for registration (mid-size query, SwissProt-like database). Both
    /// the simulator and the real fleet builders quote a model's
    /// [`Device::task_gcups`] on this probe as its registration
    /// prior, so simulated and real hybrid fleets start from the same
    /// speed estimates.
    pub fn probe() -> TaskSpec {
        TaskSpec {
            id: usize::MAX,
            query_len: 2550,
            queries: 1,
            db_residues: 190_814_275,
            db_sequences: 537_505,
        }
    }
}

/// The kind of processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A GPU running (simulated) CUDASW++ 2.0.
    Gpu,
    /// One SSE core running the adapted Farrar kernel.
    SseCore,
    /// An FPGA accelerator (future-work extension).
    Fpga,
}

impl DeviceKind {
    /// Every kind, in the order platform descriptions list them.
    pub const ALL: [DeviceKind; 3] = [DeviceKind::Gpu, DeviceKind::SseCore, DeviceKind::Fpga];

    /// The fleet-spec token, which is also the PE-name prefix.
    pub fn tag(self) -> &'static str {
        match self {
            DeviceKind::Gpu => "gpu",
            DeviceKind::SseCore => "sse",
            DeviceKind::Fpga => "fpga",
        }
    }

    /// The one naming rule for fleet members: the `i`-th PE of a kind is
    /// `sse0`, `gpu3`, ….
    pub fn pe_name(self, i: usize) -> String {
        format!("{}{i}", self.tag())
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Gpu => write!(f, "GPU"),
            DeviceKind::SseCore => write!(f, "SSE"),
            DeviceKind::Fpga => write!(f, "FPGA"),
        }
    }
}

/// One processing element: a name, a kind and its throughput curve.
///
/// The model answers one question: *how long does this task take on a
/// dedicated machine?* — a fixed startup part (process launch, database
/// transfer, reconfiguration, …) plus the cells at a sustained rate.
/// Non-dedicated interference is layered on top by the simulator via
/// [`crate::load::LoadSchedule`].
///
/// ```
/// use swhybrid_device::task::{Device, DeviceKind, TaskSpec};
///
/// let gpu = Device::new("gpu0", DeviceKind::Gpu);
/// let task = TaskSpec {
///     id: 0,
///     query_len: 5000,
///     queries: 1,
///     db_residues: 190_814_275, // SwissProt
///     db_sequences: 537_505,
/// };
/// // A 5,000-aa query against SwissProt takes ~30 s on one GTX 580.
/// assert!((25.0..40.0).contains(&gpu.task_seconds(&task)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Human-readable PE name, e.g. `"gpu0"`.
    pub name: String,
    /// What kind of PE this is.
    pub kind: DeviceKind,
    /// Its throughput curve.
    pub model: PerfModel,
}

impl Device {
    /// A PE of `kind` on that kind's calibrated row ([`PerfModel::of`]).
    pub fn new(name: impl Into<String>, kind: DeviceKind) -> Device {
        Device {
            name: name.into(),
            kind,
            model: PerfModel::of(kind),
        }
    }

    /// Fixed per-task setup seconds.
    pub fn startup_seconds(&self, task: &TaskSpec) -> f64 {
        self.model.startup(task.db_residues)
    }

    /// Sustained cell-update rate (cells/second) for this task on a
    /// dedicated machine.
    pub fn rate(&self, task: &TaskSpec) -> f64 {
        let rate = self.model.effective_rate(task.query_len, task.db_sequences);
        match self.model.segment {
            // Overlap recomputation shows up as a lower effective rate.
            Some(_) => rate / self.model.inflation(task.query_len),
            None => rate,
        }
    }

    /// Total dedicated-machine seconds for the task.
    pub fn task_seconds(&self, task: &TaskSpec) -> f64 {
        self.startup_seconds(task) + task.cells() as f64 / self.rate(task)
    }

    /// Effective GCUPS achieved on this task (including startup overhead).
    pub fn task_gcups(&self, task: &TaskSpec) -> f64 {
        let secs = self.task_seconds(task);
        if secs <= 0.0 {
            0.0
        } else {
            task.cells() as f64 / secs / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 s of startup, then 1e9 cells/s.
    fn fixed() -> Device {
        Device {
            name: "fixed".into(),
            kind: DeviceKind::SseCore,
            model: PerfModel {
                startup_seconds: 1.0,
                ..PerfModel::flat(1.0)
            },
        }
    }

    fn task() -> TaskSpec {
        TaskSpec {
            id: 0,
            query_len: 1000,
            queries: 1,
            db_residues: 2_000_000,
            db_sequences: 100,
        }
    }

    fn swissprot_task(query_len: usize) -> TaskSpec {
        TaskSpec {
            id: 0,
            query_len,
            queries: 1,
            db_residues: 190_814_275,
            db_sequences: 537_505,
        }
    }

    #[test]
    fn cells_is_product() {
        assert_eq!(task().cells(), 2_000_000_000);
    }

    #[test]
    fn default_task_seconds_composition() {
        let d = fixed();
        let t = task();
        // 1 s startup + 2e9 cells / 1e9 cells/s = 3 s.
        assert!((d.task_seconds(&t) - 3.0).abs() < 1e-12);
        // Effective rate: 2e9 cells in 3 s = 0.667 GCUPS.
        assert!((d.task_gcups(&t) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn kind_display() {
        assert_eq!(DeviceKind::Gpu.to_string(), "GPU");
        assert_eq!(DeviceKind::SseCore.to_string(), "SSE");
        assert_eq!(DeviceKind::Fpga.to_string(), "FPGA");
    }

    #[test]
    fn core_rate_close_to_calibrated_peak_for_long_queries() {
        let core = Device::new("sse0", DeviceKind::SseCore);
        let t = swissprot_task(5000);
        let gcups = core.task_gcups(&t);
        assert!((2.4..2.8).contains(&gcups), "gcups = {gcups}");
        // A 5,000-aa query against SwissProt on one core takes ~6 minutes —
        // this is the "slow node got a big last task" hazard of §IV-A-3.
        let secs = core.task_seconds(&t);
        assert!((300.0..420.0).contains(&secs), "secs = {secs}");
    }

    #[test]
    fn core_startup_is_negligible() {
        let core = Device::new("sse0", DeviceKind::SseCore);
        let t = TaskSpec {
            id: 0,
            query_len: 100,
            queries: 1,
            db_residues: 12_400_000,
            db_sequences: 25_160,
        };
        assert!(core.startup_seconds(&t) < 0.1);
        assert_eq!(core.kind, DeviceKind::SseCore);
    }

    #[test]
    fn long_query_swissprot_task_time_plausible() {
        // 5,000-aa query × SwissProt ≈ 9.5e11 cells; at ≈ 30 effective
        // GCUPS that is ~31 s + startup.
        let gpu = Device::new("gpu0", DeviceKind::Gpu);
        let t = swissprot_task(5000);
        let secs = gpu.task_seconds(&t);
        assert!((25.0..40.0).contains(&secs), "secs = {secs}");
        assert!(gpu.task_gcups(&t) > 25.0);
    }

    #[test]
    fn short_queries_get_lower_gpu_gcups() {
        let gpu = Device::new("gpu0", DeviceKind::Gpu);
        let short = gpu.task_gcups(&swissprot_task(100));
        let long = gpu.task_gcups(&swissprot_task(5000));
        assert!(short < long / 2.0, "short {short}, long {long}");
    }

    #[test]
    fn startup_dominates_tiny_gpu_tasks() {
        let gpu = Device::new("gpu0", DeviceKind::Gpu);
        let tiny = TaskSpec {
            id: 0,
            query_len: 100,
            queries: 1,
            db_residues: 1_000_000,
            db_sequences: 2_000,
        };
        // 1e8 cells is far less than a second of GPU work; startup rules.
        let secs = gpu.task_seconds(&tiny);
        assert!(secs > 0.8, "secs = {secs}");
        assert!(gpu.task_gcups(&tiny) < 1.0);
    }

    #[test]
    fn kind_and_name() {
        let gpu = Device::new("gpuX", DeviceKind::Gpu);
        assert_eq!(gpu.kind, DeviceKind::Gpu);
        assert_eq!(gpu.name, "gpuX");
        assert_eq!(Device::new("x", DeviceKind::Fpga).kind, DeviceKind::Fpga);
    }

    #[test]
    fn fpga_inflation_reduces_effective_rate() {
        let f = Device::new("fpga0", DeviceKind::Fpga);
        let short = TaskSpec {
            id: 0,
            query_len: 1000,
            queries: 1,
            db_residues: 10_000_000,
            db_sequences: 10_000,
        };
        let long = TaskSpec {
            id: 1,
            query_len: 5000,
            queries: 1,
            ..short.clone()
        };
        assert!(f.rate(&long) < f.rate(&short) * 1.01);
        assert!(f.rate(&long) >= f.rate(&short) / f.model.inflation(5000) * 0.99);
    }
}
