//! Processing-element (PE) models for the hybrid platform.
//!
//! The paper's platform is 4 × NVIDIA GTX 580 (running CUDASW++ 2.0) plus
//! 2 × Intel Core i7 (4 SSE cores each, running the adapted Farrar kernel).
//! No GPU hardware is available to this reproduction, so the accelerator is
//! **simulated**: a device executes real SW scoring through the workspace's
//! own kernels (scores are bit-identical), while its *elapsed time* comes
//! from a calibrated performance model (see `DESIGN.md` §2 for the
//! calibration constants and their provenance). The scheduler — the paper's
//! actual contribution — only ever observes completion times and progress
//! notifications, so a throughput-accurate model exercises exactly the same
//! code paths as the real machine.
//!
//! Modules:
//!
//! * [`task`] — the work unit, one query × one whole database (§IV, "very
//!   coarse-grained"), and the PE: a [`Device`] is a name, a kind and
//!   that kind's throughput curve,
//! * [`perfmodel`] — the calibration table, one [`PerfModel`] row per
//!   kind: the GTX 580 running CUDASW++ 2.0, one i7 SSE core (one PE per
//!   core, as in the paper), and the future-work FPGA with a maximum
//!   query length and Meng/Chaudhary-style query segmentation,
//! * [`cudasw`] — a structural simulation of one CUDASW++ invocation
//!   (length sort, inter/intra-task kernel split, warp divergence,
//!   occupancy) that grounds the GPU row,
//! * [`load`] — step-function load schedules for non-dedicated experiments
//!   (the paper's §V-C `superpi` interference test),
//! * [`fleet`] — the shared `sse:8+gpu:2` fleet-spec parser and builder
//!   every hybrid-fleet surface (`master`, `serve`, `simulate`) uses.

pub mod cudasw;
pub mod fleet;
pub mod load;
pub mod perfmodel;
pub mod task;

pub use fleet::{FleetPe, FleetSpec};
pub use load::LoadSchedule;
pub use perfmodel::PerfModel;
pub use task::{Device, DeviceKind, TaskSpec};
