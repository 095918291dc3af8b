//! # swhybrid — biological sequence comparison on hybrid platforms
//!
//! Reproduction of *Mendonça & de Melo, "Biological Sequence Comparison on
//! Hybrid Platforms with Dynamic Workload Adjustment", IPDPS Workshops 2013*.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`seq`] — sequences, alphabets, FASTA, the indexed file format, and the
//!   synthetic stand-ins for the paper's five databases,
//! * [`align`] — Smith-Waterman / Gotoh kernels (the scalar oracles),
//! * [`simd`] — the adapted-Farrar striped SIMD kernel, the SWIPE-style
//!   inter-sequence kernel, and the one shard executor every PE scans with,
//! * [`device`] — processing-element models (simulated CUDASW++ GPU, SSE
//!   core, FPGA) with calibrated performance models,
//! * [`exec`] — the paper's contribution: the master/slave task execution
//!   environment — one scheduling engine (`exec::sched`: SS/PSS allocation
//!   policies, the dynamic workload adjustment mechanism) under the
//!   simulator, the batch master (`exec::net`) and the daemon,
//! * [`serve`] — the persistent query service: a TCP daemon that keeps the
//!   master/slave runtime warm between queries, with admission control,
//!   an LRU result cache, and live metrics,
//! * [`store`] — the persistent `.swdb` database store: versioned,
//!   checksummed, memory-mapped files the daemon boots from and
//!   hot-reloads onto,
//! * [`json`] — the dependency-free JSON reader/writer used for event and
//!   trace export,
//! * [`cli`] — the `swhybrid` command-line verbs (the binary is a thin
//!   shell around [`cli::run`]).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub mod cli;

pub use swhybrid_align as align;
pub use swhybrid_core as exec;
pub use swhybrid_device as device;
pub use swhybrid_json as json;
pub use swhybrid_seq as seq;
pub use swhybrid_serve as serve;
pub use swhybrid_simd as simd;
pub use swhybrid_store as store;
