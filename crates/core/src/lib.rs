//! The SW task execution environment for hybrid platforms — the paper's
//! primary contribution (§IV).
//!
//! A master process acquires the query and database files (the database
//! as the indexed `.swdb` store or as FASTA packed once into the same
//! in-memory layout), and distributes *very coarse-grained* tasks (one
//! query × the whole database) to registered slave PEs under a
//! user-selectable allocation policy. Idle PEs re-execute tasks still in
//! the `executing` state once the ready queue drains — the **dynamic
//! workload adjustment mechanism** that prevents a slow node holding one of
//! the last tasks from stalling the whole application (§IV-A-3, Fig. 5).
//!
//! Modules:
//!
//! * [`task`] — task states (*ready → executing → finished*) and the pool,
//! * [`stats`] — per-PE observed-speed statistics (the Ω-window weighted
//!   mean behind PSS),
//! * [`policy`] — allocation policies: SS, PSS(Ω), and the related-work
//!   baselines Fixed (even split) and WFixed (static proportional split),
//! * [`sched`] — THE scheduling engine: registration, allocation,
//!   replication, completion, cancellation, parameterized by a
//!   [`sched::Clock`] (wall clock or virtual time) so every driver shares
//!   one implementation of the paper's §III decisions,
//! * [`sim`] — a deterministic discrete-event simulator driving the same
//!   engine with modelled PEs on a [`sched::VirtualClock`] (how the
//!   paper-scale platform of 4 GPUs + 8 SSE cores is reproduced on this
//!   machine),
//! * [`pool`] — the one pool-drive loop every real runtime shares: a
//!   [`pool::PePool`] (engine + membership behind the wakeup hub) driven
//!   through transport-agnostic [`pool::PeEndpoint`]s,
//! * [`net`] — the batch master: one run on a local fleet of threads
//!   computing genuine scores ([`net::Batch`]), on slave processes
//!   over a TCP protocol with long-polled requests, heartbeats, and
//!   reconnection ([`net::MasterServer`]), or on both at once — every PE
//!   an endpoint on the shared loop,
//! * [`shared`] — the condvar-backed wakeup hub the real runtimes park
//!   idle PEs on (no busy-wait polling),
//! * [`trace`] — execution traces: per-PE Gantt segments (Fig. 5) and
//!   notification series (Figs. 7/8),
//! * [`platform`] — the public facade: build a platform (including the
//!   future-work extension of PEs joining/leaving mid-run), run a workload.

pub mod net;
pub mod platform;
pub mod policy;
pub mod pool;
pub mod sched;
pub mod shared;
pub mod sim;
pub mod stats;
pub mod task;
pub mod trace;

pub use platform::{PlatformBuilder, SimOutcome};
pub use policy::Policy;
pub use sched::{Assignment, MasterConfig, Scheduler};
pub use task::{PeId, TaskId, TaskState};
