//! `swhybrid-serve` — a persistent query service on top of the master/slave
//! task execution environment.
//!
//! The paper's environment is batch-shaped: the master "allocates the tasks
//! to the slave PEs" for one workload and exits. This crate turns that
//! runtime into a long-running daemon for server-side traffic:
//!
//! * [`service`] — the query engine: a persistent [`swhybrid_core::sched::Scheduler`]
//!   in keep-alive mode fed multi-batch workloads, one task per database
//!   shard, executed by long-lived PE worker threads,
//! * [`admission`] — a bounded admission queue with per-client in-flight
//!   limits and oldest-deadline-first dispatch (backpressure, not OOM),
//! * [`cache`] — an LRU result cache keyed by `(query digest, db
//!   generation, scoring, top-N)` so repeated queries skip the scan,
//! * [`metrics`] — latency histogram, queue/cache counters, and per-PE
//!   GCUPS folded from the master's [`swhybrid_core::trace::RuntimeEvent`]
//!   stream,
//! * [`protocol`] — the newline-delimited JSON wire vocabulary
//!   (`search` / `status` / `cancel` / `stats` / `reload` / `shutdown`),
//! * [`server`] — the TCP daemon (`swhybrid serve`),
//! * [`client`] — a blocking line-protocol client (`swhybrid query`).
//!
//! Ranking determinism: every query is split into database shards, each
//! shard scanned as one task (possibly replicated under the workload
//! adjustment mechanism), and the per-shard top-N lists merged with
//! [`swhybrid_simd::search::merge_top_n`] — bit-identical to a
//! single-process scan of the whole database.

pub mod admission;
pub mod cache;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;

pub use cache::{CacheKey, ResultCache};
pub use client::ServeClient;
pub use server::ServeDaemon;
pub use service::{QueryService, SearchReply, ServiceConfig, SubmitError};
