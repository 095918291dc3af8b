//! Execution traces: per-PE Gantt segments and notification series.
//!
//! A simulation records them only when asked
//! ([`crate::sim::Simulator::run_traced`]). They back the paper's figures:
//! Fig. 5 (the task allocation timelines with and without the adjustment
//! mechanism) and Figs. 7/8 (per-core GCUPS over time in dedicated and
//! non-dedicated runs).
//!
//! The real runtimes additionally emit a structured [`RuntimeEvent`] stream
//! — every scheduling decision (assignment, steal, replication, requeue) and
//! every membership change (join, leave, suspected death) as a timestamped
//! record, exportable as JSON via [`events_to_json`].

use crate::task::{PeId, TaskId};
use swhybrid_json::Json;

/// Why a trace segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// The PE completed the task (and was the winner if replicated).
    Completed,
    /// The task was finished first by another PE; this replica was
    /// cancelled mid-flight.
    Cancelled,
    /// The PE left the platform while executing (membership extension).
    Abandoned,
}

/// One contiguous span of a PE executing one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSegment {
    /// The executing PE.
    pub pe: PeId,
    /// The task being executed.
    pub task: TaskId,
    /// Start time (seconds of virtual time).
    pub start: f64,
    /// End time.
    pub end: f64,
    /// How the segment ended.
    pub end_kind: SegmentEnd,
}

/// One periodic progress notification.
#[derive(Debug, Clone, PartialEq)]
pub struct NotifySample {
    /// The reporting PE.
    pub pe: PeId,
    /// Notification time.
    pub time: f64,
    /// Observed GCUPS over the preceding interval.
    pub gcups: f64,
}

/// What a traced simulation records for the figures: every Gantt segment
/// and every progress notification. Only [`crate::sim::Simulator::run_traced`]
/// builds one; a plain run keeps neither.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Gantt segments in completion order.
    pub segments: Vec<TraceSegment>,
    /// Notification series in time order.
    pub notifications: Vec<NotifySample>,
}

impl Trace {
    /// Notification series of one PE as `(time, gcups)` pairs (Figs. 7/8).
    pub fn pe_notifications(&self, pe: PeId) -> Vec<(f64, f64)> {
        self.notifications
            .iter()
            .filter(|n| n.pe == pe)
            .map(|n| (n.time, n.gcups))
            .collect()
    }

    /// ASCII Gantt chart in the style of the paper's Fig. 5: one row per
    /// PE, labelled spans `[tNN ]`; `x` marks a cancelled replica.
    pub fn render_gantt(&self, pe_names: &[String], width: usize) -> String {
        let makespan = self
            .segments
            .iter()
            .map(|s| s.end)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let scale = width as f64 / makespan;
        // One pass over the segments paints every PE's row; a PE's segments
        // land in trace order, so a later span overdraws an earlier one.
        let mut rows = vec![vec![b' '; width + 1]; pe_names.len()];
        for seg in &self.segments {
            let Some(row) = rows.get_mut(seg.pe) else {
                continue;
            };
            let a = (seg.start * scale).floor() as usize;
            let b = ((seg.end * scale).ceil() as usize).min(width);
            let label = match seg.end_kind {
                SegmentEnd::Cancelled => format!("x{}", seg.task),
                _ => format!("t{}", seg.task),
            };
            let bytes = label.as_bytes();
            for (i, slot) in row[a..b.max(a + 1)].iter_mut().enumerate() {
                *slot = if i < bytes.len() { bytes[i] } else { b'-' };
            }
        }
        let mut out = String::new();
        for (name, row) in pe_names.iter().zip(&rows) {
            out.push_str(&format!("{name:>8} |"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>8} +{}>\n{:>8}  0{:>width$.1}s\n",
            "",
            "-".repeat(width),
            "",
            makespan,
            width = width
        ));
        out
    }
}

/// One timestamped scheduling/membership event from a real runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeEvent {
    /// Seconds since the run started.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary of the real runtimes (threaded and TCP).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A PE registered before the run started.
    PeRegistered {
        /// The PE.
        pe: PeId,
        /// Its human name.
        name: String,
    },
    /// A PE joined mid-run (reconnect or late arrival).
    PeJoined {
        /// The PE.
        pe: PeId,
        /// Its human name.
        name: String,
    },
    /// A PE left cleanly (hang-up / shutdown observed).
    PeLeft {
        /// The PE.
        pe: PeId,
    },
    /// A PE missed its liveness deadline and was declared dead.
    PeSuspectedDead {
        /// The PE.
        pe: PeId,
    },
    /// New tasks were appended to the pool mid-run (multi-batch lifecycle:
    /// a persistent master accepting queries after the initial workload).
    BatchSubmitted {
        /// The newly created tasks, in submission order.
        tasks: Vec<TaskId>,
    },
    /// A batch of ready tasks was assigned to a PE.
    TasksAssigned {
        /// The receiving PE.
        pe: PeId,
        /// The assigned tasks, in dispatch order.
        tasks: Vec<TaskId>,
    },
    /// A PE began executing a task.
    TaskStarted {
        /// The executing PE.
        pe: PeId,
        /// The task.
        task: TaskId,
    },
    /// An unstarted batch entry was stolen from another PE.
    TaskStolen {
        /// The thief (requesting idle PE).
        pe: PeId,
        /// The task.
        task: TaskId,
        /// The previous holder.
        from: PeId,
    },
    /// An executing task was replicated onto an idle PE (§IV-A-3).
    TaskReplicated {
        /// The additional executor.
        pe: PeId,
        /// The task.
        task: TaskId,
    },
    /// A task finished.
    TaskFinished {
        /// The completing PE.
        pe: PeId,
        /// The task.
        task: TaskId,
        /// Whether this PE crossed the line first (its results count).
        winner: bool,
        /// The measured speed of the completion, GCUPS.
        measured_gcups: f64,
    },
    /// Kernel-usage breakdown of a finished task's scan: which kernel
    /// family scored how many subjects (striped vs inter-sequence, with
    /// their i8/i16/scalar saturation fallbacks), how chunks were
    /// dispatched, and the DP cells actually computed.
    TaskKernels {
        /// The completing PE.
        pe: PeId,
        /// The task.
        task: TaskId,
        /// The merged kernel counters of the task's scan.
        kernels: swhybrid_simd::engine::KernelStats,
    },
    /// A replica was cancelled because another PE finished first; its work
    /// so far is the mechanism's duplicated-cells cost.
    ReplicaCancelled {
        /// The cancelled executor.
        pe: PeId,
        /// The task.
        task: TaskId,
        /// Estimated cells this replica had computed when cancelled.
        wasted_cells: u64,
    },
    /// A task held by a departed PE was returned to the ready queue.
    TaskRequeued {
        /// The task.
        task: TaskId,
        /// The PE that held it.
        from: PeId,
    },
    /// Every task finished.
    RunCompleted,
}

impl EventKind {
    /// The event's snake_case name as used in the JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PeRegistered { .. } => "pe_registered",
            EventKind::PeJoined { .. } => "pe_joined",
            EventKind::PeLeft { .. } => "pe_left",
            EventKind::PeSuspectedDead { .. } => "pe_suspected_dead",
            EventKind::BatchSubmitted { .. } => "batch_submitted",
            EventKind::TasksAssigned { .. } => "tasks_assigned",
            EventKind::TaskStarted { .. } => "task_started",
            EventKind::TaskStolen { .. } => "task_stolen",
            EventKind::TaskReplicated { .. } => "task_replicated",
            EventKind::TaskFinished { .. } => "task_finished",
            EventKind::TaskKernels { .. } => "task_kernels",
            EventKind::ReplicaCancelled { .. } => "replica_cancelled",
            EventKind::TaskRequeued { .. } => "task_requeued",
            EventKind::RunCompleted => "run_completed",
        }
    }
}

impl RuntimeEvent {
    /// The event as a JSON object: `{"time": …, "event": …, …fields}`.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("time".into(), Json::Num(self.time)),
            ("event".into(), Json::str(self.kind.name())),
        ];
        let mut push = |k: &str, v: Json| fields.push((k.into(), v));
        match &self.kind {
            EventKind::PeRegistered { pe, name } | EventKind::PeJoined { pe, name } => {
                push("pe", Json::Num(*pe as f64));
                push("name", Json::str(name));
            }
            EventKind::PeLeft { pe } | EventKind::PeSuspectedDead { pe } => {
                push("pe", Json::Num(*pe as f64));
            }
            EventKind::BatchSubmitted { tasks } => {
                push(
                    "tasks",
                    Json::Arr(tasks.iter().map(|&t| Json::Num(t as f64)).collect()),
                );
            }
            EventKind::TasksAssigned { pe, tasks } => {
                push("pe", Json::Num(*pe as f64));
                push(
                    "tasks",
                    Json::Arr(tasks.iter().map(|&t| Json::Num(t as f64)).collect()),
                );
            }
            EventKind::TaskStarted { pe, task } | EventKind::TaskReplicated { pe, task } => {
                push("pe", Json::Num(*pe as f64));
                push("task", Json::Num(*task as f64));
            }
            EventKind::TaskStolen { pe, task, from } => {
                push("pe", Json::Num(*pe as f64));
                push("task", Json::Num(*task as f64));
                push("from", Json::Num(*from as f64));
            }
            EventKind::TaskFinished {
                pe,
                task,
                winner,
                measured_gcups,
            } => {
                push("pe", Json::Num(*pe as f64));
                push("task", Json::Num(*task as f64));
                push("winner", Json::Bool(*winner));
                push("measured_gcups", Json::Num(*measured_gcups));
            }
            EventKind::TaskKernels { pe, task, kernels } => {
                push("pe", Json::Num(*pe as f64));
                push("task", Json::Num(*task as f64));
                // The counters sit flat beside `pe`/`task`, under the
                // wire's key names.
                if let Json::Obj(counters) = crate::net::kernels_to_json(kernels) {
                    fields.extend(counters);
                }
            }
            EventKind::ReplicaCancelled {
                pe,
                task,
                wasted_cells,
            } => {
                push("pe", Json::Num(*pe as f64));
                push("task", Json::Num(*task as f64));
                push("wasted_cells", Json::Num(*wasted_cells as f64));
            }
            EventKind::TaskRequeued { task, from } => {
                push("task", Json::Num(*task as f64));
                push("from", Json::Num(*from as f64));
            }
            EventKind::RunCompleted => {}
        }
        Json::Obj(fields)
    }
}

/// An event stream as a JSON array, in emission order.
pub fn events_to_json(events: &[RuntimeEvent]) -> Json {
    Json::Arr(events.iter().map(RuntimeEvent::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace {
            segments: vec![
                TraceSegment {
                    pe: 0,
                    task: 0,
                    start: 0.0,
                    end: 1.0,
                    end_kind: SegmentEnd::Completed,
                },
                TraceSegment {
                    pe: 1,
                    task: 1,
                    start: 0.0,
                    end: 6.0,
                    end_kind: SegmentEnd::Completed,
                },
                TraceSegment {
                    pe: 0,
                    task: 2,
                    start: 1.0,
                    end: 2.5,
                    end_kind: SegmentEnd::Cancelled,
                },
            ],
            notifications: vec![
                NotifySample {
                    pe: 0,
                    time: 5.0,
                    gcups: 2.5,
                },
                NotifySample {
                    pe: 1,
                    time: 5.0,
                    gcups: 1.0,
                },
                NotifySample {
                    pe: 0,
                    time: 10.0,
                    gcups: 2.4,
                },
            ],
        }
    }

    #[test]
    fn notification_series_filtered() {
        let t = trace();
        let series = t.pe_notifications(0);
        assert_eq!(series, vec![(5.0, 2.5), (10.0, 2.4)]);
        assert_eq!(t.pe_notifications(2), vec![]);
    }

    #[test]
    fn gantt_renders_all_pes() {
        let t = trace();
        let names = vec!["GPU1".to_string(), "SSE1".to_string()];
        let g = t.render_gantt(&names, 40);
        assert!(g.contains("GPU1"));
        assert!(g.contains("SSE1"));
        assert!(g.contains("t0"));
        assert!(g.contains("x2"), "cancelled replica must be marked:\n{g}");
    }

    #[test]
    fn empty_trace_renders() {
        let t = Trace::default();
        let g = t.render_gantt(&["a".to_string()], 10);
        assert!(g.contains('a'));
    }

    #[test]
    fn events_export_as_json_array() {
        let events = vec![
            RuntimeEvent {
                time: 0.0,
                kind: EventKind::PeRegistered {
                    pe: 0,
                    name: "gpu0".into(),
                },
            },
            RuntimeEvent {
                time: 0.5,
                kind: EventKind::TasksAssigned {
                    pe: 0,
                    tasks: vec![0, 1],
                },
            },
            RuntimeEvent {
                time: 1.25,
                kind: EventKind::TaskFinished {
                    pe: 0,
                    task: 0,
                    winner: true,
                    measured_gcups: 12.5,
                },
            },
            RuntimeEvent {
                time: 2.0,
                kind: EventKind::RunCompleted,
            },
        ];
        let json = events_to_json(&events);
        let arr = json.as_array().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(
            arr[0].get("event").unwrap().as_str().unwrap(),
            "pe_registered"
        );
        assert_eq!(arr[0].get("name").unwrap().as_str().unwrap(), "gpu0");
        assert_eq!(arr[1].get("tasks").unwrap().as_array().unwrap().len(), 2);
        assert!(arr[2].get("winner").unwrap().as_bool().unwrap());
        // Round-trips through the textual form.
        let back = Json::parse(&json.to_string()).unwrap();
        assert_eq!(back.as_array().unwrap().len(), 4);
    }

    #[test]
    fn every_event_kind_has_a_distinct_name() {
        let kinds = [
            EventKind::PeRegistered {
                pe: 0,
                name: String::new(),
            },
            EventKind::PeJoined {
                pe: 0,
                name: String::new(),
            },
            EventKind::PeLeft { pe: 0 },
            EventKind::PeSuspectedDead { pe: 0 },
            EventKind::BatchSubmitted { tasks: vec![] },
            EventKind::TasksAssigned {
                pe: 0,
                tasks: vec![],
            },
            EventKind::TaskStarted { pe: 0, task: 0 },
            EventKind::TaskStolen {
                pe: 0,
                task: 0,
                from: 1,
            },
            EventKind::TaskReplicated { pe: 0, task: 0 },
            EventKind::TaskFinished {
                pe: 0,
                task: 0,
                winner: true,
                measured_gcups: 0.0,
            },
            EventKind::TaskKernels {
                pe: 0,
                task: 0,
                kernels: swhybrid_simd::engine::KernelStats::default(),
            },
            EventKind::ReplicaCancelled {
                pe: 0,
                task: 0,
                wasted_cells: 0,
            },
            EventKind::TaskRequeued { task: 0, from: 0 },
            EventKind::RunCompleted,
        ];
        let names: std::collections::HashSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
