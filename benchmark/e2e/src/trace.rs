//! Spans recorded by the benchmark around every process, request and
//! probed call of a traced run. They are kept in memory and written out
//! once, when the run ends; a layer's self time is its spans' duration
//! minus the part their child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Seconds since the trace's epoch.
    pub start: f64,
    pub end: f64,
    /// What the span worked on: a query, task, pass or request id.
    pub key: String,
}

pub struct Trace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Per span name: how many, their total duration, and their self time.
pub type SelfTimes = BTreeMap<String, (usize, f64, f64)>;

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    pub fn now(&self) -> f64 {
        self.at(Instant::now())
    }

    /// Record a finished span; returns its id for use as a parent. With
    /// tracing off nothing is stored and the id is meaningless.
    pub fn add(
        &mut self,
        parent: Option<usize>,
        name: &str,
        key: &str,
        start: f64,
        end: f64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end: end.max(start),
            key: key.to_string(),
        });
        self.spans.len() - 1
    }

    /// Open a span now, to be closed by [`Trace::close`].
    pub fn open(&mut self, parent: Option<usize>, name: &str, key: &str) -> usize {
        let now = self.now();
        self.add(parent, name, key, now, now)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id).filter(|_| self.enabled) {
            span.end = now;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn self_times(&self) -> SelfTimes {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        let mut out = SelfTimes::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            // Length of the union of the child intervals.
            let (mut covered, mut reach) = (0.0, s.start);
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            let total = s.end - s.start;
            let entry = out.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total - covered;
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::text(&s.name)),
                ("key", Json::text(&s.key)),
                ("start_s", Json::Num(s.start)),
                ("end_s", Json::Num(s.end)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let mut t = Trace::new(true);
        let root = t.add(None, "run", "", 0.0, 10.0);
        let pass = t.add(Some(root), "pass", "0", 1.0, 5.0);
        t.add(Some(root), "pass", "1", 4.0, 8.0); // overlaps the first
        t.add(Some(pass), "process", "0", 1.5, 4.5);
        t.add(Some(pass), "process", "x", 4.0, 7.0); // clipped to its parent
        let st = t.self_times();
        assert_eq!(st["run"], (1, 10.0, 3.0));
        assert_eq!(st["pass"].0, 2);
        assert!((st["pass"].1 - 8.0).abs() < 1e-12);
        // First pass: 4 s minus children covering 1.5..5.0 → 0.5; second: 4.
        assert!((st["pass"].2 - 4.5).abs() < 1e-12);
        assert_eq!(t.to_jsonl().lines().count(), 5);
        assert!(Json::parse(t.to_jsonl().lines().next().unwrap()).is_ok());
    }

    #[test]
    fn a_disabled_trace_stores_nothing() {
        let mut t = Trace::new(false);
        let id = t.open(None, "run", "");
        t.close(id);
        assert_eq!(t.len(), 0);
        assert!(t.self_times().is_empty());
    }
}
