//! Readers for what the program prints: `search` hit tables and summary,
//! `master` summary and merged hits, `master --events` JSON lines, daemon
//! result lines and the `stats` verb, `simulate` reports. The fixtures
//! under `fixtures/` are recorded outputs of the parent commit.

use crate::json::Json;

/// One row of a hit table, as far as every surface reports it.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hit {
    pub score: i64,
    pub subject: String,
    pub len: u64,
}

/// Kernel accounting: chunk counts and how subjects were resolved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Kernels {
    pub chunks_striped: u64,
    pub chunks_interseq: u64,
    /// Subjects resolved by the first, 8-bit pass.
    pub i8: u64,
    /// Subjects rerun at 16 bits or by the scalar kernel after saturating.
    pub reruns: u64,
    pub cells_computed: u64,
}

impl Kernels {
    pub fn add(&mut self, other: &Kernels) {
        self.chunks_striped += other.chunks_striped;
        self.chunks_interseq += other.chunks_interseq;
        self.i8 += other.i8;
        self.reruns += other.reruns;
        self.cells_computed += other.cells_computed;
    }

    pub fn rerun_share(&self) -> f64 {
        self.reruns as f64 / ((self.i8 + self.reruns) as f64).max(1.0)
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchOutput {
    /// Per query, in file order: its hit rows in rank order.
    pub tables: Vec<Vec<Hit>>,
    /// The `N cells in S s` summary: cells computed and the in-process span.
    pub cells: u64,
    pub scan_s: f64,
    pub kernels: Kernels,
}

/// `… N striped / M inter-sequence chunks, subjects i8/i16/scalar striped
/// a+b+c interseq d+e+f`, as `search` and `master` both print it.
fn kernel_line(line: &str) -> Option<Kernels> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let before = |marker: &str| {
        let at = words.iter().position(|w| *w == marker)?;
        words.get(at.checked_sub(1)?)?.parse::<u64>().ok()
    };
    let triple = |marker: &str| {
        let at = words.iter().rposition(|w| *w == marker)?;
        let parts: Vec<u64> = words
            .get(at + 1)?
            .split('+')
            .map(|n| n.parse().ok())
            .collect::<Option<_>>()?;
        (parts.len() == 3).then(|| (parts[0], parts[1] + parts[2]))
    };
    let (s8, s_re) = triple("striped")?;
    let (i8, i_re) = triple("interseq")?;
    Some(Kernels {
        chunks_striped: before("striped")?,
        chunks_interseq: before("inter-sequence")?,
        i8: s8 + i8,
        reruns: s_re + i_re,
        cells_computed: 0,
    })
}

pub fn search_output(lines: &[String]) -> Result<SearchOutput, String> {
    let mut out = SearchOutput::default();
    let mut summary = false;
    for line in lines {
        let words: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with("# query ") {
            out.tables.push(Vec::new());
        } else if words.len() == 6 && words[0].parse::<u32>().is_ok() {
            // rank score bits E-value len subject
            let (Ok(score), Ok(len)) = (words[1].parse(), words[4].parse()) else {
                return Err(format!("bad hit row {line:?}"));
            };
            let table = out.tables.last_mut().ok_or("hit row before any query")?;
            table.push(Hit {
                score,
                subject: words[5].to_string(),
                len,
            });
        } else if words.len() == 8 && words[1] == "cells" && words[2] == "in" {
            out.cells = words[0].parse().map_err(|_| format!("bad {line:?}"))?;
            out.scan_s = words[3].parse().map_err(|_| format!("bad {line:?}"))?;
            summary = true;
        } else if line.starts_with("kernel ") {
            out.kernels = kernel_line(line).ok_or_else(|| format!("bad {line:?}"))?;
        }
    }
    if !summary {
        return Err("no `cells in` summary line".into());
    }
    out.kernels.cells_computed = out.cells;
    Ok(out)
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct MasterOutput {
    pub completed: u64,
    pub elapsed_s: f64,
    pub kernels: Kernels,
    /// Merged hits in rank order: (query index, hit); `len` is not printed
    /// by `master` and reads 0.
    pub merged: Vec<(usize, Hit)>,
}

pub fn master_output(lines: &[String]) -> Result<MasterOutput, String> {
    let mut out = MasterOutput::default();
    let mut summary = false;
    for line in lines {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.first() == Some(&"completed") && words.len() >= 6 {
            out.completed = words[1].parse().map_err(|_| format!("bad {line:?}"))?;
            out.elapsed_s = words[4].parse().map_err(|_| format!("bad {line:?}"))?;
            summary = true;
        } else if line.starts_with("kernel (all slaves):") {
            out.kernels = kernel_line(line).ok_or_else(|| format!("bad {line:?}"))?;
        } else if words.len() >= 3 && words[0].ends_with(':') && words[2] == "cells," {
            //   s0: 674745821 cells, 0 striped / …
            out.kernels.cells_computed += words[1]
                .parse::<u64>()
                .map_err(|_| format!("bad {line:?}"))?;
        } else if words.len() == 5 && words[1] == "score" {
            //    1  score  4325  q2  uniprotk|000002
            let rank_ok = words[0].parse::<u32>().is_ok();
            let query = words[3].strip_prefix('q').and_then(|n| n.parse().ok());
            let (true, Ok(score), Some(query)) = (rank_ok, words[2].parse(), query) else {
                return Err(format!("bad merged hit {line:?}"));
            };
            out.merged.push((
                query,
                Hit {
                    score,
                    subject: words[4].to_string(),
                    len: 0,
                },
            ));
        }
    }
    if !summary {
        return Err("no `completed N tasks` summary line".into());
    }
    Ok(out)
}

/// `master listening on ADDR for …` / `serving … on ADDR with …`.
pub fn listen_addr(line: &str) -> Option<String> {
    let mut words = line.split_whitespace();
    words.find(|w| *w == "on")?;
    let addr = words.next()?;
    addr.parse::<std::net::SocketAddr>().ok()?;
    Some(addr.to_string())
}

/// `X: done, executed N task(s)`.
pub fn slave_executed(lines: &[String]) -> Option<u64> {
    lines.iter().find_map(|l| {
        let rest = l.split("executed ").nth(1)?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimOutput {
    pub residues: u64,
    pub virtual_s: f64,
    pub virtual_gcups: f64,
    /// Σ of the per-PE `completed` column.
    pub completed: u64,
}

pub fn simulate_output(lines: &[String]) -> Result<SimOutput, String> {
    let mut out = SimOutput::default();
    let mut seen_result = false;
    for line in lines {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let Some(rest) = line.strip_prefix("database:") {
            out.residues = rest
                .rsplit('(')
                .next()
                .and_then(|r| r.split_whitespace().next())
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("bad {line:?}"))?;
        } else if words.first() == Some(&"result:") && words.len() >= 6 {
            out.virtual_s = words[1].parse().map_err(|_| format!("bad {line:?}"))?;
            out.virtual_gcups = words[4].parse().map_err(|_| format!("bad {line:?}"))?;
            seen_result = true;
        } else if words.len() == 8 && words[5] == "completed" {
            //   sse0       245.6 s busy    1 completed    9 cancelled
            out.completed += words[4]
                .parse::<u64>()
                .map_err(|_| format!("bad {line:?}"))?;
        }
    }
    if !seen_result {
        return Err("no `result:` line".into());
    }
    Ok(out)
}

/// One daemon `result` line.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    pub tag: Option<String>,
    pub cached: bool,
    pub elapsed_ms: f64,
    pub kernels: Kernels,
    pub hits: Vec<Hit>,
}

pub fn reply(line: &str) -> Result<Reply, String> {
    let j = Json::parse(line)?;
    if j.get("ok").and_then(Json::bool) != Some(true)
        || j.get("type").and_then(Json::str) != Some("result")
    {
        return Err(format!("not an ok result: {line}"));
    }
    if j.get("cancelled").and_then(Json::bool) == Some(true) {
        return Err("cancelled".into());
    }
    let hits = j
        .get("hits")
        .ok_or("no hits")?
        .arr()
        .iter()
        .map(|h| {
            Some(Hit {
                score: h.get("score")?.num()? as i64,
                subject: h.get("id")?.str()?.to_string(),
                len: h.get("len")?.num()? as u64,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("bad hit object")?;
    Ok(Reply {
        tag: j.get("tag").and_then(Json::str).map(str::to_string),
        cached: j.get("cached").and_then(Json::bool).unwrap_or(false),
        elapsed_ms: j.get("elapsed_ms").and_then(Json::num).unwrap_or(0.0),
        kernels: j.get("kernels").map(kernels_json).unwrap_or_default(),
        hits,
    })
}

/// The `kernels` object of result lines, `stats` and `task_kernels` events.
fn kernels_json(k: &Json) -> Kernels {
    let n = |key: &str| k.get(key).and_then(Json::num).unwrap_or(0.0) as u64;
    Kernels {
        chunks_striped: n("chunks_striped"),
        chunks_interseq: n("chunks_interseq"),
        i8: n("striped_i8") + n("interseq_i8"),
        reruns: n("striped_i16") + n("striped_scalar") + n("interseq_i16") + n("interseq_scalar"),
        cells_computed: n("cells_computed"),
    }
}

/// The tag of a result line without parsing the line: replies are stamped
/// on arrival and parsed after the measured phase.
pub fn quick_tag(line: &str) -> Option<usize> {
    let at = line.rfind("\"tag\":\"")? + 7;
    let rest = &line[at..];
    rest[..rest.find('"')?].parse().ok()
}

/// What the benchmark reads from one `stats` reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    pub queue_max_depth: f64,
    pub rejected: f64,
    pub fusion_factor: f64,
    pub cache_hit_rate: f64,
    pub prepared_hit_rate: f64,
    pub pe_gcups_mean: f64,
    pub completed: f64,
}

pub fn stats(line: &str) -> Result<Stats, String> {
    let j = Json::parse(line)?;
    if j.get("type").and_then(Json::str) != Some("stats") {
        return Err(format!("not a stats reply: {line}"));
    }
    let n = |path: &str| j.path(path).and_then(Json::num).unwrap_or(0.0);
    let pes = j.get("pes").map(Json::arr).unwrap_or(&[]);
    let busy: Vec<f64> = pes
        .iter()
        .filter(|p| p.get("tasks_finished").and_then(Json::num).unwrap_or(0.0) > 0.0)
        .filter_map(|p| p.get("mean_gcups").and_then(Json::num))
        .collect();
    Ok(Stats {
        queue_max_depth: n("queue.max_depth"),
        rejected: n("jobs.rejected_queue_full")
            + n("jobs.rejected_client_limit")
            + n("jobs.rejected_draining"),
        fusion_factor: n("fusion.factor"),
        cache_hit_rate: n("cache.hit_rate"),
        prepared_hit_rate: n("prepared_cache.hit_rate"),
        pe_gcups_mean: busy.iter().sum::<f64>() / (busy.len() as f64).max(1.0),
        completed: n("jobs.completed"),
    })
}

/// What the benchmark derives from a `master --events` stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventSummary {
    pub events: u64,
    pub tasks: u64,
    /// Time of the first `tasks_assigned`: the registration barrier opened.
    pub register_s: f64,
    /// Per started task: `task_started` − the `tasks_assigned` that gave it.
    pub assign_to_start_s: Vec<f64>,
    /// Mean over PEs of 1 − busy ÷ (first assignment → `run_completed`).
    pub pe_idle_share: f64,
    pub batch_size_mean: f64,
    pub replicas_started: u64,
    pub replicas_cancelled: u64,
    pub wasted_cells: u64,
    pub kernels: Kernels,
    /// (pe, task, started, finished) of every execution, for the trace.
    pub executions: Vec<(u64, u64, f64, f64)>,
}

pub fn events(text: &str) -> Result<EventSummary, String> {
    use std::collections::HashMap;
    let mut out = EventSummary::default();
    let mut assigned: HashMap<(u64, u64), f64> = HashMap::new();
    let mut started: HashMap<(u64, u64), f64> = HashMap::new();
    let mut busy: HashMap<u64, f64> = HashMap::new();
    let (mut first_assign, mut completed) = (None, None);
    let (mut batches, mut batched) = (0u64, 0u64);
    let mut winners = std::collections::HashSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let j = Json::parse(line)?;
        out.events += 1;
        let n = |key: &str| j.get(key).and_then(Json::num).unwrap_or(0.0);
        let (time, pe, task) = (n("time"), n("pe") as u64, n("task") as u64);
        match j.get("event").and_then(Json::str).unwrap_or("") {
            "tasks_assigned" => {
                first_assign.get_or_insert(time);
                let tasks = j.get("tasks").map(Json::arr).unwrap_or(&[]);
                batches += 1;
                batched += tasks.len() as u64;
                for t in tasks {
                    assigned.insert((pe, t.num().unwrap_or(0.0) as u64), time);
                }
            }
            "task_replicated" | "task_stolen" => {
                if j.get("event").and_then(Json::str) == Some("task_replicated") {
                    out.replicas_started += 1;
                }
                assigned.insert((pe, task), time);
            }
            "task_started" => {
                if let Some(at) = assigned.get(&(pe, task)) {
                    out.assign_to_start_s.push(time - at);
                }
                started.insert((pe, task), time);
            }
            "task_finished" => {
                if j.get("winner").and_then(Json::bool) == Some(true) {
                    winners.insert(task);
                }
                if let Some(at) = started.remove(&(pe, task)) {
                    *busy.entry(pe).or_default() += time - at;
                    out.executions.push((pe, task, at, time));
                }
            }
            "replica_cancelled" => {
                out.replicas_cancelled += 1;
                out.wasted_cells += n("wasted_cells") as u64;
            }
            "task_kernels" => out.kernels.add(&kernels_json(&j)),
            "run_completed" => completed = Some(time),
            "pe_registered" => {
                busy.entry(pe).or_default();
            }
            _ => {}
        }
    }
    let (Some(first), Some(end)) = (first_assign, completed) else {
        return Err("event stream has no tasks_assigned or no run_completed".into());
    };
    out.tasks = winners.len() as u64;
    out.register_s = first;
    out.batch_size_mean = batched as f64 / (batches as f64).max(1.0);
    let span = (end - first).max(f64::MIN_POSITIVE);
    // Work still running at `run_completed` (a losing replica) counts as
    // busy up to that point.
    for ((pe, _), at) in &started {
        *busy.entry(*pe).or_default() += (end - at).max(0.0);
    }
    out.pe_idle_share = busy
        .values()
        .map(|b| (1.0 - b / span).clamp(0.0, 1.0))
        .sum::<f64>()
        / (busy.len() as f64).max(1.0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn lines(name: &str) -> Vec<String> {
        fixture(name).lines().map(str::to_string).collect()
    }

    #[test]
    fn search_fixture() {
        let out = search_output(&lines("search.out")).unwrap();
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0][0].subject, "uniprotk|000000");
        assert_eq!(
            out.tables[0][1],
            Hit {
                score: 65,
                subject: "uniprotk|000774".into(),
                len: 2030
            }
        );
        assert_eq!((out.cells, out.scan_s), (849600285, 0.177));
        assert_eq!(
            out.kernels,
            Kernels {
                chunks_striped: 0,
                chunks_interseq: 63,
                i8: 4029,
                reruns: 3,
                cells_computed: 849600285
            }
        );
        assert!(search_output(&["no summary".to_string()]).is_err());
    }

    #[test]
    fn master_fixture() {
        let out = master_output(&lines("master.out")).unwrap();
        assert_eq!((out.completed, out.elapsed_s), (3, 0.54));
        assert_eq!(out.merged.len(), 5);
        assert_eq!(out.merged[3].0, 0);
        assert_eq!(out.merged[3].1.subject, "uniprotk|000774");
        assert_eq!(out.kernels.chunks_interseq, 84);
        assert_eq!((out.kernels.i8, out.kernels.reruns), (5372, 4));
        assert_eq!(out.kernels.cells_computed, 674745821 + 566752160);
        assert_eq!(
            listen_addr(&lines("master.out")[0]).as_deref(),
            Some("127.0.0.1:33041")
        );
        assert_eq!(
            slave_executed(&["s1: done, executed 2 task(s)".to_string()]),
            Some(2)
        );
    }

    #[test]
    fn events_fixture() {
        let out = events(&fixture("events.jsonl")).unwrap();
        assert_eq!((out.events, out.tasks), (19, 3));
        assert!((out.register_s - 0.326921324).abs() < 1e-12);
        assert_eq!(out.assign_to_start_s.len(), 4);
        assert_eq!((out.replicas_started, out.replicas_cancelled), (1, 1));
        assert_eq!(out.wasted_cells, 256793933);
        assert!((out.batch_size_mean - 1.0).abs() < 1e-12);
        assert_eq!(out.kernels.chunks_interseq, 63);
        assert_eq!(out.executions.len(), 4);
        // Both PEs computed nearly all the way from the first assignment
        // to run_completed.
        assert!(out.pe_idle_share < 0.1, "{}", out.pe_idle_share);
        assert!(events("{\"time\":0,\"event\":\"pe_registered\",\"pe\":0}").is_err());
    }

    #[test]
    fn reply_and_stats_fixtures() {
        let l = lines("serve.jsonl");
        let cold = reply(&l[0]).unwrap();
        assert_eq!(cold.tag.as_deref(), Some("t0"));
        assert!(!cold.cached);
        assert_eq!(cold.hits.len(), 3);
        assert_eq!(cold.hits[0].subject, "uniprotk|000981");
        assert_eq!(cold.kernels.cells_computed, 24213780);
        assert_eq!((cold.kernels.i8, cold.kernels.reruns), (1344, 0));
        let hit = reply(&l[1]).unwrap();
        assert!(hit.cached && hit.hits == cold.hits);
        let s = stats(&l[2]).unwrap();
        assert_eq!(s.queue_max_depth, 1.0);
        assert_eq!(s.cache_hit_rate, 0.5);
        assert_eq!(s.fusion_factor, 1.0);
        assert_eq!(s.completed, 2.0);
        assert!((s.pe_gcups_mean - 0.9609).abs() < 0.001);
        assert!(reply(&l[3]).is_err(), "a bad_request line is not a result");
        assert_eq!(quick_tag("{\"hits\":[],\"tag\":\"417\"}"), Some(417));
        assert_eq!(quick_tag("{\"hits\":[]}"), None);
    }

    #[test]
    fn simulate_fixture() {
        let out = simulate_output(&lines("simulate.out")).unwrap();
        assert_eq!(out.residues, 190814275);
        assert_eq!((out.virtual_s, out.virtual_gcups), (245.7, 198.08));
        assert_eq!(out.completed, 100);
    }
}
