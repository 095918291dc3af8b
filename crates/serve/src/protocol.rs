//! The daemon's wire vocabulary: newline-delimited JSON, one message per
//! line, same framing idiom as the master/slave protocol in
//! `swhybrid_core::net`.
//!
//! Client → server requests carry a `verb`:
//!
//! ```text
//! {"verb":"search","query":"MKVL…","top_n":10,"deadline_ms":5000,"tag":"q1","ack":true}
//! {"verb":"status","job":3}
//! {"verb":"cancel","job":3}
//! {"verb":"stats"}
//! {"verb":"reload","store":"/data/db.swdb","verify":true}
//! {"verb":"reload","fasta":"/data/db.fasta"}
//! {"verb":"shutdown"}
//! ```
//!
//! Server → client replies always carry `ok` and `type`. A `search` with
//! `"ack":true` gets an immediate `{"type":"ack","job":N}` (so the client
//! learns its job id for `status`/`cancel`) followed later by the result;
//! without `ack` the result line is the only reply. Results may arrive out
//! of order relative to other verbs on the same connection — `tag` and
//! `job` are the correlation handles.

use swhybrid_json::Json;
use swhybrid_simd::search::Hit;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a query.
    Search(SearchRequest),
    /// Ask about a submitted job.
    Status {
        /// The job id (from an ack or a result).
        job: u64,
    },
    /// Cancel a submitted job.
    Cancel {
        /// The job id.
        job: u64,
    },
    /// Snapshot the daemon's metrics.
    Stats,
    /// Atomically hot-swap the daemon onto a new database generation.
    Reload(ReloadRequest),
    /// Drain in-flight queries, reject new ones, exit.
    Shutdown,
}

/// The payload of a `reload` request: exactly one source.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadRequest {
    /// Path to a `.swdb` store file to map (server-side path).
    pub store: Option<String>,
    /// Path to a FASTA file to parse and encode (server-side path).
    pub fasta: Option<String>,
    /// For store loads: re-hash the arena checksum and db digest before
    /// swapping (the `--verify-store` semantics).
    pub verify: bool,
}

/// The payload of a `search` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Query residues, ASCII (encoded server-side under the daemon's
    /// alphabet).
    pub query: String,
    /// Ranking depth.
    pub top_n: usize,
    /// Optional urgency: milliseconds from admission. Queued jobs are
    /// dispatched oldest-deadline-first.
    pub deadline_ms: Option<u64>,
    /// Opaque client correlation tag, echoed in the result.
    pub tag: Option<String>,
    /// Whether to send an immediate ack with the job id.
    pub ack: bool,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let json = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let verb = json
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing \"verb\"")?;
    match verb {
        "search" => {
            let query = json
                .get("query")
                .and_then(Json::as_str)
                .ok_or("search: missing \"query\"")?
                .to_string();
            let top_n = match json.get("top_n") {
                None => 10,
                Some(v) => v
                    .as_u64()
                    .filter(|&n| n >= 1)
                    .ok_or("search: \"top_n\" must be a positive integer")?
                    as usize,
            };
            let deadline_ms = match json.get("deadline_ms") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("search: \"deadline_ms\" must be a non-negative integer")?,
                ),
            };
            let tag = json.get("tag").and_then(Json::as_str).map(str::to_string);
            let ack = json.get("ack").and_then(Json::as_bool).unwrap_or(false);
            Ok(Request::Search(SearchRequest {
                query,
                top_n,
                deadline_ms,
                tag,
                ack,
            }))
        }
        "status" | "cancel" => {
            let job = json
                .get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{verb}: missing \"job\""))?;
            Ok(if verb == "status" {
                Request::Status { job }
            } else {
                Request::Cancel { job }
            })
        }
        "stats" => Ok(Request::Stats),
        "reload" => {
            let store = json.get("store").and_then(Json::as_str).map(str::to_string);
            let fasta = json.get("fasta").and_then(Json::as_str).map(str::to_string);
            if store.is_some() == fasta.is_some() {
                return Err("reload: exactly one of \"store\" or \"fasta\" required".into());
            }
            let verify = json.get("verify").and_then(Json::as_bool).unwrap_or(false);
            Ok(Request::Reload(ReloadRequest {
                store,
                fasta,
                verify,
            }))
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// Serialize a request (the client side of [`parse_request`]).
pub fn request_to_json(req: &Request) -> Json {
    match req {
        Request::Search(s) => {
            let mut fields = vec![
                ("verb".to_string(), Json::str("search")),
                ("query".to_string(), Json::str(&s.query)),
                ("top_n".to_string(), Json::Num(s.top_n as f64)),
            ];
            if let Some(d) = s.deadline_ms {
                fields.push(("deadline_ms".to_string(), Json::Num(d as f64)));
            }
            if let Some(t) = &s.tag {
                fields.push(("tag".to_string(), Json::str(t)));
            }
            if s.ack {
                fields.push(("ack".to_string(), Json::Bool(true)));
            }
            Json::Obj(fields)
        }
        Request::Status { job } => Json::obj(vec![
            ("verb", Json::str("status")),
            ("job", Json::Num(*job as f64)),
        ]),
        Request::Cancel { job } => Json::obj(vec![
            ("verb", Json::str("cancel")),
            ("job", Json::Num(*job as f64)),
        ]),
        Request::Stats => Json::obj(vec![("verb", Json::str("stats"))]),
        Request::Reload(r) => {
            let mut fields = vec![("verb".to_string(), Json::str("reload"))];
            if let Some(p) = &r.store {
                fields.push(("store".to_string(), Json::str(p)));
            }
            if let Some(p) = &r.fasta {
                fields.push(("fasta".to_string(), Json::str(p)));
            }
            if r.verify {
                fields.push(("verify".to_string(), Json::Bool(true)));
            }
            Json::Obj(fields)
        }
        Request::Shutdown => Json::obj(vec![("verb", Json::str("shutdown"))]),
    }
}

/// Serialize ranked hits as the wire's hit array.
pub fn hits_to_json(hits: &[Hit]) -> Json {
    Json::Arr(
        hits.iter()
            .enumerate()
            .map(|(rank, h)| {
                Json::obj(vec![
                    ("rank", Json::Num((rank + 1) as f64)),
                    ("db_index", Json::Num(h.db_index as f64)),
                    ("id", Json::str(&h.id)),
                    ("score", Json::Num(h.score as f64)),
                    ("len", Json::Num(h.subject_len as f64)),
                ])
            })
            .collect(),
    )
}

/// Parse a wire hit array back into [`Hit`]s (the client side of
/// [`hits_to_json`]).
pub fn hits_from_json(json: &Json) -> Result<Vec<Hit>, String> {
    json.as_array()
        .ok_or("hits is not an array")?
        .iter()
        .map(|h| {
            Ok(Hit {
                db_index: h
                    .get("db_index")
                    .and_then(Json::as_u64)
                    .ok_or("hit: missing db_index")? as usize,
                id: h
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("hit: missing id")?
                    .to_string(),
                score: h
                    .get("score")
                    .and_then(Json::as_i64)
                    .ok_or("hit: missing score")? as i32,
                subject_len: h
                    .get("len")
                    .and_then(Json::as_u64)
                    .ok_or("hit: missing len")? as usize,
            })
        })
        .collect()
}

/// Build an error reply.
pub fn error_reply(kind: &str, code: &str, reason: &str, tag: Option<&str>) -> Json {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("type".to_string(), Json::str(kind)),
        ("error".to_string(), Json::str(code)),
        ("reason".to_string(), Json::str(reason)),
    ];
    if let Some(t) = tag {
        fields.push(("tag".to_string(), Json::str(t)));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_request_round_trips() {
        let req = Request::Search(SearchRequest {
            query: "MKVLAW".into(),
            top_n: 7,
            deadline_ms: Some(2500),
            tag: Some("q1".into()),
            ack: true,
        });
        let line = request_to_json(&req).to_string();
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    #[test]
    fn search_defaults_apply() {
        let req = parse_request(r#"{"verb":"search","query":"ACD"}"#).unwrap();
        let Request::Search(s) = req else {
            panic!("not a search")
        };
        assert_eq!(s.top_n, 10);
        assert_eq!(s.deadline_ms, None);
        assert!(!s.ack);
    }

    #[test]
    fn control_verbs_round_trip() {
        for req in [
            Request::Status { job: 3 },
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Shutdown,
        ] {
            let line = request_to_json(&req).to_string();
            assert_eq!(parse_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"query":"ACD"}"#).is_err());
        assert!(parse_request(r#"{"verb":"explode"}"#).is_err());
        assert!(parse_request(r#"{"verb":"search"}"#).is_err());
        assert!(parse_request(r#"{"verb":"search","query":"A","top_n":0}"#).is_err());
        assert!(parse_request(r#"{"verb":"cancel"}"#).is_err());
        // One line of open brackets is a parse error (the server answers
        // `bad_request`), not a stack overflow.
        assert!(parse_request(&"[".repeat(200_000)).is_err());
    }

    /// Every prefix and every single-bit flip of the canonical request
    /// lines parses or is refused — never a panic. (Flips that leave
    /// UTF-8 never reach the parser: the framer refuses them.)
    #[test]
    fn truncated_and_bit_flipped_requests_never_panic() {
        let canonical = [
            r#"{"verb":"search","query":"MKVLAW","top_n":7,"deadline_ms":2500,"tag":"q\"1","ack":true}"#,
            r#"{"verb":"status","job":3}"#,
            r#"{"verb":"cancel","job":9}"#,
            r#"{"verb":"stats"}"#,
            r#"{"verb":"reload","store":"/data/db.swdb","verify":true}"#,
            r#"{"verb":"reload","fasta":"db.fasta"}"#,
            r#"{"verb":"shutdown"}"#,
        ];
        for line in canonical {
            assert!(parse_request(line).is_ok(), "{line}");
            for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
                let _ = parse_request(&line[..cut]);
            }
            let mut bytes = line.as_bytes().to_vec();
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                if let Ok(flipped) = std::str::from_utf8(&bytes) {
                    let _ = parse_request(flipped);
                }
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn reload_round_trips_and_demands_one_source() {
        for req in [
            Request::Reload(ReloadRequest {
                store: Some("/data/db.swdb".into()),
                fasta: None,
                verify: true,
            }),
            Request::Reload(ReloadRequest {
                store: None,
                fasta: Some("db.fasta".into()),
                verify: false,
            }),
        ] {
            let line = request_to_json(&req).to_string();
            assert_eq!(parse_request(&line).unwrap(), req);
        }
        // No source, or both sources, is malformed.
        assert!(parse_request(r#"{"verb":"reload"}"#).is_err());
        assert!(parse_request(r#"{"verb":"reload","store":"a","fasta":"b"}"#).is_err());
    }

    #[test]
    fn hits_round_trip() {
        let hits = vec![
            Hit {
                db_index: 4,
                id: "s4".into(),
                score: 99,
                subject_len: 120,
            },
            Hit {
                db_index: 0,
                id: "s0".into(),
                score: 42,
                subject_len: 50,
            },
        ];
        let back = hits_from_json(&hits_to_json(&hits)).unwrap();
        assert_eq!(back, hits);
    }

    #[test]
    fn error_reply_shape() {
        let e = error_reply("search", "queue_full", "admission queue full", Some("t"));
        assert!(!e.get("ok").unwrap().as_bool().unwrap());
        assert_eq!(e.get("error").unwrap().as_str().unwrap(), "queue_full");
        assert_eq!(e.get("tag").unwrap().as_str().unwrap(), "t");
    }
}
