//! The daemon's network edge under hostile peers, over real TCP: an
//! over-long or non-UTF-8 line, one connection too many, and a client that
//! pipelines requests and never reads a reply. Each costs only the
//! connection that did it; the daemon keeps answering everyone else.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::{RngExt, SeedableRng};
use swhybrid_align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid_core::net::{NetConfig, MAX_LINE, MAX_SESSIONS};
use swhybrid_json::Json;
use swhybrid_seq::sequence::EncodedSequence;
use swhybrid_seq::{Alphabet, DbSnapshot};
use swhybrid_serve::server::CLIENT_WRITE_TIMEOUT;
use swhybrid_serve::service::ServiceConfig;
use swhybrid_serve::{ServeClient, ServeDaemon};

const QUERY: &str = "MKVLAWTRESDFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQ";

/// The database as every driver holds it.
fn snap(db: &[EncodedSequence]) -> DbSnapshot {
    DbSnapshot::from_encoded("", db)
}

fn scoring() -> Scoring {
    Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    }
}

fn tiny_db() -> Vec<EncodedSequence> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    (0..3)
        .map(|i| EncodedSequence {
            id: format!("s{i}"),
            codes: (0..80).map(|_| rng.random_range(0..20u8)).collect(),
            alphabet: Alphabet::Protein,
        })
        .collect()
}

/// A one-worker, cache-less daemon with a slave port: `(client, slaves,
/// handle)`.
fn start_daemon() -> (
    SocketAddr,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let config = ServiceConfig {
        workers: 1,
        cache_capacity: 0,
        ..Default::default()
    };
    let daemon =
        ServeDaemon::bind_snapshot(("127.0.0.1", 0), snap(&tiny_db()), scoring(), config).unwrap();
    let addr = daemon.local_addr().unwrap();
    let slaves = daemon
        .listen_slaves(("127.0.0.1", 0), NetConfig::default())
        .unwrap();
    (addr, slaves, std::thread::spawn(move || daemon.run()))
}

/// Send `bytes`, then read to EOF: the lines the peer said before it hung
/// up, and how long that took.
fn say(addr: SocketAddr, bytes: &[u8]) -> (Vec<String>, Duration) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let sent = Instant::now();
    stream.write_all(bytes).unwrap();
    let lines = BufReader::new(stream)
        .lines()
        .collect::<Result<_, _>>()
        .unwrap();
    (lines, sent.elapsed())
}

fn still_serving(addr: SocketAddr) {
    let reply = ServeClient::connect(addr)
        .unwrap()
        .search(QUERY, 3)
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
}

fn shut_down(addr: SocketAddr, daemon: std::thread::JoinHandle<std::io::Result<()>>) {
    ServeClient::connect(addr).unwrap().shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn oversize_and_non_utf8_lines_cost_only_their_connection() {
    let (addr, slaves, daemon) = start_daemon();
    let oversize = vec![b'A'; MAX_LINE + 1];

    // Client port: `bad_request`, then closed. Quadratic rescanning of
    // 16 MiB takes minutes, so the bound is generous and still telling.
    let (lines, took) = say(addr, &oversize);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("bad_request") && lines[0].contains("longer than"));
    assert!(took < Duration::from_secs(5), "took {took:?}");
    still_serving(addr);

    let (lines, _) = say(addr, b"{\"verb\":\"st\xffts\"}\n");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("bad_request") && lines[0].contains("UTF-8"));
    still_serving(addr);

    // The daemon's slave port: an `error` line, then closed.
    let (lines, took) = say(slaves, &oversize);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"error\"") && lines[0].contains("longer than"));
    assert!(took < Duration::from_secs(5), "took {took:?}");
    still_serving(addr);

    shut_down(addr, daemon);
}

/// Regression: an empty `query` reached the profile builder and panicked
/// the connection's thread, so the client saw a hang-up and no reply.
#[test]
fn an_empty_query_is_refused_and_the_connection_lives() {
    let (addr, _, daemon) = start_daemon();
    let mut client = ServeClient::connect(addr).unwrap();
    let reply = client.search("", 3).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_query"));
    let reply = client.search(QUERY, 3).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    shut_down(addr, daemon);
}

#[test]
fn one_connection_over_the_cap_is_refused() {
    let (addr, _slaves, daemon) = start_daemon();
    // The accept loop counts a connection before it takes the next, so
    // sequential connects fill the cap deterministically.
    let held: Vec<TcpStream> = (0..MAX_SESSIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let (lines, _) = say(addr, b"");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("too_many_connections"));
    drop(held);
    // Slots free as the daemon notices the hang-ups.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = ServeClient::connect(addr).unwrap().stats().unwrap();
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "no slot ever freed: {reply}");
    }
    shut_down(addr, daemon);
}

/// The reproduction of the frozen daemon: one connection pipelines 40,000
/// searches and never reads. Results and rejections fill its socket, the
/// next reply blocks — on the parent commit forever, holding the writer
/// mutex with the only worker queued behind it. Here the write times out,
/// the connection is shut down, and a second client is answered.
#[test]
fn a_client_that_never_reads_does_not_freeze_the_daemon() {
    let (addr, _slaves, daemon) = start_daemon();
    let request = format!(
        "{{\"verb\":\"search\",\"query\":\"{QUERY}\",\"top_n\":3,\"tag\":\"{}\"}}\n",
        "t".repeat(100)
    );
    let (stalled_tx, stalled_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let flood = request.repeat(40_000);
        // Ends in an error once the daemon has given up on this peer.
        let _ = stalled_tx.send(stream.write_all(flood.as_bytes()).is_err());
    });
    let cut_off = stalled_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the flood neither finished nor was cut off: the daemon froze");
    assert!(
        cut_off,
        "the flood fit into the socket buffers; nothing stalled"
    );

    let (answered_tx, answered_rx) = mpsc::channel();
    std::thread::spawn(move || {
        still_serving(addr);
        let _ = answered_tx.send(());
    });
    answered_rx
        .recv_timeout(2 * CLIENT_WRITE_TIMEOUT + Duration::from_secs(2))
        .expect("the second client got no answer");
    shut_down(addr, daemon);
}
