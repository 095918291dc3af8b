//! A small blocking client for the daemon's wire protocol — what the
//! `swhybrid query` CLI and the integration tests speak through.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

use swhybrid_core::net::LineReader;
use swhybrid_json::Json;
use swhybrid_simd::search::Hit;

use crate::protocol::{hits_from_json, request_to_json, ReloadRequest, Request, SearchRequest};

/// One connection to a running [`crate::ServeDaemon`].
pub struct ServeClient {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(ServeClient {
            reader: LineReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, json: &Json) -> io::Result<()> {
        writeln!(self.writer, "{json}")
    }

    /// Read the next reply line (blocking).
    pub fn recv(&mut self) -> io::Result<Json> {
        loop {
            let Some(line) = self.reader.read_line()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            return Json::parse(trimmed).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {e}"))
            });
        }
    }

    /// Send a request and return the next reply line.
    pub fn request(&mut self, req: &Request) -> io::Result<Json> {
        self.send(&request_to_json(req))?;
        self.recv()
    }

    /// Fire-and-wait search: submit without ack, block for the result
    /// (or the rejection).
    pub fn search(&mut self, query: &str, top_n: usize) -> io::Result<Json> {
        self.search_request(SearchRequest {
            query: query.to_string(),
            top_n,
            deadline_ms: None,
            tag: None,
            ack: false,
        })
    }

    /// Submit a full search request and block until its result or error
    /// line arrives, skipping any interleaved ack.
    pub fn search_request(&mut self, req: SearchRequest) -> io::Result<Json> {
        self.send(&request_to_json(&Request::Search(req)))?;
        loop {
            let reply = self.recv()?;
            if reply.get("type").and_then(Json::as_str) == Some("ack") {
                continue;
            }
            return Ok(reply);
        }
    }

    /// Fetch the daemon's metrics snapshot.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&Request::Stats)
    }

    /// Ask where a job is.
    pub fn status(&mut self, job: u64) -> io::Result<Json> {
        self.request(&Request::Status { job })
    }

    /// Cancel a job.
    pub fn cancel(&mut self, job: u64) -> io::Result<Json> {
        self.request(&Request::Cancel { job })
    }

    /// Hot-swap the daemon onto a `.swdb` store (server-side path).
    /// `verify` requests a full checksum + digest re-hash before the swap.
    pub fn reload_store(&mut self, path: &str, verify: bool) -> io::Result<Json> {
        self.request(&Request::Reload(ReloadRequest {
            store: Some(path.to_string()),
            fasta: None,
            verify,
        }))
    }

    /// Hot-swap the daemon onto a FASTA file (server-side path).
    pub fn reload_fasta(&mut self, path: &str) -> io::Result<Json> {
        self.request(&Request::Reload(ReloadRequest {
            store: None,
            fasta: Some(path.to_string()),
            verify: false,
        }))
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&Request::Shutdown)
    }

    /// Extract the hits array from a result reply.
    pub fn hits(reply: &Json) -> Result<Vec<Hit>, String> {
        hits_from_json(reply.get("hits").ok_or("reply has no hits")?)
    }
}
