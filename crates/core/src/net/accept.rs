//! Where sockets become sessions: THE accept loop under the master's
//! slave port and the daemon's client and slave ports.

use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Live sessions per port; a connection beyond it gets one error line and
/// is closed. A session costs up to two threads and two descriptors: the
/// benchmark drives at most 3 clients and 2 slaves and the tests a few
/// dozen, and at 128 a daemon's two ports stay at 512 descriptors, inside
/// the common 1024 soft limit.
pub const MAX_SESSIONS: usize = 128;

/// Consecutive `accept` failures that mean a broken listener: a peer that
/// reset before being picked up fails one call, an exhausted or closed
/// listener every call — and returning beats spinning on it.
const MAX_ACCEPT_FAILURES: u32 = 64;

/// A bound listener that can be stopped while it blocks in `accept`.
pub struct Acceptor {
    listener: TcpListener,
    stopped: AtomicBool,
    live: AtomicUsize,
}

impl Acceptor {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Acceptor> {
        Ok(Acceptor {
            listener: TcpListener::bind(addr)?,
            stopped: AtomicBool::new(false),
            live: AtomicUsize::new(0),
        })
    }

    /// The bound address (use with port 0 to discover the chosen port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Whether [`Acceptor::stop`] was called (sessions that should end
    /// with the port poll this).
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Stop accepting: [`Acceptor::run`] returns once its sessions have
    /// ended. The loop blocks in `accept`, so the flag is followed by a
    /// throw-away connection to the port itself.
    pub fn stop(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(mut addr) = self.listener.local_addr() {
            // A wildcard bind is reached through loopback.
            match addr.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
                IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
                _ => {}
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Accept until stopped, running `session` on a scoped thread per
    /// connection (one over [`MAX_SESSIONS`] is sent the `refusal` line
    /// instead); returns after the last session has. Fails only when the
    /// listener itself is broken.
    pub fn run(&self, refusal: &str, session: impl Fn(TcpStream) + Sync) -> io::Result<()> {
        let session = &session;
        std::thread::scope(|scope| {
            let mut failures = 0;
            loop {
                let accepted = self.listener.accept();
                if self.stopped() {
                    return Ok(());
                }
                let mut stream = match accepted {
                    Ok((stream, _peer)) => stream,
                    Err(e) => {
                        failures += 1;
                        if failures > MAX_ACCEPT_FAILURES {
                            return Err(e);
                        }
                        continue;
                    }
                };
                failures = 0;
                if self.live.fetch_add(1, Ordering::SeqCst) >= MAX_SESSIONS {
                    self.live.fetch_sub(1, Ordering::SeqCst);
                    let _ = stream.write_all(format!("{refusal}\n").as_bytes());
                    continue;
                }
                scope.spawn(move || {
                    session(stream);
                    self.live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// Connect and read the first line the port says.
    fn greeted(addr: SocketAddr) -> (BufReader<TcpStream>, String) {
        let mut reader = BufReader::new(TcpStream::connect(addr).unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        (reader, line)
    }

    #[test]
    fn the_cap_refuses_one_over_and_frees_a_slot_when_a_session_ends() {
        let port = Acceptor::bind("127.0.0.1:0").unwrap();
        let addr = port.local_addr().unwrap();
        std::thread::scope(|scope| {
            // A session says hello, then lives until its peer hangs up.
            let served = scope.spawn(|| {
                port.run("full", |mut stream| {
                    stream.write_all(b"hello\n").unwrap();
                    let _ = io::copy(&mut stream, &mut io::sink());
                })
            });
            let mut live: Vec<_> = (0..MAX_SESSIONS).map(|_| greeted(addr)).collect();
            assert!(live.iter().all(|(_, line)| line == "hello\n"));

            let (mut refused, line) = greeted(addr);
            assert_eq!(line, "full\n");
            let mut rest = String::new();
            assert_eq!(refused.read_line(&mut rest).unwrap(), 0, "not closed");

            // One session ends; its slot is free once the port has noticed.
            drop(live.pop());
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while greeted(addr).1 != "hello\n" {
                assert!(std::time::Instant::now() < deadline, "slot never freed");
                std::thread::yield_now();
            }

            // Stopping wakes the blocked accept; run returns after the
            // sessions, which end with their peers.
            port.stop();
            drop(live);
            served.join().unwrap().expect("a healthy listener");
        });
    }
}
