//! Child processes of the program under test: spawn, follow their output,
//! time them from spawn to exit, and sample their peak memory while they
//! run.
//!
//! A [`Proc`] that is dropped before [`Proc::wait`] returned is killed and
//! reaped, so no error path leaves a process behind.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

extern "C" {
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
/// How often a running child's `VmHWM` is read.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Block until `pid` exits and return its wait status.
fn reap(pid: i32) -> Result<i32, String> {
    let mut status = 0i32;
    loop {
        // SAFETY: `status` is valid for writes for the whole call, and
        // `pid` is a child of this process that nothing else reaps (std's
        // `Child` is never waited on).
        let got = unsafe { waitpid(pid, &mut status, 0) };
        if got == pid {
            return Ok(status);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("waitpid({pid}): {err}"));
        }
    }
}

/// `VmHWM` of `/proc/<pid>/status`, kB: the high-water resident set of the
/// process's current address space. (`ru_maxrss` from `wait4` will not do:
/// at `exec` the kernel folds in the peak of the address space the child
/// was spawned from, which is this driver's.)
fn vm_hwm_kb(pid: i32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What is known about a finished child.
#[derive(Clone, Debug)]
pub struct Exit {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// When it exited.
    pub ended: Instant,
    /// Highest `VmHWM` sampled while it ran, MB; the last sample is at most
    /// 20 ms older than the exit.
    pub peak_rss_mb: f64,
    pub stdout: Vec<String>,
}

#[derive(Default)]
struct Lines {
    lines: Vec<String>,
    closed: bool,
}

/// State the sampling thread shares with its [`Proc`].
#[derive(Default)]
struct Sampled {
    hwm_kb: AtomicU64,
    stop: AtomicBool,
}

pub struct Proc {
    pub name: String,
    pid: i32,
    pub started: Instant,
    out: Arc<(Mutex<Lines>, Condvar)>,
    reader: Option<std::thread::JoinHandle<()>>,
    sampled: Arc<Sampled>,
    sampler: Option<std::thread::JoinHandle<()>>,
    reaped: bool,
}

impl Proc {
    /// Spawn `bin args…` with stdout followed line by line and stderr
    /// passed through to the benchmark's own stderr.
    pub fn spawn(name: &str, bin: &std::path::Path, args: &[&str]) -> Result<Proc, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {} {}: {e}", bin.display(), args.join(" ")))?;
        let pid = child.id() as i32;
        let stdout = child.stdout.take().expect("stdout was piped");
        let out = Arc::new((Mutex::new(Lines::default()), Condvar::new()));
        let sink = Arc::clone(&out);
        let reader = std::thread::spawn(move || {
            let (lock, changed) = &*sink;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                lock.lock().expect("reader never panics").lines.push(line);
                changed.notify_all();
            }
            lock.lock().expect("reader never panics").closed = true;
            changed.notify_all();
        });
        let sampled = Arc::new(Sampled::default());
        let shared = Arc::clone(&sampled);
        let sampler = std::thread::spawn(move || {
            // Relaxed: the flag and the maximum publish nothing but
            // themselves, and `wait` joins this thread before reading.
            while !shared.stop.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    shared.hwm_kb.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::park_timeout(SAMPLE_EVERY);
            }
        });
        // `child` is dropped without a wait: this module reaps the pid
        // itself, so that a watchdog can kill it by pid meanwhile.
        Ok(Proc {
            name: name.to_string(),
            pid,
            started,
            out,
            reader: Some(reader),
            sampled,
            sampler: Some(sampler),
            reaped: false,
        })
    }

    /// Block until a stdout line satisfies `pick`, and return what it made
    /// of that line.
    pub fn wait_line<T>(
        &self,
        timeout: Duration,
        pick: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        let deadline = Instant::now() + timeout;
        let (lock, changed) = &*self.out;
        let mut seen = 0;
        let mut guard = lock.lock().expect("reader never panics");
        loop {
            if let Some(found) = guard.lines[seen..].iter().find_map(|l| pick(l)) {
                return Ok(found);
            }
            seen = guard.lines.len();
            let left = deadline.saturating_duration_since(Instant::now());
            if guard.closed || left.is_zero() {
                return Err(format!(
                    "{}: expected line never came; stdout so far: {:?}",
                    self.name, guard.lines
                ));
            }
            guard = changed
                .wait_timeout(guard, left)
                .expect("reader never panics")
                .0;
        }
    }

    fn join_helpers(&mut self) {
        self.sampled.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            sampler.thread().unpark();
            let _ = sampler.join();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    /// Wait for the child to exit on its own; kill it if it has not within
    /// `timeout`. A non-zero exit is an error.
    pub fn wait(mut self, timeout: Duration) -> Result<Exit, String> {
        let done = (Mutex::new(false), Condvar::new());
        let pid = self.pid;
        let status = std::thread::scope(|scope| {
            scope.spawn(|| {
                let (lock, signal) = &done;
                let guard = lock.lock().expect("watchdog never panics");
                let (guard, _) = signal
                    .wait_timeout_while(guard, timeout, |finished| !*finished)
                    .expect("watchdog never panics");
                if !*guard {
                    // SAFETY: plain syscall; `pid` is our unreaped child.
                    unsafe { kill(pid, SIGKILL) };
                }
            });
            let result = reap(pid);
            *done.0.lock().expect("watchdog never panics") = true;
            done.1.notify_all();
            result
        });
        let ended = Instant::now();
        self.reaped = true;
        self.join_helpers();
        let status = status?;
        let stdout = std::mem::take(&mut self.out.0.lock().expect("reader joined").lines);
        if status != 0 {
            let tail: Vec<&String> = stdout.iter().rev().take(5).rev().collect();
            return Err(if status & 0x7f == 0 {
                format!(
                    "{}: exit code {}; last output {tail:?}",
                    self.name,
                    status >> 8
                )
            } else {
                format!(
                    "{}: killed by signal {} (timeout {timeout:?}?)",
                    self.name,
                    status & 0x7f
                )
            });
        }
        Ok(Exit {
            wall_s: (ended - self.started).as_secs_f64(),
            ended,
            peak_rss_mb: self.sampled.hwm_kb.load(Ordering::Relaxed) as f64 / 1024.0,
            stdout,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            // SAFETY: plain syscall; `pid` is our unreaped child.
            unsafe { kill(self.pid, SIGKILL) };
            let _ = reap(self.pid);
        }
        self.join_helpers();
    }
}

/// Run to completion with a 120 s limit.
pub fn run(name: &str, bin: &std::path::Path, args: &[&str]) -> Result<Exit, String> {
    Proc::spawn(name, bin, args)?.wait(Duration::from_secs(120))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn times_a_child_and_samples_its_memory() {
        let exit = run(
            "sh",
            Path::new("/bin/sh"),
            &["-c", "echo one; sleep 0.1; echo two"],
        )
        .unwrap();
        assert_eq!(exit.stdout, ["one", "two"]);
        assert!(exit.wall_s >= 0.1 && exit.peak_rss_mb > 0.1, "{exit:?}");
    }

    #[test]
    fn non_zero_exit_is_an_error() {
        let err = run("sh", Path::new("/bin/sh"), &["-c", "echo oops; exit 3"]).unwrap_err();
        assert!(err.contains("exit code 3") && err.contains("oops"), "{err}");
    }

    #[test]
    fn a_hung_child_is_killed_at_the_timeout() {
        let p = Proc::spawn("sleep", Path::new("/bin/sh"), &["-c", "exec sleep 30"]).unwrap();
        let t = Instant::now();
        let err = p.wait(Duration::from_millis(100)).unwrap_err();
        assert!(err.contains("signal 9"), "{err}");
        assert!(t.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wait_line_finds_a_line_and_reports_a_closed_stream() {
        let p = Proc::spawn("sh", Path::new("/bin/sh"), &["-c", "echo port 4242"]).unwrap();
        let port = p.wait_line(Duration::from_secs(5), |l| {
            l.strip_prefix("port ").and_then(|n| n.parse::<u16>().ok())
        });
        assert_eq!(port, Ok(4242));
        assert!(p
            .wait_line(Duration::from_secs(5), |l| l
                .strip_prefix("never")
                .map(str::to_string))
            .is_err());
    }
}
