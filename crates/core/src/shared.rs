//! Shared-state wakeups for the real runtimes.
//!
//! An idle PE that received [`crate::sched::Assignment::Wait`] must not
//! poll the [`crate::sched::Scheduler`]: [`WaitHub`] is a mutex + condvar
//! pair, so a waiter is woken the moment another PE finishes a task (or
//! dies and has its work requeued), and the idle→busy latency is
//! microseconds rather than a poll interval.
//!
//! The protocol is deliberately minimal: every mutation of the protected
//! state that could unblock a waiter must be followed by
//! [`WaitHub::notify_all`]. Waiters always re-check their predicate in a
//! loop (both `wait` variants can wake spuriously, as condvars do).

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

#[cfg(debug_assertions)]
mod reentrancy {
    //! Debug-only self-deadlock detector: a thread that calls
    //! [`super::WaitHub::lock`] while already holding the same hub would
    //! block on itself forever (std mutexes are not recursive). Catch it
    //! with a panic and a backtrace instead.
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub fn acquire(hub: usize) {
        HELD.with(|h| {
            let mut v = h.borrow_mut();
            assert!(
                !v.contains(&hub),
                "re-entrant WaitHub::lock: this thread already holds hub {hub:#x} \
                 (self-deadlock)"
            );
            v.push(hub);
        });
    }

    pub fn release(hub: usize) {
        HELD.with(|h| {
            let mut v = h.borrow_mut();
            if let Some(i) = v.iter().rposition(|&k| k == hub) {
                v.remove(i);
            }
        });
    }
}

/// A mutex-protected value plus a condition variable announcing changes.
#[derive(Debug, Default)]
pub struct WaitHub<T> {
    inner: Mutex<T>,
    cv: Condvar,
}

/// The lock guard handed out by [`WaitHub::lock`]; derefs to the protected
/// value. In debug builds it also maintains the per-thread held-hub list
/// backing the re-entrancy check.
#[derive(Debug)]
pub struct HubGuard<'a, T> {
    inner: Option<MutexGuard<'a, T>>,
    hub: usize,
}

impl<T> Deref for HubGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> DerefMut for HubGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for HubGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            #[cfg(debug_assertions)]
            reentrancy::release(self.hub);
            #[cfg(not(debug_assertions))]
            let _ = self.hub;
        }
    }
}

impl<T> WaitHub<T> {
    /// Wrap a value.
    pub fn new(value: T) -> WaitHub<T> {
        WaitHub {
            inner: Mutex::new(value),
            cv: Condvar::new(),
        }
    }

    fn wrap<'a>(&'a self, inner: MutexGuard<'a, T>) -> HubGuard<'a, T> {
        HubGuard {
            inner: Some(inner),
            hub: self as *const WaitHub<T> as usize,
        }
    }

    /// Lock the protected value. Panics in debug builds when the calling
    /// thread already holds this hub (a guaranteed self-deadlock).
    pub fn lock(&self) -> HubGuard<'_, T> {
        #[cfg(debug_assertions)]
        reentrancy::acquire(self as *const WaitHub<T> as usize);
        self.wrap(self.inner.lock().expect("WaitHub lock poisoned"))
    }

    /// Wake every thread blocked in [`WaitHub::wait`] /
    /// [`WaitHub::wait_timeout`]. Call after any mutation that could
    /// unblock a waiter.
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }

    /// Atomically release `guard` and sleep until notified. May wake
    /// spuriously; callers re-check their predicate.
    pub fn wait<'a>(&'a self, mut guard: HubGuard<'a, T>) -> HubGuard<'a, T> {
        // Taking `inner` disarms the guard's release: the thread keeps its
        // held-hub entry across the park — conceptually it still owns the
        // critical section when `wait` returns, and it cannot call `lock`
        // while parked.
        let inner = guard.inner.take().expect("guard taken");
        drop(guard);
        self.wrap_rewait(self.cv.wait(inner).expect("WaitHub lock poisoned"))
    }

    /// Like [`WaitHub::wait`] but with an upper bound on the sleep, for
    /// waiters that also watch a deadline.
    pub fn wait_timeout<'a>(
        &'a self,
        mut guard: HubGuard<'a, T>,
        timeout: Duration,
    ) -> HubGuard<'a, T> {
        let inner = guard.inner.take().expect("guard taken");
        drop(guard);
        self.wrap_rewait(
            self.cv
                .wait_timeout(inner, timeout)
                .expect("WaitHub lock poisoned")
                .0,
        )
    }

    /// Re-wrap a guard returned by a condvar wait without re-registering
    /// the hub in the held list (the waiting thread never released its
    /// logical ownership).
    fn wrap_rewait<'a>(&'a self, inner: MutexGuard<'a, T>) -> HubGuard<'a, T> {
        self.wrap(inner)
    }

    /// Consume the hub and return the protected value (once all sharers
    /// are gone, e.g. after a thread scope ends).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().expect("WaitHub lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn waiter_wakes_on_notify_without_polling() {
        let hub = Arc::new(WaitHub::new(0u32));
        let hub2 = Arc::clone(&hub);
        let waiter = std::thread::spawn(move || {
            let mut guard = hub2.lock();
            while *guard == 0 {
                guard = hub2.wait(guard);
            }
            Instant::now()
        });
        // Let the waiter park, then flip the value and notify.
        std::thread::sleep(Duration::from_millis(50));
        let notified_at;
        {
            let mut guard = hub.lock();
            *guard = 1;
            notified_at = Instant::now();
        }
        hub.notify_all();
        let woke_at = waiter.join().unwrap();
        // Wake-up is event-driven: far below any former poll interval even
        // on a loaded single-core CI box.
        let latency = woke_at.saturating_duration_since(notified_at);
        assert!(
            latency < Duration::from_millis(500),
            "wake latency {latency:?}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-entrant WaitHub::lock")]
    fn reentrant_lock_is_detected() {
        let hub = WaitHub::new(0u32);
        let _outer = hub.lock();
        let _inner = hub.lock(); // would self-deadlock without the detector
    }

    #[test]
    fn guard_release_survives_a_wait() {
        // After a wait the thread still logically owns the hub: dropping
        // the returned guard must release it so a later lock succeeds.
        let hub = WaitHub::new(0u32);
        let guard = hub.lock();
        let guard = hub.wait_timeout(guard, Duration::from_millis(5));
        drop(guard);
        let _again = hub.lock();
    }

    #[test]
    fn wait_timeout_returns_after_deadline() {
        let hub = WaitHub::new(());
        let start = Instant::now();
        let guard = hub.lock();
        let _guard = hub.wait_timeout(guard, Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
