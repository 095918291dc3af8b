//! Lifecycle transitions: hot database reloads, draining, and shutdown.

use std::sync::Arc;
use std::time::Duration;

use swhybrid_core::pool::Identity;
use swhybrid_seq::DbSnapshot;

use super::QueryService;

impl QueryService {
    /// Atomically swap the daemon onto a new database snapshot (a hot
    /// reload). Running jobs keep scanning their own snapshot
    /// (`Arc`-shared), so no query ever observes a mixed-generation
    /// database; new submissions see the new content under a bumped
    /// generation, which makes every cached result of the old database
    /// unreachable (the cache is also cleared outright to release the
    /// memory). Remote slaves are disconnected — their database copy is
    /// now stale — and their in-flight shards requeue to the local
    /// workers; a slave holding the new database (under the same scoring)
    /// can immediately rejoin under its identity. Returns the new
    /// generation.
    pub fn swap_snapshot(&self, snapshot: DbSnapshot) -> u64 {
        let (generation, remote) = {
            let mut g = self.inner.pool.lock();
            let o = &mut g.owner;
            o.identity = Identity::of(&snapshot, &self.inner.scoring);
            o.db = Arc::new(snapshot);
            o.db_generation += 1;
            o.cache.clear();
            let generation = o.db_generation;
            (generation, g.remote_members())
        };
        for pe in remote {
            self.inner.pool.disconnect(pe, false);
        }
        generation
    }

    /// Stop admitting new queries; queued and running ones still complete.
    pub fn begin_drain(&self) {
        self.inner.pool.lock().owner.draining = true;
        self.inner.pool.notify_all();
    }

    /// Graceful shutdown: reject new admissions, wait for every queued and
    /// running job to deliver its reply, then stop the workers (and any
    /// slave listeners) and join them.
    pub fn shutdown(mut self) {
        self.begin_drain();
        loop {
            let mut g = self.inner.pool.lock();
            if g.owner.active_jobs == 0 && g.owner.queue.depth() == 0 {
                g.master.set_keep_alive(false);
                break;
            }
            let _g = self.inner.pool.wait_timeout(g, Duration::from_millis(50));
        }
        self.inner.pool.notify_all();
        self.stop_everything();
    }

    /// Stop listeners, disconnect remote slaves, join workers. The engine
    /// is already stopped (`keep_alive` off).
    fn stop_everything(&mut self) {
        let listeners: Vec<_> = self
            .listeners
            .lock()
            .expect("listener registry")
            .drain(..)
            .collect();
        for (port, _) in &listeners {
            port.stop();
        }
        // Remote sessions see `Done` on their next request; disconnect the
        // rest proactively so their reader threads exit within a quantum.
        // The member list must be snapshotted BEFORE the loop: a `for` over
        // `pool.lock().remote_members()` keeps the guard alive for the whole
        // loop body, and `disconnect` locks the pool again — self-deadlock.
        let remote = self.inner.pool.lock().remote_members();
        for pe in remote {
            self.inner.pool.disconnect(pe, false);
        }
        // A port's thread returns once its sessions have ended.
        for (_, h) in listeners {
            h.join().expect("slave listener panicked");
        }
        for h in self.workers.drain(..) {
            h.join().expect("PE worker panicked");
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // shutdown() already joined
        }
        {
            let mut g = self.inner.pool.lock();
            g.owner.draining = true;
            g.master.set_keep_alive(false);
        }
        self.inner.pool.notify_all();
        self.stop_everything();
    }
}
