//! The team barrier.
//!
//! [`CentralizedBarrier`] is a sense-reversing centralized barrier: one
//! shared counter plus a global sense flag. O(p) traffic on one cache
//! line; the simplest correct choice and competitive at the team sizes
//! the NPB suite uses.
//!
//! A waiter polls the sense flag and offers its CPU to the scheduler
//! every 64 polls (see `wait.rs`), so the barrier stays livelock-free
//! when the host is oversubscribed (this workspace's CI host has a single
//! hardware thread) and costs a cache-line hand-off when it is not.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::padded::CachePadded;
use crate::wait::poll_until;

/// Sense-reversing centralized barrier.
///
/// Each arrival increments a shared counter; the last arrival resets the
/// counter and flips the global sense, releasing the waiters. Per-thread
/// local sense lives inside the barrier (indexed by team-local tid) so the
/// same object can be reused for an unbounded number of barrier episodes.
pub struct CentralizedBarrier {
    count: CachePadded<AtomicUsize>,
    sense: CachePadded<AtomicBool>,
    local_sense: Vec<CachePadded<AtomicBool>>,
    n: usize,
}

impl CentralizedBarrier {
    /// Barrier for a team of `n` threads (`n >= 1`).
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier team must have at least one thread");
        Self {
            count: CachePadded::new(AtomicUsize::new(0)),
            sense: CachePadded::new(AtomicBool::new(false)),
            local_sense: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            n,
        }
    }

    /// Block until all `n` participants have called `wait`, each passing
    /// its own team-local thread id.
    pub(crate) fn wait(&self, tid: usize) {
        debug_assert!(
            tid < self.n,
            "tid {tid} out of range for team of {}",
            self.n
        );
        if self.n == 1 {
            return;
        }
        // Flip this thread's sense for the new episode. Only `tid` ever
        // writes its own slot, so Relaxed suffices for the slot itself.
        let my_sense = !self.local_sense[tid].load(Ordering::Relaxed);
        self.local_sense[tid].store(my_sense, Ordering::Relaxed);

        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arrival: reset and release everyone.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
        } else {
            poll_until(|| self.sense.load(Ordering::Acquire) == my_sense, || false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn hammer(barrier: Arc<CentralizedBarrier>, n: usize, episodes: usize) {
        // Each thread increments a shared counter once per episode; after
        // the barrier, every thread must observe exactly n*episode counts.
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for tid in 0..n {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for e in 1..=episodes {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait(tid);
                    let seen = c.load(Ordering::SeqCst);
                    assert!(
                        seen >= (n * e) as u64,
                        "thread {tid} episode {e}: saw {seen} < {}",
                        n * e
                    );
                    b.wait(tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (n * episodes) as u64);
    }

    #[test]
    fn centralized_single_thread_is_noop() {
        let b = CentralizedBarrier::new(1);
        for _ in 0..100 {
            b.wait(0);
        }
    }

    #[test]
    fn centralized_synchronizes_many_episodes() {
        for n in [2, 3, 4, 7] {
            hammer(Arc::new(CentralizedBarrier::new(n)), n, 200);
        }
    }
}
