//! How the runtime waits.
//!
//! Every waiter in this crate — a barrier arrival, a worker waiting for
//! the next region, the caller waiting for join — polls the atomic it
//! waits on and offers its CPU to the OS scheduler every
//! [`SPINS_PER_YIELD`] polls ([`poll_until`]). While every team member
//! has a CPU the yield returns at once and a release is seen within a
//! microsecond; when two members share one (an oversubscribed team, a
//! single-CPU CI runner, or a kernel that started both threads of a
//! team on one CPU and takes a second to notice) the yield is what lets
//! the awaited thread run. A waiter that spins without it holds the CPU
//! for its whole bound at every hand-over, which measured 3–10× slower
//! than parking until the kernel separated the threads.
//!
//! A barrier polls until released. The pool's waiters may wait for
//! minutes, so they poll for a bounded time and then park on a condvar;
//! [`ActiveWait`] is that bound, chosen from one observation: a team that
//! fits the host's CPUs ([`std::thread::available_parallelism`]) polls for
//! [`ACTIVE_WAIT`], because a park/wake round trip costs ~35 µs and the
//! next region of a solver step is a few microseconds away; an
//! oversubscribed team polls once round and parks, because the thread it
//! waits for needs the CPU more. These are libgomp's two regimes
//! (`GOMP_SPINCOUNT` and its throttled count) with the yield added;
//! DESIGN.md's `rvhpc-parallel` section has the measurements.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Polls between two yields to the scheduler.
const SPINS_PER_YIELD: u32 = 64;

/// How long a member of a team that fits the host polls before it parks:
/// ~30 park/wake round trips, far above any gap between two regions of one
/// solver step, and short enough that a pool left idle costs nothing a
/// person would notice.
const ACTIVE_WAIT: Duration = Duration::from_millis(1);

/// Poll `ready` until it holds (returns `true`) or, checked once per
/// [`SPINS_PER_YIELD`] polls, `expired` does (returns `false`).
#[inline]
pub(crate) fn poll_until(
    mut ready: impl FnMut() -> bool,
    mut expired: impl FnMut() -> bool,
) -> bool {
    loop {
        for _ in 0..SPINS_PER_YIELD {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if expired() {
            return false;
        }
        std::thread::yield_now();
    }
}

/// CPUs this process may run on, read once.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The bounded polling phase of a wait that ends in parking.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveWait {
    /// Whether the team has a CPU per member.
    fits_host: bool,
}

impl ActiveWait {
    /// The policy for a team of `nthreads` on this host.
    pub(crate) fn for_team(nthreads: usize) -> Self {
        Self {
            fits_host: nthreads <= host_cpus(),
        }
    }

    /// Poll `ready` until it holds or the bound passes; returns whether it
    /// held.
    #[inline]
    pub(crate) fn poll(self, ready: impl FnMut() -> bool) -> bool {
        // The clock is read only by waits that outlast their first round.
        let mut start = None;
        poll_until(ready, || {
            !self.fits_host || start.get_or_insert_with(Instant::now).elapsed() >= ACTIVE_WAIT
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_gives_up_at_its_bound_and_says_so() {
        let mut polls = 0u32;
        let throttled = ActiveWait { fits_host: false };
        assert!(!throttled.poll(|| {
            polls += 1;
            false
        }));
        assert_eq!(
            polls, SPINS_PER_YIELD,
            "an oversubscribed team polls once round"
        );
        let active = ActiveWait { fits_host: true };
        let start = Instant::now();
        assert!(!active.poll(|| false));
        assert!(start.elapsed() >= ACTIVE_WAIT);
        assert!(active.poll(|| true) && throttled.poll(|| true));
    }

    #[test]
    fn a_team_larger_than_the_host_is_throttled() {
        assert!(ActiveWait::for_team(1).fits_host);
        assert!(!ActiveWait::for_team(host_cpus() + 1).fits_host);
    }
}
