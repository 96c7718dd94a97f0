//! Region dispatch: how a job reaches the workers and how the caller
//! learns they are done with it.
//!
//! A region is published as three atomic writes by the caller: the job
//! slot, the count of workers that must finish, then the epoch. Workers
//! poll the epoch, run the job, and decrement the count; the caller runs
//! its own share and polls the count. No lock is taken on that path, so a
//! fork-join costs two cache-line hand-offs (~1 µs) while every member is
//! on a CPU. Polling is bounded (`wait::ActiveWait`): past the bound a
//! worker parks on a condvar until the next epoch and the caller parks
//! until the count reaches zero, so an idle pool burns nothing and an
//! oversubscribed one behaves like a mutex-and-condvar pool.
//!
//! The job is borrowed from the caller's stack with its lifetime erased.
//! Two happens-before edges make that sound:
//!
//! * **fork** — job slot and count are written, then the epoch is stored
//!   (Release or stronger); a worker loads the epoch (Acquire) before it
//!   loads and dereferences the slot.
//! * **join** — a worker's last use of the job precedes its decrement of
//!   the count (Release or stronger); the caller loads zero (Acquire)
//!   before [`Dispatch::run`] returns and the borrow behind the slot ends.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::padded::CachePadded;
use crate::wait::ActiveWait;

/// Type-erased job: executed once per team member with the member's tid.
type JobFn<'a> = dyn Fn(usize) + Sync + 'a;

/// What the job slot points at: the caller's stack slot holding the
/// (fat) job reference, so the slot itself is one thin atomic pointer.
type JobRef = &'static JobFn<'static>;

/// The state a pool's caller and workers share.
pub(crate) struct Dispatch {
    /// Team members per region, the caller included.
    nthreads: usize,
    /// Regions published so far, shutdown included; the Release half of
    /// the fork edge.
    epoch: CachePadded<AtomicU64>,
    /// The region in flight, null between regions. Null behind a new
    /// epoch is the shutdown message.
    job: AtomicPtr<JobRef>,
    /// Workers still executing the current job; the join edge.
    pending: CachePadded<AtomicUsize>,
    wait: ActiveWait,
    /// Guards nothing but the two condvars' check-then-wait.
    park: Mutex<()>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Workers parked (or about to park) on `work_cv`.
    parked_workers: AtomicUsize,
    /// The caller is parked (or about to park) on `done_cv`.
    caller_parked: AtomicBool,
    /// Panic payloads captured from workers, handed to the caller.
    panics: Mutex<Vec<Box<dyn Any + Send>>>,
}

impl Dispatch {
    pub(crate) fn new(nthreads: usize) -> Self {
        Self {
            nthreads,
            epoch: CachePadded::new(AtomicU64::new(0)),
            job: AtomicPtr::new(ptr::null_mut()),
            pending: CachePadded::new(AtomicUsize::new(0)),
            wait: ActiveWait::for_team(nthreads),
            park: Mutex::new(()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            parked_workers: AtomicUsize::new(0),
            caller_parked: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
        }
    }

    /// Run `job(tid)` once per team member — tid 0 on the calling thread —
    /// and return when all are done. Returns one captured panic payload
    /// (dropping any others) if any member panicked.
    pub(crate) fn run(&self, job: &JobFn<'_>) -> Result<(), Box<dyn Any + Send>> {
        if self.nthreads == 1 {
            // Fast path: no workers, still honour panic semantics.
            return catch_unwind(AssertUnwindSafe(|| job(0)));
        }
        // SAFETY: only the borrow's lifetime changes. The reference is
        // reachable by workers from the `publish` below until `join`
        // returns, which happens before this function does, so no use
        // outlives the real borrow.
        let job: JobRef = unsafe { std::mem::transmute::<&JobFn<'_>, JobRef>(job) };
        let slot: *const JobRef = &job;
        // Claiming the slot is the reentrancy check: a region in flight
        // (this thread's, a worker's or another thread's) holds it.
        // Acquire pairs with the Release that freed the slot, so callers
        // on different threads see each other's regions in order.
        let claimed = self.job.compare_exchange(
            ptr::null_mut(),
            slot.cast_mut(),
            Ordering::Acquire,
            Ordering::Relaxed,
        );
        assert!(claimed.is_ok(), "Pool::run is not reentrant");
        self.pending.store(self.nthreads - 1, Ordering::Relaxed);
        // Fork edge: slot and count are written before this store.
        self.publish();
        // The caller must not leave on its own panic before the workers
        // are done with the job, hence catch_unwind.
        let caller_result = catch_unwind(AssertUnwindSafe(|| job(0)));
        // Join edge: every worker's last use of `slot` happens before its
        // decrement, which the Acquire load in `join` observes.
        self.join();
        self.job.store(ptr::null_mut(), Ordering::Release);
        let mut panics = self.panics.lock();
        if let Err(p) = caller_result {
            panics.push(p);
        }
        match panics.pop() {
            Some(p) => {
                panics.clear();
                Err(p)
            }
            None => Ok(()),
        }
    }

    /// Tell every worker, polling or parked, to leave its loop. The pool
    /// calls this from `drop`, so no region is in flight and the slot is
    /// null.
    pub(crate) fn shutdown(&self) {
        self.publish();
    }

    /// A worker thread's whole life.
    pub(crate) fn worker_loop(&self, tid: usize) {
        for epoch in 1.. {
            self.await_epoch(epoch);
            let slot = self.job.load(Ordering::Relaxed);
            if slot.is_null() {
                return;
            }
            // SAFETY: `await_epoch` acquired the epoch store that follows
            // the write of `slot`, and the caller keeps the pointee (its
            // own stack slot and the closure behind it) alive until `join`
            // has seen this worker's `finish_member`, which comes after
            // the last use here.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*slot)(tid) }));
            if let Err(p) = result {
                self.panics.lock().push(p);
            }
            self.finish_member();
        }
    }

    /// Advance the epoch and wake whoever stopped polling for it.
    ///
    /// SeqCst pairs with `await_epoch`: the increment here and the
    /// `parked_workers` increment there are each followed by a load of the
    /// other, so either this thread sees the parker and notifies under
    /// `park`, or the parker's re-check sees the new epoch.
    fn publish(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked_workers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock();
            self.work_cv.notify_all();
        }
    }

    /// Worker side: wait until `epoch` is published, polling first and
    /// parking on `work_cv` once the bound has passed. Acquire on every
    /// exit path, so the job stored before the epoch is visible after.
    fn await_epoch(&self, epoch: u64) {
        let published = |order| self.epoch.load(order) >= epoch;
        if self.wait.poll(|| published(Ordering::Acquire)) {
            return;
        }
        let mut guard = self.park.lock();
        self.parked_workers.fetch_add(1, Ordering::SeqCst);
        while !published(Ordering::SeqCst) {
            self.work_cv.wait(&mut guard);
        }
        self.parked_workers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Worker side: this member is done with the job pointer.
    ///
    /// SeqCst pairs with `join` the way `publish` pairs with
    /// `await_epoch`; it includes the Release the join edge needs.
    fn finish_member(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && self.caller_parked.load(Ordering::SeqCst)
        {
            let _guard = self.park.lock();
            self.done_cv.notify_one();
        }
    }

    /// Caller side: wait until every worker has called `finish_member`.
    fn join(&self) {
        if self.wait.poll(|| self.pending.load(Ordering::Acquire) == 0) {
            return;
        }
        let mut guard = self.park.lock();
        self.caller_parked.store(true, Ordering::SeqCst);
        while self.pending.load(Ordering::SeqCst) != 0 {
            self.done_cv.wait(&mut guard);
        }
        self.caller_parked.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    /// Tids that ran one region of `pool`, sorted.
    fn tids(pool: &Pool) -> Vec<usize> {
        let mut seen = pool.run(|team| team.tid());
        seen.sort_unstable();
        seen
    }

    /// Block until all of the pool's workers are parked on `work_cv`.
    fn await_parked(pool: &Pool) {
        let workers = pool.nthreads() - 1;
        while pool.dispatch().parked_workers.load(Ordering::SeqCst) < workers {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_region_reaches_workers_that_poll_and_workers_that_parked() {
        let pool = Pool::new(3);
        // Back to back: the workers are still polling for the next epoch
        // (or, on a host with fewer than three CPUs, parked already).
        for _ in 0..100 {
            assert_eq!(tids(&pool), [0, 1, 2]);
        }
        for _ in 0..5 {
            await_parked(&pool);
            assert_eq!(tids(&pool), [0, 1, 2]);
        }
    }

    #[test]
    fn a_worker_panic_reaches_a_caller_that_parked_at_join() {
        // (A caller still polling at join is every test of
        // `tests/panic_isolation.rs`.)
        let pool = Pool::new(2);
        let err = pool
            .run_catching(|team| {
                if team.tid() == 1 {
                    while !pool.dispatch().caller_parked.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    panic!("late");
                }
            })
            .expect_err("the worker's panic is returned");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"late"));
        assert_eq!(tids(&pool), [0, 1], "the pool forks full teams afterwards");
    }

    #[test]
    fn drop_joins_workers_that_poll_and_workers_that_parked() {
        // Dropped right after a region: the workers are mid-poll.
        for _ in 0..50 {
            let pool = Pool::new(3);
            assert_eq!(tids(&pool), [0, 1, 2]);
            drop(pool);
        }
        let pool = Pool::new(3);
        await_parked(&pool);
        drop(pool);
    }
}
