//! Persistent worker pool and fork-join teams.
//!
//! [`Pool::new(n)`](Pool::new) starts `n - 1` persistent worker threads; the
//! calling thread participates in every parallel region as team member 0, so
//! a pool of size `n` always runs regions with exactly `n` threads — the
//! OpenMP execution model.
//!
//! [`Pool::run`] is the equivalent of `#pragma omp parallel`: the closure is
//! executed once per team member, receiving a [`Team`] handle that provides
//! work-sharing loops, barriers, reductions and critical sections.
//!
//! ## SPMD discipline
//!
//! As in OpenMP, the closure must be *single program, multiple data*: every
//! team member must execute the same sequence of team-collective operations
//! (work-sharing loops, barriers, reductions). The runtime debug-asserts
//! collective sequence numbers where it can, but cannot catch every
//! divergence.
//!
//! How a region reaches the workers and how they wait for it is
//! `dispatch.rs`; how long a waiter polls before it parks is `wait.rs`.

use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rvhpc_obs::{self as obs, EventKind};

use crate::barrier::CentralizedBarrier;
use crate::dispatch::Dispatch;
use crate::padded::CachePadded;
use crate::schedule::{self, Schedule};

/// Width of the widest array reduction supported by [`Team::reduce_f64_vec`].
pub(crate) const MAX_REDUCE_WIDTH: usize = 64;

/// Per-team shared structures, reused across parallel regions.
struct TeamShared {
    barrier: CentralizedBarrier,
    /// Double-buffered shared counters for dynamic/guided schedules.
    dyn_counters: [CachePadded<AtomicUsize>; 2],
    /// Reduction scratch: one slot row per thread.
    reduce_slots: Vec<CachePadded<[AtomicU64; MAX_REDUCE_WIDTH]>>,
    /// Lock backing [`Team::critical`].
    critical: Mutex<()>,
    /// Collective sequence numbers per thread, for SPMD divergence checks.
    collective_seq: Vec<CachePadded<AtomicU64>>,
}

impl TeamShared {
    fn new(n: usize) -> Self {
        Self {
            barrier: CentralizedBarrier::new(n),
            dyn_counters: [
                CachePadded::new(AtomicUsize::new(0)),
                CachePadded::new(AtomicUsize::new(0)),
            ],
            reduce_slots: (0..n)
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            critical: Mutex::new(()),
            collective_seq: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }
}

/// A persistent fork-join worker pool (an OpenMP-style thread team factory).
///
/// Dropping the pool shuts the workers down and joins them.
pub struct Pool {
    dispatch: Arc<Dispatch>,
    team: Arc<TeamShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    nthreads: usize,
    /// Parallel regions forked so far; tags Region trace events.
    regions: AtomicU64,
}

impl Pool {
    /// Create a pool that runs parallel regions with `nthreads` members
    /// (the caller plus `nthreads - 1` persistent workers), using the
    /// sense-reversing centralized barrier.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads >= 1, "pool must have at least one thread");
        let dispatch = Arc::new(Dispatch::new(nthreads));
        let team = Arc::new(TeamShared::new(nthreads));
        let mut handles = Vec::with_capacity(nthreads.saturating_sub(1));
        for tid in 1..nthreads {
            let dispatch = Arc::clone(&dispatch);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rvhpc-worker-{tid}"))
                    .spawn(move || dispatch.worker_loop(tid))
                    .expect("failed to spawn pool worker"),
            );
        }
        Self {
            dispatch,
            team,
            handles,
            nthreads,
            regions: AtomicU64::new(0),
        }
    }

    /// Number of threads in every team this pool forks.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The dispatch state, for tests that must see who is parked.
    #[cfg(test)]
    pub(crate) fn dispatch(&self) -> &Dispatch {
        &self.dispatch
    }

    /// Fork a parallel region: run `f` once per team member and collect the
    /// per-thread results indexed by team-local thread id.
    ///
    /// Panics in any team member are propagated to the caller after the
    /// region has fully quiesced. The pool remains structurally usable
    /// afterwards, but note that a region that panics between paired
    /// collectives leaves no way for its surviving members to rendezvous, so
    /// bodies that panic must not hold pending barriers (the runtime cannot
    /// recover a half-completed barrier episode).
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Team) -> R + Sync,
    {
        self.run_with_arg(None, f)
    }

    /// Like [`Pool::run`], but tag every member's `region` trace span with
    /// `trace_id` instead of the pool's region ordinal. The serve layer
    /// uses this to stitch pool-worker execution into a request's trace:
    /// filtering a Chrome trace on the id surfaces the worker spans next
    /// to the request's proto/queue/engine spans.
    pub fn run_traced<R, F>(&self, trace_id: u64, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Team) -> R + Sync,
    {
        self.run_with_arg(Some(trace_id), f)
    }

    /// Like [`Pool::run`], but a panic in any team member is *returned*
    /// instead of re-thrown, leaving the caller free to respawn, retry or
    /// degrade. The serving stack's self-healing shard workers are built on
    /// this: a poisoned batch becomes an `Err` carrying the panic payload,
    /// never an unwinding worker thread.
    ///
    /// The same SPMD caveat as [`Pool::run`] applies: a body that panics
    /// between paired collectives strands its surviving members, so
    /// injected or anticipated panics must happen outside barrier episodes.
    pub fn run_catching<R, F>(&self, f: F) -> Result<Vec<R>, Box<dyn Any + Send>>
    where
        R: Send,
        F: Fn(&Team) -> R + Sync,
    {
        self.run_with_arg_catching(None, f)
    }

    fn run_with_arg<R, F>(&self, trace_arg: Option<u64>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Team) -> R + Sync,
    {
        match self.run_with_arg_catching(trace_arg, f) {
            Ok(results) => results,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    fn run_with_arg_catching<R, F>(
        &self,
        trace_arg: Option<u64>,
        f: F,
    ) -> Result<Vec<R>, Box<dyn Any + Send>>
    where
        R: Send,
        F: Fn(&Team) -> R + Sync,
    {
        let n = self.nthreads;
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        {
            // Snapshot the tracing switch once per region; every Team copy
            // then branches on a register-resident bool, so instrumented
            // inner loops cost nothing when tracing is off.
            let recorder = obs::handle();
            let region = match trace_arg {
                Some(id) => id,
                None if recorder.is_enabled() => self.regions.fetch_add(1, Ordering::Relaxed),
                None => 0,
            };
            let team_shared = Arc::clone(&self.team);
            let results = &results;
            let job = move |tid: usize| {
                let span = recorder.span_start();
                let team = Team {
                    tid,
                    nthreads: n,
                    shared: &team_shared,
                    recorder,
                };
                let r = f(&team);
                *results[tid].lock() = Some(r);
                recorder.record_span(span, EventKind::Region, "parallel", tid as u32, region);
            };
            self.dispatch.run(&job)?;
        }
        Ok(results
            .into_iter()
            .map(|m| m.into_inner().expect("team member produced no result"))
            .collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.dispatch.shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The per-thread view of a parallel region (OpenMP's implicit `omp_get_*`
/// state plus the work-sharing and synchronization constructs).
pub struct Team<'a> {
    tid: usize,
    nthreads: usize,
    shared: &'a Arc<TeamShared>,
    /// Region-scoped tracing snapshot (see [`rvhpc_obs::handle`]).
    recorder: obs::RecorderHandle,
}

impl Team<'_> {
    /// Team-local thread id in `0..nthreads` (`omp_get_thread_num`).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Team size (`omp_get_num_threads`).
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Full team barrier (`#pragma omp barrier`). With tracing on, the
    /// entry-to-exit wait is recorded as a `barrier-wait` span — on the
    /// last thread to arrive it is ~0, on early arrivers it measures load
    /// imbalance directly.
    #[inline]
    pub fn barrier(&self) {
        let span = self.recorder.span_start();
        self.shared.barrier.wait(self.tid);
        self.recorder
            .record_span(span, EventKind::BarrierWait, "barrier", self.tid as u32, 0);
    }

    /// Run `f` as a named algorithmic phase. With tracing on, this
    /// thread's execution of `f` is recorded as a `phase` span under
    /// `name` — benchmarks use names matching their `PhaseProfile`
    /// entries, so traces line up with the analytic workload model.
    #[inline]
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.recorder.span_start();
        let r = f();
        self.recorder
            .record_span(span, EventKind::Phase, name, self.tid as u32, 0);
        r
    }

    /// The contiguous sub-range of `lo..hi` owned by this thread under a
    /// static block distribution — the building block for loops where the
    /// caller wants to own the iteration itself.
    #[inline]
    pub fn static_range(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        schedule::static_block(lo, hi, self.tid, self.nthreads)
    }

    /// `#pragma omp for schedule(static)` with an implicit ending barrier.
    #[inline]
    pub fn for_static(&self, lo: usize, hi: usize, body: impl FnMut(usize)) {
        self.for_static_nowait(lo, hi, body);
        self.barrier();
    }

    /// Static loop without the ending barrier (`nowait`).
    #[inline]
    pub(crate) fn for_static_nowait(&self, lo: usize, hi: usize, mut body: impl FnMut(usize)) {
        let range = self.static_range(lo, hi);
        let len = range.len() as u64;
        let span = self.recorder.span_start();
        for i in range {
            body(i);
        }
        self.recorder.record_span(
            span,
            EventKind::ChunkAcquire,
            "static",
            self.tid as u32,
            len,
        );
    }

    /// Work-sharing loop with an arbitrary [`Schedule`] and implicit ending
    /// barrier. Dynamic and guided schedules share work through a team-wide
    /// counter; static schedules never touch shared state.
    ///
    /// With tracing on, every chunk a thread claims is recorded as a
    /// `chunk-acquire` span (claim through completion, `arg` = iterations),
    /// named after the schedule kind.
    pub fn for_schedule(&self, lo: usize, hi: usize, sched: Schedule, mut body: impl FnMut(usize)) {
        match sched {
            Schedule::Static => {
                self.for_static_nowait(lo, hi, body);
            }
            Schedule::StaticChunk(chunk) => {
                let chunk = chunk.max(1);
                let mut start = lo + self.tid * chunk;
                while start < hi {
                    let end = (start + chunk).min(hi);
                    let span = self.recorder.span_start();
                    for i in start..end {
                        body(i);
                    }
                    self.recorder.record_span(
                        span,
                        EventKind::ChunkAcquire,
                        "static-chunk",
                        self.tid as u32,
                        (end - start) as u64,
                    );
                    start += self.nthreads * chunk;
                }
            }
            Schedule::Dynamic(chunk) => {
                let chunk = chunk.max(1);
                let counter = self.claim_loop_counter();
                loop {
                    let span = self.recorder.span_start();
                    let start = lo + counter.fetch_add(chunk, Ordering::Relaxed);
                    if start >= hi {
                        break;
                    }
                    let end = (start + chunk).min(hi);
                    for i in start..end {
                        body(i);
                    }
                    self.recorder.record_span(
                        span,
                        EventKind::ChunkAcquire,
                        "dynamic",
                        self.tid as u32,
                        (end - start) as u64,
                    );
                }
            }
            Schedule::Guided(min_chunk) => {
                let min_chunk = min_chunk.max(1);
                let total = hi.saturating_sub(lo);
                let counter = self.claim_loop_counter();
                loop {
                    // Claim a chunk proportional to the remaining work.
                    let span = self.recorder.span_start();
                    let claimed;
                    let mut size;
                    loop {
                        let cur = counter.load(Ordering::Relaxed);
                        if cur >= total {
                            return self.finish_shared_loop();
                        }
                        let remaining = total - cur;
                        size = (remaining / (2 * self.nthreads))
                            .max(min_chunk)
                            .min(remaining);
                        match counter.compare_exchange_weak(
                            cur,
                            cur + size,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => {
                                claimed = cur;
                                break;
                            }
                            Err(_) => continue,
                        }
                    }
                    for i in lo + claimed..lo + claimed + size {
                        body(i);
                    }
                    self.recorder.record_span(
                        span,
                        EventKind::ChunkAcquire,
                        "guided",
                        self.tid as u32,
                        size as u64,
                    );
                }
            }
        }
        self.finish_shared_loop();
    }

    /// Dynamic work-sharing loop (`schedule(dynamic, chunk)`).
    #[inline]
    pub fn for_dynamic(&self, lo: usize, hi: usize, chunk: usize, body: impl FnMut(usize)) {
        self.for_schedule(lo, hi, Schedule::Dynamic(chunk), body);
    }

    /// Claim the shared counter for the next dynamic/guided loop episode.
    ///
    /// Counters are double-buffered by collective parity: the counter a loop
    /// uses was last touched two shared loops ago, and the intervening
    /// loop's ending barrier guarantees every thread is done with it, so
    /// thread 0 can reset it here without a race.
    fn claim_loop_counter(&self) -> &AtomicUsize {
        let seq = self.shared.collective_seq[self.tid].load(Ordering::Relaxed);
        &self.shared.dyn_counters[(seq % 2) as usize]
    }

    /// End-of-shared-loop bookkeeping: advance this thread's collective
    /// sequence, barrier, then reset the *other* parity's counter for reuse.
    fn finish_shared_loop(&self) {
        let seq = self.shared.collective_seq[self.tid].load(Ordering::Relaxed);
        self.shared.collective_seq[self.tid].store(seq + 1, Ordering::Relaxed);
        self.barrier();
        if self.tid == 0 {
            // Safe: the counter of parity (seq+1)%2 will next be used by the
            // next shared loop; every thread has passed the barrier above
            // and no longer touches it for the *previous* loop of that
            // parity.
            self.shared.dyn_counters[((seq + 1) % 2) as usize].store(0, Ordering::Relaxed);
        }
        self.barrier();
    }

    /// Sum-reduce a per-thread `f64`; every member receives the team total.
    pub fn reduce_sum(&self, local: f64) -> f64 {
        self.reduce_f64_vec(&[local])[0]
    }

    /// Sum-reduce a per-thread `u64`; every member receives the team total.
    pub fn reduce_sum_u64(&self, local: u64) -> u64 {
        self.store_slot(0, local);
        self.barrier();
        let mut acc = 0u64;
        for row in &self.shared.reduce_slots {
            acc = acc.wrapping_add(row[0].load(Ordering::Relaxed));
        }
        self.barrier();
        acc
    }

    /// Element-wise sum-reduce a small vector of per-thread `f64` values
    /// (up to [`MAX_REDUCE_WIDTH`]); every member receives the totals.
    /// Costs exactly two barriers regardless of width.
    pub fn reduce_f64_vec(&self, locals: &[f64]) -> Vec<f64> {
        assert!(
            locals.len() <= MAX_REDUCE_WIDTH,
            "reduce width {} exceeds MAX_REDUCE_WIDTH {}",
            locals.len(),
            MAX_REDUCE_WIDTH
        );
        for (k, &v) in locals.iter().enumerate() {
            self.store_slot(k, v.to_bits());
        }
        self.barrier();
        let mut out = vec![0.0f64; locals.len()];
        for row in &self.shared.reduce_slots {
            for (k, o) in out.iter_mut().enumerate() {
                *o += f64::from_bits(row[k].load(Ordering::Relaxed));
            }
        }
        self.barrier();
        out
    }

    #[inline]
    fn store_slot(&self, k: usize, bits: u64) {
        self.shared.reduce_slots[self.tid][k].store(bits, Ordering::Relaxed);
    }

    /// Execute `f` under the team's critical-section lock
    /// (`#pragma omp critical`). With tracing on, the time spent *waiting
    /// to acquire* the lock is recorded as a `critical-wait` span — the
    /// direct measure of critical-section contention.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        let span = self.recorder.span_start();
        let _guard = self.shared.critical.lock();
        self.recorder.record_span(
            span,
            EventKind::CriticalWait,
            "critical",
            self.tid as u32,
            0,
        );
        f()
    }

    /// Execute `f` on team member 0 only, followed by a barrier
    /// (`#pragma omp single` semantics for the common master-does-it case).
    pub fn single(&self, f: impl FnOnce()) {
        if self.tid == 0 {
            f();
        }
        self.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let r = pool.run(|team| {
            assert_eq!(team.tid(), 0);
            assert_eq!(team.nthreads(), 1);
            42
        });
        assert_eq!(r, vec![42]);
    }

    #[test]
    fn all_members_run_with_distinct_tids() {
        let pool = Pool::new(4);
        let mut tids = pool.run(|team| team.tid());
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_is_reusable_across_regions() {
        let pool = Pool::new(3);
        for round in 0..50 {
            let r = pool.run(|team| team.tid() + round);
            assert_eq!(r.len(), 3);
            assert_eq!(r.iter().sum::<usize>(), 3 * round + 3);
        }
    }

    #[test]
    fn static_loop_covers_range_exactly_once() {
        let pool = Pool::new(4);
        let n = 1003usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|team| {
            team.for_static(0, n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dynamic_loop_covers_range_exactly_once() {
        let pool = Pool::new(4);
        let n = 997usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|team| {
            team.for_dynamic(0, n, 7, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn guided_loop_covers_range_exactly_once() {
        let pool = Pool::new(3);
        let n = 1234usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|team| {
            team.for_schedule(0, n, Schedule::Guided(4), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn consecutive_dynamic_loops_reset_counters() {
        let pool = Pool::new(4);
        let n = 100usize;
        for _ in 0..20 {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(|team| {
                for _ in 0..5 {
                    team.for_dynamic(0, n, 3, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 5));
        }
    }

    #[test]
    fn mixed_dynamic_and_guided_loops_interleave_safely() {
        let pool = Pool::new(3);
        let n = 256usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|team| {
            team.for_dynamic(0, n, 5, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            team.for_schedule(0, n, Schedule::Guided(2), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            team.for_dynamic(0, n, 1, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 3));
    }

    #[test]
    fn reduce_sum_matches_serial() {
        let pool = Pool::new(4);
        let n = 10_000usize;
        let out = pool.run(|team| {
            let mut local = 0.0f64;
            team.for_static_nowait(0, n, |i| local += i as f64);
            team.reduce_sum(local)
        });
        let expect = (0..n).map(|i| i as f64).sum::<f64>();
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn reduce_vec_sums_elementwise() {
        let pool = Pool::new(4);
        let out = pool.run(|team| {
            let t = team.tid() as f64;
            team.reduce_f64_vec(&[t, 2.0 * t, 1.0])
        });
        for v in out {
            assert_eq!(v, vec![6.0, 12.0, 4.0]);
        }
    }

    #[test]
    fn critical_section_serializes() {
        // A load and a store that only add up when nothing runs between
        // them: an unserialized section loses increments.
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        pool.run(|team| {
            for _ in 0..1000 {
                team.critical(|| {
                    let seen = counter.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    counter.store(seen + 1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn single_runs_once() {
        let pool = Pool::new(4);
        let count = AtomicUsize::new(0);
        pool.run(|team| {
            team.single(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::new(3);
        pool.run(|team| {
            if team.tid() == 2 {
                panic!("deliberate");
            }
            // Other members do un-synchronized work only (a barrier here
            // would deadlock against the panicked member).
            std::hint::black_box(team.tid());
        });
    }

    #[test]
    fn results_are_indexed_by_tid() {
        let pool = Pool::new(5);
        let r = pool.run(|team| team.tid() * 2);
        assert_eq!(r, vec![0, 2, 4, 6, 8]);
    }
}
