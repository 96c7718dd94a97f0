//! # rvhpc-parallel
//!
//! An OpenMP-style fork-join parallel runtime, built from scratch on scoped
//! OS threads and `parking_lot` primitives.
//!
//! The NAS Parallel Benchmarks that this workspace ports (see `rvhpc-npb`)
//! are written against the OpenMP execution model: a *team* of threads is
//! forked once, and inside the parallel region the team cooperates through
//! work-sharing loops, barriers and reductions. This crate reproduces that
//! model natively in Rust:
//!
//! * [`Pool`] — a persistent worker pool; [`Pool::run`] forks a team over a
//!   closure (the equivalent of `#pragma omp parallel`).
//! * [`Team`] — the per-thread view of a parallel region: thread id, team
//!   size, work-sharing loops ([`Team::for_static`], [`Team::for_dynamic`],
//!   [`Team::for_schedule`]), [`Team::barrier`], reductions
//!   ([`Team::reduce_sum`], [`Team::reduce_f64_vec`]) and
//!   [`Team::critical`] sections.
//! * [`Schedule`] — static / static-chunked / dynamic / guided
//!   loop schedules, mirroring `schedule(...)` clauses.
//! * [`CentralizedBarrier`] — the sense-reversing team barrier, safe when
//!   the machine is oversubscribed.
//! * [`CachePadded`] — 128-byte alignment that keeps the runtime's hot
//!   atomics on their own cache lines.
//! * [`placement`] — thread-placement policies mirroring `OMP_PROC_BIND`
//!   (`false`/`close`/`spread`), used by the architecture simulator to
//!   reproduce the paper's §5.2 placement experiment.
//! * [`TeamChunks`] — one slice dealt to the team in the blocks
//!   of a static schedule, each member's part an ordinary `&mut [T]`;
//!   [`SyncSlice`] — the escape hatch for the disjoint writes
//!   that are not contiguous blocks.
//!
//! ## Example
//!
//! ```
//! use rvhpc_parallel::Pool;
//!
//! let pool = Pool::new(4);
//! let n = 1000usize;
//! let sums = pool.run(|team| {
//!     let mut local = 0u64;
//!     team.for_static(0, n, |i| local += i as u64);
//!     team.reduce_sum_u64(local)
//! });
//! assert!(sums.iter().all(|&s| s == (0..n as u64).sum::<u64>()));
//! ```

pub(crate) mod barrier;
pub(crate) mod bind;
pub(crate) mod config;
mod dispatch;
mod padded;
pub(crate) mod pool;
pub(crate) mod schedule;
pub(crate) mod sync_slice;
mod wait;

pub use barrier::CentralizedBarrier;
pub use bind::{placement, BindPolicy, Topology};
pub use config::RuntimeConfig;
pub use padded::CachePadded;
pub use pool::{Pool, Team};
pub use schedule::Schedule;
pub use sync_slice::{SyncSlice, TeamChunks};
