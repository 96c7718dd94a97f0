//! The cached, parallel prediction engine.
//!
//! Every table, figure, sweep and report in this crate is a set of
//! points on one scenario grid — machine × benchmark × class × threads ×
//! compiler configuration. This module factors that shape out of the
//! callers:
//!
//! * [`plan`] — declarative [`Query`] points with stable content-addressed
//!   cache keys, batched into [`Plan`]s (with a side table for custom,
//!   non-preset machines).
//! * [`cache`] — sharded, thread-safe memo tables with hit/miss counters,
//!   an optional capacity bound and deterministic FIFO eviction (the hot
//!   tier of the two-tier store). A key is hashed once ([`HashedKey`]);
//!   its shard is the low bits of that hash.
//! * [`store`] — the cold tier: a content-addressed, append-only on-disk
//!   segment of crc32-checked prediction records with torn-tail recovery,
//!   so a restarted process comes up warm.
//! * [`exec`] — the [`Engine`]: two memo caches (workload profiles and
//!   predictions) and a batch executor that deduplicates a plan and
//!   evaluates the misses in parallel on [`rvhpc_parallel::Pool`] —
//!   dogfooding the workspace's own OpenMP-style runtime. An ordered
//!   collection step makes output byte-identical to serial evaluation at
//!   any worker count (`RVHPC_JOBS` / `reproduce --jobs N`).
//!
//! The layers above are thin: `experiment` builders construct plans,
//! `sweep` is a plan constructor, and `runner::full_report` merges every
//! plan into one batch, executes it once, and renders from cache.

pub(crate) mod cache;
pub(crate) mod exec;
pub mod plan;
pub mod store;
#[cfg(test)]
mod tests;

pub use cache::ShardedCache;
pub use exec::{jobs_from_env, set_default_jobs, Engine, EngineMetrics, Resolved, JOBS_ENV};
pub use plan::{
    machine_fingerprint, Backend, CacheKey, HashedKey, MachineSel, Plan, Query, SpecKind,
};
