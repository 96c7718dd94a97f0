//! # rvhpc-faults
//!
//! Deterministic, seed-driven fault injection for the serving stack.
//!
//! The paper's method is to *measure* degraded configurations (thread
//! oversubscription, NUMA imbalance, compiler quirks) instead of
//! avoiding them; this crate carries that discipline to the service
//! layer. A [`FaultPlan`] names, per injection *site*, exactly when a
//! fault fires — either on a deterministic occurrence schedule
//! (`start:period[xMAX]`) or with a seeded per-occurrence probability
//! (`pPROB[xMAX]`) — so a chaos run is reproducible: the same plan over
//! the same request sequence injects the same faults and the counters
//! come out byte-identical.
//!
//! * [`plan`] — the [`FaultPlan`]: sites, rules, the `RVHPC_FAULTS`
//!   spec grammar, and deterministic JSON export.
//! * [`inject`] — the [`Injector`]: shared atomic occurrence/injection
//!   counters, the per-site dice roll, and obs `fault-inject` events.
//! * [`torn`] — [`TornWriter`], an `io::Write` adaptor that breaks
//!   writes into short chunks and interleaves `EINTR`, exercising
//!   partial-write handling in reply paths.
//! * [`rng`] — the SplitMix64 generator behind probability rules and
//!   client backoff jitter.
//!
//! Everything is counter-based and lock-free on the hot path; when no
//! plan is installed the serving stack never calls into this crate.

pub(crate) mod inject;
pub mod plan;
pub mod rng;
pub mod torn;

pub use inject::{note_recovery, Injector, SiteSnapshot};
pub use plan::{FaultPlan, FaultSite, SiteRule, Trigger};
pub use rng::SplitMix64;
pub use torn::TornWriter;

/// Environment variable holding a fault-plan spec (`serve --faults`
/// overrides it).
pub const FAULTS_ENV: &str = "RVHPC_FAULTS";
