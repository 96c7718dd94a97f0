//! # rvhpc-core
//!
//! The evaluation framework that reproduces every table and figure of the
//! SG2044 paper:
//!
//! * [`model`] — the phase-based performance predictor: combines an NPB
//!   workload profile (`rvhpc-npb`), a machine descriptor
//!   (`rvhpc-machines`) and the architecture simulator (`rvhpc-archsim`)
//!   into a predicted runtime, Mop/s figure and stall profile.
//! * [`calibrate`] — the calibration policy: one global scale constant per
//!   benchmark, fixed against a single anchor column (SG2044, one core,
//!   class C — the paper's Table 3), after which *every other number in
//!   every experiment is emergent*. No per-machine or per-thread-count
//!   fudge factors exist.
//! * [`paper`] — the paper's published numbers (Tables 1–8), as data, for
//!   side-by-side reporting and shape-fidelity tests.
//! * [`engine`] — the cached, parallel prediction engine: declarative
//!   query plans, content-addressed memo caches for workload profiles and
//!   predictions, and a batch executor running on `rvhpc-parallel`
//!   (`RVHPC_JOBS` / `reproduce --jobs N`).
//! * [`isa_backend`] — the trace-driven prediction backend
//!   (`Backend::Isa`): NPB-shaped kernels characterized at instruction
//!   granularity through `rvhpc-isa` and scaled to class size through the
//!   same timing model.
//! * [`experiment`] — one generator per paper table/figure, expressed as
//!   declarative plans resolved through the engine.
//! * [`report`] — markdown / CSV / ASCII-plot rendering.
//! * [`runner`] — the end-to-end "reproduce everything" driver used by
//!   `examples/` and the `reproduce` binary.
//! * [`sweep`] — free-form (machine × benchmark × threads) sweeps with
//!   CSV/JSON output, for studies beyond the paper's fixed tables.

pub mod calibrate;
pub mod engine;
pub mod experiment;
pub mod isa_backend;
pub mod metrics;
pub mod model;
pub mod paper;
pub mod report;
pub mod runner;
pub mod sweep;

pub use engine::{Engine, Plan, Query};
pub use model::{predict, Prediction, Scenario};
