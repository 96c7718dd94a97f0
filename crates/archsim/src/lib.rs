//! # rvhpc-archsim
//!
//! The architecture simulator standing in for the eleven physical CPUs the
//! SG2044 paper measures (see DESIGN.md §2 — the hardware-gate
//! substitution). It models the subsystems the paper's analysis leans on:
//!
//! * [`cache`] — a trace-driven set-associative cache with LRU
//!   replacement, plus closed-form miss-ratio estimates for the synthetic
//!   access patterns the NPB kernels exhibit (validated against the
//!   trace-driven simulation in tests).
//! * [`hierarchy`] — L1/L2/L3 composition with sharing-degree-aware
//!   effective capacities (the SG2044's cluster-shared L2 and chip-shared
//!   L3, the EPYC's CCX-private L3 slices, ...).
//! * [`dram`] — channel/controller bandwidth with a saturation law and
//!   loaded-latency model: the mechanism behind the SG2042's 8-core
//!   plateau and the SG2044's continued scaling (paper Figure 1).
//! * [`vector`] — vector-unit throughput: lanes × issue, unit-stride vs
//!   gather costs, compiler-codegen quality — the mechanism behind the
//!   CG vectorisation anomaly (paper §6).
//! * [`pipeline`] — sustainable scalar IPC with branch-misprediction and
//!   in-order stall penalties.
//! * [`stream_gen`] — synthetic address-stream generators used to drive
//!   the trace-driven cache model.
//! * [`stall`] — stall-cycle accounting that reproduces the quantities of
//!   the paper's Table 1 (cache-stall %, DDR-stall %, bandwidth-bound %).
//! * [`counters`] — mergeable per-core counter sets (hierarchy service
//!   counts, TLB misses, DRAM queue occupancy, stall breakdown) that sum
//!   to the run-global totals; the substrate of the `--metrics` export.
//! * [`simulate`] — a multi-level trace-driven hierarchy that replays the
//!   synthetic streams through chained caches, cross-validating the
//!   closed-form estimates the performance model uses at paper scale.
//! * [`tlb`] — a page-translation model demonstrating the IS scatter's
//!   TLB-thrash signature (standalone; its average effect is inside the
//!   calibrated constants).
//! * [`replay`] — the trace-consuming front door for the instruction-level
//!   backend (`rvhpc-isa`): routes decoded-instruction trace events into
//!   the per-thread cache/TLB models plus a deterministic branch predictor.

pub mod cache;
pub mod counters;
pub mod dram;
pub mod hierarchy;
pub mod pipeline;
pub mod replay;
pub(crate) mod simulate;
pub mod stall;
pub mod stream_gen;
pub(crate) mod tlb;
pub mod vector;

pub use cache::{Cache, CacheStats};
pub use counters::{CoreCounters, HierarchyCounters, PhaseCounters, QueueOccupancy};
pub use dram::{DramModel, SaturationLaw};
pub use hierarchy::{Hierarchy, MissBreakdown};
pub use pipeline::PipelineModel;
pub use replay::{BranchPredictor, ReplayStats, TraceConsumer, TraceEvent};
pub use simulate::TraceHierarchy;
pub use stall::StallAccount;
pub use tlb::Tlb;
