//! # rvhpc-stream
//!
//! The STREAM sustainable-memory-bandwidth benchmark (McCalpin), in two
//! forms:
//!
//! * [`host`] — a real Rust implementation of the four kernels (copy,
//!   scale, add, triad) with STREAM's timing protocol, runnable on this
//!   machine and used by the host benchmark suite.
//! * [`model`] — the simulated STREAM that regenerates the paper's
//!   Figure 1 (copy bandwidth vs core count on the SG2044 and SG2042)
//!   through the `rvhpc-archsim` DRAM model.

pub(crate) mod host;
pub mod model;

pub use host::{run_host_stream, HostStreamResult, StreamKernel};
pub use model::{simulate_copy_bandwidth, simulated_curve};
