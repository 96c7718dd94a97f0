//! # rvhpc — facade crate
//!
//! Re-exports the whole workspace: the parallel runtime, the NPB ports,
//! STREAM, the architecture simulator, machine descriptors and the
//! evaluation framework. See README.md for the tour.

pub use rvhpc_archsim as archsim;
pub use rvhpc_bench as bench;
pub use rvhpc_core as eval;
pub use rvhpc_faults as faults;
pub use rvhpc_isa as isa;
pub use rvhpc_machines as machines;
pub use rvhpc_npb as npb;
pub use rvhpc_obs as obs;
pub use rvhpc_parallel as parallel;
pub use rvhpc_serve as serve;
pub use rvhpc_stream as stream;
