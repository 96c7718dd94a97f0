//! # rvhpc-machines
//!
//! Parametric descriptors of the eleven CPUs evaluated in the SG2044 paper,
//! plus the compiler configurations the paper sweeps (§6).
//!
//! The paper explains every performance result architecturally: memory
//! controllers × channels × DDR generation, cache sizes and sharing degree,
//! vector ISA and width, clock and core count. This crate captures exactly
//! those parameters (from the paper's Table 5, §2.1 and §5 prose, and the
//! referenced datasheets) so the architecture simulator (`rvhpc-archsim`)
//! and performance model (`rvhpc-core`) can derive behaviour from them.
//!
//! ```
//! use rvhpc_machines::presets;
//!
//! let sg2044 = presets::sg2044();
//! assert_eq!(sg2044.cores, 64);
//! assert_eq!(sg2044.memory.channels, 32);
//! // 32 DDR5-4266 sub-channels give the ~3× bandwidth headroom over the
//! // SG2042 that the paper's Figure 1 demonstrates.
//! assert!(sg2044.memory.peak_bandwidth_gbs() > 3.0 * presets::sg2042().memory.peak_bandwidth_gbs());
//! ```

pub mod cache;
pub mod compiler;
pub(crate) mod cpu;
pub(crate) mod isa;
pub mod memory;
pub mod presets;

pub use cache::CacheSpec;
pub use compiler::{Compiler, CompilerConfig};
pub use cpu::{CoreModel, Machine, MachineId};
pub use isa::{Isa, VectorIsa};
pub use memory::{DdrGeneration, MemorySpec};
