//! # rvhpc-npb
//!
//! Complete Rust ports of the eight original NAS Parallel Benchmarks
//! (NPB): the five kernels — IS, EP, CG, MG, FT — and the three
//! pseudo-applications — BT, SP, LU — in their OpenMP (shared-memory)
//! formulation, running on the [`rvhpc_parallel`] fork-join runtime.
//!
//! These are the workloads the SG2044 paper uses for every experiment. The
//! ports follow the NPB 3.4 reference sources: same pseudo-random generator
//! (the 2⁴⁶ linear congruential generator with a = 5¹³), same problem
//! classes (S, W, A, B, C plus a tiny `T` class for fast tests), same
//! algorithms, same verification procedure, and the official operation
//! counts behind every reported Mop/s figure.
//!
//! ## Running a benchmark
//!
//! ```
//! use rvhpc_npb::{BenchmarkId, Class};
//! use rvhpc_parallel::Pool;
//!
//! let pool = Pool::new(2);
//! let result = rvhpc_npb::run(BenchmarkId::Ep, Class::T, &pool);
//! assert!(result.verified.passed());
//! assert!(result.mops > 0.0);
//! ```
//!
//! ## Workload characterisation
//!
//! Every benchmark also exposes [`profile()`]: an analytic
//! [`profile::WorkloadProfile`] (instruction/flop/memory-reference counts,
//! access-pattern mix, vectorisable fraction, synchronization density) that
//! the `rvhpc-core` performance model feeds to the architecture simulator
//! to regenerate the paper's tables at paper scale — classes and core
//! counts this host cannot run natively.

pub(crate) mod bt;
pub mod cfd;
pub mod cg;
pub mod common;
pub(crate) mod ep;
pub mod ft;
pub mod is;
pub(crate) mod lu;
pub mod mg;
pub mod profile;
pub mod sp;

pub use common::class::Class;
pub use common::result::{BenchResult, VerifyStatus};

use rvhpc_parallel::Pool;

/// Identifies one of the eight NPB benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// Integer Sort — memory-latency bound bucketed ranking.
    Is,
    /// Embarrassingly Parallel — compute-bound Gaussian-deviate tally.
    Ep,
    /// Conjugate Gradient — irregular sparse matrix-vector products.
    Cg,
    /// Multi-Grid — memory-bandwidth-bound V-cycle Poisson solver.
    Mg,
    /// 3-D Fast Fourier Transform — all-to-all transposition pressure.
    Ft,
    /// Block Tridiagonal pseudo-application (3-D Navier–Stokes, ADI).
    Bt,
    /// Scalar Pentadiagonal pseudo-application.
    Sp,
    /// Lower-Upper Gauss–Seidel pseudo-application (SSOR).
    Lu,
}

impl BenchmarkId {
    /// The five kernels, in the paper's table order.
    pub const KERNELS: [BenchmarkId; 5] = [
        BenchmarkId::Is,
        BenchmarkId::Mg,
        BenchmarkId::Ep,
        BenchmarkId::Cg,
        BenchmarkId::Ft,
    ];

    /// The three pseudo-applications, in the paper's table order.
    pub const PSEUDO_APPS: [BenchmarkId; 3] = [BenchmarkId::Bt, BenchmarkId::Lu, BenchmarkId::Sp];

    /// All eight benchmarks.
    pub const ALL: [BenchmarkId; 8] = [
        BenchmarkId::Is,
        BenchmarkId::Mg,
        BenchmarkId::Ep,
        BenchmarkId::Cg,
        BenchmarkId::Ft,
        BenchmarkId::Bt,
        BenchmarkId::Lu,
        BenchmarkId::Sp,
    ];

    /// Canonical upper-case name.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkId::Is => "IS",
            BenchmarkId::Ep => "EP",
            BenchmarkId::Cg => "CG",
            BenchmarkId::Mg => "MG",
            BenchmarkId::Ft => "FT",
            BenchmarkId::Bt => "BT",
            BenchmarkId::Sp => "SP",
            BenchmarkId::Lu => "LU",
        }
    }
}

/// A runnable NPB benchmark.
pub(crate) trait Benchmark {
    /// Execute at `class` on `pool`, returning timing, Mop/s and
    /// verification status.
    fn run(&self, class: Class, pool: &Pool) -> BenchResult;
}

/// Run benchmark `id` at `class` on `pool`.
pub fn run(id: BenchmarkId, class: Class, pool: &Pool) -> BenchResult {
    match id {
        BenchmarkId::Is => is::Is.run(class, pool),
        BenchmarkId::Ep => ep::Ep.run(class, pool),
        BenchmarkId::Cg => cg::Cg.run(class, pool),
        BenchmarkId::Mg => mg::Mg.run(class, pool),
        BenchmarkId::Ft => ft::Ft.run(class, pool),
        BenchmarkId::Bt => bt::Bt.run(class, pool),
        BenchmarkId::Sp => sp::Sp.run(class, pool),
        BenchmarkId::Lu => lu::Lu.run(class, pool),
    }
}

/// Analytic workload profile for benchmark `id` at `class` (the simulator's
/// input at paper scale).
pub fn profile(id: BenchmarkId, class: Class) -> profile::WorkloadProfile {
    match id {
        BenchmarkId::Is => is::profile(class),
        BenchmarkId::Ep => ep::profile(class),
        BenchmarkId::Cg => cg::profile(class),
        BenchmarkId::Mg => mg::profile(class),
        BenchmarkId::Ft => ft::profile(class),
        BenchmarkId::Bt => bt::profile(class),
        BenchmarkId::Sp => sp::profile(class),
        BenchmarkId::Lu => lu::profile(class),
    }
}
