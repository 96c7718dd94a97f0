//! Analytic workload characterisation.
//!
//! A [`WorkloadProfile`] describes *what a benchmark does* — dynamic
//! instruction counts, floating-point operations, memory references and
//! their access patterns, vectorisable fraction, branch behaviour,
//! synchronization density — independent of any machine. The
//! `rvhpc-core` performance model combines a profile with a machine
//! descriptor and the architecture simulator to predict execution time.
//!
//! The counts are derived from the NPB algorithms themselves (the same
//! arithmetic that produces the official Mop/s operation counts), so they
//! scale exactly with problem class; each kernel module documents its
//! derivation. The host-run benchmarks in this crate serve as a
//! cross-check: `tests/profile_consistency.rs` compares profile flop counts
//! against instrumented tiny-class runs.

use crate::common::class::Class;
use crate::BenchmarkId;

/// How a phase walks memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Unit-stride streaming (STREAM-like, MG smoother sweeps, FT 1-D FFT
    /// passes). Hardware prefetchers work; one miss per line.
    Streaming,
    /// Fixed non-unit stride in bytes (plane-direction stencil legs,
    /// transposes' read sides).
    Strided { stride_bytes: u32 },
    /// Uniform random references inside the working set (IS ranking
    /// histogram updates, CG's `x[col]` gathers).
    RandomInWorkingSet,
    /// Many concurrent sequential write streams (IS's scatter into 2¹⁰
    /// bucket cursors): line-granular traffic like streaming, but the
    /// line fetches behave like independent random requests at the
    /// controllers and the active window stresses cache/TLB capacity.
    ScatterStreams,
    /// Data-dependent indirect addressing (gathers through an index
    /// array). Like `RandomInWorkingSet` for the cache, but additionally
    /// the pattern the compiler must emit *vector gathers* for — the crux
    /// of the paper's CG vectorisation anomaly.
    Indirect,
    /// Pointer-free compute with negligible memory traffic (EP).
    ComputeOnly,
}

/// One phase of a benchmark: a loop nest with homogeneous behaviour.
/// All counts are totals for a full benchmark run (all iterations).
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// Short name ("spmv", "rank", "fft-z", ...).
    pub name: &'static str,
    /// Dynamic scalar instructions (as compiled without vectorisation).
    pub instructions: f64,
    /// Floating-point operations included in `instructions`.
    pub flops: f64,
    /// Memory references (loads + stores) included in `instructions`.
    pub mem_refs: f64,
    /// Bytes per reference (8 for f64 kernels, 4 for IS keys).
    pub elem_bytes: u32,
    /// Bytes the phase actively touches (per traversal).
    pub working_set_bytes: f64,
    pub pattern: AccessPattern,
    /// Whether the working set is partitioned across threads (each thread
    /// streams its own 1/p slice — MG, FT, BT...) or shared (every thread
    /// hits the same structure — IS histogram, CG `x` vector).
    pub ws_partitioned: bool,
    /// Fraction of `instructions` in vectorisable loops.
    pub vectorizable: f64,
    /// Branches per instruction.
    pub branch_rate: f64,
    /// Baseline misprediction probability of those branches (scalar code).
    pub branch_misrate: f64,
}

/// Machine-independent description of one benchmark at one class.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    pub bench: BenchmarkId,
    pub class: Class,
    /// The official NPB operation count (Mop/s denominator × 10⁶).
    pub total_ops: f64,
    pub phases: Vec<PhaseProfile>,
    /// Barrier episodes per full run (sets synchronization overhead).
    pub barriers: f64,
    /// Load imbalance: max-thread work / mean-thread work (≥ 1).
    pub imbalance: f64,
    /// Fraction of total work that parallelizes (Amdahl residual).
    pub parallel_fraction: f64,
}

impl WorkloadProfile {
    /// Total floating-point operations across phases.
    pub fn total_flops(&self) -> f64 {
        self.phases.iter().map(|p| p.flops).sum()
    }

    /// Internal consistency checks; all profiles must satisfy these (see
    /// the property tests in `tests/`).
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("profile has no phases".into());
        }
        if self.total_ops <= 0.0 {
            return Err("total_ops must be positive".into());
        }
        if !(1.0..=4.0).contains(&self.imbalance) {
            return Err(format!("implausible imbalance {}", self.imbalance));
        }
        if !(0.0..=1.0).contains(&self.parallel_fraction) {
            return Err(format!(
                "parallel fraction {} out of range",
                self.parallel_fraction
            ));
        }
        for ph in &self.phases {
            if ph.instructions < ph.flops {
                return Err(format!("phase {}: flops exceed instructions", ph.name));
            }
            if ph.instructions < ph.mem_refs {
                return Err(format!("phase {}: mem refs exceed instructions", ph.name));
            }
            if !(0.0..=1.0).contains(&ph.vectorizable) {
                return Err(format!("phase {}: vectorizable out of range", ph.name));
            }
            if !(0.0..=1.0).contains(&ph.branch_rate) {
                return Err(format!("phase {}: branch rate out of range", ph.name));
            }
            if !(0.0..=1.0).contains(&ph.branch_misrate) {
                return Err(format!("phase {}: branch misrate out of range", ph.name));
            }
            if ph.working_set_bytes <= 0.0 {
                return Err(format!("phase {}: empty working set", ph.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_phase() -> PhaseProfile {
        PhaseProfile {
            name: "x",
            instructions: 100.0,
            flops: 50.0,
            mem_refs: 30.0,
            elem_bytes: 8,
            working_set_bytes: 1024.0,
            pattern: AccessPattern::Streaming,
            ws_partitioned: true,
            vectorizable: 0.9,
            branch_rate: 0.05,
            branch_misrate: 0.02,
        }
    }

    #[test]
    fn validation_accepts_sane_profile() {
        let p = WorkloadProfile {
            bench: BenchmarkId::Mg,
            class: Class::S,
            total_ops: 1e6,
            phases: vec![dummy_phase()],
            barriers: 10.0,
            imbalance: 1.05,
            parallel_fraction: 0.99,
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_flops_exceeding_instructions() {
        let mut ph = dummy_phase();
        ph.flops = 200.0;
        let p = WorkloadProfile {
            bench: BenchmarkId::Mg,
            class: Class::S,
            total_ops: 1e6,
            phases: vec![ph],
            barriers: 10.0,
            imbalance: 1.0,
            parallel_fraction: 1.0,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn all_real_profiles_validate() {
        for b in BenchmarkId::ALL {
            for c in Class::ALL {
                let p = crate::profile(b, c);
                assert!(p.validate().is_ok(), "{b:?}/{c:?}: {:?}", p.validate());
                assert_eq!(p.bench, b);
                assert_eq!(p.class, c);
            }
        }
    }

    #[test]
    fn profiles_scale_with_class() {
        let total_instructions =
            |p: &WorkloadProfile| p.phases.iter().map(|ph| ph.instructions).sum::<f64>();
        let peak_working_set = |p: &WorkloadProfile| {
            p.phases
                .iter()
                .map(|ph| ph.working_set_bytes)
                .fold(0.0, f64::max)
        };
        for b in BenchmarkId::ALL {
            let small = crate::profile(b, Class::S);
            let big = crate::profile(b, Class::C);
            assert!(
                total_instructions(&big) > 10.0 * total_instructions(&small),
                "{b:?} instructions do not scale"
            );
            // EP's working set is its fixed-size batch buffer (2^MK pairs
            // regardless of class); every other benchmark's must grow.
            if b != BenchmarkId::Ep {
                assert!(
                    peak_working_set(&big) > peak_working_set(&small),
                    "{b:?} ws"
                );
            }
        }
    }
}
