//! Vector-unit execution model.
//!
//! Answers the question the paper's §6 revolves around: *given a loop with
//! some vectorisable fraction and access pattern, how much faster (or
//! slower!) is the compiled vector code than the scalar code?*
//!
//! The model combines:
//! * the ISA's lane count for the element width,
//! * the compiler's unit-stride codegen quality,
//! * the ISA's gather cost for indirect patterns, and
//! * the extra branch misprediction cost of strip-mined RVV gather loops
//!   (GCC 15.2's code for CG roughly doubles branch misses — §6),
//!
//! and produces a speedup factor applied to the vectorisable fraction of a
//! phase's instructions (Amdahl-combined with the scalar remainder).
//! On the SG2044's 128-bit RVV with the measured gather behaviour, the
//! model yields a net *slowdown* for gather-dominated loops — the paper's
//! CG anomaly — while unit-stride loops gain.

use rvhpc_machines::{CompilerConfig, CoreModel, VectorIsa};

/// Vector execution model for one (machine, compiler) pair.
#[derive(Debug, Clone)]
pub struct VectorModel {
    pub isa: VectorIsa,
    pub compiler: CompilerConfig,
    /// Branch misprediction penalty of the core (cycles).
    pub branch_miss_penalty: u32,
}

/// Classification of a loop's memory access for vectorisation purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecPattern {
    /// Contiguous loads/stores: the good case.
    UnitStride,
    /// Indexed (gather/scatter) accesses.
    Gather,
}

impl VectorModel {
    /// Build for a machine core + compiler configuration.
    pub fn new(isa: VectorIsa, core: &CoreModel, compiler: CompilerConfig) -> Self {
        Self {
            isa,
            compiler,
            branch_miss_penalty: core.branch_miss_penalty,
        }
    }

    /// Whether vector code is emitted at all.
    pub(crate) fn active(&self) -> bool {
        self.compiler.emits_vector(self.isa)
    }

    /// Throughput speedup of the vectorised portion of a loop over scalar
    /// code, for `elem_bytes`-wide elements and the given pattern.
    /// Values below 1.0 mean the vector code is *slower* than scalar.
    pub fn speedup(&self, elem_bytes: u32, pattern: VecPattern) -> f64 {
        if !self.active() {
            return 1.0;
        }
        let lanes = (f64::from(self.isa.width_bits()) / (8.0 * f64::from(elem_bytes))).max(1.0);
        let quality = self.compiler.compiler.vector_quality(self.isa);
        match pattern {
            VecPattern::UnitStride => (lanes * quality).max(1.0),
            VecPattern::Gather => {
                if !self.compiler.compiler.vectorizes_gathers() {
                    return 1.0; // the loop is left scalar
                }
                // Gathers serialize per element on most implementations:
                // the lane win is divided by the per-element gather cost,
                // and RVV strip-mining adds branch-miss overhead
                // proportional to the pipeline depth.
                let base = lanes * quality / self.isa.gather_cost_factor();
                let branch_factor = self.branch_overhead_factor();
                base / branch_factor
            }
        }
    }

    /// Multiplicative slowdown from extra branch misses in vectorised
    /// indirect loops (1.0 = none).
    fn branch_overhead_factor(&self) -> f64 {
        let extra = self.compiler.compiler.indirect_branch_overhead(self.isa) - 1.0;
        // Each extra misprediction costs ~penalty cycles against a loop
        // body of ~10 cycles.
        1.0 + extra * f64::from(self.branch_miss_penalty) / 10.0
    }

    /// Effective instruction-count factor for a phase: instructions are
    /// multiplied by this (< 1 is a win). `vectorizable` ∈ [0, 1].
    pub fn instruction_factor(
        &self,
        vectorizable: f64,
        elem_bytes: u32,
        pattern: VecPattern,
    ) -> f64 {
        let s = self.speedup(elem_bytes, pattern);
        (1.0 - vectorizable) + vectorizable / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::{presets, Compiler};

    fn sg2044_gcc15(vectorize: bool) -> VectorModel {
        let m = presets::sg2044();
        VectorModel::new(
            m.vector,
            &m.core,
            CompilerConfig {
                compiler: Compiler::Gcc15_2,
                vectorize,
            },
        )
    }

    #[test]
    fn no_vector_flag_means_scalar() {
        let vm = sg2044_gcc15(false);
        assert!(!vm.active());
        assert_eq!(vm.speedup(8, VecPattern::UnitStride), 1.0);
        assert_eq!(vm.instruction_factor(0.9, 8, VecPattern::Gather), 1.0);
    }

    #[test]
    fn gcc12_cannot_vectorise_rvv() {
        let m = presets::sg2044();
        let vm = VectorModel::new(
            m.vector,
            &m.core,
            CompilerConfig {
                compiler: Compiler::Gcc12_3,
                vectorize: true,
            },
        );
        assert!(!vm.active(), "GCC 12.3 has no RVV auto-vectorisation");
    }

    #[test]
    fn unit_stride_gains_on_every_vector_isa() {
        for (m, compiler) in [
            (presets::sg2044(), Compiler::Gcc15_2),
            (presets::epyc7742(), Compiler::Gcc11_2),
            (presets::xeon8170(), Compiler::Gcc8_4),
            (presets::thunderx2(), Compiler::Gcc9_2),
        ] {
            let vm = VectorModel::new(
                m.vector,
                &m.core,
                CompilerConfig {
                    compiler,
                    vectorize: true,
                },
            );
            let s = vm.speedup(8, VecPattern::UnitStride);
            assert!(s > 1.0, "{:?}: {s}", m.id);
        }
    }

    #[test]
    fn avx512_beats_rvv128_on_unit_stride() {
        let sky = presets::xeon8170();
        let vm_sky = VectorModel::new(
            sky.vector,
            &sky.core,
            CompilerConfig {
                compiler: Compiler::Gcc8_4,
                vectorize: true,
            },
        );
        let vm_sg = sg2044_gcc15(true);
        assert!(
            vm_sky.speedup(8, VecPattern::UnitStride)
                > 2.0 * vm_sg.speedup(8, VecPattern::UnitStride),
            "512-bit lanes must dominate 128-bit"
        );
    }

    #[test]
    fn rvv_gather_is_a_net_slowdown_the_cg_anomaly() {
        // Paper §6: vectorised CG is ~3× slower on the SG2044. The gather
        // speedup must come out well below 1.
        let vm = sg2044_gcc15(true);
        let s = vm.speedup(8, VecPattern::Gather);
        assert!(s < 0.6, "RVV gather speedup {s} should be a slowdown");
        // And the instruction factor for a highly vectorisable gather loop
        // must exceed ~2 (≈ the 3× runtime anomaly before memory effects).
        let f = vm.instruction_factor(0.9, 8, VecPattern::Gather);
        assert!(f > 2.0, "factor {f}");
    }

    #[test]
    fn x86_gather_stays_close_to_neutral() {
        let e = presets::epyc7742();
        let vm = VectorModel::new(
            e.vector,
            &e.core,
            CompilerConfig {
                compiler: Compiler::Gcc11_2,
                vectorize: true,
            },
        );
        let s = vm.speedup(8, VecPattern::Gather);
        assert!(s > 0.8 && s < 2.0, "AVX2 gather speedup {s}");
    }

    #[test]
    fn spacemit_256bit_gather_penalty_is_milder_than_c920() {
        // Paper §6: the K1/M1 saw only marginal slowdown vectorising CG.
        // Wider vectors + shallower pipeline = less branch-miss damage.
        let k1 = presets::banana_pi_f3();
        let vm_k1 = VectorModel::new(
            k1.vector,
            &k1.core,
            CompilerConfig {
                compiler: Compiler::Gcc15_2,
                vectorize: true,
            },
        );
        let vm_sg = sg2044_gcc15(true);
        assert!(
            vm_k1.speedup(8, VecPattern::Gather) > vm_sg.speedup(8, VecPattern::Gather),
            "K1 gather must hurt less than C920v2"
        );
    }
}
