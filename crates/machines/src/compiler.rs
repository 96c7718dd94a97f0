//! Compiler models.
//!
//! The paper's §6 is a compiler study: GCC 12.3.1 vs GCC 15.2, with and
//! without auto-vectorisation, on the SG2044; plus the observation (§2.1,
//! §4) that the SG2042's RVV v0.7.1 is *unreachable* from mainline GCC and
//! needs T-Head's XuanTie GCC 8.4 fork. The other machines use the
//! distribution compilers the paper lists (§5).
//!
//! A compiler model answers three questions for the performance model:
//!
//! 1. **Can it vectorise for this vector ISA at all?** Mainline GCC only
//!    gained foundational RVV support in 13.1 and full RVV-1.0
//!    auto-vectorisation in 14; no mainline compiler targets RVV 0.7.1.
//! 2. **How good is its scalar code?** GCC 15.2 beats 12.3.1 on RISC-V
//!    scalar code (paper Table 7: every kernel, most visibly FT).
//! 3. **How good is its vector code per access pattern?** Unit-stride
//!    vectorisation is mature everywhere; *indirect* (gather) vectorisation
//!    on RVV emits strip-mined, branchy code whose extra branch misses are
//!    the paper's explanation for the CG anomaly (§6).

use crate::isa::VectorIsa;

/// The compilers used across the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compiler {
    /// Mainline GCC 15.2 (SG2044, and the small RVV boards).
    Gcc15_2,
    /// Mainline GCC 12.3.1 (openEuler's distribution compiler on the
    /// SG2044 test system).
    Gcc12_3,
    /// T-Head's XuanTie fork of GCC 8.4 — the only compiler that targets
    /// RVV v0.7.1 (used for the SG2042).
    XuanTieGcc8_4,
    /// GCC 11.2 (ARCHER2 / EPYC 7742).
    Gcc11_2,
    /// GCC 9.2 (Fulhame / ThunderX2).
    Gcc9_2,
    /// GCC 8.4 (the Xeon 8170 system).
    Gcc8_4,
}

impl Compiler {
    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Compiler::Gcc15_2 => "GCC v15.2",
            Compiler::Gcc12_3 => "GCC v12.3.1",
            Compiler::XuanTieGcc8_4 => "XuanTie GCC v8.4",
            Compiler::Gcc11_2 => "GCC v11.2",
            Compiler::Gcc9_2 => "GCC v9.2",
            Compiler::Gcc8_4 => "GCC v8.4",
        }
    }

    /// Whether this compiler can auto-vectorise for the given vector ISA.
    pub(crate) fn supports_vector(&self, v: VectorIsa) -> bool {
        match v {
            VectorIsa::None => false,
            // Mainline GCC: RVV 1.0 auto-vectorisation from v14 onwards.
            VectorIsa::Rvv1_0 { .. } => matches!(self, Compiler::Gcc15_2),
            // RVV 0.7.1: XuanTie fork only.
            VectorIsa::Rvv0_7 { .. } => matches!(self, Compiler::XuanTieGcc8_4),
            // x86 and Arm SIMD have been mature in GCC for a decade.
            VectorIsa::Avx2 | VectorIsa::Avx512 | VectorIsa::Neon => {
                !matches!(self, Compiler::XuanTieGcc8_4)
            }
        }
    }

    /// Relative scalar code quality on RISC-V targets (1.0 = GCC 15.2).
    /// Non-RISC-V targets are all mature; they return 1.0.
    pub fn scalar_quality_riscv(&self) -> f64 {
        match self {
            Compiler::Gcc15_2 => 1.0,
            // Table 7 scalar gaps (IS ~1%, MG ~1%, FT ~10%) average out to
            // a few percent; kernel-specific sensitivity is applied by the
            // workload model on top of this base.
            Compiler::Gcc12_3 => 0.97,
            Compiler::XuanTieGcc8_4 => 1.0,
            _ => 1.0,
        }
    }

    /// Efficiency of generated *unit-stride* vector code: the fraction of
    /// the vector unit's ideal speedup that compiled loops achieve.
    pub fn vector_quality(&self, v: VectorIsa) -> f64 {
        match v {
            VectorIsa::None => 0.0,
            VectorIsa::Rvv1_0 { .. } => 0.85,
            // The fork's hand-tuned 0.7.1 unit-stride codegen is
            // excellent — Table 3 shows the C920v1 *above* per-clock
            // parity with GCC 15.2 RVV 1.0 code on MG/CG.
            VectorIsa::Rvv0_7 { .. } => 0.95,
            VectorIsa::Avx2 | VectorIsa::Avx512 => 0.90,
            VectorIsa::Neon => 0.85,
        }
    }

    /// Whether the auto-vectoriser emits vector *gather* code for indirect
    /// loops at all. Mainline GCC ≥ 14 aggressively strip-mines indirect
    /// loops into RVV indexed loads (the paper's CG anomaly); the XuanTie
    /// fork leaves such loops scalar, which is why the SG2042 never shows
    /// the anomaly. x86/Arm vectorisers have used hardware gathers safely
    /// for years.
    pub fn vectorizes_gathers(&self) -> bool {
        !matches!(self, Compiler::XuanTieGcc8_4)
    }

    /// Extra branch mispredictions per vectorised *indirect* (gather) loop
    /// iteration, relative to the scalar loop. GCC 15.2's RVV strip-mining
    /// of gather loops roughly doubles branch misses (paper §6, measured
    /// with perf); x86/Arm gather codegen is branch-free.
    pub fn indirect_branch_overhead(&self, v: VectorIsa) -> f64 {
        match v {
            VectorIsa::Rvv1_0 { .. } | VectorIsa::Rvv0_7 { .. } => 2.0,
            _ => 1.0,
        }
    }
}

/// A compiler plus the vectorisation switch — one column of the paper's
/// Tables 7/8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompilerConfig {
    pub compiler: Compiler,
    /// `-O3` with auto-vectorisation enabled (`true`) or suppressed with
    /// `-fno-tree-vectorize` (`false`).
    pub vectorize: bool,
}

impl CompilerConfig {
    /// The configuration used for each machine's headline results (§5):
    /// newest available compiler, vectorisation on.
    pub fn headline(compiler: Compiler) -> Self {
        Self {
            compiler,
            vectorize: true,
        }
    }

    /// Whether vector code will actually be emitted for `v`.
    pub fn emits_vector(&self, v: VectorIsa) -> bool {
        self.vectorize && self.compiler.supports_vector(v)
    }
}

/// The compiler the paper uses for each machine's headline (§3/§5) results.
pub fn headline_compiler_for(id: crate::MachineId) -> Compiler {
    use crate::MachineId::*;
    match id {
        Sg2044 | VisionFiveV2 | VisionFiveV1 | SiFiveU740 | AllWinnerD1 | BananaPiF3
        | MilkVJupyter => Compiler::Gcc15_2,
        // §4: the XuanTie fork consistently beat GCC 15.2 on the SG2042.
        Sg2042 => Compiler::XuanTieGcc8_4,
        Epyc7742 => Compiler::Gcc11_2,
        Xeon8170 => Compiler::Gcc8_4,
        ThunderX2 => Compiler::Gcc9_2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineId;

    const RVV10_128: VectorIsa = VectorIsa::Rvv1_0 { vlen_bits: 128 };
    const RVV07_128: VectorIsa = VectorIsa::Rvv0_7 { vlen_bits: 128 };

    #[test]
    fn mainline_gcc_cannot_target_rvv_0_7() {
        // The paper's central compiler fact (§2.1).
        for c in [Compiler::Gcc15_2, Compiler::Gcc12_3, Compiler::Gcc11_2] {
            assert!(!c.supports_vector(RVV07_128), "{c:?}");
        }
        assert!(Compiler::XuanTieGcc8_4.supports_vector(RVV07_128));
    }

    #[test]
    fn rvv_1_0_needs_modern_mainline_gcc() {
        assert!(Compiler::Gcc15_2.supports_vector(RVV10_128));
        // GCC 12.3.1 predates RVV auto-vectorisation (paper §6: "GCC v13.1
        // providing foundational support").
        assert!(!Compiler::Gcc12_3.supports_vector(RVV10_128));
        assert!(!Compiler::XuanTieGcc8_4.supports_vector(RVV10_128));
    }

    #[test]
    fn x86_and_arm_vector_support_is_mature() {
        assert!(Compiler::Gcc8_4.supports_vector(VectorIsa::Avx512));
        assert!(Compiler::Gcc11_2.supports_vector(VectorIsa::Avx2));
        assert!(Compiler::Gcc9_2.supports_vector(VectorIsa::Neon));
    }

    #[test]
    fn novector_config_emits_no_vector() {
        let cfg = CompilerConfig {
            compiler: Compiler::Gcc15_2,
            vectorize: false,
        };
        assert!(!cfg.emits_vector(RVV10_128));
        assert!(CompilerConfig::headline(Compiler::Gcc15_2).emits_vector(RVV10_128));
    }

    #[test]
    fn gcc12_on_sg2044_is_effectively_scalar() {
        // Table 7/8's GCC 12.3.1 column is scalar code on the SG2044.
        let cfg = CompilerConfig::headline(Compiler::Gcc12_3);
        assert!(!cfg.emits_vector(RVV10_128));
    }

    #[test]
    fn headline_compilers_match_paper() {
        assert_eq!(headline_compiler_for(MachineId::Sg2044), Compiler::Gcc15_2);
        assert_eq!(
            headline_compiler_for(MachineId::Sg2042),
            Compiler::XuanTieGcc8_4
        );
        assert_eq!(
            headline_compiler_for(MachineId::Epyc7742),
            Compiler::Gcc11_2
        );
        assert_eq!(headline_compiler_for(MachineId::Xeon8170), Compiler::Gcc8_4);
        assert_eq!(
            headline_compiler_for(MachineId::ThunderX2),
            Compiler::Gcc9_2
        );
    }

    #[test]
    fn scalar_quality_ordering() {
        assert!(
            Compiler::Gcc15_2.scalar_quality_riscv() > Compiler::Gcc12_3.scalar_quality_riscv()
        );
        assert!(
            Compiler::XuanTieGcc8_4.scalar_quality_riscv()
                <= Compiler::Gcc15_2.scalar_quality_riscv()
        );
    }

    #[test]
    fn only_the_xuantie_fork_keeps_gathers_scalar() {
        assert!(!Compiler::XuanTieGcc8_4.vectorizes_gathers());
        assert!(Compiler::Gcc15_2.vectorizes_gathers());
        assert!(Compiler::Gcc11_2.vectorizes_gathers());
    }

    #[test]
    fn rvv_gather_codegen_is_branchy() {
        assert!(Compiler::Gcc15_2.indirect_branch_overhead(RVV10_128) > 1.5);
        assert!((Compiler::Gcc8_4.indirect_branch_overhead(VectorIsa::Avx512) - 1.0).abs() < 1e-12);
    }
}
