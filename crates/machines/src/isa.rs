//! Instruction-set and vector-extension descriptors.

/// Base instruction set architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// x86-64 (EPYC 7742, Xeon Platinum 8170).
    X86_64,
    /// ARMv8.1 AArch64 (ThunderX2 CN9980).
    Aarch64,
    /// RV64GC — RISC-V without the vector extension.
    Rv64gc,
    /// RV64GCV — RISC-V with some version of the vector extension.
    Rv64gcv,
}

impl Isa {
    /// Display string matching the paper's Table 5.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Isa::X86_64 => "x86-64",
            Isa::Aarch64 => "ARMv8.1",
            Isa::Rv64gc => "RV64GC",
            Isa::Rv64gcv => "RV64GCV",
        }
    }

    /// Whether this is a RISC-V ISA.
    pub fn is_riscv(&self) -> bool {
        matches!(self, Isa::Rv64gc | Isa::Rv64gcv)
    }
}

/// Vector/SIMD extension implemented by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorIsa {
    /// No usable SIMD unit.
    None,
    /// RISC-V Vector extension v0.7.1 (SG2042's C920v1, AllWinner D1's
    /// C906). *Not* targetable by mainline GCC/LLVM — only by the XuanTie
    /// compiler fork.
    Rvv0_7 { vlen_bits: u32 },
    /// RISC-V Vector extension v1.0 (SG2044's C920v2, SpacemiT K1/M1).
    /// Targetable by mainline GCC ≥ 14.
    Rvv1_0 { vlen_bits: u32 },
    /// x86 AVX2 (256-bit).
    Avx2,
    /// x86 AVX-512 (512-bit).
    Avx512,
    /// Arm NEON (128-bit).
    Neon,
}

impl VectorIsa {
    /// Vector register width in bits (0 for `None`).
    pub fn width_bits(&self) -> u32 {
        match self {
            VectorIsa::None => 0,
            VectorIsa::Rvv0_7 { vlen_bits } | VectorIsa::Rvv1_0 { vlen_bits } => *vlen_bits,
            VectorIsa::Avx2 => 256,
            VectorIsa::Avx512 => 512,
            VectorIsa::Neon => 128,
        }
    }

    /// Relative per-element cost of a gather versus a unit-stride vector
    /// load. Calibrated values: AVX-512/AVX2 gathers are microcoded but
    /// reasonably fast; NEON has no true gather (compilers synthesize with
    /// scalar loads); RVV indexed loads on in-order/narrow implementations
    /// serialize per element. The C920v2's indexed loads additionally
    /// generate the branchy strip-mine prologue GCC 15.2 emits, which is the
    /// mechanism behind the paper's CG anomaly (§6).
    pub fn gather_cost_factor(&self) -> f64 {
        match self {
            VectorIsa::None => 1.0,
            VectorIsa::Avx512 => 2.0,
            VectorIsa::Avx2 => 3.0,
            VectorIsa::Neon => 4.0,
            VectorIsa::Rvv1_0 { .. } => 6.0,
            VectorIsa::Rvv0_7 { .. } => 6.0,
        }
    }

    /// Display string matching the paper's Table 5.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            VectorIsa::None => "none",
            VectorIsa::Rvv0_7 { .. } => "RVV v0.7.1",
            VectorIsa::Rvv1_0 { .. } => "RVV v1.0.0",
            VectorIsa::Avx2 => "AVX2",
            VectorIsa::Avx512 => "AVX512",
            VectorIsa::Neon => "NEON",
        }
    }

    /// Whether this is a RISC-V vector extension (either version).
    pub fn is_rvv(&self) -> bool {
        matches!(self, VectorIsa::Rvv0_7 { .. } | VectorIsa::Rvv1_0 { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rvv_versions_distinguished() {
        let v07 = VectorIsa::Rvv0_7 { vlen_bits: 128 };
        let v10 = VectorIsa::Rvv1_0 { vlen_bits: 128 };
        assert_ne!(v07, v10);
        assert!(v07.is_rvv() && v10.is_rvv());
        assert_eq!(v07.width_bits(), v10.width_bits());
    }

    #[test]
    fn names_match_paper_table5() {
        assert_eq!(Isa::X86_64.name(), "x86-64");
        assert_eq!(Isa::Aarch64.name(), "ARMv8.1");
        assert_eq!(Isa::Rv64gcv.name(), "RV64GCV");
        assert_eq!(VectorIsa::Rvv1_0 { vlen_bits: 128 }.name(), "RVV v1.0.0");
        assert_eq!(VectorIsa::Rvv0_7 { vlen_bits: 128 }.name(), "RVV v0.7.1");
    }

    #[test]
    fn gather_is_always_at_least_unit_cost() {
        for v in [
            VectorIsa::None,
            VectorIsa::Avx2,
            VectorIsa::Avx512,
            VectorIsa::Neon,
            VectorIsa::Rvv0_7 { vlen_bits: 128 },
            VectorIsa::Rvv1_0 { vlen_bits: 256 },
        ] {
            assert!(v.gather_cost_factor() >= 1.0);
        }
    }
}
