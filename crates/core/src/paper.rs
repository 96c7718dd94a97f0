//! The paper's published numbers, as data.
//!
//! Transcribed from the SC'25 paper's tables so experiments can report
//! model-vs-paper side by side and the shape-fidelity tests can assert the
//! qualitative claims. (Figures 1–6 are published as plots only; their
//! prose anchor points are encoded in the relevant tests instead.)

use rvhpc_machines::MachineId;
use rvhpc_npb::BenchmarkId;

/// Table 1: NPB memory behaviour on the Xeon Platinum 8170 (26 cores):
/// `(benchmark, cache-stall %, DDR-stall %, DDR-bandwidth-bound %)`.
pub(crate) const TABLE1_XEON_PROFILE: [(BenchmarkId, f64, f64, f64); 8] = [
    (BenchmarkId::Is, 35.0, 0.0, 16.0),
    (BenchmarkId::Mg, 34.0, 20.0, 88.0),
    (BenchmarkId::Ep, 11.0, 0.0, 0.0),
    (BenchmarkId::Cg, 19.0, 18.0, 0.0),
    (BenchmarkId::Ft, 13.0, 9.0, 18.0),
    (BenchmarkId::Bt, 8.0, 9.0, 0.0),
    (BenchmarkId::Lu, 12.0, 11.0, 0.0),
    (BenchmarkId::Sp, 20.0, 21.0, 0.0),
];

/// Table 2: single-core Mop/s at class B across the RISC-V machines.
/// Columns in [`TABLE2_MACHINES`] order; `None` = DNR (the AllWinner D1
/// cannot hold FT class B in 1 GB).
pub(crate) const TABLE2_MACHINES: [MachineId; 7] = [
    MachineId::Sg2044,
    MachineId::VisionFiveV2,
    MachineId::VisionFiveV1,
    MachineId::SiFiveU740,
    MachineId::AllWinnerD1,
    MachineId::BananaPiF3,
    MachineId::MilkVJupyter,
];

/// Rows of Table 2 (kernel, per-machine Mop/s).
pub(crate) const TABLE2_RISCV_SINGLE: [(BenchmarkId, [Option<f64>; 7]); 5] = [
    (
        BenchmarkId::Is,
        [
            Some(64.68),
            Some(17.84),
            Some(6.36),
            Some(9.09),
            Some(5.41),
            Some(22.66),
            Some(24.75),
        ],
    ),
    (
        BenchmarkId::Mg,
        [
            Some(1472.32),
            Some(288.65),
            Some(72.31),
            Some(90.28),
            Some(163.19),
            Some(306.78),
            Some(335.38),
        ],
    ),
    (
        BenchmarkId::Ep,
        [
            Some(40.75),
            Some(12.01),
            Some(7.55),
            Some(9.08),
            Some(9.23),
            Some(18.17),
            Some(20.4),
        ],
    ),
    (
        BenchmarkId::Cg,
        [
            Some(269.37),
            Some(43.61),
            Some(21.96),
            Some(29.09),
            Some(12.99),
            Some(23.71),
            Some(24.42),
        ],
    ),
    (
        BenchmarkId::Ft,
        [
            Some(1296.22),
            Some(245.99),
            Some(88.35),
            Some(116.59),
            None,
            Some(362.8),
            Some(388.24),
        ],
    ),
];

/// Table 3: single-core class C, `(kernel, SG2044 Mop/s, SG2042 Mop/s)`.
pub const TABLE3_SG_SINGLE: [(BenchmarkId, f64, f64); 5] = [
    (BenchmarkId::Is, 63.63, 58.87),
    (BenchmarkId::Mg, 1382.91, 1175.69),
    (BenchmarkId::Ep, 40.76, 31.36),
    (BenchmarkId::Cg, 213.82, 173.39),
    (BenchmarkId::Ft, 1023.83, 797.09),
];

/// Table 4: 64-core class C, `(kernel, SG2044 Mop/s, SG2042 Mop/s)`.
pub(crate) const TABLE4_SG_MULTI: [(BenchmarkId, f64, f64); 5] = [
    (BenchmarkId::Is, 3038.14, 618.50),
    (BenchmarkId::Mg, 32457.83, 14397.69),
    (BenchmarkId::Ep, 2538.38, 1675.25),
    (BenchmarkId::Cg, 7728.80, 3508.95),
    (BenchmarkId::Ft, 22582.2, 8317.91),
];

/// Table 6 core counts.
pub(crate) const TABLE6_CORES: [u32; 4] = [16, 26, 32, 64];

/// Table 6: pseudo-application runtimes relative to the SG2044 (a value of
/// 2.0 = that CPU is twice as fast as the SG2044 at that core count).
/// `(bench, core-count row) -> [SG2042, EPYC, Skylake, ThunderX2]`;
/// `None` where the machine lacks that many cores.
pub(crate) const TABLE6_PSEUDO: [(BenchmarkId, [[Option<f64>; 4]; 4]); 3] = [
    (
        BenchmarkId::Bt,
        [
            [Some(0.79), Some(2.56), Some(2.60), Some(1.92)],
            [Some(0.66), Some(2.35), Some(1.95), Some(1.77)],
            [Some(0.66), Some(2.41), None, Some(1.73)],
            [Some(0.45), Some(1.90), None, None],
        ],
    ),
    (
        BenchmarkId::Lu,
        [
            [Some(0.85), Some(3.09), Some(3.52), Some(2.43)],
            [Some(0.88), Some(2.80), Some(2.77), Some(2.29)],
            [Some(0.81), Some(2.76), None, Some(2.39)],
            [Some(0.69), Some(2.05), None, None],
        ],
    ),
    (
        BenchmarkId::Sp,
        [
            [Some(0.79), Some(3.99), Some(3.07), Some(2.87)],
            [Some(0.57), Some(3.56), Some(1.99), Some(2.05)],
            [Some(0.63), Some(3.30), None, Some(2.02)],
            [Some(0.48), Some(2.05), None, None],
        ],
    ),
];

/// Tables 7/8 column layout: `(GCC 12.3.1, GCC 15.2 vector, GCC 15.2 no
/// vector)` Mop/s on the SG2044 at class C.
pub(crate) type CompilerRow = (BenchmarkId, f64, f64, f64);

/// Table 7: single core.
pub(crate) const TABLE7_COMPILER_SINGLE: [CompilerRow; 5] = [
    (BenchmarkId::Is, 62.94, 63.63, 62.75),
    (BenchmarkId::Mg, 1373.31, 1382.92, 1300.27),
    (BenchmarkId::Ep, 40.56, 40.76, 40.75),
    (BenchmarkId::Cg, 210.06, 81.19, 217.53),
    (BenchmarkId::Ft, 887.43, 1023.83, 982.93),
];

/// Table 8: all 64 cores.
pub(crate) const TABLE8_COMPILER_MULTI: [CompilerRow; 5] = [
    (BenchmarkId::Is, 2255.72, 3038.14, 3024.63),
    (BenchmarkId::Mg, 32186.04, 32457.83, 31892.70),
    (BenchmarkId::Ep, 2529.91, 2542.53, 2538.38),
    (BenchmarkId::Cg, 7709.53, 4463.18, 7728.80),
    (BenchmarkId::Ft, 20796.20, 22582.20, 21282.00),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_over_table3_reproduces_headline_speedups() {
        // The abstract's headline: 4.91× (IS) down to 1.52× (EP) over the
        // SG2042 at 64 cores.
        let is_ratio = TABLE4_SG_MULTI[0].1 / TABLE4_SG_MULTI[0].2;
        assert!((is_ratio - 4.91).abs() < 0.02);
        let ep_ratio = TABLE4_SG_MULTI[2].1 / TABLE4_SG_MULTI[2].2;
        assert!((ep_ratio - 1.52).abs() < 0.02);
    }

    #[test]
    fn table3_ratios_lie_in_the_stated_band() {
        // §7: single-core speedups between 1.08 and 1.30.
        for (b, new, old) in TABLE3_SG_SINGLE {
            let r = new / old;
            assert!((1.07..=1.31).contains(&r), "{b:?}: {r}");
        }
    }

    #[test]
    fn table7_shows_the_cg_anomaly() {
        let (_, _, vec, novec) = TABLE7_COMPILER_SINGLE[3];
        assert!(novec / vec > 2.5, "CG vectorised must be ~3× slower");
    }

    #[test]
    fn table2_sg2044_dominates_all_riscv_rows() {
        for (b, row) in TABLE2_RISCV_SINGLE {
            let sg = row[0].unwrap();
            for v in row.iter().skip(1).flatten() {
                assert!(sg > *v, "{b:?}");
            }
        }
    }
}
