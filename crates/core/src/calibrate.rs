//! Calibration policy.
//!
//! The analytic profiles count instructions and memory references from the
//! algorithms; each count carries a constant-factor uncertainty (how many
//! machine instructions per "flop", libm costs, loop overheads). We absorb
//! that uncertainty into **one global scale constant per benchmark**,
//! fixed against a single anchor: the paper's Table 3 SG2044 single-core
//! class C column. The constant multiplies predicted *time* identically
//! for every machine, thread count, class and compiler, so it cannot
//! manufacture any cross-machine or scaling result — those all emerge
//! from the architecture models.
//!
//! BT/SP/LU have no absolute Mop/s anchor in the paper (Table 6 is all
//! ratios); their scales are fixed from the same Table 3 kernel anchors'
//! average so their absolute magnitudes are plausible, and only their
//! *ratios* are evaluated (as in the paper).

use rvhpc_npb::BenchmarkId;

/// The per-benchmark time-scale constants. Derived by running the
/// *uncalibrated* model at the anchor scenario (see the `derivation`
/// test, which recomputes and checks them); values > 1 mean the analytic
/// profile under-counted work.
pub fn scale(bench: BenchmarkId) -> f64 {
    match bench {
        BenchmarkId::Is => 1.6706,
        BenchmarkId::Ep => 1.5521,
        BenchmarkId::Cg => 3.3113,
        BenchmarkId::Mg => 1.6342,
        BenchmarkId::Ft => 1.1374,
        // No absolute anchors exist (Table 6 is ratio-only); unit scale.
        BenchmarkId::Bt => 1.0,
        BenchmarkId::Sp => 1.0,
        BenchmarkId::Lu => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{predict, Scenario};
    use crate::paper;
    use rvhpc_machines::presets;
    use rvhpc_npb::Class;

    /// After calibration, the anchor column must match the paper within
    /// 2% (the residual is the granularity of the published numbers).
    #[test]
    fn anchors_match_table3_sg2044_column() {
        let m = presets::sg2044();
        for (bench, paper_mops, _) in paper::TABLE3_SG_SINGLE {
            let profile = rvhpc_npb::profile(bench, Class::C);
            let pred = predict(&profile, &Scenario::paper_headline(&m, bench, 1));
            let rel = (pred.mops - paper_mops).abs() / paper_mops;
            assert!(
                rel < 0.02,
                "{bench:?}: model {:.2} vs paper {paper_mops} (rel {rel:.3})",
                pred.mops
            );
        }
    }

    #[test]
    fn scales_are_positive() {
        for b in BenchmarkId::ALL {
            assert!(scale(b) > 0.0);
        }
    }
}
