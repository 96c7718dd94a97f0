//! Extension experiment: predicted HPL and HPCG throughput on the paper's
//! five HPC machines — answering the paper's §7 closing question through
//! the model.
//!
//! No paper values exist (this *is* the future work), so the table reports
//! model predictions only, plus the derived "fraction of peak" column that
//! HPL/HPCG results are conventionally judged by.

use rvhpc_core::model::{predict, Scenario};
use rvhpc_machines::{presets, Machine};
use rvhpc_parallel::Pool;

use crate::{hpcg, hpl};

/// HPL problem order used for the predictions (memory-scaled problems are
/// the HPL convention; this fits the smallest node's memory).
pub const HPL_N: usize = 40_000;
/// HPCG grid (104³ local grid is the HPCG default).
pub const HPCG_N: usize = 104;
/// HPCG iterations per set.
pub const HPCG_ITERS: usize = 50;

/// One machine's predicted extension results.
#[derive(Debug, Clone)]
pub struct ExtensionRow {
    pub machine: &'static str,
    pub cores: u32,
    /// Predicted HPL GFLOP/s at full chip.
    pub hpl_gflops: f64,
    /// HPL as a fraction of peak f64 FLOP/s.
    pub hpl_fraction_of_peak: f64,
    /// Predicted HPCG GFLOP/s at full chip.
    pub hpcg_gflops: f64,
    /// HPCG/HPL ratio (the "memory wall" indicator, typically 1–5%).
    pub hpcg_over_hpl: f64,
}

fn predict_gflops(profile: &rvhpc_npb::profile::WorkloadProfile, m: &Machine) -> f64 {
    let pred = predict(profile, &Scenario::headline(m, m.cores));
    // total_ops for these profiles are flops.
    profile.total_ops / pred.seconds / 1e9
}

/// Predicted HPL/HPCG for the five HPC machines.
pub fn extension_table() -> Vec<ExtensionRow> {
    let hpl_profile = hpl::profile(HPL_N);
    let hpcg_profile = hpcg::profile(HPCG_N, HPCG_ITERS);
    presets::hpc_five()
        .iter()
        .map(|m| {
            let hpl_g = predict_gflops(&hpl_profile, m);
            let hpcg_g = predict_gflops(&hpcg_profile, m);
            ExtensionRow {
                machine: m.id.name(),
                cores: m.cores,
                hpl_gflops: hpl_g,
                hpl_fraction_of_peak: hpl_g / m.peak_gflops(m.cores),
                hpcg_gflops: hpcg_g,
                hpcg_over_hpl: hpcg_g / hpl_g,
            }
        })
        .collect()
}

/// Render the extension table as markdown.
pub fn render() -> String {
    let mut out = String::from(
        "| CPU | cores | HPL GF/s | % of peak | HPCG GF/s | HPCG/HPL |\n|---|---|---|---|---|---|\n",
    );
    for r in extension_table() {
        out.push_str(&format!(
            "| {} | {} | {:.0} | {:.0}% | {:.1} | {:.1}% |\n",
            r.machine,
            r.cores,
            r.hpl_gflops,
            100.0 * r.hpl_fraction_of_peak,
            r.hpcg_gflops,
            100.0 * r.hpcg_over_hpl,
        ));
    }
    out
}

/// Host-run both extensions at a small size (for examples/tests).
pub fn host_smoke(pool: &Pool) -> (hpl::HplResult, hpcg::HpcgResult) {
    (hpl::run(128, pool), hpcg::run(16, 20, pool))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_table_is_complete_and_sane() {
        let rows = extension_table();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.hpl_gflops > 0.0 && r.hpl_gflops.is_finite(), "{r:?}");
            assert!(r.hpcg_gflops > 0.0, "{r:?}");
            // HPL efficiency must be below peak; HPCG far below HPL.
            assert!(r.hpl_fraction_of_peak < 1.0, "{r:?}");
            assert!(
                r.hpcg_over_hpl < 0.5,
                "HPCG should be a small fraction of HPL: {r:?}"
            );
        }
    }

    #[test]
    fn hpcg_ranking_follows_bandwidth_not_flops() {
        // HPCG is bandwidth-bound: the SG2044 must beat the SG2042 by
        // roughly the bandwidth ratio, not the flop ratio.
        let rows = extension_table();
        let get = |name: &str| rows.iter().find(|r| r.machine == name).unwrap();
        let ratio = get("SG2044").hpcg_gflops / get("SG2042").hpcg_gflops;
        assert!(
            ratio > 2.0,
            "SG2044/SG2042 HPCG ratio {ratio:.2} should track the ~3x bandwidth gap"
        );
        // And HPL should be closer to the clock/vector gap (~1.3x).
        let hpl_ratio = get("SG2044").hpl_gflops / get("SG2042").hpl_gflops;
        assert!(
            hpl_ratio < ratio,
            "HPL ratio {hpl_ratio:.2} vs HPCG {ratio:.2}"
        );
    }

    #[test]
    fn host_smoke_passes_both() {
        let pool = Pool::new(2);
        let (hpl_r, hpcg_r) = host_smoke(&pool);
        assert!(hpl_r.passed, "HPL residual {}", hpl_r.scaled_residual);
        assert!(hpcg_r.passed, "HPCG residual {}", hpcg_r.relative_residual);
    }

    #[test]
    fn render_produces_rows() {
        let md = render();
        assert!(md.contains("SG2044"));
        assert!(md.lines().count() >= 7);
    }
}
