//! Re-derive the per-benchmark calibration scale constants.
//!
//! ```text
//! cargo run --release --example calib_probe
//! ```
//!
//! The analytic profiles carry a constant-factor uncertainty that
//! `rvhpc_core::calibrate::scale` absorbs into one time-scale constant
//! per benchmark, anchored to the paper's Table 3 SG2044 single-core
//! class C column (see `crates/core/src/calibrate.rs`). This probe
//! recomputes each constant from scratch by bisection: starting from the
//! *currently calibrated* model, it rescales the compute-bound portion of
//! every phase until the predicted Mop/s hits the anchor, and prints the
//! re-derived constant next to the committed one.
//!
//! Use it when a model change shifts the anchors: run the probe, paste
//! the re-derived constants into `calibrate::scale`, and re-run
//! `cargo test -p rvhpc-core` — the `anchors_match_table3_sg2044_column`
//! test enforces the 2% closure this probe targets.

use rvhpc_core::calibrate;
use rvhpc_core::model::{predict, Scenario};
use rvhpc_core::paper;
use rvhpc_machines::presets;
use rvhpc_npb::Class;

fn main() {
    let m = presets::sg2044();
    println!("bench   model Mop/s   paper Mop/s   committed k   re-derived k");
    for (bench, paper_mops, _) in paper::TABLE3_SG_SINGLE {
        let profile = rvhpc_npb::profile(bench, Class::C);
        let k0 = calibrate::scale(bench);
        let scenario = Scenario::paper_headline(&m, bench, 1);
        let pred = predict(&profile, &scenario);
        // Barrier/overhead time is whatever the total carries beyond the
        // per-phase sum; it does not scale with the compute constant.
        let barrier = pred.seconds - pred.per_phase.iter().map(|p| p.seconds).sum::<f64>();
        let target_seconds = profile.total_ops / paper_mops / 1e6;

        // Bisect the constant k: each phase's compute time is k/k0 times
        // its current compute time, floored by the bandwidth bound.
        let (mut lo, mut hi) = (1e-3f64, 1e3f64);
        for _ in 0..200 {
            let k = 0.5 * (lo + hi);
            let t: f64 = pred
                .per_phase
                .iter()
                .map(|p| {
                    let compute = if p.seconds > p.bw_seconds {
                        p.seconds / k0
                    } else {
                        (p.bw_seconds / k0).min(p.seconds / k0)
                    };
                    (k * compute).max(p.bw_seconds)
                })
                .sum::<f64>()
                + barrier;
            if t < target_seconds {
                lo = k;
            } else {
                hi = k;
            }
        }
        let k = 0.5 * (lo + hi);
        println!(
            "{:<6}  {:>11.2}   {:>11.2}   {:>11.4}   {:>12.4}",
            format!("{bench:?}"),
            pred.mops,
            paper_mops,
            k0,
            k
        );
    }
    println!();
    println!("Paste re-derived constants into crates/core/src/calibrate.rs::scale,");
    println!("then run `cargo test -p rvhpc-core` to confirm the 2% anchor closure.");
}
