//! `--compare <dir-a> <dir-b>`: do two complete sets of runs of the same
//! commit agree? `run.sh --repeat 2` saves each run's result line as
//! `<workload>.e2e.json` / `<workload>.layers.json` and calls this.

use std::path::Path;

use rvhpc_obs::json::{self, JsonValue};

/// Two runs whose `bench.calib_ns` differ by more than this share were
/// not made on a comparable machine.
const CALIB_DRIFT: f64 = 0.10;

/// The issue bounds `setup_s` by a share "or 0.2 s": a 15 ms set-up
/// moves by a third from one run to the next without meaning anything.
/// (The driver compares medians of ten runs instead.)
const SETUP_SLACK_S: f64 = 0.2;

fn read(path: &Path) -> Option<JsonValue> {
    json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

fn metric(doc: &JsonValue, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a` as a share of `a`; negative if better.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Prints one row per workload and end-to-end metric; returns the
/// process exit code.
pub fn run(dir_a: &Path, dir_b: &Path) -> i32 {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Some(spec) = read(manifest.as_ref()) else {
        eprintln!("cannot read {manifest}");
        return 2;
    };
    let end_to_end = spec
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let mut disagreements = 0;
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "run a", "run b", "worse %", "bound %"
    );
    for workload in crate::WORKLOADS {
        let file = format!("{workload}.e2e.json");
        let (Some(a), Some(b)) = (read(&dir_a.join(&file)), read(&dir_b.join(&file))) else {
            eprintln!("missing {file} in one of the directories");
            return 2;
        };
        for m in end_to_end {
            let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0);
            let name = field("name");
            let (Some(va), Some(vb)) = (metric(&a, name), metric(&b, name)) else {
                eprintln!("{file} lacks {name}");
                return 2;
            };
            // Either order of the two runs may be the worse one.
            let worse = worsening(va, vb, field("better")).max(worsening(vb, va, field("better")));
            let agree = worse <= bound || (name == "setup_s" && (va - vb).abs() <= SETUP_SLACK_S);
            disagreements += u32::from(!agree);
            println!(
                "{workload:<14} {name:<24} {va:>16.4} {vb:>16.4} {:>9.2} {:>7.1}  {}",
                100.0 * worse,
                100.0 * bound,
                if agree { "ok" } else { "DISAGREE" }
            );
        }
        let file = format!("{workload}.layers.json");
        if let (Some(a), Some(b)) = (read(&dir_a.join(&file)), read(&dir_b.join(&file))) {
            let calib = |d| metric(d, "bench.calib_ns").unwrap_or(f64::NAN);
            let drift = (calib(&b) - calib(&a)).abs() / calib(&a);
            if drift.is_nan() || drift > CALIB_DRIFT {
                println!(
                    "{workload:<14} bench.calib_ns drifted {:.1} %: unresolved",
                    100.0 * drift
                );
                disagreements += 1;
            }
        }
    }
    i32::from(disagreements > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }
}
