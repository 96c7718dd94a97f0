//! Determinism and cache-reuse guarantees of the prediction engine as
//! seen from the top-level driver: `full_report()` must be byte-identical
//! at any worker count, and a warm second artifact pass must recompute
//! nothing.

use rvhpc::eval::engine::Engine;
use rvhpc::eval::runner;

#[test]
fn full_report_is_byte_identical_across_jobs() {
    let serial = runner::full_report_with_jobs(1);
    let parallel = runner::full_report_with_jobs(8);
    assert_eq!(
        serial, parallel,
        "parallel execution must not change a single byte of the report"
    );
    // Sanity: the report is the real thing, not an empty string.
    assert!(serial.contains("Table 8"));
    assert!(serial.contains("Stall attribution"));
}

#[test]
fn second_artifact_pass_recomputes_nothing() {
    let dir = std::env::temp_dir().join("rvhpc_engine_warm_artifacts");
    let _ = std::fs::remove_dir_all(&dir);

    runner::write_artifacts(&dir, &runner::full_report()).expect("cold artifact pass");
    let warm = Engine::global().metrics();
    runner::write_artifacts(&dir, &runner::full_report()).expect("warm artifact pass");
    let after = Engine::global().metrics();

    assert_eq!(
        after.prediction_misses, warm.prediction_misses,
        "warm write_artifacts must be pure prediction-cache hits"
    );
    assert_eq!(
        after.profile_misses, warm.profile_misses,
        "warm write_artifacts must not re-derive any workload profile"
    );
    assert!(
        after.prediction_hits > warm.prediction_hits,
        "the warm pass still reads every prediction (from cache)"
    );
    assert_eq!(after.executed, warm.executed, "no queries re-executed");

    let _ = std::fs::remove_dir_all(&dir);
}
