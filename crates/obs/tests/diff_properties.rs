//! Property tests for the document diff: comparing any well-formed
//! benchmark document against itself must always be clean — no
//! regressions and no mismatches, at any threshold configuration.

use proptest::prelude::*;
use rvhpc_obs::benchdoc::{self, WallStats};
use rvhpc_obs::{diff_any, json::JsonValue, DiffConfig, Kind};

/// Build a bench document with `targets` synthetic targets, each with a
/// deterministic sample vector derived from the seeds.
fn synth_doc(target_seeds: &[u64]) -> JsonValue {
    let mut doc = benchdoc::document("proptest", 0, false);
    let targets: Vec<(String, JsonValue)> = target_seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            // A spread of samples around the seed; always non-empty.
            let samples: Vec<u64> = (0..8u64).map(|k| seed % 1_000_000 + k * 17).collect();
            let target = JsonValue::object([
                ("group".to_string(), JsonValue::from("synthetic")),
                ("iterations".to_string(), JsonValue::from(samples.len())),
                (
                    "wall".to_string(),
                    WallStats::from_samples(&samples).to_json(),
                ),
                (
                    "throughput".to_string(),
                    JsonValue::object([
                        ("unit".to_string(), JsonValue::from("op/s")),
                        (
                            "value".to_string(),
                            JsonValue::from((seed % 977 + 1) as f64),
                        ),
                    ]),
                ),
            ]);
            (format!("target_{i}"), target)
        })
        .collect();
    if let JsonValue::Object(map) = &mut doc {
        map.insert(
            "system".to_string(),
            JsonValue::object([("cpus".to_string(), JsonValue::from(8u64))]),
        );
        map.insert("targets".to_string(), JsonValue::object(targets));
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// benchdiff(doc, doc) is always clean, for any document shape and
    /// any threshold configuration.
    #[test]
    fn self_diff_is_always_clean(
        seeds in prop::collection::vec(0u64..u64::MAX, 1usize..12),
        ratio_milli in 1000u64..5000,
        floor in 0u64..100_000,
        strict_bit in 0u64..2,
    ) {
        let doc = synth_doc(&seeds);
        prop_assert_eq!(Kind::Bench.validate(&doc), Ok(()));
        let cfg = DiffConfig {
            max_quantile_ratio: ratio_milli as f64 / 1000.0,
            floor_us: floor as f64,
            strict: strict_bit == 1,
        };
        let report = diff_any(&doc, &doc.clone(), &cfg);
        prop_assert!(!report.has_regressions(), "{}", report.render());
        prop_assert!(!report.has_mismatches(), "{}", report.render());
    }

    /// Serialize/parse round-trips preserve the self-diff property: a
    /// document read back from disk must still diff clean against the
    /// in-memory original.
    #[test]
    fn self_diff_survives_json_roundtrip(
        seeds in prop::collection::vec(0u64..u64::MAX, 1usize..6),
    ) {
        let doc = synth_doc(&seeds);
        let reparsed = rvhpc_obs::json::parse(&doc.to_json()).expect("round-trip");
        let report = diff_any(&doc, &reparsed, &DiffConfig::default());
        prop_assert!(!report.has_regressions(), "{}", report.render());
        prop_assert!(!report.has_mismatches(), "{}", report.render());
    }
}
