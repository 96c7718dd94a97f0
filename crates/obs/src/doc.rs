//! The versioned document kinds, and what each one means to a diff.
//!
//! Every document this workspace commits or gates names its kind in a
//! `schema` tag. [`Kind`] is the one table from that tag to the kind's
//! rules: the schema it carries, the structure [`Kind::validate`]
//! requires, the children [`crate::diff::diff_any`] pairs between a
//! baseline and a current document, and the drift rule that compares the
//! two as wholes. A new document kind is one more `Kind` arm.
//!
//! | Kind | Schema | Keyed children | Drift rule |
//! |---|---|---|---|
//! | metrics | `rvhpc-metrics/1` | the whole document | — |
//! | bench | `rvhpc-bench/1` | `targets`, by name | a run-mode change is noted |
//! | saturation | `rvhpc-saturation/1` | `steps`, by connection count | a knee at fewer connections regresses |

use crate::diff::{DiffReport, Severity};
use crate::json::JsonValue;

/// One versioned document kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Serve and loadgen metrics.
    Metrics,
    /// One run of the curated benchmark suite (`reproduce bench`).
    Bench,
    /// One concurrency sweep (`loadgen --sweep`).
    Saturation,
}

const ALL: [Kind; 3] = [Kind::Metrics, Kind::Bench, Kind::Saturation];

/// The `schema` tag of a document, when present.
pub fn schema_tag(doc: &JsonValue) -> Option<&str> {
    doc.get("schema").and_then(JsonValue::as_str)
}

impl Kind {
    /// The kind a document's `schema` tag names; `None` when the tag is
    /// missing or unknown.
    pub fn of(doc: &JsonValue) -> Option<Kind> {
        let tag = schema_tag(doc)?;
        ALL.into_iter().find(|kind| kind.schema() == tag)
    }

    /// The kind a command-line keyword (`metrics`, `bench`,
    /// `saturation`) names.
    pub fn from_keyword(word: &str) -> Option<Kind> {
        match word {
            "metrics" => Some(Kind::Metrics),
            "bench" => Some(Kind::Bench),
            "saturation" => Some(Kind::Saturation),
            _ => None,
        }
    }

    /// The schema tag every document of this kind carries.
    pub fn schema(self) -> &'static str {
        match self {
            Kind::Metrics => crate::metrics::METRICS_SCHEMA,
            Kind::Bench => crate::benchdoc::BENCH_SCHEMA,
            Kind::Saturation => crate::saturation::SATURATION_SCHEMA,
        }
    }

    /// Structural validation: the schema tag, then whatever else the kind
    /// requires (a metrics document needs only the tag). Returns the first
    /// problem found.
    pub fn validate(self, doc: &JsonValue) -> Result<(), String> {
        match schema_tag(doc) {
            Some(tag) if tag == self.schema() => {}
            Some(tag) => return Err(format!("schema is {tag:?}, expected {:?}", self.schema())),
            None => return Err("missing schema tag".to_string()),
        }
        match self {
            Kind::Metrics => Ok(()),
            Kind::Bench => validate_bench(doc),
            Kind::Saturation => validate_saturation(doc),
        }
    }

    /// The children a diff pairs by dotted path, and the noun its
    /// messages call one. Expects a validated document.
    pub(crate) fn children(self, doc: &JsonValue) -> (Vec<(String, &JsonValue)>, &'static str) {
        match self {
            Kind::Metrics => (vec![(String::new(), doc)], "document"),
            Kind::Bench => {
                let targets = match doc.get("targets") {
                    Some(JsonValue::Object(map)) => map
                        .iter()
                        .map(|(name, target)| (format!("targets.{name}"), target))
                        .collect(),
                    _ => Vec::new(),
                };
                (targets, "target")
            }
            Kind::Saturation => {
                let steps = match doc.get("steps") {
                    Some(JsonValue::Array(steps)) => steps
                        .iter()
                        .map(|step| {
                            let conns = step.get("conns").and_then(JsonValue::as_f64);
                            (format!("steps.conns_{}", conns.unwrap_or(-1.0)), step)
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                (steps, "sweep step")
            }
        }
    }

    /// What a diff compares between two documents as wholes: a bench
    /// run-mode change is noted, and a saturation knee that moved to
    /// fewer connections regresses — the service saturates earlier.
    pub(crate) fn drift(self, baseline: &JsonValue, current: &JsonValue, report: &mut DiffReport) {
        match self {
            Kind::Metrics => {}
            Kind::Bench => {
                let [bm, cm] =
                    [baseline, current].map(|doc| doc.get("mode").and_then(JsonValue::as_str));
                if bm != cm {
                    report.push(
                        "mode",
                        Severity::Info,
                        format!("run modes differ: baseline {bm:?} vs current {cm:?}"),
                    );
                }
            }
            Kind::Saturation => {
                let knee = |doc: &JsonValue| doc.at("knee.conns").and_then(JsonValue::as_f64);
                let (Some(base), Some(cur)) = (knee(baseline), knee(current)) else {
                    return;
                };
                let (severity, moved) = if cur < base {
                    (Severity::Regression, "earlier")
                } else {
                    (Severity::Info, "later")
                };
                if cur != base {
                    report.push(
                        "knee.conns",
                        severity,
                        format!("saturation knee moved {moved}: {base} -> {cur} connections"),
                    );
                }
            }
        }
    }
}

/// The quantile ladder every latency section answers to: `min ≤ p50 ≤
/// p99 ≤ max` over the rungs the section carries, and every rung zero
/// when its `count` is 0.
pub(crate) fn check_ladder(section: &JsonValue) -> Result<(), String> {
    let rungs: Vec<(&str, f64)> = [
        ("min", "min_us"),
        ("p50", "p50_us"),
        ("p99", "p99_us"),
        ("max", "max_us"),
    ]
    .into_iter()
    .filter_map(|(rung, key)| Some((rung, section.get(key)?.as_f64()?)))
    .collect();
    let shown = || {
        rungs
            .iter()
            .map(|(rung, v)| format!("{rung}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let count = section.get("count").and_then(JsonValue::as_f64);
    if count == Some(0.0) && rungs.iter().any(|&(_, v)| v != 0.0) {
        return Err(format!(
            "empty histogram reports nonzero quantiles ({})",
            shown()
        ));
    }
    if rungs.windows(2).any(|pair| pair[0].1 > pair[1].1) {
        return Err(format!("quantile ladder not monotone: {}", shown()));
    }
    Ok(())
}

/// A bench document: `system` and a non-empty `targets` object whose
/// every target has a layout-tagged `wall` section with at least one
/// iteration and a monotone ladder.
fn validate_bench(doc: &JsonValue) -> Result<(), String> {
    for key in ["system", "targets"] {
        if doc.get(key).is_none() {
            return Err(format!("missing {key} section"));
        }
    }
    let Some(JsonValue::Object(targets)) = doc.get("targets") else {
        return Err("targets section is not an object".to_string());
    };
    if targets.is_empty() {
        return Err("targets section is empty".to_string());
    }
    for (name, target) in targets {
        let Some(wall) = target.get("wall") else {
            return Err(format!("target {name}: missing wall section"));
        };
        let num = |key: &str| {
            wall.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("target {name}: wall.{key} missing or non-numeric"))
        };
        for key in ["min_us", "p50_us", "p99_us", "max_us"] {
            num(key)?;
        }
        if num("count")? < 1.0 {
            return Err(format!("target {name}: zero iterations"));
        }
        check_ladder(wall).map_err(|e| format!("target {name}: {e}"))?;
        if wall
            .get("bucket_layout")
            .and_then(JsonValue::as_str)
            .is_none()
        {
            return Err(format!(
                "target {name}: wall section has no bucket_layout tag"
            ));
        }
    }
    Ok(())
}

/// A saturation document: a non-empty `steps` array in strictly
/// ascending connection order with numeric, monotone per-step figures,
/// and a `knee` whose connection count is one of the steps.
fn validate_saturation(doc: &JsonValue) -> Result<(), String> {
    let Some(JsonValue::Array(steps)) = doc.get("steps") else {
        return Err("missing steps array".to_string());
    };
    if steps.is_empty() {
        return Err("steps array is empty".to_string());
    }
    let mut conns_seen = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let num = |key: &str| {
            step.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("step {i}: {key} missing or non-numeric"))
        };
        let conns = num("conns")?;
        if let Some(&prev) = conns_seen.last() {
            if conns <= prev {
                return Err(format!("step {i}: conns {conns} not above previous {prev}"));
            }
        }
        conns_seen.push(conns);
        for key in ["p50_us", "p99_us", "throughput_rps", "ok"] {
            num(key)?;
        }
        check_ladder(step).map_err(|e| format!("step {i}: {e}"))?;
    }
    let knee_conns = doc
        .at("knee.conns")
        .and_then(JsonValue::as_f64)
        .ok_or("missing knee.conns")?;
    if !conns_seen.contains(&knee_conns) {
        return Err(format!("knee.conns {knee_conns} is not a sweep step"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn kinds_round_trip_through_schema_and_keyword() {
        for (kind, word) in ALL.into_iter().zip(["metrics", "bench", "saturation"]) {
            let doc = JsonValue::object([("schema".to_string(), JsonValue::from(kind.schema()))]);
            assert_eq!(Kind::of(&doc), Some(kind));
            assert_eq!(Kind::from_keyword(word), Some(kind));
        }
        assert_eq!(
            Kind::of(&parse(r#"{"schema":"rvhpc-metrics/2"}"#).unwrap()),
            None
        );
        assert_eq!(Kind::of(&parse("{}").unwrap()), None);
        assert_eq!(Kind::from_keyword("health"), None);
    }

    #[test]
    fn one_ladder_check_covers_every_section_shape() {
        let ladder = |text: &str| check_ladder(&parse(text).unwrap());
        assert_eq!(
            ladder(r#"{"count":3,"min_us":1,"p50_us":2,"p99_us":3,"max_us":3}"#),
            Ok(())
        );
        assert_eq!(ladder(r#"{"p50_us":2,"p99_us":3}"#), Ok(()));
        assert_eq!(
            ladder(r#"{"count":0,"min_us":0,"p50_us":0,"p99_us":0,"max_us":0}"#),
            Ok(())
        );
        let e = ladder(r#"{"count":3,"min_us":5,"p50_us":2,"p99_us":3,"max_us":3}"#).unwrap_err();
        assert!(e.contains("not monotone") && e.contains("min=5"), "{e}");
        let e = ladder(r#"{"p50_us":4,"p99_us":3}"#).unwrap_err();
        assert!(e.contains("p50=4, p99=3"), "{e}");
        let e = ladder(r#"{"count":0,"p50_us":0,"p99_us":0,"max_us":7}"#).unwrap_err();
        assert!(e.contains("empty histogram"), "{e}");
    }

    #[test]
    fn bench_validation_accepts_a_minimal_document_and_names_failures() {
        use crate::benchdoc::{document, WallStats};
        let mut doc = document("test", 0, true);
        assert!(Kind::Bench.validate(&doc).unwrap_err().contains("system"));
        if let JsonValue::Object(map) = &mut doc {
            map.insert("system".to_string(), JsonValue::object([]));
            map.insert(
                "targets".to_string(),
                JsonValue::object([(
                    "t1".to_string(),
                    JsonValue::object([(
                        "wall".to_string(),
                        WallStats::from_samples(&[10, 20, 30]).to_json(),
                    )]),
                )]),
            );
        }
        assert_eq!(Kind::Bench.validate(&doc), Ok(()));
    }

    #[test]
    fn validate_names_the_schema_it_expected() {
        let metrics = parse(r#"{"schema":"rvhpc-metrics/1"}"#).unwrap();
        assert_eq!(Kind::Metrics.validate(&metrics), Ok(()));
        for kind in [Kind::Bench, Kind::Saturation] {
            let e = kind.validate(&metrics).unwrap_err();
            assert!(
                e.contains("rvhpc-metrics/1") && e.contains(kind.schema()),
                "{e}"
            );
        }
        assert!(Kind::Metrics
            .validate(&parse("{}").unwrap())
            .unwrap_err()
            .contains("missing schema"));
    }
}
