//! The versioned `rvhpc-saturation/1` saturation-curve document.
//!
//! A saturation sweep steps the load generator's concurrency from `lo`
//! to `hi` connections and records one step object per level: latency
//! quantiles, throughput and error counters at that concurrency. The
//! resulting connections-vs-p50/p99 curve is the capacity-planning
//! primitive the ROADMAP asks for — where does added concurrency stop
//! buying throughput and start buying only latency?
//!
//! That turning point is the *knee*, detected with the maximum-distance
//! ("kneedle"-style) construction: normalize the (connections, p99)
//! curve to the unit square, draw the chord from its first to its last
//! point, and pick the step farthest from the chord. The construction
//! is closed-form and deterministic — same curve, same knee — so knees
//! can be committed, diffed, and gated like every other number here.
//!
//! Documents are committed as `results/SATURATION_<n>.json`, rendered
//! into `BENCHMARKS.md`, and diffed as [`crate::doc::Kind::Saturation`]:
//! steps are matched by connection count (a vanished step is lost
//! coverage), per-step quantiles obey the usual ratio + floor rules, and
//! a knee that moved to a *lower* connection count is a regression — the
//! service saturates earlier.

use crate::json::JsonValue;

/// Schema tag stamped into every saturation document.
pub(crate) const SATURATION_SCHEMA: &str = "rvhpc-saturation/1";

/// One concurrency level of a sweep, as recorded by loadgen.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStep {
    /// Concurrent connections this step drove.
    pub conns: u64,
    /// Requests answered OK.
    pub ok: u64,
    /// Error replies received.
    pub errors: u64,
    /// Requests with no reply at all.
    pub dropped: u64,
    /// Achieved request throughput.
    pub throughput_rps: f64,
    /// Median service latency in microseconds.
    pub p50_us: f64,
    /// Tail service latency in microseconds.
    pub p99_us: f64,
    /// Whole-step cache hit rate (server counters delta).
    pub cache_hit_rate: f64,
    /// Mean in-flight connection count over the step's samples, when
    /// the step sampled (`None` renders as absent, keeping unsampled
    /// runs byte-stable).
    pub inflight_mean: Option<f64>,
}

impl SweepStep {
    /// Render one step object.
    pub(crate) fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("conns".to_string(), JsonValue::from(self.conns)),
            ("ok".to_string(), JsonValue::from(self.ok)),
            ("errors".to_string(), JsonValue::from(self.errors)),
            ("dropped".to_string(), JsonValue::from(self.dropped)),
            (
                "throughput_rps".to_string(),
                JsonValue::from(self.throughput_rps),
            ),
            ("p50_us".to_string(), JsonValue::from(self.p50_us)),
            ("p99_us".to_string(), JsonValue::from(self.p99_us)),
            (
                "cache_hit_rate".to_string(),
                JsonValue::from(self.cache_hit_rate),
            ),
        ];
        if let Some(mean) = self.inflight_mean {
            fields.push(("inflight_mean".to_string(), JsonValue::from(mean)));
        }
        JsonValue::object(fields)
    }
}

/// Index of the knee of a `(conns, p99_us)` curve: the point with the
/// maximum perpendicular distance to the chord joining the curve's
/// endpoints, both axes normalized to [0, 1]. Returns `None` below
/// three points (no interior to bend). Ties break to the smallest
/// index, so the result is deterministic.
pub fn knee_index(points: &[(f64, f64)]) -> Option<usize> {
    if points.len() < 3 {
        return None;
    }
    let (x0, y0) = points[0];
    let (xn, yn) = *points.last().expect("non-empty");
    let (xspan, yspan) = ((xn - x0).abs().max(1e-12), (yn - y0).abs().max(1e-12));
    let norm = |&(x, y): &(f64, f64)| ((x - x0) / xspan, (y - y0) / yspan);
    let (ax, ay) = norm(&points[0]);
    let (bx, by) = norm(points.last().expect("non-empty"));
    let (dx, dy) = (bx - ax, by - ay);
    let chord = (dx * dx + dy * dy).sqrt().max(1e-12);
    let mut best = (0usize, -1.0f64);
    for (i, p) in points.iter().enumerate() {
        let (px, py) = norm(p);
        let dist = (dy * px - dx * py + bx * ay - by * ax).abs() / chord;
        if dist > best.1 {
            best = (i, dist);
        }
    }
    Some(best.0)
}

/// Sweep identity recorded in the document's `sweep` header section.
#[derive(Debug, Clone)]
pub struct SweepParams<'a> {
    /// Lowest connection count swept.
    pub lo: u64,
    /// Highest connection count swept.
    pub hi: u64,
    /// Stride between connection counts.
    pub step: u64,
    /// Requests replayed at each connection count.
    pub requests_per_step: u64,
    /// Open-loop rate cap per step (0 = unthrottled).
    pub rate_rps: u64,
    /// Workload mix label (`preset` / `mixed`).
    pub mix: &'a str,
}

/// Build a complete saturation document from sweep parameters and the
/// recorded steps, computing the knee. Steps must be in ascending
/// connection order (the sweep drives them that way).
pub fn document(generator: &str, params: &SweepParams, steps: &[SweepStep]) -> JsonValue {
    let curve: Vec<(f64, f64)> = steps.iter().map(|s| (s.conns as f64, s.p99_us)).collect();
    // Below three steps the chord construction has no interior point;
    // call the last (highest-concurrency) step the knee so the field is
    // always present and the document always validates.
    let knee_at = knee_index(&curve).unwrap_or(steps.len().saturating_sub(1));
    let knee = steps.get(knee_at).map(|s| {
        JsonValue::object([
            ("conns".to_string(), JsonValue::from(s.conns)),
            ("p50_us".to_string(), JsonValue::from(s.p50_us)),
            ("p99_us".to_string(), JsonValue::from(s.p99_us)),
            (
                "throughput_rps".to_string(),
                JsonValue::from(s.throughput_rps),
            ),
            ("method".to_string(), JsonValue::from("max-distance/1")),
        ])
    });
    let mut fields = vec![
        ("schema".to_string(), JsonValue::from(SATURATION_SCHEMA)),
        ("generator".to_string(), JsonValue::from(generator)),
        (
            "sweep".to_string(),
            JsonValue::object([
                ("lo".to_string(), JsonValue::from(params.lo)),
                ("hi".to_string(), JsonValue::from(params.hi)),
                ("step".to_string(), JsonValue::from(params.step)),
                (
                    "requests_per_step".to_string(),
                    JsonValue::from(params.requests_per_step),
                ),
                ("rate_rps".to_string(), JsonValue::from(params.rate_rps)),
                ("mix".to_string(), JsonValue::from(params.mix)),
            ]),
        ),
        (
            "steps".to_string(),
            JsonValue::Array(steps.iter().map(SweepStep::to_json).collect()),
        ),
    ];
    if let Some(knee) = knee {
        fields.push(("knee".to_string(), knee));
    }
    JsonValue::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff_any, DiffConfig};
    use crate::doc::Kind;
    use crate::json::parse;

    fn step(conns: u64, p99: f64, rps: f64) -> SweepStep {
        SweepStep {
            conns,
            ok: 100,
            errors: 0,
            dropped: 0,
            throughput_rps: rps,
            p50_us: p99 / 4.0,
            p99_us: p99,
            cache_hit_rate: 0.9,
            inflight_mean: Some(conns as f64 * 0.8),
        }
    }

    /// A hockey-stick curve: flat latency until 16 conns, then a wall.
    fn hockey_stick() -> Vec<SweepStep> {
        vec![
            step(2, 400.0, 2000.0),
            step(4, 420.0, 3900.0),
            step(8, 460.0, 7500.0),
            step(16, 560.0, 14000.0),
            step(32, 4000.0, 15000.0),
            step(64, 16000.0, 15200.0),
        ]
    }

    fn doc(steps: &[SweepStep]) -> JsonValue {
        let params = SweepParams {
            lo: 2,
            hi: 64,
            step: 2,
            requests_per_step: 100,
            rate_rps: 0,
            mix: "mixed",
        };
        document("test-sweep", &params, steps)
    }

    #[test]
    fn knee_lands_on_the_elbow_of_a_hockey_stick() {
        let steps = hockey_stick();
        let d = doc(&steps);
        assert_eq!(Kind::Saturation.validate(&d), Ok(()));
        // Flat until 16 conns, wall after: the max-distance construction
        // picks 32 — the deepest point below the chord, where latency has
        // left the flat regime but the wall has not yet dominated.
        assert_eq!(
            d.at("knee.conns").and_then(JsonValue::as_f64),
            Some(32.0),
            "{}",
            d.to_json()
        );
        let curve: Vec<(f64, f64)> = steps.iter().map(|s| (s.conns as f64, s.p99_us)).collect();
        assert_eq!(knee_index(&curve), Some(4));
    }

    #[test]
    fn knee_is_deterministic_and_short_curves_degrade_gracefully() {
        let curve = [(1.0, 10.0), (2.0, 10.0), (4.0, 10.0)];
        // A perfectly flat curve still answers, and answers stably.
        assert_eq!(knee_index(&curve), knee_index(&curve));
        assert_eq!(knee_index(&[(1.0, 5.0), (2.0, 9.0)]), None);
        // A two-step document falls back to the last step as knee.
        let d = doc(&[step(2, 400.0, 2000.0), step(4, 800.0, 3000.0)]);
        assert_eq!(Kind::Saturation.validate(&d), Ok(()));
        assert_eq!(d.at("knee.conns").and_then(JsonValue::as_f64), Some(4.0));
    }

    #[test]
    fn validate_names_structural_failures() {
        let mut d = doc(&hockey_stick());
        if let JsonValue::Object(map) = &mut d {
            map.remove("knee");
        }
        assert!(Kind::Saturation.validate(&d).unwrap_err().contains("knee"));

        let unordered = parse(
            r#"{"schema":"rvhpc-saturation/1",
                "steps":[{"conns":8,"ok":1,"p50_us":1,"p99_us":2,"throughput_rps":1},
                         {"conns":4,"ok":1,"p50_us":1,"p99_us":2,"throughput_rps":1}],
                "knee":{"conns":8}}"#,
        )
        .unwrap();
        assert!(Kind::Saturation
            .validate(&unordered)
            .unwrap_err()
            .contains("not above"));

        let wrong_kind = parse(r#"{"schema":"rvhpc-metrics/1"}"#).unwrap();
        assert!(Kind::Saturation
            .validate(&wrong_kind)
            .unwrap_err()
            .contains("rvhpc-metrics/1"));
    }

    #[test]
    fn self_diff_is_clean_and_latency_wall_regresses() {
        let base = doc(&hockey_stick());
        let report = diff_any(&base, &base.clone(), &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(!report.has_mismatches(), "{}", report.render());

        // Same sweep, but the 16-conn step's tail latency blew up 10x.
        let mut worse = hockey_stick();
        worse[3].p99_us *= 10.0;
        let report = diff_any(&base, &doc(&worse), &DiffConfig::default());
        assert!(report.has_regressions(), "{}", report.render());
        assert!(
            report.render().contains("steps.conns_16"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_step_and_earlier_knee_regress() {
        let base = doc(&hockey_stick());
        // Drop the 64-conn step: lost coverage.
        let mut fewer = hockey_stick();
        fewer.pop();
        let report = diff_any(&base, &doc(&fewer), &DiffConfig::default());
        assert!(report.has_regressions(), "{}", report.render());
        assert!(
            report.render().contains("steps.conns_64"),
            "{}",
            report.render()
        );

        // The latency wall moved down to 8 connections: the knee lands
        // at 16 instead of 32, i.e. the service saturates earlier.
        let earlier = vec![
            step(2, 400.0, 2000.0),
            step(4, 460.0, 3900.0),
            step(8, 4000.0, 7000.0),
            step(16, 12000.0, 7200.0),
            step(32, 14000.0, 7200.0),
            step(64, 16000.0, 7100.0),
        ];
        let report = diff_any(&base, &doc(&earlier), &DiffConfig::default());
        let text = report.render();
        assert!(
            report
                .regressions()
                .any(|f| f.path == "knee.conns" && f.message.contains("earlier")),
            "{text}"
        );
    }

    #[test]
    fn cross_kind_and_invalid_input_are_mismatches() {
        let sat = doc(&hockey_stick());
        let metrics = parse(r#"{"schema":"rvhpc-metrics/1","loadgen":{"ok":1}}"#).unwrap();
        let report = diff_any(&sat, &metrics, &DiffConfig::default());
        assert!(report.has_mismatches());
        assert!(!report.has_regressions());

        let mut kneeless = sat.clone();
        if let JsonValue::Object(map) = &mut kneeless {
            map.remove("knee");
        }
        let report = diff_any(&sat, &kneeless, &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(
            report
                .mismatches()
                .any(|f| f.path == "current" && f.message.contains("knee.conns")),
            "{}",
            report.render()
        );
    }
}
