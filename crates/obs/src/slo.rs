//! The SLO health engine: declarative service-level rules evaluated
//! against `rvhpc-metrics/1` documents.
//!
//! A rules file (committed as `results/slo_rules.json`, schema
//! [`SLO_SCHEMA`]) declares what "healthy" means: p99 ceilings per QoS
//! class, cache-hit floors, shed/restart budgets, and burn-rate windows
//! over `timeseries` gauges. [`evaluate`] checks every rule against one
//! metrics document — live (fetched with `{"op":"metrics"}`) or saved —
//! and produces a [`HealthReport`] that renders a versioned
//! [`HEALTH_SCHEMA`] verdict.
//!
//! Severity is two-level, declared per rule via `on_breach`: a
//! `degraded` breach is a warning the verdict carries, a `failing`
//! breach makes the whole verdict failing (the `obshealth` binary exits
//! nonzero). A rule whose addressed section does not exist in the
//! document is a *mismatch* — the rule could not be evaluated at all,
//! which CI must distinguish from "evaluated and healthy" — unless the
//! rule is marked `"optional": true`, in which case it is skipped (the
//! committed rules file uses this for burn-rate rules, which only apply
//! to server documents carrying a `timeseries` section, not to loadgen
//! reports).
//!
//! Everything here is a pure function of (rules, document): no clocks,
//! no environment — the same inputs always render the same verdict.

use crate::json::JsonValue;

/// Schema tag of a rules file.
pub const SLO_SCHEMA: &str = "rvhpc-slo/1";

/// Schema tag of a rendered health verdict.
pub const HEALTH_SCHEMA: &str = "rvhpc-health/1";

/// What a breach of one rule does to the overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breach {
    /// The verdict degrades but the check still passes (exit 0).
    Degraded,
    /// The verdict fails (exit 1).
    Failing,
}

impl Breach {
    fn label(self) -> &'static str {
        match self {
            Breach::Degraded => "degraded",
            Breach::Failing => "failing",
        }
    }
}

/// What one rule checks.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// `classes.<class>.latency.p99_us`, found anywhere in the tree (the
    /// serve `qos` section and the loadgen report both qualify), must be
    /// ≤ `max_us`.
    ClassP99Ceiling {
        /// QoS class label (`interactive`, `batch`, `bulk`).
        class: String,
        /// p99 budget in microseconds.
        max_us: f64,
    },
    /// The numeric value at a dotted path must be ≤ `max` (shed and
    /// restart budgets: `server.worker_restarts`, `qos.classes.bulk.shed`).
    PathCeiling {
        /// Dotted path into the document.
        path: String,
        /// Inclusive upper bound.
        max: f64,
    },
    /// The numeric value at a dotted path must be ≥ `min`
    /// (`loadgen.cache_hit_rate`, throughput floors).
    PathFloor {
        /// Dotted path into the document.
        path: String,
        /// Inclusive lower bound.
        min: f64,
    },
    /// The document's cache hit rate must be ≥ `min`. Finds either a
    /// `cache` section with `hits`/`misses` counters (server documents)
    /// or a `cache_hit_rate` field (loadgen reports), whichever appears
    /// first. A cache with zero traffic is skipped, not breached.
    HitRateFloor {
        /// Inclusive lower bound on hits / (hits + misses).
        min: f64,
    },
    /// Over the last `window` samples of the `timeseries` section, the
    /// average per-sample increase of gauge `gauge` must be ≤
    /// `max_per_sample` — an error-budget burn rate (e.g. how fast
    /// `deadline_expired` or `rejected_admission` is climbing). Fewer
    /// than two samples in the window means no rate and the rule holds.
    BurnRate {
        /// Gauge name inside each sample's `gauges` object.
        gauge: String,
        /// How many trailing samples the window covers (≥ 2).
        window: usize,
        /// Inclusive bound on average increase per sample.
        max_per_sample: f64,
    },
}

impl RuleKind {
    /// Stable label used in rules files and verdicts.
    pub fn label(&self) -> &'static str {
        match self {
            RuleKind::ClassP99Ceiling { .. } => "class_p99_ceiling",
            RuleKind::PathCeiling { .. } => "path_ceiling",
            RuleKind::PathFloor { .. } => "path_floor",
            RuleKind::HitRateFloor { .. } => "hit_rate_floor",
            RuleKind::BurnRate { .. } => "burn_rate",
        }
    }
}

/// One declarative health rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Unique human-readable rule name (verdict key).
    pub name: String,
    /// What the rule checks.
    pub kind: RuleKind,
    /// Verdict impact of a breach.
    pub on_breach: Breach,
    /// When true, a missing section skips the rule instead of
    /// rendering a mismatch.
    pub optional: bool,
}

/// A parsed rules file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// Rules in file order.
    pub rules: Vec<Rule>,
}

fn get_str(rule: &JsonValue, key: &str) -> Result<String, String> {
    rule.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

fn get_num(rule: &JsonValue, key: &str) -> Result<f64, String> {
    rule.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("missing or non-numeric '{key}'"))
}

/// Parse a rules document. Strict: unknown kinds, malformed fields and
/// a wrong schema tag are errors (the `obshealth` binary maps them to
/// exit 2, the "rule mismatch" class).
pub fn parse_rules(doc: &JsonValue) -> Result<RuleSet, String> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SLO_SCHEMA => {}
        Some(s) => return Err(format!("rules schema is {s:?}, expected {SLO_SCHEMA:?}")),
        None => return Err("rules file has no schema tag".to_string()),
    }
    let Some(JsonValue::Array(rules)) = doc.get("rules") else {
        return Err("rules file has no 'rules' array".to_string());
    };
    if rules.is_empty() {
        return Err("rules array is empty".to_string());
    }
    let mut out = Vec::with_capacity(rules.len());
    for (i, rule) in rules.iter().enumerate() {
        let parsed = parse_rule(rule).map_err(|e| {
            let name = rule
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("<unnamed>");
            format!("rule {i} ({name}): {e}")
        })?;
        if out.iter().any(|r: &Rule| r.name == parsed.name) {
            return Err(format!("duplicate rule name {:?}", parsed.name));
        }
        out.push(parsed);
    }
    Ok(RuleSet { rules: out })
}

fn parse_rule(rule: &JsonValue) -> Result<Rule, String> {
    let name = get_str(rule, "name")?;
    let kind = match get_str(rule, "kind")?.as_str() {
        "class_p99_ceiling" => RuleKind::ClassP99Ceiling {
            class: get_str(rule, "class")?,
            max_us: get_num(rule, "max_us")?,
        },
        "path_ceiling" => RuleKind::PathCeiling {
            path: get_str(rule, "path")?,
            max: get_num(rule, "max")?,
        },
        "path_floor" => RuleKind::PathFloor {
            path: get_str(rule, "path")?,
            min: get_num(rule, "min")?,
        },
        "hit_rate_floor" => RuleKind::HitRateFloor {
            min: get_num(rule, "min")?,
        },
        "burn_rate" => {
            let window = get_num(rule, "window")?;
            if window < 2.0 || window != window.trunc() {
                return Err("'window' must be an integer >= 2".to_string());
            }
            RuleKind::BurnRate {
                gauge: get_str(rule, "gauge")?,
                window: window as usize,
                max_per_sample: get_num(rule, "max_per_sample")?,
            }
        }
        other => return Err(format!("unknown rule kind {other:?}")),
    };
    let on_breach = match rule.get("on_breach").and_then(JsonValue::as_str) {
        None | Some("failing") => Breach::Failing,
        Some("degraded") => Breach::Degraded,
        Some(other) => return Err(format!("unknown on_breach {other:?}")),
    };
    let optional = match rule.get("optional") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => return Err("'optional' must be a boolean".to_string()),
    };
    Ok(Rule {
        name,
        kind,
        on_breach,
        optional,
    })
}

/// How one rule evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// Evaluated and within bounds.
    Ok,
    /// Evaluated and out of bounds.
    Breached,
    /// The addressed section is absent and the rule is optional.
    Skipped,
    /// The addressed section is absent (or malformed) and the rule is
    /// required: the document cannot answer this rule.
    Mismatch,
}

impl RuleStatus {
    fn label(self) -> &'static str {
        match self {
            RuleStatus::Ok => "ok",
            RuleStatus::Breached => "breach",
            RuleStatus::Skipped => "skipped",
            RuleStatus::Mismatch => "mismatch",
        }
    }
}

/// One rule's verdict.
#[derive(Debug, Clone)]
pub struct RuleOutcome {
    /// The rule's name.
    pub name: String,
    /// The rule's kind label.
    pub kind: &'static str,
    /// How it evaluated.
    pub status: RuleStatus,
    /// The observed value, when one was computed.
    pub value: Option<f64>,
    /// The rule's bound.
    pub limit: f64,
    /// Verdict impact on breach.
    pub on_breach: Breach,
    /// Human-readable evaluation detail.
    pub detail: String,
}

/// Every rule's outcome plus the overall verdict.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Outcomes in rule order.
    pub outcomes: Vec<RuleOutcome>,
}

impl HealthReport {
    /// The overall verdict: `failing` when any failing-severity rule is
    /// breached, else `degraded` when any rule is breached, else `ok`.
    pub fn status(&self) -> &'static str {
        let breached = |b: Breach| {
            self.outcomes
                .iter()
                .any(|o| o.status == RuleStatus::Breached && o.on_breach == b)
        };
        if breached(Breach::Failing) {
            "failing"
        } else if breached(Breach::Degraded) {
            "degraded"
        } else {
            "ok"
        }
    }

    /// True when the verdict fails CI (exit 1).
    pub fn is_failing(&self) -> bool {
        self.status() == "failing"
    }

    /// True when at least one required rule could not be evaluated
    /// (exit 2).
    pub fn has_mismatches(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| o.status == RuleStatus::Mismatch)
    }

    /// The process exit code the verdict maps to: 2 when a required rule
    /// could not be evaluated, else 1 when failing, else 0 (ok or
    /// degraded).
    pub fn exit_code(&self) -> i32 {
        if self.has_mismatches() {
            2
        } else if self.is_failing() {
            1
        } else {
            0
        }
    }

    fn count(&self, status: RuleStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// The versioned health verdict document.
    pub fn to_json(&self) -> JsonValue {
        let rules: Vec<JsonValue> = self
            .outcomes
            .iter()
            .map(|o| {
                let mut fields = vec![
                    ("name".to_string(), JsonValue::from(o.name.as_str())),
                    ("kind".to_string(), JsonValue::from(o.kind)),
                    ("status".to_string(), JsonValue::from(o.status.label())),
                    ("limit".to_string(), JsonValue::from(o.limit)),
                    (
                        "on_breach".to_string(),
                        JsonValue::from(o.on_breach.label()),
                    ),
                    ("detail".to_string(), JsonValue::from(o.detail.as_str())),
                ];
                if let Some(v) = o.value {
                    fields.push(("value".to_string(), JsonValue::from(v)));
                }
                JsonValue::object(fields)
            })
            .collect();
        JsonValue::object([
            ("schema".to_string(), JsonValue::from(HEALTH_SCHEMA)),
            ("status".to_string(), JsonValue::from(self.status())),
            (
                "evaluated".to_string(),
                JsonValue::from(self.outcomes.len()),
            ),
            (
                "breaches".to_string(),
                JsonValue::from(self.count(RuleStatus::Breached)),
            ),
            (
                "mismatches".to_string(),
                JsonValue::from(self.count(RuleStatus::Mismatch)),
            ),
            (
                "skipped".to_string(),
                JsonValue::from(self.count(RuleStatus::Skipped)),
            ),
            ("rules".to_string(), JsonValue::Array(rules)),
        ])
    }

    /// Human-readable verdict, one line per rule (obsdiff style).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mismatches = self.count(RuleStatus::Mismatch);
        let breaches = self.count(RuleStatus::Breached);
        if mismatches > 0 {
            out.push_str(&format!(
                "obs-health: MISMATCH — {mismatches} unevaluable rule(s)\n"
            ));
        }
        if breaches > 0 {
            out.push_str(&format!(
                "obs-health: {} — {breaches} breached rule(s)\n",
                self.status().to_uppercase()
            ));
        } else if mismatches == 0 {
            out.push_str(&format!(
                "obs-health: OK — {} rule(s) hold\n",
                self.outcomes.len()
            ));
        }
        for o in &self.outcomes {
            let tag = match o.status {
                RuleStatus::Ok => "ok",
                RuleStatus::Breached => "BREACH",
                RuleStatus::Skipped => "skipped",
                RuleStatus::Mismatch => "MISMATCH",
            };
            out.push_str(&format!("  {tag} {} [{}]: {}\n", o.name, o.kind, o.detail));
        }
        out
    }
}

/// Numeric value at a dotted path.
fn path_value(doc: &JsonValue, path: &str) -> Option<f64> {
    doc.at(path)?.as_f64().filter(|n| n.is_finite())
}

/// The first `classes.<class>.latency.p99_us` anywhere in `doc`
/// (depth-first, document order).
fn find_class_p99(doc: &JsonValue, class: &str) -> Option<f64> {
    let JsonValue::Object(map) = doc else {
        return None;
    };
    doc.at(&format!("classes.{class}.latency.p99_us"))
        .and_then(JsonValue::as_f64)
        .or_else(|| map.values().find_map(|v| find_class_p99(v, class)))
}

/// First cache hit rate in the tree: a `cache` object with
/// `hits`/`misses` counters, else a `cache_hit_rate` field. Returns
/// `Some(None)` when a cache exists but saw no traffic.
fn find_hit_rate(doc: &JsonValue) -> Option<Option<f64>> {
    let JsonValue::Object(map) = doc else {
        return None;
    };
    if let Some(cache) = map.get("cache") {
        if let (Some(hits), Some(misses)) = (
            cache.get("hits").and_then(JsonValue::as_f64),
            cache.get("misses").and_then(JsonValue::as_f64),
        ) {
            let total = hits + misses;
            return Some((total > 0.0).then(|| hits / total));
        }
    }
    if let Some(rate) = map.get("cache_hit_rate").and_then(JsonValue::as_f64) {
        return Some(Some(rate));
    }
    map.values().find_map(find_hit_rate)
}

/// Gauge values of the trailing `window` samples of the document's
/// `timeseries` section. `None` when there is no timeseries at all;
/// `Some(values)` may hold fewer than `window` entries, and an entry is
/// absent from the vec when that sample lacks the gauge.
fn trailing_gauges(doc: &JsonValue, gauge: &str, window: usize) -> Option<Vec<f64>> {
    let samples = doc.at("timeseries.samples")?.as_array()?;
    let start = samples.len().saturating_sub(window);
    Some(
        samples[start..]
            .iter()
            .filter_map(|s| {
                s.get("gauges")
                    .and_then(|g| g.get(gauge))
                    .and_then(JsonValue::as_f64)
            })
            .collect(),
    )
}

fn outcome(
    rule: &Rule,
    status: RuleStatus,
    value: Option<f64>,
    limit: f64,
    detail: String,
) -> RuleOutcome {
    RuleOutcome {
        name: rule.name.clone(),
        kind: rule.kind.label(),
        status,
        value,
        limit,
        on_breach: rule.on_breach,
        detail,
    }
}

fn missing(rule: &Rule, limit: f64, what: String) -> RuleOutcome {
    if rule.optional {
        outcome(
            rule,
            RuleStatus::Skipped,
            None,
            limit,
            format!("{what} (optional rule skipped)"),
        )
    } else {
        outcome(rule, RuleStatus::Mismatch, None, limit, what)
    }
}

fn bounded(rule: &Rule, value: f64, limit: f64, breach: bool, detail: String) -> RuleOutcome {
    let status = if breach {
        RuleStatus::Breached
    } else {
        RuleStatus::Ok
    };
    outcome(rule, status, Some(value), limit, detail)
}

/// Evaluate every rule against one metrics document.
pub fn evaluate(rules: &RuleSet, doc: &JsonValue) -> HealthReport {
    let outcomes = rules
        .rules
        .iter()
        .map(|rule| match &rule.kind {
            RuleKind::ClassP99Ceiling { class, max_us } => match find_class_p99(doc, class) {
                None => missing(
                    rule,
                    *max_us,
                    format!("document has no classes.{class}.latency section"),
                ),
                Some(p99) => bounded(
                    rule,
                    p99,
                    *max_us,
                    p99 > *max_us,
                    format!("class {class} p99 {p99} us vs ceiling {max_us} us"),
                ),
            },
            RuleKind::PathCeiling { path, max } => match path_value(doc, path) {
                None => missing(rule, *max, format!("no numeric value at {path}")),
                Some(v) => bounded(
                    rule,
                    v,
                    *max,
                    v > *max,
                    format!("{path} = {v} vs ceiling {max}"),
                ),
            },
            RuleKind::PathFloor { path, min } => match path_value(doc, path) {
                None => missing(rule, *min, format!("no numeric value at {path}")),
                Some(v) => bounded(
                    rule,
                    v,
                    *min,
                    v < *min,
                    format!("{path} = {v} vs floor {min}"),
                ),
            },
            RuleKind::HitRateFloor { min } => match find_hit_rate(doc) {
                None => missing(rule, *min, "document has no cache section".to_string()),
                Some(None) => outcome(
                    rule,
                    RuleStatus::Skipped,
                    None,
                    *min,
                    "cache saw no traffic".to_string(),
                ),
                Some(Some(rate)) => bounded(
                    rule,
                    rate,
                    *min,
                    rate < *min,
                    format!("cache hit rate {rate:.4} vs floor {min}"),
                ),
            },
            RuleKind::BurnRate {
                gauge,
                window,
                max_per_sample,
            } => match trailing_gauges(doc, gauge, *window) {
                None => missing(
                    rule,
                    *max_per_sample,
                    "document has no timeseries section".to_string(),
                ),
                Some(values) if values.is_empty() => missing(
                    rule,
                    *max_per_sample,
                    format!("timeseries samples carry no gauge {gauge:?}"),
                ),
                Some(values) if values.len() < 2 => bounded(
                    rule,
                    0.0,
                    *max_per_sample,
                    false,
                    format!("gauge {gauge}: {} sample(s), no rate yet", values.len()),
                ),
                Some(values) => {
                    let rate = (values[values.len() - 1] - values[0]) / (values.len() - 1) as f64;
                    bounded(
                        rule,
                        rate,
                        *max_per_sample,
                        rate > *max_per_sample,
                        format!(
                            "gauge {gauge} burned {rate:.4}/sample over {} samples vs budget {max_per_sample}",
                            values.len()
                        ),
                    )
                }
            },
        })
        .collect();
    HealthReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn rules(body: &str) -> RuleSet {
        let doc = parse(&format!(r#"{{"schema":"rvhpc-slo/1","rules":[{body}]}}"#))
            .expect("rules parse as JSON");
        parse_rules(&doc).expect("rules validate")
    }

    fn server_doc(p99: u64, restarts: u64, expired: &[u64]) -> JsonValue {
        let samples: Vec<String> = expired
            .iter()
            .enumerate()
            .map(|(i, v)| {
                format!(
                    r#"{{"t_us":{t},"gauges":{{"deadline_expired":{v},"conns_active":2}}}}"#,
                    t = i * 1000
                )
            })
            .collect();
        parse(&format!(
            r#"{{"schema":"rvhpc-metrics/1","generator":"rvhpc-serve",
                "server":{{"worker_restarts":{restarts},
                           "cache":{{"hits":90,"misses":10}}}},
                "qos":{{"classes":{{"interactive":{{"requests":10,"ok":10,"shed":0,
                    "latency":{{"count":10,"mean_us":100,"min_us":10,"max_us":{max},
                                "p50_us":80,"p99_us":{p99}}}}}}}}},
                "timeseries":{{"layout":"gauge-ring/1","interval_us":1000,
                               "capacity":8,"evicted":0,
                               "samples":[{samples}]}}}}"#,
            max = p99 * 2,
            samples = samples.join(",")
        ))
        .expect("server doc parses")
    }

    #[test]
    fn healthy_document_renders_ok_and_versioned_verdict() {
        let rs = rules(
            r#"{"name":"i-p99","kind":"class_p99_ceiling","class":"interactive","max_us":5000},
               {"name":"restarts","kind":"path_ceiling","path":"server.worker_restarts","max":0},
               {"name":"hits","kind":"hit_rate_floor","min":0.5},
               {"name":"burn","kind":"burn_rate","gauge":"deadline_expired",
                "window":4,"max_per_sample":0.5,"on_breach":"degraded"}"#,
        );
        let report = evaluate(&rs, &server_doc(2000, 0, &[0, 0, 1, 1]));
        assert_eq!(report.status(), "ok", "{}", report.render());
        assert!(!report.has_mismatches(), "{}", report.render());
        let verdict = report.to_json();
        assert_eq!(
            verdict.get("schema").and_then(JsonValue::as_str),
            Some(HEALTH_SCHEMA)
        );
        assert_eq!(
            verdict.get("evaluated").and_then(JsonValue::as_f64),
            Some(4.0)
        );
        assert!(report.render().contains("obs-health: OK"));
    }

    #[test]
    fn breaches_split_failing_from_degraded() {
        let rs = rules(
            r#"{"name":"i-p99","kind":"class_p99_ceiling","class":"interactive","max_us":1000},
               {"name":"burn","kind":"burn_rate","gauge":"deadline_expired",
                "window":4,"max_per_sample":0.1,"on_breach":"degraded"}"#,
        );
        // p99 busts the failing rule: verdict fails.
        let report = evaluate(&rs, &server_doc(2000, 0, &[0, 0]));
        assert!(report.is_failing(), "{}", report.render());
        assert!(
            report.render().contains("BREACH i-p99"),
            "{}",
            report.render()
        );

        // Only the degraded burn-rate rule busts: degraded, not failing.
        let report = evaluate(&rs, &server_doc(500, 0, &[0, 1, 2, 3]));
        assert_eq!(report.status(), "degraded", "{}", report.render());
        assert!(!report.is_failing());
    }

    /// The class search finds a loadgen report's `loadgen.classes` as
    /// readily as a server's `qos.classes`; a class the document never
    /// saw is a mismatch, not a pass.
    #[test]
    fn class_ceilings_find_the_class_anywhere() {
        let loadgen = parse(
            r#"{"schema":"rvhpc-metrics/1","generator":"rvhpc-loadgen",
                "loadgen":{"ok":20,"errors":0,"dropped":0,
                "classes":{"bulk":{"sent":10,"ok":10,
                    "latency":{"count":10,"mean_us":25000,"min_us":10,
                               "max_us":99000,"p50_us":25000,"p99_us":50000}}}}}"#,
        )
        .unwrap();
        let report = evaluate(
            &rules(r#"{"name":"b","kind":"class_p99_ceiling","class":"bulk","max_us":5000}"#),
            &loadgen,
        );
        assert!(report.is_failing(), "{}", report.render());
        assert_eq!(report.outcomes[0].value, Some(50000.0));
        assert_eq!(report.exit_code(), 1);

        let report = evaluate(
            &rules(
                r#"{"name":"i","kind":"class_p99_ceiling","class":"interactive","max_us":5000}"#,
            ),
            &loadgen,
        );
        assert!(report.has_mismatches(), "{}", report.render());
        assert_eq!(report.exit_code(), 2);
    }

    #[test]
    fn burn_rate_is_average_over_the_window() {
        let rs = rules(
            r#"{"name":"burn","kind":"burn_rate","gauge":"deadline_expired",
                "window":3,"max_per_sample":1.0}"#,
        );
        // Gauge history 0,0,10,12: window of 3 sees 0,10,12 → (12-0)/2 = 6.
        let report = evaluate(&rs, &server_doc(100, 0, &[0, 0, 10, 12]));
        assert!(report.is_failing(), "{}", report.render());
        assert_eq!(report.outcomes[0].value, Some(6.0));
        // One sample: no rate, rule holds.
        let report = evaluate(&rs, &server_doc(100, 0, &[7]));
        assert_eq!(report.status(), "ok", "{}", report.render());
    }

    #[test]
    fn missing_sections_are_mismatches_unless_optional() {
        let loadgen = parse(
            r#"{"schema":"rvhpc-metrics/1","generator":"rvhpc-loadgen",
                "loadgen":{"ok":10,"errors":0,"dropped":0,"cache_hit_rate":0.9}}"#,
        )
        .unwrap();
        let required = rules(
            r#"{"name":"burn","kind":"burn_rate","gauge":"deadline_expired",
                "window":4,"max_per_sample":0.5}"#,
        );
        let report = evaluate(&required, &loadgen);
        assert!(report.has_mismatches(), "{}", report.render());
        assert_eq!(report.status(), "ok", "mismatch is not a breach");

        let optional = rules(
            r#"{"name":"burn","kind":"burn_rate","gauge":"deadline_expired",
                "window":4,"max_per_sample":0.5,"optional":true}"#,
        );
        let report = evaluate(&optional, &loadgen);
        assert!(!report.has_mismatches(), "{}", report.render());
        assert!(
            report.render().contains("skipped burn"),
            "{}",
            report.render()
        );

        // The loadgen doc's flat cache_hit_rate field satisfies the
        // hit-rate rule without a cache section.
        let hits = rules(r#"{"name":"hits","kind":"hit_rate_floor","min":0.5}"#);
        let report = evaluate(&hits, &loadgen);
        assert_eq!(report.status(), "ok", "{}", report.render());
        assert_eq!(report.outcomes[0].value, Some(0.9));
    }

    #[test]
    fn malformed_rules_files_are_rejected_with_context() {
        let bad = |body: &str| {
            let doc = parse(body).expect("test JSON");
            parse_rules(&doc).unwrap_err()
        };
        assert!(bad(r#"{"rules":[]}"#).contains("schema"));
        assert!(bad(r#"{"schema":"rvhpc-slo/2","rules":[]}"#).contains("rvhpc-slo/2"));
        assert!(bad(r#"{"schema":"rvhpc-slo/1","rules":[]}"#).contains("empty"));
        let e = bad(r#"{"schema":"rvhpc-slo/1",
                "rules":[{"name":"x","kind":"p99_wibble"}]}"#);
        assert!(e.contains("p99_wibble") && e.contains("(x)"), "{e}");
        let e = bad(r#"{"schema":"rvhpc-slo/1",
                "rules":[{"name":"b","kind":"burn_rate","gauge":"g",
                          "window":1,"max_per_sample":1}]}"#);
        assert!(e.contains("window"), "{e}");
        let e = bad(r#"{"schema":"rvhpc-slo/1",
                "rules":[{"name":"a","kind":"hit_rate_floor","min":0.5},
                         {"name":"a","kind":"hit_rate_floor","min":0.6}]}"#);
        assert!(e.contains("duplicate"), "{e}");
    }
}
