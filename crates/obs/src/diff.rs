//! Regression diffing of two versioned rvhpc documents.
//!
//! Two document kinds share one machinery, dispatched on the `schema`
//! tag by [`diff_any`]:
//!
//! * `rvhpc-metrics/1` — serve/loadgen metrics ([`diff_documents`]).
//! * `rvhpc-bench/1` — benchmark-trajectory documents
//!   ([`diff_bench_documents`]): per-target wall-time quantiles under
//!   the same ratio + floor rules, plus target-presence accounting
//!   (a target present in the baseline but missing from the current
//!   document is a regression — lost coverage must not pass silently;
//!   new targets are informational unless `strict`).
//!
//! Latency sections carry a layout tag (`bucket_layout` on histogram
//! and exact-stats sections, `layout` on timeseries rings). When the
//! tags disagree the quantiles are not comparable, and the diff refuses
//! with a [`Severity::Mismatch`] finding instead of silently comparing
//! — binaries map mismatches to exit code 2, distinct from a genuine
//! regression's 1.
//!
//! [`diff_documents`] walks a baseline and a current metrics document in
//! lockstep and produces a [`DiffReport`]: every numeric change is
//! reported, and a change becomes a *regression* when it crosses a
//! configurable threshold. The rules mirror how the paper compares
//! compiler/config generations (GCC 12 vs 15, SG2042 vs SG2044):
//!
//! * **Quantiles** — keys like `p50_us`/`p99_us`/`mean_us` fail when the
//!   current value exceeds `baseline × max_quantile_ratio` and also the
//!   absolute `floor_us` (so a 3 µs → 9 µs wiggle on an idle box never
//!   gates a build).
//! * **Counter invariants** — self-consistency of the *current* document,
//!   machine-independent: `dropped` and `errors` counters must be zero,
//!   and every latency section's quantile ladder must be monotone
//!   (`p50 ≤ p99 ≤ max`, and all-zero when `count` is zero).
//! * **Schema** — both documents must carry the same `schema` tag.
//! * **Shape** — keys present on one side only are informational, or
//!   regressions under `strict`.
//!
//! The report renders human-readable (one line per finding) and the
//! `obsdiff` binary maps it onto exit codes for CI gating.

use crate::json::JsonValue;

/// Thresholds for [`diff_documents`].
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// A quantile regresses when `current > baseline * this` (and above
    /// `floor_us`). CI uses a generous 2.0.
    pub max_quantile_ratio: f64,
    /// Quantile changes below this absolute value never regress —
    /// absorbs scheduler noise on near-idle latencies.
    pub floor_us: f64,
    /// When set, keys present on one side only are regressions.
    pub strict: bool,
    /// Per-class latency SLOs, `(class label, p99 budget in µs)`. Each
    /// entry requires the *current* document to carry a
    /// `classes.<class>.latency` section (anywhere in the tree — the
    /// serve `qos` section and the loadgen report both qualify) whose
    /// `p99_us` is at or under the budget. A missing class is a
    /// [`Severity::Mismatch`] (the gated run produced no such traffic);
    /// a busted budget is a [`Severity::Regression`]. Absolute checks
    /// on the current document, independent of the baseline.
    pub class_slos: Vec<(String, f64)>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            max_quantile_ratio: 2.0,
            floor_us: 200.0,
            strict: false,
            class_slos: Vec::new(),
        }
    }
}

/// How serious one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A change worth seeing, but within thresholds.
    Info,
    /// A threshold or invariant violation; the diff fails.
    Regression,
    /// The documents (or sections of them) are not comparable at all:
    /// different schema kinds, or latency sections with different
    /// layout versions. Distinct from [`Severity::Regression`] so CI
    /// can tell "slower" (exit 1) from "wrong input" (exit 2).
    Mismatch,
}

/// One comparison outcome.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Dotted path into the document (`loadgen.latency.p99_us`).
    pub path: String,
    /// Human-readable description of what changed or broke.
    pub message: String,
    /// Whether this finding fails the diff.
    pub severity: Severity,
}

/// Everything [`diff_documents`] found.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All findings, document order.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    pub(crate) fn push(&mut self, path: &str, severity: Severity, message: String) {
        self.findings.push(Finding {
            path: path.to_string(),
            message,
            severity,
        });
    }

    /// The regressions only.
    pub fn regressions(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Regression)
    }

    /// The mismatches only (incomparable documents or sections).
    pub fn mismatches(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Mismatch)
    }

    /// Whether any finding fails the diff.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Whether the documents could not be (fully) compared.
    pub fn has_mismatches(&self) -> bool {
        self.mismatches().next().is_some()
    }

    /// Render the report: mismatches, then regressions, then info —
    /// one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mismatches: Vec<&Finding> = self.mismatches().collect();
        let regressions: Vec<&Finding> = self.regressions().collect();
        if !mismatches.is_empty() {
            out.push_str(&format!(
                "obs-diff: MISMATCH — {} incomparable section(s)\n",
                mismatches.len()
            ));
            for f in &mismatches {
                out.push_str(&format!("  MISMATCH {}: {}\n", f.path, f.message));
            }
        }
        if regressions.is_empty() {
            if mismatches.is_empty() {
                out.push_str("obs-diff: OK — no regressions\n");
            }
        } else {
            out.push_str(&format!(
                "obs-diff: FAIL — {} regression(s)\n",
                regressions.len()
            ));
            for f in &regressions {
                out.push_str(&format!("  REGRESSION {}: {}\n", f.path, f.message));
            }
        }
        for f in &self.findings {
            if f.severity == Severity::Info {
                out.push_str(&format!("  info {}: {}\n", f.path, f.message));
            }
        }
        out
    }
}

/// The `schema` tag of a document, when present.
pub fn doc_kind(doc: &JsonValue) -> Option<&str> {
    doc.get("schema").and_then(JsonValue::as_str)
}

/// Check a document's `schema` tag against the one its kind requires.
pub(crate) fn expect_schema(doc: &JsonValue, schema: &str) -> Result<(), String> {
    match doc_kind(doc) {
        Some(s) if s == schema => Ok(()),
        Some(s) => Err(format!("schema is {s:?}, expected {schema:?}")),
        None => Err("missing schema tag".to_string()),
    }
}

/// Is this key a latency quantile/mean the ratio rule applies to?
fn is_quantile_key(key: &str) -> bool {
    key == "mean_us" || (key.starts_with('p') && key.ends_with("_us"))
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Compare two documents of any known kind, dispatching on the
/// `schema` tag. Unknown or differing kinds produce a
/// [`Severity::Mismatch`] report without attempting a comparison.
pub fn diff_any(baseline: &JsonValue, current: &JsonValue, cfg: &DiffConfig) -> DiffReport {
    let (bk, ck) = (doc_kind(baseline), doc_kind(current));
    if bk != ck {
        let mut report = DiffReport::default();
        report.push(
            "schema",
            Severity::Mismatch,
            format!("document kinds differ: baseline {bk:?} vs current {ck:?}"),
        );
        return report;
    }
    match bk {
        Some(crate::metrics::METRICS_SCHEMA) => diff_documents(baseline, current, cfg),
        Some(crate::benchdoc::BENCH_SCHEMA) => diff_bench_documents(baseline, current, cfg),
        Some(crate::saturation::SATURATION_SCHEMA) => {
            crate::saturation::diff_saturation_documents(baseline, current, cfg)
        }
        other => {
            let mut report = DiffReport::default();
            report.push(
                "schema",
                Severity::Mismatch,
                format!("unknown document kind {other:?}"),
            );
            report
        }
    }
}

/// Compare two `rvhpc-bench/1` benchmark documents: target presence,
/// then per-target wall quantiles under the ratio + floor rules.
pub fn diff_bench_documents(
    baseline: &JsonValue,
    current: &JsonValue,
    cfg: &DiffConfig,
) -> DiffReport {
    let mut report = DiffReport::default();
    let (bm, cm) = (
        baseline.get("mode").and_then(JsonValue::as_str),
        current.get("mode").and_then(JsonValue::as_str),
    );
    if bm != cm {
        report.push(
            "mode",
            Severity::Info,
            format!("run modes differ: baseline {bm:?} vs current {cm:?}"),
        );
    }
    fn targets(doc: &JsonValue) -> Option<Vec<(String, &JsonValue)>> {
        let JsonValue::Object(map) = doc.get("targets")? else {
            return None;
        };
        Some(
            map.iter()
                .map(|(name, target)| (format!("targets.{name}"), target))
                .collect(),
        )
    }
    let (Some(base_targets), Some(cur_targets)) = (targets(baseline), targets(current)) else {
        report.push(
            "targets",
            Severity::Mismatch,
            "one or both documents have no targets section".to_string(),
        );
        return report;
    };
    diff_keyed(&base_targets, &cur_targets, "target", cfg, &mut report);
    invariants(current, "", &mut report);
    report
}

/// Pair the children of two documents by dotted path — bench targets by
/// name, sweep steps by connection count. A child on both sides is
/// walked; one the baseline has and the current lacks is lost coverage,
/// not noise, and reported as a regression so a filtered or truncated
/// run can never pass a gate against a full baseline; one only the
/// current has is informational unless `cfg.strict`. `noun` names the
/// child kind in the messages.
pub(crate) fn diff_keyed(
    base: &[(String, &JsonValue)],
    cur: &[(String, &JsonValue)],
    noun: &str,
    cfg: &DiffConfig,
    report: &mut DiffReport,
) {
    for (path, base_child) in base {
        match cur.iter().find(|(p, _)| p == path) {
            Some((_, cur_child)) => walk(base_child, cur_child, path, cfg, report),
            None => report.push(
                path,
                Severity::Regression,
                format!("{noun} present in baseline, missing in current"),
            ),
        }
    }
    for (path, _) in cur {
        if !base.iter().any(|(p, _)| p == path) {
            report.push(
                path,
                if cfg.strict {
                    Severity::Regression
                } else {
                    Severity::Info
                },
                format!("new {noun}, absent from baseline"),
            );
        }
    }
}

/// Compare two metrics documents under `cfg`.
pub fn diff_documents(baseline: &JsonValue, current: &JsonValue, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    let schema = |doc: &JsonValue| {
        doc.get("schema")
            .and_then(JsonValue::as_str)
            .map(String::from)
    };
    let (bs, cs) = (schema(baseline), schema(current));
    if bs != cs {
        report.push(
            "schema",
            Severity::Regression,
            format!("schema mismatch: baseline {bs:?} vs current {cs:?}"),
        );
    }
    walk(baseline, current, "", cfg, &mut report);
    invariants(current, "", &mut report);
    class_slo_checks(current, cfg, &mut report);
    report
}

/// Find the first `classes.<class>.latency.p99_us` anywhere in `doc`
/// (depth-first, document order); returns its dotted path and value.
pub(crate) fn find_class_p99(doc: &JsonValue, path: &str, class: &str) -> Option<(String, f64)> {
    let JsonValue::Object(map) = doc else {
        return None;
    };
    if let Some(p99) = map
        .get("classes")
        .and_then(|c| c.get(class))
        .and_then(|c| c.get("latency"))
        .and_then(|l| l.get("p99_us"))
        .and_then(JsonValue::as_f64)
    {
        let p = join(path, "classes");
        return Some((format!("{p}.{class}.latency.p99_us"), p99));
    }
    map.iter()
        .find_map(|(key, v)| find_class_p99(v, &join(path, key), class))
}

/// Enforce [`DiffConfig::class_slos`] against the current document.
fn class_slo_checks(current: &JsonValue, cfg: &DiffConfig, report: &mut DiffReport) {
    for (class, budget_us) in &cfg.class_slos {
        match find_class_p99(current, "", class) {
            None => report.push(
                &format!("classes.{class}"),
                Severity::Mismatch,
                format!(
                    "class SLO configured but the current document has no \
                     classes.{class}.latency section"
                ),
            ),
            Some((path, p99)) => {
                let (severity, verdict) = if p99 > *budget_us {
                    (Severity::Regression, "violated")
                } else {
                    (Severity::Info, "met")
                };
                report.push(
                    &path,
                    severity,
                    format!("class SLO {verdict}: p99 {p99} us vs budget {budget_us} us"),
                );
            }
        }
    }
}

pub(crate) fn walk(
    base: &JsonValue,
    cur: &JsonValue,
    path: &str,
    cfg: &DiffConfig,
    report: &mut DiffReport,
) {
    match (base, cur) {
        (JsonValue::Object(b), JsonValue::Object(c)) => {
            // Layout guard: a latency or timeseries section whose layout
            // tag changed is not comparable — bucket bounds (and so
            // quantiles) mean different things. Refuse the whole
            // section rather than silently comparing.
            for tag in ["bucket_layout", "layout"] {
                let (bl, cl) = (
                    b.get(tag).and_then(JsonValue::as_str),
                    c.get(tag).and_then(JsonValue::as_str),
                );
                if let (Some(bl), Some(cl)) = (bl, cl) {
                    if bl != cl {
                        report.push(
                            &join(path, tag),
                            Severity::Mismatch,
                            format!(
                                "layout {bl:?} vs {cl:?}: refusing quantile comparison \
                                 for this section"
                            ),
                        );
                        return;
                    }
                }
            }
            for (key, bv) in b {
                match c.get(key) {
                    Some(cv) => walk(bv, cv, &join(path, key), cfg, report),
                    None => report.push(
                        &join(path, key),
                        if cfg.strict {
                            Severity::Regression
                        } else {
                            Severity::Info
                        },
                        "present in baseline, missing in current".to_string(),
                    ),
                }
            }
            for key in c.keys() {
                if !b.contains_key(key) {
                    report.push(
                        &join(path, key),
                        if cfg.strict {
                            Severity::Regression
                        } else {
                            Severity::Info
                        },
                        "new in current, absent from baseline".to_string(),
                    );
                }
            }
        }
        (JsonValue::Number(b), JsonValue::Number(c)) => {
            if b == c {
                return;
            }
            let key = path.rsplit('.').next().unwrap_or(path);
            if is_quantile_key(key) {
                let regressed = *c > *b * cfg.max_quantile_ratio && *c > cfg.floor_us;
                let ratio = if *b > 0.0 { *c / *b } else { f64::INFINITY };
                report.push(
                    path,
                    if regressed {
                        Severity::Regression
                    } else {
                        Severity::Info
                    },
                    format!(
                        "{b} -> {c} ({ratio:.2}x, threshold {:.2}x above {} us)",
                        cfg.max_quantile_ratio, cfg.floor_us
                    ),
                );
            } else {
                report.push(path, Severity::Info, format!("{b} -> {c}"));
            }
        }
        (b, c) if b == c => {}
        (b, c) => report.push(
            path,
            if cfg.strict {
                Severity::Regression
            } else {
                Severity::Info
            },
            format!("type/value changed: {} -> {}", b.to_json(), c.to_json()),
        ),
    }
}

/// Self-consistency checks on the current document.
pub(crate) fn invariants(doc: &JsonValue, path: &str, report: &mut DiffReport) {
    let JsonValue::Object(map) = doc else { return };

    // Zero-tolerance counters: transport drops and unanswered errors.
    for key in ["dropped", "errors"] {
        if let Some(v) = map.get(key).and_then(JsonValue::as_f64) {
            if v > 0.0 {
                report.push(
                    &join(path, key),
                    Severity::Regression,
                    format!("counter invariant violated: {key} = {v} (must be 0)"),
                );
            }
        }
    }

    // Latency sections: the quantile ladder must be monotone, and an
    // empty histogram must report all zeros.
    if let (Some(count), Some(p50), Some(p99), Some(max)) = (
        map.get("count").and_then(JsonValue::as_f64),
        map.get("p50_us").and_then(JsonValue::as_f64),
        map.get("p99_us").and_then(JsonValue::as_f64),
        map.get("max_us").and_then(JsonValue::as_f64),
    ) {
        if count == 0.0 && (p50 != 0.0 || p99 != 0.0 || max != 0.0) {
            report.push(
                path,
                Severity::Regression,
                format!(
                    "empty histogram reports nonzero quantiles (p50={p50}, p99={p99}, max={max})"
                ),
            );
        }
        if p50 > p99 || p99 > max {
            report.push(
                path,
                Severity::Regression,
                format!("quantile ladder not monotone: p50={p50}, p99={p99}, max={max}"),
            );
        }
    }

    for (key, v) in map {
        invariants(v, &join(path, key), report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(p99: u64, dropped: u64) -> JsonValue {
        parse(&format!(
            r#"{{"schema":"rvhpc-metrics/1","generator":"rvhpc-loadgen",
                "loadgen":{{"ok":1000,"errors":0,"dropped":{dropped},
                "latency":{{"count":1000,"mean_us":350,"min_us":10,"max_us":{max},
                            "p50_us":300,"p99_us":{p99}}}}}}}"#,
            max = p99.max(5000)
        ))
        .expect("test doc parses")
    }

    #[test]
    fn identical_documents_have_no_regressions() {
        let a = doc(4000, 0);
        let report = diff_documents(&a, &a.clone(), &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(report.render().contains("OK"));
    }

    #[test]
    fn injected_p99_regression_fails_with_readable_report() {
        let base = doc(4000, 0);
        let bad = doc(9000, 0);
        let report = diff_documents(&base, &bad, &DiffConfig::default());
        assert!(report.has_regressions());
        let text = report.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("loadgen.latency.p99_us"), "{text}");
        assert!(text.contains("2.25x"), "{text}");
    }

    #[test]
    fn quantile_wiggle_below_floor_or_ratio_is_info_only() {
        let base = doc(4000, 0);
        // 1.5x: below the 2x ratio.
        let report = diff_documents(&base, &doc(6000, 0), &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        // 10x but below the absolute floor.
        let small_base = parse(
            r#"{"schema":"rvhpc-metrics/1","latency":{"count":10,"mean_us":2,
                "min_us":1,"max_us":30,"p50_us":2,"p99_us":3}}"#,
        )
        .unwrap();
        let small_cur = parse(
            r#"{"schema":"rvhpc-metrics/1","latency":{"count":10,"mean_us":2,
                "min_us":1,"max_us":30,"p50_us":2,"p99_us":30}}"#,
        )
        .unwrap();
        let report = diff_documents(&small_base, &small_cur, &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    /// A loadgen-shaped document with a per-class breakdown.
    fn classed_doc(interactive_p99: u64, bulk_p99: u64) -> JsonValue {
        let class = |p99: u64| {
            format!(
                r#"{{"sent":100,"ok":100,"shed":0,"errors":0,"dropped":0,
                    "latency":{{"count":100,"mean_us":{mean},"min_us":10,
                                "max_us":{max},"p50_us":{mean},"p99_us":{p99}}}}}"#,
                mean = p99 / 2,
                max = p99 * 2,
            )
        };
        parse(&format!(
            r#"{{"schema":"rvhpc-metrics/1","generator":"rvhpc-loadgen",
                "loadgen":{{"ok":200,"errors":0,"dropped":0,
                "classes":{{"interactive":{i},"bulk":{b}}},
                "latency":{{"count":200,"mean_us":500,"min_us":10,"max_us":9000,
                            "p50_us":400,"p99_us":4000}}}}}}"#,
            i = class(interactive_p99),
            b = class(bulk_p99),
        ))
        .expect("classed doc parses")
    }

    #[test]
    fn class_slos_gate_the_current_document() {
        let slo = |class: &str, budget: f64| DiffConfig {
            class_slos: vec![(class.to_string(), budget)],
            ..DiffConfig::default()
        };
        let base = classed_doc(2000, 50_000);
        let cur = classed_doc(2000, 50_000);

        // Interactive under budget: clean, and the finding names the path.
        let report = diff_documents(&base, &cur, &slo("interactive", 5000.0));
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(
            report
                .render()
                .contains("classes.interactive.latency.p99_us"),
            "{}",
            report.render()
        );

        // Bulk over budget: regression naming the busted class.
        let report = diff_documents(&base, &cur, &slo("bulk", 5000.0));
        assert!(report.has_regressions());
        assert!(
            report
                .render()
                .contains("REGRESSION loadgen.classes.bulk.latency.p99_us"),
            "{}",
            report.render()
        );

        // A configured class absent from the document: mismatch, not a
        // silent pass.
        let report = diff_documents(&base, &cur, &slo("batch", 5000.0));
        assert!(report.has_mismatches(), "{}", report.render());
        assert!(!report.has_regressions(), "{}", report.render());

        // SLOs are absolute checks on the current doc: a class-less
        // baseline gates the same way.
        let report = diff_documents(&doc(4000, 0), &cur, &slo("interactive", 5000.0));
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn counter_invariants_catch_drops_and_broken_ladders() {
        let base = doc(4000, 0);
        let report = diff_documents(&base, &doc(4000, 3), &DiffConfig::default());
        assert!(report.has_regressions());
        assert!(report.render().contains("dropped"), "{}", report.render());

        let broken = parse(
            r#"{"schema":"rvhpc-metrics/1","latency":{"count":5,"mean_us":10,
                "min_us":1,"max_us":50,"p50_us":40,"p99_us":20}}"#,
        )
        .unwrap();
        let report = diff_documents(&broken, &broken.clone(), &DiffConfig::default());
        assert!(report.has_regressions(), "non-monotone ladder must fail");
    }

    /// A bench document with two targets whose p50s are given in µs.
    fn bench_doc(spmv_p50: u64, triad_p50: u64) -> JsonValue {
        let target = |p50: u64| {
            format!(
                r#"{{"group":"host","iterations":20,
                    "wall":{{"bucket_layout":"exact/1","count":20,"min_us":{min},
                             "p50_us":{p50},"p99_us":{p99},"max_us":{p99},
                             "mean_us":{p50}}}}}"#,
                min = p50 / 2,
                p99 = p50 * 2,
            )
        };
        parse(&format!(
            r#"{{"schema":"rvhpc-bench/1","generator":"test","index":0,"mode":"full",
                "system":{{"arch":"x86_64","cpus":8}},
                "targets":{{"host_cg_spmv":{spmv},"host_stream_triad":{triad}}}}}"#,
            spmv = target(spmv_p50),
            triad = target(triad_p50),
        ))
        .expect("bench doc parses")
    }

    #[test]
    fn bench_self_diff_is_clean_and_dispatch_picks_bench_rules() {
        let doc = bench_doc(1000, 4000);
        let report = diff_any(&doc, &doc.clone(), &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(!report.has_mismatches(), "{}", report.render());
    }

    #[test]
    fn bench_slower_target_fails_and_names_the_target() {
        let base = bench_doc(1000, 4000);
        let bad = bench_doc(1000, 40_000); // 10x slower triad
        let report = diff_any(&base, &bad, &DiffConfig::default());
        assert!(report.has_regressions());
        let text = report.render();
        assert!(
            text.contains("targets.host_stream_triad.wall.p50_us"),
            "{text}"
        );
        assert!(!text.contains("REGRESSION targets.host_cg_spmv"), "{text}");
    }

    #[test]
    fn bench_ratio_and_floor_interact_at_boundaries() {
        let cfg = |floor_us: f64| DiffConfig {
            max_quantile_ratio: 2.0,
            floor_us,
            ..DiffConfig::default()
        };
        // Exactly at the ratio (p50 and p99 both exactly 2x), zero
        // floor: not a regression — the ratio rule is strictly-greater.
        let report = diff_any(&bench_doc(1000, 4000), &bench_doc(2000, 4000), &cfg(0.0));
        assert!(!report.has_regressions(), "{}", report.render());
        // Far above the ratio but every quantile at/below the absolute
        // floor (p99 = 2*p50 = 1200 ≤ 3000): still clean.
        let report = diff_any(&bench_doc(100, 4000), &bench_doc(600, 4000), &cfg(3000.0));
        assert!(!report.has_regressions(), "{}", report.render());
        // One µs above both thresholds: regression.
        let report = diff_any(&bench_doc(500, 4000), &bench_doc(3001, 4000), &cfg(3000.0));
        assert!(report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn bench_missing_target_regresses_and_new_target_is_informational() {
        let base = bench_doc(1000, 4000);
        let mut cur = bench_doc(1000, 4000);
        if let Some(JsonValue::Object(targets)) = match &mut cur {
            JsonValue::Object(map) => map.get_mut("targets"),
            _ => None,
        } {
            let spmv = targets.remove("host_cg_spmv").expect("present");
            targets.insert("host_new_kernel".to_string(), spmv);
        }
        let report = diff_any(&base, &cur, &DiffConfig::default());
        assert!(report.has_regressions());
        let text = report.render();
        assert!(
            text.contains("REGRESSION targets.host_cg_spmv: target present in baseline"),
            "{text}"
        );
        assert!(text.contains("info targets.host_new_kernel"), "{text}");
        // Under strict, the added target fails too.
        let strict = diff_any(
            &base,
            &cur,
            &DiffConfig {
                strict: true,
                ..DiffConfig::default()
            },
        );
        assert!(strict
            .regressions()
            .any(|f| f.path == "targets.host_new_kernel"));
    }

    #[test]
    fn cross_kind_and_cross_layout_comparisons_are_refused() {
        // metrics vs bench: kind mismatch, exit-2 class.
        let metrics = doc(4000, 0);
        let bench = bench_doc(1000, 4000);
        let report = diff_any(&metrics, &bench, &DiffConfig::default());
        assert!(report.has_mismatches());
        assert!(!report.has_regressions());

        // Same kind, but one target's wall section uses a different
        // bucket layout: that section is refused (mismatch), and its
        // 10x-slower quantile must NOT surface as a regression.
        let base = bench_doc(1000, 4000);
        let mut cur = bench_doc(10_000, 4000);
        if let Some(JsonValue::Object(wall)) = match &mut cur {
            JsonValue::Object(map) => map
                .get_mut("targets")
                .and_then(|t| match t {
                    JsonValue::Object(t) => t.get_mut("host_cg_spmv"),
                    _ => None,
                })
                .and_then(|t| match t {
                    JsonValue::Object(t) => t.get_mut("wall"),
                    _ => None,
                }),
            _ => None,
        } {
            wall.insert("bucket_layout".to_string(), JsonValue::from("exact/2"));
        }
        let report = diff_any(&base, &cur, &DiffConfig::default());
        assert!(report.has_mismatches(), "{}", report.render());
        assert!(
            !report
                .regressions()
                .any(|f| f.path.contains("host_cg_spmv")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn schema_mismatch_and_strict_shape_changes_fail() {
        let base = doc(4000, 0);
        let mut other = doc(4000, 0);
        if let JsonValue::Object(map) = &mut other {
            map.insert("schema".to_string(), JsonValue::from("rvhpc-metrics/2"));
        }
        assert!(diff_documents(&base, &other, &DiffConfig::default()).has_regressions());

        let mut missing = doc(4000, 0);
        if let JsonValue::Object(map) = &mut missing {
            map.remove("loadgen");
        }
        let lax = diff_documents(&base, &missing, &DiffConfig::default());
        assert!(!lax.has_regressions(), "{}", lax.render());
        let strict = diff_documents(
            &base,
            &missing,
            &DiffConfig {
                strict: true,
                ..DiffConfig::default()
            },
        );
        assert!(strict.has_regressions());
    }
}
