//! Regression diffing of two versioned rvhpc documents.
//!
//! [`diff_any`] is the one entry point. It reads each document's kind
//! from its `schema` tag ([`Kind`]) and runs, in order:
//!
//! 1. **Kind guard** — documents of different or unknown kinds are not
//!    compared at all: one [`Severity::Mismatch`].
//! 2. **Validation** — each side must be a valid document of its kind
//!    ([`Kind::validate`]); an invalid side is a mismatch naming it.
//! 3. **Keyed diff** — the kind's children (the whole metrics document,
//!    bench targets by name, sweep steps by connection count) are paired
//!    by dotted path and walked in lockstep. A child the baseline has and
//!    the current lacks is lost coverage and regresses; a new one is
//!    informational unless `strict`.
//! 4. **Invariants** — self-consistency of the *current* document,
//!    machine-independent: `dropped` and `errors` counters must be zero,
//!    and every latency section's quantile ladder must be monotone (and
//!    all-zero when its `count` is zero).
//! 5. **Drift** — the kind's whole-document rule: a saturation knee that
//!    moved to fewer connections regresses.
//!
//! The walk's rules mirror how the paper compares compiler/config
//! generations (GCC 12 vs 15, SG2042 vs SG2044):
//!
//! * **Quantiles** — keys like `p50_us`/`p99_us`/`mean_us` fail when the
//!   current value exceeds `baseline × max_quantile_ratio` and also the
//!   absolute `floor_us` (so a 3 µs → 9 µs wiggle on an idle box never
//!   gates a build).
//! * **Layouts** — latency sections carry a layout tag (`bucket_layout`
//!   on histogram and exact-stats sections, `layout` on timeseries
//!   rings). When the tags disagree the quantiles are not comparable, and
//!   the section is refused with a mismatch instead of silently compared.
//! * **Shape** — keys present on one side only are informational, or
//!   regressions under `strict`.
//!
//! The report renders human-readable (one line per finding), and
//! [`DiffReport::exit_code`] maps it onto the exit codes CI gates on:
//! mismatch (2, "wrong input") is distinct from regression (1, "slower").

use crate::doc::{check_ladder, schema_tag, Kind};
use crate::json::JsonValue;

/// Thresholds for [`diff_any`].
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
}

impl DiffConfig {
    /// The severity of a shape change: a key or child on one side only.
    fn shape_severity(&self) -> Severity {
        if self.strict {
            Severity::Regression
        } else {
            Severity::Info
        }
    }
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            max_quantile_ratio: 2.0,
            floor_us: 200.0,
            strict: false,
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
    /// different schema kinds, an invalid document, or latency sections
    /// with different layout versions. Distinct from
    /// [`Severity::Regression`] so CI can tell "slower" (exit 1) from
    /// "wrong input" (exit 2).
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

/// Everything [`diff_any`] found.
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
    pub(crate) fn mismatches(&self) -> impl Iterator<Item = &Finding> {
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

    /// The process exit code the report maps to: 2 when anything was
    /// incomparable, else 1 on a regression, else 0.
    pub fn exit_code(&self) -> i32 {
        if self.has_mismatches() {
            2
        } else if self.has_regressions() {
            1
        } else {
            0
        }
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

/// Compare a baseline and a current document of the same known kind:
/// kind guard, validation, keyed diff, invariants, drift (see the module
/// docs).
pub fn diff_any(baseline: &JsonValue, current: &JsonValue, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    let kind = match (Kind::of(baseline), Kind::of(current)) {
        (Some(bk), Some(ck)) if bk == ck => bk,
        _ => {
            let (bk, ck) = (schema_tag(baseline), schema_tag(current));
            let message = if bk == ck {
                format!("unknown document kind {bk:?}")
            } else {
                format!("document kinds differ: baseline {bk:?} vs current {ck:?}")
            };
            report.push("schema", Severity::Mismatch, message);
            return report;
        }
    };
    for (side, doc) in [("baseline", baseline), ("current", current)] {
        if let Err(e) = kind.validate(doc) {
            report.push(
                side,
                Severity::Mismatch,
                format!("not a valid {} document: {e}", kind.schema()),
            );
        }
    }
    if report.has_mismatches() {
        return report;
    }
    let (base, noun) = kind.children(baseline);
    let (cur, _) = kind.children(current);
    diff_keyed(&base, &cur, noun, cfg, &mut report);
    invariants(current, "", &mut report);
    kind.drift(baseline, current, &mut report);
    report
}

/// Pair the children of two documents by dotted path. A child on both
/// sides is walked; one the baseline has and the current lacks is lost
/// coverage, not noise, and reported as a regression so a filtered or
/// truncated run can never pass a gate against a full baseline; one only
/// the current has is informational unless `cfg.strict`. `noun` names
/// the child kind in the messages.
fn diff_keyed(
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
                cfg.shape_severity(),
                format!("new {noun}, absent from baseline"),
            );
        }
    }
}

fn walk(base: &JsonValue, cur: &JsonValue, path: &str, cfg: &DiffConfig, report: &mut DiffReport) {
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
                        cfg.shape_severity(),
                        "present in baseline, missing in current".to_string(),
                    ),
                }
            }
            for key in c.keys() {
                if !b.contains_key(key) {
                    report.push(
                        &join(path, key),
                        cfg.shape_severity(),
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
            cfg.shape_severity(),
            format!("type/value changed: {} -> {}", b.to_json(), c.to_json()),
        ),
    }
}

/// Self-consistency checks on the current document.
fn invariants(doc: &JsonValue, path: &str, report: &mut DiffReport) {
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

    // A section with a count is a latency section: its quantile ladder
    // must be monotone, and all zero when it is empty.
    if map.contains_key("count") {
        if let Err(e) = check_ladder(doc) {
            report.push(path, Severity::Regression, e);
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
    use std::collections::BTreeMap;

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
        let report = diff_any(&a, &a.clone(), &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(report.render().contains("OK"));
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn injected_p99_regression_fails_with_readable_report() {
        let base = doc(4000, 0);
        let bad = doc(9000, 0);
        let report = diff_any(&base, &bad, &DiffConfig::default());
        assert!(report.has_regressions());
        assert_eq!(report.exit_code(), 1);
        let text = report.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("loadgen.latency.p99_us"), "{text}");
        assert!(text.contains("2.25x"), "{text}");
    }

    #[test]
    fn quantile_wiggle_below_floor_or_ratio_is_info_only() {
        let base = doc(4000, 0);
        // 1.5x: below the 2x ratio.
        let report = diff_any(&base, &doc(6000, 0), &DiffConfig::default());
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
        let report = diff_any(&small_base, &small_cur, &DiffConfig::default());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn counter_invariants_catch_drops_and_broken_ladders() {
        let base = doc(4000, 0);
        let report = diff_any(&base, &doc(4000, 3), &DiffConfig::default());
        assert!(report.has_regressions());
        assert!(report.render().contains("dropped"), "{}", report.render());

        let broken = parse(
            r#"{"schema":"rvhpc-metrics/1","latency":{"count":5,"mean_us":10,
                "min_us":1,"max_us":50,"p50_us":40,"p99_us":20}}"#,
        )
        .unwrap();
        let report = diff_any(&broken, &broken.clone(), &DiffConfig::default());
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

    /// The `wall` section of one target of a bench document, to doctor.
    fn wall_of<'a>(doc: &'a mut JsonValue, target: &str) -> &'a mut BTreeMap<String, JsonValue> {
        let JsonValue::Object(map) = doc else {
            panic!("document is an object")
        };
        let Some(JsonValue::Object(targets)) = map.get_mut("targets") else {
            panic!("document has targets")
        };
        let Some(JsonValue::Object(t)) = targets.get_mut(target) else {
            panic!("document has target {target}")
        };
        let Some(JsonValue::Object(wall)) = t.get_mut("wall") else {
            panic!("target {target} has a wall section")
        };
        wall
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
        assert_eq!(report.exit_code(), 2);

        // Same kind, but one target's wall section uses a different
        // bucket layout: that section is refused (mismatch), and its
        // 10x-slower quantile must NOT surface as a regression.
        let base = bench_doc(1000, 4000);
        let mut cur = bench_doc(10_000, 4000);
        wall_of(&mut cur, "host_cg_spmv")
            .insert("bucket_layout".to_string(), JsonValue::from("exact/2"));
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

    /// Validation belongs to the diff, not to its callers: a bench
    /// document with a backwards wall ladder or an untagged wall section
    /// is a mismatch that names its side, never a regression.
    #[test]
    fn invalid_bench_documents_are_mismatches_from_diff_any() {
        let base = bench_doc(1000, 4000);
        let mut backwards = bench_doc(1000, 4000);
        wall_of(&mut backwards, "host_cg_spmv")
            .insert("p50_us".to_string(), JsonValue::from(5000.0));
        let mut untagged = bench_doc(1000, 4000);
        wall_of(&mut untagged, "host_stream_triad").remove("bucket_layout");
        for (bad, needle) in [(&backwards, "not monotone"), (&untagged, "bucket_layout")] {
            for (report, side) in [
                (diff_any(&base, bad, &DiffConfig::default()), "current"),
                (diff_any(bad, &base, &DiffConfig::default()), "baseline"),
            ] {
                assert_eq!(report.exit_code(), 2, "{}", report.render());
                assert!(!report.has_regressions(), "{}", report.render());
                assert!(
                    report
                        .mismatches()
                        .any(|f| f.path == side && f.message.contains(needle)),
                    "{}",
                    report.render()
                );
            }
        }
    }

    #[test]
    fn schema_mismatch_and_strict_shape_changes_fail() {
        let base = doc(4000, 0);
        let mut other = doc(4000, 0);
        if let JsonValue::Object(map) = &mut other {
            map.insert("schema".to_string(), JsonValue::from("rvhpc-metrics/2"));
        }
        let report = diff_any(&base, &other, &DiffConfig::default());
        assert!(report.has_mismatches(), "{}", report.render());
        assert!(!report.has_regressions(), "{}", report.render());

        let mut missing = doc(4000, 0);
        if let JsonValue::Object(map) = &mut missing {
            map.remove("loadgen");
        }
        let lax = diff_any(&base, &missing, &DiffConfig::default());
        assert!(!lax.has_regressions(), "{}", lax.render());
        let strict = diff_any(
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
