//! Turning a harness run into the committed benchmark trajectory.
//!
//! One run becomes one versioned `rvhpc-bench/1` document (see
//! `rvhpc_obs::benchdoc`), written as `results/BENCH_<n>.json` where `n`
//! is the next free trajectory index. Markdown rendering is a *pure
//! function of the document* — `BENCHMARKS.md` regenerates byte-identical
//! from the newest committed `results/BENCH_<n>.json`, which a test
//! asserts — so the committed table can never drift from the committed
//! numbers.

use std::path::{Path, PathBuf};

use rvhpc_obs::benchdoc::{self, SystemInfo, WallStats};
use rvhpc_obs::JsonValue;

use crate::harness::TargetResult;

/// Generator tag stamped into documents produced by this module.
pub(crate) const GENERATOR: &str = "rvhpc-bench-harness";

/// One target's document section: group, iteration count, exact wall
/// stats, derived throughput (from the median), and the stall summary
/// for parallel targets.
pub(crate) fn target_to_json(r: &TargetResult) -> JsonValue {
    let wall = WallStats::from_samples(&r.samples_us);
    let mut pairs = vec![
        ("group".to_string(), JsonValue::from(r.group)),
        ("parallel".to_string(), JsonValue::from(r.parallel)),
        (
            "iterations".to_string(),
            JsonValue::from(r.samples_us.len()),
        ),
        ("wall".to_string(), wall.to_json()),
    ];
    if let Some(work) = r.work {
        pairs.push((
            "throughput".to_string(),
            JsonValue::object([
                ("unit".to_string(), JsonValue::from(work.unit)),
                (
                    "value".to_string(),
                    // Median-derived and rounded so the committed JSON
                    // stays readable; the full precision lives in the
                    // wall section it derives from.
                    JsonValue::from((work.at_us(wall.p50_us) * 1000.0).round() / 1000.0),
                ),
            ]),
        ));
    }
    if let Some(stalls) = &r.stalls {
        pairs.push(("stalls".to_string(), stalls.clone()));
    }
    JsonValue::object(pairs)
}

/// Assemble the full `rvhpc-bench/1` document for one run.
pub fn build_document(results: &[TargetResult], index: usize, quick: bool) -> JsonValue {
    let mut doc = benchdoc::document(GENERATOR, index, quick);
    if let JsonValue::Object(map) = &mut doc {
        map.insert("system".to_string(), SystemInfo::detect().to_json());
        map.insert(
            "targets".to_string(),
            JsonValue::object(
                results
                    .iter()
                    .map(|r| (r.name.to_string(), target_to_json(r))),
            ),
        );
    }
    doc
}

/// The trajectory index `n` of a `<prefix><n>.json` path (`BENCH_`,
/// `SATURATION_`).
pub fn index_of(path: &Path, prefix: &str) -> Option<usize> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix(prefix)?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Path of document `n` under `dir`.
pub fn bench_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("BENCH_{index}.json"))
}

/// Every `<prefix><n>.json` under `dir`, sorted by trajectory index;
/// empty when `dir` is absent.
pub fn trajectory_paths(dir: &Path, prefix: &str) -> Vec<(usize, PathBuf)> {
    let mut found: Vec<(usize, PathBuf)> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                index_of(&path, prefix).map(|n| (n, path))
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    found.sort_by_key(|(n, _)| *n);
    found
}

/// The next free trajectory index under `dir`: one past the largest
/// committed `BENCH_<n>.json`, or 0 for an empty (or absent) directory.
pub fn next_index(dir: &Path) -> usize {
    trajectory_paths(dir, "BENCH_")
        .last()
        .map_or(0, |(n, _)| n + 1)
}

fn fmt_us(v: f64) -> String {
    format!("{v:.0}")
}

fn fmt_throughput(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn wall_f(target: &JsonValue, key: &str) -> f64 {
    target
        .at(&format!("wall.{key}"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

fn target_names(doc: &JsonValue) -> Vec<String> {
    match doc.get("targets") {
        Some(JsonValue::Object(map)) => map.keys().cloned().collect(),
        _ => Vec::new(),
    }
}

/// The per-target results table (one row per target, grouped rows in
/// key order), shared by `BENCHMARKS.md` and the `reproduce bench`
/// stdout report.
pub fn render_table(doc: &JsonValue) -> String {
    let mut out = String::new();
    out.push_str("| Target | Group | Iters | Min (µs) | Median (µs) | p99 (µs) | Throughput |\n");
    out.push_str("|---|---|---:|---:|---:|---:|---:|\n");
    let Some(JsonValue::Object(targets)) = doc.get("targets") else {
        return out;
    };
    for (name, target) in targets {
        let group = target
            .get("group")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        let iters = target
            .get("iterations")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let throughput = match target.get("throughput") {
            Some(t) => {
                let unit = t.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                let value = t.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
                format!("{} {unit}", fmt_throughput(value))
            }
            None => "—".to_string(),
        };
        out.push_str(&format!(
            "| {name} | {group} | {iters:.0} | {} | {} | {} | {throughput} |\n",
            fmt_us(wall_f(target, "min_us")),
            fmt_us(wall_f(target, "p50_us")),
            fmt_us(wall_f(target, "p99_us")),
        ));
    }
    out
}

/// Render one target's stall-attribution subsection, or `None` for
/// serial targets.
fn render_stalls(name: &str, target: &JsonValue) -> Option<String> {
    let stalls = target.get("stalls")?;
    let summary = stalls.get("summary")?;
    let JsonValue::Object(kinds) = summary.get("per_kind")? else {
        return None;
    };
    let mut out = String::new();
    out.push_str(&format!("### Stall attribution: {name}\n\n"));
    out.push_str("| Event kind | Count | Total (µs) | Max (µs) |\n");
    out.push_str("|---|---:|---:|---:|\n");
    for (kind, totals) in kinds {
        let f = |key: &str| totals.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "| {kind} | {:.0} | {:.0} | {:.0} |\n",
            f("count"),
            f("total_us"),
            f("max_us"),
        ));
    }
    Some(out)
}

/// Render the full `BENCHMARKS.md` from one benchmark document,
/// optionally appending a "Saturation" section rendered from an
/// `rvhpc-saturation/1` sweep document (`loadgen --sweep`). Pure: the
/// committed `BENCHMARKS.md` regenerates byte-identical from the
/// committed `BENCH_<n>.json` + `SATURATION_<n>.json` pair.
pub fn render_markdown(doc: &JsonValue, saturation: Option<&JsonValue>) -> String {
    let mut out = String::new();
    let index = doc.get("index").and_then(JsonValue::as_f64).unwrap_or(0.0);
    let mode = doc.get("mode").and_then(JsonValue::as_str).unwrap_or("?");
    out.push_str("# Benchmarks\n\n");
    out.push_str(&format!(
        "Curated benchmark suite, trajectory document {index:.0} ({mode} mode).\n\
         Generated from `results/BENCH_{index:.0}.json` by `reproduce bench --render`;\n\
         regenerate a fresh document with `cargo run --release --bin reproduce -- bench`.\n\
         `obsdiff` gates new runs against this baseline (see README, \"Benchmark\n\
         trajectory\").\n\n"
    ));

    out.push_str("## System Information\n\n");
    out.push_str("| Property | Value |\n|---|---|\n");
    if let Some(system) = doc.get("system") {
        for (label, key) in [
            ("Architecture", "arch"),
            ("Operating system", "os"),
            ("Logical CPUs", "cpus"),
            ("Rust compiler", "rustc"),
            ("Git revision", "git_rev"),
        ] {
            let value = match system.get(key) {
                Some(JsonValue::Number(n)) => format!("{n:.0}"),
                Some(v) => v.as_str().map(String::from).unwrap_or_else(|| v.to_json()),
                None => "unknown".to_string(),
            };
            out.push_str(&format!("| {label} | {value} |\n"));
        }
    }
    out.push('\n');

    out.push_str("## Results\n\n");
    out.push_str(
        "Wall statistics are exact (computed from every measured iteration);\n\
         throughput derives from the median. Lower wall time is better.\n\n",
    );
    out.push_str(&render_table(doc));
    out.push('\n');

    out.push_str("## Stall attribution\n\n");
    out.push_str(
        "Parallel targets run a short traced pass after timing (the timing\n\
         pass itself is never traced); the obs recorder attributes where the\n\
         team's time goes.\n\n",
    );
    let mut any = false;
    if let Some(JsonValue::Object(targets)) = doc.get("targets") {
        for (name, target) in targets {
            if let Some(section) = render_stalls(name, target) {
                out.push_str(&section);
                out.push('\n');
                any = true;
            }
        }
    }
    if !any {
        out.push_str("No parallel targets in this document.\n");
    }

    if let Some(sat) = saturation {
        out.push('\n');
        out.push_str(&render_saturation(sat));
    }
    out
}

/// The "Saturation" section: one row per sweep step, knee marked. A
/// pure function of the `rvhpc-saturation/1` document.
pub(crate) fn render_saturation(doc: &JsonValue) -> String {
    let mut out = String::new();
    out.push_str("## Saturation\n\n");
    let field = |key: &str| -> f64 {
        doc.at(&format!("sweep.{key}"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "Concurrency sweep (`loadgen --sweep {:.0}:{:.0}:{:.0}`, {:.0} requests per\n\
         step): the knee of the (connections, p99) curve — detected by maximum\n\
         distance from the chord — marks where added concurrency stops buying\n\
         throughput and starts buying latency.\n\n",
        field("lo"),
        field("hi"),
        field("step"),
        field("requests_per_step"),
    ));
    let knee_conns = doc.at("knee.conns").and_then(JsonValue::as_f64);
    out.push_str(
        "| Conns | Throughput (req/s) | p50 (µs) | p99 (µs) | Hit rate | Errors | Dropped |\n\
         |---|---:|---:|---:|---:|---:|---:|\n",
    );
    if let Some(JsonValue::Array(steps)) = doc.get("steps") {
        for step in steps {
            let get = |key: &str| step.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let conns = get("conns");
            let marker = if Some(conns) == knee_conns {
                " ← knee"
            } else {
                ""
            };
            out.push_str(&format!(
                "| {conns:.0}{marker} | {} | {} | {} | {:.1}% | {:.0} | {:.0} |\n",
                fmt_throughput(get("throughput_rps")),
                fmt_us(get("p50_us")),
                fmt_us(get("p99_us")),
                get("cache_hit_rate") * 100.0,
                get("errors"),
                get("dropped"),
            ));
        }
    }
    out
}

/// Render the benchmark trajectory — median wall time per target across
/// every document, oldest to newest — as one markdown table. The final
/// column compares the newest document to the oldest.
pub fn render_trajectory(docs: &[(usize, JsonValue)]) -> String {
    let mut out = String::new();
    if docs.is_empty() {
        out.push_str("no BENCH_<n>.json documents found\n");
        return out;
    }
    // Union of target names, in first-seen (suite) order.
    let mut names: Vec<String> = Vec::new();
    for (_, doc) in docs {
        for name in target_names(doc) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    out.push_str("| Target |");
    for (n, _) in docs {
        out.push_str(&format!(" BENCH_{n} p50 (µs) |"));
    }
    out.push_str(" newest/oldest |\n|---|");
    for _ in docs {
        out.push_str("---:|");
    }
    out.push_str("---:|\n");
    for name in &names {
        out.push_str(&format!("| {name} |"));
        let mut first: Option<f64> = None;
        let mut last: Option<f64> = None;
        for (_, doc) in docs {
            let target = doc.get("targets").and_then(|t| t.get(name));
            match target {
                Some(t) => {
                    let p50 = wall_f(t, "p50_us");
                    first = first.or(Some(p50));
                    last = Some(p50);
                    out.push_str(&format!(" {} |", fmt_us(p50)));
                }
                None => out.push_str(" — |"),
            }
        }
        match (first, last) {
            (Some(f), Some(l)) if f > 0.0 => {
                out.push_str(&format!(" {:.2}x |\n", l / f));
            }
            _ => out.push_str(" — |\n"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{TargetResult, Work};

    fn fake_result(name: &'static str, base_us: u64) -> TargetResult {
        TargetResult {
            name,
            group: "host",
            parallel: false,
            samples_us: (0..10).map(|k| base_us + k).collect(),
            work: Some(Work {
                unit: "op/s",
                per_iter: 1000.0,
                scale: 1.0,
            }),
            stalls: None,
        }
    }

    #[test]
    fn built_documents_validate_and_render_deterministically() {
        let results = vec![
            fake_result("host_cg_spmv", 500),
            fake_result("host_stream_triad", 1200),
        ];
        let doc = build_document(&results, 3, true);
        assert_eq!(rvhpc_obs::Kind::Bench.validate(&doc), Ok(()));
        assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("quick"));

        // Rendering is pure: serialize, reparse, render again — byte
        // identical.
        let md = render_markdown(&doc, None);
        let reparsed = rvhpc_obs::json::parse(&doc.to_json()).expect("round-trip");
        assert_eq!(md, render_markdown(&reparsed, None));
        assert!(md.contains("| host_cg_spmv | host | 10 |"), "{md}");
        assert!(md.contains("## System Information"), "{md}");
    }

    #[test]
    fn trajectory_indices_scan_and_render() {
        let dir = std::env::temp_dir().join(format!("rvhpc_record_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(next_index(&dir), 0, "absent directory starts at 0");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_index(&dir), 0, "empty directory starts at 0");
        for n in [0usize, 2] {
            std::fs::write(bench_path(&dir, n), "{}").unwrap();
        }
        std::fs::write(dir.join("baseline_metrics.json"), "{}").unwrap();
        assert_eq!(next_index(&dir), 3, "one past the largest index");
        std::fs::write(dir.join("SATURATION_1.json"), "{}").unwrap();
        let indices = |prefix: &str| -> Vec<usize> {
            trajectory_paths(&dir, prefix)
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        assert_eq!(indices("BENCH_"), vec![0, 2]);
        assert_eq!(indices("SATURATION_"), vec![1]);
        let _ = std::fs::remove_dir_all(&dir);

        let older = build_document(&[fake_result("host_cg_spmv", 1000)], 0, false);
        let newer = build_document(&[fake_result("host_cg_spmv", 500)], 1, false);
        let table = render_trajectory(&[(0, older), (1, newer)]);
        assert!(table.contains("BENCH_0 p50 (µs)"), "{table}");
        assert!(table.contains("0.50x"), "{table}");
    }
}
