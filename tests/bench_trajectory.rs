//! End-to-end checks of the benchmark trajectory: harness run →
//! versioned document → regression gate → committed artifacts.
//!
//! The committed files are part of the contract: every
//! `results/BENCH_<n>.json` must validate as `rvhpc-bench/1`, the newest
//! document must cover the full curated suite, and `BENCHMARKS.md` must
//! be byte-identical to rendering that newest document (so the table can
//! never drift from the numbers it claims to show).

use rvhpc::bench::{harness, record};
use rvhpc::obs::{diff_any, json, DiffConfig, JsonValue, Kind};

fn repo_file(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed {}: {e}", path.display()))
}

/// The newest committed trajectory document (highest index) — the
/// baseline CI gates against and the one `BENCHMARKS.md` renders.
fn newest_committed() -> (usize, JsonValue) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let (n, path) = record::trajectory_paths(&dir, "BENCH_")
        .into_iter()
        .next_back()
        .expect("at least one BENCH_<n>.json is committed");
    let text = std::fs::read_to_string(&path).expect("read newest trajectory doc");
    (
        n,
        json::parse(text.trim()).expect("newest trajectory doc parses"),
    )
}

/// One quick filtered harness run, producing a valid document whose
/// self-diff is clean and whose doctored variant regresses.
#[test]
fn quick_run_produces_valid_gateable_document() {
    let cfg = harness::HarnessConfig {
        quick: true,
        filter: Some("host_cg_spmv".to_string()),
        jobs: 1,
    };
    let results = harness::run(&cfg);
    assert_eq!(results.len(), 1, "filter selects exactly one target");
    let doc = record::build_document(&results, 0, true);
    assert_eq!(Kind::Bench.validate(&doc), Ok(()));
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some(Kind::Bench.schema())
    );

    // Self-diff (through a serialize/parse round-trip) is clean.
    let reparsed = json::parse(&doc.to_json()).expect("round-trip");
    let report = diff_any(&doc, &reparsed, &DiffConfig::default());
    assert!(!report.has_regressions(), "{}", report.render());
    assert!(!report.has_mismatches(), "{}", report.render());

    // A 10x-slower doctored copy regresses, naming the target.
    let mut doctored = doc.clone();
    if let JsonValue::Object(map) = &mut doctored {
        if let Some(JsonValue::Object(targets)) = map.get_mut("targets") {
            if let Some(JsonValue::Object(target)) = targets.get_mut("host_cg_spmv") {
                if let Some(JsonValue::Object(wall)) = target.get_mut("wall") {
                    for key in ["min_us", "p50_us", "p99_us", "max_us", "mean_us"] {
                        if let Some(JsonValue::Number(v)) = wall.get_mut(key) {
                            *v *= 10.0;
                        }
                    }
                }
            }
        }
    }
    let report = diff_any(&doc, &doctored, &DiffConfig::default());
    assert!(report.has_regressions(), "{}", report.render());
    assert!(
        report
            .regressions()
            .any(|f| f.path.starts_with("targets.host_cg_spmv.wall")),
        "{}",
        report.render()
    );
}

/// Every committed trajectory document is structurally valid; the newest
/// one additionally self-diffs clean under the CI thresholds and covers
/// the full curated suite (earlier documents froze earlier, smaller
/// suites — targets are only ever added).
#[test]
fn committed_baseline_validates() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for (n, path) in record::trajectory_paths(&dir, "BENCH_") {
        let text = std::fs::read_to_string(&path).expect("read trajectory doc");
        let doc = json::parse(text.trim()).expect("trajectory doc parses");
        assert_eq!(Kind::Bench.validate(&doc), Ok(()), "BENCH_{n} invalid");
        assert_eq!(
            doc.get("mode").and_then(JsonValue::as_str),
            Some("full"),
            "BENCH_{n} is not a full-mode baseline"
        );
    }

    let (n, doc) = newest_committed();
    let report = diff_any(
        &doc,
        &doc.clone(),
        &DiffConfig {
            max_quantile_ratio: 3.0,
            ..DiffConfig::default()
        },
    );
    assert!(!report.has_regressions(), "{}", report.render());

    // Every curated target is present in the newest document: the
    // baseline CI gates against must cover the full suite, not a
    // filtered subset.
    for name in harness::TARGET_NAMES {
        assert!(
            doc.get("targets").and_then(|t| t.get(name)).is_some(),
            "BENCH_{n} is missing target {name}"
        );
    }
}

/// `BENCHMARKS.md` is exactly the rendering of the newest committed
/// trajectory document plus the newest committed saturation sweep.
#[test]
fn committed_benchmarks_md_matches_baseline_rendering() {
    let (n, doc) = newest_committed();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let (sat_n, sat_path) = record::trajectory_paths(&dir, "SATURATION_")
        .into_iter()
        .next_back()
        .expect("at least one SATURATION_<n>.json is committed");
    let sat_text = std::fs::read_to_string(&sat_path).expect("read newest saturation doc");
    let sat = json::parse(sat_text.trim()).expect("newest saturation doc parses");
    assert_eq!(
        Kind::Saturation.validate(&sat),
        Ok(()),
        "SATURATION_{sat_n} invalid"
    );
    let rendered = record::render_markdown(&doc, Some(&sat));
    let committed = repo_file("BENCHMARKS.md");
    assert_eq!(
        rendered, committed,
        "BENCHMARKS.md is stale — regenerate with \
         `reproduce bench --render results/BENCH_{n}.json \
         --saturation results/SATURATION_{sat_n}.json > BENCHMARKS.md`"
    );
}

/// Every committed document says which one it is: `index` is the file
/// name's (BENCH_3 was once written as "index": 0 and BENCHMARKS.md
/// announced itself as document 0).
#[test]
fn committed_documents_carry_their_own_index() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for (n, path) in record::trajectory_paths(&dir, "BENCH_") {
        let text = std::fs::read_to_string(&path).expect("read trajectory doc");
        let doc = json::parse(text.trim()).expect("trajectory doc parses");
        let index = doc.get("index").and_then(JsonValue::as_f64);
        assert_eq!(index, Some(n as f64), "{}", path.display());
    }
}

/// `reproduce bench --out`: the index comes from the file name, a
/// full-mode document under any other name is refused, and so is one
/// whose `git_rev` would name code other than what was measured.
#[test]
fn bench_out_settles_provenance_before_running() {
    let reproduce = |cwd: &std::path::Path, rev: Option<&str>, args: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"));
        cmd.arg("bench").args(args).current_dir(cwd);
        match rev {
            Some(rev) => cmd.env("RVHPC_GIT_REV", rev),
            None => cmd.env_remove("RVHPC_GIT_REV"),
        };
        let out = cmd.output().expect("spawn reproduce");
        (
            out.status.code().expect("exit code"),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let dir = std::env::temp_dir().join(format!("rvhpc_bench_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));

    // Full mode under a scratch name: refused, nothing run or written.
    let scratch = dir.join("current.json");
    let (code, stderr) = reproduce(repo, Some("abc1234"), &["--out", scratch.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("BENCH_<n>.json"), "{stderr}");
    assert!(!scratch.exists());

    // Full mode in a dirty tree with no revision named: refused.
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("git is installed")
    };
    assert!(git(&["init", "-q"]).status.success());
    std::fs::write(dir.join("untracked.rs"), "fn main() {}\n").expect("write");
    let (code, stderr) = reproduce(&dir, None, &["--out", "BENCH_99.json"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("uncommitted"), "{stderr}");
    assert!(!dir.join("BENCH_99.json").exists());

    // A quick run is a scratch document: any name, numbered as the next
    // trajectory document; a trajectory name gives its own index.
    let quick = ["--quick", "--filter", "host_cg_spmv", "--out"];
    let next = record::next_index(&repo.join("results")) as f64;
    for (name, index) in [("current.json", next), ("BENCH_99.json", 99.0)] {
        let path = dir.join(name);
        let (code, stderr) = reproduce(
            repo,
            Some("abc1234"),
            &[&quick[..], &[path.to_str().unwrap()]].concat(),
        );
        assert_eq!(code, 0, "{stderr}");
        let text = std::fs::read_to_string(&path).expect("document written");
        let doc = json::parse(text.trim()).expect("document parses");
        assert_eq!(doc.get("index").and_then(JsonValue::as_f64), Some(index));
        let rev = doc.get("system").and_then(|s| s.get("git_rev"));
        assert_eq!(rev.and_then(JsonValue::as_str), Some("abc1234"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trajectory renderer covers every committed document.
#[test]
fn trajectory_renders_committed_history() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let docs: Vec<(usize, JsonValue)> = record::trajectory_paths(&dir, "BENCH_")
        .into_iter()
        .map(|(n, path)| {
            let text = std::fs::read_to_string(&path).expect("read trajectory doc");
            (n, json::parse(text.trim()).expect("trajectory doc parses"))
        })
        .collect();
    assert!(!docs.is_empty(), "at least BENCH_0.json is committed");
    assert_eq!(docs[0].0, 0, "trajectory starts at index 0");
    let table = record::render_trajectory(&docs);
    assert!(table.contains("BENCH_0 p50 (µs)"), "{table}");
    for name in harness::TARGET_NAMES {
        assert!(table.contains(name), "trajectory table misses {name}");
    }
}
