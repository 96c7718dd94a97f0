//! CLI-contract tests for the observability binary: `obsdiff` is driven
//! as a real subprocess (via `CARGO_BIN_EXE_*`) against the committed
//! artifacts under `results/`, pinning the exit codes CI scripts rely on:
//!
//! - `0` no regression, `1` regression, `2` malformed or incomparable
//!   documents, `3` usage error.
//!
//! The 1-vs-2 split is the load-bearing part: gates must be able to
//! tell "the build got slower" from "you diffed the wrong files".

use std::path::{Path, PathBuf};
use std::process::Command;

use rvhpc::eval::experiment;
use rvhpc::obs::{json, JsonValue};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Run `bin args...` and return (exit code, stdout, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    (
        out.status.code().expect("binary exited with a code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Scratch directory for doctored documents, unique per test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvhpc_obs_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn write_doc(path: &Path, doc: &JsonValue) {
    std::fs::write(path, doc.to_json() + "\n").expect("write scratch doc");
}

/// Every `--flag` a binary's argument `match` accepts: the quoted
/// `--` literals left of a `=>` in its source.
fn parsed_flags(source: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_path(source)).expect("read binary source");
    let mut flags = Vec::new();
    for line in text.lines() {
        let line = line.trim_start();
        let Some((pattern, _)) = line.split_once("=>") else {
            continue;
        };
        if !line.starts_with('"') {
            continue;
        }
        for lit in pattern.split('"').skip(1).step_by(2) {
            if lit.starts_with("--") {
                flags.push(lit.to_string());
            }
        }
    }
    flags
}

#[test]
fn help_exits_zero_and_names_exit_codes() {
    for (bin, source) in [
        (env!("CARGO_BIN_EXE_obsdiff"), "src/bin/obsdiff.rs"),
        (env!("CARGO_BIN_EXE_serve"), "src/bin/serve.rs"),
        (env!("CARGO_BIN_EXE_loadgen"), "src/bin/loadgen.rs"),
    ] {
        let (code, stdout, _) = run(bin, &["--help"]);
        assert_eq!(code, 0, "{bin} --help must exit 0");
        assert!(stdout.contains("usage:"), "{bin} --help prints usage");
        assert!(
            stdout.contains("exit codes:"),
            "{bin} --help documents its exit codes"
        );
        let flags = parsed_flags(source);
        assert!(flags.len() > 2, "{source}: no argument match found");
        for flag in flags {
            assert!(
                stdout.contains(&format!("{flag}:")),
                "{bin} parses {flag} but --help does not document it"
            );
        }
    }
    // `serve` has no profiler and no SLO rules: `--profile` and `--slo`
    // are unknown arguments.
    for flag in ["--profile", "--slo"] {
        let (code, _, stderr) = run(env!("CARGO_BIN_EXE_serve"), &[flag, "x"]);
        assert_eq!(code, 2, "serve {flag} is a usage error: {stderr}");
        let unknown = format!("unknown argument '{flag}'");
        assert!(stderr.contains(&unknown), "{stderr}");
    }
}

#[test]
fn usage_errors_exit_three() {
    let (code, _, stderr) = run(env!("CARGO_BIN_EXE_obsdiff"), &["only-one.json"]);
    assert_eq!(code, 3, "one positional path is a usage error: {stderr}");
    // A threshold that is not a finite number would switch the gate off
    // (`NaN < 1.0` is false, and nothing exceeds an infinite floor), and
    // `--class-slo` is no option: the keyed walk over each class's
    // latency is the one class gate.
    for flags in [
        &["--ratio", "nan"][..],
        &["--ratio", "inf"],
        &["--ratio", "0.5"],
        &["--floor-us", "inf"],
        &["--floor-us", "nan"],
        &["--floor-us", "-1"],
        &["--class-slo", "interactive:2000000"],
    ] {
        let args = [
            &["results/SATURATION_0.json", "results/SATURATION_0.json"][..],
            flags,
        ]
        .concat();
        let (code, _, stderr) = run(env!("CARGO_BIN_EXE_obsdiff"), &args);
        assert_eq!(code, 3, "{flags:?} is a usage error: {stderr}");
    }
}

/// The committed saturation sweep self-diffs clean under the asserted
/// `saturation` kind — the exact invocation the CI sweep gate runs.
#[test]
fn obsdiff_saturation_self_diff_is_clean() {
    for sweep in ["results/SATURATION_0.json", "results/SATURATION_1.json"] {
        let (code, stdout, stderr) =
            run(env!("CARGO_BIN_EXE_obsdiff"), &["saturation", sweep, sweep]);
        assert_eq!(code, 0, "{sweep}\nstdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(stdout.contains("saturation"), "{stdout}");
    }
}

/// Asserting the wrong kind, or auto-detecting two different kinds, is
/// incomparable (exit 2), not a regression.
#[test]
fn obsdiff_kind_assertion_mismatch_exits_two() {
    for args in [
        &[
            "saturation",
            "results/qos_baseline_metrics.json",
            "results/qos_baseline_metrics.json",
        ][..],
        &["results/baseline_metrics.json", "results/BENCH_7.json"],
    ] {
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_obsdiff"), args);
        assert_eq!(code, 2, "{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}");
    }
}

/// Multiply every number under each `(section, key)` of `rel` by 10.
/// A section holding an array has each element doctored.
fn ten_times_slower(rel: &str, fields: &[(&str, &str)]) -> JsonValue {
    let text = std::fs::read_to_string(repo_path(rel)).expect("read committed doc");
    let mut doc = json::parse(text.trim()).expect("committed doc parses");
    let scale = |node: &mut JsonValue, key: &str| {
        if let JsonValue::Object(map) = node {
            if let Some(JsonValue::Number(v)) = map.get_mut(key) {
                *v *= 10.0;
            }
        }
    };
    for (section, key) in fields {
        let mut node = &mut doc;
        for seg in section.split('.') {
            node = match node {
                JsonValue::Object(map) => map.get_mut(seg).expect("section exists"),
                _ => panic!("{section} is not an object path"),
            };
        }
        match node {
            JsonValue::Array(items) => items.iter_mut().for_each(|item| scale(item, key)),
            node => scale(node, key),
        }
    }
    doc
}

/// A committed document doctored 10x slower regresses against itself
/// (exit 1), for a saturation sweep (every step's p99 and the knee's),
/// for a benchmark document (one target's whole wall ladder) and for the
/// QoS baseline (the interactive class's tail alone).
#[test]
fn obsdiff_ten_times_slower_regresses() {
    let wall = "targets.host_cg_spmv.wall";
    let interactive = "loadgen.classes.interactive.latency";
    for (baseline, doctored, regressed) in [
        (
            "results/SATURATION_0.json",
            ten_times_slower(
                "results/SATURATION_0.json",
                &[("steps", "p99_us"), ("knee", "p99_us")],
            ),
            "steps.conns_2.p99_us".to_string(),
        ),
        (
            "results/BENCH_7.json",
            ten_times_slower(
                "results/BENCH_7.json",
                &[
                    (wall, "min_us"),
                    (wall, "p50_us"),
                    (wall, "p99_us"),
                    (wall, "max_us"),
                    (wall, "mean_us"),
                ],
            ),
            format!("{wall}.p99_us"),
        ),
        (
            "results/qos_baseline_metrics.json",
            ten_times_slower(
                "results/qos_baseline_metrics.json",
                &[
                    (interactive, "p99_us"),
                    (interactive, "p999_us"),
                    (interactive, "max_us"),
                ],
            ),
            format!("{interactive}.p99_us"),
        ),
    ] {
        let path = scratch(&format!("slow_{}", baseline.trim_start_matches("results/")));
        write_doc(&path, &doctored);
        let (code, stdout, stderr) = run(
            env!("CARGO_BIN_EXE_obsdiff"),
            &[baseline, &path.display().to_string()],
        );
        assert_eq!(code, 1, "{baseline}\nstdout:\n{stdout}\nstderr:\n{stderr}");
        let line = format!("REGRESSION {regressed}:");
        assert!(stdout.contains(&line), "{stdout}");
    }
}

/// `obsdiff` is the one diff CLI: to `reproduce`, `obs-diff` is an
/// unknown experiment (usage error, exit 2), not a second diff front end.
/// Neither is `extensions`: HPL and HPCG are not part of the paper's
/// evaluation.
#[test]
fn removed_slugs_are_unknown_experiments() {
    for args in [
        &[
            "obs-diff",
            "results/baseline_metrics.json",
            "results/baseline_metrics.json",
        ][..],
        &["extensions"],
    ] {
        let (code, _, stderr) = run(env!("CARGO_BIN_EXE_reproduce"), args);
        assert_eq!(code, 2, "{stderr}");
        let unknown = format!("unknown experiment '{}'", args[0]);
        assert!(stderr.contains(&unknown), "{stderr}");
    }
}

/// The `EXPERIMENT:` line of `reproduce --help` and the slugs `reproduce`
/// accepts are the same set: every listed slug (ranges such as
/// `table1..table8` expanded) runs and prints something.
#[test]
fn every_documented_slug_runs() {
    let (code, usage, _) = run(env!("CARGO_BIN_EXE_reproduce"), &["--help"]);
    assert_eq!(code, 0);
    let line = usage
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("EXPERIMENT:"))
        .expect("usage has an EXPERIMENT: line");
    let mut slugs = Vec::new();
    for item in line.split(',').map(str::trim) {
        match item.split_once("..") {
            Some((first, last)) => {
                let prefix = first.trim_end_matches(|c: char| c.is_ascii_digit());
                let lo: u32 = first[prefix.len()..].parse().expect(item);
                let hi: u32 = last
                    .strip_prefix(prefix)
                    .and_then(|n| n.parse().ok())
                    .expect(item);
                slugs.extend((lo..=hi).map(|n| format!("{prefix}{n}")));
            }
            None => slugs.push(item.to_string()),
        }
    }
    assert_eq!(slugs.len(), 16, "{slugs:?}");
    for slug in &slugs {
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_reproduce"), &[slug]);
        assert_eq!(code, 0, "reproduce {slug}: {stderr}");
        assert!(
            !stdout.trim().is_empty(),
            "reproduce {slug} printed nothing"
        );
    }
}

/// `reproduce <slug>` prints exactly that registry section's body — the
/// text the full report carries under the section's heading.
#[test]
fn every_slug_prints_its_section_body() {
    for section in experiment::SECTIONS.iter().chain([&experiment::RESIDUALS]) {
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_reproduce"), &[section.slug]);
        assert_eq!(code, 0, "reproduce {}: {stderr}", section.slug);
        assert_eq!(
            stdout,
            format!("{}\n", (section.body)()),
            "{}",
            section.slug
        );
    }
}

/// A `results` path that cannot be a directory is a write failure: one
/// line on stderr and exit 3, not a warning and exit 0.
#[test]
fn unwritable_results_dir_exits_3() {
    let cwd = scratch("results_is_a_file");
    std::fs::create_dir_all(&cwd).expect("create cwd");
    std::fs::write(cwd.join("results"), "not a directory").expect("write file");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .current_dir(&cwd)
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("could not write artifacts"), "{stderr}");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// A closed stdout (`reproduce fig1 | head -1` once `head` has exited)
/// is a write failure too: exit 3 with one line, never a panic (101).
#[test]
fn closed_stdout_exits_3_not_101() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("fig1")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}
