//! Compare two versioned rvhpc documents for regressions.
//!
//! ```text
//! obsdiff baseline.json current.json               # auto-detect kind
//! obsdiff bench results/BENCH_0.json new.json      # require bench docs
//! obsdiff metrics results/baseline_metrics.json m.json
//! obsdiff baseline.json current.json --ratio 1.5   # tighter quantile gate
//! obsdiff baseline.json current.json --floor-us 50 # lower noise floor
//! obsdiff baseline.json current.json --strict      # shape changes fail too
//! obsdiff --trajectory results/                    # render BENCH_* history
//! ```
//!
//! Every document kind `rvhpc::obs::Kind` knows is understood, read from
//! the `schema` tag: `rvhpc-metrics/1` (serve/loadgen metrics),
//! `rvhpc-bench/1` (benchmark-trajectory documents from `reproduce
//! bench`) and `rvhpc-saturation/1` (concurrency sweeps from `loadgen
//! --sweep`). The first report line always names the detected kind and
//! both file paths. An optional leading kind keyword (`bench`,
//! `metrics`, `saturation`) asserts the kind — anything else is a
//! mismatch, not a regression.
//!
//! Exit codes: `0` no regression, `1` regression found, `2` documents
//! unreadable, unparseable, structurally invalid, or not comparable
//! (different/unknown schema kinds, latency sections with different
//! layout versions), `3` usage error. CI relies on the 1-vs-2 split to
//! tell "this build is slower" from "you diffed the wrong files".

use rvhpc::bench::record;
use rvhpc::obs::{diff_any, doc::schema_tag, json, DiffConfig, JsonValue, Kind};

fn usage_text() -> &'static str {
    "usage: obsdiff [bench|metrics|saturation] BASELINE.json CURRENT.json\n\
     \x20              [--ratio R] [--floor-us N] [--strict]\n\
     \x20      obsdiff --trajectory DIR\n\
     \x20 BASELINE.json: reference document (rvhpc-metrics/1, rvhpc-bench/1\n\
     \x20                or rvhpc-saturation/1)\n\
     \x20 CURRENT.json:  candidate document to gate\n\
     \x20 bench|metrics|saturation: optional kind assertion; the default is\n\
     \x20                to auto-detect from the schema tag (both documents\n\
     \x20                must agree)\n\
     \x20 --ratio:       quantile regression ratio (default 2.0: fail when\n\
     \x20                current > baseline * ratio); finite, at least 1.0\n\
     \x20 --floor-us:    ignore quantile growth below this absolute value\n\
     \x20                (default 200 us — scheduler noise on idle latencies);\n\
     \x20                finite, at least 0\n\
     \x20 --strict:      keys/targets present on one side only are regressions\n\
     \x20 --trajectory:  render the BENCH_<n>.json history under DIR as one\n\
     \x20                markdown table (median wall time per target) and exit\n\
     \x20 -h, --help:    print this help and exit\n\
     exit codes: 0 no regression, 1 regression, 2 malformed or\n\
     incomparable documents (bad JSON, unknown/differing schema kinds,\n\
     layout-version mismatch), 3 usage error"
}

fn usage_error(msg: &str) -> ! {
    eprintln!("obsdiff: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(3);
}

fn load(path: &str) -> JsonValue {
    json::read(path).unwrap_or_else(|e| {
        eprintln!("obsdiff: {e}");
        std::process::exit(2);
    })
}

/// A threshold flag's value: a finite number of at least `min`. A NaN or
/// infinite threshold would silently disable the gate.
fn threshold(flag: &str, arg: Option<String>, min: f64) -> f64 {
    let value: f64 = arg
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a numeric argument")));
    if !value.is_finite() {
        usage_error(&format!("{flag} must be finite"));
    }
    if value < min {
        usage_error(&format!("{flag} must be at least {min:?}"));
    }
    value
}

fn trajectory(dir: &str) -> ! {
    let entries = record::trajectory_paths(std::path::Path::new(dir), "BENCH_");
    if entries.is_empty() {
        eprintln!("obsdiff: no BENCH_<n>.json documents under {dir}");
        std::process::exit(2);
    }
    let docs: Vec<(usize, JsonValue)> = entries
        .iter()
        .map(|(n, path)| (*n, load(&path.display().to_string())))
        .collect();
    println!(
        "obsdiff: trajectory — {} document(s) under {dir}",
        docs.len()
    );
    print!("{}", record::render_trajectory(&docs));
    std::process::exit(0);
}

fn main() {
    let mut cfg = DiffConfig::default();
    let mut expect_kind: Option<Kind> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if paths.is_empty() && expect_kind.is_none() {
            expect_kind = Kind::from_keyword(&arg);
            if expect_kind.is_some() {
                continue;
            }
        }
        match arg.as_str() {
            "--ratio" => cfg.max_quantile_ratio = threshold("--ratio", args.next(), 1.0),
            "--floor-us" => cfg.floor_us = threshold("--floor-us", args.next(), 0.0),
            "--strict" => cfg.strict = true,
            "--trajectory" => {
                let dir = args
                    .next()
                    .unwrap_or_else(|| usage_error("--trajectory needs a directory"));
                trajectory(&dir);
            }
            "-h" | "--help" => {
                println!("{}", usage_text());
                return;
            }
            other if other.starts_with('-') => usage_error(&format!("unknown argument '{other}'")),
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        usage_error("expected exactly two documents: BASELINE.json CURRENT.json");
    };

    let baseline = load(baseline_path);
    let current = load(current_path);

    let kind = schema_tag(&baseline).unwrap_or("<no schema tag>");
    println!("obsdiff: {kind} — baseline {baseline_path} vs current {current_path}");

    if let Some(expected) = expect_kind {
        for (path, doc) in [(baseline_path, &baseline), (current_path, &current)] {
            if Kind::of(doc) != Some(expected) {
                eprintln!(
                    "obsdiff: {path} is {:?}, but the command line demands {:?}",
                    schema_tag(doc),
                    expected.schema()
                );
                std::process::exit(2);
            }
        }
    }

    let report = diff_any(&baseline, &current, &cfg);
    print!("{}", report.render());
    std::process::exit(report.exit_code());
}
