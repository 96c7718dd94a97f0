//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce                        # everything -> results/ + stdout
//! reproduce table4                 # one experiment to stdout
//! reproduce residuals              # signed model-vs-paper error per cell
//! reproduce --metrics out.json \
//!           [BENCH] [CLASS] [THREADS]   # machine-readable metrics export
//! reproduce --jobs 8               # engine worker count (else RVHPC_JOBS)
//! reproduce bench [--filter PAT] [--out FILE] [--quick]   # curated suite
//! reproduce bench --render DOC.json --saturation SAT.json # BENCHMARKS.md
//! reproduce isa [--report] [--ablate] [--compare] [--no-zba] [--no-zbb]
//! ```
//!
//! Every model number flows through the prediction engine: the full
//! report merges all experiments into one query plan, executes it once
//! in parallel (`--jobs N`, or the `RVHPC_JOBS` environment variable,
//! or all available cores), and renders from the warm cache. Output is
//! byte-identical at any worker count. `--help` describes `--metrics`,
//! `bench` and `isa`.
//!
//! Exit codes: `0` success, `1` `isa --compare` beyond tolerance, `2`
//! usage error, `3` output write failure or unreadable/invalid input.

use std::io::Write as _;

use rvhpc::eval::engine::{set_default_jobs, Engine, Query};
use rvhpc::eval::{experiment, metrics, runner};
use rvhpc::machines::{presets, MachineId};
use rvhpc::npb::{BenchmarkId, Class};
use rvhpc::obs::Kind;

/// Write `text` to stdout. A closed or failing stdout is a write
/// failure like any other: one line on stderr, exit 3.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        fail(&format!("could not write stdout: {e}"));
    }
}

/// Report a write failure or bad input in one line and exit 3.
fn fail(msg: &str) -> ! {
    let _ = writeln!(std::io::stderr(), "reproduce: {msg}");
    std::process::exit(3);
}

fn usage_text() -> &'static str {
    "usage: reproduce [--jobs N] [EXPERIMENT]\n\
     \x20      reproduce [--jobs N] --metrics <FILE> [BENCH] [CLASS] [THREADS]\n\
     \x20      reproduce bench [--filter PAT] [--out FILE] [--quick]\n\
     \x20      reproduce bench --render DOC.json [--saturation SAT.json]\n\
     \x20      reproduce isa [--report] [--ablate] [--compare [--tolerance R]]\n\
     \x20                [--kernel K] [--class C] [--threads N]\n\
     \x20                [--no-zba] [--no-zbb] [--no-rvv] [--metrics FILE]\n\
     \x20 EXPERIMENT: table1..table8, fig1..fig6, stalls, residuals\n\
     \x20             (no argument: full report + results/ artifacts;\n\
     \x20             residuals: the signed model-vs-paper error of every\n\
     \x20             transcribed paper cell, with a MAPE per table)\n\
     \x20 --jobs N:   prediction-engine worker count (default: RVHPC_JOBS,\n\
     \x20             then all available cores); output is byte-identical\n\
     \x20             at any value\n\
     \x20 --metrics:  write the rvhpc-metrics/1 JSON document for one\n\
     \x20             predicted SG2044 run (default: cg C 64), including\n\
     \x20             the engine cache/executor counters\n\
     \x20 bench:      run the curated benchmark suite and write the next\n\
     \x20             results/BENCH_<n>.json (rvhpc-bench/1); --quick cuts\n\
     \x20             iteration counts, --filter runs matching targets only,\n\
     \x20             --out overrides the path (BENCH_<n>.json; any name with\n\
     \x20             --quick); a full run refuses a dirty git tree unless\n\
     \x20             RVHPC_GIT_REV names the revision; --render prints BENCHMARKS.md\n\
     \x20             for an existing document (--saturation appends the\n\
     \x20             rvhpc-saturation/1 sweep section from loadgen --sweep)\n\
     \x20 isa:        run the instruction-level backend's kernels (triad,\n\
     \x20             spmv, mg, ep) through decode -> CFG -> interpret ->\n\
     \x20             trace replay and print the rvr-style per-kernel table\n\
     \x20             (instret, IPC, ops/instr, branch-miss %); --ablate\n\
     \x20             sweeps single-extension drops, --compare checks the\n\
     \x20             trace-driven prediction against the profile backend\n\
     \x20             (exit 1 beyond --tolerance, default 4.0), --metrics\n\
     \x20             writes rvhpc-metrics/1 with the gated isa section\n\
     \x20 -h, --help: print this help and exit\n\
     exit codes: 0 success, 1 isa --compare beyond tolerance, 2 usage\n\
     \x20            error, 3 write failure or bad input"
}

fn usage_error(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// The value after `flag`, or a usage error saying what it needs.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &str, what: &str) -> String {
    it.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs {what}")))
        .to_string()
}

fn parse_class(s: &str) -> Class {
    Class::ALL
        .into_iter()
        .find(|c| c.name().eq_ignore_ascii_case(s))
        .unwrap_or_else(|| usage_error(&format!("unknown class '{s}'")))
}

fn write_metrics(path: &std::path::Path, rest: &[String]) {
    let bench = match rest.first() {
        None => BenchmarkId::Cg,
        Some(s) => BenchmarkId::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
            .unwrap_or_else(|| usage_error(&format!("unknown benchmark '{s}'"))),
    };
    let class = rest.get(1).map_or(Class::C, |s| parse_class(s));
    let threads: u32 = match rest.get(2) {
        None => 64,
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| usage_error(&format!("invalid thread count '{s}'"))),
    };
    if rest.len() > 3 {
        usage_error("too many arguments");
    }
    let m = presets::sg2044();
    let threads = threads.min(m.cores);
    let engine = Engine::global();
    let query = Query::headline(MachineId::Sg2044, bench, class, threads);
    let pred = engine.predict_one(query);
    let profile = engine.profile(bench, class);
    let scenario = query.scenario(&m);
    let doc =
        metrics::prediction_document_with_engine(&profile, &scenario, &pred, &engine.metrics());
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        fail(&format!("could not write {}: {e}", path.display()));
    }
    eprintln!(
        "wrote metrics for {} class {} at {} threads to {}",
        bench.name(),
        class.name(),
        scenario.threads,
        path.display()
    );
}

/// The `isa` subcommand: run the instruction-level backend's kernels
/// (decode → CFG → interpret → trace replay) and render the rvr-style
/// per-kernel table; optionally sweep extension ablations, compare
/// against the profile backend, or export gated metrics. Never returns.
fn isa_cmd(rest: &[String]) -> ! {
    use rvhpc::eval::isa_backend;
    use rvhpc::eval::{predict, Scenario};
    use rvhpc::isa::{IsaExt, KernelId};

    let mut ext = IsaExt::full();
    let mut kernels: Vec<KernelId> = KernelId::ALL.to_vec();
    let mut class = Class::C;
    let mut threads: u32 = 64;
    let mut compare = false;
    let mut tolerance = 4.0f64;
    let mut ablate = false;
    let mut metrics_out: Option<String> = None;

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => {} // reporting is the default; accepted for clarity
            "--no-zba" => ext.zba = false,
            "--no-zbb" => ext.zbb = false,
            "--no-rvv" => ext.rvv = false,
            "--ablate" => ablate = true,
            "--compare" => compare = true,
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &f64| t >= 1.0)
                    .unwrap_or_else(|| usage_error("--tolerance needs a ratio >= 1"));
            }
            "--kernel" => {
                let name = value(&mut it, arg, "a name");
                let k = KernelId::parse(&name)
                    .unwrap_or_else(|| usage_error(&format!("unknown kernel '{name}'")));
                kernels = vec![k];
            }
            "--class" => class = parse_class(&value(&mut it, arg, "a letter")),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--threads needs a positive count"));
            }
            "--metrics" => metrics_out = Some(value(&mut it, arg, "a file path")),
            other => usage_error(&format!("unknown isa argument '{other}'")),
        }
    }

    let m = presets::sg2044();
    let threads = threads.min(m.cores);
    let scenario = Scenario::headline(&m, threads);
    let runs: Vec<isa_backend::IsaRun> = kernels
        .iter()
        .map(|&k| isa_backend::run_kernel(k, class, &scenario, ext))
        .collect();
    let mut out = isa_backend::isa_report(&runs, &scenario, ext);

    if ablate {
        // Per-extension ablation: measured instret under each single-
        // extension drop, relative to the *selected* base extension set.
        out += &format!(
            "\nAblation (instret, Δ% vs {}):\n\n\
             | kernel | base | -zba | Δ% | -zbb | Δ% | -rvv | Δ% |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|\n",
            ext.label()
        );
        for &k in &kernels {
            let base = isa_backend::run_kernel(k, class, &scenario, ext).character;
            let drop = |e: IsaExt| isa_backend::run_kernel(k, class, &scenario, e).character;
            let no_zba = drop(IsaExt { zba: false, ..ext });
            let no_zbb = drop(IsaExt { zbb: false, ..ext });
            let no_rvv = drop(IsaExt { rvv: false, ..ext });
            let delta = |i: u64| 100.0 * (i as f64 - base.instret as f64) / base.instret as f64;
            out += &format!(
                "| {} | {} | {} | {:+.1} | {} | {:+.1} | {} | {:+.1} |\n",
                k.name(),
                base.instret,
                no_zba.instret,
                delta(no_zba.instret),
                no_zbb.instret,
                delta(no_zbb.instret),
                no_rvv.instret,
                delta(no_rvv.instret),
            );
        }
    }

    if let Some(path) = metrics_out {
        // The gated `isa` section rides on a standard rvhpc-metrics/1
        // document built from the first kernel's synthesized run; plain
        // `--metrics` documents never carry it.
        let run = &runs[0];
        let doc = metrics::prediction_document(&run.profile, &scenario, &run.prediction);
        let doc =
            metrics::with_section(doc, "isa", isa_backend::isa_section(&runs, &scenario, ext));
        if let Err(e) = std::fs::write(&path, doc.to_json()) {
            fail(&format!("could not write {path}: {e}"));
        }
        eprintln!("wrote isa metrics for {} kernel(s) to {path}", runs.len());
    }

    let mut worst = 1.0f64;
    if compare {
        out += &format!(
            "\nBackend agreement (class {}, {} threads):\n\n\
             | kernel | profile s | isa s | ratio | tolerance | verdict |\n\
             |---|---:|---:|---:|---:|---|\n",
            class.name(),
            scenario.threads
        );
        for r in &runs {
            let template = match r.kernel {
                KernelId::Triad => isa_backend::triad_profile(class),
                _ => rvhpc::npb::profile(isa_backend::bench_for(r.kernel), class),
            };
            let analytic = predict(&template, &scenario);
            let ratio = (r.prediction.seconds / analytic.seconds)
                .max(analytic.seconds / r.prediction.seconds);
            worst = worst.max(ratio);
            out += &format!(
                "| {} | {:.4} | {:.4} | {:.2} | {:.2} | {} |\n",
                r.kernel.name(),
                analytic.seconds,
                r.prediction.seconds,
                ratio,
                tolerance,
                if ratio <= tolerance { "ok" } else { "FAIL" },
            );
        }
    }
    emit(&out);
    if worst > tolerance {
        eprintln!(
            "reproduce: isa backend diverges from profile backend \
             (worst ratio {worst:.2} > tolerance {tolerance:.2})"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Whether `git status` reports anything uncommitted (false where git
/// or a repository is absent — the document then says `unknown`).
fn git_tree_is_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .is_ok_and(|out| out.status.success() && !out.stdout.is_empty())
}

/// The `bench` subcommand: run the curated suite and append the next
/// document to the benchmark trajectory, or re-render `BENCHMARKS.md`
/// from a committed document. Never returns.
fn bench(rest: &[String]) -> ! {
    use rvhpc::bench::{harness, record};

    let mut cfg = harness::HarnessConfig::default();
    let mut out: Option<String> = None;
    let mut render: Option<String> = None;
    let mut saturation: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--filter" => cfg.filter = Some(value(&mut it, arg, "a pattern")),
            "--out" => out = Some(value(&mut it, arg, "a file path")),
            "--render" => render = Some(value(&mut it, arg, "a document path")),
            "--saturation" => saturation = Some(value(&mut it, arg, "a document path")),
            other => usage_error(&format!("unknown bench argument '{other}'")),
        }
    }

    if let Some(path) = render {
        let load = |path: &str, kind: Kind| -> rvhpc::obs::JsonValue {
            let doc = rvhpc::obs::json::read(path).unwrap_or_else(|e| fail(&e.to_string()));
            if let Err(e) = kind.validate(&doc) {
                fail(&format!(
                    "{path} is not a valid {} document: {e}",
                    kind.schema()
                ));
            }
            doc
        };
        let doc = load(&path, Kind::Bench);
        let sat = saturation.map(|sat_path| load(&sat_path, Kind::Saturation));
        emit(&record::render_markdown(&doc, sat.as_ref()));
        std::process::exit(0);
    } else if saturation.is_some() {
        usage_error("--saturation only makes sense together with --render");
    }

    // Provenance is settled before anything runs: the document's index
    // is its file name's, and a full-mode document — the kind that gets
    // committed — is stamped with a revision that really is its code.
    let results_dir = std::path::Path::new("results");
    let (path, index) = match out {
        Some(p) => {
            let path = std::path::PathBuf::from(p);
            let index = match record::index_of(&path, "BENCH_") {
                Some(index) => index,
                // A quick run is a scratch document (CI's gate input):
                // any name, numbered as what it would be if committed.
                None if cfg.quick => record::next_index(results_dir),
                None => usage_error(
                    "a full-mode document joins the trajectory: name it BENCH_<n>.json \
                     (or drop --out for the next free index)",
                ),
            };
            (path, index)
        }
        None => {
            let index = record::next_index(results_dir);
            (record::bench_path(results_dir, index), index)
        }
    };
    let rev_given = std::env::var("RVHPC_GIT_REV").is_ok_and(|rev| !rev.is_empty());
    if !cfg.quick && !rev_given && git_tree_is_dirty() {
        usage_error(
            "the working tree has uncommitted changes, so HEAD is not the code being measured: \
             commit first, or name the revision in RVHPC_GIT_REV",
        );
    }

    let results = harness::run(&cfg);
    if results.is_empty() {
        usage_error(&format!(
            "--filter {:?} matched no targets (suite: {})",
            cfg.filter.as_deref().unwrap_or(""),
            harness::TARGET_NAMES.join(", ")
        ));
    }
    let doc = record::build_document(&results, index, cfg.quick);
    if let Err(e) = Kind::Bench.validate(&doc) {
        fail(&format!("generated document failed validation: {e}"));
    }
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&path, doc.to_json()) {
        fail(&format!("could not write {}: {e}", path.display()));
    }
    emit(&format!(
        "bench: {} document {index} ({} target(s)) -> {}\n\n{}",
        if cfg.quick { "quick" } else { "full" },
        results.len(),
        path.display(),
        record::render_table(&doc)
    ));
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // `--jobs N` is a global option: extract it wherever it appears.
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" {
            let Some(v) = args.get(i + 1) else {
                usage_error("--jobs requires a worker count");
            };
            let jobs: usize = v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| usage_error(&format!("invalid worker count '{v}'")));
            set_default_jobs(jobs);
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }

    match args.first().map(String::as_str) {
        Some("-h") | Some("--help") => {
            emit(&format!("{}\n", usage_text()));
            return;
        }
        Some("--metrics") => {
            let Some(path) = args.get(1) else {
                usage_error("--metrics requires a file argument");
            };
            write_metrics(std::path::Path::new(path), &args[2..]);
            return;
        }
        Some("bench") => bench(&args[1..]),
        Some("isa") => isa_cmd(&args[1..]),
        Some(slug) if slug.starts_with('-') => {
            usage_error(&format!("unknown option '{slug}'"));
        }
        Some(slug) => {
            match experiment::section(slug) {
                Some(section) => emit(&format!("{}\n", (section.body)())),
                None => usage_error(&format!("unknown experiment '{slug}'")),
            }
            return;
        }
        None => {}
    }
    let report = runner::full_report();
    let dir = std::path::Path::new("results");
    match runner::write_artifacts(dir, &report) {
        Ok(files) => eprintln!("wrote {} artifacts to {}", files.len(), dir.display()),
        Err(e) => fail(&format!(
            "could not write artifacts to {}: {e}",
            dir.display()
        )),
    }
    emit(&format!("{report}\n"));
}
