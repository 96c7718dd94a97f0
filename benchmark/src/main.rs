//! `rvhpc-benchmark`: one workload per process, measured end to end
//! (`--trace 0`) or layer by layer (`--trace 1`). See README.md.

mod accuracy;
mod compare;
mod gen;
mod isa;
mod layers_bench;
mod layers_core;
mod layers_serve;
mod metrics;
mod model;
mod npb;
mod rng;
mod serve;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::time::Instant;

use metrics::{Def, Report, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "serve_hot",
    "serve_churn",
    "serve_routed",
    "model_sweep",
    "isa_char",
    "npb_host",
];

/// `--seconds` the fixed operation counts are sized for.
const REFERENCE_SECONDS: f64 = 10.0;
/// Set-up runs this many times per process; `setup_s` is the median.
const SETUPS: usize = 3;
/// The traced run repeats the workload at this share of its counts.
pub const TRACE_SHARE: f64 = 0.25;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Operation counts are the reference counts times this; never
    /// adapted to how fast the machine turns out to be.
    pub scale: f64,
    pub trace: bool,
    /// CPUs the process may use, read before any pinning.
    pub nproc: usize,
}

impl Args {
    /// `base` operations at the reference run length, scaled to this
    /// run's and rounded to a positive multiple of `multiple`.
    pub fn count(&self, base: usize, multiple: usize) -> usize {
        let share = if self.trace { TRACE_SHARE } else { 1.0 };
        let n = (base as f64 * self.scale * share / multiple as f64).round() as usize;
        n.max(1) * multiple
    }

    /// Connections, generator threads and pool threads: never more than
    /// the CPUs there are.
    pub fn lanes(&self) -> usize {
        self.nproc.min(2)
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    pub report: Report,
}

/// Run `setup` [`SETUPS`] times, tearing all but the last down again;
/// returns the last state and the median set-up time in seconds.
pub fn setup_median<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some(previous) = state.take() {
            teardown(previous);
        }
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), stats::median(&times))
}

/// `benchmark/out/`: traces and scratch files, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory under [`out_dir`] that is unique to this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Write the traced run's spans, one `(tid, spans)` per thread, under
/// [`out_dir`] and say where.
pub fn write_trace(args: &Args, threads: &[(u32, &[spans::Span])]) {
    let file = format!("{}-seed{}.trace.json", args.workload, args.seed);
    let path = out_dir().join(file);
    spans::write_chrome_trace(&path, threads).expect("write trace");
    println!("trace written to {}", path.display());
}

fn usage() -> ! {
    eprintln!(
        "usage: rvhpc-benchmark --workload <{}> --seed <u64> [--seconds <n>] [--trace <0|1>]\n\
         \x20      rvhpc-benchmark --compare <dir-a> <dir-b>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = REFERENCE_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => match value().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    Args {
        workload,
        seed,
        scale: seconds / REFERENCE_SECONDS,
        trace,
        nproc: sys::allowed_cpus().len(),
    }
}

fn print_table(title: &str, report: &Report, defs: &[Def]) {
    println!("{title}");
    println!(
        "{:<36} {:>18} {:<10} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for (def, value, samples) in report.rows(defs) {
        println!(
            "{:<36} {:>18.6} {:<10} {:>9}",
            def.name, value, def.unit, samples
        );
    }
}

/// The contract's result line: every metric of `defs`, by name.
fn result_line(outcome: &Outcome, defs: &[Def]) -> String {
    let metrics: Vec<String> = outcome
        .report
        .rows(defs)
        .map(|(d, value, _)| {
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

/// Nonzero as soon as one checked output was wrong.
fn exit_code(outcome: &Outcome) -> i32 {
    i32::from(outcome.failed != 0 || outcome.attempted == 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--compare") {
        let (Some(a), Some(b)) = (argv.get(2), argv.get(3)) else {
            usage()
        };
        std::process::exit(compare::run(a.as_ref(), b.as_ref()));
    }
    let args = parse_args();
    // Traces must come from this binary's spans alone.
    rvhpc_obs::set_enabled(false);

    // One CPU for everything the process will ever spawn, so no number
    // depends on where the kernel happens to place a thread. npb_host
    // measures the parallel runtime and is the one exception.
    let placement = if args.workload == "npb_host" {
        format!("unpinned, {} pool threads", args.lanes())
    } else {
        format!("pinned to CPU {}", sys::pin_to_lowest_cpu())
    };
    println!(
        "rvhpc-benchmark workload={} seed={} scale={} trace={} nproc={} ({placement})",
        args.workload, args.seed, args.scale, args.trace as u8, args.nproc
    );

    let mut outcome = match args.workload.as_str() {
        "serve_hot" | "serve_churn" | "serve_routed" => serve::run(&args),
        "model_sweep" => model::run(&args),
        "isa_char" => isa::run(&args),
        "npb_host" => npb::run(&args),
        _ => unreachable!("workload was validated"),
    };

    let defs = if args.trace {
        PER_LAYER
    } else {
        // Accuracy of the model and agreement of its two backends hold
        // for the code, not for a workload: every run states them, so a
        // change that buys speed with different arithmetic shows on
        // whichever workload it was measured on.
        let (mape, cells) = accuracy::model_mape_pct();
        outcome.report.set("model_mape_pct", mape, cells);
        let (ratio, kernels) = accuracy::isa_backend_ratio_max();
        outcome.report.set("isa_backend_ratio_max", ratio, kernels);
        outcome.report.set("peak_rss_mb", sys::peak_rss_mb(), 1);
        END_TO_END
    };
    let title = format!(
        "{} seed {} — {}",
        args.workload,
        args.seed,
        if args.trace {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        }
    );
    print_table(&title, &outcome.report, defs);
    println!("{}", result_line(&outcome, defs));
    std::process::exit(exit_code(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(failed: u64) -> Outcome {
        let mut report = Report::default();
        report.set("setup_s", 0.25, 3);
        Outcome {
            attempted: 1000,
            failed,
            report,
        }
    }

    #[test]
    fn any_failed_check_fails_the_run() {
        assert_eq!(exit_code(&outcome(0)), 0);
        assert_eq!(exit_code(&outcome(1)), 1);
        assert!(result_line(&outcome(1), END_TO_END).starts_with("{\"correct\":false,"));
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result_line(&outcome(0), END_TO_END);
        let doc = rvhpc_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(1000.0));
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let metrics = doc.get("metrics").unwrap();
        for d in END_TO_END {
            let m = metrics.get(d.name).expect(d.name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(d.unit));
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
        }
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }

    #[test]
    fn counts_scale_with_seconds_and_keep_their_multiple() {
        let args = |scale, trace| Args {
            workload: "serve_hot".into(),
            seed: 1,
            scale,
            trace,
            nproc: 8,
        };
        assert_eq!(args(1.0, false).count(300_000, 10), 300_000);
        assert_eq!(args(0.5, false).count(300_000, 10), 150_000);
        assert_eq!(args(1.0, true).count(300_000, 20), 75_000);
        assert_eq!(args(0.001, false).count(7, 1), 1);
        assert_eq!(args(1.0, false).lanes(), 2);
    }
}
