//! The rvhpc load generator.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7171                 # 1000 mixed requests, 4 conns
//! loadgen --addr HOST:PORT --requests 5000 \
//!         --conns 8 --rate 2000 --mix preset \
//!         --deadline-ms 1000 --out report.json
//! ```
//!
//! Replays the deterministic request mix of `rvhpc-serve::loadgen`
//! against a running `serve` instance and prints an `rvhpc-metrics/1`
//! document with throughput, error counts, cache hit rate and
//! p50/p95/p99 latency to stdout (and `--out FILE` when given).
//!
//! `--sweep LO:HI:STEP` runs the mix once per connection count instead
//! and prints an `rvhpc-saturation/1` document: the (conns, p99) curve
//! with its knee — where the server saturates — marked.
//!
//! Exit codes: `0` all requests answered `ok`, `1` some requests failed
//! or were dropped, `2` usage error, `3` connect/write failure.

use rvhpc::serve::{loadgen, ClassMix, LoadgenConfig, Mix, SweepSpec};

fn usage_text() -> &'static str {
    "usage: loadgen --addr HOST:PORT [--requests N] [--conns N] [--rate R]\n\
     \x20              [--mix preset|mixed] [--deadline-ms N] [--sample-ms N]\n\
     \x20              [--retry] [--retry-seed N] [--class-mix SPEC] [--out FILE]\n\
     \x20              [--sweep LO:HI:STEP]\n\
     \x20 --addr:        server address (required)\n\
     \x20 --requests:    total requests to send (default 1000)\n\
     \x20 --conns:       concurrent connections (default 4)\n\
     \x20 --rate:        target aggregate requests/sec (default 0 = unthrottled)\n\
     \x20 --mix:         preset machines only, or mixed with custom\n\
     \x20                what-if descriptors (default mixed)\n\
     \x20 --deadline-ms: per-request deadline forwarded to the server\n\
     \x20 --sample-ms:   sample the server's cache hit rate every N ms during\n\
     \x20                the run (per-interval rates: warmup vs steady state;\n\
     \x20                default 0 = off)\n\
     \x20 --retry:       route requests through the reconnecting retry client\n\
     \x20                (transient failures and load-shed replies are retried\n\
     \x20                with capped backoff instead of counting as drops)\n\
     \x20 --retry-seed:  seed for the retry client's backoff jitter (default 0)\n\
     \x20 --class-mix:   weighted QoS class schedule, e.g. 'interactive:8,batch:2';\n\
     \x20                requests carry the scheduled priority field and the\n\
     \x20                report gains a per-class breakdown (default: class-less)\n\
     \x20 --sweep:       run the mix once per connection count from LO to HI\n\
     \x20                in steps of STEP and report the rvhpc-saturation/1\n\
     \x20                (conns, p99) curve with its knee marked\n\
     \x20 --out:         also write the metrics document to FILE\n\
     \x20 -h, --help:    print this help and exit\n\
     exit codes: 0 all ok, 1 errors/drops observed, 2 usage error,\n\
     \x20            3 connect/write failure"
}

fn usage_error(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a numeric argument")))
}

fn main() {
    let mut cfg = LoadgenConfig::default();
    let mut addr_given = false;
    let mut sweep: Option<SweepSpec> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                cfg.addr = args
                    .next()
                    .unwrap_or_else(|| usage_error("--addr needs HOST:PORT"));
                addr_given = true;
            }
            "--requests" => cfg.requests = parse_num("--requests", args.next()),
            "--conns" => cfg.conns = parse_num("--conns", args.next()),
            "--rate" => cfg.rate = parse_num("--rate", args.next()),
            "--deadline-ms" => cfg.deadline_ms = Some(parse_num("--deadline-ms", args.next())),
            "--sample-ms" => cfg.sample_ms = parse_num("--sample-ms", args.next()),
            "--retry" => cfg.retry = true,
            "--sweep" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| usage_error("--sweep needs LO:HI:STEP"));
                match SweepSpec::parse(&spec) {
                    Ok(parsed) => sweep = Some(parsed),
                    Err(e) => usage_error(&format!("bad sweep '{spec}': {e}")),
                }
            }
            "--retry-seed" => cfg.retry_seed = parse_num("--retry-seed", args.next()),
            "--class-mix" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| usage_error("--class-mix needs a spec"));
                match ClassMix::parse(&spec) {
                    Ok(mix) => cfg.class_mix = Some(mix),
                    Err(e) => usage_error(&format!("bad class mix '{spec}': {e}")),
                }
            }
            "--mix" => {
                cfg.mix = match args.next().as_deref() {
                    Some("preset") => Mix::Preset,
                    Some("mixed") => Mix::Mixed,
                    _ => usage_error("--mix must be 'preset' or 'mixed'"),
                };
            }
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--out needs a file path"))
                        .into(),
                );
            }
            "-h" | "--help" => {
                println!("{}", usage_text());
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if !addr_given {
        usage_error("--addr is required");
    }
    if cfg.requests == 0 || cfg.conns == 0 {
        usage_error("--requests and --conns must be at least 1");
    }

    if let Some(spec) = sweep {
        let doc = match loadgen::sweep(&cfg, spec) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("loadgen: {e}");
                std::process::exit(3);
            }
        };
        let text = doc.to_json();
        println!("{text}");
        if let Some(path) = out {
            if let Err(e) = std::fs::write(&path, text + "\n") {
                eprintln!("loadgen: cannot write {}: {e}", path.display());
                std::process::exit(3);
            }
        }
        if let Some(knee) = doc.get("knee") {
            eprintln!(
                "loadgen: sweep {}..{} step {}: knee at {} conns (p99 {} us)",
                spec.lo,
                spec.hi,
                spec.step,
                knee.get("conns").and_then(|v| v.as_f64()).unwrap_or(0.0),
                knee.get("p99_us").and_then(|v| v.as_f64()).unwrap_or(0.0)
            );
        }
        // A sweep is a measurement, not a pass/fail probe: per-step
        // errors already shaped the curve, so the exit code only
        // reflects transport-level failure.
        return;
    }

    let report = match loadgen::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(3);
        }
    };
    let text = report.doc.to_json();
    println!("{text}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            std::process::exit(3);
        }
    }
    eprintln!(
        "loadgen: {} ok, {} errors, {} dropped; cache hit rate {:.1}%; p50 {} us, p99 {} us",
        report.ok,
        report.errors,
        report.dropped,
        report.cache_hit_rate * 100.0,
        report.p50_us,
        report.p99_us
    );
    if cfg.retry {
        eprintln!(
            "loadgen: retry client: {} retries, {} reconnects",
            report.retries, report.reconnects
        );
    }
    for c in &report.classes {
        eprintln!(
            "loadgen: class {}: {} sent, {} ok, {} shed, {} errors, {} dropped; \
             p50 {} us, p99 {} us",
            c.label, c.sent, c.ok, c.shed, c.errors, c.dropped, c.p50_us, c.p99_us
        );
    }
    if !report.cache_hit_rate_samples.is_empty() {
        let s = &report.cache_hit_rate_samples;
        eprintln!(
            "loadgen: {} hit-rate samples (first {:.1}%, last {:.1}%)",
            s.len(),
            s[0] * 100.0,
            s[s.len() - 1] * 100.0
        );
    }
    if report.errors > 0 || report.dropped > 0 {
        std::process::exit(1);
    }
}
