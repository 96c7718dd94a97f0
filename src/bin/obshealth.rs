//! Evaluate SLO rules against an rvhpc metrics document.
//!
//! ```text
//! obshealth --rules results/slo_rules.json --doc metrics.json
//! obshealth --rules results/slo_rules.json --addr 127.0.0.1:7171
//! obshealth --rules rules.json --doc m.json --out verdict.json
//! ```
//!
//! The rules file is an `rvhpc-slo/1` document (per-class p99 ceilings,
//! cache-hit floors, shed/restart budgets, burn-rate windows over
//! `timeseries` gauges); the metrics document is either read from disk
//! (`--doc` — a saved server or loadgen report) or fetched live from a
//! running server (`--addr`, one `{"op":"metrics"}` round trip). The
//! verdict is rendered as the same `obs-health` report the server's
//! admin `health` op returns, and `--out` saves the versioned
//! `rvhpc-health/1` JSON verdict.
//!
//! Exit codes: `0` healthy (ok or degraded), `1` failing, `2` malformed
//! rules, unreadable/invalid documents, or a required section missing
//! from the metrics document (mismatch), `3` usage error. CI relies on
//! the 1-vs-2 split to tell "the server is breaching its SLOs" from
//! "you evaluated the wrong files".

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rvhpc::obs::{evaluate, parse_rules, JsonValue};

fn usage_text() -> &'static str {
    "usage: obshealth --rules RULES.json (--doc METRICS.json | --addr HOST:PORT)\n\
     \x20                [--out FILE]\n\
     \x20 --rules: rvhpc-slo/1 rules document (required)\n\
     \x20 --doc:   saved rvhpc-metrics/1 document to evaluate\n\
     \x20 --addr:  fetch the metrics document live from a running server\n\
     \x20          (one {\"op\":\"metrics\"} round trip)\n\
     \x20 --out:   also write the rvhpc-health/1 verdict JSON to FILE\n\
     \x20 -h, --help: print this help and exit\n\
     exit codes: 0 healthy (ok or degraded), 1 failing, 2 malformed\n\
     rules / unreadable documents / required section missing (mismatch),\n\
     3 usage error"
}

fn usage_error(msg: &str) -> ! {
    eprintln!("obshealth: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(3);
}

fn load(path: &str) -> JsonValue {
    rvhpc::obs::json::read(path).unwrap_or_else(|e| {
        eprintln!("obshealth: {e}");
        std::process::exit(2);
    })
}

/// One `{"op":"metrics"}` round trip against a live server.
fn fetch_metrics(addr: &str) -> JsonValue {
    let fail = |msg: String| -> ! {
        eprintln!("obshealth: {msg}");
        std::process::exit(2);
    };
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| fail(format!("cannot clone stream: {e}")));
    writeln!(writer, "{{\"op\":\"metrics\"}}")
        .unwrap_or_else(|e| fail(format!("cannot write to {addr}: {e}")));
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .unwrap_or_else(|e| fail(format!("cannot read from {addr}: {e}")));
    let doc = rvhpc::obs::json::parse(reply.trim_end())
        .unwrap_or_else(|e| fail(format!("reply from {addr} is not valid JSON: {e}")));
    match doc.get("result") {
        Some(result) => result.clone(),
        None => fail(format!("reply from {addr} carries no result document")),
    }
}

fn main() {
    let mut rules_path: Option<String> = None;
    let mut doc_path: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => {
                rules_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--rules needs a file path")),
                );
            }
            "--doc" => {
                doc_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--doc needs a file path")),
                );
            }
            "--addr" => {
                addr = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--addr needs HOST:PORT")),
                );
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
    let Some(rules_path) = rules_path else {
        usage_error("--rules is required");
    };
    let metrics = match (doc_path, addr) {
        (Some(path), None) => load(&path),
        (None, Some(addr)) => fetch_metrics(&addr),
        _ => usage_error("exactly one of --doc or --addr is required"),
    };

    let rules = match parse_rules(&load(&rules_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("obshealth: bad SLO rules in {rules_path}: {e}");
            std::process::exit(2);
        }
    };

    let report = evaluate(&rules, &metrics);
    print!("{}", report.render());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, report.to_json().to_json() + "\n") {
            eprintln!("obshealth: cannot write {}: {e}", path.display());
            std::process::exit(3);
        }
    }
    std::process::exit(report.exit_code());
}
