//! The rvhpc prediction server.
//!
//! ```text
//! serve                            # listen on 127.0.0.1:7171
//! serve --addr 127.0.0.1:0        # ephemeral port (printed on stdout)
//! serve --shards 4 --queue 128    # worker shards / admission queue depth
//! serve --pool-threads 4          # engine pool threads per shard
//! serve --deadline-ms 10000       # default per-request deadline
//! serve --metrics out.json        # write final metrics document on exit
//! serve --slow-us 5000            # dump spans of predicts slower than 5 ms
//! serve --sample-ms 1000          # background timeseries sampler interval
//! serve --trace trace.json        # record spans; write Chrome trace on exit
//! serve --faults 'seed=42,panic=5:40x3'  # deterministic fault injection
//! serve --store ./store            # persistent prediction store (warm restarts)
//! serve --cache-cap 4096           # bound the hot cache; overflow spills to disk
//! serve --reactors 4               # reactor (event loop) threads
//! serve --route 127.0.0.1:7172,127.0.0.1:7173  # router mode: forward
//!                                  # predicts to cluster nodes by ring owner
//! ```
//!
//! Speaks the newline-delimited JSON protocol of `rvhpc-serve` (see
//! README "Serving predictions"). Runs until SIGTERM/ctrl-C or an admin
//! `{"op":"quit"}` request, then drains gracefully: in-flight requests
//! finish, admitted queue entries are served, and the final
//! `rvhpc-metrics/1` document (server counters + engine cache state) is
//! written.
//!
//! Exit codes: `0` success, `2` usage error, `3` bind or metrics-write
//! failure.

use rvhpc::serve::{install_signal_drain, Server, ServerConfig};

fn usage_text() -> &'static str {
    "usage: serve [--addr HOST:PORT] [--shards N] [--queue N]\n\
     \x20            [--pool-threads N] [--deadline-ms N] [--metrics FILE]\n\
     \x20            [--slow-us N] [--sample-ms N] [--trace FILE] [--faults SPEC]\n\
     \x20            [--store DIR] [--cache-cap N] [--reactors N] [--route NODES]\n\
     \x20 --addr:         bind address (default 127.0.0.1:7171; port 0 = ephemeral)\n\
     \x20 --shards:       batching worker shards (default: up to 4)\n\
     \x20 --queue:        admission queue depth per shard (default 128)\n\
     \x20 --pool-threads: engine pool threads per shard (default: cores/shards)\n\
     \x20 --deadline-ms:  default per-request deadline (default 10000)\n\
     \x20 --metrics:      write the final rvhpc-metrics/1 document here on exit\n\
     \x20 --slow-us:      slow-request threshold in us: predicts at or over it\n\
     \x20                 reply with a span dump and land in the admin slow log\n\
     \x20                 (0 = every predict; omit to disable)\n\
     \x20 --sample-ms:    timeseries sampler interval (default 0 = sample on\n\
     \x20                 each metrics request)\n\
     \x20 --trace:        enable span recording; write a Chrome trace here on exit\n\
     \x20 --faults:       deterministic fault-injection plan, e.g.\n\
     \x20                 'seed=42,panic=5:40x3,torn=3:20,saturate=17:70x3'\n\
     \x20                 (sites: panic stall torn drop corrupt saturate store\n\
     \x20                 partition; overrides the RVHPC_FAULTS env variable)\n\
     \x20 --store:        persistent prediction-store directory: predictions are\n\
     \x20                 written through to disk and restored on the next start,\n\
     \x20                 so a restarted server replays its history without\n\
     \x20                 recomputing (overrides the RVHPC_STORE env variable)\n\
     \x20 --cache-cap:    bound the in-memory hot cache to N predictions;\n\
     \x20                 overflow evicts FIFO into the store when one is\n\
     \x20                 attached (default 0 = unbounded)\n\
     \x20 --reactors:     event-loop (reactor) threads sharing the listener\n\
     \x20                 (default: up to 4)\n\
     \x20 --route:        router mode: comma-separated node addresses; predicts\n\
     \x20                 are forwarded to their consistent-hash ring owner\n\
     \x20                 (failing over to the next owner on node death) and\n\
     \x20                 every other op is served locally\n\
     \x20 -h, --help:     print this help and exit\n\
     stops on SIGTERM/ctrl-C or an admin {\"op\":\"quit\"} request\n\
     exit codes: 0 success, 2 usage error, 3 bind/write failure"
}

fn usage_error(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a numeric argument")))
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServerConfig::default()
    };
    let mut metrics_path: Option<std::path::PathBuf> = None;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut faults_spec: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = args
                    .next()
                    .unwrap_or_else(|| usage_error("--addr needs HOST:PORT"));
            }
            "--shards" => config.shards = parse_num("--shards", args.next()),
            "--queue" => config.queue_cap = parse_num("--queue", args.next()),
            "--pool-threads" => config.pool_threads = parse_num("--pool-threads", args.next()),
            "--deadline-ms" => config.default_deadline_ms = parse_num("--deadline-ms", args.next()),
            "--slow-us" => config.slow_us = Some(parse_num("--slow-us", args.next())),
            "--sample-ms" => config.sample_interval_ms = parse_num("--sample-ms", args.next()),
            "--metrics" => {
                metrics_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--metrics needs a file path"))
                        .into(),
                );
            }
            "--trace" => {
                trace_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--trace needs a file path"))
                        .into(),
                );
            }
            "--faults" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| usage_error("--faults needs a plan spec"));
                faults_spec = Some(spec);
            }
            "--store" => {
                config.store_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--store needs a directory path"))
                        .into(),
                );
            }
            "--cache-cap" => config.hot_cache_cap = parse_num("--cache-cap", args.next()),
            "--reactors" => config.reactors = parse_num("--reactors", args.next()),
            "--route" => {
                let nodes: Vec<String> = args
                    .next()
                    .unwrap_or_else(|| usage_error("--route needs NODE1,NODE2,..."))
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if nodes.is_empty() {
                    usage_error("--route needs at least one node address");
                }
                config.route = Some(rvhpc::serve::RouterConfig::new(nodes));
            }
            "-h" | "--help" => {
                println!("{}", usage_text());
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if config.shards == 0 || config.queue_cap == 0 {
        usage_error("--shards and --queue must be at least 1");
    }
    // --store wins over the RVHPC_STORE environment variable.
    if config.store_dir.is_none() {
        if let Ok(dir) = std::env::var("RVHPC_STORE") {
            if !dir.trim().is_empty() {
                config.store_dir = Some(dir.into());
            }
        }
    }
    // --faults wins over the RVHPC_FAULTS environment variable.
    let faults_spec = faults_spec.or_else(|| std::env::var(rvhpc::faults::FAULTS_ENV).ok());
    if let Some(spec) = faults_spec.filter(|s| !s.trim().is_empty()) {
        match rvhpc::faults::FaultPlan::parse(&spec) {
            Ok(plan) => {
                eprintln!("serve: fault injection active: {spec}");
                config.faults = Some(plan);
            }
            Err(e) => usage_error(&format!("bad fault plan '{spec}': {e}")),
        }
    }

    if let Some(dir) = &config.store_dir {
        eprintln!("serve: persistent store at {}", dir.display());
    }

    install_signal_drain();
    if trace_path.is_some() {
        rvhpc::obs::set_enabled(true);
    }
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(3);
        }
    };
    // The CI smoke step and scripts parse this line for the ephemeral
    // port; keep its shape stable.
    println!("rvhpc-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    match server.run() {
        Ok(doc) => {
            eprintln!("serve: drained cleanly");
            if let Some(path) = metrics_path {
                if let Err(e) = std::fs::write(&path, doc.to_json() + "\n") {
                    eprintln!("serve: cannot write {}: {e}", path.display());
                    std::process::exit(3);
                }
            }
            if let Some(path) = trace_path {
                let data = rvhpc::obs::drain_all();
                eprintln!(
                    "serve: writing {} trace events to {} ({} dropped)",
                    data.events.len(),
                    path.display(),
                    data.dropped
                );
                if let Err(e) = rvhpc::obs::chrome::write_chrome_trace(&path, &data) {
                    eprintln!("serve: cannot write {}: {e}", path.display());
                    std::process::exit(3);
                }
            }
        }
        Err(e) => {
            eprintln!("serve: accept loop failed: {e}");
            std::process::exit(3);
        }
    }
}
