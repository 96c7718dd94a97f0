//! The curated benchmark suite behind `reproduce bench`.
//!
//! This harness is built for a *committed
//! trajectory*: deterministic iteration counts (fixed per target and
//! mode, never adaptive), monotonic-clock timing of every iteration,
//! and exact wall statistics — so two documents from the same machine
//! differ only by genuine performance change plus scheduler noise, and
//! `obsdiff` can gate the difference.
//!
//! The suite covers the three layers every perf PR touches:
//!
//! * **host kernels** — STREAM triad, CG SpMV, MG residual, IS ranking:
//!   the real Rust kernels the paper's tables are calibrated against.
//! * **engine** — cold and warm batch resolution through the prediction
//!   engine (the serve worker hot path).
//! * **serve** — request p50/p99 against an in-process loopback server
//!   over real TCP, one sample per request.
//! * **isa** — the instruction-level backend: RV64 decode throughput and
//!   per-kernel interpret throughput (both in Minstr/s), the costs that
//!   bound `Backend::Isa` characterization latency.
//!
//! Parallel targets additionally run a short *attribution pass* with
//! the obs recorder enabled (timing passes always run untraced) and
//! attach the stall summary — barrier waits, chunk acquisitions, region
//! spans — to their section of the document.
//!
//! Quick mode (`reproduce bench --quick`) shrinks iteration
//! counts only, never working-set sizes, so per-iteration wall times
//! stay comparable between a quick CI run and a full baseline.

use std::time::Instant;

use rvhpc_core::engine::{Engine, Plan, Query};
use rvhpc_isa::kernels::MAX_STEPS;
use rvhpc_isa::{build, decode_program, run as isa_run, ExtSet, KernelId, NullTracer};
use rvhpc_machines::MachineId;
use rvhpc_npb::common::class::{cg_params, is_params};
use rvhpc_npb::mg::ResidualBench;
use rvhpc_npb::{cg, is, Class};
use rvhpc_obs::{self as obs, JsonValue};
use rvhpc_parallel::{Pool, SyncSlice};

/// Harness configuration, resolved by `reproduce bench`.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Quick mode: fewer iterations, identical working sets.
    pub quick: bool,
    /// Only run targets whose name contains this substring.
    pub filter: Option<String>,
    /// Worker-thread count for parallel kernels and engine pools.
    pub jobs: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            quick: false,
            filter: None,
            // The curated kernels are bandwidth-bound well before 4
            // threads; a fixed small pool keeps stall attribution
            // readable and run-to-run variance low.
            jobs: cores.clamp(1, 4),
        }
    }
}

/// Work performed per measured iteration, for derived throughput.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    /// Display unit (`GB/s`, `Mflop/s`, ...).
    pub unit: &'static str,
    /// Base units (bytes, flops, points, keys, queries, requests) per
    /// measured iteration.
    pub per_iter: f64,
    /// Divisor mapping base-units/second onto `unit`.
    pub scale: f64,
}

impl Work {
    /// Throughput in `unit` for one iteration taking `us` microseconds.
    pub(crate) fn at_us(&self, us: f64) -> f64 {
        if us <= 0.0 {
            return 0.0;
        }
        self.per_iter / (us / 1e6) / self.scale
    }
}

/// One target's measured outcome.
#[derive(Debug, Clone)]
pub struct TargetResult {
    /// Stable target name (`host_stream_triad`, ...).
    pub name: &'static str,
    /// Suite layer: `host`, `engine` or `serve`.
    pub group: &'static str,
    /// Whether the target runs on the workspace pool (and so gets a
    /// stall-attribution pass).
    pub parallel: bool,
    /// Wall time of each measured iteration, microseconds.
    pub samples_us: Vec<u64>,
    /// Work per iteration, when the kernel defines one.
    pub work: Option<Work>,
    /// Stall-attribution summary from the traced pass (parallel only).
    pub stalls: Option<JsonValue>,
}

/// Deterministic iteration counts for one target.
struct Iters {
    warmup: usize,
    measured: usize,
    /// Traced attribution iterations (0 = no attribution pass).
    attribution: usize,
}

fn iters(cfg: &HarnessConfig, full: usize, quick: usize) -> Iters {
    let measured = if cfg.quick { quick } else { full };
    Iters {
        warmup: if cfg.quick { 1 } else { 2 },
        measured,
        attribution: if cfg.quick { 1 } else { 2 },
    }
}

/// Time `measured` iterations of `f`, preceded by untimed warmups.
fn time_iters(it: &Iters, mut f: impl FnMut()) -> Vec<u64> {
    for _ in 0..it.warmup {
        f();
    }
    (0..it.measured)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_micros() as u64
        })
        .collect()
}

/// Run `iters` traced iterations of `f` and summarize the stall events.
/// The timing pass is already done — this pass exists only so the
/// document can attribute where parallel time goes (obs overhead never
/// contaminates the wall samples).
fn stall_snapshot(iterations: usize, mut f: impl FnMut()) -> JsonValue {
    // `drain_all` snapshots the rings non-destructively, so earlier
    // targets' traced events are still resident. Take a start-time
    // watermark first and keep only events recorded after it.
    let watermark = obs::drain_all()
        .events
        .last()
        .map(|e| e.start_us)
        .unwrap_or(0);
    obs::set_enabled(true);
    for _ in 0..iterations {
        f();
    }
    obs::set_enabled(false);
    let trace = obs::drain_all();
    let fresh: Vec<obs::Event> = trace
        .events
        .into_iter()
        .filter(|e| e.start_us > watermark)
        .collect();
    let summary = obs::summarize(&fresh);
    JsonValue::object([
        ("iterations".to_string(), JsonValue::from(iterations)),
        ("summary".to_string(), summary.to_json()),
    ])
}

/// The deterministic query grid shared by the engine targets — the same
/// shape the serve load generator replays.
pub(crate) fn grid_plan(n: usize) -> Plan {
    const THREADS: [u32; 4] = [1, 8, 32, 64];
    let mut plan = Plan::new();
    for k in 0..n {
        let machine = MachineId::ALL[k % MachineId::ALL.len()];
        let bench = rvhpc_npb::BenchmarkId::ALL[(k / 3) % rvhpc_npb::BenchmarkId::ALL.len()];
        let class = Class::ALL[(k / 7) % Class::ALL.len()];
        let threads = THREADS[(k / 5) % THREADS.len()];
        plan.push(Query::paper(machine, bench, class, threads));
    }
    plan
}

fn host_stream_triad(cfg: &HarnessConfig) -> TargetResult {
    // 512 Ki doubles per array: 12 MiB of traffic per triad, well past
    // L2 on any host this runs on, small enough for CI runners.
    let n = 1usize << 19;
    let scalar = 3.0f64;
    let mut a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let c = vec![1.5f64; n];
    let pool = Pool::new(cfg.jobs);
    let it = iters(cfg, 40, 10);
    let mut triad = || {
        let asl = SyncSlice::new(&mut a);
        pool.run(|team| {
            team.phase("triad", || {
                for i in team.static_range(0, n) {
                    // SAFETY: static ranges partition 0..n disjointly.
                    unsafe { asl.set(i, b[i] + scalar * c[i]) };
                }
            });
        });
    };
    let samples_us = time_iters(&it, &mut triad);
    let stalls = Some(stall_snapshot(it.attribution, &mut triad));
    std::hint::black_box(&a);
    TargetResult {
        name: "host_stream_triad",
        group: "host",
        parallel: true,
        samples_us,
        work: Some(Work {
            unit: "GB/s",
            per_iter: (24 * n) as f64,
            scale: 1e9,
        }),
        stalls,
    }
}

fn host_cg_spmv(cfg: &HarnessConfig) -> TargetResult {
    // Class S matrix (order 1400): one SpMV is tens of µs, so batch 8
    // per sample to stay comfortably above timer resolution.
    const INNER: usize = 8;
    let matrix = cg::makea(cg_params(Class::S));
    let x = vec![1.0f64; matrix.n];
    let mut y = vec![0.0f64; matrix.n];
    let it = iters(cfg, 60, 15);
    let samples_us = time_iters(&it, || {
        for _ in 0..INNER {
            matrix.spmv(&x, &mut y);
            std::hint::black_box(&y);
        }
    });
    TargetResult {
        name: "host_cg_spmv",
        group: "host",
        parallel: false,
        samples_us,
        work: Some(Work {
            unit: "Mflop/s",
            per_iter: (INNER * 2 * matrix.nnz()) as f64,
            scale: 1e6,
        }),
        stalls: None,
    }
}

fn host_mg_resid(cfg: &HarnessConfig) -> TargetResult {
    const INNER: usize = 2;
    let pool = Pool::new(cfg.jobs);
    let mut bench = ResidualBench::new(Class::S, &pool);
    let points = bench.points();
    let it = iters(cfg, 40, 10);
    let step = |bench: &mut ResidualBench| {
        for _ in 0..INNER {
            bench.step(&pool);
        }
    };
    let samples_us = time_iters(&it, || step(&mut bench));
    let stalls = Some(stall_snapshot(it.attribution, || step(&mut bench)));
    std::hint::black_box(bench.norm(&pool));
    TargetResult {
        name: "host_mg_resid",
        group: "host",
        parallel: true,
        samples_us,
        work: Some(Work {
            unit: "Mpt/s",
            per_iter: (INNER * points) as f64,
            scale: 1e6,
        }),
        stalls,
    }
}

fn host_is_rank(cfg: &HarnessConfig) -> TargetResult {
    let params = is_params(Class::S);
    let keys_ranked = (params.total_keys() as u64 * params.iterations as u64) as f64;
    let pool = Pool::new(cfg.jobs);
    let it = iters(cfg, 15, 4);
    let mut run = || {
        let out = is::compute(params, &pool);
        assert!(out.fully_sorted, "IS verification failed during bench");
    };
    let samples_us = time_iters(&it, &mut run);
    let stalls = Some(stall_snapshot(it.attribution, &mut run));
    TargetResult {
        name: "host_is_rank",
        group: "host",
        parallel: true,
        samples_us,
        work: Some(Work {
            unit: "Mkey/s",
            per_iter: keys_ranked,
            scale: 1e6,
        }),
        stalls,
    }
}

fn engine_batch_cold(cfg: &HarnessConfig) -> TargetResult {
    const QUERIES: usize = 32;
    let plan = grid_plan(QUERIES);
    let pool = Pool::new(cfg.jobs);
    let it = iters(cfg, 12, 4);
    let mut run = || {
        // Fresh engine: every query misses, the whole model runs.
        let out = Engine::new().execute_on(&plan, &pool);
        assert_eq!(out.len(), QUERIES);
    };
    let samples_us = time_iters(&it, &mut run);
    let stalls = Some(stall_snapshot(it.attribution, &mut run));
    TargetResult {
        name: "engine_batch_cold",
        group: "engine",
        parallel: true,
        samples_us,
        work: Some(Work {
            unit: "query/s",
            per_iter: QUERIES as f64,
            scale: 1.0,
        }),
        stalls,
    }
}

fn engine_batch_warm(cfg: &HarnessConfig) -> TargetResult {
    const QUERIES: usize = 32;
    const INNER: usize = 8;
    let plan = grid_plan(QUERIES);
    let pool = Pool::new(cfg.jobs);
    let engine = Engine::new();
    engine.execute_on(&plan, &pool); // warm every cache line once
    let it = iters(cfg, 40, 10);
    let samples_us = time_iters(&it, || {
        for _ in 0..INNER {
            let out = engine.execute_on(&plan, &pool);
            std::hint::black_box(out.len());
        }
    });
    TargetResult {
        name: "engine_batch_warm",
        group: "engine",
        parallel: false, // pure cache service; the pool never runs
        samples_us,
        work: Some(Work {
            unit: "query/s",
            per_iter: (INNER * QUERIES) as f64,
            scale: 1.0,
        }),
        stalls: None,
    }
}

fn serve_predict_loopback(cfg: &HarnessConfig) -> TargetResult {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use rvhpc_serve::{reset_drain, Server, ServerConfig};

    // A small rotating mix: after the warm-up cycle every request is a
    // cache hit, so the target measures the serving path (parse, queue,
    // dedup, cache probe, reply), not the model.
    const MIX: [&str; 4] = [
        r#"{"op":"predict","bench":"cg","class":"A","threads":16,"machine":"sg2044"}"#,
        r#"{"op":"predict","bench":"is","class":"B","threads":32,"machine":"sg2042"}"#,
        r#"{"op":"predict","bench":"mg","class":"A","threads":8,"machine":"sg2044"}"#,
        r#"{"op":"predict","bench":"ep","class":"C","threads":64,"machine":"epyc7742"}"#,
    ];
    let requests = if cfg.quick { 100 } else { 400 };

    reset_drain();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        pool_threads: cfg.jobs.div_ceil(2),
        sample_interval_ms: 0,
        slow_us: None,
        ..ServerConfig::default()
    })
    .expect("bind loopback bench server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("bench server run"));

    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let mut roundtrip = |line: &str| {
        writeln!(writer, "{line}").expect("write request");
        reply.clear();
        reader.read_line(&mut reply).expect("read reply");
        assert!(
            reply.contains("\"ok\":true"),
            "bench request failed: {reply}"
        );
    };

    // Warm the cache: one pass over the mix, untimed.
    for line in MIX {
        roundtrip(line);
    }
    let samples_us: Vec<u64> = (0..requests)
        .map(|k| {
            let t = Instant::now();
            roundtrip(MIX[k % MIX.len()]);
            t.elapsed().as_micros() as u64
        })
        .collect();

    writeln!(writer, r#"{{"op":"quit"}}"#).expect("write quit");
    reply.clear();
    let _ = reader.read_line(&mut reply);
    drop(reader);
    drop(writer);
    handle.join().expect("bench server thread");

    TargetResult {
        name: "serve_predict_loopback",
        group: "serve",
        parallel: false,
        samples_us,
        work: Some(Work {
            unit: "req/s",
            per_iter: 1.0,
            scale: 1.0,
        }),
        stalls: None,
    }
}

fn isa_decode(cfg: &HarnessConfig) -> TargetResult {
    // Concatenate all four kernels' code and replicate it to ~64 KiB so
    // one decode pass is comfortably above timer resolution; the mix
    // (compressed + full-width + vector) matches what characterization
    // actually decodes.
    let ext = ExtSet::full();
    let unit: Vec<u8> = KernelId::ALL
        .iter()
        .flat_map(|&k| build(k, &ext, 128).code)
        .collect();
    let mut bytes = Vec::new();
    while bytes.len() < 64 * 1024 {
        bytes.extend_from_slice(&unit);
    }
    let instrs = decode_program(&bytes, 0x1000, &ext).instrs.len();
    const INNER: usize = 8;
    let it = iters(cfg, 60, 15);
    let samples_us = time_iters(&it, || {
        for _ in 0..INNER {
            let prog = decode_program(&bytes, 0x1000, &ext);
            std::hint::black_box(prog.instrs.len());
        }
    });
    TargetResult {
        name: "isa_decode",
        group: "isa",
        parallel: false,
        samples_us,
        work: Some(Work {
            unit: "Minstr/s",
            per_iter: (INNER * instrs) as f64,
            scale: 1e6,
        }),
        stalls: None,
    }
}

/// Interpret one kernel end to end (fresh CPU state per iteration, no
/// tracer) and report retired guest instructions per second.
fn isa_interp(cfg: &HarnessConfig, kernel: KernelId, name: &'static str) -> TargetResult {
    let ext = ExtSet::full();
    let built = build(kernel, &ext, 128);
    let prog = built.decode(&ext);
    let mut instret = 0u64;
    let it = iters(cfg, 20, 5);
    let samples_us = time_iters(&it, || {
        let mut cpu = built.cpu.clone();
        let stats = isa_run(&mut cpu, &prog, &mut NullTracer, MAX_STEPS)
            .expect("bench kernel must not trap");
        instret = stats.instret;
        std::hint::black_box(cpu.pc);
    });
    TargetResult {
        name,
        group: "isa",
        parallel: false,
        samples_us,
        work: Some(Work {
            unit: "Minstr/s",
            per_iter: instret as f64,
            scale: 1e6,
        }),
        stalls: None,
    }
}

fn isa_interp_triad(cfg: &HarnessConfig) -> TargetResult {
    isa_interp(cfg, KernelId::Triad, "isa_interp_triad")
}

fn isa_interp_spmv(cfg: &HarnessConfig) -> TargetResult {
    isa_interp(cfg, KernelId::Spmv, "isa_interp_spmv")
}

fn isa_interp_mg(cfg: &HarnessConfig) -> TargetResult {
    isa_interp(cfg, KernelId::MgResid, "isa_interp_mg")
}

fn isa_interp_ep(cfg: &HarnessConfig) -> TargetResult {
    isa_interp(cfg, KernelId::EpAccum, "isa_interp_ep")
}

/// Every target in suite order.
pub const TARGET_NAMES: [&str; 12] = [
    "host_stream_triad",
    "host_cg_spmv",
    "host_mg_resid",
    "host_is_rank",
    "engine_batch_cold",
    "engine_batch_warm",
    "serve_predict_loopback",
    "isa_decode",
    "isa_interp_triad",
    "isa_interp_spmv",
    "isa_interp_mg",
    "isa_interp_ep",
];

/// A named target-runner entry in the suite table.
type Runner = (&'static str, fn(&HarnessConfig) -> TargetResult);

/// Run the curated suite (or the `filter`ed subset) and return per-target
/// results in suite order.
pub fn run(cfg: &HarnessConfig) -> Vec<TargetResult> {
    let runners: [Runner; 12] = [
        ("host_stream_triad", host_stream_triad),
        ("host_cg_spmv", host_cg_spmv),
        ("host_mg_resid", host_mg_resid),
        ("host_is_rank", host_is_rank),
        ("engine_batch_cold", engine_batch_cold),
        ("engine_batch_warm", engine_batch_warm),
        ("serve_predict_loopback", serve_predict_loopback),
        ("isa_decode", isa_decode),
        ("isa_interp_triad", isa_interp_triad),
        ("isa_interp_spmv", isa_interp_spmv),
        ("isa_interp_mg", isa_interp_mg),
        ("isa_interp_ep", isa_interp_ep),
    ];
    let was_enabled = obs::enabled();
    obs::set_enabled(false); // timing passes must run untraced
    let results: Vec<TargetResult> = runners
        .iter()
        .filter(|(name, _)| match &cfg.filter {
            Some(pat) => name.contains(pat.as_str()),
            None => true,
        })
        .map(|(name, runner)| {
            eprintln!("bench: running {name} ...");
            runner(cfg)
        })
        .collect();
    obs::set_enabled(was_enabled);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_match_runners_and_filter_selects_subsets() {
        let cfg = HarnessConfig {
            quick: true,
            filter: Some("host_cg_spmv".to_string()),
            jobs: 1,
        };
        let results = run(&cfg);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.name, "host_cg_spmv");
        assert_eq!(r.samples_us.len(), 15.min(if cfg.quick { 15 } else { 60 }));
        assert!(r.work.is_some());
        assert!(!r.parallel && r.stalls.is_none());
    }

    #[test]
    fn work_throughput_is_unit_scaled() {
        let w = Work {
            unit: "GB/s",
            per_iter: 12e6, // 12 MB
            scale: 1e9,
        };
        // 12 MB in 1 ms = 12 GB/s.
        assert!((w.at_us(1000.0) - 12.0).abs() < 1e-9);
        assert_eq!(w.at_us(0.0), 0.0);
    }
}
