//! `npb_host`: the paper's own workload — the real NPB ports on the
//! `rvhpc-parallel` runtime, timed to a verified solution.

use std::time::Instant;

use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_parallel::Pool;

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::Better;
use crate::{layers_bench, stats, sys, Args, Outcome};

/// Passes over the suite at the reference run length.
const BASE_PASSES: usize = 7;

/// Kernels at class W, the rest at class S: about 1.3 s per pass on the
/// reference sandbox, none of the eight under 10 ms.
const SUITE: [(BenchmarkId, Class, &str); 8] = [
    (BenchmarkId::Is, Class::W, "npb.is.mops"),
    (BenchmarkId::Mg, Class::W, "npb.mg.mops"),
    (BenchmarkId::Ep, Class::S, "npb.ep.mops"),
    (BenchmarkId::Cg, Class::W, "npb.cg.mops"),
    (BenchmarkId::Ft, Class::W, "npb.ft.mops"),
    (BenchmarkId::Bt, Class::S, "npb.bt.mops"),
    (BenchmarkId::Lu, Class::S, "npb.lu.mops"),
    (BenchmarkId::Sp, Class::S, "npb.sp.mops"),
];

/// A pool and one untimed pass at class S over all eight.
fn setup(threads: usize) -> Pool {
    let pool = Pool::new(threads);
    for (bench, ..) in SUITE {
        std::hint::black_box(rvhpc_npb::run(bench, Class::S, &pool).mops);
    }
    pool
}

struct Passes {
    /// `seconds[b][pass]`: NPB-timed seconds of benchmark `b`.
    seconds: Vec<Vec<f64>>,
    /// Official operation count of each benchmark, in millions.
    mops_count: Vec<f64>,
    /// Runs whose verification did not pass.
    failed: u64,
    wall_s: f64,
    /// CPU seconds of each pass.
    pass_cpu_s: Vec<f64>,
}

impl Passes {
    /// Each benchmark's best time over the passes (NPB's own convention
    /// for repeated runs).
    fn best_seconds(&self) -> Vec<f64> {
        self.seconds
            .iter()
            .map(|s| stats::best(s, Better::Lower))
            .collect()
    }

    /// Mop/s of each benchmark at its best time.
    fn mops(&self) -> Vec<f64> {
        self.mops_count
            .iter()
            .zip(self.best_seconds())
            .map(|(ops, s)| ops / s)
            .collect()
    }

    fn geomean_mops(&self) -> f64 {
        let mops = self.mops();
        (mops.iter().map(|m| m.ln()).sum::<f64>() / mops.len() as f64).exp()
    }

    /// Whole-suite seconds of each pass.
    fn pass_seconds(&self) -> Vec<f64> {
        (0..self.seconds[0].len())
            .map(|p| self.seconds.iter().map(|s| s[p]).sum())
            .collect()
    }
}

fn timed(pool: &Pool, passes: usize, rec: &mut Recorder) -> Passes {
    let epoch = Instant::now();
    let mut out = Passes {
        seconds: vec![Vec::with_capacity(passes); SUITE.len()],
        mops_count: vec![0.0; SUITE.len()],
        failed: 0,
        wall_s: 0.0,
        pass_cpu_s: Vec::with_capacity(passes),
    };
    for pass in 0..passes {
        let cpu = sys::process_cpu();
        for (b, (bench, class, _)) in SUITE.into_iter().enumerate() {
            rec.enter(bench.name(), pass as u64);
            let result = rvhpc_npb::run(bench, class, pool);
            rec.exit();
            out.failed += u64::from(!result.verified.passed());
            out.seconds[b].push(result.time_seconds);
            out.mops_count[b] = result.mops * result.time_seconds;
        }
        out.pass_cpu_s
            .push((sys::process_cpu() - cpu).as_secs_f64());
    }
    out.wall_s = epoch.elapsed().as_secs_f64();
    out
}

pub fn run(args: &Args) -> Outcome {
    let threads = args.lanes();
    let passes = args.count(BASE_PASSES, 1).max(3);
    if args.trace {
        return run_traced(args, threads, passes);
    }
    let (pool, setup_s) = crate::setup_median(|| setup(threads), drop);
    let p = timed(&pool, passes, &mut Recorder::new(Instant::now(), false));

    let suite_us = p.best_seconds().iter().sum::<f64>() * 1e6;
    let operations = p.mops_count.iter().sum::<f64>() * 1e6;
    let cpu_us: Vec<f64> = p.pass_cpu_s.iter().map(|s| s * 1e6 / operations).collect();
    let runs = (SUITE.len() * passes) as u64;
    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUPS as u64);
    report.set("ops_per_s", p.geomean_mops() * 1e6, runs);
    report.set("latency_p50_us", suite_us, runs);
    report.set(
        "cpu_us_per_op",
        stats::best(&cpu_us, Better::Lower),
        passes as u64,
    );
    Outcome {
        attempted: runs,
        failed: p.failed,
        report,
    }
}

/// Bytes of the largest cache level the kernel reports for CPU 0.
fn host_llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("size")).ok())
        .filter_map(|s| s.trim().strip_suffix('K')?.parse::<usize>().ok())
        .map(|kib| kib * 1024)
        .max()
}

/// `parallel.*` and `stream.triad_gbs`.
fn layers(report: &mut Report, pool: &Pool) {
    const REGIONS: usize = 2000;
    const INNER: usize = 10_000;
    let per_region_s = |f: &dyn Fn()| stats::median_s(9, f);

    let fork_join = per_region_s(&|| {
        for _ in 0..REGIONS {
            pool.run(|_| ());
        }
    }) / REGIONS as f64;
    report.set("parallel.fork_join_us", fork_join * 1e6, 9 * REGIONS as u64);

    // Inside one region, so the fork-join cost is paid once.
    let inner_ns = |body: &(dyn Fn(&rvhpc_parallel::Team) + Sync)| {
        let region = per_region_s(&|| {
            pool.run(|team| body(team));
        });
        (region - fork_join).max(0.0) * 1e9 / INNER as f64
    };
    let barrier = inner_ns(&|team| {
        for _ in 0..INNER {
            team.barrier();
        }
    });
    report.set("parallel.barrier_ns", barrier, 9 * INNER as u64);
    let chunk = inner_ns(&|team| team.for_dynamic(0, INNER, 1, |_| ()));
    report.set("parallel.dynamic_chunk_ns", chunk, 9 * INNER as u64);
    let reduce = inner_ns(&|team| {
        for _ in 0..INNER {
            std::hint::black_box(team.reduce_sum(1.0));
        }
    });
    report.set("parallel.reduce_ns", reduce, 9 * INNER as u64);

    let mg_seconds = |pool: &Pool| {
        let times: Vec<f64> = (0..3)
            .map(|_| rvhpc_npb::run(BenchmarkId::Mg, Class::W, pool).time_seconds)
            .collect();
        stats::median(&times)
    };
    let speedup = mg_seconds(&Pool::new(1)) / mg_seconds(pool);
    report.set("parallel.mg_speedup", speedup, 3);

    // STREAM wants arrays of at least four times the last-level cache.
    // A cloud host reports the whole socket's cache; the arrays stop at
    // 256 MiB each and both sizes are printed.
    let llc = host_llc_bytes().unwrap_or(32 << 20);
    let array_bytes = (4 * llc).min(256 << 20);
    println!(
        "stream: host LLC {} MiB, three arrays of {} MiB each",
        llc >> 20,
        array_bytes >> 20
    );
    let result = rvhpc_stream::run_host_stream(array_bytes / 8, 3, pool);
    assert!(result.validated, "STREAM validation failed");
    report.set("stream.triad_gbs", result.best_gbs[3], 3);
}

fn run_traced(args: &Args, threads: usize, passes: usize) -> Outcome {
    let mut report = layers_bench::probe();
    let pool = setup(threads);
    let plain = timed(&pool, passes, &mut Recorder::new(Instant::now(), false));

    // The traced pass also turns the runtime's own recorder on: the
    // share of region time spent waiting at barriers comes from it.
    rvhpc_obs::set_enabled(true);
    let mut rec = Recorder::new(Instant::now(), true);
    let traced = timed(&pool, passes, &mut rec);
    rvhpc_obs::set_enabled(false);
    let summary = rvhpc_obs::summarize(&rvhpc_obs::drain_all().events);
    let total_us = |kind: &str| summary.per_kind.get(kind).map_or(0, |t| t.total_us) as f64;
    let waits: f64 = summary.barrier_wait_us_by_thread.values().sum::<u64>() as f64;
    let region_us = total_us("region") * threads as f64;
    report.set(
        "parallel.barrier_wait_share",
        if region_us > 0.0 {
            waits / region_us
        } else {
            0.0
        },
        summary.per_kind.get("region").map_or(0, |t| t.count),
    );

    let runs = (SUITE.len() * passes) as u64;
    let pass_rates: Vec<f64> = plain.pass_seconds().iter().map(|s| 1.0 / s).collect();
    layers_bench::headline(
        &mut report,
        plain.wall_s,
        (plain.geomean_mops() * 1e6, traced.geomean_mops() * 1e6),
        runs,
        &pass_rates,
    );
    for ((.., name), mops) in SUITE.into_iter().zip(plain.mops()) {
        report.set(name, mops, passes as u64);
    }
    report.set(
        "npb.verified",
        (runs - plain.failed) as f64 / passes as f64,
        runs,
    );
    layers(&mut report, &pool);

    crate::write_trace(args, &[(1, rec.spans())]);
    Outcome {
        attempted: 2 * runs,
        failed: plain.failed + traced.failed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_times_and_geomean_follow_the_definitions() {
        let p = Passes {
            seconds: vec![vec![1.0, 3.0, 2.0], vec![4.0, 4.0, 8.0]],
            mops_count: vec![200.0, 400.0],
            failed: 0,
            wall_s: 0.0,
            pass_cpu_s: Vec::new(),
        };
        assert_eq!(p.best_seconds(), [1.0, 4.0]);
        assert_eq!(p.mops(), [200.0, 100.0]);
        assert!((p.geomean_mops() - 20000f64.sqrt()).abs() < 1e-9);
        assert_eq!(p.pass_seconds(), [5.0, 7.0, 10.0]);
    }
}
