//! What bounds each NPB port on this host: the paper's method (explain a
//! kernel by bandwidth vs core) applied to our own ports at the classes
//! `benchmark/`'s `npb_host` workload runs them at.
//!
//! Per port: best-of-five Mop/s on one thread and on the team, the team's
//! speedup, the bytes the port's `profile()` says it references divided
//! by the measured time as a share of the host's measured STREAM triad,
//! the parallel regions and barriers of one run and, for the three
//! pseudo-applications, how that run's region time splits between the
//! `rhs-stencil` phase and the solve phase (all from the runtime's own
//! trace). EXPERIMENTS.md, "NPB on the host", is this table.
//!
//! ```sh
//! cargo run --release --example host_roofline
//! RVHPC_NUM_THREADS=4 cargo run --release --example host_roofline
//! ```

use rvhpc::npb::{self, BenchmarkId, Class};
use rvhpc::obs;
use rvhpc::parallel::{Pool, RuntimeConfig};

/// `benchmark/src/npb.rs`'s suite: kernels at class W, the rest at S.
const SUITE: [(BenchmarkId, Class); 8] = [
    (BenchmarkId::Is, Class::W),
    (BenchmarkId::Mg, Class::W),
    (BenchmarkId::Ep, Class::S),
    (BenchmarkId::Cg, Class::W),
    (BenchmarkId::Ft, Class::W),
    (BenchmarkId::Bt, Class::S),
    (BenchmarkId::Lu, Class::S),
    (BenchmarkId::Sp, Class::S),
];

/// Best NPB-timed seconds over five verified runs.
fn best_seconds(bench: BenchmarkId, class: Class, pool: &Pool) -> f64 {
    (0..5)
        .map(|_| {
            let r = npb::run(bench, class, pool);
            assert!(r.verified.passed(), "{}: {:?}", r.name, r.verified);
            r.time_seconds
        })
        .fold(f64::INFINITY, f64::min)
}

/// The solve phase of a pseudo-application, the one beside `rhs-stencil`.
fn solve_phase(bench: BenchmarkId) -> Option<&'static str> {
    match bench {
        BenchmarkId::Bt => Some("block-line-solves"),
        BenchmarkId::Sp => Some("penta-line-solves"),
        BenchmarkId::Lu => Some("ssor-sweeps"),
        _ => None,
    }
}

/// What one traced run says about its structure.
struct RunShape {
    /// Regions forked and barrier episodes, per team member.
    regions: u64,
    barriers: u64,
    /// Percent of region time inside `rhs-stencil` and inside the solve
    /// phase; pseudo-applications only.
    phase_shares: Option<(f64, f64)>,
}

fn run_shape(bench: BenchmarkId, class: Class, pool: &Pool) -> RunShape {
    // The recorder keeps what earlier runs left; count from here on.
    let mark = obs::now_us();
    obs::set_enabled(true);
    npb::run(bench, class, pool);
    obs::set_enabled(false);
    let mut events = obs::drain_all().events;
    events.retain(|e| e.start_us >= mark);
    let summary = obs::summarize(&events);
    let totals = |kind: &str| summary.per_kind.get(kind).copied().unwrap_or_default();
    let share = |phase: &str| {
        let phase = summary.per_phase.get(phase).copied().unwrap_or_default();
        100.0 * phase.total_us as f64 / totals("region").total_us as f64
    };
    RunShape {
        regions: totals("region").count / pool.nthreads() as u64,
        barriers: totals("barrier-wait").count / pool.nthreads() as u64,
        phase_shares: solve_phase(bench).map(|solve| (share("rhs-stencil"), share(solve))),
    }
}

fn main() {
    let threads = RuntimeConfig::from_env().nthreads.max(2);
    let (serial, team) = (Pool::new(1), Pool::new(threads));
    // Three arrays of 256 MiB, past any last-level cache this runs on; ten
    // repetitions, so the best one is from after the kernel has given
    // every member its own CPU (see below).
    let triad_gbs = rvhpc::stream::run_host_stream(32 << 20, 10, &team).best_gbs[3];
    println!(
        "host: {} CPU(s), team of {threads}, STREAM triad {triad_gbs:.1} GB/s\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // All team runs back to back, then all serial runs: a worker that
    // slept through a serial phase may wake on the caller's CPU, and
    // this sandbox's kernel then takes about a second to separate them.
    let team_runs: Vec<_> = SUITE
        .iter()
        .map(|&(bench, class)| {
            (
                best_seconds(bench, class, &team),
                run_shape(bench, class, &team),
            )
        })
        .collect();
    println!(
        "{:<5} {:>10} {:>10} {:>8} {:>10} {:>9} {:>8} {:>9} {:>6} {:>6}",
        "port",
        "Mop/s x1",
        "Mop/s team",
        "speedup",
        "GB/s refd",
        "of triad",
        "regions",
        "barriers",
        "rhs",
        "solve"
    );
    for ((bench, class), (tn, shape)) in SUITE.into_iter().zip(team_runs) {
        let t1 = best_seconds(bench, class, &serial);
        let profile = npb::profile(bench, class);
        let mops = |s: f64| profile.total_ops / s / 1e6;
        let bytes: f64 = profile
            .phases
            .iter()
            .map(|p| p.mem_refs * f64::from(p.elem_bytes))
            .sum();
        let gbs = bytes / tn / 1e9;
        let (rhs, solve) = shape
            .phase_shares
            .map_or(("-".into(), "-".into()), |(r, s)| {
                (format!("{r:.0}%"), format!("{s:.0}%"))
            });
        println!(
            "{:<5} {:>10.0} {:>10.0} {:>8.2} {:>10.1} {:>8.0}% {:>8} {:>9} {:>6} {:>6}",
            format!("{} {}", bench.name(), class.name()),
            mops(t1),
            mops(tn),
            t1 / tn,
            gbs,
            100.0 * gbs / triad_gbs,
            shape.regions,
            shape.barriers,
            rhs,
            solve
        );
    }
}
