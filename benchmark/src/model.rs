//! `model_sweep`: the `reproduce` path with no sockets — build a plan,
//! execute it on a fresh engine, render the results; then warm
//! full-report renders.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use rvhpc_core::engine::{Engine, MachineSel, Plan, Query};
use rvhpc_core::sweep::{self, Sample};
use rvhpc_core::{experiment, runner, Prediction};
use rvhpc_machines::{presets, Machine, MachineId, VectorIsa};
use rvhpc_npb::{BenchmarkId, Class};

use crate::metrics::Report;
use crate::rng::SplitMix64;
use crate::spans::Recorder;
use crate::stats::Better;
use crate::{layers_bench, layers_core, stats, sys, Args, Outcome};

/// What-if machines in the seeded grid.
const WHATIF_MACHINES: usize = 64;
const WHATIF_THREADS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Sweep repetitions and warm report renders at the reference run
/// length, sized so each phase takes about half of it on the reference
/// sandbox.
const BASE_REPETITIONS: usize = 100;
const BASE_REPORTS: usize = 8000;
/// Samples in the document the `obs.json.*` figures are measured on.
const OBS_SAMPLES: usize = 512;

/// A preset with seeded clock, bandwidth and (on RVV parts) vector
/// length — the descriptors `Plan::add_machine` exists for.
pub fn whatif_machine(rng: &mut SplitMix64) -> Machine {
    let mut m = presets::by_id(rng.pick(&MachineId::ALL));
    m.clock_ghz = rng.grid(1.0, 5.0, 4000);
    m.memory.sustained_fraction *= rng.grid(0.5, 2.0, 1500);
    let vlen_bits = 128 << rng.below(4);
    m.vector = match m.vector {
        VectorIsa::Rvv0_7 { .. } => VectorIsa::Rvv0_7 { vlen_bits },
        VectorIsa::Rvv1_0 { .. } => VectorIsa::Rvv1_0 { vlen_bits },
        other => other,
    };
    m
}

/// The inputs of one repetition: the what-if machines, generated once.
pub struct Inputs {
    machines: Vec<Machine>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        Inputs {
            machines: (0..WHATIF_MACHINES)
                .map(|_| whatif_machine(&mut rng))
                .collect(),
        }
    }

    /// `experiment::full_plan()` merged with the what-if grid: every
    /// machine × 8 benchmarks × classes B, C × 7 thread counts.
    pub fn plan(&self) -> Plan {
        let mut plan = experiment::full_plan();
        let mut grid = Plan::new();
        for m in &self.machines {
            let sel = grid.add_machine(m.clone());
            for bench in BenchmarkId::ALL {
                for class in [Class::B, Class::C] {
                    for threads in WHATIF_THREADS {
                        grid.push(Query {
                            machine: sel,
                            ..Query::paper(m.id, bench, class, threads)
                        });
                    }
                }
            }
        }
        plan.merge(grid);
        plan
    }
}

fn samples(plan: &Plan, preds: &[std::sync::Arc<Prediction>]) -> Vec<Sample> {
    plan.queries()
        .iter()
        .zip(preds)
        .map(|(q, pred)| Sample {
            machine: match q.machine {
                MachineSel::Preset(id) => id,
                MachineSel::Custom(_) => plan.machine_of(q).id,
            },
            bench: q.bench,
            class: q.class,
            threads: q.threads,
            seconds: pred.seconds,
            mops: pred.mops,
        })
        .collect()
}

fn hash_of(parts: &[&str]) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

/// What one repetition produced, for the output checks.
struct Rendered {
    queries: usize,
    hash: u64,
    /// Predictions that are not finite and positive.
    bad: u64,
}

/// One repetition: fresh engine, build, execute on one worker, render.
fn repetition(inputs: &Inputs, rec: &mut Recorder, op: u64) -> Rendered {
    rec.enter("repetition", op);
    rec.enter("core.plan.build", op);
    let engine = Engine::new();
    let plan = inputs.plan();
    rec.exit();
    rec.enter("core.engine.execute", op);
    let preds = engine.execute_with_jobs(&plan, 1);
    rec.exit();
    rec.enter("core.sweep.render", op);
    let samples = samples(&plan, &preds);
    let json = sweep::to_json(&samples);
    let csv = sweep::to_csv(&samples);
    rec.exit();
    rec.exit();
    let ok = |v: f64| v.is_finite() && v > 0.0;
    Rendered {
        queries: plan.len(),
        hash: hash_of(&[&json, &csv]),
        bad: preds
            .iter()
            .filter(|p| !ok(p.seconds) || !ok(p.mops))
            .count() as u64,
    }
}

struct Phases {
    /// Seconds per repetition, and per warm report render.
    repetition_s: Vec<f64>,
    report_s: Vec<f64>,
    queries: usize,
    failed: u64,
    wall_s: f64,
    /// CPU seconds of each repetition.
    repetition_cpu_s: Vec<f64>,
}

impl Phases {
    /// Queries per second of each block of repetitions.
    fn block_rates(&self) -> Vec<f64> {
        let queries = vec![self.queries as f64; self.repetition_s.len()];
        stats::block_ratios(&queries, &self.repetition_s)
    }
}

fn timed(inputs: &Inputs, repetitions: usize, reports: usize, rec: &mut Recorder) -> Phases {
    let epoch = Instant::now();
    let mut repetition_s = Vec::with_capacity(repetitions);
    let mut repetition_cpu_s = Vec::with_capacity(repetitions);
    let mut first: Option<Rendered> = None;
    let (mut last_hash, mut bad) = (0, 0);
    for op in 0..repetitions {
        let (t, cpu) = (Instant::now(), sys::process_cpu());
        let rendered = repetition(inputs, rec, op as u64);
        repetition_s.push(t.elapsed().as_secs_f64());
        repetition_cpu_s.push((sys::process_cpu() - cpu).as_secs_f64());
        last_hash = rendered.hash;
        bad += rendered.bad;
        first.get_or_insert(rendered);
    }
    let mut report_s = Vec::with_capacity(reports);
    let mut report_hashes = (0, 0);
    for op in 0..reports {
        rec.enter("core.report.full", op as u64);
        let t = Instant::now();
        let text = runner::full_report_with_jobs(1);
        report_s.push(t.elapsed().as_secs_f64());
        rec.exit();
        let h = hash_of(&[&text]);
        if op == 0 {
            report_hashes.0 = h;
        }
        report_hashes.1 = h;
    }
    let first = first.expect("at least one repetition");
    // Output checks: the rendered sweep and the rendered report repeat
    // exactly, and every prediction is a finite positive number.
    let failed =
        u64::from(first.hash != last_hash) + u64::from(report_hashes.0 != report_hashes.1) + bad;
    Phases {
        repetition_s,
        report_s,
        queries: first.queries,
        failed,
        wall_s: epoch.elapsed().as_secs_f64(),
        repetition_cpu_s,
    }
}

/// Generate the inputs, then run each phase once untimed: the first
/// repetition faults the allocator's pages in, the first report fills
/// the global engine's caches.
fn setup(seed: u64) -> Inputs {
    let inputs = Inputs::new(seed);
    let mut off = Recorder::new(Instant::now(), false);
    std::hint::black_box(repetition(&inputs, &mut off, 0).hash);
    std::hint::black_box(runner::full_report_with_jobs(1).len());
    inputs
}

pub fn run(args: &Args) -> Outcome {
    let repetitions = args.count(BASE_REPETITIONS, 10);
    let reports = args.count(BASE_REPORTS, 10);
    if args.trace {
        return run_traced(args, repetitions, reports);
    }
    let (inputs, setup_s) = crate::setup_median(|| setup(args.seed), drop);
    let p = timed(
        &inputs,
        repetitions,
        reports,
        &mut Recorder::new(Instant::now(), false),
    );

    let rates = p.block_rates();
    let queries = vec![p.queries as f64; repetitions];
    let cpu_us: Vec<f64> = stats::block_ratios(&p.repetition_cpu_s, &queries)
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let report_us: Vec<f64> = p.report_s.iter().map(|s| s * 1e6).collect();
    let total_queries = (p.queries * repetitions) as f64;
    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUPS as u64);
    report.set(
        "ops_per_s",
        stats::best(&rates, Better::Higher),
        rates.len() as u64,
    );
    report.set(
        "latency_p50_us",
        stats::best(&stats::block_quantiles(&report_us, 0.5), Better::Lower),
        reports as u64,
    );
    report.set(
        "cpu_us_per_op",
        stats::best(&cpu_us, Better::Lower),
        cpu_us.len() as u64,
    );
    Outcome {
        attempted: (total_queries as usize + reports) as u64,
        failed: p.failed,
        report,
    }
}

fn run_traced(args: &Args, repetitions: usize, reports: usize) -> Outcome {
    let mut report = layers_bench::probe();
    let inputs = setup(args.seed);
    let rate = |p: &Phases| stats::best(&p.block_rates(), Better::Higher);
    let plain = timed(
        &inputs,
        repetitions,
        reports,
        &mut Recorder::new(Instant::now(), false),
    );
    let mut rec = Recorder::new(Instant::now(), true);
    let traced = timed(&inputs, repetitions, reports, &mut rec);

    layers_bench::headline(
        &mut report,
        plain.wall_s,
        (rate(&plain), rate(&traced)),
        repetitions as u64,
        &plain.block_rates(),
    );

    // One repetition on a fresh engine: every unique query misses once.
    let engine = Engine::new();
    let plan = inputs.plan();
    let preds = engine.execute_with_jobs(&plan, 1);
    let m = engine.metrics();
    let probes = (m.prediction_hits + m.prediction_misses) as f64;
    report.set(
        "core.engine.hit_ratio",
        m.prediction_hits as f64 / probes,
        probes as u64,
    );
    report.set(
        "core.engine.dedup_ratio",
        1.0 - probes / plan.len() as f64,
        plan.len() as u64,
    );
    report.set("core.engine.occupancy", m.occupancy(), m.capacity);

    layers_core::plan(&mut report, args.seed);
    layers_core::engine(&mut report, args.seed);
    layers_core::model(&mut report, args.seed);
    layers_core::model_isa(&mut report);
    layers_core::report_svg(&mut report);
    // `obs::json::parse` re-validates the rest of the document at every
    // string character, so its time grows with the square of the size:
    // the whole 7480-sample sweep takes seconds. The layer is measured
    // on the first OBS_SAMPLES samples, about 50 KiB.
    let sweep_json = sweep::to_json(&samples(&plan, &preds)[..OBS_SAMPLES]);
    let doc = rvhpc_obs::json::parse(&sweep_json).expect("sweep JSON parses");
    layers_core::obs(&mut report, &doc);

    crate::write_trace(args, &[(1, rec.spans())]);
    let ops = (plain.queries * repetitions + reports) as u64;
    Outcome {
        attempted: 2 * ops,
        failed: plain.failed + traced.failed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries(inputs: &Inputs) -> Vec<String> {
        let plan = inputs.plan();
        plan.queries()
            .iter()
            .map(|q| format!("{:?} {:?}", plan.key_of(q), plan.machine_of(q)))
            .collect()
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        assert_eq!(queries(&Inputs::new(3)), queries(&Inputs::new(3)));
        assert_ne!(queries(&Inputs::new(3)), queries(&Inputs::new(4)));
    }

    #[test]
    fn plan_is_full_plan_plus_the_whatif_grid() {
        let plan = Inputs::new(1).plan();
        let grid = WHATIF_MACHINES * 8 * 2 * WHATIF_THREADS.len();
        assert_eq!(plan.len(), experiment::full_plan().len() + grid);
    }

    #[test]
    fn repetitions_render_identically_and_pass_the_checks() {
        let inputs = Inputs::new(2);
        let mut off = Recorder::new(Instant::now(), false);
        let p = timed(&inputs, 2, 2, &mut off);
        assert_eq!(p.failed, 0);
        assert_eq!(p.repetition_s.len(), 2);
        assert!(p.queries > 7000);
    }
}
