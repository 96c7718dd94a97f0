//! `isa_char`: the instruction-level backend. Phase one characterises
//! every kernel on every machine (assemble → decode → CFG → interpret
//! with the replay tracer → archsim → predict); phase two interprets
//! the four kernels with no tracer.

use std::time::Instant;

use rvhpc_archsim::stream_gen::RandomInWs;
use rvhpc_archsim::{TraceConsumer, TraceEvent, TraceHierarchy};
use rvhpc_core::isa_backend;
use rvhpc_core::model::Scenario;
use rvhpc_isa::kernels::MAX_STEPS;
use rvhpc_isa::{
    build, build_cfg, decode_program, BuiltKernel, DecodedProgram, ExtSet, Instr, IsaExt, KernelId,
    NullTracer, Tracer,
};
use rvhpc_machines::{presets, Machine, MachineId};
use rvhpc_npb::Class;

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::Better;
use crate::{layers_bench, layers_core, stats, sys, Args, Outcome};

/// Characterisation passes and untraced interpreter passes at the
/// reference run length, sized so each phase takes about half of it on
/// the reference sandbox.
const BASE_CHAR_PASSES: usize = 10;
const BASE_INTERP_PASSES: usize = 1000;
const THREADS: [u32; 2] = [1, 64];

fn ext_sets() -> [IsaExt; 2] {
    let none = IsaExt {
        zba: false,
        zbb: false,
        rvv: false,
    };
    [IsaExt::full(), none]
}

/// One characterisation, timed.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
}

/// One characterisation pass: 4 kernels × 11 machines × 2 extension
/// sets × 2 thread counts, appended to `samples`. Returns guest
/// instructions retired and how many predictions were not finite and
/// positive.
fn characterise_all(
    machines: &[Machine],
    rec: &mut Recorder,
    pass: u64,
    samples: &mut Vec<Sample>,
) -> (u64, u64) {
    let (mut instret, mut bad) = (0, 0);
    for kernel in KernelId::ALL {
        for machine in machines {
            for ext in ext_sets() {
                for threads in THREADS {
                    rec.enter("isa.characterise", pass);
                    let (t, cpu) = (Instant::now(), sys::process_cpu());
                    let scenario = Scenario::headline(machine, threads);
                    // Panics unless the kernel's outputs verify.
                    let run = isa_backend::run_kernel(kernel, Class::C, &scenario, ext);
                    samples.push(Sample {
                        wall_s: t.elapsed().as_secs_f64(),
                        cpu_s: (sys::process_cpu() - cpu).as_secs_f64(),
                    });
                    rec.exit();
                    instret += run.character.instret;
                    let s = run.prediction.seconds;
                    bad += u64::from(!(s.is_finite() && s > 0.0));
                }
            }
        }
    }
    (instret, bad)
}

/// The four kernels assembled and decoded for the full extension set.
struct Programs(Vec<(BuiltKernel, DecodedProgram)>);

impl Programs {
    fn new() -> Programs {
        let ext = ExtSet::full();
        Programs(
            KernelId::ALL
                .iter()
                .map(|&k| {
                    let built = build(k, &ext, 128);
                    let prog = built.decode(&ext);
                    (built, prog)
                })
                .collect(),
        )
    }

    /// Interpret one kernel from its initial state; returns instructions
    /// retired and whether the final state verifies.
    fn interpret(&self, k: usize, tracer: &mut dyn Tracer) -> (u64, bool) {
        let (built, prog) = &self.0[k];
        let mut cpu = built.cpu.clone();
        let stats = rvhpc_isa::run(&mut cpu, prog, tracer, MAX_STEPS).expect("kernel trapped");
        (stats.instret, built.verify(&cpu).is_ok())
    }

    /// One untraced pass over the four kernels.
    fn interpret_all(&self) -> (u64, u64) {
        let (mut instret, mut bad) = (0, 0);
        for k in 0..self.0.len() {
            let (n, ok) = self.interpret(k, &mut NullTracer);
            instret += n;
            bad += u64::from(!ok);
        }
        (instret, bad)
    }
}

struct Inputs {
    machines: Vec<Machine>,
    programs: Programs,
}

/// Build the inputs and run a share of each phase untimed.
fn setup() -> Inputs {
    let inputs = Inputs {
        machines: presets::all(),
        programs: Programs::new(),
    };
    let mut off = Recorder::new(Instant::now(), false);
    std::hint::black_box(characterise_all(
        &inputs.machines[..3],
        &mut off,
        0,
        &mut Vec::new(),
    ));
    std::hint::black_box(inputs.programs.interpret_all());
    inputs
}

struct Phases {
    /// Every characterisation of every pass, in order.
    chars: Vec<Sample>,
    /// Characterisations in one pass.
    per_pass: usize,
    /// Guest instructions of one characterisation pass.
    char_instret: u64,
    interp_s: Vec<f64>,
    interp_instret: u64,
    failed: u64,
    wall_s: f64,
}

impl Phases {
    /// Seconds (wall or CPU, by `f`) one characterisation pass takes:
    /// each of its characterisations at its best over the passes,
    /// summed — what `npb_host` does per benchmark. Blocks would not do
    /// here: a pass is not uniform (the kernels differ in instructions
    /// per second), so a block's rate would say which kernels it holds,
    /// not how fast they ran.
    fn best_pass_s(&self, f: fn(&Sample) -> f64) -> f64 {
        (0..self.per_pass)
            .map(|c| {
                let over_passes = self.chars[c..].iter().step_by(self.per_pass);
                stats::best(&over_passes.map(f).collect::<Vec<_>>(), Better::Lower)
            })
            .sum()
    }

    /// Guest instructions per second through the whole pipeline.
    fn char_rate(&self) -> f64 {
        self.char_instret as f64 / self.best_pass_s(|s| s.wall_s)
    }
}

fn timed(inputs: &Inputs, char_passes: usize, interp_passes: usize, rec: &mut Recorder) -> Phases {
    let epoch = Instant::now();
    let mut failed = 0;
    let mut chars = Vec::with_capacity(char_passes * characterisations(inputs));
    let mut char_instret = 0;
    for pass in 0..char_passes {
        let (instret, bad) = characterise_all(&inputs.machines, rec, pass as u64, &mut chars);
        // `instret` totals are identical across passes.
        failed += bad + u64::from(pass > 0 && instret != char_instret);
        char_instret = instret;
    }

    let mut interp_s = Vec::with_capacity(interp_passes);
    let mut interp_instret = 0;
    for pass in 0..interp_passes {
        rec.enter("isa.interpret", pass as u64);
        let t = Instant::now();
        let (instret, bad) = inputs.programs.interpret_all();
        interp_s.push(t.elapsed().as_secs_f64());
        rec.exit();
        failed += bad + u64::from(pass > 0 && instret != interp_instret);
        interp_instret = instret;
    }
    Phases {
        chars,
        per_pass: characterisations(inputs),
        char_instret,
        interp_s,
        interp_instret,
        failed,
        wall_s: epoch.elapsed().as_secs_f64(),
    }
}

fn characterisations(inputs: &Inputs) -> usize {
    KernelId::ALL.len() * inputs.machines.len() * ext_sets().len() * THREADS.len()
}

pub fn run(args: &Args) -> Outcome {
    let char_passes = args.count(BASE_CHAR_PASSES, 1).max(2);
    let interp_passes = args.count(BASE_INTERP_PASSES, 10);
    if args.trace {
        return run_traced(args, char_passes, interp_passes);
    }
    let (inputs, setup_s) = crate::setup_median(setup, drop);
    let p = timed(
        &inputs,
        char_passes,
        interp_passes,
        &mut Recorder::new(Instant::now(), false),
    );

    let interp_us: Vec<f64> = p.interp_s.iter().map(|s| s * 1e6).collect();
    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUPS as u64);
    report.set("ops_per_s", p.char_rate(), p.chars.len() as u64);
    report.set(
        "latency_p50_us",
        stats::best(&stats::block_quantiles(&interp_us, 0.5), Better::Lower),
        interp_passes as u64,
    );
    report.set(
        "cpu_us_per_op",
        p.best_pass_s(|s| s.cpu_s) * 1e6 / p.char_instret as f64,
        p.chars.len() as u64,
    );
    Outcome {
        attempted: (characterisations(&inputs) * char_passes + 4 * interp_passes) as u64,
        failed: p.failed,
        report,
    }
}

/// Counts hook calls and touches no archsim state: the cost of the
/// tracer hooks alone.
#[derive(Default)]
struct CountingTracer {
    events: u64,
}

impl Tracer for CountingTracer {
    fn retire(&mut self, _pc: u64, _instr: &Instr) {
        self.events += 1;
    }
    fn mem(&mut self, _addr: u64, _bytes: u8, _is_store: bool) {
        self.events += 1;
    }
    fn branch(&mut self, _pc: u64, _taken: bool) {
        self.events += 1;
    }
    fn vector(&mut self, _elems: u32, _gather: bool) {
        self.events += 1;
    }
}

/// Records the events the replay tracer would forward to archsim.
#[derive(Default)]
struct RecordingTracer {
    events: Vec<TraceEvent>,
}

impl Tracer for RecordingTracer {
    fn retire(&mut self, _pc: u64, _instr: &Instr) {
        self.events.push(TraceEvent::Retire);
    }
    fn mem(&mut self, addr: u64, bytes: u8, is_store: bool) {
        self.events.push(if is_store {
            TraceEvent::Store { addr, bytes }
        } else {
            TraceEvent::Load { addr, bytes }
        });
    }
    fn branch(&mut self, pc: u64, taken: bool) {
        self.events.push(TraceEvent::Branch { pc, taken });
    }
    fn vector(&mut self, elems: u32, gather: bool) {
        self.events.push(TraceEvent::Vector { elems, gather });
    }
}

/// `isa.*` and `archsim.*`, stage by stage.
fn layers(report: &mut Report, inputs: &Inputs) {
    const REPEATS: usize = 15;
    let ext = ExtSet::full();
    let programs = &inputs.programs;

    let encode_s = stats::median_s(REPEATS, || {
        for k in KernelId::ALL {
            std::hint::black_box(build(k, &ext, 128).code.len());
        }
    });
    report.set("isa.encode_us", encode_s * 1e6 / 4.0, 4 * REPEATS as u64);

    let unit: Vec<u8> = programs
        .0
        .iter()
        .flat_map(|(b, _)| b.code.iter().copied())
        .collect();
    let mut image = Vec::new();
    while image.len() < 64 * 1024 {
        image.extend_from_slice(&unit);
    }
    let instrs = decode_program(&image, 0x1000, &ext).instrs.len();
    let decode_s = stats::median_s(REPEATS, || {
        std::hint::black_box(decode_program(&image, 0x1000, &ext).instrs.len());
    });
    report.set(
        "isa.decode_mips",
        instrs as f64 / decode_s / 1e6,
        REPEATS as u64,
    );

    let cfg_s = stats::median_s(REPEATS, || {
        for (_, prog) in &programs.0 {
            std::hint::black_box(build_cfg(prog).block_count());
        }
    });
    report.set("isa.cfg_us", cfg_s * 1e6 / 4.0, 4 * REPEATS as u64);

    let names = [
        "isa.interp_mips.triad",
        "isa.interp_mips.spmv",
        "isa.interp_mips.mg",
        "isa.interp_mips.ep",
    ];
    let (mut untraced_s, mut hooked_s, mut hooked_instret) = (0.0, 0.0, 0);
    for (k, name) in names.into_iter().enumerate() {
        let mut instret = 0;
        let s = stats::median_s(REPEATS, || {
            instret = programs.interpret(k, &mut NullTracer).0
        });
        report.set(name, instret as f64 / s / 1e6, REPEATS as u64);
        untraced_s += s;
        let mut counting = CountingTracer::default();
        hooked_s += stats::median_s(REPEATS, || {
            programs.interpret(k, &mut counting);
        });
        std::hint::black_box(counting.events);
        hooked_instret += instret;
    }
    report.set(
        "isa.hooked_mips",
        hooked_instret as f64 / hooked_s / 1e6,
        REPEATS as u64,
    );

    // What share of a characterisation is the replay into archsim: the
    // same four kernels on one machine, against the untraced interpreter.
    let sg2044 = presets::by_id(MachineId::Sg2044);
    let characterise_s = stats::median_s(REPEATS, || {
        for k in KernelId::ALL {
            std::hint::black_box(rvhpc_isa::characterize(k, &sg2044, 1, IsaExt::full()).instret);
        }
    });
    report.set(
        "isa.replay_share",
        1.0 - untraced_s / characterise_s,
        REPEATS as u64,
    );

    let mut recording = RecordingTracer::default();
    programs.interpret(1, &mut recording);
    let events = recording.events;
    let consume_s = stats::median_s(REPEATS, || {
        let mut consumer = TraceConsumer::for_thread(&sg2044, 1);
        for &ev in &events {
            consumer.consume(ev);
        }
        std::hint::black_box(consumer.stats().instret);
    });
    report.set(
        "archsim.replay_ns_per_event",
        consume_s * 1e9 / events.len() as f64,
        REPEATS as u64,
    );
    report.set("archsim.replay_events", events.len() as f64, 1);

    let accesses = 1 << 20;
    let sim_s = stats::median_s(REPEATS, || {
        let mut hierarchy = TraceHierarchy::for_thread(&sg2044, 1);
        hierarchy.replay(&mut RandomInWs::new(8, 64 << 20, 7), accesses);
        std::hint::black_box(hierarchy.accesses());
    });
    report.set(
        "archsim.trace_sim_maccess_s",
        accesses as f64 / sim_s / 1e6,
        REPEATS as u64,
    );
}

fn run_traced(args: &Args, char_passes: usize, interp_passes: usize) -> Outcome {
    let mut report = layers_bench::probe();
    let inputs = setup();
    let plain = timed(
        &inputs,
        char_passes,
        interp_passes,
        &mut Recorder::new(Instant::now(), false),
    );
    let mut rec = Recorder::new(Instant::now(), true);
    let traced = timed(&inputs, char_passes, interp_passes, &mut rec);

    layers_bench::headline(
        &mut report,
        plain.wall_s,
        (plain.char_rate(), traced.char_rate()),
        plain.chars.len() as u64,
        &stats::block_quantiles(&plain.interp_s, 0.5),
    );
    report.set(
        "isa.instret_total",
        (plain.char_instret + plain.interp_instret) as f64,
        1,
    );
    layers(&mut report, &inputs);
    layers_core::model_isa(&mut report);

    crate::write_trace(args, &[(1, rec.spans())]);
    let ops = (characterisations(&inputs) * char_passes + 4 * interp_passes) as u64;
    Outcome {
        attempted: 2 * ops,
        failed: plain.failed + traced.failed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_repeat_their_instruction_counts_and_verify() {
        let inputs = Inputs {
            machines: vec![presets::by_id(MachineId::Sg2044)],
            programs: Programs::new(),
        };
        let mut off = Recorder::new(Instant::now(), false);
        let p = timed(&inputs, 2, 3, &mut off);
        assert_eq!(p.failed, 0);
        assert!(p.char_instret > 0 && p.interp_instret > 0);
        assert_eq!(characterisations(&inputs), 16);
    }

    #[test]
    fn a_pass_takes_each_characterisation_at_its_best() {
        let sample = |wall_s| Sample {
            wall_s,
            cpu_s: 2.0 * wall_s,
        };
        // Two passes of two characterisations: [1, 5] then [3, 2].
        let p = Phases {
            chars: vec![sample(1.0), sample(5.0), sample(3.0), sample(2.0)],
            per_pass: 2,
            char_instret: 30,
            interp_s: Vec::new(),
            interp_instret: 0,
            failed: 0,
            wall_s: 0.0,
        };
        assert_eq!(p.best_pass_s(|s| s.wall_s), 3.0);
        assert_eq!(p.best_pass_s(|s| s.cpu_s), 6.0);
        assert_eq!(p.char_rate(), 10.0);
    }

    #[test]
    fn a_kernel_whose_output_is_wrong_counts_as_failed() {
        let mut programs = Programs::new();
        // Corrupt triad's input after its reference output was computed.
        let cpu = &mut programs.0[0].0.cpu;
        let base = cpu.mem.base();
        let bytes = cpu.mem.size() as u64;
        let addr = (base..base + bytes)
            .step_by(8)
            .find(|&a| cpu.mem.read_f64(a).is_ok_and(|v| v != 0.0))
            .expect("triad has data");
        cpu.mem.write_f64(addr, -1234.5).unwrap();
        let (_, bad) = programs.interpret_all();
        assert_eq!(bad, 1);
    }
}
