//! The trace-driven prediction backend (`Backend::Isa`).
//!
//! Where the profile backend feeds *analytic* instruction/branch/reference
//! counts into [`crate::model::predict`], this backend *measures* them: it
//! assembles an NPB-shaped kernel for the query's extension set, runs it
//! through the `rvhpc-isa` decode → CFG → interpret pipeline with trace
//! events replayed into the archsim cache/TLB/branch models
//! ([`rvhpc_isa::characterize`]), and scales the measured per-element
//! character up to class size inside a synthesized single-phase
//! [`WorkloadProfile`]. The same timing model then prices both backends,
//! so their predictions are directly comparable — the CI `isa-smoke` job
//! asserts they agree within a committed tolerance.
//!
//! Benchmark → kernel mapping (the instruction-level subset):
//!
//! | benchmark | kernel | shape |
//! |---|---|---|
//! | CG | `spmv` | CSR y = A·x inner loop, indirect `x[col]` gathers |
//! | MG | `mg` | fourth-order 7-point residual stencil sweep |
//! | EP | `ep` | LCG accumulate, branch-heavy max tracking |
//! | — | `triad` | STREAM triad (synthetic BT-kappa workload) |
//!
//! Benchmarks without a kernel fall back to the profile backend, so
//! `Backend::Isa` is total over the query grid.

use rvhpc_isa::{characterize, IsaExt, KernelCharacter, KernelId};
use rvhpc_npb::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_obs::JsonValue;

use crate::model::{predict, Prediction, Scenario};

/// The kernel that stands in for a benchmark at instruction granularity,
/// if one is implemented.
pub(crate) fn kernel_for(bench: BenchmarkId) -> Option<KernelId> {
    match bench {
        BenchmarkId::Cg => Some(KernelId::Spmv),
        BenchmarkId::Mg => Some(KernelId::MgResid),
        BenchmarkId::Ep => Some(KernelId::EpAccum),
        _ => None,
    }
}

/// The benchmark whose class-scale workload a kernel is scaled to. The
/// triad kernel has no NPB counterpart; it borrows BT's identity because
/// BT's calibration constant is 1.0 — the triad prediction is pure model.
pub fn bench_for(kernel: KernelId) -> BenchmarkId {
    match kernel {
        KernelId::Triad => BenchmarkId::Bt,
        KernelId::Spmv => BenchmarkId::Cg,
        KernelId::MgResid => BenchmarkId::Mg,
        KernelId::EpAccum => BenchmarkId::Ep,
    }
}

fn phase_name(kernel: KernelId) -> &'static str {
    match kernel {
        KernelId::Triad => "isa-triad",
        KernelId::Spmv => "isa-spmv",
        KernelId::MgResid => "isa-mg",
        KernelId::EpAccum => "isa-ep",
    }
}

/// The extension set that actually takes effect under a scenario: RVV can
/// only be emitted when the compiler vectorises (the machine-side RVV gate
/// lives in [`characterize`] itself). This mirrors the paper's
/// `-fno-tree-vectorize` sweeps: the flag, not the hardware, is ablated.
fn effective_ext(ext: IsaExt, scenario: &Scenario<'_>) -> IsaExt {
    IsaExt {
        rvv: ext.rvv && scenario.compiler.vectorize,
        ..ext
    }
}

/// The scalar-quality factor `predict` divides instruction counts by.
/// Measured instret is already real ISA-level work, so the synthesized
/// profile pre-multiplies by this to cancel the division exactly.
fn scalar_quality(scenario: &Scenario<'_>) -> f64 {
    if scenario.machine.isa.is_riscv() {
        scenario.compiler.compiler.scalar_quality_riscv()
    } else {
        1.0
    }
}

/// Scale a measured kernel character to class size inside the template's
/// workload shape. The template contributes everything the interpreter
/// cannot see at kernel scale (total operation count, working-set bytes,
/// access pattern, synchronization density); the character contributes
/// everything it measured (instructions, references, branch behaviour —
/// all per element, scaled by the class element count).
fn synthesized_profile(
    template: &WorkloadProfile,
    kernel: KernelId,
    ch: &KernelCharacter,
    scalar_quality: f64,
) -> WorkloadProfile {
    // Class-scale useful work in kernel element units. Scaled by the
    // template's *flop* count, not its official op count: EP's op count
    // charges one op per accepted pair while the work is ~58 flops of
    // libm polynomials — flops are the unit both sides actually share.
    let elems = template.total_flops() / ch.flops_per_elem;
    // The dominant phase donates the memory shape; the synthesized profile
    // is single-phase because the kernel models the benchmark's hot loop.
    let main = template
        .phases
        .iter()
        .max_by(|a, b| a.instructions.total_cmp(&b.instructions))
        .expect("template profile has phases");
    let phase = PhaseProfile {
        name: phase_name(kernel),
        // Pre-multiplied: predict divides by scalar quality, and measured
        // instret must flow through unscaled.
        instructions: ch.instret_per_elem() * elems * scalar_quality,
        flops: ch.flops_per_elem * elems,
        mem_refs: ch.refs_per_elem() * elems,
        elem_bytes: main.elem_bytes,
        working_set_bytes: main.working_set_bytes,
        pattern: main.pattern,
        ws_partitioned: main.ws_partitioned,
        // Vector speedup is already inside measured instret when the RVV
        // path was emitted; never apply the analytic vector factor on top.
        vectorizable: 0.0,
        branch_rate: ch.branch_rate(),
        branch_misrate: ch.branch_misrate(),
    };
    WorkloadProfile {
        bench: template.bench,
        class: template.class,
        total_ops: template.total_ops,
        phases: vec![phase],
        barriers: template.barriers,
        imbalance: template.imbalance,
        parallel_fraction: template.parallel_fraction,
    }
}

/// The synthetic class-scale workload for the STREAM-triad kernel, which
/// has no NPB benchmark to borrow a profile from. Element count follows
/// the class ladder; 2 flops (one fmadd) per element.
pub fn triad_profile(class: Class) -> WorkloadProfile {
    let n: f64 = match class {
        Class::T => (1u64 << 16) as f64,
        Class::S => (1u64 << 20) as f64,
        Class::W => (1u64 << 22) as f64,
        Class::A => (1u64 << 23) as f64,
        Class::B => (1u64 << 24) as f64,
        Class::C => (1u64 << 25) as f64,
    };
    WorkloadProfile {
        bench: bench_for(KernelId::Triad),
        class,
        total_ops: 2.0 * n,
        phases: vec![PhaseProfile {
            name: "isa-triad",
            instructions: 9.0 * n,
            flops: 2.0 * n,
            mem_refs: 3.0 * n,
            elem_bytes: 8,
            // a, b, c arrays of f64.
            working_set_bytes: 24.0 * n,
            pattern: AccessPattern::Streaming,
            ws_partitioned: true,
            vectorizable: 0.0,
            branch_rate: 1.0 / 9.0,
            branch_misrate: 0.001,
        }],
        barriers: 1.0,
        imbalance: 1.0,
        parallel_fraction: 1.0,
    }
}

/// Engine entry point: predict `profile` under `scenario` with the
/// trace-driven backend. Benchmarks without an instruction-level kernel
/// fall back to the profile backend (identical result, still keyed
/// separately in the cache).
pub fn predict_isa(profile: &WorkloadProfile, scenario: &Scenario<'_>, ext: IsaExt) -> Prediction {
    match kernel_for(profile.bench) {
        Some(kernel) => {
            let ext = effective_ext(ext, scenario);
            let ch = characterize(kernel, scenario.machine, scenario.threads, ext);
            let synth = synthesized_profile(profile, kernel, &ch, scalar_quality(scenario));
            predict(&synth, scenario)
        }
        None => predict(profile, scenario),
    }
}

/// One kernel evaluated end to end: its measured character, the profile
/// synthesized from it, and the resulting class-scale prediction. The
/// `reproduce isa` report and metrics sections render from this.
#[derive(Debug, Clone)]
pub struct IsaRun {
    pub kernel: KernelId,
    pub character: KernelCharacter,
    pub profile: WorkloadProfile,
    pub prediction: Prediction,
}

impl IsaRun {
    /// Effective per-core instructions retired per cycle implied by the
    /// class-scale prediction: measured ISA instructions over the
    /// predicted wall cycles across the active cores. Bandwidth-bound
    /// kernels therefore report low IPC — the pipeline is waiting.
    pub(crate) fn effective_ipc(&self, scenario: &Scenario<'_>) -> f64 {
        let p = scenario.threads.min(scenario.machine.cores).max(1) as f64;
        let clock_hz = scenario.machine.clock_ghz * 1e9;
        let elems = self.profile.total_flops() / self.character.flops_per_elem;
        let instr = self.character.instret_per_elem() * elems;
        instr / (self.prediction.seconds * clock_hz * p)
    }
}

/// Run one kernel under a scenario: characterize, synthesize, predict.
pub fn run_kernel(kernel: KernelId, class: Class, scenario: &Scenario<'_>, ext: IsaExt) -> IsaRun {
    let template = match kernel {
        KernelId::Triad => triad_profile(class),
        _ => rvhpc_npb::profile(bench_for(kernel), class),
    };
    let ext = effective_ext(ext, scenario);
    let character = characterize(kernel, scenario.machine, scenario.threads, ext);
    let profile = synthesized_profile(&template, kernel, &character, scalar_quality(scenario));
    let prediction = predict(&profile, scenario);
    IsaRun {
        kernel,
        character,
        profile,
        prediction,
    }
}

fn fmt_f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Render the rvr-style per-kernel table: static decode properties and
/// dynamic instruction/branch character next to the class-scale
/// prediction. Deterministic: fixed column order and float precision,
/// no timestamps, no map iteration.
pub fn isa_report(runs: &[IsaRun], scenario: &Scenario<'_>, ext: IsaExt) -> String {
    let mut out = String::new();
    let p = scenario.threads.min(scenario.machine.cores).max(1);
    out.push_str(&format!(
        "ISA backend — {} @ {} threads, ext {}\n\n",
        scenario.machine.part,
        p,
        ext.label()
    ));
    out.push_str(
        "| kernel | static | c% | blocks | instret | IPC | ops/instr | br/instr | br-miss% | vec-elems | pred s | Mop/s |\n",
    );
    out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in runs {
        let ch = &r.character;
        let cpct = 100.0 * ch.compressed_instrs as f64 / ch.static_instrs.max(1) as f64;
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.kernel.name(),
            ch.static_instrs,
            fmt_f(cpct, 1),
            ch.cfg_blocks,
            ch.instret,
            fmt_f(r.effective_ipc(scenario), 3),
            fmt_f(ch.ops_per_instr(), 3),
            fmt_f(ch.branch_rate(), 3),
            fmt_f(100.0 * ch.branch_misrate(), 2),
            ch.vector_elems,
            fmt_f(r.prediction.seconds, 4),
            fmt_f(r.prediction.mops, 1),
        ));
    }
    out
}

/// The gated `isa` metrics section (`rvhpc-metrics/1`): one entry per
/// kernel with the rvr-style counters (instret, IPC, ops/guest, branch
/// misses) plus the decode/CFG statics. Only attached to a metrics
/// document when the ISA backend is selected.
pub fn isa_section(runs: &[IsaRun], scenario: &Scenario<'_>, ext: IsaExt) -> JsonValue {
    let kernels = runs
        .iter()
        .map(|r| {
            let ch = &r.character;
            JsonValue::object([
                ("kernel".to_string(), JsonValue::from(r.kernel.name())),
                ("rvv_active".to_string(), JsonValue::from(ch.rvv_active)),
                ("elems".to_string(), JsonValue::from(ch.elems)),
                ("instret".to_string(), JsonValue::from(ch.instret)),
                ("loads".to_string(), JsonValue::from(ch.loads)),
                ("stores".to_string(), JsonValue::from(ch.stores)),
                ("branches".to_string(), JsonValue::from(ch.branches)),
                ("mispredicts".to_string(), JsonValue::from(ch.mispredicts)),
                (
                    "branch_miss_pct".to_string(),
                    JsonValue::from(100.0 * ch.branch_misrate()),
                ),
                (
                    "ipc".to_string(),
                    JsonValue::from(r.effective_ipc(scenario)),
                ),
                (
                    "ops_per_instr".to_string(),
                    JsonValue::from(ch.ops_per_instr()),
                ),
                ("vector_elems".to_string(), JsonValue::from(ch.vector_elems)),
                (
                    "static_instrs".to_string(),
                    JsonValue::from(ch.static_instrs as u64),
                ),
                (
                    "compressed_instrs".to_string(),
                    JsonValue::from(ch.compressed_instrs as u64),
                ),
                (
                    "cfg_blocks".to_string(),
                    JsonValue::from(ch.cfg_blocks as u64),
                ),
                (
                    "cfg_edges".to_string(),
                    JsonValue::from(ch.cfg_edges as u64),
                ),
                (
                    "predicted_seconds".to_string(),
                    JsonValue::from(r.prediction.seconds),
                ),
                (
                    "predicted_mops".to_string(),
                    JsonValue::from(r.prediction.mops),
                ),
            ])
        })
        .collect::<Vec<_>>();
    JsonValue::object([
        ("backend".to_string(), JsonValue::from("isa")),
        ("ext".to_string(), JsonValue::from(ext.label().as_str())),
        ("kernels".to_string(), JsonValue::Array(kernels)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::presets;

    fn scenario(m: &rvhpc_machines::Machine, threads: u32) -> Scenario<'_> {
        Scenario::headline(m, threads)
    }

    #[test]
    fn isa_predictions_track_profile_predictions() {
        // The two backends measure the same algorithms; class-scale
        // predictions must land within a small factor of each other.
        let m = presets::sg2044();
        let s = scenario(&m, 64);
        for bench in [BenchmarkId::Cg, BenchmarkId::Mg, BenchmarkId::Ep] {
            let profile = rvhpc_npb::profile(bench, Class::B);
            let analytic = predict(&profile, &s).seconds;
            let traced = predict_isa(&profile, &s, IsaExt::full()).seconds;
            let ratio = traced / analytic;
            assert!(
                (0.25..=4.0).contains(&ratio),
                "{bench:?}: isa {traced} vs profile {analytic} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn unmapped_benchmarks_fall_back_to_profile_backend() {
        let m = presets::sg2044();
        let s = scenario(&m, 16);
        let profile = rvhpc_npb::profile(BenchmarkId::Ft, Class::B);
        let a = predict(&profile, &s);
        let b = predict_isa(&profile, &s, IsaExt::full());
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.mops, b.mops);
    }

    #[test]
    fn zbb_ablation_changes_the_ep_prediction() {
        let m = presets::sg2044();
        let s = scenario(&m, 64);
        let profile = rvhpc_npb::profile(BenchmarkId::Ep, Class::B);
        let full = predict_isa(&profile, &s, IsaExt::full()).seconds;
        let no_zbb = predict_isa(
            &profile,
            &s,
            IsaExt {
                zbb: false,
                ..IsaExt::full()
            },
        )
        .seconds;
        assert!(
            no_zbb > full,
            "dropping zbb must slow compute-bound EP: {full} vs {no_zbb}"
        );
    }

    #[test]
    fn report_and_section_are_deterministic() {
        let m = presets::sg2044();
        let s = scenario(&m, 8);
        let ext = IsaExt::full();
        let runs: Vec<IsaRun> = KernelId::ALL
            .iter()
            .map(|&k| run_kernel(k, Class::B, &s, ext))
            .collect();
        let r1 = isa_report(&runs, &s, ext);
        let runs2: Vec<IsaRun> = KernelId::ALL
            .iter()
            .map(|&k| run_kernel(k, Class::B, &s, ext))
            .collect();
        let r2 = isa_report(&runs2, &s, ext);
        assert_eq!(r1, r2, "report must be byte-identical across runs");
        assert_eq!(
            isa_section(&runs, &s, ext).to_json(),
            isa_section(&runs2, &s, ext).to_json()
        );
        for k in ["triad", "spmv", "mg", "ep"] {
            assert!(r1.contains(&format!("| {k} |")), "row for {k} missing");
        }
        assert!(r1.contains("| kernel |"), "header missing");
    }

    #[test]
    fn triad_profile_validates_at_every_class() {
        for c in Class::ALL {
            let p = triad_profile(c);
            assert!(p.validate().is_ok(), "{c:?}: {:?}", p.validate());
        }
    }

    #[test]
    fn rvv_gating_follows_the_compiler_flag() {
        let m = presets::sg2044();
        let mut s = scenario(&m, 8);
        let on = run_kernel(KernelId::Triad, Class::B, &s, IsaExt::full());
        assert!(on.character.rvv_active, "sg2044 headline vectorises");
        s.compiler.vectorize = false;
        let off = run_kernel(KernelId::Triad, Class::B, &s, IsaExt::full());
        assert!(!off.character.rvv_active);
        assert!(off.character.instret > on.character.instret);
    }
}
