//! Print the DESIGN.md §6 model ablations: what each modelling choice
//! changes, with the alternative next to it. No timing — the numbers are
//! pure functions of the machine descriptors.
//!
//! ```sh
//! cargo run --release --example model_ablations
//! ```

use rvhpc::archsim::hierarchy::{Hierarchy, Pattern};
use rvhpc::archsim::vector::{VecPattern, VectorModel};
use rvhpc::archsim::{DramModel, SaturationLaw};
use rvhpc::eval::model::{predict, Scenario};
use rvhpc::machines::{presets, Compiler, CompilerConfig};
use rvhpc::npb::{BenchmarkId, Class};

/// Hard-knee vs smooth (queueing) DRAM saturation law: where the STREAM
/// plateau falls under each, and the end-to-end effect on Table 4's MG row.
fn dram_saturation() {
    println!("DRAM saturation law — STREAM copy GB/s by core count:");
    println!(
        "{:>8} {:>18} {:>18}",
        "cores", "SG2042 hard/smooth", "SG2044 hard/smooth"
    );
    let machines = [presets::sg2042(), presets::sg2044()];
    for p in [1u32, 2, 4, 8, 16, 32, 64] {
        let row = machines.each_ref().map(|m| {
            let base = DramModel::new(&m.memory, &m.core, m.clock_ghz).with_cores(m.cores);
            let hard = base.clone().with_law(SaturationLaw::HardKnee).bandwidth(p);
            let smooth = base.with_law(SaturationLaw::Queueing).bandwidth(p);
            format!("{hard:>7.1}/{smooth:<7.1}")
        });
        println!("{p:>8} {:>18} {:>18}", row[0], row[1]);
    }
    let profile = rvhpc::npb::profile(BenchmarkId::Mg, Class::C);
    for law in [SaturationLaw::HardKnee, SaturationLaw::Queueing] {
        let [m42, m44] = machines.each_ref().map(|m| {
            let mut s = Scenario::paper_headline(m, BenchmarkId::Mg, 64);
            s.law = law;
            predict(&profile, &s).mops
        });
        println!(
            "MG 64-core SG2044/SG2042 ratio under {law:?}: {:.2} (paper 2.25)",
            m44 / m42
        );
    }
}

/// Contended per-thread slice vs one shared copy of the cache for shared
/// data: the choice behind the residency of CG's class-C x vector.
fn cache_sharing() {
    println!("\nCache residency of shared data — DRAM fraction of CG's x vector:");
    let m = presets::sg2044();
    let ws = 150_000.0 * 8.0;
    let pattern = Pattern::Indirect { elem_bytes: 8 };
    for threads in [1u32, 4, 16, 64] {
        let h = Hierarchy::for_threads(&m, threads);
        println!(
            "{threads:>3} threads: per-thread-slice model dram {:.2} | shared-copy model dram {:.2}",
            h.breakdown(ws, pattern).dram,
            h.breakdown_shared(ws, pattern).dram
        );
    }
}

/// The gather cost model across ISAs; `reproduce table7` shows the CG
/// anomaly it produces.
fn vector_gather() {
    println!("\nVector gather cost across ISAs:");
    println!(
        "{:>14} {:>22} {:>14} {:>12}",
        "machine", "unit-stride speedup", "gather speedup", "gather cost"
    );
    for (m, compiler) in [
        (presets::sg2044(), Compiler::Gcc15_2),
        (presets::banana_pi_f3(), Compiler::Gcc15_2),
        (presets::epyc7742(), Compiler::Gcc11_2),
        (presets::xeon8170(), Compiler::Gcc8_4),
        (presets::thunderx2(), Compiler::Gcc9_2),
    ] {
        let config = CompilerConfig {
            compiler,
            vectorize: true,
        };
        let vm = VectorModel::new(m.vector, &m.core, config);
        println!(
            "{:>14} {:>22.2} {:>14.2} {:>12.1}",
            m.id.name(),
            vm.speedup(8, VecPattern::UnitStride),
            vm.speedup(8, VecPattern::Gather),
            m.vector.gather_cost_factor(),
        );
    }
}

fn main() {
    dram_saturation();
    cache_sharing();
    vector_gather();
}
