//! The phase-based performance predictor.
//!
//! For each phase of a workload profile, on a machine with `p` threads and
//! a compiler configuration:
//!
//! ```text
//! instr   = instructions · scalar_quality⁻¹ · vector_factor(pattern)
//! cpi     = base_cpi(branches) + exposed_memory_stalls
//! t_cpu   = instr · cpi / (p · clock) · amdahl(p, imbalance)
//! t_bw    = dram_line_traffic / B(p)
//! t_phase = max(t_cpu, t_bw)
//! ```
//!
//! plus a barrier-cost term per profile. The model's *only* calibrated
//! per-benchmark constant is the global scale in [`crate::calibrate`];
//! machines differ exclusively through their architectural parameters.

use rvhpc_archsim::hierarchy::{Hierarchy, MissBreakdown, Pattern};
use rvhpc_archsim::vector::{VecPattern, VectorModel};
use rvhpc_archsim::{
    CoreCounters, DramModel, HierarchyCounters, PipelineModel, QueueOccupancy, SaturationLaw,
    StallAccount,
};
use rvhpc_machines::{CompilerConfig, Machine};
use rvhpc_npb::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use rvhpc_parallel::BindPolicy;

/// Everything that parameterizes one prediction.
#[derive(Debug, Clone)]
pub struct Scenario<'a> {
    pub machine: &'a Machine,
    pub compiler: CompilerConfig,
    pub threads: u32,
    pub bind: BindPolicy,
    /// DRAM saturation law (default queueing; ablations override).
    pub law: SaturationLaw,
}

impl<'a> Scenario<'a> {
    /// Headline configuration: the machine's paper compiler, all
    /// defaults.
    pub fn headline(machine: &'a Machine, threads: u32) -> Self {
        Self {
            machine,
            compiler: CompilerConfig::headline(rvhpc_machines::compiler::headline_compiler_for(
                machine.id,
            )),
            threads,
            bind: BindPolicy::Unbound,
            law: SaturationLaw::default(),
        }
    }

    /// The configuration the paper actually ran for a benchmark: headline,
    /// except that CG's vectorisation is disabled on the RVV 1.0 machines
    /// (§3: "vectorisation is enabled ... apart from for the CG
    /// benchmark"; §6 explains why).
    pub fn paper_headline(
        machine: &'a Machine,
        bench: rvhpc_npb::BenchmarkId,
        threads: u32,
    ) -> Self {
        let mut s = Self::headline(machine, threads);
        if bench == rvhpc_npb::BenchmarkId::Cg
            && matches!(machine.vector, rvhpc_machines::VectorIsa::Rvv1_0 { .. })
        {
            s.compiler.vectorize = false;
        }
        s
    }
}

/// Per-phase predicted timings (for reports and debugging).
#[derive(Debug, Clone)]
pub struct PhaseTime {
    pub name: &'static str,
    pub seconds: f64,
    pub cpu_seconds: f64,
    pub bw_seconds: f64,
    pub dram_utilization: f64,
}

/// A model prediction for one (workload, scenario).
#[derive(Debug, Clone)]
pub struct Prediction {
    pub seconds: f64,
    pub mops: f64,
    pub per_phase: Vec<PhaseTime>,
    pub stalls: StallAccount,
    /// Run-global hierarchy service counts implied by the model's
    /// per-phase miss breakdowns (references, not cycles).
    pub hierarchy: HierarchyCounters,
    /// Duration-weighted DRAM queue occupancy over the whole run.
    pub dram_queue: QueueOccupancy,
}

impl Prediction {
    /// Attribute the run-global counters to `p` cores. The model predicts
    /// chip-level SPMD behaviour, so the per-core view is the uniform
    /// partition — integer counts are distributed exactly (the first
    /// `total mod p` cores carry one extra), stall cycles and queue
    /// occupancy are split evenly. Summing the returned sets reproduces
    /// the run-global values (exactly for the integer counters).
    pub(crate) fn per_core(&self, p: u32) -> Vec<CoreCounters> {
        let p = p.max(1);
        let share = |total: u64, i: u64| -> u64 {
            total / u64::from(p) + u64::from(i < total % u64::from(p))
        };
        let stalls = self.stalls.split(p);
        (0..u64::from(p))
            .map(|i| {
                let l1 = share(self.hierarchy.l1_hits, i);
                let l2 = share(self.hierarchy.l2_hits, i);
                let l3 = share(self.hierarchy.l3_hits, i);
                let dram = share(self.hierarchy.dram, i);
                CoreCounters {
                    hierarchy: HierarchyCounters {
                        // Per-core accesses follow the per-core services,
                        // keeping every core's set self-consistent.
                        accesses: l1 + l2 + l3 + dram,
                        l1_hits: l1,
                        l2_hits: l2,
                        l3_hits: l3,
                        dram,
                    },
                    tlb: Default::default(),
                    dram_queue: QueueOccupancy {
                        weighted_depth: self.dram_queue.weighted_depth / f64::from(p),
                        time: self.dram_queue.time / f64::from(p),
                    },
                    stalls: stalls[i as usize],
                }
            })
            .collect()
    }
}

/// Map a profile pattern to the hierarchy and vector classifications.
fn classify(ph: &PhaseProfile) -> (Pattern, VecPattern) {
    match ph.pattern {
        AccessPattern::Streaming | AccessPattern::ComputeOnly => (
            Pattern::Streaming {
                elem_bytes: ph.elem_bytes,
            },
            VecPattern::UnitStride,
        ),
        AccessPattern::Strided { stride_bytes } => {
            (Pattern::Strided { stride_bytes }, VecPattern::UnitStride)
        }
        AccessPattern::ScatterStreams => (
            Pattern::Streaming {
                elem_bytes: ph.elem_bytes,
            },
            VecPattern::UnitStride,
        ),
        AccessPattern::RandomInWorkingSet => (
            Pattern::RandomInWs {
                elem_bytes: ph.elem_bytes,
            },
            VecPattern::Gather,
        ),
        AccessPattern::Indirect => (
            Pattern::Indirect {
                elem_bytes: ph.elem_bytes,
            },
            VecPattern::Gather,
        ),
    }
}

/// Bandwidth factor for the thread-placement policy (§5.2's OMP_PROC_BIND
/// experiment): packing threads onto consecutive clusters concentrates
/// demand on nearby controllers and costs a little sustained bandwidth at
/// partial occupancy; OS-free migration spreads it.
fn placement_bandwidth_factor(bind: BindPolicy, machine: &Machine, threads: u32) -> f64 {
    match bind {
        BindPolicy::Unbound => 1.0,
        BindPolicy::Spread => 0.995,
        BindPolicy::Close => {
            if threads < machine.cores {
                0.94
            } else {
                1.0 // full chip: placement is moot
            }
        }
    }
}

/// Predict the execution of `profile` under `scenario`.
pub fn predict(profile: &WorkloadProfile, scenario: &Scenario<'_>) -> Prediction {
    let m = scenario.machine;
    let p = scenario.threads.min(m.cores).max(1);
    let clock_hz = m.clock_ghz * 1e9;

    let pipeline = PipelineModel::new(m.core);
    let vector = VectorModel::new(m.vector, &m.core, scenario.compiler);
    let hier = Hierarchy::for_threads(m, p);
    let dram = DramModel::new(&m.memory, &m.core, m.clock_ghz)
        .with_cores(m.cores)
        .with_law(scenario.law);
    let bw_factor = placement_bandwidth_factor(scenario.bind, m, p);

    let scalar_quality = if m.isa.is_riscv() {
        scenario.compiler.compiler.scalar_quality_riscv()
    } else {
        1.0
    };

    // Amdahl + imbalance: the parallel share is divided across p threads
    // (with the slowest thread carrying `imbalance` × the mean), the
    // serial share is not.
    let pf = profile.parallel_fraction;
    let speedup_denom = (1.0 - pf) + pf * profile.imbalance / p as f64;

    let mut per_phase = Vec::with_capacity(profile.phases.len());
    let mut stalls = StallAccount::default();
    let mut hierarchy = HierarchyCounters::default();
    let mut dram_queue = QueueOccupancy::default();
    let mut total = 0.0f64;

    for ph in &profile.phases {
        let (mem_pattern, vec_pattern) = classify(ph);

        // Effective instruction count after compiler + vectorisation.
        let vfac = vector.instruction_factor(ph.vectorizable, ph.elem_bytes, vec_pattern);
        let instr = ph.instructions / scalar_quality * vfac;

        // Cache behaviour on the per-thread working set.
        let ws = if ph.ws_partitioned {
            (ph.working_set_bytes / p as f64).max(4096.0)
        } else {
            ph.working_set_bytes
        };
        let br: MissBreakdown = if ph.ws_partitioned {
            hier.breakdown(ws, mem_pattern)
        } else {
            hier.breakdown_shared(ws, mem_pattern)
        };

        // DRAM pressure: every DRAM-serviced reference moves one line.
        let dram_refs = ph.mem_refs * br.dram;
        let dram_bytes = dram_refs * 64.0;
        let bw = dram.bandwidth(p) * bw_factor;
        let t_bw = dram_bytes / (bw * 1e9);

        // Irregular phases are bounded by the chip's random-access
        // throughput (MLP-limited per core, channel-contention-limited in
        // aggregate) rather than streaming bandwidth.
        let is_random = matches!(
            mem_pattern,
            Pattern::RandomInWs { .. } | Pattern::Indirect { .. }
        ) || matches!(ph.pattern, AccessPattern::ScatterStreams);
        let t_rand = if is_random && dram_refs > 0.0 {
            dram_refs / dram.random_access_rate(p)
        } else {
            0.0
        };

        // Exposed latency stalls per instruction for the on-chip levels;
        // streaming phases also pay a prefetch-depth-limited DRAM term
        // (irregular phases account DRAM through t_rand instead).
        let lat_mlp = match mem_pattern {
            Pattern::Streaming { .. } | Pattern::Strided { .. } => m.core.stream_mlp,
            Pattern::RandomInWs { .. } | Pattern::Indirect { .. } => m.core.mlp,
        }
        .max(1.0);
        let l2_lat = f64::from(m.l2.latency_cycles);
        let l3_lat = m.l3.map_or(0.0, |l3| f64::from(l3.latency_cycles));
        // Streaming DRAM latency is prefetch-hidden and its contention
        // cost is already priced into t_bw; only the idle pipe depth
        // leaks through.
        let dram_lat_cycles = if is_random {
            0.0
        } else {
            dram.idle_latency_ns * m.clock_ghz / lat_mlp
        };
        let refs_per_instr = if instr > 0.0 {
            ph.mem_refs / instr
        } else {
            0.0
        };
        let mem_stall_per_instr = refs_per_instr
            * (br.l2 * l2_lat / lat_mlp.min(4.0)
                + br.l3 * l3_lat / lat_mlp.min(8.0)
                + br.dram * dram_lat_cycles);

        let cpi = pipeline.cpi(ph.branch_rate, ph.branch_misrate, mem_stall_per_instr);
        let t_cpu = instr * cpi / clock_hz * speedup_denom;
        // The per-benchmark calibration constant absorbs instruction- and
        // reference-count uncertainty; byte counts are exact, so pure
        // bandwidth time is not scaled.
        let kappa = crate::calibrate::scale(profile.bench);
        let t_phase = (t_cpu.max(t_rand) * kappa).max(t_bw);
        total += t_phase;

        // The utilization this phase actually imposes on the controllers.
        let utilization = if t_phase > 0.0 {
            ((dram_bytes / t_phase) / (dram.bmax_gbs * 1e9)).clamp(0.0, 1.0)
        } else {
            0.0
        };

        // Stall bookkeeping: per-thread wall cycles split proportionally.
        // Within the CPU-bound share, issue vs exposed-stall cycles follow
        // the CPI decomposition; any wall time beyond the CPU share is
        // memory wait (bandwidth- or random-throughput-bound) and is
        // booked against the level that bounds the phase.
        let wall_cycles = t_phase * clock_hz;
        let base = pipeline.base_cpi(ph.branch_rate, ph.branch_misrate);
        let exposed = mem_stall_per_instr * (1.0 - pipeline.stall_overlap());
        let cpi_total = base + exposed;
        let cpu_wall = (t_cpu * kappa).min(t_phase) * clock_hz;
        let compute_cycles = cpu_wall * base / cpi_total;
        let cache_frac = (br.l2 * l2_lat + br.l3 * l3_lat)
            / (br.l2 * l2_lat + br.l3 * l3_lat + br.dram * dram_lat_cycles).max(1e-30);
        let cache_stall_cycles = cpu_wall * (exposed / cpi_total) * cache_frac;
        let dram_stall_cycles = (wall_cycles - compute_cycles - cache_stall_cycles).max(0.0);
        stalls.add_phase(
            compute_cycles,
            cache_stall_cycles,
            dram_stall_cycles,
            t_phase,
            utilization,
        );

        per_phase.push(PhaseTime {
            name: ph.name,
            seconds: t_phase,
            cpu_seconds: t_cpu,
            bw_seconds: t_bw,
            dram_utilization: utilization,
        });

        // Counter bookkeeping: turn the miss breakdown into integer
        // service counts (l1 absorbs the rounding so the partition is
        // exact) and sample the controller queue for the phase duration.
        let refs = ph.mem_refs.max(0.0);
        let l2_n = (refs * br.l2) as u64;
        let l3_n = (refs * br.l3) as u64;
        let dram_n = (refs * br.dram) as u64;
        let l1_n = (refs as u64).saturating_sub(l2_n + l3_n + dram_n);
        hierarchy += HierarchyCounters {
            accesses: l1_n + l2_n + l3_n + dram_n,
            l1_hits: l1_n,
            l2_hits: l2_n,
            l3_hits: l3_n,
            dram: dram_n,
        };
        // Little's law with the phase's actual arrival rate: the model's
        // queue_depth(p) assumes all p cores streaming flat out, so scale
        // by this phase's achieved DRAM utilization (≈0 for compute-bound
        // phases, the full streaming depth when saturated).
        dram_queue.observe(dram.queue_depth(p) * utilization, t_phase);
    }

    // Synchronization: a centralized barrier costs O(p) cache-line
    // transactions; ~(0.25 + 0.05·p) µs is representative across the
    // machines studied.
    let barrier_s = (0.25e-6 + 0.05e-6 * p as f64) * profile.barriers;
    total += barrier_s;

    let mops = profile.total_ops / total / 1e6;
    Prediction {
        seconds: total,
        mops,
        per_phase,
        stalls,
        hierarchy,
        dram_queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::presets;
    use rvhpc_npb::{BenchmarkId, Class};

    fn sg2044_at(threads: u32) -> Prediction {
        let m = presets::sg2044();
        let profile = rvhpc_npb::profile(BenchmarkId::Mg, Class::C);
        predict(&profile, &Scenario::headline(&m, threads))
    }

    #[test]
    fn more_threads_is_faster() {
        let t1 = sg2044_at(1).seconds;
        let t16 = sg2044_at(16).seconds;
        let t64 = sg2044_at(64).seconds;
        assert!(t16 < t1 / 4.0, "poor scaling: {t1} -> {t16}");
        assert!(t64 < t16, "{t16} -> {t64}");
    }

    #[test]
    fn mops_is_consistent_with_seconds() {
        let m = presets::sg2044();
        let profile = rvhpc_npb::profile(BenchmarkId::Ep, Class::C);
        let pred = predict(&profile, &Scenario::headline(&m, 64));
        assert!((pred.mops - profile.total_ops / pred.seconds / 1e6).abs() < 1e-6);
    }

    #[test]
    fn per_core_counters_sum_to_run_globals() {
        for b in [BenchmarkId::Cg, BenchmarkId::Mg, BenchmarkId::Is] {
            let m = presets::sg2044();
            let profile = rvhpc_npb::profile(b, Class::B);
            let pred = predict(&profile, &Scenario::headline(&m, 64));
            assert!(
                pred.hierarchy.is_consistent(),
                "{b:?}: {:?}",
                pred.hierarchy
            );
            assert!(pred.hierarchy.accesses > 0);
            let cores = pred.per_core(64);
            assert_eq!(cores.len(), 64);
            let total: CoreCounters = cores.iter().copied().sum();
            // Integer counters partition exactly.
            assert_eq!(total.hierarchy, pred.hierarchy, "{b:?}");
            assert!(total.hierarchy.is_consistent());
            for c in &cores {
                assert!(c.hierarchy.is_consistent(), "{b:?} per-core set");
            }
            // Float counters partition up to rounding.
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
            assert!(rel(total.stalls.total_time, pred.stalls.total_time) < 1e-9);
            assert!(rel(total.stalls.compute_cycles, pred.stalls.compute_cycles) < 1e-9);
            assert!(rel(total.dram_queue.time, pred.dram_queue.time) < 1e-9);
            // Queue depth is intensive: the per-core average matches the
            // run average (each core sees its 1/p share of both terms).
            assert!(rel(cores[0].dram_queue.avg_depth(), pred.dram_queue.avg_depth()) < 1e-9);
        }
    }

    #[test]
    fn predictions_are_positive_and_finite_everywhere() {
        for m in presets::all() {
            for b in BenchmarkId::ALL {
                for threads in [1u32, 2, m.cores] {
                    let profile = rvhpc_npb::profile(b, Class::B);
                    let pred = predict(&profile, &Scenario::headline(&m, threads));
                    assert!(
                        pred.seconds.is_finite() && pred.seconds > 0.0,
                        "{:?}/{b:?}/{threads}",
                        m.id
                    );
                    assert!(pred.mops > 0.0);
                }
            }
        }
    }

    #[test]
    fn bandwidth_bound_phase_tracks_dram_model() {
        // MG at full SG2042 must be bandwidth-limited.
        let m = presets::sg2042();
        let profile = rvhpc_npb::profile(BenchmarkId::Mg, Class::C);
        let pred = predict(&profile, &Scenario::headline(&m, 64));
        let main = &pred.per_phase[0];
        assert!(
            main.bw_seconds > main.cpu_seconds,
            "MG/SG2042/64t should be bandwidth bound: {main:?}"
        );
    }

    #[test]
    fn ep_is_compute_bound_everywhere() {
        for m in [presets::sg2044(), presets::epyc7742()] {
            let profile = rvhpc_npb::profile(BenchmarkId::Ep, Class::C);
            let pred = predict(&profile, &Scenario::headline(&m, m.cores));
            let main = &pred.per_phase[0];
            assert!(
                main.cpu_seconds > 10.0 * main.bw_seconds,
                "{:?}: EP must be compute bound",
                m.id
            );
        }
    }

    #[test]
    fn unbound_beats_close_packing_for_mg() {
        // §5.2: OMP_PROC_BIND=false was consistently best on the SG2044.
        let m = presets::sg2044();
        let profile = rvhpc_npb::profile(BenchmarkId::Mg, Class::C);
        let mut s = Scenario::headline(&m, 32);
        let unbound = predict(&profile, &s).seconds;
        s.bind = BindPolicy::Close;
        let close = predict(&profile, &s).seconds;
        assert!(unbound < close, "unbound {unbound} vs close {close}");
    }

    #[test]
    fn threads_clamp_to_machine_cores() {
        let m = presets::xeon8170();
        let profile = rvhpc_npb::profile(BenchmarkId::Ep, Class::B);
        let at26 = predict(&profile, &Scenario::headline(&m, 26)).seconds;
        let at64 = predict(&profile, &Scenario::headline(&m, 64)).seconds;
        assert_eq!(at26, at64);
    }
}
