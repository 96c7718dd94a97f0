//! Kernel characterisation: assemble → decode → CFG → interpret a kernel
//! with trace events routed into the archsim replay models, yielding a
//! deterministic instruction-granularity [`KernelCharacter`] that the core
//! engine's `Backend::Isa` prediction path consumes.

use crate::cfg::build_cfg;
use crate::interp::execute;
use crate::ir::ExtSet;
use crate::kernels::{build, KernelId, MAX_STEPS};
use crate::trace::Tracer;
use rvhpc_archsim::cache::CacheStats;
use rvhpc_archsim::counters::HierarchyCounters;
use rvhpc_archsim::replay::{TraceConsumer, TraceEvent};
use rvhpc_machines::Machine;

/// The ablatable extension dimensions of the instruction-level backend.
/// `rvv` is a request: it only takes effect on machines whose vector unit
/// is RVV (see [`characterize`]), mirroring how the compiler flag sweeps in
/// the paper only matter on hardware that has the extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsaExt {
    pub zba: bool,
    pub zbb: bool,
    pub rvv: bool,
}

impl IsaExt {
    pub fn full() -> Self {
        IsaExt {
            zba: true,
            zbb: true,
            rvv: true,
        }
    }

    pub fn to_ext_set(self, rvv_active: bool) -> ExtSet {
        ExtSet {
            m: true,
            a: true,
            c: true,
            zba: self.zba,
            zbb: self.zbb,
            v: rvv_active,
        }
    }

    /// Short human-readable form, e.g. "+zba+zbb-rvv".
    pub fn label(self) -> String {
        let sign = |on: bool| if on { '+' } else { '-' };
        format!(
            "{}zba{}zbb{}rvv",
            sign(self.zba),
            sign(self.zbb),
            sign(self.rvv)
        )
    }
}

impl Default for IsaExt {
    fn default() -> Self {
        IsaExt::full()
    }
}

/// Everything the prediction backend needs to know about one kernel run:
/// architectural counts from the interpreter plus microarchitectural counts
/// from the replay models.
#[derive(Debug, Clone)]
pub struct KernelCharacter {
    pub kernel: KernelId,
    pub ext: IsaExt,
    /// Whether the RVV path was actually emitted (machine has RVV and
    /// `ext.rvv` was requested).
    pub rvv_active: bool,
    /// Units of useful work (elements / nonzeros / samples).
    pub elems: u64,
    pub flops_per_elem: f64,
    pub instret: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub vector_ops: u64,
    pub vector_elems: u64,
    pub gather_ops: u64,
    /// Static code properties.
    pub static_instrs: usize,
    pub compressed_instrs: usize,
    pub cfg_blocks: usize,
    pub cfg_edges: usize,
    /// Measured cache-hierarchy service counts for the kernel's (small)
    /// working set — a cross-check against the analytic hierarchy, not a
    /// class-scale measurement.
    pub hierarchy: HierarchyCounters,
    pub tlb: CacheStats,
}

impl KernelCharacter {
    pub fn instret_per_elem(&self) -> f64 {
        self.instret as f64 / self.elems as f64
    }

    pub fn refs_per_elem(&self) -> f64 {
        (self.loads + self.stores) as f64 / self.elems as f64
    }

    pub fn branch_rate(&self) -> f64 {
        self.branches as f64 / self.instret as f64
    }

    pub fn branch_misrate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Guest flops per retired guest instruction (rvr's "ops/guest" notion,
    /// applied to useful work).
    pub fn ops_per_instr(&self) -> f64 {
        self.flops_per_elem * self.elems as f64 / self.instret as f64
    }
}

/// Tracer adapter: forwards interpreter hooks into a [`TraceConsumer`].
/// Retirements are not forwarded one at a time: [`characterize`] adds the
/// run's `instret` once it is over.
struct ReplayTracer<'a> {
    consumer: &'a mut TraceConsumer,
}

impl Tracer for ReplayTracer<'_> {
    #[inline(always)]
    fn mem(&mut self, addr: u64, bytes: u8, is_store: bool) {
        let ev = if is_store {
            TraceEvent::Store { addr, bytes }
        } else {
            TraceEvent::Load { addr, bytes }
        };
        self.consumer.consume(ev);
    }

    #[inline(always)]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.consumer.consume(TraceEvent::Branch { pc, taken });
    }

    #[inline(always)]
    fn vector(&mut self, elems: u32, gather: bool) {
        self.consumer.consume(TraceEvent::Vector { elems, gather });
    }
}

/// Run the full pipeline for one kernel on one machine and return its
/// character. Deterministic: same inputs, same output. Panics if the kernel
/// traps or produces wrong results — both indicate a backend bug, never a
/// data-dependent condition.
pub fn characterize(
    kernel: KernelId,
    machine: &Machine,
    threads: u32,
    ext: IsaExt,
) -> KernelCharacter {
    let _prof = rvhpc_obs::prof::scope("isa.characterize");
    let rvv_active = ext.rvv && machine.vector.is_rvv();
    let ext_set = ext.to_ext_set(rvv_active);
    let vlen = if rvv_active {
        machine.vector.width_bits().max(64)
    } else {
        128
    };
    let mut built = build(kernel, &ext_set, vlen);
    let prog = built.decode(&ext_set);
    let cfg = build_cfg(&prog);

    let mut consumer = TraceConsumer::for_thread(machine, threads.max(1));
    let stats = {
        let mut tracer = ReplayTracer {
            consumer: &mut consumer,
        };
        execute(&mut built.cpu, &prog, &mut tracer, MAX_STEPS)
            .unwrap_or_else(|t| panic!("kernel {} trapped: {t}", kernel.name()))
    };
    built
        .verify(&built.cpu)
        .unwrap_or_else(|e| panic!("kernel {} verification failed: {e}", kernel.name()));
    consumer.retire(stats.instret);
    let replay = consumer.stats();
    debug_assert_eq!(replay.instret, stats.instret);

    KernelCharacter {
        kernel,
        ext,
        rvv_active,
        elems: built.elems,
        flops_per_elem: built.flops_per_elem,
        instret: stats.instret,
        loads: stats.loads,
        stores: stats.stores,
        branches: stats.branches,
        mispredicts: replay.mispredicts,
        vector_ops: stats.vector_ops,
        vector_elems: stats.vector_elems,
        gather_ops: replay.gather_ops,
        static_instrs: prog.instrs.len(),
        compressed_instrs: prog.compressed_count(),
        cfg_blocks: cfg.block_count(),
        cfg_edges: cfg.edge_count(),
        hierarchy: replay.hierarchy,
        tlb: replay.tlb,
    }
}
