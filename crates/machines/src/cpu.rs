//! Whole-machine descriptors.

use crate::cache::CacheSpec;
use crate::isa::{Isa, VectorIsa};
use crate::memory::MemorySpec;

/// Stable identifier for each machine in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineId {
    Sg2044,
    Sg2042,
    Epyc7742,
    Xeon8170,
    ThunderX2,
    VisionFiveV2,
    VisionFiveV1,
    SiFiveU740,
    AllWinnerD1,
    BananaPiF3,
    MilkVJupyter,
}

impl MachineId {
    /// All machines in the study, in the paper's presentation order.
    pub const ALL: [MachineId; 11] = [
        MachineId::Sg2044,
        MachineId::Sg2042,
        MachineId::Epyc7742,
        MachineId::Xeon8170,
        MachineId::ThunderX2,
        MachineId::VisionFiveV2,
        MachineId::VisionFiveV1,
        MachineId::SiFiveU740,
        MachineId::AllWinnerD1,
        MachineId::BananaPiF3,
        MachineId::MilkVJupyter,
    ];

    /// Short display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            MachineId::Sg2044 => "SG2044",
            MachineId::Sg2042 => "SG2042",
            MachineId::Epyc7742 => "EPYC 7742",
            MachineId::Xeon8170 => "Xeon 8170",
            MachineId::ThunderX2 => "ThunderX2",
            MachineId::VisionFiveV2 => "VisionFive V2",
            MachineId::VisionFiveV1 => "VisionFive V1",
            MachineId::SiFiveU740 => "SiFive U740",
            MachineId::AllWinnerD1 => "AllWinner D1",
            MachineId::BananaPiF3 => "Banana Pi",
            MachineId::MilkVJupyter => "Milk-V Jupyter",
        }
    }
}

/// Per-core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// Instructions decoded per cycle.
    pub decode_width: u32,
    /// Micro-ops issued per cycle (the superscalar width that bounds IPC).
    pub issue_width: u32,
    /// Load/store execution units.
    pub lsu_count: u32,
    /// Floating-point (FMA-capable) units.
    pub fpu_count: u32,
    /// Out-of-order window present? (in-order cores take a big IPC haircut
    /// on anything with cache misses).
    pub out_of_order: bool,
    /// Branch misprediction penalty in cycles.
    pub branch_miss_penalty: u32,
    /// Sustainable scalar IPC on integer-dominated, cache-resident code —
    /// the single calibrated "core quality" scalar (see
    /// `rvhpc-core::calibrate` for how it was fixed per machine).
    pub scalar_ipc: f64,
    /// Memory-level parallelism: outstanding DRAM misses one core sustains
    /// on *irregular* access streams (MSHR depth effectively).
    pub mlp: f64,
    /// Outstanding misses sustained on *streaming* access with the hardware
    /// prefetchers engaged — sets the single-core STREAM bandwidth.
    pub stream_mlp: f64,
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub id: MachineId,
    /// Marketing part name (paper Table 5 "Part").
    pub part: &'static str,
    pub isa: Isa,
    pub vector: VectorIsa,
    /// Physical cores.
    pub cores: u32,
    /// Cores per L2 cluster (1 when L2 is private).
    pub cores_per_cluster: u32,
    /// NUMA regions.
    pub numa_regions: u32,
    /// Base clock in GHz.
    pub clock_ghz: f64,
    pub core: CoreModel,
    /// L1 data cache (per core).
    pub l1d: CacheSpec,
    /// L2 cache.
    pub l2: CacheSpec,
    /// L3 cache, if present.
    pub l3: Option<CacheSpec>,
    pub memory: MemorySpec,
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn numa_arithmetic() {
        let epyc = presets::epyc7742();
        assert_eq!(epyc.numa_regions, 4);
        assert_eq!(epyc.cores / epyc.numa_regions, 16);
    }
}
