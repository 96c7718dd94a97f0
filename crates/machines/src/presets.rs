//! The eleven machines of the study.
//!
//! Parameter provenance:
//! * SG2044/SG2042: paper §2.1 (cores, clusters, caches, RVV versions,
//!   clocks, 32-vs-4 memory controllers/channels, DDR5-4266 vs DDR4-3200).
//! * EPYC 7742 / Xeon 8170 / ThunderX2: paper §5 + Table 5 (cores, caches,
//!   vector ISAs, memory controllers/channels, DDR generations).
//! * Small RISC-V boards: paper §3 + the referenced datasheets (\[1\], \[7\],
//!   \[14\], \[15\]).
//!
//! Microarchitectural scalars that the paper does not state (sustainable
//! scalar IPC, memory-level parallelism, sustained DRAM fraction, idle
//! latency) are *calibrated*: fixed once against the paper's single-core
//! Table 2/3 and STREAM Figure 1 anchor points, then held constant for
//! every other experiment. `rvhpc-core::calibrate` documents each value.

use crate::cache::CacheSpec;
use crate::cpu::{CoreModel, Machine, MachineId};
use crate::isa::{Isa, VectorIsa};
use crate::memory::{DdrGeneration, MemorySpec};

/// SOPHGO Sophon SG2044: 64 × XuanTie C920v2 @ 2.6 GHz, RVV v1.0 (128-bit),
/// 32 memory controllers / 32 DDR5-4266 sub-channels, single NUMA region.
pub fn sg2044() -> Machine {
    Machine {
        id: MachineId::Sg2044,
        part: "SG2044",
        isa: Isa::Rv64gcv,
        vector: VectorIsa::Rvv1_0 { vlen_bits: 128 },
        cores: 64,
        cores_per_cluster: 4,
        numa_regions: 1,
        clock_ghz: 2.6,
        core: CoreModel {
            decode_width: 3,
            issue_width: 8,
            lsu_count: 2,
            fpu_count: 1,
            out_of_order: true,
            branch_miss_penalty: 12,
            scalar_ipc: 1.30,
            mlp: 4.0,
            stream_mlp: 8.0,
        },
        l1d: CacheSpec::kib(64, 4, 1, 4),
        l2: CacheSpec::mib(2, 16, 4, 24),
        l3: Some(CacheSpec::mib(64, 16, 64, 45)),
        memory: MemorySpec {
            controllers: 32,
            channels: 32,
            channel_bytes: 4,
            mt_per_s: 4266,
            generation: DdrGeneration::Ddr5,
            idle_latency_ns: 105.0,
            sustained_fraction: 0.21,
        },
    }
}

/// SOPHGO Sophon SG2042: 64 × XuanTie C920v1 @ 2.0 GHz, RVV v0.7.1
/// (128-bit), 4 memory controllers / 4 DDR4-3200 channels.
pub fn sg2042() -> Machine {
    Machine {
        id: MachineId::Sg2042,
        part: "SG2042",
        isa: Isa::Rv64gcv,
        vector: VectorIsa::Rvv0_7 { vlen_bits: 128 },
        cores: 64,
        cores_per_cluster: 4,
        numa_regions: 1,
        clock_ghz: 2.0,
        core: CoreModel {
            decode_width: 3,
            issue_width: 8,
            lsu_count: 2,
            fpu_count: 1,
            out_of_order: true,
            branch_miss_penalty: 12,
            scalar_ipc: 1.30,
            mlp: 4.0,
            stream_mlp: 8.0,
        },
        l1d: CacheSpec::kib(64, 4, 1, 4),
        // Half the SG2044's per-cluster L2 (paper §2.1).
        l2: CacheSpec::mib(1, 16, 4, 24),
        l3: Some(CacheSpec::mib(64, 16, 64, 45)),
        memory: MemorySpec {
            controllers: 4,
            channels: 4,
            channel_bytes: 8,
            mt_per_s: 3200,
            generation: DdrGeneration::Ddr4,
            idle_latency_ns: 115.0,
            sustained_fraction: 0.36,
        },
    }
}

/// AMD EPYC 7742 (Rome, Zen 2): 64 cores @ 2.25 GHz, AVX2, 4 NUMA regions,
/// 8 memory controllers / 8 DDR4-3200 channels (ARCHER2 node, SMT off).
pub fn epyc7742() -> Machine {
    Machine {
        id: MachineId::Epyc7742,
        part: "EPYC 7742",
        isa: Isa::X86_64,
        vector: VectorIsa::Avx2,
        cores: 64,
        cores_per_cluster: 4, // CCX: 4 cores sharing an L3 slice
        numa_regions: 4,
        clock_ghz: 2.25,
        core: CoreModel {
            decode_width: 4,
            issue_width: 6,
            lsu_count: 3,
            fpu_count: 2,
            out_of_order: true,
            branch_miss_penalty: 16,
            scalar_ipc: 1.55,
            mlp: 10.0,
            stream_mlp: 24.0,
        },
        l1d: CacheSpec::kib(32, 8, 1, 4),
        l2: CacheSpec::kib(512, 8, 1, 12),
        l3: Some(CacheSpec::mib(16, 16, 4, 39)),
        memory: MemorySpec {
            controllers: 8,
            channels: 8,
            channel_bytes: 8,
            mt_per_s: 3200,
            generation: DdrGeneration::Ddr4,
            idle_latency_ns: 90.0,
            sustained_fraction: 0.75,
        },
    }
}

/// Intel Xeon Platinum 8170 (Skylake-SP): 26 cores @ 2.1 GHz, AVX-512,
/// 2 memory controllers / 6 DDR4-2666 channels.
pub fn xeon8170() -> Machine {
    Machine {
        id: MachineId::Xeon8170,
        part: "Xeon Platinum 8170",
        isa: Isa::X86_64,
        vector: VectorIsa::Avx512,
        cores: 26,
        cores_per_cluster: 1,
        numa_regions: 1,
        clock_ghz: 2.1,
        core: CoreModel {
            decode_width: 4,
            issue_width: 8,
            lsu_count: 3,
            fpu_count: 2,
            out_of_order: true,
            branch_miss_penalty: 16,
            scalar_ipc: 1.60,
            mlp: 10.0,
            stream_mlp: 16.0,
        },
        l1d: CacheSpec::kib(32, 8, 1, 4),
        l2: CacheSpec::mib(1, 16, 1, 14),
        // 35.75 MiB shared, ~1.375 MiB/core (paper §5).
        l3: Some(CacheSpec::kib(36608, 11, 26, 50)),
        memory: MemorySpec {
            controllers: 2,
            channels: 6,
            channel_bytes: 8,
            mt_per_s: 2666,
            generation: DdrGeneration::Ddr4,
            idle_latency_ns: 75.0,
            sustained_fraction: 0.72,
        },
    }
}

/// Marvell ThunderX2 CN9980 (Vulcan): 32 cores @ 2.0 GHz, NEON,
/// 2 memory controllers / 8 DDR4-2666 channels (Fulhame node, SMT off).
pub fn thunderx2() -> Machine {
    Machine {
        id: MachineId::ThunderX2,
        part: "CN9980",
        isa: Isa::Aarch64,
        vector: VectorIsa::Neon,
        cores: 32,
        cores_per_cluster: 1,
        numa_regions: 1,
        clock_ghz: 2.0,
        core: CoreModel {
            decode_width: 4,
            issue_width: 6,
            lsu_count: 2,
            fpu_count: 2,
            out_of_order: true,
            branch_miss_penalty: 14,
            scalar_ipc: 1.30,
            mlp: 8.0,
            stream_mlp: 20.0,
        },
        l1d: CacheSpec::kib(32, 8, 1, 4),
        l2: CacheSpec::kib(256, 8, 1, 9),
        l3: Some(CacheSpec::mib(32, 16, 32, 40)),
        memory: MemorySpec {
            controllers: 2,
            channels: 8,
            channel_bytes: 8,
            mt_per_s: 2666,
            generation: DdrGeneration::Ddr4,
            idle_latency_ns: 85.0,
            sustained_fraction: 0.65,
        },
    }
}

/// StarFive VisionFive V2 (JH7110): 4 × SiFive U74 @ 1.5 GHz, no vector
/// unit, single 32-bit LPDDR4 channel, 8 GB.
pub fn visionfive_v2() -> Machine {
    Machine {
        id: MachineId::VisionFiveV2,
        part: "JH7110 (U74)",
        isa: Isa::Rv64gc,
        vector: VectorIsa::None,
        cores: 4,
        cores_per_cluster: 4,
        numa_regions: 1,
        clock_ghz: 1.5,
        core: u74_core(),
        l1d: CacheSpec::kib(32, 8, 1, 3),
        l2: CacheSpec::mib(2, 16, 4, 21),
        l3: None,
        memory: MemorySpec {
            controllers: 1,
            channels: 1,
            channel_bytes: 4,
            mt_per_s: 2800,
            generation: DdrGeneration::Lpddr4,
            idle_latency_ns: 130.0,
            sustained_fraction: 0.55,
        },
    }
}

/// StarFive VisionFive V1 (JH7100): 2 × SiFive U74 @ 1.0 GHz; the JH7100's
/// uncached memory path makes its effective memory performance far worse
/// than the JH7110's (consistent with the paper's Table 2 and \[4\]).
pub(crate) fn visionfive_v1() -> Machine {
    Machine {
        id: MachineId::VisionFiveV1,
        part: "JH7100 (U74)",
        isa: Isa::Rv64gc,
        vector: VectorIsa::None,
        cores: 2,
        cores_per_cluster: 2,
        numa_regions: 1,
        clock_ghz: 1.0,
        core: CoreModel {
            // The JH7100's memory path defeats the U74's modest
            // concurrency almost entirely.
            mlp: 1.0,
            stream_mlp: 2.0,
            ..u74_core()
        },
        l1d: CacheSpec::kib(32, 8, 1, 3),
        l2: CacheSpec::mib(2, 16, 2, 21),
        l3: None,
        memory: MemorySpec {
            controllers: 1,
            channels: 1,
            channel_bytes: 4,
            mt_per_s: 2800,
            generation: DdrGeneration::Lpddr4,
            idle_latency_ns: 185.0,
            sustained_fraction: 0.14,
        },
    }
}

/// SiFive HiFive Unmatched (Freedom U740): 4 × U74 @ 1.2 GHz, 16 GB DDR4;
/// the FU740's memory controller sustains a small fraction of peak.
pub(crate) fn sifive_u740() -> Machine {
    Machine {
        id: MachineId::SiFiveU740,
        part: "Freedom U740",
        isa: Isa::Rv64gc,
        vector: VectorIsa::None,
        cores: 4,
        cores_per_cluster: 4,
        numa_regions: 1,
        clock_ghz: 1.2,
        core: CoreModel {
            mlp: 1.1,
            stream_mlp: 2.2,
            ..u74_core()
        },
        l1d: CacheSpec::kib(32, 8, 1, 3),
        l2: CacheSpec::mib(2, 16, 4, 21),
        l3: None,
        memory: MemorySpec {
            controllers: 1,
            channels: 1,
            channel_bytes: 8,
            mt_per_s: 2400,
            generation: DdrGeneration::Ddr4,
            idle_latency_ns: 160.0,
            sustained_fraction: 0.10,
        },
    }
}

/// AllWinner D1: 1 × XuanTie C906 @ 1.0 GHz, RVV v0.7.1 (128-bit), 1 GB
/// DDR3 — too little memory to run FT class B (paper: DNR).
pub(crate) fn allwinner_d1() -> Machine {
    Machine {
        id: MachineId::AllWinnerD1,
        part: "D1 (C906)",
        isa: Isa::Rv64gcv,
        vector: VectorIsa::Rvv0_7 { vlen_bits: 128 },
        cores: 1,
        cores_per_cluster: 1,
        numa_regions: 1,
        clock_ghz: 1.0,
        core: CoreModel {
            decode_width: 1,
            issue_width: 1,
            lsu_count: 1,
            fpu_count: 1,
            out_of_order: false,
            branch_miss_penalty: 5,
            scalar_ipc: 0.78,
            mlp: 0.8,
            stream_mlp: 1.8,
        },
        l1d: CacheSpec::kib(32, 4, 1, 3),
        l2: CacheSpec::mib(1, 16, 1, 20),
        l3: None,
        memory: MemorySpec {
            controllers: 1,
            channels: 1,
            channel_bytes: 4,
            mt_per_s: 1584, // DDR3-792 double data rate
            generation: DdrGeneration::Ddr3,
            idle_latency_ns: 170.0,
            sustained_fraction: 0.50,
        },
    }
}

/// Banana Pi BPI-F3 (SpacemiT K1): 8 × X60 @ 1.6 GHz, RVV v1.0 with
/// 256-bit vectors, RVA22; LPDDR4.
pub fn banana_pi_f3() -> Machine {
    Machine {
        id: MachineId::BananaPiF3,
        part: "SpacemiT K1 (X60)",
        isa: Isa::Rv64gcv,
        vector: VectorIsa::Rvv1_0 { vlen_bits: 256 },
        cores: 8,
        cores_per_cluster: 4,
        numa_regions: 1,
        clock_ghz: 1.6,
        core: x60_core(),
        l1d: CacheSpec::kib(32, 8, 1, 3),
        l2: CacheSpec::kib(512, 16, 4, 18),
        l3: None,
        memory: MemorySpec {
            controllers: 1,
            channels: 2,
            channel_bytes: 4,
            mt_per_s: 2666,
            generation: DdrGeneration::Lpddr4,
            idle_latency_ns: 140.0,
            sustained_fraction: 0.50,
        },
    }
}

/// Milk-V Jupiter (SpacemiT M1): the K1's higher-clocked, better-cooled
/// sibling @ 1.8 GHz (paper §3).
pub(crate) fn milkv_jupiter() -> Machine {
    let mut m = banana_pi_f3();
    m.id = MachineId::MilkVJupyter;
    m.part = "SpacemiT M1 (X60)";
    m.clock_ghz = 1.8;
    m
}

/// Shared U74 core model (VisionFive V1/V2, HiFive Unmatched): dual-issue
/// in-order, no vector unit.
fn u74_core() -> CoreModel {
    CoreModel {
        decode_width: 2,
        issue_width: 2,
        lsu_count: 1,
        fpu_count: 1,
        out_of_order: false,
        branch_miss_penalty: 5,
        scalar_ipc: 0.68,
        mlp: 1.5,
        stream_mlp: 3.0,
    }
}

/// Shared SpacemiT X60 core model: dual-issue in-order with a capable
/// 256-bit RVV 1.0 unit.
fn x60_core() -> CoreModel {
    CoreModel {
        decode_width: 2,
        issue_width: 2,
        lsu_count: 1,
        fpu_count: 1,
        out_of_order: false,
        branch_miss_penalty: 6,
        scalar_ipc: 0.95,
        mlp: 2.0,
        stream_mlp: 4.0,
    }
}

/// Look a machine up by id.
pub fn by_id(id: MachineId) -> Machine {
    match id {
        MachineId::Sg2044 => sg2044(),
        MachineId::Sg2042 => sg2042(),
        MachineId::Epyc7742 => epyc7742(),
        MachineId::Xeon8170 => xeon8170(),
        MachineId::ThunderX2 => thunderx2(),
        MachineId::VisionFiveV2 => visionfive_v2(),
        MachineId::VisionFiveV1 => visionfive_v1(),
        MachineId::SiFiveU740 => sifive_u740(),
        MachineId::AllWinnerD1 => allwinner_d1(),
        MachineId::BananaPiF3 => banana_pi_f3(),
        MachineId::MilkVJupyter => milkv_jupiter(),
    }
}

/// All machines, in the paper's presentation order.
pub fn all() -> Vec<Machine> {
    MachineId::ALL.iter().map(|&id| by_id(id)).collect()
}

/// The five HPC-class machines of Table 5 / §5, in table order.
pub fn hpc_five() -> Vec<Machine> {
    vec![epyc7742(), xeon8170(), thunderx2(), sg2042(), sg2044()]
}

/// Render the paper's Table 5 (CPU overview) as rows of strings.
pub fn overview() -> Vec<[String; 6]> {
    hpc_five()
        .into_iter()
        .map(|m| {
            [
                m.id.name().to_string(),
                m.isa.name().to_string(),
                m.part.to_string(),
                format!("{:.2} GHz", m.clock_ghz),
                m.cores.to_string(),
                m.vector.name().to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_machines_with_unique_ids() {
        let all = all();
        assert_eq!(all.len(), 11);
        let mut ids: Vec<_> = all.iter().map(|m| m.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 11);
    }

    #[test]
    fn table5_static_facts() {
        // Clock / cores / vector columns of the paper's Table 5.
        let m = epyc7742();
        assert_eq!((m.clock_ghz, m.cores), (2.25, 64));
        assert_eq!(m.vector, VectorIsa::Avx2);
        let m = xeon8170();
        assert_eq!((m.clock_ghz, m.cores), (2.1, 26));
        assert_eq!(m.vector, VectorIsa::Avx512);
        let m = thunderx2();
        assert_eq!((m.clock_ghz, m.cores), (2.0, 32));
        assert_eq!(m.vector, VectorIsa::Neon);
        let m = sg2042();
        assert_eq!((m.clock_ghz, m.cores), (2.0, 64));
        assert_eq!(m.vector, VectorIsa::Rvv0_7 { vlen_bits: 128 });
        let m = sg2044();
        assert_eq!((m.clock_ghz, m.cores), (2.6, 64));
        assert_eq!(m.vector, VectorIsa::Rvv1_0 { vlen_bits: 128 });
    }

    #[test]
    fn sg2044_upgrades_over_sg2042() {
        let new = sg2044();
        let old = sg2042();
        // §2.1: doubled per-cluster L2, 8× the memory channels, DDR5 vs
        // DDR4, RVV 1.0 vs 0.7.1, higher clock.
        assert_eq!(new.l2.size_bytes, 2 * old.l2.size_bytes);
        assert_eq!(new.memory.channels, 8 * old.memory.channels);
        assert!(new.clock_ghz > old.clock_ghz);
        assert!(matches!(new.vector, VectorIsa::Rvv1_0 { .. }));
        assert!(matches!(old.vector, VectorIsa::Rvv0_7 { .. }));
    }

    #[test]
    fn sustained_bandwidth_anchors() {
        // Figure 1 anchors: SG2042 plateaus ~36 GB/s; SG2044 sustains ≈3×.
        let old = sg2042();
        let new = sg2044();
        let old_bw = old.memory.peak_bandwidth_gbs() * old.memory.sustained_fraction;
        let new_bw = new.memory.peak_bandwidth_gbs() * new.memory.sustained_fraction;
        assert!((old_bw - 36.9).abs() < 1.0, "SG2042 sustained {old_bw}");
        assert!(
            new_bw / old_bw > 2.9 && new_bw / old_bw < 3.5,
            "ratio {}",
            new_bw / old_bw
        );
    }

    #[test]
    fn jupiter_is_faster_clocked_k1() {
        let k1 = banana_pi_f3();
        let m1 = milkv_jupiter();
        assert_eq!(m1.core, k1.core);
        assert!(m1.clock_ghz > k1.clock_ghz);
        assert_eq!(m1.vector.width_bits(), 256);
    }

    #[test]
    fn overview_rows_are_table5() {
        let rows = overview();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], "EPYC 7742");
        assert_eq!(rows[4][0], "SG2044");
        assert_eq!(rows[4][5], "RVV v1.0.0");
    }

    #[test]
    fn only_epyc_is_multi_numa() {
        for m in all() {
            if m.id == MachineId::Epyc7742 {
                assert_eq!(m.numa_regions, 4);
            } else {
                assert_eq!(m.numa_regions, 1, "{:?}", m.id);
            }
        }
    }
}
