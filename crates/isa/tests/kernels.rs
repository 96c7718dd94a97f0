//! End-to-end kernel tests: every kernel assembles, decodes, builds a CFG,
//! interprets to completion, and verifies bit-exactly against the Rust
//! reference — under every extension configuration. Ablation deltas that the
//! CLI and CI rely on are asserted here too.

use rvhpc_core::isa_backend::run_kernel;
use rvhpc_core::model::Scenario;
use rvhpc_isa::interp::run;
use rvhpc_isa::ir::ExtSet;
use rvhpc_isa::kernels::{build, MAX_STEPS};
use rvhpc_isa::trace::NullTracer;
use rvhpc_isa::{build_cfg, characterize, IsaExt, KernelCharacter, KernelId};
use rvhpc_machines::{Machine, MachineId};
use rvhpc_npb::Class;

fn ext_configs() -> Vec<ExtSet> {
    vec![
        ExtSet::full(),
        ExtSet {
            zba: false,
            ..ExtSet::full()
        },
        ExtSet {
            zbb: false,
            ..ExtSet::full()
        },
        ExtSet {
            v: false,
            ..ExtSet::full()
        },
        ExtSet::rv64imac(),
    ]
}

#[test]
fn all_kernels_run_and_verify_under_all_ext_configs() {
    for id in KernelId::ALL {
        for ext in ext_configs() {
            let built = build(id, &ext, 128);
            let prog = built.decode(&ext);
            let cfg = build_cfg(&prog);
            assert!(cfg.block_count() >= 2, "{}: CFG too small", id.name());
            let mut cpu = built.cpu.clone();
            let stats = run(&mut cpu, &prog, &mut NullTracer, MAX_STEPS)
                .unwrap_or_else(|t| panic!("{} {ext:?}: {t}", id.name()));
            assert!(
                stats.instret > built.elems,
                "{}: suspiciously low instret",
                id.name()
            );
            built
                .verify(&cpu)
                .unwrap_or_else(|e| panic!("{} {ext:?}: {e}", id.name()));
        }
    }
}

#[test]
fn zba_ablation_changes_instret_on_three_kernels() {
    let m = rvhpc_machines::presets::sg2044();
    for id in [KernelId::Triad, KernelId::Spmv, KernelId::MgResid] {
        let with = characterize(
            id,
            &m,
            1,
            IsaExt {
                rvv: false,
                ..IsaExt::full()
            },
        );
        let without = characterize(
            id,
            &m,
            1,
            IsaExt {
                zba: false,
                rvv: false,
                ..IsaExt::full()
            },
        );
        assert!(
            without.instret > with.instret,
            "{}: -zba should raise instret ({} vs {})",
            id.name(),
            without.instret,
            with.instret
        );
    }
}

#[test]
fn zbb_ablation_changes_instret_on_two_kernels() {
    let m = rvhpc_machines::presets::sg2044();
    for id in [KernelId::Spmv, KernelId::EpAccum] {
        let with = characterize(
            id,
            &m,
            1,
            IsaExt {
                rvv: false,
                ..IsaExt::full()
            },
        );
        let without = characterize(
            id,
            &m,
            1,
            IsaExt {
                zbb: false,
                rvv: false,
                ..IsaExt::full()
            },
        );
        assert!(
            without.instret > with.instret,
            "{}: -zbb should raise instret ({} vs {})",
            id.name(),
            without.instret,
            with.instret
        );
    }
}

#[test]
fn zbb_fallback_is_branch_free_on_ep() {
    let m = rvhpc_machines::presets::sg2044();
    let with = characterize(
        KernelId::EpAccum,
        &m,
        1,
        IsaExt {
            rvv: false,
            ..IsaExt::full()
        },
    );
    let without = characterize(
        KernelId::EpAccum,
        &m,
        1,
        IsaExt {
            zbb: false,
            rvv: false,
            ..IsaExt::full()
        },
    );
    // The compare/mask/select sequence replaces maxu without introducing
    // data-dependent branches: the ablation is pure instruction count.
    assert_eq!(
        without.branches, with.branches,
        "branch-free max fallback must not change the branch stream"
    );
    assert_eq!(
        without.instret,
        with.instret + 4 * with.elems,
        "fallback costs exactly four extra instructions per element"
    );
}

#[test]
fn rvv_lowers_triad_instret() {
    let m = rvhpc_machines::presets::sg2044();
    assert!(m.vector.is_rvv(), "SG2044 should be an RVV machine");
    let vec = characterize(KernelId::Triad, &m, 1, IsaExt::full());
    let scalar = characterize(
        KernelId::Triad,
        &m,
        1,
        IsaExt {
            rvv: false,
            ..IsaExt::full()
        },
    );
    assert!(vec.rvv_active);
    assert!(!scalar.rvv_active);
    assert!(
        vec.instret < scalar.instret,
        "vectorised triad should retire fewer instructions ({} vs {})",
        vec.instret,
        scalar.instret
    );
    assert!(vec.vector_ops > 0);
    assert_eq!(scalar.vector_ops, 0);
}

#[test]
fn characterization_is_deterministic() {
    let m = rvhpc_machines::presets::sg2044();
    let a = characterize(KernelId::Spmv, &m, 8, IsaExt::full());
    let b = characterize(KernelId::Spmv, &m, 8, IsaExt::full());
    assert_eq!(a.instret, b.instret);
    assert_eq!(a.mispredicts, b.mispredicts);
    assert_eq!(a.hierarchy, b.hierarchy);
    assert_eq!(a.tlb, b.tlb);
}

/// `characterize` on the SG2044, pinned to the counts captured before the
/// interpreter was pre-decoded and `Cache` went MRU-first: [instret, loads,
/// stores, branches, mispredicts], the hierarchy's [accesses, L1, L2, L3,
/// DRAM] and the TLB's [accesses, misses]. Every miss is compulsory (each
/// kernel walks its data once), so one thread's share of the caches and
/// one in 64 give the same counts.
#[test]
fn sg2044_characters_match_the_golden_counts() {
    type Golden = (KernelId, [u64; 5], [u64; 5], [u64; 2]);
    let golden: [Golden; 4] = [
        (
            KernelId::Triad,
            [40964, 16384, 8192, 4097, 2],
            [24576, 21504, 0, 0, 3072],
            [24576, 48],
        ),
        (
            KernelId::Spmv,
            [158721, 51200, 1024, 18432, 1027],
            [52224, 48828, 3, 0, 3393],
            [52224, 54],
        ),
        (
            KernelId::MgResid,
            [180093, 65488, 8186, 8186, 2],
            [73674, 70602, 0, 0, 3072],
            [73674, 48],
        ),
        (
            KernelId::EpAccum,
            [65542, 0, 0, 8192, 2],
            [0, 0, 0, 0, 0],
            [0, 0],
        ),
    ];
    let m = rvhpc_machines::presets::sg2044();
    for (id, arch, hierarchy, tlb) in golden {
        for threads in [1, 64] {
            let c = characterize(id, &m, threads, IsaExt::full());
            let h = c.hierarchy;
            let what = format!("{} at {threads} threads", id.name());
            assert_eq!(
                [c.instret, c.loads, c.stores, c.branches, c.mispredicts],
                arch,
                "{what}"
            );
            assert_eq!(
                [h.accesses, h.l1_hits, h.l2_hits, h.l3_hits, h.dram],
                hierarchy,
                "{what}"
            );
            assert_eq!([c.tlb.accesses, c.tlb.misses], tlb, "{what}");
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One cell as `isa_char` runs it: the class-C run under the machine's
/// headline scenario, reduced to a digest of every [`KernelCharacter`]
/// field and the prediction's seconds and Mop/s bits.
fn cell_digest(kernel: KernelId, machine: &Machine, ext: IsaExt, threads: u32) -> u64 {
    let scenario = Scenario::headline(machine, threads);
    let run = run_kernel(kernel, Class::C, &scenario, ext);
    // Destructured in full, so that a new field cannot go unpinned.
    let KernelCharacter {
        kernel,
        ext,
        rvv_active,
        elems,
        flops_per_elem,
        instret,
        loads,
        stores,
        branches,
        mispredicts,
        vector_ops,
        vector_elems,
        gather_ops,
        static_instrs,
        compressed_instrs,
        cfg_blocks,
        cfg_edges,
        hierarchy: h,
        tlb,
    } = run.character;
    digest(&[
        kernel as u64,
        u64::from(ext.zba),
        u64::from(ext.zbb),
        u64::from(ext.rvv),
        u64::from(rvv_active),
        elems,
        flops_per_elem.to_bits(),
        instret,
        loads,
        stores,
        branches,
        mispredicts,
        vector_ops,
        vector_elems,
        gather_ops,
        static_instrs as u64,
        compressed_instrs as u64,
        cfg_blocks as u64,
        cfg_edges as u64,
        h.accesses,
        h.l1_hits,
        h.l2_hits,
        h.l3_hits,
        h.dram,
        tlb.accesses,
        tlb.misses,
        run.prediction.seconds.to_bits(),
        run.prediction.mops.to_bits(),
    ])
}

/// The 176 cells the `isa_char` benchmark characterises — every kernel on
/// every preset, with every extension and with none, at 1 and 64 threads —
/// pinned to the digests captured before the L1d and dTLB moved to flat
/// storage. Unlike the SG2044 pin above, these cells cover the small-L2
/// boards and the 64-thread slices, where L2/L3 replacement decides the
/// counts. Per cell: `[full @ 1, full @ 64, none @ 1, none @ 64]`.
#[test]
fn the_isa_char_grid_matches_its_golden_digests() {
    let none = IsaExt {
        zba: false,
        zbb: false,
        rvv: false,
    };
    let cells = [
        (IsaExt::full(), 1),
        (IsaExt::full(), 64),
        (none, 1),
        (none, 64),
    ];
    let mut moved = Vec::new();
    for (i, machine) in MachineId::ALL.into_iter().enumerate() {
        let m = rvhpc_machines::presets::by_id(machine);
        for (j, kernel) in KernelId::ALL.into_iter().enumerate() {
            let got = cells.map(|(ext, threads)| cell_digest(kernel, &m, ext, threads));
            if ISA_CHAR_GRID.get(i * KernelId::ALL.len() + j) != Some(&(machine, kernel, got)) {
                let got = got.map(|d| format!("{d:#018x}")).join(", ");
                moved.push(format!(
                    "    (MachineId::{machine:?}, KernelId::{kernel:?}, [{got}]),"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "cells moved:\n{}", moved.join("\n"));
}

#[rustfmt::skip]
const ISA_CHAR_GRID: &[(MachineId, KernelId, [u64; 4])] = &[
    (MachineId::Sg2044, KernelId::Triad, [0xacdcb0f3cf9ff213, 0x052cdcc97272e4cc, 0x6ebdc4e5cbc26a6b, 0x2c395e3d52265974]),
    (MachineId::Sg2044, KernelId::Spmv, [0x3105d0d2eb68de6d, 0x70912e27b88d9089, 0x005dc13cd66803bd, 0xf9bc486c914119ae]),
    (MachineId::Sg2044, KernelId::MgResid, [0xda0ad98adc18cf92, 0x625d336e4055a93f, 0x8aaac4400de56694, 0x48cbd28848002729]),
    (MachineId::Sg2044, KernelId::EpAccum, [0x1cb731bcf21dce85, 0x52c626713f9f7738, 0x240ebf9fd97e7147, 0xfa6562a20b07f2b3]),
    (MachineId::Sg2042, KernelId::Triad, [0x9eaeba883f46eb92, 0xe9f5d2e82df65b25, 0xa2a04b37ddad5bcd, 0xd86c303e37a2951d]),
    (MachineId::Sg2042, KernelId::Spmv, [0x92d7f56067bf5d7d, 0x08f845bce977e061, 0xe3a261ffc92a8221, 0x585cc8841b8b15c3]),
    (MachineId::Sg2042, KernelId::MgResid, [0xd8f5efabfab463c3, 0xd90082fbb9f9fdc6, 0x6d04cd74ed12aed4, 0xb66b2d359178b238]),
    (MachineId::Sg2042, KernelId::EpAccum, [0x3b9e40806ee73dac, 0xf9103c42408ea34f, 0x5f8e404ec57c7b9d, 0x019a46dcebd4ecf4]),
    (MachineId::Epyc7742, KernelId::Triad, [0x3f3e31bd1d5b4f2e, 0x7a44ce9d5d84717a, 0xff92330c2509d9ea, 0xb9026973633c4cb0]),
    (MachineId::Epyc7742, KernelId::Spmv, [0x2f7eab8bc5e74dd9, 0x189f7e363cf4bb22, 0x9c6d7b1974d0809e, 0xd98aa9e5dce34b6f]),
    (MachineId::Epyc7742, KernelId::MgResid, [0x5179836897a09b9f, 0x0c0bab060d48a2a1, 0x2af3f2dc18e49326, 0x5725830d0d412bd2]),
    (MachineId::Epyc7742, KernelId::EpAccum, [0xcd3c4927f782af79, 0x336ba6ba13a971ea, 0xd2ce41d2de2e59c2, 0x3902a0b418f97d12]),
    (MachineId::Xeon8170, KernelId::Triad, [0x528a8eb92dd59f7f, 0x8a9a8e407df5cf43, 0x41794f5808f2fb38, 0x061293b76b7e56ad]),
    (MachineId::Xeon8170, KernelId::Spmv, [0x0124e5f0cf9386f7, 0x278649c81818ebe1, 0x583dbdfd53cc232d, 0x7b36d09e5ae48191]),
    (MachineId::Xeon8170, KernelId::MgResid, [0x9bf97878ab09b60d, 0xaf66321f41fc76cf, 0xedea93b095c6a027, 0x58e86942e68631ec]),
    (MachineId::Xeon8170, KernelId::EpAccum, [0x111a68cc0a9c82d5, 0x5137e585b7c30359, 0x9e4760d98f069e9c, 0x60071787d771bd94]),
    (MachineId::ThunderX2, KernelId::Triad, [0xca7169e8621fcaf8, 0x79f8eb5b2b5dfa2e, 0xa4421bb0571e7d33, 0x10578a50ae8586cc]),
    (MachineId::ThunderX2, KernelId::Spmv, [0xcd415f9ac5272163, 0xb9084e0e46cb25ab, 0xddd0d4e62ce70d6d, 0x27411af9874fc387]),
    (MachineId::ThunderX2, KernelId::MgResid, [0x5c38a2f4c6d306fa, 0x50abb35014dd66ca, 0xc2fb0c105a4c147f, 0x0ca753ff5824dfa0]),
    (MachineId::ThunderX2, KernelId::EpAccum, [0x82e66ba492c6f42b, 0xf2cda4b87cc159de, 0x85e9761c20faff92, 0xdb07b37a396f1790]),
    (MachineId::VisionFiveV2, KernelId::Triad, [0xa801734360e75963, 0xcf1328788fc38d7b, 0x224c3630c2263754, 0x3aeb524860bf6630]),
    (MachineId::VisionFiveV2, KernelId::Spmv, [0x4a04b69dd82070e3, 0x131463d278dcbb79, 0xaa0b94cac3a12103, 0xc6f7816fd916b58f]),
    (MachineId::VisionFiveV2, KernelId::MgResid, [0xd5b0a21e0a6195f1, 0x0918d08e081811e4, 0x63d7d0cd819e5fd1, 0x9841e6e507869896]),
    (MachineId::VisionFiveV2, KernelId::EpAccum, [0x567d63abdbffc10b, 0xfe06de547a7efb6b, 0x52944e6b61db73f7, 0xf52a4ab655c82345]),
    (MachineId::VisionFiveV1, KernelId::Triad, [0xa215c0ff88cb05d7, 0xde007ed318bbdd62, 0xf67305da2da87a30, 0xd382a313487262bf]),
    (MachineId::VisionFiveV1, KernelId::Spmv, [0xa14610ae34e7ec8d, 0xa657f98dba80fadd, 0x95ee78583edd2f70, 0xeaeaf78aa9d10c25]),
    (MachineId::VisionFiveV1, KernelId::MgResid, [0xcdeba3f6f3e58aeb, 0x0beebaecb5d5ab17, 0xad3fb05d49adba2a, 0x15af73e14ed51f65]),
    (MachineId::VisionFiveV1, KernelId::EpAccum, [0x2228a9a7571ddbf3, 0x3704ae8cf72a6ffb, 0x42dda7fde7428cce, 0xb880401da0f0a7f8]),
    (MachineId::SiFiveU740, KernelId::Triad, [0x6185de564d11983f, 0xc6264743dc03ad4c, 0x73ae807adcb2a503, 0xc9f34e12f60b5a2e]),
    (MachineId::SiFiveU740, KernelId::Spmv, [0xb29e645b64004e65, 0x6bb39b1c8c84f2ec, 0xe180858fb8cab028, 0x899dc054bd354a34]),
    (MachineId::SiFiveU740, KernelId::MgResid, [0x78ce618125a487f7, 0x0ac89424a9441744, 0x4e01124ca1d1f435, 0x7307df6403c7c3c3]),
    (MachineId::SiFiveU740, KernelId::EpAccum, [0xc9489ba7eefb8f6a, 0x2944cd8b45f531fd, 0x13383f0bd0fe5c8b, 0x6e004092ac4c3859]),
    (MachineId::AllWinnerD1, KernelId::Triad, [0x095f2cdbcadfff47, 0x095f2cdbcadfff47, 0x6710981e2b39ddd5, 0x6710981e2b39ddd5]),
    (MachineId::AllWinnerD1, KernelId::Spmv, [0x08826a7df5979590, 0x08826a7df5979590, 0xf357fff0d9b6a6d2, 0xf357fff0d9b6a6d2]),
    (MachineId::AllWinnerD1, KernelId::MgResid, [0xc4c73f1fa0361b65, 0xc4c73f1fa0361b65, 0x511971c8c8339303, 0x511971c8c8339303]),
    (MachineId::AllWinnerD1, KernelId::EpAccum, [0x93cbbfa88732abc7, 0x93cbbfa88732abc7, 0x6ea25666bfe7f242, 0x6ea25666bfe7f242]),
    (MachineId::BananaPiF3, KernelId::Triad, [0x40b159115c34e5a4, 0x0f5999506f1db1b2, 0x92dc88c26d7b283d, 0x178ad47adc1a2e5c]),
    (MachineId::BananaPiF3, KernelId::Spmv, [0xea762b88a9140734, 0xca1f8bcb5097e27f, 0x8a90b189e7e78f46, 0x4064488525e2152f]),
    (MachineId::BananaPiF3, KernelId::MgResid, [0x1c0c8c4738d67b40, 0x89591c0de8895df8, 0x026fffc33adc969e, 0xe4e53e1b524e3164]),
    (MachineId::BananaPiF3, KernelId::EpAccum, [0xa66f606d385969fe, 0x502b4d7d7b26c3e6, 0xa5cc553afc895fe5, 0x3e00d667576d1d87]),
    (MachineId::MilkVJupyter, KernelId::Triad, [0x898b0f2e0cb99bc1, 0x0f5999506f1db1b2, 0xb42827d9586c7fe0, 0x73a6bbd023baa5cc]),
    (MachineId::MilkVJupyter, KernelId::Spmv, [0xb6dc60f305ff6cad, 0x7a9b1c188196baf3, 0xc827218c5cc1ce7a, 0xffbadf0695ac475b]),
    (MachineId::MilkVJupyter, KernelId::MgResid, [0x39920f69ca68a90c, 0xc2fb76e045131177, 0x6646978461fd9775, 0x78c46d238c5b310f]),
    (MachineId::MilkVJupyter, KernelId::EpAccum, [0xaf1e7e6cd8d9e68a, 0x40f6e281014b8b77, 0x68984a02d624f29a, 0x9dbf4fda9a4097d2]),
];

#[test]
fn spmv_has_realistic_branch_misses() {
    let m = rvhpc_machines::presets::sg2044();
    let ch = characterize(KernelId::Spmv, &m, 1, IsaExt::full());
    // The inner loop exits once per row; the 2-bit predictor misses there.
    assert!(ch.mispredicts > 0, "expected some mispredicts");
    let rate = ch.branch_misrate();
    assert!(
        rate > 0.001 && rate < 0.2,
        "miss rate {rate} out of plausible range"
    );
}

#[test]
fn compressed_instructions_present_in_kernel_code() {
    for id in KernelId::ALL {
        let ext = ExtSet {
            v: false,
            ..ExtSet::full()
        };
        let built = build(id, &ext, 128);
        let prog = built.decode(&ext);
        assert!(
            prog.compressed_count() > 0,
            "{}: expected compressed instructions in the stream",
            id.name()
        );
    }
}
