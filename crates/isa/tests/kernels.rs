//! End-to-end kernel tests: every kernel assembles, decodes, builds a CFG,
//! interprets to completion, and verifies bit-exactly against the Rust
//! reference — under every extension configuration. Ablation deltas that the
//! CLI and CI rely on are asserted here too.

use rvhpc_isa::interp::run;
use rvhpc_isa::ir::ExtSet;
use rvhpc_isa::kernels::{build, MAX_STEPS};
use rvhpc_isa::trace::NullTracer;
use rvhpc_isa::{build_cfg, characterize, IsaExt, KernelId};

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
