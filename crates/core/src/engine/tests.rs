//! Tests that pin how a key travels through the engine: its one hash,
//! the shard that hash picks, and the counters a batch leaves behind.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use rvhpc_archsim::SaturationLaw;
use rvhpc_isa::IsaExt;
use rvhpc_machines::{presets, Compiler, CompilerConfig, MachineId};
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_parallel::BindPolicy;

use crate::engine::cache::shard_of;
use crate::engine::{Backend, Engine, EngineMetrics, MachineSel, Plan, Query, SpecKind};

/// Eight queries over every key shape: presets under both specs, both
/// backends (two ablations), a `SpecKind::Custom` spec, and custom
/// machines — `Custom(2)` is `Custom(0)`'s descriptor again.
fn pinned_plan() -> Plan {
    let mut plan = Plan::new();
    let mut fast = presets::sg2044();
    fast.clock_ghz = 3.2;
    let c0 = plan.add_machine(fast.clone());
    let c1 = plan.add_machine(presets::sg2042());
    let c2 = plan.add_machine(fast);
    let custom_spec = SpecKind::Custom {
        compiler: CompilerConfig {
            compiler: Compiler::Gcc15_2,
            vectorize: false,
        },
        bind: BindPolicy::Close,
        law: SaturationLaw::default(),
    };
    let isa = Backend::Isa(IsaExt::full());
    let no_zbb = Backend::Isa(IsaExt {
        zbb: false,
        ..IsaExt::full()
    });
    let mg = Query::paper(MachineId::Sg2044, BenchmarkId::Mg, Class::B, 8);
    for q in [
        Query::paper(MachineId::Sg2044, BenchmarkId::Cg, Class::C, 64),
        Query::headline(MachineId::Sg2042, BenchmarkId::Ep, Class::B, 1),
        mg.with_backend(isa),
        mg.with_backend(no_zbb),
        Query {
            spec: custom_spec,
            ..Query::headline(MachineId::Sg2044, BenchmarkId::Ft, Class::C, 16)
        },
        Query {
            machine: c0,
            ..Query::paper(MachineId::Sg2044, BenchmarkId::Is, Class::C, 32)
        },
        Query {
            machine: c1,
            ..Query::paper(MachineId::Sg2042, BenchmarkId::Cg, Class::B, 4)
        },
        Query {
            machine: c2,
            spec: custom_spec,
            ..Query::paper(MachineId::Sg2044, BenchmarkId::Ep, Class::C, 2)
        }
        .with_backend(isa),
    ] {
        plan.push(q);
    }
    plan
}

#[test]
fn the_carried_hash_is_the_fixed_key_siphash_of_the_key() {
    let plan = pinned_plan();
    for q in plan.queries() {
        let key = plan.key_of(q);
        let hashed = plan.hashed_key_of(q);
        assert_eq!(*hashed.key(), key);
        assert_eq!(
            hashed.hash64(),
            BuildHasherDefault::<DefaultHasher>::default().hash_one(key),
            "{q:?}"
        );
    }
}

/// Shard choice decides fills, eviction order and the spill sequence
/// into the disk tier, so the shard of each key is pinned: a change here
/// reorders all three for every existing key stream.
#[test]
fn shard_indices_are_pinned() {
    let plan = pinned_plan();
    let shards: Vec<usize> = plan
        .queries()
        .iter()
        .map(|q| shard_of(plan.hashed_key_of(q).hash64()))
        .collect();
    assert_eq!(shards, [14, 13, 15, 11, 1, 11, 12, 12]);
}

/// Every counter, including the profile cache's, is the same at one
/// worker and at eight, and the same as when each computed query looked
/// its profile up itself: a plan with duplicates, custom machines (two
/// with one descriptor) and both backends, run cold then warm.
#[test]
fn engine_metrics_are_pinned_at_any_worker_count() {
    let mut plan = pinned_plan();
    for q in plan.queries().to_vec() {
        plan.push(q);
        if q.machine == MachineSel::Custom(0) {
            plan.push(Query {
                machine: MachineSel::Custom(2),
                ..q
            });
        }
    }
    for bench in BenchmarkId::ALL {
        for t in [1u32, 8, 64] {
            plan.push(Query::paper(MachineId::Sg2044, bench, Class::B, t));
            plan.push(Query {
                machine: MachineSel::Custom(1),
                ..Query::paper(MachineId::Sg2042, bench, Class::C, t)
            });
        }
    }
    assert_eq!(plan.len(), 65);
    for jobs in [1, 8] {
        let engine = Engine::new();
        engine.execute_with_jobs(&plan, jobs);
        engine.execute_with_jobs(&plan, jobs);
        assert_eq!(
            engine.metrics(),
            EngineMetrics {
                profile_hits: 40,
                profile_misses: 16,
                prediction_hits: 56,
                prediction_misses: 56,
                batches: 2,
                executed: 56,
                capacity: 56,
            },
            "jobs {jobs}"
        );
    }
}
