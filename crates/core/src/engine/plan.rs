//! Declarative prediction queries and batched plans.
//!
//! A [`Query`] names one point of the evaluation grid — machine ×
//! benchmark × class × threads × compiler/vectorisation scenario —
//! without holding any borrowed state, so it can be hashed, deduplicated
//! and shipped across threads. A [`Plan`] is an ordered list of queries
//! plus a side table of custom (non-preset) machine descriptors; the
//! executor in [`crate::engine::exec`] evaluates a plan's deduplicated
//! query set and hands results back in plan order.

use rvhpc_archsim::SaturationLaw;
use rvhpc_machines::{presets, CompilerConfig, Machine, MachineId};
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_parallel::BindPolicy;

use crate::engine::cache::Hashed;
use crate::model::Scenario;

/// Which machine a query runs on: a named preset or an entry in the
/// plan's custom-machine table (what-if variants, ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineSel {
    /// One of the study's preset machines.
    Preset(MachineId),
    /// Index into [`Plan::machines`].
    Custom(usize),
}

/// The compiler/placement/law scenario of a query, in declarative form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecKind {
    /// The machine's headline compiler, all defaults
    /// ([`Scenario::headline`]).
    Headline,
    /// Headline with the paper's CG-vectorisation exception
    /// ([`Scenario::paper_headline`]).
    PaperHeadline,
    /// Fully explicit scenario.
    Custom {
        compiler: CompilerConfig,
        bind: BindPolicy,
        law: SaturationLaw,
    },
}

/// Which prediction backend evaluates a query. `Profile` drives the
/// analytic model from characterized workload profiles (the original
/// pipeline); `Isa` characterizes an NPB-shaped kernel at instruction
/// granularity through the `rvhpc-isa` decode → CFG → interpret → trace
/// pipeline and feeds the measured instruction/branch mix into the same
/// timing model. The two memoize and serve independently: `Backend` is
/// part of [`Query`] and [`CacheKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Profile-driven analytic prediction (default).
    Profile,
    /// Trace-driven prediction with the given extension ablation.
    Isa(rvhpc_isa::IsaExt),
}

/// One point of the evaluation grid. `Copy`, order-free, and hashable —
/// the unit the cache and executor work in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    pub machine: MachineSel,
    pub bench: BenchmarkId,
    pub class: Class,
    pub threads: u32,
    pub spec: SpecKind,
    pub backend: Backend,
}

impl Query {
    /// Query under the machine's headline configuration.
    pub fn headline(machine: MachineId, bench: BenchmarkId, class: Class, threads: u32) -> Self {
        Self {
            machine: MachineSel::Preset(machine),
            bench,
            class,
            threads,
            spec: SpecKind::Headline,
            backend: Backend::Profile,
        }
    }

    /// Query under the configuration the paper actually ran.
    pub fn paper(machine: MachineId, bench: BenchmarkId, class: Class, threads: u32) -> Self {
        Self {
            machine: MachineSel::Preset(machine),
            bench,
            class,
            threads,
            spec: SpecKind::PaperHeadline,
            backend: Backend::Profile,
        }
    }

    /// Same query evaluated by a different backend.
    pub fn with_backend(self, backend: Backend) -> Self {
        Self { backend, ..self }
    }

    /// Resolve this query's spec to a concrete [`Scenario`] on `machine`.
    pub fn scenario<'a>(&self, machine: &'a Machine) -> Scenario<'a> {
        match self.spec {
            SpecKind::Headline => Scenario::headline(machine, self.threads),
            SpecKind::PaperHeadline => Scenario::paper_headline(machine, self.bench, self.threads),
            SpecKind::Custom {
                compiler,
                bind,
                law,
            } => Scenario {
                machine,
                compiler,
                threads: self.threads,
                bind,
                law,
            },
        }
    }
}

/// Content-addressed identity of a query, independent of which plan it
/// came from: preset machines key by id, custom machines by a
/// fingerprint of their full descriptor. Two queries with equal keys are
/// guaranteed to predict identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    machine: MachineKeyPart,
    bench: BenchmarkId,
    class: Class,
    threads: u32,
    spec: SpecKind,
    backend: Backend,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MachineKeyPart {
    Preset(MachineId),
    Custom(u64),
}

impl CacheKey {
    /// A stable 64-bit fingerprint of the key (FNV-1a over the canonical
    /// debug encoding). Deterministic across processes and runs — usable
    /// in on-disk cache layouts and cross-run diffing.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }

    /// The key of `q`, where `custom[i]` is the [`machine_fingerprint`]
    /// of the machine `MachineSel::Custom(i)` names.
    pub(crate) fn of(q: &Query, custom: &[u64]) -> CacheKey {
        let machine = match q.machine {
            MachineSel::Preset(id) => MachineKeyPart::Preset(id),
            MachineSel::Custom(i) => MachineKeyPart::Custom(custom[i]),
        };
        CacheKey {
            machine,
            bench: q.bench,
            class: q.class,
            threads: q.threads,
            spec: q.spec,
            backend: q.backend,
        }
    }
}

/// A [`CacheKey`] with its hash, taken once: the form in which the
/// executor deduplicates, the caches index and [`crate::engine::Resolved`]
/// looks up a key.
pub type HashedKey = Hashed<CacheKey>;

/// Fingerprint a machine descriptor by content. The derived `Debug`
/// encoding covers every field and prints floats with shortest-roundtrip
/// precision, so two machines fingerprint equal iff they are
/// field-for-field identical.
pub fn machine_fingerprint(m: &Machine) -> u64 {
    fnv1a(format!("{m:?}").as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An ordered batch of queries plus the custom machines they reference.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// The custom machines, indexed by [`MachineSel::Custom`].
    machines: Vec<Machine>,
    /// Each custom machine's [`machine_fingerprint`], taken once when
    /// [`Plan::add_machine`] receives it: `key_of` runs several times per
    /// served request and once per query of a sweep grid, and the
    /// fingerprint formats the whole descriptor.
    fingerprints: Vec<u64>,
    queries: Vec<Query>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan holding a single query.
    pub fn single(q: Query) -> Self {
        let mut p = Self::new();
        p.push(q);
        p
    }

    /// Register a custom machine descriptor; the returned selector is
    /// valid for queries added to *this* plan.
    pub fn add_machine(&mut self, m: Machine) -> MachineSel {
        self.fingerprints.push(machine_fingerprint(&m));
        self.machines.push(m);
        MachineSel::Custom(self.machines.len() - 1)
    }

    /// Append a query; returns its index in the plan.
    pub fn push(&mut self, q: Query) -> usize {
        if let MachineSel::Custom(i) = q.machine {
            assert!(
                i < self.machines.len(),
                "query references machine {i} not in plan"
            );
        }
        self.queries.push(q);
        self.queries.len() - 1
    }

    /// Append every query of `other`, remapping its custom-machine
    /// indices into this plan's table.
    pub fn merge(&mut self, other: Plan) {
        let offset = self.machines.len();
        self.machines.extend(other.machines);
        self.fingerprints.extend(other.fingerprints);
        self.queries.extend(other.queries.into_iter().map(|mut q| {
            if let MachineSel::Custom(i) = q.machine {
                q.machine = MachineSel::Custom(i + offset);
            }
            q
        }));
    }

    /// The queries, in insertion order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries (including duplicates).
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the plan holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Resolve a query's machine selector to its descriptor. Preset
    /// machines are materialized from [`presets`]; custom ones are cloned
    /// from the plan table.
    pub fn machine_of(&self, q: &Query) -> Machine {
        match q.machine {
            MachineSel::Preset(id) => presets::by_id(id),
            MachineSel::Custom(i) => self.machines[i].clone(),
        }
    }

    /// The content-addressed cache key of a query in this plan's context.
    pub fn key_of(&self, q: &Query) -> CacheKey {
        CacheKey::of(q, &self.fingerprints)
    }

    /// [`Plan::key_of`], hashed: the one way the engine keys a query.
    pub fn hashed_key_of(&self, q: &Query) -> HashedKey {
        Hashed::new(self.key_of(q))
    }

    /// The custom machines' fingerprints, by [`MachineSel::Custom`] index.
    pub(crate) fn fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_remaps_custom_machine_indices() {
        let mut a = Plan::new();
        let ma = a.add_machine(presets::sg2044());
        a.push(Query {
            machine: ma,
            bench: BenchmarkId::Ep,
            class: Class::B,
            threads: 4,
            spec: SpecKind::Headline,
            backend: Backend::Profile,
        });

        let mut b = Plan::new();
        let mut variant = presets::sg2044();
        variant.clock_ghz = 3.2;
        let mb = b.add_machine(variant.clone());
        b.push(Query {
            machine: mb,
            bench: BenchmarkId::Ep,
            class: Class::B,
            threads: 4,
            spec: SpecKind::Headline,
            backend: Backend::Profile,
        });

        a.merge(b);
        assert_eq!(a.len(), 2);
        let m1 = a.machine_of(&a.queries()[1]);
        assert_eq!(m1, variant, "merged query must see its own machine");
        // The two custom machines differ, so their keys must differ.
        assert_ne!(a.key_of(&a.queries()[0]), a.key_of(&a.queries()[1]));
    }

    /// `key_of` reads the fingerprint stored at `add_machine`; it must be
    /// the fingerprint of the machine `machine_of` hands back, also after
    /// `merge` has moved the machine to another index.
    #[test]
    fn stored_fingerprint_is_the_fingerprint_of_machine_of() {
        let custom_query = |machine| Query {
            machine,
            bench: BenchmarkId::Mg,
            class: Class::C,
            threads: 16,
            spec: SpecKind::Headline,
            backend: Backend::Profile,
        };
        let agrees = |p: &Plan| {
            for q in p.queries() {
                assert_eq!(
                    p.key_of(q).machine,
                    MachineKeyPart::Custom(machine_fingerprint(&p.machine_of(q))),
                    "{q:?}"
                );
            }
        };

        let mut a = Plan::new();
        let ma = a.add_machine(presets::sg2044());
        a.push(custom_query(ma));
        let mut b = Plan::new();
        for clock in [2.0, 3.2] {
            let mut variant = presets::sg2042();
            variant.clock_ghz = clock;
            let mb = b.add_machine(variant);
            b.push(custom_query(mb));
        }
        agrees(&a);
        agrees(&b);
        let keys_before: Vec<CacheKey> = b.queries().iter().map(|q| b.key_of(q)).collect();

        a.merge(b);
        agrees(&a);
        let keys_after: Vec<CacheKey> = a.queries()[1..].iter().map(|q| a.key_of(q)).collect();
        assert_eq!(keys_before, keys_after, "merge moves indices, not keys");
    }

    #[test]
    fn preset_and_identical_custom_machines_key_separately_but_stably() {
        let mut p = Plan::new();
        let custom = p.add_machine(presets::sg2044());
        let q_preset = Query::paper(MachineId::Sg2044, BenchmarkId::Cg, Class::C, 64);
        let q_custom = Query {
            machine: custom,
            ..q_preset
        };
        p.push(q_preset);
        p.push(q_custom);
        let k1 = p.key_of(&q_preset);
        let k2 = p.key_of(&q_custom);
        assert_ne!(k1, k2, "preset and custom keys live in separate spaces");
        // Fingerprints are stable within and across calls.
        assert_eq!(k1.fingerprint(), p.key_of(&q_preset).fingerprint());
        assert_eq!(
            machine_fingerprint(&presets::sg2044()),
            machine_fingerprint(&presets::sg2044())
        );
    }

    #[test]
    fn backend_is_part_of_the_cache_key() {
        let p = Plan::new();
        let q = Query::paper(MachineId::Sg2044, BenchmarkId::Cg, Class::C, 64);
        let q_isa = q.with_backend(Backend::Isa(rvhpc_isa::IsaExt::full()));
        assert_ne!(
            p.key_of(&q),
            p.key_of(&q_isa),
            "backends memoize independently"
        );
        assert_ne!(p.key_of(&q).fingerprint(), p.key_of(&q_isa).fingerprint());
        // Distinct ablation settings are distinct keys too.
        let q_nozbb = q.with_backend(Backend::Isa(rvhpc_isa::IsaExt {
            zbb: false,
            ..rvhpc_isa::IsaExt::full()
        }));
        assert_ne!(p.key_of(&q_isa), p.key_of(&q_nozbb));
    }

    #[test]
    fn scenario_resolution_matches_model_constructors() {
        let m = presets::sg2044();
        let q = Query::paper(MachineId::Sg2044, BenchmarkId::Cg, Class::C, 16);
        let s = q.scenario(&m);
        let expect = Scenario::paper_headline(&m, BenchmarkId::Cg, 16);
        assert_eq!(s.compiler, expect.compiler);
        assert_eq!(s.threads, expect.threads);
        assert!(!s.compiler.vectorize, "CG on RVV keeps vectorisation off");
    }
}
