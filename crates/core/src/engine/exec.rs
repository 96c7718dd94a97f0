//! The batch prediction executor.
//!
//! [`Engine`] owns the two memo caches (workload profiles and
//! predictions) and evaluates [`Plan`]s: the plan's queries are
//! deduplicated by content-addressed [`CacheKey`], hashed once
//! ([`HashedKey`]) for the dedup, the probe, the insert and
//! [`Resolved`], cache hits are served
//! directly, and the remaining misses are computed in parallel on the
//! workspace's own OpenMP-style pool ([`rvhpc_parallel::Pool`]) — the
//! runtime the benchmarks run on is also the runtime the evaluation runs
//! on. Results come back in plan order, so rendering is byte-identical
//! to a serial evaluation regardless of the worker count.
//!
//! Parallelism is controlled by, in priority order: an explicit
//! `execute_with_jobs` argument, [`set_default_jobs`] (the `--jobs` CLI
//! flag), the `RVHPC_JOBS` environment variable, and finally the host's
//! available parallelism.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rvhpc_npb::profile::WorkloadProfile;
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_obs::{EventKind, JsonValue, TraceCtx};
use rvhpc_parallel::Pool;

use crate::engine::cache::{IdentityState, ShardedCache};
use crate::engine::plan::{Backend, CacheKey, HashedKey, Plan, Query};
use crate::engine::store::DiskStore;
use crate::model::{predict, Prediction, Scenario};

/// Evaluate one query's prediction with its selected backend. Both the
/// single-query path and the batch executor funnel through here, so
/// `Backend::Isa` queries are trace-driven everywhere predictions are made.
fn compute_prediction(q: &Query, profile: &WorkloadProfile, scenario: &Scenario) -> Prediction {
    match q.backend {
        Backend::Profile => predict(profile, scenario),
        Backend::Isa(ext) => crate::isa_backend::predict_isa(profile, scenario, ext),
    }
}

/// Environment variable naming the default worker count for plan
/// execution (overridden by `--jobs` / [`set_default_jobs`]).
pub const JOBS_ENV: &str = "RVHPC_JOBS";

/// Process-wide `--jobs` override; 0 means "not set".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-default worker count (the `reproduce --jobs N` knob).
/// Passing 0 clears the override back to `RVHPC_JOBS` / autodetection.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// Resolve the effective default worker count: `set_default_jobs`
/// override, then `RVHPC_JOBS`, then the host's available parallelism.
pub fn jobs_from_env() -> usize {
    let explicit = DEFAULT_JOBS.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Snapshot of the engine's cache and executor counters — the `engine`
/// section of the `rvhpc-metrics/1` document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Workload-profile cache hits.
    pub profile_hits: u64,
    /// Workload-profile cache misses (profile derivations performed).
    pub profile_misses: u64,
    /// Prediction cache hits.
    pub prediction_hits: u64,
    /// Prediction cache misses (predictions computed).
    pub prediction_misses: u64,
    /// Plan executions performed.
    pub batches: u64,
    /// Uncached queries computed across all batches.
    pub executed: u64,
    /// Worker-round capacity across all batches (`jobs × rounds` summed);
    /// `executed / capacity` is the executor occupancy.
    pub capacity: u64,
}

impl EngineMetrics {
    /// Fraction of scheduled worker slots that carried work (1.0 when
    /// every parallel round was full). 1.0 for an engine that has run no
    /// uncached work — an idle executor wastes nothing.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.executed as f64 / self.capacity as f64
        }
    }

    /// Render as the `engine` metrics section.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "profile_cache".to_string(),
                JsonValue::object([
                    ("hits".to_string(), JsonValue::from(self.profile_hits)),
                    ("misses".to_string(), JsonValue::from(self.profile_misses)),
                ]),
            ),
            (
                "prediction_cache".to_string(),
                JsonValue::object([
                    ("hits".to_string(), JsonValue::from(self.prediction_hits)),
                    (
                        "misses".to_string(),
                        JsonValue::from(self.prediction_misses),
                    ),
                ]),
            ),
            (
                "executor".to_string(),
                JsonValue::object([
                    ("batches".to_string(), JsonValue::from(self.batches)),
                    ("executed".to_string(), JsonValue::from(self.executed)),
                    ("capacity".to_string(), JsonValue::from(self.capacity)),
                    ("occupancy".to_string(), JsonValue::from(self.occupancy())),
                ]),
            ),
        ])
    }
}

/// A plan's results, addressable by query: one prediction per distinct
/// key, in first-seen order, and where to find each key and each plan
/// query among them. Built by [`Engine::resolve`] straight from the
/// executor's dedup map; the builders in [`crate::experiment`] use it to
/// keep their original loop structure while reading every number from
/// the cache.
pub struct Resolved {
    /// The plan's custom-machine fingerprints, to key queries with.
    fingerprints: Vec<u64>,
    slot_of_key: HashMap<HashedKey, usize, IdentityState>,
    results: Vec<Arc<Prediction>>,
    /// The slot of each plan query, in plan order.
    slot_of: Vec<usize>,
}

impl Resolved {
    /// The prediction for `q`, or for any query with its key. Panics if
    /// no query of the resolved plan has that key — a builder bug, not a
    /// data condition.
    pub fn get(&self, q: &Query) -> &Prediction {
        let key = HashedKey::new(CacheKey::of(q, &self.fingerprints));
        match self.slot_of_key.get(&key) {
            Some(&slot) => &self.results[slot],
            None => panic!("query missing from resolved plan: {q:?}"),
        }
    }

    /// The predictions in plan order.
    fn in_plan_order(&self) -> Vec<Arc<Prediction>> {
        self.slot_of
            .iter()
            .map(|&slot| Arc::clone(&self.results[slot]))
            .collect()
    }
}

#[derive(Default)]
struct ExecCounters {
    batches: u64,
    executed: u64,
    capacity: u64,
}

/// The cached, parallel prediction engine.
///
/// With a [`DiskStore`] attached ([`Engine::attach_store`]) the
/// prediction cache becomes the hot tier of a two-tier store: probes
/// fall through memory → disk → compute, computed values are written
/// through to disk, and capacity evictions spill there. The hit/miss
/// counters keep their meaning — a *hit* is any request served without
/// recomputing (from either tier), a *miss* is a compute — so
/// `prediction_misses == 0 && executed == 0` is the zero-recompute
/// assertion warm-restart CI relies on.
pub struct Engine {
    profiles: ShardedCache<(BenchmarkId, Class), WorkloadProfile>,
    predictions: ShardedCache<CacheKey, Prediction>,
    exec: Mutex<ExecCounters>,
    /// The cold tier, if attached. Probed on hot-tier misses only.
    store: Mutex<Option<Arc<DiskStore>>>,
}

static GLOBAL: OnceLock<Engine> = OnceLock::new();

impl Engine {
    /// A fresh engine with empty caches (tests; the production path uses
    /// [`Engine::global`]).
    pub fn new() -> Self {
        Self {
            profiles: ShardedCache::new(),
            predictions: ShardedCache::new(),
            exec: Mutex::new(ExecCounters::default()),
            store: Mutex::new(None),
        }
    }

    /// Attach (open or create) the disk tier under `dir`, restoring any
    /// records a previous process persisted there, and wire the hot
    /// tier's eviction spill into it. Returns the store handle so the
    /// caller can install chaos hooks or read recovery counters.
    pub fn attach_store(&self, dir: &Path) -> std::io::Result<Arc<DiskStore>> {
        let store = Arc::new(DiskStore::open(dir)?);
        let spill = Arc::clone(&store);
        self.predictions
            .set_evict_hook(Arc::new(move |key: &CacheKey, v: &Arc<Prediction>| {
                // Write-through already persisted computed entries; this
                // catches promoted/snapshot-restored ones. Append errors
                // are counted by the store and must not kill serving.
                let _ = spill.append(key.fingerprint(), v);
            }));
        *self.store.lock() = Some(Arc::clone(&store));
        Ok(store)
    }

    /// The attached disk tier, if any.
    pub fn store(&self) -> Option<Arc<DiskStore>> {
        self.store.lock().clone()
    }

    /// Bound the hot prediction tier to `capacity` entries (0 =
    /// unbounded); overflow evicts oldest-first into the disk tier.
    pub fn set_hot_capacity(&self, capacity: usize) {
        self.predictions.set_capacity(capacity);
    }

    /// Entries currently in the hot prediction tier.
    pub fn hot_entries(&self) -> usize {
        self.predictions.len()
    }

    /// Persist every hot-tier entry not already on disk and flush the
    /// segment — the snapshot-on-drain path. Returns how many records
    /// the snapshot added. A no-op (`Ok(0)`) without an attached store.
    pub fn snapshot_store(&self) -> std::io::Result<u64> {
        let Some(store) = self.store() else {
            return Ok(0);
        };
        let mut added = 0u64;
        let mut first_err: Option<std::io::Error> = None;
        self.predictions.for_each(|key, v| {
            if first_err.is_some() {
                return;
            }
            match store.append(key.fingerprint(), v) {
                Ok(true) => added += 1,
                Ok(false) => {}
                Err(e) => first_err = Some(e),
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        store.sync()?;
        Ok(added)
    }

    /// The gated `store` metrics section: hot-tier occupancy plus the
    /// disk tier's counters. `None` when no store is attached, so
    /// store-less metrics documents stay byte-identical.
    pub fn store_section(&self) -> Option<JsonValue> {
        let store = self.store()?;
        Some(JsonValue::object([
            (
                "hot".to_string(),
                JsonValue::object([
                    (
                        "entries".to_string(),
                        JsonValue::from(self.predictions.len() as u64),
                    ),
                    (
                        "capacity".to_string(),
                        JsonValue::from(self.predictions.capacity() as u64),
                    ),
                    (
                        "evictions".to_string(),
                        JsonValue::from(self.predictions.evictions()),
                    ),
                ]),
            ),
            ("disk".to_string(), store.metrics().to_json()),
        ]))
    }

    /// Disk-tier probe on a hot miss (`fingerprint` is `key`'s): fetch,
    /// then promote into the hot tier so repeats are pure memory hits.
    /// Counts a disk hit/miss on the store's own counters; the caller
    /// counts the serving probe.
    fn probe_store(
        &self,
        store: &DiskStore,
        key: &HashedKey,
        fingerprint: u64,
    ) -> Option<Arc<Prediction>> {
        let pred = Arc::new(store.get(fingerprint)?);
        self.predictions.insert_hashed(*key, Arc::clone(&pred));
        Some(pred)
    }

    /// Store a freshly computed prediction in the hot tier and, when a
    /// disk tier is attached (`disk` holds it and `key`'s fingerprint),
    /// write it through.
    fn store_computed(
        &self,
        key: &HashedKey,
        pred: &Arc<Prediction>,
        disk: Option<(&DiskStore, u64)>,
    ) {
        self.predictions.insert_hashed(*key, Arc::clone(pred));
        if let Some((store, fingerprint)) = disk {
            // Append errors are counted by the store.
            let _ = store.append(fingerprint, pred);
        }
    }

    /// The process-wide engine every experiment, sweep and report
    /// resolves through. Warm caches persist for the process lifetime:
    /// a second `full_report()` in the same process recomputes nothing.
    pub fn global() -> &'static Engine {
        GLOBAL.get_or_init(Engine::new)
    }

    /// The workload profile for `bench`/`class`, derived at most once
    /// per engine.
    pub fn profile(&self, bench: BenchmarkId, class: Class) -> Arc<WorkloadProfile> {
        self.profiles
            .get_or_insert_with(&(bench, class), || rvhpc_npb::profile(bench, class))
    }

    /// Evaluate one query (through both caches).
    pub fn predict_one(&self, q: Query) -> Arc<Prediction> {
        let plan = Plan::single(q);
        self.execute(&plan).pop().expect("single-query plan")
    }

    /// Resolve a single preset-machine query without the batch
    /// machinery: one cache probe, one compute on a miss, for callers
    /// that hold one query and no plan (the benchmark's per-layer probe
    /// timings; `rvhpc-serve` does not come through here — it answers
    /// hot hits with [`Engine::hot_hit`] and batches the rest). Shares
    /// the prediction cache with the batch executor — a query resolved
    /// here is a hit there and vice versa — but counts no batch. Panics
    /// on a [`MachineSel::Custom`] selector, which is meaningless
    /// without a plan's machine table.
    ///
    /// [`MachineSel::Custom`]: crate::engine::MachineSel::Custom
    pub fn resolve_one(&self, q: &Query) -> Arc<Prediction> {
        let plan = Plan::single(*q);
        let key = plan.hashed_key_of(q);
        if let Some(v) = self.predictions.peek_hashed(&key) {
            self.predictions.count_hit();
            return v;
        }
        let store = self.store();
        let disk = store.as_deref().map(|s| (s, key.key().fingerprint()));
        if let Some(v) = disk.and_then(|(s, fp)| self.probe_store(s, &key, fp)) {
            self.predictions.count_hit();
            return v;
        }
        self.predictions.count_miss();
        let machine = plan.machine_of(q);
        let profile = self.profile(q.bench, q.class);
        let scenario = q.scenario(&machine);
        let pred = Arc::new(compute_prediction(q, &profile, &scenario));
        self.store_computed(&key, &pred, disk);
        pred
    }

    /// Whether `q` (keyed in `plan`'s context) is already stored in
    /// either tier. A warmth probe: it never counts — used by
    /// `rvhpc-serve` to tag replies as warm/cold without disturbing the
    /// hit/miss accounting (the serving probe that follows counts
    /// exactly once).
    pub fn is_cached(&self, plan: &Plan, q: &Query) -> bool {
        let key = plan.hashed_key_of(q);
        if self.predictions.peek_hashed(&key).is_some() {
            return true;
        }
        match self.store() {
            Some(store) => store.contains(key.key().fingerprint()),
            None => false,
        }
    }

    /// Serve `q` (keyed in `plan`'s context) from the hot tier if it is
    /// there. A hit is accounted as the one-query execution it stands in
    /// for — one prediction hit, one batch, the `engine.probe` →
    /// `cache-hit` profiler frames — so the counters read the same
    /// whether this or [`Engine::execute_on`] served it. A miss counts
    /// nothing and leaves the disk tier and the compute to the executor.
    /// `rvhpc-serve`'s reactor answers hot hits through this without a
    /// shard worker.
    pub fn hot_hit(&self, plan: &Plan, q: &Query) -> Option<Arc<Prediction>> {
        let pred = self.predictions.peek_hashed(&plan.hashed_key_of(q))?;
        let _prof = rvhpc_obs::prof::scope("engine.probe");
        rvhpc_obs::prof::mark("cache-hit");
        self.predictions.count_hit();
        self.exec.lock().batches += 1;
        Some(pred)
    }

    /// Evaluate a plan with the default worker count; results in plan
    /// order.
    pub fn execute(&self, plan: &Plan) -> Vec<Arc<Prediction>> {
        self.execute_with_jobs(plan, jobs_from_env())
    }

    /// Evaluate a plan and return results addressable by query.
    pub fn resolve(&self, plan: &Plan) -> Resolved {
        self.execute_inner(plan, jobs_from_env(), None, None)
    }

    /// Evaluate a plan with an explicit worker count; results in plan
    /// order and byte-for-byte independent of `jobs`.
    pub fn execute_with_jobs(&self, plan: &Plan, jobs: usize) -> Vec<Arc<Prediction>> {
        self.execute_inner(plan, jobs, None, None).in_plan_order()
    }

    /// Evaluate a plan on a caller-provided persistent pool. Long-lived
    /// callers (the serve shard workers) keep one pool per shard across
    /// connections instead of paying thread spawn/join per batch; results
    /// are byte-identical to [`Engine::execute_with_jobs`] at any pool
    /// size. Unlike the ephemeral-pool path, misses always run through the
    /// pool — even a single miss — so a request's trace shows real
    /// pool-worker execution.
    pub fn execute_on(&self, plan: &Plan, pool: &Pool) -> Vec<Arc<Prediction>> {
        self.execute_inner(plan, pool.nthreads(), Some(pool), None)
            .in_plan_order()
    }

    /// [`Engine::execute_on`] with a request trace attached: the dedup
    /// pass, every cache-probe outcome and the miss execution are recorded
    /// as spans of `trace`, and the pool tags its `region` spans with the
    /// trace id — the engine-and-below layers of an end-to-end request
    /// trace.
    pub fn execute_on_traced(
        &self,
        plan: &Plan,
        pool: &Pool,
        trace: &mut TraceCtx,
    ) -> Vec<Arc<Prediction>> {
        self.execute_inner(plan, pool.nthreads(), Some(pool), Some(trace))
            .in_plan_order()
    }

    fn execute_inner(
        &self,
        plan: &Plan,
        jobs: usize,
        pool: Option<&Pool>,
        mut trace: Option<&mut TraceCtx>,
    ) -> Resolved {
        let jobs = jobs.max(1);
        let trace_id = trace.as_ref().map(|t| t.id());
        let queries = plan.queries();

        // Deduplicate by content key, preserving first-seen order so the
        // work list (and thus every counter) is deterministic. Each
        // unique key keeps the index of its first query.
        if let Some(t) = trace.as_deref_mut() {
            t.push("dedup");
        }
        let prof_dedup = rvhpc_obs::prof::scope("engine.dedup");
        let mut slot_of_key: HashMap<HashedKey, usize, IdentityState> =
            HashMap::with_capacity_and_hasher(plan.len(), IdentityState::default());
        let mut uniques: Vec<(HashedKey, usize)> = Vec::with_capacity(plan.len());
        let mut slot_of: Vec<usize> = Vec::with_capacity(plan.len());
        for (i, q) in queries.iter().enumerate() {
            let key = plan.hashed_key_of(q);
            let slot = *slot_of_key.entry(key).or_insert_with(|| {
                uniques.push((key, i));
                uniques.len() - 1
            });
            slot_of.push(slot);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.pop(EventKind::DedupMerge);
        }
        drop(prof_dedup);

        // Probe the cache once per unique query; the disk tier, if any,
        // is looked up once for the whole batch.
        let prof_probe = rvhpc_obs::prof::scope("engine.probe");
        let store = self.store();
        let mut results: Vec<Option<Arc<Prediction>>> = Vec::with_capacity(uniques.len());
        let mut misses: Vec<usize> = Vec::new();
        // Each miss's fingerprint when a disk tier is attached: taken once
        // for the disk probe, reused for the write-through.
        let mut fingerprints: Vec<u64> = Vec::new();
        for (slot, (key, _)) in uniques.iter().enumerate() {
            if let Some(v) = self.predictions.peek_hashed(key) {
                self.predictions.count_hit();
                results.push(Some(v));
                if let Some(t) = trace.as_deref_mut() {
                    t.mark(EventKind::CacheProbe, "cache-hit");
                }
                rvhpc_obs::prof::mark("cache-hit");
                continue;
            }
            let disk = store.as_deref().map(|s| (s, key.key().fingerprint()));
            let stored = disk.and_then(|(s, fp)| self.probe_store(s, key, fp));
            if let Some(v) = stored {
                self.predictions.count_hit();
                results.push(Some(v));
                if let Some(t) = trace.as_deref_mut() {
                    t.mark(EventKind::CacheProbe, "store-hit");
                }
                rvhpc_obs::prof::mark("store-hit");
            } else {
                self.predictions.count_miss();
                results.push(None);
                misses.push(slot);
                fingerprints.extend(disk.map(|(_, fp)| fp));
                if let Some(t) = trace.as_deref_mut() {
                    t.mark(EventKind::CacheProbe, "cache-miss");
                }
                rvhpc_obs::prof::mark("cache-miss");
            }
        }
        drop(prof_probe);

        let workers = jobs.min(misses.len().max(1));
        if let Some(t) = trace.as_deref_mut() {
            t.push("execute");
        }
        let prof_exec = rvhpc_obs::prof::scope("engine.execute");

        // Derive each distinct (bench, class) profile the misses need
        // once, before dispatch. Every further miss on it counts the
        // profile-cache hit its own lookup would have.
        let mut profiles: Vec<((BenchmarkId, Class), Arc<WorkloadProfile>)> = Vec::new();
        for &slot in &misses {
            let q = &queries[uniques[slot].1];
            if profiles.iter().any(|(id, _)| *id == (q.bench, q.class)) {
                self.profiles.count_hit();
            } else {
                profiles.push(((q.bench, q.class), self.profile(q.bench, q.class)));
            }
        }

        // Compute the misses — in parallel on our own runtime when both
        // the work and the worker count allow it.
        let compute = |k: usize| -> Arc<Prediction> {
            let (key, first) = &uniques[misses[k]];
            let q = &queries[*first];
            let (_, profile) = profiles
                .iter()
                .find(|(id, _)| *id == (q.bench, q.class))
                .expect("profile resolved before dispatch");
            let machine = plan.machine_of(q);
            let scenario = q.scenario(&machine);
            let pred = Arc::new(compute_prediction(q, profile, &scenario));
            let disk = store.as_deref().zip(fingerprints.get(k).copied());
            self.store_computed(key, &pred, disk);
            pred
        };

        // A caller-provided persistent pool always runs the misses — even
        // one — so a single cold request still executes on (and is traced
        // through) a real pool worker; the ephemeral path keeps its serial
        // shortcut to avoid spawning threads for trivial work.
        if pool.is_none() && (workers <= 1 || misses.len() <= 1) {
            for (k, &slot) in misses.iter().enumerate() {
                results[slot] = Some(compute(k));
            }
        } else if !misses.is_empty() {
            let computed: Vec<Mutex<Option<Arc<Prediction>>>> =
                misses.iter().map(|_| Mutex::new(None)).collect();
            let body = |team: &rvhpc_parallel::Team| {
                team.for_dynamic(0, misses.len(), 1, |k| {
                    *computed[k].lock() = Some(compute(k));
                });
            };
            let run_batch = |pool: &Pool| match trace_id {
                Some(id) => {
                    pool.run_traced(id, body);
                }
                None => {
                    pool.run(body);
                }
            };
            match pool {
                Some(p) => run_batch(p),
                None => run_batch(&Pool::new(workers)),
            }
            for (k, &slot) in misses.iter().enumerate() {
                results[slot] = Some(
                    computed[k]
                        .lock()
                        .take()
                        .expect("executor produced no result"),
                );
            }
        }
        drop(prof_exec);
        if let Some(t) = trace {
            t.pop(EventKind::EngineExec);
        }

        // Executor accounting: how full the worker rounds were.
        {
            let mut c = self.exec.lock();
            c.batches += 1;
            c.executed += misses.len() as u64;
            if !misses.is_empty() {
                c.capacity += (misses.len() as u64).div_ceil(workers as u64) * workers as u64;
            }
        }

        Resolved {
            fingerprints: plan.fingerprints().to_vec(),
            slot_of_key,
            results: results
                .into_iter()
                .map(|r| r.expect("slot filled"))
                .collect(),
            slot_of,
        }
    }

    /// Snapshot the cache and executor counters.
    pub fn metrics(&self) -> EngineMetrics {
        let exec = self.exec.lock();
        EngineMetrics {
            profile_hits: self.profiles.hits(),
            profile_misses: self.profiles.misses(),
            prediction_hits: self.predictions.hits(),
            prediction_misses: self.predictions.misses(),
            batches: exec.batches,
            executed: exec.executed,
            capacity: exec.capacity,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::MachineId;

    fn small_plan() -> Plan {
        let mut plan = Plan::new();
        for &b in &[BenchmarkId::Ep, BenchmarkId::Cg, BenchmarkId::Mg] {
            for &t in &[1u32, 8, 64] {
                plan.push(Query::paper(MachineId::Sg2044, b, Class::B, t));
            }
        }
        plan
    }

    #[test]
    fn parallel_execution_matches_serial_exactly() {
        let serial = Engine::new();
        let parallel = Engine::new();
        let plan = small_plan();
        let a = serial.execute_with_jobs(&plan, 1);
        let b = parallel.execute_with_jobs(&plan, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seconds.to_bits(), y.seconds.to_bits());
            assert_eq!(x.mops.to_bits(), y.mops.to_bits());
        }
    }

    #[test]
    fn duplicate_queries_are_computed_once() {
        let engine = Engine::new();
        let mut plan = Plan::new();
        let q = Query::paper(MachineId::Sg2042, BenchmarkId::Ft, Class::B, 16);
        for _ in 0..5 {
            plan.push(q);
        }
        let out = engine.execute_with_jobs(&plan, 4);
        assert_eq!(out.len(), 5);
        let m = engine.metrics();
        assert_eq!(m.prediction_misses, 1, "dedup must collapse duplicates");
        assert_eq!(m.executed, 1);
        // All five plan slots share one allocation.
        assert!(out.iter().all(|p| Arc::ptr_eq(p, &out[0])));
    }

    #[test]
    fn second_execution_is_all_hits() {
        let engine = Engine::new();
        let plan = small_plan();
        engine.execute_with_jobs(&plan, 4);
        let before = engine.metrics();
        let out = engine.execute_with_jobs(&plan, 4);
        let after = engine.metrics();
        assert_eq!(out.len(), plan.len());
        assert_eq!(
            after.prediction_misses, before.prediction_misses,
            "warm cache must not recompute"
        );
        assert_eq!(
            after.prediction_hits - before.prediction_hits,
            plan.len() as u64
        );
        assert_eq!(after.executed, before.executed);
    }

    #[test]
    fn profile_cache_collapses_repeated_derivations() {
        let engine = Engine::new();
        let p1 = engine.profile(BenchmarkId::Cg, Class::B);
        let p2 = engine.profile(BenchmarkId::Cg, Class::B);
        assert!(Arc::ptr_eq(&p1, &p2));
        let m = engine.metrics();
        assert_eq!(m.profile_misses, 1);
        assert_eq!(m.profile_hits, 1);
    }

    #[test]
    fn occupancy_reflects_round_fill() {
        let engine = Engine::new();
        let plan = small_plan(); // 9 unique queries
        engine.execute_with_jobs(&plan, 4); // rounds = ceil(9/4) = 3 → capacity 12
        let m = engine.metrics();
        assert_eq!(m.executed, 9);
        assert_eq!(m.capacity, 12);
        assert!((m.occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn resolve_one_shares_the_prediction_cache() {
        let engine = Engine::new();
        let q = Query::paper(MachineId::Sg2044, BenchmarkId::Cg, Class::B, 8);

        // Cold resolve computes; the second resolve is a pure cache hit
        // returning the same allocation.
        let a = engine.resolve_one(&q);
        let m = engine.metrics();
        assert_eq!((m.prediction_hits, m.prediction_misses), (0, 1));
        let b = engine.resolve_one(&q);
        let m = engine.metrics();
        assert_eq!((m.prediction_hits, m.prediction_misses), (1, 1));
        assert!(Arc::ptr_eq(&a, &b));

        // The batch executor sees the same cache: a plan holding the same
        // query is all hits, and its result is the same allocation too.
        let out = engine.execute_with_jobs(&Plan::single(q), 4);
        let m = engine.metrics();
        assert_eq!((m.prediction_hits, m.prediction_misses), (2, 1));
        assert!(Arc::ptr_eq(&out[0], &a));
    }

    #[test]
    fn is_cached_tracks_warmth_without_counting() {
        let engine = Engine::new();
        let plan = Plan::single(Query::paper(
            MachineId::Sg2042,
            BenchmarkId::Ep,
            Class::B,
            4,
        ));
        let q = plan.queries()[0];
        assert!(!engine.is_cached(&plan, &q));
        engine.execute_with_jobs(&plan, 1);
        let before = engine.metrics();
        assert!(engine.is_cached(&plan, &q));
        assert_eq!(engine.metrics(), before, "is_cached must not count probes");
    }

    #[test]
    fn execute_on_reused_pool_matches_ephemeral_pools() {
        let plan = small_plan();
        let reference = Engine::new().execute_with_jobs(&plan, 4);
        let engine = Engine::new();
        let pool = rvhpc_parallel::Pool::new(4);
        // Two batches over one pool: cold then warm.
        let cold = engine.execute_on(&plan, &pool);
        let warm = engine.execute_on(&plan, &pool);
        for (x, y) in reference.iter().zip(cold.iter().chain(warm.iter())) {
            assert_eq!(x.seconds.to_bits(), y.seconds.to_bits());
            assert_eq!(x.mops.to_bits(), y.mops.to_bits());
        }
        let m = engine.metrics();
        assert_eq!(m.prediction_misses, plan.len() as u64);
        assert_eq!(m.prediction_hits, plan.len() as u64);
    }

    #[test]
    fn traced_execution_records_all_layers_under_one_id() {
        use rvhpc_obs::{self as obs};
        // A distinctive id: no other test records events with this arg.
        let id = 987_654_321u64;
        obs::set_enabled(true);
        let engine = Engine::new();
        let pool = Pool::new(2);
        let plan = Plan::single(Query::paper(
            MachineId::Sg2044,
            BenchmarkId::Cg,
            Class::B,
            5,
        ));
        let mut trace = TraceCtx::start(id, 0);
        trace.set_retain(true);
        let out = engine.execute_on_traced(&plan, &pool, &mut trace);
        obs::set_enabled(false);
        assert_eq!(out.len(), 1);

        // Retained (slow-dump) view: dedup, probe outcome, execution.
        let names: Vec<&str> = trace.retained().iter().map(|s| s.name).collect();
        assert!(names.contains(&"dedup"), "retained: {names:?}");
        assert!(names.contains(&"cache-miss"), "retained: {names:?}");
        assert!(names.contains(&"execute"), "retained: {names:?}");

        // Ring view: engine spans AND a pool-worker region span share the
        // trace id, even though the plan held a single (cold) query.
        let events = obs::drain_all().events;
        let mine: Vec<_> = events.iter().filter(|e| e.arg == id).collect();
        assert!(
            mine.iter().any(|e| e.kind == EventKind::Region),
            "single cold query must execute on a traced pool worker"
        );
        assert!(mine.iter().any(|e| e.kind == EventKind::EngineExec));
        assert!(mine
            .iter()
            .any(|e| e.kind == EventKind::CacheProbe && e.name == "cache-miss"));
        assert!(mine.iter().any(|e| e.kind == EventKind::DedupMerge));
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rvhpc-engine-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_serves_a_fresh_engine_without_recompute() {
        let dir = tmpdir("warm");
        let plan = small_plan();

        // First life: compute everything, written through to disk.
        let cold = Engine::new();
        cold.attach_store(&dir).expect("attach");
        let a = cold.execute_with_jobs(&plan, 4);
        assert_eq!(cold.store().unwrap().metrics().appends, plan.len() as u64);

        // Second life (fresh process simulated by a fresh engine):
        // everything restores from disk — zero recompute, bit-exact.
        let warm = Engine::new();
        warm.attach_store(&dir).expect("reattach");
        let b = warm.execute_with_jobs(&plan, 4);
        let m = warm.metrics();
        assert_eq!(m.prediction_misses, 0, "warm restart must not recompute");
        assert_eq!(m.executed, 0);
        assert_eq!(m.prediction_hits, plan.len() as u64);
        let disk = warm.store().unwrap().metrics();
        assert!(disk.hits > 0, "hits must come from the disk tier");
        assert_eq!(disk.restored, plan.len() as u64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seconds.to_bits(), y.seconds.to_bits());
            assert_eq!(x.mops.to_bits(), y.mops.to_bits());
        }

        // The disk record is promoted on first touch: probing the same
        // plan again is all memory hits, no further disk reads.
        let disk_hits_before = warm.store().unwrap().metrics().hits;
        warm.execute_with_jobs(&plan, 4);
        assert_eq!(warm.store().unwrap().metrics().hits, disk_hits_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_hot_tier_spills_to_disk_and_reloads() {
        let dir = tmpdir("spill");
        let engine = Engine::new();
        engine.attach_store(&dir).expect("attach");
        engine.set_hot_capacity(4);
        // More unique queries than the bound: the hot tier must evict.
        let mut plan = Plan::new();
        for &b in &[BenchmarkId::Ep, BenchmarkId::Cg, BenchmarkId::Mg] {
            for t in [1u32, 2, 4, 8, 16, 24, 32, 48, 64, 96] {
                plan.push(Query::paper(MachineId::Sg2044, b, Class::B, t));
            }
        }
        engine.execute_with_jobs(&plan, 2);
        assert!(engine.hot_entries() < plan.len());
        let store = engine.store().unwrap();
        assert_eq!(store.len(), plan.len(), "write-through covers every key");
        // Warm replay: evicted keys come back from disk, nothing is
        // recomputed.
        let before = engine.metrics();
        engine.execute_with_jobs(&plan, 2);
        let after = engine.metrics();
        assert_eq!(after.prediction_misses, before.prediction_misses);
        assert_eq!(after.executed, before.executed);
        assert!(store.metrics().hits > 0, "evicted keys reload from disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The counter-semantics regression pinned by the persistence work:
    /// warmth probes (`is_cached`) count nothing in either tier, and
    /// every served request moves exactly one counter exactly once —
    /// interleaving any number of probes cannot skew the reported rate.
    #[test]
    fn warmth_probes_keep_one_count_per_served_request() {
        let dir = tmpdir("probes");
        let engine = Engine::new();
        engine.attach_store(&dir).expect("attach");
        let q = Query::paper(MachineId::Sg2044, BenchmarkId::Is, Class::B, 8);
        let plan = Plan::single(q);
        for _ in 0..50 {
            engine.is_cached(&plan, &q);
        }
        engine.resolve_one(&q);
        let m = engine.metrics();
        assert_eq!((m.prediction_hits, m.prediction_misses), (0, 1));
        for _ in 0..50 {
            assert!(engine.is_cached(&plan, &q));
        }
        engine.resolve_one(&q);
        let m = engine.metrics();
        assert_eq!((m.prediction_hits, m.prediction_misses), (1, 1));
        let disk = engine.store().unwrap().metrics();
        assert_eq!(
            (disk.hits, disk.misses),
            (0, 1),
            "warmth probes must not touch disk counters either \
             (the one disk miss is the cold serving probe)"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_persists_hot_entries_for_the_next_life() {
        let dir = tmpdir("snapshot");
        let plan = small_plan();
        {
            // No store during compute — entries exist only in memory —
            // then attach and snapshot, as drain does for a server whose
            // engine warmed up before the store was attached.
            let engine = Engine::new();
            engine.execute_with_jobs(&plan, 2);
            engine.attach_store(&dir).expect("attach");
            let added = engine.snapshot_store().expect("snapshot");
            assert_eq!(added, plan.len() as u64);
            assert_eq!(engine.snapshot_store().expect("idempotent"), 0);
        }
        let next = Engine::new();
        next.attach_store(&dir).expect("reattach");
        next.execute_with_jobs(&plan, 2);
        let m = next.metrics();
        assert_eq!((m.prediction_misses, m.executed), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jobs_resolution_priority() {
        // Not a full env test (env is process-global); just the override.
        set_default_jobs(3);
        assert_eq!(jobs_from_env(), 3);
        set_default_jobs(0);
        assert!(jobs_from_env() >= 1);
    }
}
