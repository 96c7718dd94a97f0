//! EP — the Embarrassingly Parallel kernel.
//!
//! Generates 2^(M+1) uniform pseudo-random numbers, transforms them into
//! Gaussian deviates by the Marsaglia polar (acceptance–rejection) method,
//! tallies the deviates into ten concentric square annuli, and sums the
//! accepted pairs. Compute-bound with negligible memory pressure (paper
//! Table 1: 11% cache stalls, 0% DDR), which is why the paper uses it as
//! the pure-compute probe (§5.3).
//!
//! Port of NPB 3.4 `EP/ep.f`: same batch structure (2^MK pairs per batch),
//! same O(log k) seed jump per batch, same verification sums.

use rvhpc_parallel::Pool;

use crate::common::class::{self, Class};
use crate::common::mops;
use crate::common::randdp::{randlc, vranlc};
use crate::common::result::{BenchResult, Provenance};
use crate::common::timers::timed;
use crate::common::verify;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// Batch exponent: each batch generates 2^MK pairs (NPB's `mk = 16`).
const MK: u32 = 16;
/// Number of annulus bins.
const NQ: usize = 10;
/// EP's seed (NPB uses 271828183 for EP, unlike the other benchmarks).
const SEED: f64 = 271828183.0;
/// The LCG multiplier.
const A: f64 = 1220703125.0;

/// The EP benchmark.
pub(crate) struct Ep;

/// Raw outputs of an EP run, before verification.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EpOutput {
    /// Sum of accepted X deviates.
    pub sx: f64,
    /// Sum of accepted Y deviates.
    pub sy: f64,
    /// Annulus counts.
    pub q: [f64; NQ],
    /// Total accepted Gaussian pairs.
    pub gaussian_pairs: f64,
}

/// Run the EP computation at exponent `m` on `pool` and return the sums.
pub(crate) fn compute(m: u32, pool: &Pool) -> EpOutput {
    let mk = MK.min(m);
    let nk = 1usize << mk; // pairs per batch
    let nn = 1usize << (m - mk); // number of batches

    // an = a^(2^(mk+1)) mod 2^46: the per-batch stream stride.
    let mut an = A;
    for _ in 0..=mk {
        let sq = an;
        randlc(&mut an, sq);
    }

    let per_thread = pool.run(|team| {
        let mut x = vec![0.0f64; 2 * nk];
        let mut sx = 0.0f64;
        let mut sy = 0.0f64;
        let mut q = [0.0f64; NQ];
        // Batches are statically partitioned; every batch jumps straight
        // to its seed, so the result is independent of the partition.
        team.phase("gaussian-tally", || {
            for k in team.static_range(0, nn) {
                // t1 = SEED * an^k mod 2^46 (binary method, as ep.f).
                let mut t1 = SEED;
                let mut t2 = an;
                let mut kk = k;
                loop {
                    let ik = kk / 2;
                    if 2 * ik != kk {
                        randlc(&mut t1, t2);
                    }
                    if ik == 0 {
                        break;
                    }
                    let sq = t2;
                    randlc(&mut t2, sq);
                    kk = ik;
                }
                // Generate the batch of uniforms and tally Gaussians.
                vranlc(&mut t1, A, &mut x);
                for i in 0..nk {
                    let x1 = 2.0 * x[2 * i] - 1.0;
                    let x2 = 2.0 * x[2 * i + 1] - 1.0;
                    let t = x1 * x1 + x2 * x2;
                    if t <= 1.0 {
                        let f = (-2.0 * t.ln() / t).sqrt();
                        let g1 = x1 * f;
                        let g2 = x2 * f;
                        let l = g1.abs().max(g2.abs()) as usize;
                        q[l] += 1.0;
                        sx += g1;
                        sy += g2;
                    }
                }
            }
        });
        team.barrier();
        (sx, sy, q)
    });

    let mut out = EpOutput {
        sx: 0.0,
        sy: 0.0,
        q: [0.0; NQ],
        gaussian_pairs: 0.0,
    };
    for (sx, sy, q) in per_thread {
        out.sx += sx;
        out.sy += sy;
        for (acc, v) in out.q.iter_mut().zip(q) {
            *acc += v;
        }
    }
    out.gaussian_pairs = out.q.iter().sum();
    out
}

/// NPB-published verification sums `(sx, sy)` per class, from `ep.f`.
/// `Class::T` is self-referenced (recorded from this implementation).
#[allow(clippy::excessive_precision)] // verification constants verbatim
fn reference_sums(class: Class) -> (f64, f64, Provenance) {
    match class {
        Class::T => (
            1.873198969612163e+2,
            -3.797408336054129e+2,
            Provenance::SelfReference,
        ),
        Class::S => (
            -3.247834652034740e+3,
            -6.958407078382297e+3,
            Provenance::NpbReference,
        ),
        Class::W => (
            -2.863319731645753e+3,
            -6.320053679109499e+3,
            Provenance::NpbReference,
        ),
        Class::A => (
            -4.295875165629892e+3,
            -1.580732573678431e+4,
            Provenance::NpbReference,
        ),
        Class::B => (
            4.033815542441498e+4,
            -2.660669192809235e+4,
            Provenance::NpbReference,
        ),
        Class::C => (
            4.764367927995374e+4,
            -8.084072988043731e+4,
            Provenance::NpbReference,
        ),
    }
}

impl Benchmark for Ep {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let m = class::ep_m(class);
        let (dt, out) = timed(|| compute(m, pool));
        let (sx_ref, sy_ref, provenance) = reference_sums(class);
        let sx_status = verify::check(out.sx, sx_ref, verify::EPSILON, provenance);
        let sy_status = verify::check(out.sy, sy_ref, verify::EPSILON, provenance);
        let verified = if sx_status.passed() && sy_status.passed() {
            sx_status
        } else if sx_status.passed() {
            sy_status
        } else {
            sx_status
        };
        BenchResult {
            name: "EP",
            class,
            threads: pool.nthreads(),
            time_seconds: dt,
            mops: mops::mops(BenchmarkId::Ep, class, dt),
            verified,
            check_value: out.sx,
        }
    }
}

/// Analytic workload profile (see the `crate::profile` module docs).
///
/// Per generated pair: two `vranlc` steps (~11 fp instructions each), the
/// polar transform (~8), and with probability π/4 the accept path's
/// `ln`+`sqrt` (~55 instructions of libm polynomial work, ~35 of them
/// flops). Memory traffic is only the 2·2^MK-element batch buffer.
///
/// The generator counts are those of NPB's own split-double `randlc`, the
/// code the paper compiled and ran on the modelled CPUs — not of this
/// port's integer step (`common::randdp`), which the model does not time.
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let m = class::ep_m(class);
    let pairs = 2.0f64.powi(m as i32);
    let accept = std::f64::consts::FRAC_PI_4;
    let instructions = pairs * (2.0 * 14.0 + 10.0 + accept * 60.0);
    let flops = pairs * (2.0 * 10.0 + 8.0 + accept * 38.0);
    let mem_refs = pairs * 5.0; // 2 buffer writes, 2 reads, ~1 tally update
    let batch_bytes = 2.0 * f64::from(1u32 << MK.min(m)) * 8.0;
    WorkloadProfile {
        bench: BenchmarkId::Ep,
        class,
        total_ops: mops::total_ops(BenchmarkId::Ep, class),
        phases: vec![PhaseProfile {
            name: "gaussian-tally",
            instructions,
            flops,
            mem_refs,
            elem_bytes: 8,
            working_set_bytes: batch_bytes,
            pattern: AccessPattern::ComputeOnly,
            ws_partitioned: true,
            // The LCG recurrence serializes and the accept branch breaks
            // the loop's vector shape: compilers vectorise only fragments
            // (paper Table 7: vectorisation buys EP essentially nothing).
            vectorizable: 0.10,
            branch_rate: 0.08,
            branch_misrate: 0.22, // ~π/4 taken, data-dependent
        }],
        barriers: 2.0,
        imbalance: 1.02,
        parallel_fraction: 0.9999,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_t_sums_are_stable() {
        let pool = Pool::new(2);
        let out = compute(class::ep_m(Class::T), &pool);
        // Golden self-reference values; also pins the generator.
        assert!(
            (out.sx - 1.873198969612163e+2).abs() / 199.0 < 1e-10,
            "sx = {:.15e}",
            out.sx
        );
        assert!(
            (out.sy - -3.797408336054129e+2).abs() / 437.0 < 1e-10,
            "sy = {:.15e}",
            out.sy
        );
    }

    #[test]
    fn acceptance_rate_is_pi_over_four() {
        let pool = Pool::new(1);
        let m = class::ep_m(Class::T);
        let out = compute(m, &pool);
        let rate = out.gaussian_pairs / 2.0f64.powi(m as i32);
        assert!(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.01,
            "rate {rate}"
        );
    }

    #[test]
    fn result_is_thread_count_invariant() {
        let m = class::ep_m(Class::T);
        let base = compute(m, &Pool::new(1));
        for n in [2, 3, 4] {
            let out = compute(m, &Pool::new(n));
            assert!((out.sx - base.sx).abs() < 1e-9, "sx differs at {n} threads");
            assert!((out.sy - base.sy).abs() < 1e-9, "sy differs at {n} threads");
            assert_eq!(out.q, base.q, "annulus counts differ at {n} threads");
        }
    }

    #[test]
    fn annulus_counts_decay() {
        // Gaussian tails: q[l] must be strictly decreasing after bin 0.
        let pool = Pool::new(2);
        let out = compute(class::ep_m(Class::T), &pool);
        for l in 1..4 {
            assert!(out.q[l] < out.q[l - 1], "bin {l} not decaying: {:?}", out.q);
        }
    }

    #[test]
    fn run_reports_pass_for_class_t() {
        let pool = Pool::new(2);
        let r = Ep.run(Class::T, &pool);
        assert!(r.verified.passed(), "{:?}", r.verified);
        assert!(r.mops > 0.0);
        assert_eq!(r.name, "EP");
    }

    /// `sx` as the split-double generator produced it (commit bb19309).
    #[test]
    fn sx_is_pinned_to_the_split_double_generators_bits() {
        let pins = [
            (
                Class::T,
                [
                    0x4067_6a3c_988d_5097,
                    0x4067_6a3c_988d_5070,
                    0x4067_6a3c_988d_5099,
                ],
            ),
            (
                Class::S,
                [
                    0xc0a9_5fab_5782_f17c,
                    0xc0a9_5fab_5782_ef53,
                    0xc0a9_5fab_5782_f240,
                ],
            ),
        ];
        verify::assert_pinned_bits("EP sx", &pins, |class, pool| {
            compute(class::ep_m(class), pool).sx
        });
    }

    #[test]
    fn class_s_matches_npb_reference_and_the_sequential_generator() {
        let out = compute(class::ep_m(Class::S), &Pool::new(2));
        let (sx_ref, sy_ref, provenance) = reference_sums(Class::S);
        assert!(verify::check(out.sx, sx_ref, verify::EPSILON, provenance).passed());
        assert!(verify::check(out.sy, sy_ref, verify::EPSILON, provenance).passed());
        // The two-thread `sy` and pair count as the split-double, one-stream
        // `vranlc` produced them (commit 4c4bb59; `sx` is pinned above):
        // neither the lanes nor the integer step may move a bit.
        assert_eq!(out.sy.to_bits(), 0xc0bb_2e68_3649_f40e, "sy = {:e}", out.sy);
        assert_eq!(out.gaussian_pairs, 13_176_389.0);
    }
}
