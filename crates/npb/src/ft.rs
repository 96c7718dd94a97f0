//! FT — the 3-D Fast Fourier Transform kernel.
//!
//! Solves a 3-D diffusion equation spectrally: forward-transform a random
//! complex field once, then each iteration damps the spectrum with
//! Gaussian twiddle factors (`evolve`) and inverse-transforms, summing a
//! 1024-point checksum. The pencil transforms along y and z walk the array
//! at large strides — the shared-memory analogue of the MPI version's
//! all-to-all transposition, and the reason FT sustains high DDR bandwidth
//! (paper Table 1: 18% of runtime bandwidth-bound).
//!
//! Port of NPB 3.4 `FT/ft.f`: same problem shape (one forward FFT, then
//! `niter` × (evolve → inverse FFT → checksum)), same cumulative twiddle
//! evolution, same checksum index pattern `(j mod nx, 3j mod ny,
//! 5j mod nz)`, same unnormalized transforms with the final `/ ntotal`.
//!
//! The 1-D transforms use a radix-2 Stockham autosort FFT (NPB's `cfftz`
//! is Swarztrauber's variant of the same family). Per-iteration checksum
//! reference tables are *self-referenced* (recorded from this
//! implementation and pinned — see DESIGN.md §2); FFT correctness is
//! established independently by round-trip, Parseval, and analytic-case
//! tests.

use rvhpc_parallel::{Pool, SyncSlice, TeamChunks};

use crate::common::class::{self, Class, FtParams};
use crate::common::mops;
use crate::common::randdp::{skip_ahead, vranlc, A as AMULT, SEED};
use crate::common::result::{BenchResult, Provenance, VerifyStatus};
use crate::common::timers::Timers;
use crate::common::verify;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// Diffusion coefficient (NPB's `alpha`).
const ALPHA: f64 = 1.0e-6;

/// The FT benchmark.
pub(crate) struct Ft;

/// Minimal complex number (kept local: the kernels need only mul/add).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// e^{iθ}.
    #[inline]
    pub fn expi(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    #[inline]
    pub(crate) fn scale(self, s: f64) -> C64 {
        C64::new(self.re * s, self.im * s)
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Precomputed twiddle table for one transform length.
#[derive(Debug, Clone)]
pub struct FftPlan {
    /// `w[k] = e^{-2πik/n}` for `k < n/2`.
    w: Vec<C64>,
    n: usize,
}

impl FftPlan {
    /// Plan for power-of-two length `n`.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let w = (0..n / 2)
            .map(|k| C64::expi(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Self { w, n }
    }

    /// Twiddle `e^{sign·2πip/nn}` for a stage of length `nn`.
    #[inline]
    fn twiddle(&self, p: usize, nn: usize, inverse: bool) -> C64 {
        let w = self.w[p * (self.n / nn)];
        if inverse {
            C64::new(w.re, -w.im)
        } else {
            w
        }
    }
}

/// Pencils the y and z passes transform together (NPB's `fftblock`): 16
/// complex numbers are 256 bytes, so a pass moves four whole cache lines per
/// row it touches instead of one element per line, and every butterfly
/// stage has a unit-stride inner loop at least this long.
const FFT_BLOCK: usize = 16;

/// Radix-2 Stockham transform of `x` (length n, stride 1) using `y` as
/// ping-pong scratch. Unnormalized; `inverse` conjugates the twiddles.
pub fn fft_1d(plan: &FftPlan, x: &mut [C64], y: &mut [C64], inverse: bool) {
    fft_interleaved(plan, 1, x, y, inverse);
}

/// [`fft_1d`] on `s` pencils at once: point `p` of pencil `q` is
/// `x[q + s * p]`. Each pencil goes through exactly the operations
/// `fft_1d` would apply to it alone.
fn fft_interleaved(plan: &FftPlan, s: usize, x: &mut [C64], y: &mut [C64], inverse: bool) {
    debug_assert_eq!(x.len(), plan.n * s);
    debug_assert_eq!(y.len(), plan.n * s);
    fft_rec(plan, plan.n, s, false, x, y, inverse);
}

/// Recursive Stockham kernel: length `nn`, `s` interleaved transforms.
/// `eo == false` means input (and final output) live in `x`.
fn fft_rec(
    plan: &FftPlan,
    nn: usize,
    s: usize,
    eo: bool,
    x: &mut [C64],
    y: &mut [C64],
    inverse: bool,
) {
    if nn == 1 {
        if eo {
            y[..s].copy_from_slice(&x[..s]);
        }
        return;
    }
    let m = nn / 2;
    // Butterfly group p reads the s-long runs p and p + m of `x` and writes
    // runs 2p and 2p + 1 of `y`.
    let (lo, hi) = x[..nn * s].split_at(m * s);
    let runs = lo.chunks_exact(s).zip(hi.chunks_exact(s));
    for (p, ((a, b), out)) in runs.zip(y[..nn * s].chunks_exact_mut(2 * s)).enumerate() {
        let wp = plan.twiddle(p, nn, inverse);
        let (sum, diff) = out.split_at_mut(s);
        for q in 0..s {
            sum[q] = a[q] + b[q];
            diff[q] = (a[q] - b[q]) * wp;
        }
    }
    fft_rec(plan, m, 2 * s, !eo, y, x, inverse);
}

/// Transform in place the pencils that cross `rows`: row `k` holds point
/// `k` of every pencil, side by side. [`FFT_BLOCK`] pencils at a time are
/// copied into `block` (as the interleaved layout of [`fft_interleaved`]),
/// transformed there and copied back.
fn fft_across(
    plan: &FftPlan,
    rows: &mut [&mut [C64]],
    block: &mut [C64],
    scratch: &mut [C64],
    inverse: bool,
) {
    debug_assert_eq!(rows.len(), plan.n);
    let width = rows[0].len();
    for x0 in (0..width).step_by(FFT_BLOCK) {
        let w = FFT_BLOCK.min(width - x0);
        let (block, scratch) = (&mut block[..plan.n * w], &mut scratch[..plan.n * w]);
        for (run, row) in block.chunks_exact_mut(w).zip(rows.iter()) {
            run.copy_from_slice(&row[x0..][..w]);
        }
        fft_interleaved(plan, w, block, scratch, inverse);
        for (run, row) in block.chunks_exact(w).zip(rows.iter_mut()) {
            row[x0..][..w].copy_from_slice(run);
        }
    }
}

/// The FT state: three field arrays in `x`-fastest layout.
struct FtState {
    p: FtParams,
    /// Frequency-domain field (cumulatively damped).
    u0: Vec<C64>,
    /// Scratch for evolve output / inverse input.
    u1: Vec<C64>,
    /// Inverse-transform output.
    u2: Vec<C64>,
    /// Per-point damping factor `e^{-4απ²|k̄|²}`.
    twiddle: Vec<f64>,
    plans: [FftPlan; 3],
}

impl FtState {
    fn new(p: FtParams) -> Self {
        let nt = p.ntotal();
        Self {
            p,
            u0: vec![C64::default(); nt],
            u1: vec![C64::default(); nt],
            u2: vec![C64::default(); nt],
            twiddle: vec![0.0; nt],
            plans: [FftPlan::new(p.nx), FftPlan::new(p.ny), FftPlan::new(p.nz)],
        }
    }
}

/// Fill `field` with the NPB initial conditions: 2·ntotal generator draws
/// in x-fastest order (re, im interleaved), parallel by plane jumps.
fn initial_conditions(field: &mut [C64], p: FtParams, pool: &Pool) {
    let rows = TeamChunks::new(pool, field, p.nx, 0, p.ny * p.nz);
    pool.run(|team| {
        let (first, mine) = rows.claim(team);
        let mut seed = skip_ahead(SEED, AMULT, 2 * (p.nx * first) as u64);
        let mut buf = vec![0.0f64; 2 * p.nx];
        for row in mine.chunks_exact_mut(p.nx) {
            vranlc(&mut seed, AMULT, &mut buf);
            for (v, ri) in row.iter_mut().zip(buf.chunks_exact(2)) {
                *v = C64::new(ri[0], ri[1]);
            }
        }
    });
}

/// Precompute the damping factors (NPB `compute_index_map` + setup).
fn compute_twiddle(st: &mut FtState, pool: &Pool) {
    let p = st.p;
    let ap = -4.0 * ALPHA * std::f64::consts::PI * std::f64::consts::PI;
    let wrap = |i: usize, n: usize| -> f64 {
        // Signed frequency index: (i + n/2) mod n − n/2.
        ((i + n / 2) % n) as f64 - (n / 2) as f64
    };
    let planes = TeamChunks::new(pool, &mut st.twiddle, p.nx * p.ny, 0, p.nz);
    pool.run(|team| {
        for (z, plane) in planes.claim_units(team) {
            let kz = wrap(z, p.nz);
            for (y, row) in plane.chunks_exact_mut(p.nx).enumerate() {
                let ky = wrap(y, p.ny);
                for (x, e) in row.iter_mut().enumerate() {
                    let kx = wrap(x, p.nx);
                    *e = (ap * (kx * kx + ky * ky + kz * kz)).exp();
                }
            }
        }
    });
}

/// One evolve step: `u0 *= twiddle` (cumulative damping), `u1 = u0`.
fn evolve(st: &mut FtState, pool: &Pool) {
    let nt = st.p.ntotal();
    let u0 = TeamChunks::new(pool, &mut st.u0, 1, 0, nt);
    let u1 = TeamChunks::new(pool, &mut st.u1, 1, 0, nt);
    let tw = &st.twiddle;
    pool.run(|team| {
        let (first, u0) = u0.claim(team);
        let (_, u1) = u1.claim(team);
        let tw = &tw[first..][..u0.len()];
        team.phase("evolve", || {
            for ((a, b), &t) in u0.iter_mut().zip(u1.iter_mut()).zip(tw) {
                *a = a.scale(t);
                *b = *a;
            }
        });
    });
}

/// The NPB 1024-point checksum of `field`, divided by ntotal.
pub fn checksum(field: &[C64], p: FtParams) -> C64 {
    let mut chk = C64::default();
    for j in 1..=1024usize {
        let q = j % p.nx;
        let r = (3 * j) % p.ny;
        let s = (5 * j) % p.nz;
        let v = field[q + p.nx * (r + p.ny * s)];
        chk = chk + v;
    }
    chk.scale(1.0 / p.ntotal() as f64)
}

/// Raw outputs of an FT run.
#[derive(Debug, Clone)]
pub(crate) struct FtOutput {
    /// Checksum after each iteration.
    pub checksums: Vec<C64>,
    /// Seconds in the timed section.
    pub timed_seconds: f64,
}

/// Run the full FT benchmark computation.
pub(crate) fn compute(class: Class, pool: &Pool) -> FtOutput {
    let p = class::ft_params(class);
    let mut st = FtState::new(p);
    compute_twiddle(&mut st, pool);

    // Untimed warm-up pass over the FFT code paths.
    initial_conditions(&mut st.u1, p, pool);
    {
        let (u1, u0) = (&st.u1, &mut st.u0);
        fft3d_outer(&st.plans, p, u1, u0, false, pool);
    }

    // Re-initialize and run the timed section.
    initial_conditions(&mut st.u1, p, pool);
    let mut timers = Timers::new(1);
    timers.start(0);
    {
        let (u1, u0) = (&st.u1, &mut st.u0);
        fft3d_outer(&st.plans, p, u1, u0, false, pool);
    }
    let mut checksums = Vec::with_capacity(p.niter);
    for _ in 0..p.niter {
        evolve(&mut st, pool);
        {
            let (u1, u2) = (&st.u1, &mut st.u2);
            fft3d_outer(&st.plans, p, u1, u2, true, pool);
        }
        checksums.push(checksum(&st.u2, p));
    }
    timers.stop(0);
    FtOutput {
        checksums,
        timed_seconds: timers.read(0),
    }
}

/// 3-D FFT of `src` into `dst`, one axis after the other.
fn fft3d_outer(
    plans: &[FftPlan; 3],
    p: FtParams,
    src: &[C64],
    dst: &mut [C64],
    inverse: bool,
    pool: &Pool,
) {
    debug_assert_eq!(src.len(), p.ntotal());
    let plane_len = p.nx * p.ny;
    // Per member: a block of y or z pencils and the transforms' scratch,
    // which also serves the single x pencils.
    let buffers = || {
        let len = (FFT_BLOCK.min(p.nx) * p.ny.max(p.nz)).max(p.nx);
        (vec![C64::default(); len], vec![C64::default(); len])
    };
    {
        // x and y pencils lie inside a z plane, so a plane's owner runs both
        // passes on it while it is still in cache.
        let planes = TeamChunks::new(pool, dst, plane_len, 0, p.nz);
        pool.run(|team| {
            let (mut block, mut scratch) = buffers();
            for (z, plane) in planes.claim_units(team) {
                team.phase("fft-x", || {
                    plane.copy_from_slice(&src[z * plane_len..][..plane_len]);
                    for row in plane.chunks_exact_mut(p.nx) {
                        fft_1d(&plans[0], row, &mut scratch[..p.nx], inverse);
                    }
                });
                team.phase("fft-yz-transpose", || {
                    let mut rows: Vec<&mut [C64]> = plane.chunks_exact_mut(p.nx).collect();
                    fft_across(&plans[1], &mut rows, &mut block, &mut scratch, inverse);
                });
            }
        });
    }
    // z pencils cross every plane: a member owns the rows `(y, ·)` of its
    // static block of `y`, nz runs of nx elements a plane apart.
    let out = SyncSlice::new(dst);
    pool.run(|team| {
        let (mut block, mut scratch) = buffers();
        team.phase("fft-yz-transpose", || {
            for y in team.static_range(0, p.ny) {
                let mut rows: Vec<&mut [C64]> = (0..p.nz)
                    // SAFETY: row (y, z) belongs to the one member whose
                    // static block holds y, for the whole region, and each
                    // (y, z) is taken once.
                    .map(|z| unsafe { out.slice_mut(p.nx * (y + p.ny * z), p.nx) })
                    .collect();
                fft_across(&plans[2], &mut rows, &mut block, &mut scratch, inverse);
            }
        });
    });
}

/// Self-referenced final-iteration checksum per class (see module docs).
fn reference_checksum(class: Class) -> Option<(f64, f64)> {
    match class {
        Class::T => Some((5.361026866643e2, 6.004802068635e2)),
        Class::S => Some((5.542683411903e2, 4.932597244941e2)),
        Class::W => Some((5.504159734538e2, 5.239212247086e2)),
        // A/B/C pins would require host runs at those classes; verified by
        // invariants instead.
        _ => None,
    }
}

impl Benchmark for Ft {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let out = compute(class, pool);
        let last = *out.checksums.last().expect("niter >= 1");
        let verified = match reference_checksum(class) {
            Some((re, im)) => {
                let vr = verify::check(
                    last.re,
                    re,
                    verify::EPSILON_RELAXED,
                    Provenance::SelfReference,
                );
                let vi = verify::check(
                    last.im,
                    im,
                    verify::EPSILON_RELAXED,
                    Provenance::SelfReference,
                );
                if vr.passed() && vi.passed() {
                    vr
                } else if vr.passed() {
                    vi
                } else {
                    vr
                }
            }
            None => {
                // Invariant: the damped checksum magnitudes must decay
                // slowly and stay O(512) (mean of uniforms × 1024).
                let plausible = out
                    .checksums
                    .iter()
                    .all(|c| c.re > 100.0 && c.re < 1000.0 && c.im > 100.0 && c.im < 1000.0);
                if plausible {
                    VerifyStatus::InvariantsHeld
                } else {
                    VerifyStatus::Failed {
                        provenance: Provenance::InvariantOnly,
                        computed: last.re,
                        reference: 512.0,
                    }
                }
            }
        };
        BenchResult {
            name: "FT",
            class,
            threads: pool.nthreads(),
            time_seconds: out.timed_seconds,
            mops: mops::mops(BenchmarkId::Ft, class, out.timed_seconds),
            verified,
            check_value: last.re,
        }
    }
}

/// Analytic workload profile.
///
/// Per 3-D FFT: 5·N·log2(N) flops. The x-pass streams contiguously; the
/// y/z passes gather and scatter pencils at strides of `16·nx` and
/// `16·nx·ny` bytes — the transposition traffic that dominates FT's memory
/// behaviour. Plus one streaming evolve multiply per iteration.
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let p = class::ft_params(class);
    let nt = p.ntotal() as f64;
    let ffts = p.niter as f64 + 1.0;
    let lg = nt.log2();
    let fft_flops = 5.0 * nt * lg;
    let array_bytes = nt * 16.0;
    WorkloadProfile {
        bench: BenchmarkId::Ft,
        class,
        total_ops: mops::total_ops(BenchmarkId::Ft, class),
        phases: vec![
            PhaseProfile {
                name: "fft-x",
                instructions: ffts * fft_flops / 3.0 * 1.4,
                flops: ffts * fft_flops / 3.0,
                mem_refs: ffts * nt * 2.0 * 2.0, // complex load+store per pass
                elem_bytes: 16,
                working_set_bytes: array_bytes,
                pattern: AccessPattern::Streaming,
                ws_partitioned: true,
                vectorizable: 0.85,
                branch_rate: 0.03,
                branch_misrate: 0.02,
            },
            PhaseProfile {
                name: "fft-yz-transpose",
                instructions: ffts * 2.0 * fft_flops / 3.0 * 1.4,
                flops: ffts * 2.0 * fft_flops / 3.0,
                mem_refs: ffts * nt * 4.0 * 2.0,
                elem_bytes: 16,
                working_set_bytes: 2.0 * array_bytes,
                pattern: AccessPattern::Strided {
                    stride_bytes: (16 * p.nx).min(u32::MAX as usize) as u32,
                },
                ws_partitioned: true,
                vectorizable: 0.80,
                branch_rate: 0.03,
                branch_misrate: 0.02,
            },
            PhaseProfile {
                name: "evolve",
                instructions: p.niter as f64 * nt * 8.0,
                flops: p.niter as f64 * nt * 4.0,
                mem_refs: p.niter as f64 * nt * 3.0,
                elem_bytes: 16,
                working_set_bytes: 2.5 * array_bytes,
                pattern: AccessPattern::Streaming,
                ws_partitioned: true,
                vectorizable: 0.95,
                branch_rate: 0.01,
                branch_misrate: 0.01,
            },
        ],
        barriers: ffts * 3.0 + p.niter as f64 * 2.0,
        imbalance: 1.03,
        parallel_fraction: 0.995,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm_sq(v: &C64) -> f64 {
        v.re * v.re + v.im * v.im
    }

    fn plan_pair(n: usize) -> (FftPlan, Vec<C64>, Vec<C64>) {
        (
            FftPlan::new(n),
            vec![C64::default(); n],
            vec![C64::default(); n],
        )
    }

    #[test]
    fn fft_of_delta_is_flat() {
        let (plan, mut x, mut y) = plan_pair(16);
        x[0] = C64::new(1.0, 0.0);
        fft_1d(&plan, &mut x, &mut y, false);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn fft_roundtrip_recovers_input() {
        let n = 64;
        let (plan, mut x, mut y) = plan_pair(n);
        let orig: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        x.copy_from_slice(&orig);
        fft_1d(&plan, &mut x, &mut y, false);
        fft_1d(&plan, &mut x, &mut y, true);
        for (a, b) in x.iter().zip(&orig) {
            // Unnormalized: roundtrip scales by n.
            assert!((a.re / n as f64 - b.re).abs() < 1e-10);
            assert!((a.im / n as f64 - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_satisfies_parseval() {
        let n = 128;
        let (plan, mut x, mut y) = plan_pair(n);
        let orig: Vec<C64> = (0..n)
            .map(|i| C64::new(((i * 7) % 13) as f64 / 13.0, ((i * 5) % 11) as f64 / 11.0))
            .collect();
        x.copy_from_slice(&orig);
        let time_energy: f64 = orig.iter().map(norm_sq).sum();
        fft_1d(&plan, &mut x, &mut y, false);
        let freq_energy: f64 = x.iter().map(norm_sq).sum();
        assert!(
            (freq_energy / n as f64 - time_energy).abs() < 1e-9 * time_energy,
            "Parseval violated: {} vs {}",
            freq_energy / n as f64,
            time_energy
        );
    }

    #[test]
    fn fft_of_single_tone_peaks_at_its_frequency() {
        let n = 32;
        let k0 = 5usize;
        let (plan, mut x, mut y) = plan_pair(n);
        // With e^{-2πi·ki/n} forward twiddles, the tone e^{+2πi·k0·i/n}
        // lands its full energy in bin k0.
        for (i, v) in x.iter_mut().enumerate() {
            *v = C64::expi(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64);
        }
        fft_1d(&plan, &mut x, &mut y, false);
        for (k, v) in x.iter().enumerate() {
            let mag = norm_sq(v).sqrt();
            if k == k0 {
                assert!((mag - n as f64).abs() < 1e-9, "peak {mag} at {k}");
            } else {
                assert!(mag < 1e-9, "leakage {mag} at {k}");
            }
        }
    }

    /// Reproducible field values in (−0.5, 0.5).
    fn noise(len: usize) -> Vec<C64> {
        let (mut buf, mut seed) = (vec![0.0f64; 2 * len], SEED);
        vranlc(&mut seed, AMULT, &mut buf);
        buf.chunks_exact(2)
            .map(|ri| C64::new(ri[0] - 0.5, ri[1] - 0.5))
            .collect()
    }

    fn assert_same_bits(got: &[C64], want: &[C64], what: &str) {
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what}: element {k} is {g:?}, one-pencil reference {w:?}"
            );
        }
    }

    /// The transform along the axis whose points are `stride` apart, one
    /// pencil at a time through `fft_1d` — the port before blocking.
    fn fft_axis_by_pencils(field: &mut [C64], n: usize, stride: usize, inverse: bool) {
        let (plan, mut pencil, mut scratch) = plan_pair(n);
        for start in (0..field.len()).filter(|i| (i / stride).is_multiple_of(n)) {
            for (k, v) in pencil.iter_mut().enumerate() {
                *v = field[start + k * stride];
            }
            fft_1d(&plan, &mut pencil, &mut scratch, inverse);
            for (k, v) in pencil.iter().enumerate() {
                field[start + k * stride] = *v;
            }
        }
    }

    #[test]
    fn blocked_pencils_match_one_pencil_transforms_bit_for_bit() {
        // Narrower than a block, exactly one, one and a half, two and a half.
        for width in [8, FFT_BLOCK, 24, 40] {
            for n in [2, 16, 64] {
                for inverse in [false, true] {
                    let orig = noise(n * width);
                    let mut want = orig.clone();
                    fft_axis_by_pencils(&mut want, n, width, inverse);
                    let mut got = orig.clone();
                    let mut rows: Vec<&mut [C64]> = got.chunks_exact_mut(width).collect();
                    let mut block = vec![C64::default(); n * FFT_BLOCK];
                    let mut scratch = block.clone();
                    fft_across(
                        &FftPlan::new(n),
                        &mut rows,
                        &mut block,
                        &mut scratch,
                        inverse,
                    );
                    let what = format!("{width} pencils of {n}, inverse {inverse}");
                    assert_same_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn fft3d_matches_one_pencil_transforms_bit_for_bit() {
        for (nx, ny, nz) in [(8, 4, 16), (16, 32, 2), (32, 8, 8)] {
            let p = FtParams {
                nx,
                ny,
                nz,
                niter: 1,
            };
            let plans = [FftPlan::new(nx), FftPlan::new(ny), FftPlan::new(nz)];
            let src = noise(p.ntotal());
            for inverse in [false, true] {
                let mut want = src.clone();
                fft_axis_by_pencils(&mut want, nx, 1, inverse);
                fft_axis_by_pencils(&mut want, ny, nx, inverse);
                fft_axis_by_pencils(&mut want, nz, nx * ny, inverse);
                for nt in 1..=3 {
                    let mut got = vec![C64::default(); p.ntotal()];
                    fft3d_outer(&plans, p, &src, &mut got, inverse, &Pool::new(nt));
                    let what = format!("{nx}x{ny}x{nz}, inverse {inverse}, {nt} threads");
                    assert_same_bits(&got, &want, &what);
                }
            }
        }
    }

    /// First and last checksum of the one-pencil port (the commit before the
    /// blocked passes); no pencil's arithmetic depends on the team size.
    #[test]
    fn checksums_are_pinned_to_the_one_pencil_ports_bits() {
        type Bits = (u64, u64);
        let pins: [(Class, Bits, Bits); 3] = [
            (
                Class::T,
                (0x4080_ce4f_b329_c46c, 0x4082_da3a_f91d_0bb3),
                (0x4080_c0d2_4d62_c68d, 0x4082_c3d7_76b2_31a7),
            ),
            (
                Class::S,
                (0x4081_54de_9e5d_a880, 0x407e_4894_d21e_8349),
                (0x4081_5225_9010_e296, 0x407e_d427_d4df_00ec),
            ),
            (
                Class::W,
                (0x4081_bae3_c635_1819, 0x4080_8a98_f467_f162),
                (0x4081_3353_e9e3_e201, 0x4080_5f5e_ab0f_5eac),
            ),
        ];
        for (class, first, last) in pins {
            for nt in 1..=3 {
                let sums = compute(class, &Pool::new(nt)).checksums;
                let bits = |c: &C64| (c.re.to_bits(), c.im.to_bits());
                let got = (bits(&sums[0]), bits(sums.last().unwrap()));
                assert!(
                    got == (first, last),
                    "FT {} on {nt} threads: checksum bits {got:#x?}, pinned {:#x?}",
                    class.name(),
                    (first, last)
                );
            }
        }
    }

    #[test]
    fn initial_conditions_are_thread_invariant() {
        let p = class::ft_params(Class::T);
        let mut f1 = vec![C64::default(); p.ntotal()];
        let mut f3 = vec![C64::default(); p.ntotal()];
        initial_conditions(&mut f1, p, &Pool::new(1));
        initial_conditions(&mut f3, p, &Pool::new(3));
        assert_eq!(f1, f3);
    }

    #[test]
    fn checksums_are_thread_count_stable() {
        let base = compute(Class::T, &Pool::new(1));
        let par = compute(Class::T, &Pool::new(4));
        for (a, b) in base.checksums.iter().zip(&par.checksums) {
            assert!((a.re - b.re).abs() < 1e-9, "{a:?} vs {b:?}");
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn checksum_magnitudes_decay_monotonically() {
        // The evolve step damps the spectrum: |checksum| decreases.
        let out = compute(Class::T, &Pool::new(2));
        let mags: Vec<f64> = out.checksums.iter().map(|c| norm_sq(c).sqrt()).collect();
        for w in mags.windows(2) {
            assert!(w[1] < w[0] * 1.000001, "not decaying: {mags:?}");
        }
    }

    #[test]
    fn class_t_checksum_is_pinned() {
        let out = compute(Class::T, &Pool::new(2));
        let last = *out.checksums.last().unwrap();
        assert!(
            (last.re - 5.361026866643e2).abs() < 1e-6,
            "re = {:.12e}",
            last.re
        );
        assert!(
            (last.im - 6.004802068635e2).abs() < 1e-6,
            "im = {:.12e}",
            last.im
        );
    }

    #[test]
    fn run_reports_pass_for_class_t() {
        let pool = Pool::new(2);
        let r = Ft.run(Class::T, &pool);
        assert!(r.verified.passed(), "{:?}", r.verified);
        assert!(r.mops > 0.0);
    }
}
