//! CG — the Conjugate Gradient kernel.
//!
//! Estimates the largest eigenvalue of a sparse symmetric positive-definite
//! matrix by inverse power iteration, each step solving `A z = x` with 25
//! un-preconditioned conjugate-gradient iterations. The matrix has a
//! random pattern (`nonzer` entries per generated outer-product vector)
//! with a geometric (power-law) eigenvalue distribution of condition 0.1.
//!
//! The SpMV's `x[colidx[k]]` gathers are the irregular access the paper
//! leans on twice: CG stalls ~37% of cycles on memory (Table 1), and its
//! *vectorised* gathers are ~3× slower than scalar code on the SG2044 —
//! the paper's §6 anomaly.
//!
//! Port of NPB 3.4 `CG/cg.f`: same generator consumption order in `makea`
//! (`sprnvc`/`vecset`), same outer-product assembly with the
//! `rcond − shift` diagonal, same 25-step `conj_grad`, same zeta update and
//! verification constants.

use rvhpc_parallel::{Pool, SyncSlice, TeamChunks};

use crate::common::class::{self, CgParams, Class};
use crate::common::mops;
use crate::common::randdp::{randlc, A as AMULT};
use crate::common::result::{BenchResult, Provenance, VerifyStatus};
use crate::common::timers::Timers;
use crate::common::verify;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// CG inner iterations per outer step (NPB's `cgitmax`).
const CGIT_MAX: usize = 25;
/// Condition-number parameter (NPB's `rcond`).
const RCOND: f64 = 0.1;

/// The CG benchmark.
pub(crate) struct Cg;

/// Sparse matrix in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Row start offsets (`n + 1` entries).
    pub rowstr: Vec<usize>,
    /// Column indices, row-major.
    pub colidx: Vec<u32>,
    /// Values, parallel to `colidx`.
    pub a: Vec<f64>,
    /// Matrix order.
    pub n: usize,
}

impl Csr {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.a.len()
    }

    /// `y = A x` (serial; the benchmark deals the rows to the team).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_rows(0..self.n, x, y);
    }

    /// Rows `rows` of `y = A x`, one element of `y` per row: each row's
    /// values and column indices are borrowed once, so the inner loop
    /// checks nothing but the gather from `x`.
    #[inline]
    fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        let bounds = self.rowstr[rows.start..=rows.end].windows(2);
        for (y, b) in y.iter_mut().zip(bounds) {
            let (a, col) = (&self.a[b[0]..b[1]], &self.colidx[b[0]..b[1]]);
            let mut sum = 0.0;
            for (a, &c) in a.iter().zip(col) {
                sum += a * x[c as usize];
            }
            *y = sum;
        }
    }
}

/// Generate one sparse random vector: `nz` distinct indices in `0..n` with
/// uniform values, consuming the shared generator exactly like `sprnvc`.
fn sprnvc(n: usize, nz: usize, nn1: usize, tran: &mut f64, v: &mut Vec<f64>, iv: &mut Vec<usize>) {
    v.clear();
    iv.clear();
    while iv.len() < nz {
        let vecelt = randlc(tran, AMULT);
        let vecloc = randlc(tran, AMULT);
        let i = (vecloc * nn1 as f64) as usize; // 0-based
        if i >= n {
            continue;
        }
        if iv.contains(&i) {
            continue;
        }
        v.push(vecelt);
        iv.push(i);
    }
}

/// Force element `i` to value `val` in the sparse vector (NPB `vecset`).
fn vecset(v: &mut Vec<f64>, iv: &mut Vec<usize>, i: usize, val: f64) {
    for (k, &idx) in iv.iter().enumerate() {
        if idx == i {
            v[k] = val;
            return;
        }
    }
    v.push(val);
    iv.push(i);
}

/// Build the CG matrix: `A = Σ_i s_i · x_i x_iᵀ + (rcond − shift)·I` with
/// geometrically decaying scales `s_i` (condition ≈ 1/rcond), assembled to
/// CSR with duplicates summed (NPB `makea` + `sparse`).
pub fn makea(params: CgParams) -> Csr {
    let n = params.na;
    let nonzer = params.nonzer;
    // nn1: smallest power of two >= n (NPB starts the doubling at 2).
    let mut nn1 = 2usize;
    while nn1 < n {
        nn1 *= 2;
    }

    // Generator state: NPB draws one value for the initial zeta before
    // makea consumes the stream.
    let mut tran = 314159265.0f64;
    let _zeta0 = randlc(&mut tran, AMULT);

    // Outer-product vectors.
    let mut rows: Vec<(Vec<f64>, Vec<usize>)> = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(nonzer + 1);
    let mut iv = Vec::with_capacity(nonzer + 1);
    for iouter in 0..n {
        sprnvc(n, nonzer, nn1, &mut tran, &mut v, &mut iv);
        vecset(&mut v, &mut iv, iouter, 0.5);
        rows.push((v.clone(), iv.clone()));
    }

    // Assemble triplets: scale_i grows geometrically from 1 to rcond...
    // (NPB: size starts at 1 and is multiplied by ratio = rcond^(1/n) after
    // each outer vector).
    let ratio = RCOND.powf(1.0 / n as f64);
    let mut size = 1.0f64;
    let mut triplets: Vec<(u32, u32, f64)> = Vec::new();
    for (vc, ivc) in &rows {
        for (j_pos, &j) in ivc.iter().enumerate() {
            let scale = size * vc[j_pos];
            for (k_pos, &jcol) in ivc.iter().enumerate() {
                let va = vc[k_pos] * scale;
                triplets.push((j as u32, jcol as u32, va));
            }
        }
        size *= ratio;
    }
    // Shifted diagonal.
    for i in 0..n {
        triplets.push((i as u32, i as u32, RCOND - params.shift));
    }

    // Sort + merge duplicates into CSR (same matrix as NPB's in-place
    // insertion assembly; summation order of duplicates may differ in the
    // last ulps, which the 1e-8 verification tolerance absorbs).
    triplets.sort_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
    let mut rowstr = vec![0usize; n + 1];
    let mut colidx: Vec<u32> = Vec::with_capacity(triplets.len() / 2);
    let mut a: Vec<f64> = Vec::with_capacity(triplets.len() / 2);
    let mut last: Option<(u32, u32)> = None;
    for &(r, c, val) in &triplets {
        if last == Some((r, c)) {
            *a.last_mut().expect("merge target exists") += val;
        } else {
            colidx.push(c);
            a.push(val);
            rowstr[r as usize + 1] += 1;
            last = Some((r, c));
        }
    }
    for i in 0..n {
        rowstr[i + 1] += rowstr[i];
    }
    Csr {
        rowstr,
        colidx,
        a,
        n,
    }
}

/// One `conj_grad` call: 25 CG steps on `A z = x` starting from `z = 0`.
/// Returns `(z, rnorm)` where `rnorm = ‖x − A z‖₂`.
struct CgWork {
    z: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
}

impl CgWork {
    fn new(n: usize) -> Self {
        Self {
            z: vec![0.0; n],
            r: vec![0.0; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
        }
    }
}

/// Team-parallel conjugate-gradient solve (the timed inner kernel).
fn conj_grad(mat: &Csr, x: &[f64], w: &mut CgWork, pool: &Pool) -> f64 {
    let n = mat.n;
    w.z.fill(0.0);
    w.q.fill(0.0);
    w.r.copy_from_slice(x);
    w.p.copy_from_slice(x);

    // r and q are only ever touched at a member's own rows: plain chunks.
    // p and z are also gathered from by every member's SpMV, so they are
    // shared; the rule for both is that a vector is written only at its
    // owner's static block, in a phase that barriers separate from every
    // phase that reads all of it, and that no view outlives its phase.
    let r = TeamChunks::new(pool, &mut w.r, 1, 0, n);
    let q = TeamChunks::new(pool, &mut w.q, 1, 0, n);
    let p = SyncSlice::new(&mut w.p);
    let z = SyncSlice::new(&mut w.z);
    let sums = pool.run(|team| {
        let my = team.static_range(0, n);
        let (_, r) = r.claim(team);
        let (_, q) = q.claim(team);
        // rho = r·r
        let local = team.phase("vector-ops", || r.iter().map(|ri| ri * ri).sum::<f64>());
        let mut rho = team.reduce_sum(local);
        for _ in 0..CGIT_MAX {
            // q = A p (the fused matrix traversal + x-gather loop: the
            // `spmv-stream` span also covers the profile's
            // `spmv-gather` phase — they are one loop at runtime).
            team.phase("spmv-stream", || {
                // SAFETY: nobody writes p between the barrier that ended
                // its last update and the one after this phase.
                mat.spmv_rows(my.clone(), unsafe { p.slice(0, n) }, q)
            });
            team.barrier();
            // d = p·q ; alpha = rho / d ; z += alpha p ; r -= alpha q ;
            // rho' = r·r
            // SAFETY: the block of p is ours and is not written before the
            // update below; the block of z is ours and nobody reads z
            // before the final SpMV.
            let (pm, zm) =
                unsafe { (p.slice(my.start, my.len()), z.slice_mut(my.start, my.len())) };
            let local = team.phase("vector-ops", || {
                pm.iter().zip(q.iter()).map(|(pi, qi)| pi * qi).sum::<f64>()
            });
            let alpha = rho / team.reduce_sum(local);
            let local = team.phase("vector-ops", || {
                let mut local = 0.0;
                for i in 0..my.len() {
                    zm[i] += alpha * pm[i];
                    r[i] -= alpha * q[i];
                    local += r[i] * r[i];
                }
                local
            });
            let rho_new = team.reduce_sum(local);
            let beta = rho_new / rho;
            rho = rho_new;
            // p = r + beta p
            team.phase("vector-ops", || {
                // SAFETY: the block is ours, `pm` is not used again, and
                // every SpMV read of p ended at the barrier after it.
                let pm = unsafe { p.slice_mut(my.start, my.len()) };
                for (pi, ri) in pm.iter_mut().zip(r.iter()) {
                    *pi = ri + beta * *pi;
                }
            });
            team.barrier();
        }
        // rnorm = ‖x − A z‖: reuse q for A z.
        team.phase("spmv-stream", || {
            // SAFETY: z's last update is behind the barrier that ended the
            // last step, and nothing writes it again.
            mat.spmv_rows(my.clone(), unsafe { z.slice(0, n) }, q)
        });
        let local = x[my.clone()]
            .iter()
            .zip(q.iter())
            .map(|(xi, qi)| (xi - qi) * (xi - qi))
            .sum::<f64>();
        team.reduce_sum(local)
    });
    sums[0].sqrt()
}

/// Raw outputs of a CG run.
#[derive(Debug, Clone)]
pub(crate) struct CgOutput {
    /// Final eigenvalue estimate.
    pub zeta: f64,
    /// Seconds in the timed section.
    pub timed_seconds: f64,
}

/// Run the full CG benchmark computation.
pub(crate) fn compute(params: CgParams, pool: &Pool) -> CgOutput {
    let mat = makea(params);
    let n = params.na;
    let mut w = CgWork::new(n);
    let mut x = vec![1.0f64; n];

    // One untimed feed-through iteration (NPB warms code and pages).
    let _ = conj_grad(&mat, &x, &mut w, pool);
    normalize_x(&mut x, &w.z, pool);
    x.fill(1.0);

    let mut zeta = 0.0;
    let mut timers = Timers::new(1);
    timers.start(0);
    for _ in 0..params.niter {
        conj_grad(&mat, &x, &mut w, pool);
        // zeta = shift + 1 / (x·z); then x = z/‖z‖.
        let (xz, zz) = dots(&x, &w.z, pool);
        zeta = params.shift + 1.0 / xz;
        let inv_norm = 1.0 / zz.sqrt();
        scale_into_x(&mut x, &w.z, inv_norm, pool);
    }
    timers.stop(0);
    CgOutput {
        zeta,
        timed_seconds: timers.read(0),
    }
}

/// `(x·z, z·z)` team-parallel dot products.
fn dots(x: &[f64], z: &[f64], pool: &Pool) -> (f64, f64) {
    let out = pool.run(|team| {
        let my = team.static_range(0, x.len());
        let mut xz = 0.0;
        let mut zz = 0.0;
        for i in my {
            xz += x[i] * z[i];
            zz += z[i] * z[i];
        }
        let v = team.reduce_f64_vec(&[xz, zz]);
        (v[0], v[1])
    });
    out[0]
}

/// `x = inv_norm · z` team-parallel.
fn scale_into_x(x: &mut [f64], z: &[f64], inv_norm: f64, pool: &Pool) {
    let n = x.len();
    let blocks = TeamChunks::new(pool, x, 1, 0, n);
    pool.run(|team| {
        let (first, mine) = blocks.claim(team);
        for (xi, zi) in mine.iter_mut().zip(&z[first..]) {
            *xi = inv_norm * zi;
        }
    });
}

/// Normalization used after the warm-up iteration.
fn normalize_x(x: &mut [f64], z: &[f64], pool: &Pool) {
    let (_, zz) = dots(x, z, pool);
    scale_into_x(x, z, 1.0 / zz.sqrt(), pool);
}

/// NPB-published zeta verification values (`cg.f`); `T` is self-referenced.
#[allow(clippy::excessive_precision)] // verification constants verbatim
fn reference_zeta(class: Class) -> Option<(f64, Provenance)> {
    match class {
        Class::T => Some((5.308822338297540, Provenance::SelfReference)),
        Class::S => Some((8.5971775078648, Provenance::NpbReference)),
        Class::W => Some((10.362595087124, Provenance::NpbReference)),
        Class::A => Some((17.130235054029, Provenance::NpbReference)),
        Class::B => Some((22.712745482631, Provenance::NpbReference)),
        Class::C => Some((28.973605592845, Provenance::NpbReference)),
    }
}

impl Benchmark for Cg {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let params = class::cg_params(class);
        let out = compute(params, pool);
        let verified = match reference_zeta(class) {
            Some((zref, prov)) => verify::check(out.zeta, zref, verify::EPSILON, prov),
            None => VerifyStatus::InvariantsHeld,
        };
        BenchResult {
            name: "CG",
            class,
            threads: pool.nthreads(),
            time_seconds: out.timed_seconds,
            mops: mops::mops(BenchmarkId::Cg, class, out.timed_seconds),
            verified,
            check_value: out.zeta,
        }
    }
}

/// Analytic workload profile.
///
/// Per inner CG step: the SpMV streams `nnz` (value, colidx) pairs and
/// gathers `x[col]` — split into a streaming phase (matrix traversal) and
/// an indirect phase (the gathers, the part whose RVV vectorisation is the
/// paper's anomaly) — plus ~5 streaming vector operations over `na`.
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let p = class::cg_params(class);
    let n = p.na as f64;
    // Stored nonzeros after dedupe: empirically ≈ 0.85·na·(nonzer+1)²
    // for these classes (cross-checked in tests against makea).
    let nnz = 0.85 * n * ((p.nonzer + 1) * (p.nonzer + 1)) as f64;
    // 26 SpMVs per conj_grad (25 CG steps + the rnorm check).
    let spmvs = p.niter as f64 * 26.0;
    let vec_sweeps = p.niter as f64 * (25.0 * 5.0 + 4.0);
    WorkloadProfile {
        bench: BenchmarkId::Cg,
        class,
        total_ops: mops::total_ops(BenchmarkId::Cg, class),
        phases: vec![
            PhaseProfile {
                name: "spmv-stream",
                instructions: spmvs * nnz * 4.0,
                flops: spmvs * nnz * 1.0,
                mem_refs: spmvs * nnz * 2.0, // a[k] + colidx[k]
                elem_bytes: 8,
                working_set_bytes: nnz * 12.0,
                pattern: AccessPattern::Streaming,
                ws_partitioned: true,
                vectorizable: 0.9,
                branch_rate: 0.06,
                branch_misrate: 0.05, // short, variable-length row loops
            },
            PhaseProfile {
                name: "spmv-gather",
                instructions: spmvs * nnz * 3.0,
                flops: spmvs * nnz * 1.0,
                mem_refs: spmvs * nnz * 1.0, // x[colidx[k]]
                elem_bytes: 8,
                working_set_bytes: n * 8.0,
                pattern: AccessPattern::Indirect,
                ws_partitioned: false, // every thread gathers the shared x
                vectorizable: 0.9,
                branch_rate: 0.08,
                branch_misrate: 0.05,
            },
            PhaseProfile {
                name: "vector-ops",
                instructions: vec_sweeps * n * 4.0,
                flops: vec_sweeps * n * 2.0,
                mem_refs: vec_sweeps * n * 2.0,
                elem_bytes: 8,
                working_set_bytes: 4.0 * n * 8.0,
                pattern: AccessPattern::Streaming,
                ws_partitioned: true,
                vectorizable: 0.95,
                branch_rate: 0.03,
                branch_misrate: 0.01,
            },
        ],
        // ~4 barriers per CG step + reduction barriers.
        barriers: p.niter as f64 * 25.0 * 6.0,
        imbalance: 1.05,
        parallel_fraction: 0.995,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CgParams {
        class::cg_params(Class::T)
    }

    #[test]
    fn matrix_is_square_with_positive_diagonal_dominance_shifted() {
        let mat = makea(tiny());
        assert_eq!(mat.rowstr.len(), mat.n + 1);
        assert_eq!(*mat.rowstr.last().unwrap(), mat.nnz());
        // Every row must contain its diagonal (vecset forces element i).
        for row in 0..mat.n {
            let has_diag =
                (mat.rowstr[row]..mat.rowstr[row + 1]).any(|k| mat.colidx[k] as usize == row);
            assert!(has_diag, "row {row} lost its diagonal");
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        // A = Σ s_i x_i x_iᵀ + c·I is symmetric by construction; the CSR
        // assembly must preserve that.
        let mat = makea(tiny());
        let mut entries = std::collections::HashMap::new();
        for row in 0..mat.n {
            for k in mat.rowstr[row]..mat.rowstr[row + 1] {
                entries.insert((row as u32, mat.colidx[k]), mat.a[k]);
            }
        }
        for (&(r, c), &v) in &entries {
            let vt = entries.get(&(c, r)).copied().unwrap_or(0.0);
            assert!(
                (v - vt).abs() <= 1e-12 * v.abs().max(1.0),
                "asymmetry at ({r},{c}): {v} vs {vt}"
            );
        }
    }

    #[test]
    fn columns_within_rows_are_sorted_and_unique() {
        let mat = makea(tiny());
        for row in 0..mat.n {
            let cols = &mat.colidx[mat.rowstr[row]..mat.rowstr[row + 1]];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {row}: {cols:?}");
        }
    }

    /// `y = A x` the way `conj_grad` computes it: each member its rows.
    fn team_spmv(mat: &Csr, x: &[f64], nthreads: usize) -> Vec<f64> {
        let mut y = vec![f64::NAN; mat.n];
        let pool = Pool::new(nthreads);
        let rows = TeamChunks::new(&pool, &mut y, 1, 0, mat.n);
        pool.run(|team| {
            let (first, mine) = rows.claim(team);
            mat.spmv_rows(first..first + mine.len(), x, mine);
        });
        y
    }

    /// The SpMV as it was written before the row views.
    fn spmv_indexed(mat: &Csr, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; mat.n];
        for row in 0..mat.n {
            let mut sum = 0.0;
            for k in mat.rowstr[row]..mat.rowstr[row + 1] {
                sum += mat.a[k] * x[mat.colidx[k] as usize];
            }
            y[row] = sum;
        }
        y
    }

    #[test]
    fn spmv_matches_the_indexed_reference_bit_for_bit() {
        // Rows of 0, 1, 2, 3 and 0 nonzeros, then the class T matrix.
        let short = Csr {
            rowstr: vec![0, 0, 1, 3, 6, 6],
            colidx: vec![4, 0, 2, 1, 3, 4],
            a: vec![0.3, -1.7, 0.9, 1e-3, 2.5, -0.1],
            n: 5,
        };
        for mat in [short, makea(tiny())] {
            let x: Vec<f64> = (0..mat.n).map(|i| (i as f64 * 0.37).sin()).collect();
            let want = spmv_indexed(&mat, &x);
            let mut serial = vec![f64::NAN; mat.n];
            mat.spmv(&x, &mut serial);
            let runs = (1..=3).map(|nt| (nt, team_spmv(&mat, &x, nt)));
            for (nt, got) in std::iter::once((0, serial)).chain(runs) {
                for (row, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        g.to_bits() == w.to_bits(),
                        "row {row} of {} on {nt} threads (0: `Csr::spmv`): {g:e} vs {w:e}",
                        mat.n
                    );
                }
            }
        }
    }

    /// `zeta` of the indexed port (the commit before the row views); the
    /// dot products add the members' partial sums in `tid` order, so the
    /// last bits depend on the team size and on nothing else.
    #[test]
    fn zeta_is_pinned_to_the_indexed_ports_bits() {
        let pins: [(Class, [u64; 3]); 3] = [
            (
                Class::T,
                [
                    0x4015_3c3b_ec4d_0c74,
                    0x4015_3c3b_ec4d_0c7a,
                    0x4015_3c3b_ec4d_0c7b,
                ],
            ),
            (
                Class::S,
                [
                    0x4021_31c1_4014_5f4d,
                    0x4021_31c1_4014_5f4c,
                    0x4021_31c1_4014_5f4d,
                ],
            ),
            (
                Class::W,
                [
                    0x4024_b9a6_1031_c698,
                    0x4024_b9a6_1031_c694,
                    0x4024_b9a6_1031_c696,
                ],
            ),
        ];
        verify::assert_pinned_bits("CG zeta", &pins, |class, pool| {
            compute(class::cg_params(class), pool).zeta
        });
    }

    #[test]
    fn zeta_is_thread_count_stable() {
        let base = compute(tiny(), &Pool::new(1));
        for nt in [2, 4] {
            let out = compute(tiny(), &Pool::new(nt));
            assert!(
                (out.zeta - base.zeta).abs() < 1e-9,
                "zeta differs at {nt} threads: {} vs {}",
                out.zeta,
                base.zeta
            );
        }
    }

    #[test]
    fn class_t_zeta_is_pinned() {
        let out = compute(tiny(), &Pool::new(2));
        #[allow(clippy::excessive_precision)]
        let golden = 5.308822338297540f64;
        assert!((out.zeta - golden).abs() < 1e-7, "zeta = {:.15}", out.zeta);
    }

    #[test]
    fn residual_is_small() {
        let params = tiny();
        let mat = makea(params);
        let mut w = CgWork::new(params.na);
        let x = vec![1.0f64; params.na];
        let rnorm = conj_grad(&mat, &x, &mut w, &Pool::new(2));
        assert!(rnorm < 1e-8, "rnorm {rnorm}");
    }

    #[test]
    fn class_s_zeta_matches_npb_reference() {
        let pool = Pool::new(2);
        let r = Cg.run(Class::S, &pool);
        assert!(
            r.verified.passed(),
            "zeta = {:.13} ({:?})",
            r.check_value,
            r.verified
        );
    }

    #[test]
    fn nnz_estimate_in_profile_tracks_makea() {
        for class in [Class::T, Class::S] {
            let p = class::cg_params(class);
            let actual = makea(p).nnz() as f64;
            let est = 0.85 * p.na as f64 * ((p.nonzer + 1) * (p.nonzer + 1)) as f64;
            let ratio = actual / est;
            assert!(
                (0.6..1.4).contains(&ratio),
                "class {class:?}: nnz {actual} vs estimate {est}"
            );
        }
    }
}
