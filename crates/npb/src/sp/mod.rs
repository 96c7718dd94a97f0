//! SP — the Scalar Pentadiagonal pseudo-application.
//!
//! Solves the same 3-D Navier–Stokes system as BT, but fully
//! *diagonalizes* the Beam–Warming factorization: each direction's block
//! system is transformed into characteristic variables (the eigenvector
//! bases of the inviscid flux Jacobians), leaving five independent
//! *scalar* pentadiagonal systems per grid line (pentadiagonal because the
//! fourth-order dissipation is kept in the left-hand side, unlike BT).
//! Three of the five share the eigenvalue `w` and therefore one left-hand
//! side, which is factored once (NPB's `lhs`, beside `lhsp` and `lhsm`).
//!
//! Structure follows NPB 3.4 `SP/` (`adi`: `compute_rhs` → per-direction
//! transform → scalar pentadiagonal solves → inverse transform → `add`),
//! with one documented difference: NPB fuses adjacent eigenvector products
//! into its `txinvr`/`ninvr`/`pinvr`/`tzetar` matrices; this port applies
//! `T_d⁻¹ … T_d` unfused per direction (numerically equivalent structure),
//! both in closed form (`EigenBasis`). The eigenvector construction is
//! validated in tests against the numerical flux Jacobian (`T Λ T⁻¹ = A`
//! to machine precision) and the closed forms against a pivoted solve of
//! the explicit matrix.

use std::sync::Mutex;

use rvhpc_parallel::{Pool, SyncSlice};

use crate::bt::{verify_app, AppOutput};
use crate::cfd::constants::CfdConstants;
use crate::cfd::fields::Fields;
#[cfg(test)]
use crate::cfd::matrix5::Mat5;
use crate::cfd::matrix5::Vec5;
use crate::cfd::norms::{error_norm, norm_scalar, rhs_norm};
use crate::cfd::rhs::{add_update, compute_forcing, compute_rhs, scale_rhs_by_dt, Direction};
use crate::common::class::{self, Class};
use crate::common::mops;
use crate::common::result::BenchResult;
use crate::common::timers::Timers;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// The SP benchmark.
pub(crate) struct Sp;

/// What the eigenvectors of all three flux Jacobians at one grid point are
/// made of: velocity, kinetic energy per unit mass and sound speed. The
/// total enthalpy is `q + a²/c2`.
#[derive(Debug, Clone, Copy, Default)]
struct EigenBasis {
    vel: [f64; 3],
    q: f64,
    a: f64,
}

impl EigenBasis {
    /// The basis at the conserved state `u`, with `rho_i = 1/u[0]`.
    #[inline]
    fn at(u: &[f64], rho_i: f64, c: &CfdConstants) -> Self {
        let vel = [u[1] * rho_i, u[2] * rho_i, u[3] * rho_i];
        let q = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let p = c.c2 * (u[4] - u[0] * q);
        let a = (c.c1 * p * rho_i).max(1e-30).sqrt();
        Self { vel, q, a }
    }

    /// Eigenvalues of `A_d` by multiplicity: `w` (three times), `w + a`
    /// and `w − a`.
    #[inline]
    fn speeds(&self, dir: Direction) -> [f64; 3] {
        let w = self.vel[dir.momentum() - 1];
        [w, w + self.a, w - self.a]
    }

    /// `r ← T_d⁻¹ r`: the left eigenvectors of `A_d` in closed form. With
    /// `S = x₃ + x₄` and `D = x₃ − x₄`, the rows of `T_d x = r` read
    /// `x₀ + S = r₀`, `x₁,₂ = r_t − v_t r₀`, `a D = r_d − w r₀` and
    /// `(h − q) S = r₄ + q r₀ − v·(r₁, r₂, r₃)`.
    #[inline]
    fn apply_inverse(&self, dir: Direction, c2: f64, r: &mut Vec5) {
        let d = dir.momentum();
        let (t1, t2) = dir.transverse();
        let Self { vel, q, a } = *self;
        let flux = vel[0] * r[1] + vel[1] * r[2] + vel[2] * r[3];
        let s = c2 * (r[4] + q * r[0] - flux) / (a * a);
        let diff = (r[d] - vel[d - 1] * r[0]) / a;
        *r = [
            r[0] - s,
            r[t1 + 1] - vel[t1] * r[0],
            r[t2 + 1] - vel[t2] * r[0],
            0.5 * (s + diff),
            0.5 * (s - diff),
        ];
    }

    /// `x ← T_d x`: back from characteristic to conserved variables.
    #[inline]
    fn apply_forward(&self, dir: Direction, c2: f64, x: &mut Vec5) {
        let d = dir.momentum();
        let (t1, t2) = dir.transverse();
        let Self { vel, q, a } = *self;
        let w = vel[d - 1];
        let h = q + a * a / c2;
        let (s, diff) = (x[3] + x[4], x[3] - x[4]);
        let rho = x[0] + s;
        let mut out = [0.0f64; 5];
        out[0] = rho;
        out[t1 + 1] = vel[t1] * rho + x[1];
        out[t2 + 1] = vel[t2] * rho + x[2];
        out[d] = w * rho + a * diff;
        out[4] = q * x[0] + vel[t1] * x[1] + vel[t2] * x[2] + h * s + w * a * diff;
        *x = out;
    }
}

/// Right eigenvector matrix `T_d` of the inviscid flux Jacobian `A_d`
/// (columns: entropy wave, two shear waves, and the two acoustic waves),
/// plus the eigenvalues `(w, w, w, w+a, w−a)`. The solver never forms it
/// (see `EigenBasis`); it is the definition the closed forms are tested
/// against.
#[cfg(test)]
pub(crate) fn eigen_decomposition(u: &[f64], dir: Direction, c: &CfdConstants) -> (Mat5, [f64; 5]) {
    let d = dir.momentum();
    let (t1, t2) = dir.transverse();
    let basis = EigenBasis::at(u, 1.0 / u[0], c);
    let EigenBasis { vel, q, a } = basis;
    let w = vel[d - 1];
    let h = q + a * a / c.c2; // total enthalpy

    let mut t = [[0.0f64; 5]; 5];
    // Column 0: entropy wave (speed w).
    t[0][0] = 1.0;
    t[1][0] = vel[0];
    t[2][0] = vel[1];
    t[3][0] = vel[2];
    t[4][0] = q;
    // Columns 1, 2: shear waves (speed w) along the transverse directions.
    t[t1 + 1][1] = 1.0;
    t[4][1] = vel[t1];
    t[t2 + 1][2] = 1.0;
    t[4][2] = vel[t2];
    // Column 3: acoustic wave (speed w + a).
    t[0][3] = 1.0;
    t[1][3] = vel[0];
    t[2][3] = vel[1];
    t[3][3] = vel[2];
    t[d][3] += a;
    t[4][3] = h + w * a;
    // Column 4: acoustic wave (speed w − a).
    t[0][4] = 1.0;
    t[1][4] = vel[0];
    t[2][4] = vel[1];
    t[3][4] = vel[2];
    t[d][4] -= a;
    t[4][4] = h - w * a;

    let [lw, lp, lm] = basis.speeds(dir);
    (t, [lw, lw, lw, lp, lm])
}

/// The characteristic components each of a line's three left-hand sides
/// solves for: the eigenvalue `w` carries three, `w + a` and `w − a` one
/// each.
const SYSTEM_COLS: [std::ops::Range<usize>; 3] = [0..3, 3..4, 4..5];

/// The scalar pentadiagonal solves of one line. `bands[pos][k]` is row
/// `pos` of left-hand side `k`, indexed `[l2, l1, diag, u1, u2]`; system
/// `k` is eliminated once and every multiplier applied to its components
/// `SYSTEM_COLS[k]` of `r`. Boundary unknowns (pos 0 and n−1) are pinned to
/// the identity.
///
/// Each elimination is a serial recurrence — divide, multiply-subtract,
/// divide, multiply-subtract per row, every step waiting on the last — and
/// the three are independent, so they advance together row by row (the
/// shape of NPB's `x_solve`) and overlap in the core. Every value sees the
/// operations of a one-system solve in the same order.
#[inline]
fn penta_solve3(bands: &mut [[[f64; 5]; 3]], r: &mut [Vec5]) {
    let n = bands.len();
    // Forward elimination: clear each row's l2 with row i−2, then its l1
    // with row i−1 (both already reduced to upper form).
    for i in 1..n {
        let (done, rest) = bands.split_at_mut(i);
        let (r_done, r_rest) = r.split_at_mut(i);
        // Band `l` of row i is cleared with the reduced row `i − back`.
        for (l, back) in [(0, 2), (1, 1)].into_iter().filter(|&(_, back)| back <= i) {
            let (prev, r_prev) = (&done[i - back], &r_done[i - back]);
            for (k, cols) in SYSTEM_COLS.into_iter().enumerate() {
                let (cur, prev) = (&mut rest[0][k], &prev[k]);
                let f = cur[l] / prev[2];
                if f != 0.0 {
                    cur[l + 1] -= f * prev[3];
                    cur[l + 2] -= f * prev[4];
                    for m in cols {
                        r_rest[0][m] -= f * r_prev[m];
                    }
                }
            }
        }
    }
    // Back substitution.
    for (k, cols) in SYSTEM_COLS.into_iter().enumerate() {
        for m in cols {
            r[n - 1][m] /= bands[n - 1][k][2];
            r[n - 2][m] = (r[n - 2][m] - bands[n - 2][k][3] * r[n - 1][m]) / bands[n - 2][k][2];
        }
    }
    for i in (0..n - 2).rev() {
        for (k, cols) in SYSTEM_COLS.into_iter().enumerate() {
            let b = bands[i][k];
            for m in cols {
                r[i][m] = (r[i][m] - b[3] * r[i + 1][m] - b[4] * r[i + 2][m]) / b[2];
            }
        }
    }
}

/// One team member's line buffers, kept across the regions of a run.
struct LineScratch {
    basis: Vec<EigenBasis>,
    /// The line's right-hand side, in characteristic variables.
    rr: Vec<Vec5>,
    /// Per position, the rows of the left-hand sides for the eigenvalues
    /// `w`, `w + a` and `w − a` (NPB's `lhs`, `lhsp`, `lhsm`).
    bands: Vec<[[f64; 5]; 3]>,
}

impl LineScratch {
    fn new(n: usize) -> Self {
        Self {
            basis: vec![EigenBasis::default(); n],
            rr: vec![[0.0; 5]; n],
            bands: vec![[[0.0; 5]; 3]; n],
        }
    }

    /// One slot per team member; a member locks its own once per region.
    fn per_member(n: usize, pool: &Pool) -> Vec<Mutex<Self>> {
        (0..pool.nthreads())
            .map(|_| Mutex::new(Self::new(n)))
            .collect()
    }
}

/// One diagonalized line solve along `dir`: transform, scalar
/// pentadiagonal solves (one factorization per distinct eigenvalue),
/// inverse transform.
fn diagonal_solve(
    f: &mut Fields,
    c: &CfdConstants,
    dir: Direction,
    scratch: &[Mutex<LineScratch>],
    pool: &Pool,
) {
    let n = f.n;
    let s = dir.stride(n);
    let (t1m, t2m) = (c.tx1, c.tx2);
    let dcoef = match dir {
        Direction::X => c.dx,
        Direction::Y => c.dy,
        Direction::Z => c.dz,
    };
    let dt = c.dt;
    let diss = c.dssp * dt; // fourth-difference lhs coefficient

    let uf = f.u.flat();
    let rho_if = f.rho_i.flat();
    let rhs = SyncSlice::new(f.rhs.flat_mut());

    pool.run(|team| {
        let mut scratch = scratch[team.tid()]
            .lock()
            .expect("no region panics while holding its line scratch");
        let LineScratch { basis, rr, bands } = &mut *scratch;

        team.phase("penta-line-solves", || {
            team.for_static(1, n - 1, |slow| {
                for fast in 1..n - 1 {
                    let base = match dir {
                        Direction::X => (slow * n + fast) * n,
                        Direction::Y => slow * n * n + fast,
                        Direction::Z => slow * n + fast,
                    };
                    // Per-point eigen systems and characteristic rhs.
                    for pos in 0..n {
                        let p = base + pos * s;
                        basis[pos] = EigenBasis::at(&uf[p * 5..p * 5 + 5], rho_if[p], c);
                        for m in 0..5 {
                            // SAFETY: this line is exclusively ours.
                            rr[pos][m] = unsafe { rhs.get(p * 5 + m) };
                        }
                        basis[pos].apply_inverse(dir, c.c2, &mut rr[pos]);
                    }
                    // The three left-hand sides differ in the eigenvalue only.
                    let identity = [[0.0, 0.0, 1.0, 0.0, 0.0]; 3];
                    bands[0] = identity;
                    bands[n - 1] = identity;
                    for pos in 1..n - 1 {
                        let p = base + pos * s;
                        // Viscous + second-difference diagonal weight
                        // (NPB's rhon/rhoq/rhos role).
                        let visc = |pp: usize| dcoef + c.con43 * c.c3c4 * rho_if[pp];
                        let (below, diag, above) = (
                            dt * t1m * visc(p - s),
                            1.0 + 2.0 * dt * t1m * visc(p),
                            dt * t1m * visc(p + s),
                        );
                        let lamm = basis[pos - 1].speeds(dir);
                        let lamp = basis[pos + 1].speeds(dir);
                        for (k, band) in bands[pos].iter_mut().enumerate() {
                            let mut b = [
                                0.0,
                                -dt * t2m * lamm[k] - below,
                                diag,
                                dt * t2m * lamp[k] - above,
                                0.0,
                            ];
                            // Fourth-order dissipation bands, boundary-adapted
                            // exactly like the rhs operator.
                            if pos == 1 {
                                b[2] += 5.0 * diss;
                                b[3] -= 4.0 * diss;
                                b[4] += diss;
                            } else if pos == 2 {
                                b[1] -= 4.0 * diss;
                                b[2] += 6.0 * diss;
                                b[3] -= 4.0 * diss;
                                b[4] += diss;
                            } else if pos == n - 3 {
                                b[0] += diss;
                                b[1] -= 4.0 * diss;
                                b[2] += 6.0 * diss;
                                b[3] -= 4.0 * diss;
                            } else if pos == n - 2 {
                                b[0] += diss;
                                b[1] -= 4.0 * diss;
                                b[2] += 5.0 * diss;
                            } else {
                                b[0] += diss;
                                b[1] -= 4.0 * diss;
                                b[2] += 6.0 * diss;
                                b[3] -= 4.0 * diss;
                                b[4] += diss;
                            }
                            *band = b;
                        }
                    }
                    penta_solve3(bands, rr);
                    // Inverse transform and store.
                    for pos in 1..n - 1 {
                        basis[pos].apply_forward(dir, c.c2, &mut rr[pos]);
                        let p = base + pos * s;
                        for m in 0..5 {
                            // SAFETY: this line is exclusively ours.
                            unsafe { rhs.set(p * 5 + m, rr[pos][m]) };
                        }
                    }
                }
            });
        });
    });
}

/// One diagonalized ADI time step (NPB SP `adi`).
fn adi_step(f: &mut Fields, c: &CfdConstants, scratch: &[Mutex<LineScratch>], pool: &Pool) {
    f.compute_aux(pool);
    compute_rhs(f, c, pool);
    scale_rhs_by_dt(f, c, pool);
    for dir in Direction::ALL {
        diagonal_solve(f, c, dir, scratch, pool);
    }
    add_update(f, 1.0, pool);
}

/// Run the full SP benchmark computation.
pub(crate) fn compute(class: Class, pool: &Pool) -> AppOutput {
    let p = class::sp_params(class);
    let n = p.problem_size;
    let c = CfdConstants::new(n, p.dt);
    let mut f = Fields::new(n);
    f.initialize(&c, pool);
    compute_forcing(&mut f, &c, pool);
    let initial_error = norm_scalar(&error_norm(&f, &c, pool));

    let scratch = LineScratch::per_member(n, pool);
    adi_step(&mut f, &c, &scratch, pool); // untimed warm-up
    f.initialize(&c, pool);

    let mut timers = Timers::new(1);
    timers.start(0);
    for _ in 0..p.niter {
        adi_step(&mut f, &c, &scratch, pool);
    }
    timers.stop(0);

    f.compute_aux(pool);
    compute_rhs(&mut f, &c, pool);
    AppOutput {
        rhs_norm: norm_scalar(&rhs_norm(&f, pool)),
        error_norm: norm_scalar(&error_norm(&f, &c, pool)),
        initial_error,
        timed_seconds: timers.read(0),
    }
}

/// Self-referenced golden norms per class (`(rhs_norm, error_norm)`).
fn reference(class: Class) -> Option<(f64, f64)> {
    match class {
        Class::T => Some((4.239471896139e-1, 1.666077750888e-2)),
        Class::S => Some((1.587829391993e0, 1.566834530790e-3)),
        _ => None,
    }
}

impl Benchmark for Sp {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let out = compute(class, pool);
        let verified = verify_app(&out, reference(class));
        BenchResult {
            name: "SP",
            class,
            threads: pool.nthreads(),
            time_seconds: out.timed_seconds,
            mops: mops::mops(BenchmarkId::Sp, class, out.timed_seconds),
            verified,
            check_value: out.error_norm,
        }
    }
}

/// Analytic workload profile.
///
/// SP trades BT's 5×5 block algebra for per-point eigen-transforms and
/// five scalar pentadiagonal sweeps: less compute per point, more passes
/// over memory — the highest memory-stall pseudo-application in the
/// paper's Table 1 (20% cache + 21% DDR stalls).
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let p = class::sp_params(class);
    let n3 = (p.problem_size as f64).powi(3);
    let steps = p.niter as f64;
    let solve_flops = steps * 3.0 * n3 * 420.0;
    let rhs_flops = steps * n3 * 350.0;
    let state_bytes = n3 * 5.0 * 8.0;
    WorkloadProfile {
        bench: BenchmarkId::Sp,
        class,
        total_ops: mops::total_ops(BenchmarkId::Sp, class),
        phases: vec![
            PhaseProfile {
                name: "rhs-stencil",
                instructions: rhs_flops * 1.6,
                flops: rhs_flops,
                mem_refs: steps * n3 * 5.0 * 14.0,
                elem_bytes: 8,
                working_set_bytes: 3.0 * state_bytes,
                pattern: AccessPattern::Streaming,
                ws_partitioned: true,
                vectorizable: 0.85,
                branch_rate: 0.03,
                branch_misrate: 0.02,
            },
            PhaseProfile {
                name: "penta-line-solves",
                instructions: solve_flops * 1.5,
                flops: solve_flops,
                mem_refs: steps * 3.0 * n3 * 5.0 * 9.0,
                elem_bytes: 8,
                working_set_bytes: 2.0 * state_bytes,
                pattern: AccessPattern::Strided {
                    stride_bytes: (p.problem_size * 40) as u32,
                },
                ws_partitioned: true,
                vectorizable: 0.60,
                branch_rate: 0.05,
                branch_misrate: 0.02,
            },
        ],
        barriers: steps * 7.0,
        imbalance: 1.05,
        parallel_fraction: 0.985,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::exact::exact_solution;
    use crate::cfd::jacobians::flux_jacobian;
    use crate::cfd::matrix5::solve5_pivot;
    use crate::cfd::random_states;
    use crate::common::verify::assert_pinned_bits;

    /// One left-hand side at a time, as the solver ran before the three
    /// were fused: scalar pentadiagonal solves along one line for the
    /// components `cols` of `r`. The oracle for `penta_solve3`.
    fn penta_solve(bands: &mut [[f64; 5]], r: &mut [Vec5], cols: std::ops::Range<usize>) {
        let n = bands.len();
        // Forward elimination: clear each row's l2 with row i−2, then its l1
        // with row i−1 (both already reduced to upper form).
        for i in 1..n {
            if i >= 2 {
                let f = bands[i][0] / bands[i - 2][2];
                if f != 0.0 {
                    bands[i][1] -= f * bands[i - 2][3];
                    bands[i][2] -= f * bands[i - 2][4];
                    for m in cols.clone() {
                        r[i][m] -= f * r[i - 2][m];
                    }
                }
            }
            let f = bands[i][1] / bands[i - 1][2];
            if f != 0.0 {
                bands[i][2] -= f * bands[i - 1][3];
                bands[i][3] -= f * bands[i - 1][4];
                for m in cols.clone() {
                    r[i][m] -= f * r[i - 1][m];
                }
            }
        }
        // Back substitution.
        for m in cols.clone() {
            r[n - 1][m] /= bands[n - 1][2];
            r[n - 2][m] = (r[n - 2][m] - bands[n - 2][3] * r[n - 1][m]) / bands[n - 2][2];
        }
        for i in (0..n - 2).rev() {
            for m in cols.clone() {
                r[i][m] =
                    (r[i][m] - bands[i][3] * r[i + 1][m] - bands[i][4] * r[i + 2][m]) / bands[i][2];
            }
        }
    }

    /// `T · x` with the explicit matrix.
    fn matvec(t: &Mat5, x: &Vec5) -> Vec5 {
        std::array::from_fn(|i| (0..5).map(|k| t[i][k] * x[k]).sum())
    }

    #[test]
    fn eigendecomposition_reconstructs_flux_jacobian() {
        // T Λ T⁻¹ must equal A_d exactly (the diagonalization SP rests on).
        let c = CfdConstants::new(12, 0.001);
        let u = exact_solution(0.35, 0.65, 0.15);
        let basis = EigenBasis::at(&u, 1.0 / u[0], &c);
        for dir in Direction::ALL {
            let a = flux_jacobian(&u, dir, &c);
            let (t, lam) = eigen_decomposition(&u, dir, &c);
            for col in 0..5 {
                let mut e = [0.0f64; 5];
                e[col] = 1.0;
                basis.apply_inverse(dir, c.c2, &mut e);
                for (xi, l) in e.iter_mut().zip(&lam) {
                    *xi *= l;
                }
                let e = matvec(&t, &e);
                for row in 0..5 {
                    assert!(
                        (e[row] - a[row][col]).abs() < 1e-9 * (1.0 + a[row][col].abs()),
                        "{dir:?}: (TΛT⁻¹)[{row}][{col}] = {} vs A = {}",
                        e[row],
                        a[row][col]
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_inverse_matches_the_pivoted_solve() {
        let c = CfdConstants::new(12, 0.001);
        for (u, r) in random_states(200) {
            let basis = EigenBasis::at(&u, 1.0 / u[0], &c);
            for dir in Direction::ALL {
                let (t, _) = eigen_decomposition(&u, dir, &c);
                let mut oracle = r;
                solve5_pivot(&mut t.clone(), &mut oracle);
                let mut x = r;
                basis.apply_inverse(dir, c.c2, &mut x);
                let scale = oracle.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for m in 0..5 {
                    assert!(
                        (x[m] - oracle[m]).abs() <= 1e-12 * scale,
                        "{dir:?} u={u:?}: x[{m}] = {} vs pivoted {}",
                        x[m],
                        oracle[m]
                    );
                }
            }
        }
    }

    #[test]
    fn transforms_round_trip_and_match_the_explicit_matrix() {
        let c = CfdConstants::new(12, 0.001);
        for (u, r) in random_states(200) {
            let basis = EigenBasis::at(&u, 1.0 / u[0], &c);
            let scale = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for dir in Direction::ALL {
                let (t, _) = eigen_decomposition(&u, dir, &c);
                // apply_forward is T: compare with the explicit product.
                let mut forward = r;
                basis.apply_forward(dir, c.c2, &mut forward);
                let explicit = matvec(&t, &r);
                let fscale = explicit.iter().fold(scale, |m, v| m.max(v.abs()));
                // T · T⁻¹ · r = r.
                let mut back = r;
                basis.apply_inverse(dir, c.c2, &mut back);
                basis.apply_forward(dir, c.c2, &mut back);
                for m in 0..5 {
                    assert!(
                        (forward[m] - explicit[m]).abs() <= 1e-12 * fscale,
                        "{dir:?}: (T r)[{m}] = {} vs {}",
                        forward[m],
                        explicit[m]
                    );
                    assert!(
                        (back[m] - r[m]).abs() <= 1e-12 * fscale,
                        "{dir:?}: (T T⁻¹ r)[{m}] = {} vs {}",
                        back[m],
                        r[m]
                    );
                }
            }
        }
    }

    /// A diagonally dominant pentadiagonal system in band and dense form;
    /// `salt` varies the entries.
    fn test_system(n: usize, salt: usize) -> (Vec<[f64; 5]>, Vec<Vec<f64>>) {
        let mut bands = vec![[0.0f64; 5]; n];
        let mut dense = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            if i == 0 || i == n - 1 {
                bands[i] = [0.0, 0.0, 1.0, 0.0, 0.0];
                dense[i][i] = 1.0;
                continue;
            }
            let v = |k: usize| 0.3 * (((i * 7 + k * 13 + salt * 5) % 11) as f64 / 11.0 - 0.5);
            let row = [v(0), v(1), 8.0 + v(2), v(3), v(4)];
            bands[i] = row;
            if i >= 2 {
                dense[i][i - 2] = row[0];
            }
            dense[i][i - 1] = row[1];
            dense[i][i] = row[2];
            dense[i][i + 1] = row[3];
            if i + 2 < n {
                dense[i][i + 2] = row[4];
            }
        }
        (bands, dense)
    }

    #[test]
    fn penta_solver_matches_dense_oracle() {
        let n = 12;
        let (mut bands, dense) = test_system(n, 0);
        let x_true: Vec<f64> = (0..n)
            .map(|i| {
                if i == 0 || i == n - 1 {
                    0.0
                } else {
                    (i as f64 * 0.7).sin()
                }
            })
            .collect();
        let mut r: Vec<Vec5> = (0..n)
            .map(|i| {
                let ri: f64 = (0..n).map(|j| dense[i][j] * x_true[j]).sum();
                [0.0, 0.0, ri, 0.0, 0.0]
            })
            .collect();
        penta_solve(&mut bands, &mut r, 2..3);
        for i in 1..n - 1 {
            assert!(
                (r[i][2] - x_true[i]).abs() < 1e-10,
                "x[{i}] = {} vs {}",
                r[i][2],
                x_true[i]
            );
            assert_eq!(r[i][0], 0.0, "components outside `cols` are untouched");
        }
    }

    #[test]
    fn shared_factorization_is_bit_identical_to_separate_solves() {
        let n = 17;
        let (bands, _) = test_system(n, 0);
        let rhs: Vec<Vec5> = random_states(n).into_iter().map(|(_, r)| r).collect();
        let mut shared = rhs.clone();
        penta_solve(&mut bands.clone(), &mut shared, 0..3);
        let mut separate = rhs.clone();
        for m in 0..3 {
            penta_solve(&mut bands.clone(), &mut separate, m..m + 1);
        }
        for i in 0..n {
            for m in 0..5 {
                assert_eq!(
                    shared[i][m].to_bits(),
                    separate[i][m].to_bits(),
                    "row {i}, component {m}"
                );
            }
            assert_eq!(shared[i][3..], rhs[i][3..], "components 3, 4 untouched");
        }
    }

    #[test]
    fn three_system_pass_is_bit_identical_to_three_solves() {
        // n = 5 has one row between the two boundary-adjacent ones; 36 is
        // class W's line.
        for n in [5, 8, 12, 36] {
            let systems: [Vec<[f64; 5]>; 3] = std::array::from_fn(|k| {
                let (mut bands, _) = test_system(n, k);
                // As the solver builds them: no l2 in rows 1 and 2, so the
                // skipped zero multipliers are exercised too.
                bands[1][0] = 0.0;
                bands[2][0] = 0.0;
                bands
            });
            let rhs: Vec<Vec5> = random_states(n).into_iter().map(|(_, r)| r).collect();

            let mut fused = rhs.clone();
            let mut interleaved: Vec<[[f64; 5]; 3]> = (0..n)
                .map(|i| std::array::from_fn(|k| systems[k][i]))
                .collect();
            penta_solve3(&mut interleaved, &mut fused);

            let mut separate = rhs;
            let mut reduced = systems;
            for (bands, cols) in reduced.iter_mut().zip(SYSTEM_COLS) {
                penta_solve(bands, &mut separate, cols);
            }
            for i in 0..n {
                for m in 0..5 {
                    assert_eq!(
                        fused[i][m].to_bits(),
                        separate[i][m].to_bits(),
                        "n = {n}: row {i}, component {m}"
                    );
                }
                for k in 0..3 {
                    assert_eq!(
                        interleaved[i][k], reduced[k][i],
                        "n = {n}: bands {k}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn march_reduces_error_and_stays_stable() {
        let pool = Pool::new(2);
        let out = compute(Class::T, &pool);
        assert!(out.error_norm.is_finite() && out.rhs_norm.is_finite());
        assert!(
            out.error_norm < out.initial_error,
            "error grew: {} -> {}",
            out.initial_error,
            out.error_norm
        );
    }

    #[test]
    fn result_is_thread_count_stable() {
        let base = compute(Class::T, &Pool::new(1));
        let par = compute(Class::T, &Pool::new(3));
        let rel = ((par.error_norm - base.error_norm) / base.error_norm).abs();
        assert!(rel < 1e-10, "error norm differs: rel {rel}");
    }

    #[test]
    fn class_t_norms_are_pinned() {
        let out = compute(Class::T, &Pool::new(2));
        let (rref, eref) = reference(Class::T).unwrap();
        assert!(
            ((out.rhs_norm - rref) / rref).abs() < 1e-6,
            "rhs_norm = {:.12e}",
            out.rhs_norm
        );
        assert!(
            ((out.error_norm - eref) / eref).abs() < 1e-6,
            "error_norm = {:.12e}",
            out.error_norm
        );
    }

    /// `error_norm` as commit bb19309 computed it (three pentadiagonal solves one after another, `compute_rhs` in three sweeps): the fused forms may not move a bit.
    #[test]
    fn error_norm_is_pinned_to_the_previous_ports_bits() {
        let pins = [
            (
                Class::T,
                [
                    0x3f91_0f85_da1b_3308,
                    0x3f91_0f85_da1b_3307,
                    0x3f91_0f85_da1b_3307,
                ],
            ),
            (
                Class::S,
                [
                    0x3f59_abc7_c459_e794,
                    0x3f59_abc7_c459_e794,
                    0x3f59_abc7_c459_e794,
                ],
            ),
        ];
        assert_pinned_bits("SP error_norm", &pins, |class, pool| {
            compute(class, pool).error_norm
        });
    }

    #[test]
    fn run_reports_pass_for_class_t() {
        let pool = Pool::new(2);
        let r = Sp.run(Class::T, &pool);
        assert!(r.verified.passed(), "{:?}", r.verified);
        assert!(r.mops > 0.0);
        assert_eq!(r.name, "SP");
    }
}
