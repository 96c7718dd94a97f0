//! BT — the Block Tridiagonal pseudo-application.
//!
//! Marches the 3-D compressible Navier–Stokes equations with the
//! Beam–Warming approximate factorization: each time step solves one
//! block-tridiagonal system (5×5 blocks) per grid line in each of the
//! three directions, then adds the increment to the solution
//! (NPB `adi`: `compute_rhs` → `x_solve` → `y_solve` → `z_solve` → `add`).
//!
//! Structure follows NPB 3.4 `BT/`: the left-hand-side blocks combine the
//! inviscid flux Jacobian, the viscous Jacobian and the second-difference
//! dissipation ([`crate::cfd::jacobians`]), and the line solves use the
//! same `binvcrhs`/`matmul_sub` Gauss–Jordan kernel. Verification is
//! self-referenced (golden residual/error norms) plus stability
//! invariants — see DESIGN.md §2.

use rvhpc_parallel::{Pool, SyncSlice};

use crate::cfd::constants::CfdConstants;
use crate::cfd::fields::Fields;
use crate::cfd::jacobians::{flux_jacobian, viscous_jacobian};
use crate::cfd::matrix5::{binvcrhs, binvrhs, matmul_sub, matvec_sub, Mat5, Vec5, IDENTITY};
use crate::cfd::norms::{error_norm, norm_scalar, rhs_norm};
use crate::cfd::rhs::{add_update, compute_forcing, compute_rhs, scale_rhs_by_dt, Direction};
use crate::common::class::{self, Class};
use crate::common::mops;
use crate::common::result::{BenchResult, Provenance, VerifyStatus};
use crate::common::timers::Timers;
use crate::common::verify;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// The BT benchmark.
pub(crate) struct Bt;

/// Raw outputs of a pseudo-application run (shared by BT/SP/LU).
#[derive(Debug, Clone)]
pub(crate) struct AppOutput {
    /// Σ of the five RMS residual components after the final step.
    pub rhs_norm: f64,
    /// Σ of the five RMS solution-error components after the final step.
    pub error_norm: f64,
    /// Initial error norm (for the convergence invariant).
    pub initial_error: f64,
    /// Seconds in the timed section.
    pub timed_seconds: f64,
}

/// One ADI line solve along `dir` for every line in the grid.
///
/// For each line, builds the block-tridiagonal system with
/// `aa = −dt·t2·A_{p−1} − dt·t1·N_{p−1} − dt·t1·d·I`,
/// `bb = I + 2dt·t1·N_p + 2dt·t1·d·I`,
/// `cc = dt·t2·A_{p+1} − dt·t1·N_{p+1} − dt·t1·d·I`
/// and solves it with the Thomas algorithm over 5×5 blocks. Boundary
/// increments are zero (Dirichlet).
fn line_solve(f: &mut Fields, c: &CfdConstants, dir: Direction, pool: &Pool) {
    let n = f.n;
    let s = dir.stride(n);
    let (t1, t2) = (c.tx1, c.tx2); // isotropic cube: same metrics each dir
    let dcoef = match dir {
        Direction::X => c.dx,
        Direction::Y => c.dy,
        Direction::Z => c.dz,
    };
    let dt = c.dt;
    let (tmp1, tmp2) = (dt * t1, dt * t2);

    let uf = f.u.flat();
    let rhs = SyncSlice::new(f.rhs.flat_mut());

    pool.run(|team| {
        // Per-thread line scratch.
        let mut fjac: Vec<Mat5> = vec![IDENTITY; n];
        let mut njac: Vec<Mat5> = vec![IDENTITY; n];
        let mut cc_row: Vec<Mat5> = vec![IDENTITY; n];
        let mut rr: Vec<Vec5> = vec![[0.0; 5]; n];

        // Lines are enumerated by (slow, fast) transverse coordinates;
        // parallelizing over `slow` gives each thread whole planes of
        // independent lines.
        team.phase("block-line-solves", || {
            team.for_static(1, n - 1, |slow| {
                for fast in 1..n - 1 {
                    // Flat index of the line's pos = 0 point.
                    let base = match dir {
                        // X line at (j = fast, k = slow).
                        Direction::X => (slow * n + fast) * n,
                        // Y line at (i = fast, k = slow).
                        Direction::Y => slow * n * n + fast,
                        // Z line at (i = fast, j = slow).
                        Direction::Z => slow * n + fast,
                    };
                    // Jacobians along the line.
                    for pos in 0..n {
                        let p = base + pos * s;
                        let ub = &uf[p * 5..p * 5 + 5];
                        fjac[pos] = flux_jacobian(ub, dir, c);
                        njac[pos] = viscous_jacobian(ub, dir, c);
                    }
                    // Load the line's rhs.
                    for pos in 0..n {
                        let p = base + pos * s;
                        for m in 0..5 {
                            // SAFETY: this line is exclusively ours.
                            rr[pos][m] = unsafe { rhs.get(p * 5 + m) };
                        }
                    }
                    // Thomas forward sweep over interior positions.
                    for pos in 1..n - 1 {
                        let mut aa = [[0.0f64; 5]; 5];
                        for i in 0..5 {
                            for j in 0..5 {
                                aa[i][j] = -tmp2 * fjac[pos - 1][i][j] - tmp1 * njac[pos - 1][i][j];
                            }
                            aa[i][i] -= tmp1 * dcoef;
                        }
                        let mut bb = [[0.0f64; 5]; 5];
                        for i in 0..5 {
                            for j in 0..5 {
                                bb[i][j] = 2.0 * tmp1 * njac[pos][i][j];
                            }
                            bb[i][i] += 1.0 + 2.0 * tmp1 * dcoef;
                        }
                        let mut cc = [[0.0f64; 5]; 5];
                        for i in 0..5 {
                            for j in 0..5 {
                                cc[i][j] = tmp2 * fjac[pos + 1][i][j] - tmp1 * njac[pos + 1][i][j];
                            }
                            cc[i][i] -= tmp1 * dcoef;
                        }
                        if pos > 1 {
                            // Eliminate the sub-diagonal.
                            let c_prev = cc_row[pos - 1];
                            let r_prev = rr[pos - 1];
                            matmul_sub(&aa, &c_prev, &mut bb);
                            matvec_sub(&aa, &r_prev, &mut rr[pos]);
                        }
                        let mut r = rr[pos];
                        if pos < n - 2 {
                            binvcrhs(&mut bb, &mut cc, &mut r);
                            cc_row[pos] = cc;
                        } else {
                            binvrhs(&mut bb, &mut r);
                        }
                        rr[pos] = r;
                    }
                    // Back substitution.
                    for pos in (1..n - 2).rev() {
                        let r_next = rr[pos + 1];
                        matvec_sub(&cc_row[pos], &r_next, &mut rr[pos]);
                    }
                    // Store the increments back.
                    for pos in 1..n - 1 {
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

/// One full ADI time step (NPB `adi`).
pub(crate) fn adi_step(f: &mut Fields, c: &CfdConstants, pool: &Pool) {
    f.compute_aux(pool);
    compute_rhs(f, c, pool);
    scale_rhs_by_dt(f, c, pool);
    line_solve(f, c, Direction::X, pool);
    line_solve(f, c, Direction::Y, pool);
    line_solve(f, c, Direction::Z, pool);
    add_update(f, 1.0, pool);
}

/// Run the full BT benchmark computation.
pub(crate) fn compute(class: Class, pool: &Pool) -> AppOutput {
    let p = class::bt_params(class);
    let n = p.problem_size;
    let c = CfdConstants::new(n, p.dt);
    let mut f = Fields::new(n);
    f.initialize(&c, pool);
    compute_forcing(&mut f, &c, pool);
    let initial_error = norm_scalar(&error_norm(&f, &c, pool));

    // One untimed step (NPB warms the code paths), then reinitialize.
    adi_step(&mut f, &c, pool);
    f.initialize(&c, pool);

    let mut timers = Timers::new(1);
    timers.start(0);
    for _ in 0..p.niter {
        adi_step(&mut f, &c, pool);
    }
    timers.stop(0);

    // Final residual (fresh rhs evaluation, as NPB verify does).
    f.compute_aux(pool);
    compute_rhs(&mut f, &c, pool);
    let rn = norm_scalar(&rhs_norm(&f, pool));
    let en = norm_scalar(&error_norm(&f, &c, pool));
    AppOutput {
        rhs_norm: rn,
        error_norm: en,
        initial_error,
        timed_seconds: timers.read(0),
    }
}

/// Self-referenced golden norms per class (`(rhs_norm, error_norm)`).
fn reference(class: Class) -> Option<(f64, f64)> {
    match class {
        Class::T => Some((5.924176979031e1, 2.290099359540e0)),
        Class::S => Some((4.362464918601e-1, 1.601685561202e-3)),
        _ => None,
    }
}

impl Benchmark for Bt {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let out = compute(class, pool);
        let verified = verify_app(&out, reference(class));
        BenchResult {
            name: "BT",
            class,
            threads: pool.nthreads(),
            time_seconds: out.timed_seconds,
            mops: mops::mops(BenchmarkId::Bt, class, out.timed_seconds),
            verified,
            check_value: out.error_norm,
        }
    }
}

/// Shared verification logic for the pseudo-applications: pinned golden
/// norms where recorded, stability invariants otherwise.
pub(crate) fn verify_app(out: &AppOutput, reference: Option<(f64, f64)>) -> VerifyStatus {
    match reference {
        Some((rref, eref)) => {
            let vr = verify::check(out.rhs_norm, rref, 1e-6, Provenance::SelfReference);
            let ve = verify::check(out.error_norm, eref, 1e-6, Provenance::SelfReference);
            if vr.passed() && ve.passed() {
                vr
            } else if vr.passed() {
                ve
            } else {
                vr
            }
        }
        None => {
            // Invariants: the march must be stable (finite) and must not
            // amplify the initial error.
            let ok = out.error_norm.is_finite()
                && out.rhs_norm.is_finite()
                && out.error_norm < out.initial_error;
            if ok {
                VerifyStatus::InvariantsHeld
            } else {
                VerifyStatus::Failed {
                    provenance: Provenance::InvariantOnly,
                    computed: out.error_norm,
                    reference: out.initial_error,
                }
            }
        }
    }
}

/// Analytic workload profile.
///
/// Per step: one RHS evaluation (stencil sweeps) and three line-solve
/// sweeps; each line solve builds two 5×5 Jacobians per point and runs a
/// blocked Thomas elimination (~900 flops/point) — compute-dense, which is
/// why BT has the lowest memory stall rate of the three
/// pseudo-applications (paper Table 1: 8% cache, 9% DDR).
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let p = class::bt_params(class);
    let n3 = (p.problem_size as f64).powi(3);
    let steps = p.niter as f64;
    let solve_flops = steps * 3.0 * n3 * 900.0;
    let rhs_flops = steps * n3 * 350.0;
    let state_bytes = n3 * 5.0 * 8.0;
    WorkloadProfile {
        bench: BenchmarkId::Bt,
        class,
        total_ops: mops::total_ops(BenchmarkId::Bt, class),
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
                name: "block-line-solves",
                instructions: solve_flops * 1.4,
                flops: solve_flops,
                mem_refs: steps * 3.0 * n3 * 5.0 * 12.0,
                elem_bytes: 8,
                working_set_bytes: 2.0 * state_bytes,
                // y/z sweeps traverse at plane strides.
                pattern: AccessPattern::Strided {
                    stride_bytes: (p.problem_size * 40) as u32,
                },
                ws_partitioned: true,
                vectorizable: 0.55, // 5×5 kernels vectorise only partially
                branch_rate: 0.04,
                branch_misrate: 0.02,
            },
        ],
        barriers: steps * 7.0,
        imbalance: 1.05,
        parallel_fraction: 0.99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::verify::assert_pinned_bits;

    #[test]
    fn repeated_steps_reduce_error() {
        let pool = Pool::new(2);
        let p = class::bt_params(Class::T);
        let c = CfdConstants::new(p.problem_size, p.dt);
        let mut f = Fields::new(p.problem_size);
        f.initialize(&c, &pool);
        compute_forcing(&mut f, &c, &pool);
        let e0 = norm_scalar(&error_norm(&f, &c, &pool));
        for _ in 0..5 {
            adi_step(&mut f, &c, &pool);
        }
        let e1 = norm_scalar(&error_norm(&f, &c, &pool));
        assert!(e1 < e0, "error did not decrease: {e0} -> {e1}");
        assert!(e1.is_finite());
    }

    #[test]
    fn march_is_stable_over_full_class_t() {
        let pool = Pool::new(2);
        let out = compute(Class::T, &pool);
        assert!(out.error_norm.is_finite());
        assert!(out.rhs_norm.is_finite());
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

    /// `error_norm` as commit bb19309 computed it (`compute_rhs` as four regions and three sweeps): the fused operator may not move a bit.
    #[test]
    fn error_norm_is_pinned_to_the_previous_ports_bits() {
        let pins = [
            (
                Class::T,
                [
                    0x4002_521f_9cee_8440,
                    0x4002_521f_9cee_8440,
                    0x4002_521f_9cee_8440,
                ],
            ),
            (
                Class::S,
                [
                    0x3f5a_3df4_c6a5_4fcf,
                    0x3f5a_3df4_c6a5_4fd0,
                    0x3f5a_3df4_c6a5_4fd2,
                ],
            ),
        ];
        assert_pinned_bits("BT error_norm", &pins, |class, pool| {
            compute(class, pool).error_norm
        });
    }

    #[test]
    fn run_reports_pass_for_class_t() {
        let pool = Pool::new(2);
        let r = Bt.run(Class::T, &pool);
        assert!(r.verified.passed(), "{:?}", r.verified);
        assert!(r.mops > 0.0);
        assert_eq!(r.name, "BT");
    }
}
