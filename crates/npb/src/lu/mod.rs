//! LU — the Lower-Upper symmetric Gauss–Seidel pseudo-application.
//!
//! Marches the same 3-D Navier–Stokes system as BT/SP, but solves the
//! implicit system with SSOR: a regular-sparse block-lower-triangular
//! sweep followed by a block-upper-triangular sweep (5×5 blocks), with
//! relaxation factor ω = 1.2 (NPB `ssor`, `jacld`/`blts`, `jacu`/`buts`).
//!
//! The triangular sweeps carry a data dependence on the (i−1, j−1, k−1)
//! — respectively (i+1, j+1, k+1) — neighbours, so they are parallelized
//! over *hyperplanes* i+j+k = const (the formulation NPB ships as LU-HP);
//! every point within a hyperplane is independent. This gives LU by far
//! the highest synchronization density of the suite: one barrier per
//! hyperplane per sweep.
//!
//! Verification is self-referenced plus stability invariants (DESIGN.md
//! §2).

use rvhpc_parallel::{Pool, SyncSlice};

use crate::bt::{verify_app, AppOutput};
use crate::cfd::constants::CfdConstants;
use crate::cfd::fields::Fields;
use crate::cfd::jacobians::{flux_jacobian, viscous_jacobian};
use crate::cfd::matrix5::{Mat5, Vec5};
use crate::cfd::norms::{error_norm, norm_scalar, rhs_norm};
use crate::cfd::rhs::{add_update, compute_forcing, compute_rhs, scale_rhs_by_dt, Direction};
use crate::common::class::{self, Class};
use crate::common::mops;
use crate::common::result::BenchResult;
use crate::common::timers::Timers;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// SSOR relaxation factor (NPB `omega`).
const OMEGA: f64 = 1.2;

/// The LU benchmark.
pub(crate) struct Lu;

/// Interior points grouped by hyperplane `i + j + k = h`, as flat indices.
/// Hyperplane order is ascending; reversing gives the upper sweep order.
pub(crate) fn hyperplanes(n: usize) -> Vec<Vec<u32>> {
    let lo = 3; // smallest interior i+j+k (1+1+1)
    let hi = 3 * (n - 2); // largest
    let mut planes: Vec<Vec<u32>> = vec![Vec::new(); hi - lo + 1];
    for k in 1..n - 1 {
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                let h = i + j + k;
                planes[h - lo].push(((k * n + j) * n + i) as u32);
            }
        }
    }
    planes
}

/// The block-diagonal matrix `D` at a point (NPB `jacld`/`jacu` `d` block):
/// identity plus the time-step-scaled viscous Jacobians and
/// second-difference dissipation of all three directions.
///
/// Every viscous Jacobian is an *arrow* — a diagonal, column 0 and row 4 —
/// so `D` is one too, and these are its twelve structural entries; the
/// other thirteen are exact zeros. Row 0 of the Jacobians is zero, which
/// leaves `D[0][0]` the dissipation term alone.
struct ArrowD {
    /// `D[m][m]`.
    diag: [f64; 5],
    /// `D[m][0]` for the rows below the first, `m = 1..=4`.
    col0: [f64; 4],
    /// `D[4][m]` for the momentum columns, `m = 1..=3`.
    row4: [f64; 3],
}

impl ArrowD {
    /// Build `D` from the conserved state `ub` of the point. Each entry is
    /// the sum the dense form makes (`d_block` in the tests) — directions
    /// added X, Y, Z to a zero, then the diagonal term — of the products
    /// `viscous_jacobian` forms.
    #[inline]
    fn at(ub: &[f64], c: &CfdConstants) -> Self {
        let dt = c.dt;
        let dias = c.tx1 * c.dx + c.ty1 * c.dy + c.tz1 * c.dz;
        let t1 = 1.0 / ub[0];
        let t2 = t1 * t1;
        let t3 = t1 * t2;
        let (cn, cd, c1345) = (c.con43 * c.c3c4, c.c3c4, c.c1345);
        let mut d = ArrowD {
            diag: [0.0; 5],
            col0: [0.0; 4],
            row4: [0.0; 3],
        };
        for (dir, tdir) in [(1, c.tx1), (2, c.ty1), (3, c.tz1)] {
            let scale = 2.0 * dt * tdir;
            let coef = |m: usize| if m == dir { cn } else { cd };
            let mut e0 = -c1345 * t2 * ub[4];
            for m in 1..4 {
                d.col0[m - 1] += scale * (-coef(m) * t2 * ub[m]);
                d.diag[m] += scale * (coef(m) * t1);
                e0 -= (coef(m) - c1345) * t3 * ub[m] * ub[m];
                d.row4[m - 1] += scale * ((coef(m) - c1345) * t2 * ub[m]);
            }
            d.col0[3] += scale * e0;
            d.diag[4] += scale * (c1345 * t1);
        }
        let identity_and_dissipation = 1.0 + 2.0 * dt * dias;
        for v in &mut d.diag {
            *v += identity_and_dissipation;
        }
        d
    }

    /// `r ← D⁻¹ r`: the steps Gauss–Jordan without pivoting (`binvrhs`)
    /// takes on an arrow, in its order. Pivot 0 clears column 0, pivots 1–3
    /// each clear one entry of row 4, and nothing fills in, so every other
    /// update `binvrhs` makes multiplies by an exact zero.
    #[inline]
    fn solve(&self, r: &mut Vec5) {
        r[0] *= 1.0 / self.diag[0];
        for m in 1..5 {
            r[m] -= self.col0[m - 1] * r[0];
        }
        for m in 1..4 {
            r[m] *= 1.0 / self.diag[m];
            r[4] -= self.row4[m - 1] * r[m];
        }
        r[4] *= 1.0 / self.diag[4];
    }
}

/// Off-diagonal block coupling point `p` to its neighbour along `dir`
/// (`lower = true` for the (·−1) neighbour, `false` for (·+1)), evaluated
/// at the neighbour's state — exactly the BT `aa`/`cc` construction.
fn offdiag_block(uf: &[f64], q: usize, dir: Direction, lower: bool, c: &CfdConstants) -> Mat5 {
    let ub = &uf[q * 5..q * 5 + 5];
    let (t1, t2) = (c.tx1, c.tx2);
    let dcoef = match dir {
        Direction::X => c.dx,
        Direction::Y => c.dy,
        Direction::Z => c.dz,
    };
    let dt = c.dt;
    let fj = flux_jacobian(ub, dir, c);
    let nj = viscous_jacobian(ub, dir, c);
    let sign = if lower { -1.0 } else { 1.0 };
    let mut m = [[0.0f64; 5]; 5];
    for i in 0..5 {
        for j in 0..5 {
            m[i][j] = sign * dt * t2 * fj[i][j] - dt * t1 * nj[i][j];
        }
        m[i][i] -= dt * t1 * dcoef;
    }
    m
}

/// One lower-sweep point update:
/// `Δ_p ← D_p⁻¹ (r_p − ω Σ_d L_d Δ_{p−s_d})`.
///
/// # Safety
/// The caller must guarantee point `p` is exclusively owned and all three
/// lower neighbours' updates are complete and visible.
unsafe fn lower_update(p: usize, n: usize, uf: &[f64], rsd: &SyncSlice<'_, f64>, c: &CfdConstants) {
    let mut v: Vec5 = [0.0; 5];
    for m in 0..5 {
        v[m] = rsd.get(p * 5 + m);
    }
    for dir in Direction::ALL {
        let s = dir.stride(n);
        let q = p - s;
        let block = offdiag_block(uf, q, dir, true, c);
        let mut dv: Vec5 = [0.0; 5];
        for m in 0..5 {
            dv[m] = rsd.get(q * 5 + m);
        }
        for i in 0..5 {
            let mut acc = 0.0;
            for k in 0..5 {
                acc += block[i][k] * dv[k];
            }
            v[i] -= OMEGA * acc;
        }
    }
    ArrowD::at(&uf[p * 5..p * 5 + 5], c).solve(&mut v);
    for m in 0..5 {
        rsd.set(p * 5 + m, v[m]);
    }
}

/// One upper-sweep point update:
/// `Δ_p ← Δ_p − D_p⁻¹ ω Σ_d U_d Δ_{p+s_d}`.
///
/// # Safety
/// As [`lower_update`], with the three *upper* neighbours complete.
unsafe fn upper_update(p: usize, n: usize, uf: &[f64], rsd: &SyncSlice<'_, f64>, c: &CfdConstants) {
    let mut tv: Vec5 = [0.0; 5];
    for dir in Direction::ALL {
        let s = dir.stride(n);
        let q = p + s;
        let block = offdiag_block(uf, q, dir, false, c);
        let mut dv: Vec5 = [0.0; 5];
        for m in 0..5 {
            dv[m] = rsd.get(q * 5 + m);
        }
        for i in 0..5 {
            let mut acc = 0.0;
            for k in 0..5 {
                acc += block[i][k] * dv[k];
            }
            tv[i] += OMEGA * acc;
        }
    }
    ArrowD::at(&uf[p * 5..p * 5 + 5], c).solve(&mut tv);
    for m in 0..5 {
        let v = rsd.get(p * 5 + m);
        rsd.set(p * 5 + m, v - tv[m]);
    }
}

/// Lower-triangular SSOR sweep over hyperplanes (the LU-HP formulation).
fn lower_sweep(f: &mut Fields, c: &CfdConstants, planes: &[Vec<u32>], pool: &Pool) {
    let n = f.n;
    let uf = f.u.flat();
    let rsd = SyncSlice::new(f.rhs.flat_mut());
    pool.run(|team| {
        team.phase("ssor-sweeps", || {
            for plane in planes {
                team.for_static(0, plane.len(), |pi| {
                    // SAFETY: the point is exclusively owned within its
                    // hyperplane; lower neighbours lie on earlier,
                    // barrier-separated hyperplanes.
                    unsafe { lower_update(plane[pi] as usize, n, uf, &rsd, c) };
                });
            }
        });
    });
}

/// Upper-triangular SSOR sweep over hyperplanes, in descending order.
fn upper_sweep(f: &mut Fields, c: &CfdConstants, planes: &[Vec<u32>], pool: &Pool) {
    let n = f.n;
    let uf = f.u.flat();
    let rsd = SyncSlice::new(f.rhs.flat_mut());
    pool.run(|team| {
        team.phase("ssor-sweeps", || {
            for plane in planes.iter().rev() {
                team.for_static(0, plane.len(), |pi| {
                    // SAFETY: upper neighbours lie on later hyperplanes,
                    // finalized before this one started.
                    unsafe { upper_update(plane[pi] as usize, n, uf, &rsd, c) };
                });
            }
        });
    });
}

/// One SSOR iteration.
pub(crate) fn ssor_step(f: &mut Fields, c: &CfdConstants, planes: &[Vec<u32>], pool: &Pool) {
    f.compute_aux(pool);
    compute_rhs(f, c, pool);
    scale_rhs_by_dt(f, c, pool);
    lower_sweep(f, c, planes, pool);
    upper_sweep(f, c, planes, pool);
    // NPB `ssor`'s final update: `u += Δ/(ω(2−ω))`.
    add_update(f, 1.0 / (OMEGA * (2.0 - OMEGA)), pool);
}

/// Run the full LU benchmark computation.
pub(crate) fn compute(class: Class, pool: &Pool) -> AppOutput {
    let p = class::lu_params(class);
    let n = p.problem_size;
    let c = CfdConstants::new(n, p.dt);
    let planes = hyperplanes(n);
    let mut f = Fields::new(n);
    f.initialize(&c, pool);
    compute_forcing(&mut f, &c, pool);
    let initial_error = norm_scalar(&error_norm(&f, &c, pool));

    ssor_step(&mut f, &c, &planes, pool); // untimed warm-up
    f.initialize(&c, pool);

    let mut timers = Timers::new(1);
    timers.start(0);
    for _ in 0..p.niter {
        ssor_step(&mut f, &c, &planes, pool);
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
        Class::T => Some((1.565212108847e-1, 5.980881098052e-3)),
        Class::S => Some((5.631428848472e-2, 2.181439279995e-3)),
        _ => None,
    }
}

impl Benchmark for Lu {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let out = compute(class, pool);
        let verified = verify_app(&out, reference(class));
        BenchResult {
            name: "LU",
            class,
            threads: pool.nthreads(),
            time_seconds: out.timed_seconds,
            mops: mops::mops(BenchmarkId::Lu, class, out.timed_seconds),
            verified,
            check_value: out.error_norm,
        }
    }
}

/// Analytic workload profile.
///
/// Two triangular block sweeps per step (Jacobian rebuilds plus one 5×5
/// solve per point per sweep), with a barrier per hyperplane — ~6n
/// barriers per step, the suite's heaviest synchronization load, plus the
/// wavefront imbalance of triangular hyperplane sizes.
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let p = class::lu_params(class);
    let n = p.problem_size as f64;
    let n3 = n.powi(3);
    let steps = p.niter as f64;
    let sweep_flops = steps * 2.0 * n3 * 1200.0;
    let rhs_flops = steps * n3 * 350.0;
    let state_bytes = n3 * 5.0 * 8.0;
    WorkloadProfile {
        bench: BenchmarkId::Lu,
        class,
        total_ops: mops::total_ops(BenchmarkId::Lu, class),
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
                name: "ssor-sweeps",
                instructions: sweep_flops * 1.4,
                flops: sweep_flops,
                mem_refs: steps * 2.0 * n3 * 5.0 * 10.0,
                elem_bytes: 8,
                working_set_bytes: 2.0 * state_bytes,
                // Hyperplane traversal touches all three strides at once.
                pattern: AccessPattern::Strided {
                    stride_bytes: (p.problem_size * p.problem_size * 40) as u32,
                },
                ws_partitioned: true,
                vectorizable: 0.50,
                branch_rate: 0.05,
                branch_misrate: 0.03,
            },
        ],
        barriers: steps * 6.0 * n,
        imbalance: 1.15, // triangular hyperplane sizes
        parallel_fraction: 0.97,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::matrix5::binvrhs;
    use crate::common::verify::assert_pinned_bits;

    /// `D` at point `p` as a dense block from the dense viscous Jacobians:
    /// with `binvrhs`, the oracle for `ArrowD`.
    fn d_block(uf: &[f64], p: usize, c: &CfdConstants) -> Mat5 {
        let ub = &uf[p * 5..p * 5 + 5];
        let dt = c.dt;
        let mut d = [[0.0f64; 5]; 5];
        let dias = c.tx1 * c.dx + c.ty1 * c.dy + c.tz1 * c.dz;
        for (dir, t1) in [
            (Direction::X, c.tx1),
            (Direction::Y, c.ty1),
            (Direction::Z, c.tz1),
        ] {
            let nj = viscous_jacobian(ub, dir, c);
            for i in 0..5 {
                for j in 0..5 {
                    d[i][j] += 2.0 * dt * t1 * nj[i][j];
                }
            }
        }
        for (i, row) in d.iter_mut().enumerate() {
            row[i] += 1.0 + 2.0 * dt * dias;
        }
        d
    }

    #[test]
    fn hyperplanes_cover_interior_exactly_once() {
        let n = 8;
        let planes = hyperplanes(n);
        let total: usize = planes.iter().map(|p| p.len()).sum();
        assert_eq!(total, (n - 2) * (n - 2) * (n - 2));
        let mut seen = std::collections::HashSet::new();
        for plane in &planes {
            for &p in plane {
                assert!(seen.insert(p), "point {p} in two hyperplanes");
            }
        }
        // Dependence property: every point's lower neighbours live on
        // earlier hyperplanes.
        for (h, plane) in planes.iter().enumerate() {
            for &p in plane {
                let p = p as usize;
                let (i, j, k) = (p % n, (p / n) % n, p / (n * n));
                assert_eq!(i + j + k - 3, h);
            }
        }
    }

    #[test]
    fn arrow_build_and_solve_are_bit_identical_to_the_dense_block() {
        // The time steps and grids of classes S, W and A.
        for (n, dt) in [(12, 0.5), (33, 0.0015), (64, 2.0)] {
            let c = CfdConstants::new(n, dt);
            for (u, r) in crate::cfd::random_states(1000) {
                let dense = d_block(&u, 0, &c);
                let arrow = ArrowD::at(&u, &c);
                for i in 0..5 {
                    for j in 0..5 {
                        let structural = if i == j {
                            Some(arrow.diag[i])
                        } else if j == 0 {
                            Some(arrow.col0[i - 1])
                        } else if i == 4 {
                            Some(arrow.row4[j - 1])
                        } else {
                            None
                        };
                        match structural {
                            Some(v) => {
                                assert_eq!(v.to_bits(), dense[i][j].to_bits(), "D[{i}][{j}]")
                            }
                            None => assert_eq!(dense[i][j].to_bits(), 0, "D[{i}][{j}] is not +0"),
                        }
                    }
                }
                let (mut expect, mut got) = (r, r);
                binvrhs(&mut dense.clone(), &mut expect);
                arrow.solve(&mut got);
                for m in 0..5 {
                    assert_eq!(got[m].to_bits(), expect[m].to_bits(), "u = {u:?}: x[{m}]");
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
        let par = compute(Class::T, &Pool::new(4));
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

    #[test]
    fn hyperplane_sweeps_agree_bitwise_across_thread_counts() {
        // A hyperplane holds points that do not depend on each other, so
        // however a team splits it, every point consumes exactly its
        // three lower (resp. upper) neighbours' *new* values, and the
        // result must be identical to the last bit.
        let p = class::lu_params(Class::T);
        let c = CfdConstants::new(p.problem_size, p.dt);
        let planes = hyperplanes(p.problem_size);
        let run_with = |threads: usize| -> Vec<u64> {
            let pool = Pool::new(threads);
            let mut f = Fields::new(p.problem_size);
            f.initialize(&c, &pool);
            compute_forcing(&mut f, &c, &pool);
            for _ in 0..3 {
                ssor_step(&mut f, &c, &planes, &pool);
            }
            f.u.flat().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            run_with(1),
            run_with(4),
            "4 threads diverged from the serial sweep"
        );
    }

    /// `error_norm` as commit bb19309 computed it (a dense `D` solved by `binvrhs`, `compute_rhs` in three sweeps): the arrow and the fused operator may not move a bit.
    #[test]
    fn error_norm_is_pinned_to_the_previous_ports_bits() {
        let pins = [
            (
                Class::T,
                [
                    0x3f78_7f68_8b7a_74ac,
                    0x3f78_7f68_8b7a_74ac,
                    0x3f78_7f68_8b7a_74ad,
                ],
            ),
            (
                Class::S,
                [
                    0x3f61_decf_4bb4_8622,
                    0x3f61_decf_4bb4_8625,
                    0x3f61_decf_4bb4_8624,
                ],
            ),
        ];
        assert_pinned_bits("LU error_norm", &pins, |class, pool| {
            compute(class, pool).error_norm
        });
    }

    #[test]
    fn run_reports_pass_for_class_t() {
        let pool = Pool::new(2);
        let r = Lu.run(Class::T, &pool);
        assert!(r.verified.passed(), "{:?}", r.verified);
        assert!(r.mops > 0.0);
        assert_eq!(r.name, "LU");
    }
}
