//! The shared spatial right-hand-side operator.
//!
//! Implements NPB `compute_rhs`: for each direction, second-order central
//! convective fluxes, viscous second differences, and the boundary-adapted
//! fourth-order artificial dissipation; evaluated on interior points
//! (Dirichlet boundaries keep `rhs = 0`).
//!
//! Index convention (see [`crate::cfd::fields`]): `u[(k, j, i, m)]` with
//! `i` (x) innermost before the component; flat point index
//! `p = (k·n + j)·n + i`, so the x/y/z neighbour strides are `1`, `n`,
//! `n²`.

use rvhpc_parallel::{Pool, SyncSlice};

use crate::cfd::constants::CfdConstants;
use crate::cfd::exact::exact_solution;
use crate::cfd::fields::Fields;

/// One sweep direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    X,
    Y,
    Z,
}

impl Direction {
    /// All three, in NPB's sweep order.
    pub const ALL: [Direction; 3] = [Direction::X, Direction::Y, Direction::Z];

    /// Flat-index stride to the next point along this direction.
    #[inline]
    pub fn stride(self, n: usize) -> usize {
        match self {
            Direction::X => 1,
            Direction::Y => n,
            Direction::Z => n * n,
        }
    }

    /// Index (0-based) of the momentum component advected by this
    /// direction (ρu, ρv, ρw).
    #[inline]
    pub fn momentum(self) -> usize {
        match self {
            Direction::X => 1,
            Direction::Y => 2,
            Direction::Z => 3,
        }
    }

    /// The two velocity components (0-based) transverse to this direction.
    #[inline]
    pub fn transverse(self) -> (usize, usize) {
        match self {
            Direction::X => (1, 2),
            Direction::Y => (0, 2),
            Direction::Z => (0, 1),
        }
    }

    /// The grid coordinate of a flat point index along this direction.
    #[inline]
    fn coord_of(self, p: usize, n: usize) -> usize {
        match self {
            Direction::X => p % n,
            Direction::Y => (p / n) % n,
            Direction::Z => p / (n * n),
        }
    }
}

/// `rhs = forcing + L(u)`: the full spatial operator. `compute_aux` must
/// have been called on current `u`.
pub fn compute_rhs(f: &mut Fields, c: &CfdConstants, pool: &Pool) {
    // rhs := forcing.
    {
        let rhs = SyncSlice::new(f.rhs.flat_mut());
        let force = f.forcing.flat();
        pool.run(|team| {
            let total = force.len();
            for idx in team.static_range(0, total) {
                // SAFETY: disjoint static ranges.
                unsafe { rhs.set(idx, force[idx]) };
            }
            team.barrier();
        });
    }
    for dir in Direction::ALL {
        add_direction(f, c, dir, pool);
    }
}

/// Scale the interior rhs by `dt` (BT/SP epilogue of `compute_rhs`).
pub fn scale_rhs_by_dt(f: &mut Fields, c: &CfdConstants, pool: &Pool) {
    let n = f.n;
    let dt = c.dt;
    let rhs = SyncSlice::new(f.rhs.flat_mut());
    pool.run(|team| {
        team.for_static(1, n - 1, |k| {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let b = (((k * n) + j) * n + i) * 5;
                    for m in 0..5 {
                        // SAFETY: plane k is exclusively ours.
                        unsafe {
                            let v = rhs.get(b + m);
                            rhs.set(b + m, v * dt);
                        }
                    }
                }
            }
        });
    });
}

/// Add one direction's convective + viscous + dissipation contributions.
fn add_direction(f: &mut Fields, c: &CfdConstants, dir: Direction, pool: &Pool) {
    let n = f.n;
    let s = dir.stride(n);
    let md = dir.momentum();
    let (t1, t2) = match dir {
        Direction::X => (c.tx1, c.tx2),
        Direction::Y => (c.ty1, c.ty2),
        Direction::Z => (c.tz1, c.tz2),
    };
    let dcoef = match dir {
        Direction::X => c.dx,
        Direction::Y => c.dy,
        Direction::Z => c.dz,
    };
    let dt1 = dcoef * t1;
    // Viscous combination constants are direction-symmetric on the cube.
    let (con2, con3, con4, con5) = (c.xxcon2, c.xxcon3, c.xxcon4, c.xxcon5);

    let uf = f.u.flat();
    let vel: [&[f64]; 3] = [f.us.flat(), f.vs.flat(), f.ws.flat()];
    let wd = vel[md - 1];
    let sq = f.square.flat();
    let qsf = f.qs.flat();
    let rho_i = f.rho_i.flat();
    let rhs = SyncSlice::new(f.rhs.flat_mut());

    pool.run(|team| {
        team.phase("rhs-stencil", || {
            team.for_static(1, n - 1, |k| {
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        let p = (k * n + j) * n + i;
                        let (pp, pm) = (p + s, p - s);
                        let b = p * 5;
                        let (bp, bm) = (pp * 5, pm * 5);
                        let wdp = wd[pp];
                        let wdm = wd[pm];
                        let wdc = wd[p];

                        // Continuity.
                        let d0 = dt1 * (uf[bp] - 2.0 * uf[b] + uf[bm])
                            - t2 * (uf[bp + md] - uf[bm + md]);
                        // Momentum components.
                        let mut dm = [0.0f64; 3];
                        for (cidx, dmv) in dm.iter_mut().enumerate() {
                            let m = cidx + 1;
                            let mut v = dt1 * (uf[bp + m] - 2.0 * uf[b + m] + uf[bm + m])
                                - t2 * (uf[bp + m] * wdp - uf[bm + m] * wdm);
                            if m == md {
                                // Advected component: extra pressure coupling
                                // and the 4/3 normal viscous factor.
                                v += con2 * c.con43 * (wdp - 2.0 * wdc + wdm)
                                    - t2 * c.c2 * (uf[bp + 4] - sq[pp] - uf[bm + 4] + sq[pm]);
                            } else {
                                let vm = vel[cidx];
                                v += con2 * (vm[pp] - 2.0 * vm[p] + vm[pm]);
                            }
                            *dmv = v;
                        }
                        // Energy.
                        let d4 = dt1 * (uf[bp + 4] - 2.0 * uf[b + 4] + uf[bm + 4])
                            + con3 * (qsf[pp] - 2.0 * qsf[p] + qsf[pm])
                            + con4 * (wdp * wdp - 2.0 * wdc * wdc + wdm * wdm)
                            + con5
                                * (uf[bp + 4] * rho_i[pp] - 2.0 * uf[b + 4] * rho_i[p]
                                    + uf[bm + 4] * rho_i[pm])
                            - t2 * ((c.c1 * uf[bp + 4] - c.c2 * sq[pp]) * wdp
                                - (c.c1 * uf[bm + 4] - c.c2 * sq[pm]) * wdm);

                        // Fourth-order dissipation, boundary-adapted.
                        let pos = dir.coord_of(p, n);
                        let mut deltas = [d0, dm[0], dm[1], dm[2], d4];
                        for (m, dv) in deltas.iter_mut().enumerate() {
                            let uc = uf[b + m];
                            let up1 = uf[bp + m];
                            let um1 = uf[bm + m];
                            let diss = if pos == 1 {
                                let up2 = uf[(p + 2 * s) * 5 + m];
                                5.0 * uc - 4.0 * up1 + up2
                            } else if pos == 2 {
                                let up2 = uf[(p + 2 * s) * 5 + m];
                                -4.0 * um1 + 6.0 * uc - 4.0 * up1 + up2
                            } else if pos == n - 3 {
                                let um2 = uf[(p - 2 * s) * 5 + m];
                                um2 - 4.0 * um1 + 6.0 * uc - 4.0 * up1
                            } else if pos == n - 2 {
                                let um2 = uf[(p - 2 * s) * 5 + m];
                                um2 - 4.0 * um1 + 5.0 * uc
                            } else {
                                let up2 = uf[(p + 2 * s) * 5 + m];
                                let um2 = uf[(p - 2 * s) * 5 + m];
                                um2 - 4.0 * um1 + 6.0 * uc - 4.0 * up1 + up2
                            };
                            *dv -= c.dssp * diss;
                        }

                        // SAFETY: k-plane is exclusively ours (all directions'
                        // writes go to point p in plane k).
                        unsafe {
                            for (m, dv) in deltas.iter().enumerate() {
                                let r = rhs.get_mut(b + m);
                                *r += dv;
                            }
                        }
                    }
                }
            });
        });
    });
}

/// Compute the steady-state forcing: `forcing = −L(u_exact)`.
///
/// NPB's `exact_rhs` evaluates the same finite-difference operator on the
/// exact solution; obtaining it by running the operator itself guarantees
/// the discrete identity `RHS(u_exact) = forcing + L(u_exact) = 0`.
pub fn compute_forcing(f: &mut Fields, c: &CfdConstants, pool: &Pool) {
    let n = f.n;
    // Temporarily fill u with the exact solution everywhere.
    let saved_u = f.u.clone();
    {
        let us = SyncSlice::new(f.u.flat_mut());
        pool.run(|team| {
            team.for_static(0, n, |k| {
                let zeta = c.coord(k);
                for j in 0..n {
                    let eta = c.coord(j);
                    for i in 0..n {
                        let xi = c.coord(i);
                        let e = exact_solution(xi, eta, zeta);
                        let b = ((k * n + j) * n + i) * 5;
                        for (m, &v) in e.iter().enumerate() {
                            // SAFETY: plane k is exclusively ours.
                            unsafe { us.set(b + m, v) };
                        }
                    }
                }
            });
        });
    }
    f.compute_aux(pool);
    f.forcing.flat_mut().fill(0.0);
    compute_rhs(f, c, pool); // rhs = 0 + L(u_exact)
                             // forcing = −rhs.
    for (fo, &r) in f.forcing.flat_mut().iter_mut().zip(f.rhs.flat()) {
        *fo = -r;
    }
    f.u = saved_u;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_parallel::Pool;

    #[test]
    fn exact_solution_is_a_discrete_steady_state() {
        // By construction RHS(u_exact) must vanish identically.
        let n = 10;
        let c = CfdConstants::new(n, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(n);
        f.initialize(&c, &pool);
        compute_forcing(&mut f, &c, &pool);
        // Fill u with the exact solution and evaluate the full RHS.
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let e = exact_solution(c.coord(i), c.coord(j), c.coord(k));
                    for m in 0..5 {
                        f.u[(k, j, i, m)] = e[m];
                    }
                }
            }
        }
        f.compute_aux(&pool);
        compute_rhs(&mut f, &c, &pool);
        let max = f.rhs.flat().iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        assert!(max < 1e-11, "RHS(u_exact) = {max}");
    }

    #[test]
    fn rhs_is_zero_on_boundaries() {
        let n = 8;
        let c = CfdConstants::new(n, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(n);
        f.initialize(&c, &pool);
        compute_forcing(&mut f, &c, &pool);
        f.compute_aux(&pool);
        compute_rhs(&mut f, &c, &pool);
        for m in 0..5 {
            assert_eq!(f.rhs[(0, 3, 3, m)], 0.0);
            assert_eq!(f.rhs[(3, n - 1, 3, m)], 0.0);
            assert_eq!(f.rhs[(3, 3, 0, m)], 0.0);
        }
    }

    #[test]
    fn rhs_is_thread_invariant() {
        let n = 8;
        let c = CfdConstants::new(n, 0.01);
        let mut f1 = Fields::new(n);
        {
            let pool = Pool::new(1);
            f1.initialize(&c, &pool);
            compute_forcing(&mut f1, &c, &pool);
            f1.compute_aux(&pool);
            compute_rhs(&mut f1, &c, &pool);
        }
        let mut f4 = Fields::new(n);
        {
            let pool = Pool::new(4);
            f4.initialize(&c, &pool);
            compute_forcing(&mut f4, &c, &pool);
            f4.compute_aux(&pool);
            compute_rhs(&mut f4, &c, &pool);
        }
        assert_eq!(f1.rhs.flat(), f4.rhs.flat());
    }

    #[test]
    fn perturbed_state_produces_restoring_rhs() {
        // Perturb one interior point; the dissipation must push back:
        // rhs at that point gets a term opposing the perturbation.
        let n = 10;
        let c = CfdConstants::new(n, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(n);
        f.initialize(&c, &pool);
        compute_forcing(&mut f, &c, &pool);
        // Exact state + bump.
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let e = exact_solution(c.coord(i), c.coord(j), c.coord(k));
                    for m in 0..5 {
                        f.u[(k, j, i, m)] = e[m];
                    }
                }
            }
        }
        let eps = 1e-4;
        f.u[(5, 5, 5, 0)] += eps;
        f.compute_aux(&pool);
        compute_rhs(&mut f, &c, &pool);
        let r = f.rhs[(5, 5, 5, 0)];
        assert!(
            r < 0.0,
            "dissipation should oppose a positive bump, rhs = {r}"
        );
    }
}
