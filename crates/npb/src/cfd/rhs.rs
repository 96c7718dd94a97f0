//! The shared spatial right-hand-side operator.
//!
//! Implements NPB `compute_rhs`: for each direction, second-order central
//! convective fluxes, viscous second differences, and the boundary-adapted
//! fourth-order artificial dissipation; evaluated on interior points
//! (boundary points keep `rhs = forcing`, which is zero there).
//!
//! Index convention (see [`crate::cfd::fields`]): `u[(k, j, i, m)]` with
//! `i` (x) innermost before the component; flat point index
//! `p = (k·n + j)·n + i`, so the x/y/z neighbour strides are `1`, `n`,
//! `n²`.

use rvhpc_parallel::{Pool, TeamChunks};

use crate::cfd::constants::CfdConstants;
use crate::cfd::exact::exact_solution;
use crate::cfd::fields::Fields;
use crate::cfd::matrix5::Vec5;

/// One sweep direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    X,
    Y,
    Z,
}

impl Direction {
    /// All three, in NPB's sweep order.
    pub(crate) const ALL: [Direction; 3] = [Direction::X, Direction::Y, Direction::Z];

    /// Flat-index stride to the next point along this direction.
    #[inline]
    pub(crate) fn stride(self, n: usize) -> usize {
        match self {
            Direction::X => 1,
            Direction::Y => n,
            Direction::Z => n * n,
        }
    }

    /// Index (0-based) of the momentum component advected by this
    /// direction (ρu, ρv, ρw).
    #[inline]
    pub(crate) fn momentum(self) -> usize {
        match self {
            Direction::X => 1,
            Direction::Y => 2,
            Direction::Z => 3,
        }
    }

    /// The two velocity components (0-based) transverse to this direction.
    #[inline]
    pub(crate) fn transverse(self) -> (usize, usize) {
        match self {
            Direction::X => (1, 2),
            Direction::Y => (0, 2),
            Direction::Z => (0, 1),
        }
    }
}

/// What the spatial operator reads: the state and its auxiliary fields.
struct Stencil<'a> {
    n: usize,
    c: &'a CfdConstants,
    u: &'a [f64],
    vel: [&'a [f64]; 3],
    square: &'a [f64],
    qs: &'a [f64],
    rho_i: &'a [f64],
}

impl Stencil<'_> {
    /// The state of point `q`.
    #[inline(always)]
    fn state(&self, q: usize) -> &[f64] {
        &self.u[q * 5..q * 5 + 5]
    }

    /// One direction's convective + viscous + dissipation contribution at
    /// interior point `p`, which sits at `pos` along that direction.
    #[inline(always)]
    fn delta(&self, dir: Direction, p: usize, pos: usize) -> Vec5 {
        let (n, c) = (self.n, self.c);
        let s = dir.stride(n);
        let md = dir.momentum();
        let (t1, t2, dcoef) = match dir {
            Direction::X => (c.tx1, c.tx2, c.dx),
            Direction::Y => (c.ty1, c.ty2, c.dy),
            Direction::Z => (c.tz1, c.tz2, c.dz),
        };
        let dt1 = dcoef * t1;
        // Viscous combination constants are direction-symmetric on the cube.
        let (con2, con3, con4, con5) = (c.xxcon2, c.xxcon3, c.xxcon4, c.xxcon5);
        let (sq, qsf, rho_i) = (self.square, self.qs, self.rho_i);
        let wd = self.vel[md - 1];

        let (pp, pm) = (p + s, p - s);
        let (uc, up, um) = (self.state(p), self.state(pp), self.state(pm));
        let (wdp, wdm, wdc) = (wd[pp], wd[pm], wd[p]);

        // Continuity.
        let d0 = dt1 * (up[0] - 2.0 * uc[0] + um[0]) - t2 * (up[md] - um[md]);
        // Momentum components.
        let mut dm = [0.0f64; 3];
        for (cidx, dmv) in dm.iter_mut().enumerate() {
            let m = cidx + 1;
            let mut v = dt1 * (up[m] - 2.0 * uc[m] + um[m]) - t2 * (up[m] * wdp - um[m] * wdm);
            if m == md {
                // Advected component: extra pressure coupling and the 4/3
                // normal viscous factor.
                v += con2 * c.con43 * (wdp - 2.0 * wdc + wdm)
                    - t2 * c.c2 * (up[4] - sq[pp] - um[4] + sq[pm]);
            } else {
                let vm = self.vel[cidx];
                v += con2 * (vm[pp] - 2.0 * vm[p] + vm[pm]);
            }
            *dmv = v;
        }
        // Energy.
        let d4 = dt1 * (up[4] - 2.0 * uc[4] + um[4])
            + con3 * (qsf[pp] - 2.0 * qsf[p] + qsf[pm])
            + con4 * (wdp * wdp - 2.0 * wdc * wdc + wdm * wdm)
            + con5 * (up[4] * rho_i[pp] - 2.0 * uc[4] * rho_i[p] + um[4] * rho_i[pm])
            - t2 * ((c.c1 * up[4] - c.c2 * sq[pp]) * wdp - (c.c1 * um[4] - c.c2 * sq[pm]) * wdm);

        // Fourth-order dissipation, boundary-adapted. On a five-point line
        // position 2 is also n − 3: the order of the tests decides.
        let mut deltas = [d0, dm[0], dm[1], dm[2], d4];
        for (m, dv) in deltas.iter_mut().enumerate() {
            let (uc, up1, um1) = (uc[m], up[m], um[m]);
            let diss = if pos == 1 {
                let up2 = self.state(p + 2 * s)[m];
                5.0 * uc - 4.0 * up1 + up2
            } else if pos == 2 {
                let up2 = self.state(p + 2 * s)[m];
                -4.0 * um1 + 6.0 * uc - 4.0 * up1 + up2
            } else if pos == n - 3 {
                let um2 = self.state(p - 2 * s)[m];
                um2 - 4.0 * um1 + 6.0 * uc - 4.0 * up1
            } else if pos == n - 2 {
                let um2 = self.state(p - 2 * s)[m];
                um2 - 4.0 * um1 + 5.0 * uc
            } else {
                let up2 = self.state(p + 2 * s)[m];
                let um2 = self.state(p - 2 * s)[m];
                um2 - 4.0 * um1 + 6.0 * uc - 4.0 * up1 + up2
            };
            *dv -= c.dssp * diss;
        }
        deltas
    }
}

/// `rhs = forcing + L(u)`: the full spatial operator. `compute_aux` must
/// have been called on current `u`.
///
/// One region, one pass: each member owns whole `(k, j)` rows of `rhs`,
/// starts a row from its `forcing` row and, at each interior point, adds
/// the X, Y and Z contributions in that order. A point's position along
/// each direction is the loop index of that direction.
pub(crate) fn compute_rhs(f: &mut Fields, c: &CfdConstants, pool: &Pool) {
    let n = f.n;
    let stencil = Stencil {
        n,
        c,
        u: f.u.flat(),
        vel: [f.us.flat(), f.vs.flat(), f.ws.flat()],
        square: f.square.flat(),
        qs: f.qs.flat(),
        rho_i: f.rho_i.flat(),
    };
    let force = f.forcing.flat();
    let rows = TeamChunks::new(pool, f.rhs.flat_mut(), 5 * n, 0, n * n);
    pool.run(|team| {
        team.phase("rhs-stencil", || {
            for (row, out) in rows.claim_units(team) {
                out.copy_from_slice(&force[row * 5 * n..(row + 1) * 5 * n]);
                let (k, j) = (row / n, row % n);
                if k == 0 || k == n - 1 || j == 0 || j == n - 1 {
                    continue;
                }
                for (i, point) in out.chunks_exact_mut(5).enumerate().take(n - 1).skip(1) {
                    let p = row * n + i;
                    for (dir, pos) in [(Direction::X, i), (Direction::Y, j), (Direction::Z, k)] {
                        for (r, d) in point.iter_mut().zip(stencil.delta(dir, p, pos)) {
                            *r += d;
                        }
                    }
                }
            }
        });
    });
}

/// Each member's interior planes `k = 1..n−1` of a 5-component field, for
/// the pointwise updates below.
fn interior_planes<'a>(pool: &Pool, field: &'a mut [f64], n: usize) -> TeamChunks<'a, f64> {
    TeamChunks::new(pool, field, 5 * n * n, 1, n - 1)
}

/// The interior of row `j` within a plane: flat range of its points
/// `i = 1..n−1`.
#[inline]
fn interior_of_row(j: usize, n: usize) -> std::ops::Range<usize> {
    (j * n + 1) * 5..(j * n + n - 1) * 5
}

/// Scale the interior rhs by `dt` (BT/SP epilogue of `compute_rhs`).
pub(crate) fn scale_rhs_by_dt(f: &mut Fields, c: &CfdConstants, pool: &Pool) {
    let n = f.n;
    let dt = c.dt;
    let planes = interior_planes(pool, f.rhs.flat_mut(), n);
    pool.run(|team| {
        for (_, plane) in planes.claim_units(team) {
            for j in 1..n - 1 {
                for v in &mut plane[interior_of_row(j, n)] {
                    *v *= dt;
                }
            }
        }
    });
}

/// `u += scale · rhs` on the interior: NPB `add` for BT and SP (`scale` 1,
/// and `1.0 * x` is `x`), the relaxed update that ends LU's `ssor`.
pub(crate) fn add_update(f: &mut Fields, scale: f64, pool: &Pool) {
    let n = f.n;
    let rhs = f.rhs.flat();
    let planes = interior_planes(pool, f.u.flat_mut(), n);
    pool.run(|team| {
        for (k, plane) in planes.claim_units(team) {
            let increments = &rhs[k * 5 * n * n..(k + 1) * 5 * n * n];
            for j in 1..n - 1 {
                let row = interior_of_row(j, n);
                for (u, r) in plane[row.clone()].iter_mut().zip(&increments[row]) {
                    *u += scale * r;
                }
            }
        }
    });
}

/// Compute the steady-state forcing: `forcing = −L(u_exact)`.
///
/// NPB's `exact_rhs` evaluates the same finite-difference operator on the
/// exact solution; obtaining it by running the operator itself guarantees
/// the discrete identity `RHS(u_exact) = forcing + L(u_exact) = 0`.
pub(crate) fn compute_forcing(f: &mut Fields, c: &CfdConstants, pool: &Pool) {
    // Temporarily fill u with the exact solution everywhere.
    let saved_u = f.u.clone();
    f.fill_state(pool, |i, j, k| {
        exact_solution(c.coord(i), c.coord(j), c.coord(k))
    });
    f.compute_aux(pool);
    f.forcing.flat_mut().fill(0.0);
    compute_rhs(f, c, pool); // rhs = 0 + L(u_exact)
    for (fo, &r) in f.forcing.flat_mut().iter_mut().zip(f.rhs.flat()) {
        *fo = -r;
    }
    f.u = saved_u;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_parallel::Pool;

    /// The operator as it ran before the directions were fused, serially:
    /// `rhs := forcing`, then one read-modify-write sweep of the interior
    /// per direction, every index computed from the flat point index. The
    /// oracle for [`compute_rhs`].
    fn compute_rhs_by_direction(f: &mut Fields, c: &CfdConstants) {
        let n = f.n;
        f.rhs.flat_mut().copy_from_slice(f.forcing.flat());
        for dir in Direction::ALL {
            add_direction(f, c, dir, n);
        }
    }

    /// Add one direction's convective + viscous + dissipation contributions.
    fn add_direction(f: &mut Fields, c: &CfdConstants, dir: Direction, n: usize) {
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
        let (con2, con3, con4, con5) = (c.xxcon2, c.xxcon3, c.xxcon4, c.xxcon5);

        let uf = f.u.flat();
        let vel: [&[f64]; 3] = [f.us.flat(), f.vs.flat(), f.ws.flat()];
        let wd = vel[md - 1];
        let sq = f.square.flat();
        let qsf = f.qs.flat();
        let rho_i = f.rho_i.flat();
        let rhs = f.rhs.flat_mut();

        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let p = (k * n + j) * n + i;
                    let (pp, pm) = (p + s, p - s);
                    let b = p * 5;
                    let (bp, bm) = (pp * 5, pm * 5);
                    let wdp = wd[pp];
                    let wdm = wd[pm];
                    let wdc = wd[p];

                    let d0 =
                        dt1 * (uf[bp] - 2.0 * uf[b] + uf[bm]) - t2 * (uf[bp + md] - uf[bm + md]);
                    let mut dm = [0.0f64; 3];
                    for (cidx, dmv) in dm.iter_mut().enumerate() {
                        let m = cidx + 1;
                        let mut v = dt1 * (uf[bp + m] - 2.0 * uf[b + m] + uf[bm + m])
                            - t2 * (uf[bp + m] * wdp - uf[bm + m] * wdm);
                        if m == md {
                            v += con2 * c.con43 * (wdp - 2.0 * wdc + wdm)
                                - t2 * c.c2 * (uf[bp + 4] - sq[pp] - uf[bm + 4] + sq[pm]);
                        } else {
                            let vm = vel[cidx];
                            v += con2 * (vm[pp] - 2.0 * vm[p] + vm[pm]);
                        }
                        *dmv = v;
                    }
                    let d4 = dt1 * (uf[bp + 4] - 2.0 * uf[b + 4] + uf[bm + 4])
                        + con3 * (qsf[pp] - 2.0 * qsf[p] + qsf[pm])
                        + con4 * (wdp * wdp - 2.0 * wdc * wdc + wdm * wdm)
                        + con5
                            * (uf[bp + 4] * rho_i[pp] - 2.0 * uf[b + 4] * rho_i[p]
                                + uf[bm + 4] * rho_i[pm])
                        - t2 * ((c.c1 * uf[bp + 4] - c.c2 * sq[pp]) * wdp
                            - (c.c1 * uf[bm + 4] - c.c2 * sq[pm]) * wdm);

                    let pos = match dir {
                        Direction::X => p % n,
                        Direction::Y => (p / n) % n,
                        Direction::Z => p / (n * n),
                    };
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
                    for (m, dv) in deltas.iter().enumerate() {
                        rhs[b + m] += dv;
                    }
                }
            }
        }
    }

    #[test]
    fn fused_operator_is_bit_identical_to_the_per_direction_sweeps() {
        // On n = 5 the one interior-of-interior point is at position 2 and
        // at n − 3 in every direction.
        for n in [5, 8, 12] {
            let c = CfdConstants::new(n, 0.01);
            let serial = Pool::new(1);
            let mut expect = Fields::new(n);
            expect.initialize(&c, &serial);
            compute_forcing(&mut expect, &c, &serial);
            expect.compute_aux(&serial);
            let mut fused = expect.clone();
            compute_rhs_by_direction(&mut expect, &c);
            for threads in 1..=3 {
                fused.rhs.flat_mut().fill(f64::NAN);
                compute_rhs(&mut fused, &c, &Pool::new(threads));
                for (idx, (got, want)) in fused.rhs.flat().iter().zip(expect.rhs.flat()).enumerate()
                {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "n = {n}, {threads} thread(s): rhs[{idx}] = {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

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
