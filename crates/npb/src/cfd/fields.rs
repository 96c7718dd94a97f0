//! The pseudo-application state and auxiliary fields.

use rvhpc_parallel::{Pool, TeamChunks};

use crate::cfd::constants::CfdConstants;
use crate::cfd::exact::exact_solution;
use crate::common::array::{Array3, Array4};

/// Conserved variables plus the auxiliary per-point quantities all three
/// pseudo-applications precompute before each RHS evaluation.
#[derive(Debug, Clone)]
pub(crate) struct Fields {
    /// Conserved state `u(i,j,k,m)`: ρ, ρu, ρv, ρw, E.
    pub u: Array4,
    /// Right-hand side / residual, same shape.
    pub rhs: Array4,
    /// Steady-state forcing (−spatial operator of the exact solution).
    pub forcing: Array4,
    /// 1/ρ.
    pub rho_i: Array3,
    /// Velocities u, v, w.
    pub us: Array3,
    pub vs: Array3,
    pub ws: Array3,
    /// Dynamic-pressure helper `0.5 ρ (u²+v²+w²)` (NPB `square`).
    pub square: Array3,
    /// Kinetic helper `0.5 (u²+v²+w²)` (NPB `qs`).
    pub qs: Array3,
    /// Grid points per dimension.
    pub n: usize,
}

impl Fields {
    /// Allocate zeroed fields for an `n³` grid.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            u: Array4::new(n, n, n, 5),
            rhs: Array4::new(n, n, n, 5),
            forcing: Array4::new(n, n, n, 5),
            rho_i: Array3::new(n, n, n),
            us: Array3::new(n, n, n),
            vs: Array3::new(n, n, n),
            ws: Array3::new(n, n, n),
            square: Array3::new(n, n, n),
            qs: Array3::new(n, n, n),
            n,
        }
    }

    /// NPB `initialize`: trilinear blend of the exact solution's face
    /// values in the interior, exact values on the boundary faces.
    pub(crate) fn initialize(&mut self, c: &CfdConstants, pool: &Pool) {
        let n = self.n;
        self.fill_state(pool, |i, j, k| {
            let (xi, eta, zeta) = (c.coord(i), c.coord(j), c.coord(k));
            if i == 0 || i == n - 1 || j == 0 || j == n - 1 || k == 0 || k == n - 1 {
                exact_solution(xi, eta, zeta)
            } else {
                blended_interior(xi, eta, zeta)
            }
        });
    }

    /// Set `u` at every grid point `(i, j, k)`, each member filling the
    /// k-planes it owns.
    pub(crate) fn fill_state(
        &mut self,
        pool: &Pool,
        state_at: impl Fn(usize, usize, usize) -> [f64; 5] + Sync,
    ) {
        let n = self.n;
        let planes = TeamChunks::new(pool, self.u.flat_mut(), 5 * n * n, 0, n);
        pool.run(|team| {
            for (k, plane) in planes.claim_units(team) {
                for (j, row) in plane.chunks_exact_mut(5 * n).enumerate() {
                    for (i, point) in row.chunks_exact_mut(5).enumerate() {
                        point.copy_from_slice(&state_at(i, j, k));
                    }
                }
            }
        });
    }

    /// Recompute the auxiliary fields from `u` (the prologue of NPB
    /// `compute_rhs`).
    pub(crate) fn compute_aux(&mut self, pool: &Pool) {
        let n = self.n;
        let uf = self.u.flat();
        let aux = [
            &mut self.rho_i,
            &mut self.us,
            &mut self.vs,
            &mut self.ws,
            &mut self.square,
            &mut self.qs,
        ]
        .map(|field| TeamChunks::new(pool, field.flat_mut(), n * n, 0, n));
        pool.run(|team| {
            // Every auxiliary array is dealt the same k-planes.
            let claimed = aux.each_ref().map(|planes| planes.claim(team));
            let first_plane = claimed[0].0;
            let [rho_i, us, vs, ws, square, qs] = claimed.map(|(_, chunk)| chunk);
            let states = uf[first_plane * n * n * 5..].chunks_exact(5);
            for (p, u) in states.take(rho_i.len()).enumerate() {
                let inv = 1.0 / u[0];
                let (ru, rv, rw) = (u[1], u[2], u[3]);
                rho_i[p] = inv;
                us[p] = ru * inv;
                vs[p] = rv * inv;
                ws[p] = rw * inv;
                let sq = 0.5 * (ru * ru + rv * rv + rw * rw) * inv;
                square[p] = sq;
                qs[p] = sq * inv;
            }
        });
    }
}

/// NPB's interior initial guess: a face-to-face trilinear blend of the
/// exact solution evaluated on the six faces.
fn blended_interior(xi: f64, eta: f64, zeta: f64) -> [f64; 5] {
    let pxi_lo = exact_solution(0.0, eta, zeta);
    let pxi_hi = exact_solution(1.0, eta, zeta);
    let peta_lo = exact_solution(xi, 0.0, zeta);
    let peta_hi = exact_solution(xi, 1.0, zeta);
    let pzeta_lo = exact_solution(xi, eta, 0.0);
    let pzeta_hi = exact_solution(xi, eta, 1.0);
    let mut out = [0.0f64; 5];
    for m in 0..5 {
        let pxi = (1.0 - xi) * pxi_lo[m] + xi * pxi_hi[m];
        let peta = (1.0 - eta) * peta_lo[m] + eta * peta_hi[m];
        let pzeta = (1.0 - zeta) * pzeta_lo[m] + zeta * pzeta_hi[m];
        out[m] = pxi + peta + pzeta - pxi * peta - pxi * pzeta - peta * pzeta + pxi * peta * pzeta;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialize_sets_exact_boundaries() {
        let c = CfdConstants::new(8, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(8);
        f.initialize(&c, &pool);
        // Check a boundary point matches the exact solution exactly.
        let e = exact_solution(0.0, c.coord(3), c.coord(5));
        for m in 0..5 {
            assert_eq!(f.u[(5, 3, 0, m)], e[m], "component {m}");
        }
    }

    #[test]
    fn interior_guess_is_bounded_by_problem_scale() {
        let c = CfdConstants::new(8, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(8);
        f.initialize(&c, &pool);
        for &v in f.u.flat() {
            // The transfinite blend of O(10) face values can reach O(10^3)
            // for the energy component; it must stay finite and bounded.
            assert!(v.is_finite() && v.abs() < 5000.0, "wild initial value {v}");
        }
    }

    #[test]
    fn aux_fields_are_consistent_with_state() {
        let c = CfdConstants::new(8, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(8);
        f.initialize(&c, &pool);
        f.compute_aux(&pool);
        let (i, j, k) = (3, 4, 2);
        let rho = f.u[(k, j, i, 0)];
        assert!((f.rho_i[(k, j, i)] - 1.0 / rho).abs() < 1e-15);
        assert!((f.us[(k, j, i)] - f.u[(k, j, i, 1)] / rho).abs() < 1e-15);
        let q = 0.5
            * (f.u[(k, j, i, 1)].powi(2) + f.u[(k, j, i, 2)].powi(2) + f.u[(k, j, i, 3)].powi(2))
            / rho;
        assert!((f.square[(k, j, i)] - q).abs() < 1e-12);
    }

    #[test]
    fn initialization_is_thread_invariant() {
        let c = CfdConstants::new(8, 0.01);
        let mut f1 = Fields::new(8);
        f1.initialize(&c, &Pool::new(1));
        let mut f3 = Fields::new(8);
        f3.initialize(&c, &Pool::new(3));
        assert_eq!(f1.u.flat(), f3.u.flat());
    }
}
