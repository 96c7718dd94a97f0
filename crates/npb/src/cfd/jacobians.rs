//! Flux and viscous Jacobians of the Navier–Stokes operator
//! (NPB `x_solve.f`/`y_solve.f`/`z_solve.f` `fjac`/`njac` blocks, written
//! direction-generically: the direction's own momentum component plays the
//! role NPB's unrolled code gives `u(2)`, `u(3)` or `u(4)`).

use crate::cfd::constants::CfdConstants;
use crate::cfd::matrix5::Mat5;
use crate::cfd::rhs::Direction;

/// Inviscid flux Jacobian `A_d = ∂F_d/∂U` at a point with conserved state
/// `u` (ρ, ρu, ρv, ρw, E).
pub(crate) fn flux_jacobian(u: &[f64], dir: Direction, c: &CfdConstants) -> Mat5 {
    debug_assert_eq!(u.len(), 5);
    let d = dir.momentum(); // 1, 2, or 3
    let t1 = 1.0 / u[0];
    // Velocities.
    let vel = [u[1] * t1, u[2] * t1, u[3] * t1];
    let w = vel[d - 1]; // advecting velocity
    let q = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);

    let mut a = [[0.0f64; 5]; 5];
    // Continuity row: ∂(ρ w)/∂U.
    a[0][d] = 1.0;
    // Momentum rows.
    for m in 1..4 {
        if m == d {
            a[m][0] = -w * w + c.c2 * q;
            for mm in 1..4 {
                a[m][mm] = if mm == d {
                    (2.0 - c.c2) * w
                } else {
                    -c.c2 * vel[mm - 1]
                };
            }
            a[m][4] = c.c2;
        } else {
            a[m][0] = -vel[m - 1] * w;
            a[m][m] = w;
            a[m][d] = vel[m - 1];
        }
    }
    // Energy row.
    a[4][0] = (c.c2 * 2.0 * q - c.c1 * u[4] * t1) * w;
    for mm in 1..4 {
        a[4][mm] = if mm == d {
            c.c1 * u[4] * t1 - c.c2 * (q + w * w)
        } else {
            -c.c2 * vel[mm - 1] * w
        };
    }
    a[4][4] = c.c1 * w;
    a
}

/// Viscous Jacobian `N_d` at a point (NPB `njac`): diagonal-dominant block
/// whose normal component carries the 4/3 factor.
pub(crate) fn viscous_jacobian(u: &[f64], dir: Direction, c: &CfdConstants) -> Mat5 {
    debug_assert_eq!(u.len(), 5);
    let d = dir.momentum();
    let t1 = 1.0 / u[0];
    let t2 = t1 * t1;
    let t3 = t1 * t2;
    let mut nj = [[0.0f64; 5]; 5];
    for m in 1..4 {
        let coef = if m == d { c.con43 * c.c3c4 } else { c.c3c4 };
        nj[m][0] = -coef * t2 * u[m];
        nj[m][m] = coef * t1;
    }
    // Energy row.
    let cn = c.con43 * c.c3c4;
    let cd = c.c3c4;
    let c1345 = c.c1345;
    let mut e0 = -c1345 * t2 * u[4];
    for m in 1..4 {
        let coef = if m == d { cn } else { cd };
        e0 -= (coef - c1345) * t3 * u[m] * u[m];
    }
    nj[4][0] = e0;
    for m in 1..4 {
        let coef = if m == d { cn } else { cd };
        nj[4][m] = (coef - c1345) * t2 * u[m];
    }
    nj[4][4] = c1345 * t1;
    nj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::exact::exact_solution;
    use crate::cfd::matrix5::Vec5;

    fn consts() -> CfdConstants {
        CfdConstants::new(12, 0.001)
    }

    /// The x-direction inviscid flux for state `u`.
    fn flux_x(u: &Vec5, c: &CfdConstants) -> Vec5 {
        let rho_i = 1.0 / u[0];
        let vx = u[1] * rho_i;
        let q = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) * rho_i;
        let p = c.c2 * (u[4] - q);
        [u[1], u[1] * vx + p, u[2] * vx, u[3] * vx, (u[4] + p) * vx]
    }

    #[test]
    fn flux_jacobian_matches_finite_differences() {
        let c = consts();
        let u0 = exact_solution(0.3, 0.6, 0.2);
        let a = flux_jacobian(&u0, Direction::X, &c);
        let eps = 1e-7;
        for col in 0..5 {
            let mut up = u0;
            let mut um = u0;
            up[col] += eps;
            um[col] -= eps;
            let fp = flux_x(&up, &c);
            let fm = flux_x(&um, &c);
            for row in 0..5 {
                let fd = (fp[row] - fm[row]) / (2.0 * eps);
                assert!(
                    (a[row][col] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                    "A[{row}][{col}] = {} vs FD {fd}",
                    a[row][col]
                );
            }
        }
    }

    #[test]
    fn jacobians_permute_consistently_across_directions() {
        // Swapping the y and z components of the state must map B into C.
        let c = consts();
        let u = exact_solution(0.4, 0.1, 0.8);
        let mut u_swapped = u;
        u_swapped.swap(2, 3);
        let b = flux_jacobian(&u, Direction::Y, &c);
        let c_mat = flux_jacobian(&u_swapped, Direction::Z, &c);
        // Permutation matrix swapping rows/cols 2 and 3.
        let perm = |i: usize| match i {
            2 => 3,
            3 => 2,
            other => other,
        };
        for i in 0..5 {
            for j in 0..5 {
                let lhs = b[i][j];
                let rhs = c_mat[perm(i)][perm(j)];
                assert!(
                    (lhs - rhs).abs() < 1e-12,
                    "B[{i}][{j}] = {lhs} vs permuted C = {rhs}"
                );
            }
        }
    }

    #[test]
    fn viscous_jacobian_has_zero_continuity_row() {
        let c = consts();
        let u = exact_solution(0.5, 0.5, 0.5);
        for dir in Direction::ALL {
            let nj = viscous_jacobian(&u, dir, &c);
            assert!(nj[0].iter().all(|&v| v == 0.0), "{dir:?}");
            // Normal momentum diagonal carries the 4/3 factor.
            let d = dir.momentum();
            let normal = nj[d][d];
            for m in 1..4 {
                if m != d {
                    assert!(
                        (normal / nj[m][m] - c.con43).abs() < 1e-12,
                        "{dir:?}: normal/transverse ratio"
                    );
                }
            }
        }
    }
}
