//! The NPB pseudo-application exact solution.
//!
//! A per-component tri-variate cubic polynomial over the unit cube; the
//! 5×13 coefficient table is NPB's `ce` (from `set_constants`).

/// NPB's `ce` coefficient table (`ce[m][j]` = coefficient j of component
/// m, as in `bt.f`/`sp.f`/`lu.f` `set_constants`).
pub(crate) const CE: [[f64; 13]; 5] = [
    [
        2.0, 0.0, 0.0, 4.0, 5.0, 3.0, 0.5, 0.02, 0.01, 0.03, 0.5, 0.4, 0.3,
    ],
    [
        1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 0.01, 0.03, 0.02, 0.4, 0.3, 0.5,
    ],
    [
        2.0, 2.0, 0.0, 0.0, 0.0, 2.0, 3.0, 0.04, 0.03, 0.05, 0.3, 0.5, 0.4,
    ],
    [
        2.0, 2.0, 0.0, 0.0, 0.0, 2.0, 3.0, 0.03, 0.05, 0.04, 0.2, 0.1, 0.3,
    ],
    [
        5.0, 4.0, 3.0, 2.0, 0.1, 0.4, 0.3, 0.05, 0.04, 0.03, 0.1, 0.3, 0.2,
    ],
];

/// Evaluate the exact solution at normalized coordinates
/// `(xi, eta, zeta) ∈ [0,1]³` (NPB `exact_solution`).
#[inline]
pub(crate) fn exact_solution(xi: f64, eta: f64, zeta: f64) -> [f64; 5] {
    let mut out = [0.0f64; 5];
    for (m, o) in out.iter_mut().enumerate() {
        let ce = &CE[m];
        *o = ce[0]
            + xi * (ce[1] + xi * (ce[4] + xi * (ce[7] + xi * ce[10])))
            + eta * (ce[2] + eta * (ce[5] + eta * (ce[8] + eta * ce[11])))
            + zeta * (ce[3] + zeta * (ce[6] + zeta * (ce[9] + zeta * ce[12])));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_values_are_the_constant_terms() {
        let v = exact_solution(0.0, 0.0, 0.0);
        assert_eq!(v, [2.0, 1.0, 2.0, 2.0, 5.0]);
    }

    #[test]
    fn density_is_positive_over_the_cube() {
        // Component 0 (density) must stay positive everywhere — required
        // for the flux Jacobians to be well-defined.
        for i in 0..=10 {
            for j in 0..=10 {
                for k in 0..=10 {
                    let v = exact_solution(i as f64 / 10.0, j as f64 / 10.0, k as f64 / 10.0);
                    assert!(v[0] > 0.5, "rho {} at ({i},{j},{k})", v[0]);
                    // Energy must dominate kinetic energy (positive
                    // pressure).
                    let q = 0.5 * (v[1] * v[1] + v[2] * v[2] + v[3] * v[3]) / v[0];
                    assert!(v[4] > q, "non-positive pressure at ({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn polynomial_is_separable_by_construction() {
        // f(xi,0,0) + f(0,eta,0) + f(0,0,zeta) - 2*f(0,0,0) == f(xi,eta,zeta)
        let (xi, eta, zeta) = (0.3, 0.7, 0.2);
        let full = exact_solution(xi, eta, zeta);
        let fx = exact_solution(xi, 0.0, 0.0);
        let fy = exact_solution(0.0, eta, 0.0);
        let fz = exact_solution(0.0, 0.0, zeta);
        let f0 = exact_solution(0.0, 0.0, 0.0);
        for m in 0..5 {
            let sum = fx[m] + fy[m] + fz[m] - 2.0 * f0[m];
            assert!((sum - full[m]).abs() < 1e-12, "component {m}");
        }
    }
}
