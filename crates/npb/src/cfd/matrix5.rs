//! 5×5 block operations for the implicit solvers (NPB `solve_subs.f`:
//! `matmul_sub`, `matvec_sub`, `binvcrhs`, `binvrhs`).

/// A dense 5×5 block, row-major.
pub(crate) type Mat5 = [[f64; 5]; 5];
/// A 5-vector.
pub(crate) type Vec5 = [f64; 5];

/// The identity block.
pub(crate) const IDENTITY: Mat5 = {
    let mut m = [[0.0; 5]; 5];
    let mut i = 0;
    while i < 5 {
        m[i][i] = 1.0;
        i += 1;
    }
    m
};

/// `c -= a · b` (NPB `matmul_sub`).
#[inline]
pub(crate) fn matmul_sub(a: &Mat5, b: &Mat5, c: &mut Mat5) {
    for i in 0..5 {
        for j in 0..5 {
            let mut s = 0.0;
            for k in 0..5 {
                s += a[i][k] * b[k][j];
            }
            c[i][j] -= s;
        }
    }
}

/// `v -= a · x` (NPB `matvec_sub`).
#[inline]
pub(crate) fn matvec_sub(a: &Mat5, x: &Vec5, v: &mut Vec5) {
    for i in 0..5 {
        let mut s = 0.0;
        for k in 0..5 {
            s += a[i][k] * x[k];
        }
        v[i] -= s;
    }
}

/// Gauss–Jordan: transform `c ← b⁻¹·c` and `r ← b⁻¹·r`, destroying `b`
/// (NPB `binvcrhs`; no pivoting, as in the reference — the blocks are
/// strongly diagonally dominant for stable time steps).
pub(crate) fn binvcrhs(b: &mut Mat5, c: &mut Mat5, r: &mut Vec5) {
    for p in 0..5 {
        let pivot = 1.0 / b[p][p];
        for j in p + 1..5 {
            b[p][j] *= pivot;
        }
        for j in 0..5 {
            c[p][j] *= pivot;
        }
        r[p] *= pivot;
        for i in 0..5 {
            if i == p {
                continue;
            }
            let coeff = b[i][p];
            for j in p + 1..5 {
                b[i][j] -= coeff * b[p][j];
            }
            for j in 0..5 {
                c[i][j] -= coeff * c[p][j];
            }
            r[i] -= coeff * r[p];
        }
    }
}

/// Gauss–Jordan: `r ← b⁻¹·r`, destroying `b` (NPB `binvrhs`).
pub(crate) fn binvrhs(b: &mut Mat5, r: &mut Vec5) {
    for p in 0..5 {
        let pivot = 1.0 / b[p][p];
        for j in p + 1..5 {
            b[p][j] *= pivot;
        }
        r[p] *= pivot;
        for i in 0..5 {
            if i == p {
                continue;
            }
            let coeff = b[i][p];
            for j in p + 1..5 {
                b[i][j] -= coeff * b[p][j];
            }
            r[i] -= coeff * r[p];
        }
    }
}

/// Solve `a·x = r` in place with partial pivoting (`r ← a⁻¹·r`,
/// destroying `a`). For matrices that are not diagonally dominant — SP's
/// eigenvector matrices have structural zeros on the diagonal, and its
/// tests check the closed-form inverse against this solve.
#[cfg(test)]
pub(crate) fn solve5_pivot(a: &mut Mat5, r: &mut Vec5) {
    for p in 0..5 {
        // Partial pivot.
        let mut best = p;
        for i in p + 1..5 {
            if a[i][p].abs() > a[best][p].abs() {
                best = i;
            }
        }
        if best != p {
            a.swap(p, best);
            r.swap(p, best);
        }
        let pivot = 1.0 / a[p][p];
        for j in p..5 {
            a[p][j] *= pivot;
        }
        r[p] *= pivot;
        for i in 0..5 {
            if i == p {
                continue;
            }
            let coeff = a[i][p];
            if coeff == 0.0 {
                continue;
            }
            for j in p..5 {
                a[i][j] -= coeff * a[p][j];
            }
            r[i] -= coeff * r[p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_matrix() -> Mat5 {
        // Diagonally dominant, non-symmetric.
        let mut m = [[0.0; 5]; 5];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if i == j {
                    6.0 + i as f64
                } else {
                    0.3 * ((i * 5 + j) as f64).sin()
                };
            }
        }
        m
    }

    fn matvec(a: &Mat5, x: &Vec5) -> Vec5 {
        let mut out = [0.0; 5];
        for i in 0..5 {
            for k in 0..5 {
                out[i] += a[i][k] * x[k];
            }
        }
        out
    }

    #[test]
    fn binvrhs_solves_linear_system() {
        let a = test_matrix();
        let x_true = [1.0, -2.0, 0.5, 3.0, -0.25];
        let mut r = matvec(&a, &x_true);
        let mut b = a;
        binvrhs(&mut b, &mut r);
        for (got, want) in r.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12, "{r:?}");
        }
    }

    #[test]
    fn binvcrhs_applies_inverse_to_both() {
        let a = test_matrix();
        let c0 = {
            let mut c = test_matrix();
            c[0][0] = 9.0;
            c
        };
        let x_true = [0.5, 1.5, -1.0, 2.0, 0.0];
        let mut r = matvec(&a, &x_true);
        let mut b = a;
        let mut c = c0;
        binvcrhs(&mut b, &mut c, &mut r);
        // r == x_true
        for (got, want) in r.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
        // a · c == c0
        let mut recon = [[0.0; 5]; 5];
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    recon[i][j] += a[i][k] * c[k][j];
                }
            }
        }
        for i in 0..5 {
            for j in 0..5 {
                assert!((recon[i][j] - c0[i][j]).abs() < 1e-11, "({i},{j})");
            }
        }
    }

    #[test]
    fn matmul_sub_subtracts_product() {
        let a = test_matrix();
        let b = test_matrix();
        let mut c = [[1.0; 5]; 5];
        matmul_sub(&a, &b, &mut c);
        // c = 1 - a·b; verify one entry by hand.
        let mut ab00 = 0.0;
        for k in 0..5 {
            ab00 += a[0][k] * b[k][0];
        }
        assert!((c[0][0] - (1.0 - ab00)).abs() < 1e-12);
    }

    #[test]
    fn matvec_sub_subtracts_product() {
        let a = test_matrix();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut v = [10.0; 5];
        matvec_sub(&a, &x, &mut v);
        let ax = matvec(&a, &x);
        for i in 0..5 {
            assert!((v[i] - (10.0 - ax[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn solve5_pivot_handles_zero_diagonal() {
        // Permutation-like matrix with zero diagonal entries.
        let mut a = [[0.0f64; 5]; 5];
        a[0][1] = 1.0;
        a[1][0] = 2.0;
        a[2][3] = 1.0;
        a[3][2] = -1.0;
        a[4][4] = 3.0;
        let x_true = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut r = matvec(&a, &x_true);
        solve5_pivot(&mut a, &mut r);
        for (got, want) in r.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12, "{r:?}");
        }
    }

    #[test]
    fn identity_is_identity() {
        let x = [1.0, -1.0, 2.0, -2.0, 3.0];
        let got = matvec(&IDENTITY, &x);
        assert_eq!(got, x);
    }

    proptest! {
        /// The pivoting solver inverts arbitrary well-conditioned systems:
        /// generate a random matrix, make it diagonally dominant enough to
        /// be safely invertible, and check `solve(A, A·x) == x`.
        #[test]
        fn solve5_pivot_recovers_solutions(
            entries in prop::array::uniform32(-1.0f64..1.0),
            x_true in prop::array::uniform5(-10.0f64..10.0),
        ) {
            let mut a = [[0.0f64; 5]; 5];
            for i in 0..5 {
                for j in 0..5 {
                    a[i][j] = entries[i * 5 + j];
                }
                a[i][i] += if a[i][i] >= 0.0 { 6.0 } else { -6.0 };
            }
            let mut r = matvec(&a, &x_true);
            let mut work = a;
            solve5_pivot(&mut work, &mut r);
            for k in 0..5 {
                prop_assert!((r[k] - x_true[k]).abs() < 1e-8, "{r:?} vs {x_true:?}");
            }
        }

        /// binvcrhs and solve5_pivot agree on diagonally dominant systems
        /// (where the no-pivot elimination is valid).
        #[test]
        fn binvcrhs_matches_pivoting_solver(
            entries in prop::array::uniform32(-0.5f64..0.5),
            rhs in prop::array::uniform5(-5.0f64..5.0),
        ) {
            let mut a = [[0.0f64; 5]; 5];
            for i in 0..5 {
                for j in 0..5 {
                    a[i][j] = entries[i * 5 + j];
                }
                a[i][i] += 4.0;
            }
            let mut r1 = rhs;
            let mut w1 = a;
            binvrhs(&mut w1, &mut r1);
            let mut r2 = rhs;
            let mut w2 = a;
            solve5_pivot(&mut w2, &mut r2);
            for k in 0..5 {
                prop_assert!((r1[k] - r2[k]).abs() < 1e-9);
            }
        }
    }
}
