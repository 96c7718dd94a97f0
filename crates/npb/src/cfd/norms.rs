//! RMS norms used by the pseudo-applications' verification
//! (NPB `error_norm` / `rhs_norm`).

use rvhpc_parallel::Pool;

use crate::cfd::constants::CfdConstants;
use crate::cfd::exact::exact_solution;
use crate::cfd::fields::Fields;

/// Per-component RMS of `u − u_exact` over the grid, normalized by the
/// interior extent (NPB `error_norm`).
pub(crate) fn error_norm(f: &Fields, c: &CfdConstants, pool: &Pool) -> [f64; 5] {
    let n = f.n;
    let uf = f.u.flat();
    let sums = pool.run(|team| {
        let mut local = [0.0f64; 5];
        for k in team.static_range(0, n) {
            let zeta = c.coord(k);
            for j in 0..n {
                let eta = c.coord(j);
                for i in 0..n {
                    let xi = c.coord(i);
                    let e = exact_solution(xi, eta, zeta);
                    let b = ((k * n + j) * n + i) * 5;
                    for m in 0..5 {
                        let d = uf[b + m] - e[m];
                        local[m] += d * d;
                    }
                }
            }
        }
        team.reduce_f64_vec(&local)
    });
    finalize(&sums[0], n)
}

/// Per-component RMS of the rhs over the interior (NPB `rhs_norm`).
pub(crate) fn rhs_norm(f: &Fields, pool: &Pool) -> [f64; 5] {
    let n = f.n;
    let rf = f.rhs.flat();
    let sums = pool.run(|team| {
        let mut local = [0.0f64; 5];
        for k in team.static_range(1, n - 1) {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let b = ((k * n + j) * n + i) * 5;
                    for m in 0..5 {
                        local[m] += rf[b + m] * rf[b + m];
                    }
                }
            }
        }
        team.reduce_f64_vec(&local)
    });
    finalize(&sums[0], n)
}

/// NPB normalization: divide by each interior extent, then sqrt.
fn finalize(sums: &[f64], n: usize) -> [f64; 5] {
    let denom = (n - 2) as f64;
    let mut out = [0.0f64; 5];
    for (o, &s) in out.iter_mut().zip(sums) {
        *o = (s / denom / denom / denom).sqrt();
    }
    out
}

/// Aggregate a 5-vector norm into one scalar for golden-value pinning.
pub(crate) fn norm_scalar(v: &[f64; 5]) -> f64 {
    v.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::rhs;

    #[test]
    fn error_norm_is_zero_for_exact_state() {
        let n = 8;
        let c = CfdConstants::new(n, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(n);
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
        let err = error_norm(&f, &c, &pool);
        assert!(err.iter().all(|&v| v == 0.0), "{err:?}");
    }

    #[test]
    fn rhs_norm_vanishes_at_steady_state() {
        let n = 8;
        let c = CfdConstants::new(n, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(n);
        f.initialize(&c, &pool);
        rhs::compute_forcing(&mut f, &c, &pool);
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
        rhs::compute_rhs(&mut f, &c, &pool);
        let r = rhs_norm(&f, &pool);
        assert!(r.iter().all(|&v| v < 1e-11), "{r:?}");
    }

    #[test]
    fn initial_guess_has_nonzero_error() {
        let n = 8;
        let c = CfdConstants::new(n, 0.01);
        let pool = Pool::new(2);
        let mut f = Fields::new(n);
        f.initialize(&c, &pool);
        let err = error_norm(&f, &c, &pool);
        assert!(err.iter().any(|&v| v > 1e-4), "{err:?}");
    }
}
