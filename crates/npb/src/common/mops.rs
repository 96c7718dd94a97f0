//! The official NPB operation-count formulas.
//!
//! Every Mop/s figure in the paper divides one of these counts by the
//! measured wall-clock time. The formulas are taken verbatim from the NPB
//! reference sources' `print_results` call sites (`is.c`, `ep.f`, `cg.f`,
//! `mg.f`, `ft.f`, `bt.f`, `sp.f`, `lu.f`).

use crate::common::class::{self, Class};
use crate::BenchmarkId;

/// Total operation count (the Mop/s numerator × 10⁶ is ops; this returns
/// ops) for `bench` at `class`.
pub(crate) fn total_ops(bench: BenchmarkId, class: Class) -> f64 {
    match bench {
        BenchmarkId::Is => {
            let p = class::is_params(class);
            p.iterations as f64 * p.total_keys() as f64
        }
        BenchmarkId::Ep => {
            let m = class::ep_m(class);
            2.0f64.powi(m as i32 + 1)
        }
        BenchmarkId::Cg => {
            let p = class::cg_params(class);
            let nz = p.nonzer as f64 * (p.nonzer as f64 + 1.0);
            2.0 * p.niter as f64 * p.na as f64 * (3.0 + nz + 25.0 * (5.0 + nz) + 3.0)
        }
        BenchmarkId::Mg => {
            let p = class::mg_params(class);
            let nn = (p.n * p.n * p.n) as f64;
            58.0 * p.nit as f64 * nn
        }
        BenchmarkId::Ft => {
            let p = class::ft_params(class);
            let ntf = p.ntotal() as f64;
            ntf * (14.8157 + 7.19641 * ntf.ln() + (5.23518 + 7.21113 * ntf.ln()) * p.niter as f64)
        }
        BenchmarkId::Bt => {
            let p = class::bt_params(class);
            let n = p.problem_size as f64;
            let n3 = n * n * n;
            p.niter as f64 * (3478.8 * n3 - 17655.7 * n * n + 28023.7 * n)
        }
        BenchmarkId::Sp => {
            let p = class::sp_params(class);
            let n = p.problem_size as f64;
            let n3 = n * n * n;
            p.niter as f64 * (881.174 * n3 - 4683.91 * n * n + 11484.5 * n - 19272.4)
        }
        BenchmarkId::Lu => {
            let p = class::lu_params(class);
            let n = p.problem_size as f64;
            let n3 = n * n * n;
            p.niter as f64 * (1984.77 * n3 - 10923.3 * n * n + 27770.9 * n - 144010.0)
        }
    }
}

/// Mop/s for a run of `bench`/`class` that took `seconds`.
pub(crate) fn mops(bench: BenchmarkId, class: Class, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    total_ops(bench, class) / seconds / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_counts_pairs() {
        // EP class C: 2^33 operations.
        assert_eq!(total_ops(BenchmarkId::Ep, Class::C), 2.0f64.powi(33));
    }

    #[test]
    fn is_counts_key_rankings() {
        // 10 iterations over 2^27 keys for class C.
        assert_eq!(
            total_ops(BenchmarkId::Is, Class::C),
            10.0 * (1u64 << 27) as f64
        );
    }

    #[test]
    fn counts_grow_with_class() {
        for b in BenchmarkId::ALL {
            let mut prev = 0.0;
            for c in Class::ALL {
                let ops = total_ops(b, c);
                assert!(ops > prev, "{b:?} ops not monotone at class {c:?}");
                prev = ops;
            }
        }
    }

    #[test]
    fn mops_inverts_time() {
        let ops = total_ops(BenchmarkId::Mg, Class::S);
        let m = mops(BenchmarkId::Mg, Class::S, 2.0);
        assert!((m - ops / 2.0 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn zero_time_is_guarded() {
        assert_eq!(mops(BenchmarkId::Ep, Class::S, 0.0), 0.0);
    }

    #[test]
    fn class_c_magnitudes_are_plausible() {
        // Sanity against the paper: SG2044 64-core MG-C at 32457 Mop/s
        // implies a ~4.8 s run; the op count must be ~1.56e11.
        let mg = total_ops(BenchmarkId::Mg, Class::C);
        assert!((mg / 1e11 - 1.557).abs() < 0.01, "MG C ops {mg:e}");
        // FT class C ≈ 4e11 ops (formula with niter 20, 512³ points);
        // paper: 22582 Mop/s on 64 SG2044 cores → a ~17.6 s run.
        let ft = total_ops(BenchmarkId::Ft, Class::C);
        assert!(ft > 2e11 && ft < 8e11, "FT C ops {ft:e}");
    }
}
