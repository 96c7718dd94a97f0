//! NPB epsilon verification.

use crate::common::result::{Provenance, VerifyStatus};

/// NPB's standard verification tolerance (relative).
pub(crate) const EPSILON: f64 = 1.0e-8;

/// Looser tolerance used for values accumulated across many
/// order-sensitive parallel reductions (NPB uses 1e-8 for serial runs; the
/// OpenMP versions accept reduction reordering, and so do we).
pub(crate) const EPSILON_RELAXED: f64 = 1.0e-6;

/// Compare `computed` against `reference` with relative tolerance `eps`.
pub fn check(computed: f64, reference: f64, eps: f64, provenance: Provenance) -> VerifyStatus {
    let denom = if reference == 0.0 {
        1.0
    } else {
        reference.abs()
    };
    let rel = ((computed - reference) / denom).abs();
    if rel <= eps {
        VerifyStatus::Passed {
            provenance,
            relative_error: rel,
        }
    } else {
        VerifyStatus::Failed {
            provenance,
            computed,
            reference,
        }
    }
}

/// Verify against an NPB-published constant.
pub fn check_npb(computed: f64, reference: f64) -> VerifyStatus {
    check(computed, reference, EPSILON, Provenance::NpbReference)
}

/// Hold `value` to the bit patterns recorded from an earlier port on 1, 2
/// and 3 threads. A team adds its members' partial sums in `tid` order, so
/// the last bits depend on the team size and on nothing else.
#[cfg(test)]
pub(crate) fn assert_pinned_bits(
    what: &str,
    pins: &[(crate::Class, [u64; 3])],
    value: impl Fn(crate::Class, &rvhpc_parallel::Pool) -> f64,
) {
    for &(class, bits) in pins {
        for (nt, want) in (1..).zip(bits) {
            let got = value(class, &rvhpc_parallel::Pool::new(nt)).to_bits();
            assert!(
                got == want,
                "{what} {} on {nt} threads: bits {got:#018x}, pinned {want:#018x}",
                class.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_passes() {
        assert!(check_npb(1.25, 1.25).passed());
    }

    #[test]
    fn within_epsilon_passes() {
        assert!(check_npb(1.0 + 0.5e-8, 1.0).passed());
    }

    #[test]
    fn outside_epsilon_fails() {
        assert!(!check_npb(1.0 + 1e-6, 1.0).passed());
    }

    #[test]
    fn zero_reference_uses_absolute_error() {
        assert!(check_npb(1e-12, 0.0).passed());
        assert!(!check_npb(1e-3, 0.0).passed());
    }

    #[test]
    fn relative_error_reported() {
        match check_npb(2.0, 1.0) {
            VerifyStatus::Failed {
                computed,
                reference,
                ..
            } => {
                assert_eq!(computed, 2.0);
                assert_eq!(reference, 1.0);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }
}
