//! Benchmark results and verification outcomes.

use crate::common::class::Class;

/// Where a verification reference value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A constant published in the NPB reference sources.
    NpbReference,
    /// A golden value recorded from this implementation (used where the
    /// published constant tables could not be faithfully reconstructed —
    /// documented in DESIGN.md §2).
    SelfReference,
    /// No reference value exists; only internal invariants were checked.
    InvariantOnly,
}

/// Outcome of a benchmark's verification step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VerifyStatus {
    /// Computed value matched the reference within NPB's epsilon.
    Passed {
        provenance: Provenance,
        /// Relative error against the reference.
        relative_error: f64,
    },
    /// Computed value did not match.
    Failed {
        provenance: Provenance,
        computed: f64,
        reference: f64,
    },
    /// The class has no reference value; internal invariants held.
    InvariantsHeld,
}

impl VerifyStatus {
    /// Whether verification is considered successful.
    pub fn passed(&self) -> bool {
        matches!(
            self,
            VerifyStatus::Passed { .. } | VerifyStatus::InvariantsHeld
        )
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name ("IS", "MG", ...).
    pub name: &'static str,
    pub class: Class,
    /// Threads used.
    pub threads: usize,
    /// Wall-clock seconds of the timed section (NPB timing rules: setup
    /// and untimed warm-up iterations excluded).
    pub time_seconds: f64,
    /// Millions of operations per second, using the official NPB operation
    /// count for this benchmark and class.
    pub mops: f64,
    pub verified: VerifyStatus,
    /// Benchmark-specific scalar used in verification (zeta for CG, sum
    /// checksum magnitude for FT/EP, residual norm for MG, ...).
    pub check_value: f64,
}

impl BenchResult {
    /// Human-readable single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} class {} [{} thread{}]: {:.3}s, {:.2} Mop/s, verification {}",
            self.name,
            self.class.name(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.time_seconds,
            self.mops,
            if self.verified.passed() {
                "PASSED"
            } else {
                "FAILED"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passed_statuses() {
        assert!(VerifyStatus::Passed {
            provenance: Provenance::NpbReference,
            relative_error: 1e-12
        }
        .passed());
        assert!(VerifyStatus::InvariantsHeld.passed());
        assert!(!VerifyStatus::Failed {
            provenance: Provenance::NpbReference,
            computed: 1.0,
            reference: 2.0
        }
        .passed());
    }

    #[test]
    fn summary_renders() {
        let r = BenchResult {
            name: "EP",
            class: Class::S,
            threads: 4,
            time_seconds: 1.5,
            mops: 123.4,
            verified: VerifyStatus::InvariantsHeld,
            check_value: 0.0,
        };
        let s = r.summary();
        assert!(s.contains("EP class S"));
        assert!(s.contains("PASSED"));
    }
}
