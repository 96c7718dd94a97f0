//! Stall-cycle accounting — the quantities of the paper's Table 1.
//!
//! For each benchmark the paper reports (measured with VTune on the Xeon
//! 8170): the fraction of clock ticks stalled on *cache* (on-chip levels),
//! the fraction stalled on *DDR*, and the fraction of wall time the DRAM
//! bandwidth was nearly saturated. This module assembles those three
//! numbers from the hierarchy/DRAM/pipeline models' outputs.

/// Accumulated cycle accounting for one benchmark run (model-predicted).
/// Mergeable: `a + b` combines two accounts (two cores, or two phases),
/// so per-core stall breakdowns sum back to the run-global account.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StallAccount {
    /// Busy (issue) cycles.
    pub compute_cycles: f64,
    /// Cycles stalled waiting on L2/L3 (cache) service.
    pub cache_stall_cycles: f64,
    /// Cycles stalled waiting on DRAM.
    pub dram_stall_cycles: f64,
    /// Wall-time fraction with DRAM bandwidth ≥ 90% utilized, weighted by
    /// phase duration (accumulated as `Σ duration·[u ≥ 0.9]`).
    pub bw_bound_time: f64,
    /// Total wall time accumulated (seconds).
    pub total_time: f64,
}

impl StallAccount {
    /// Merge a phase's contribution.
    pub fn add_phase(
        &mut self,
        compute: f64,
        cache_stall: f64,
        dram_stall: f64,
        duration_s: f64,
        dram_utilization: f64,
    ) {
        self.compute_cycles += compute;
        self.cache_stall_cycles += cache_stall;
        self.dram_stall_cycles += dram_stall;
        self.total_time += duration_s;
        if dram_utilization >= 0.9 {
            self.bw_bound_time += duration_s;
        }
    }

    /// Merge another account into this one (same semantics as `+`).
    pub(crate) fn merge(&mut self, other: &StallAccount) {
        self.compute_cycles += other.compute_cycles;
        self.cache_stall_cycles += other.cache_stall_cycles;
        self.dram_stall_cycles += other.dram_stall_cycles;
        self.bw_bound_time += other.bw_bound_time;
        self.total_time += other.total_time;
    }

    /// Split this account into `n` equal per-core shares. The shares sum
    /// back to the whole (up to float rounding): the model predicts
    /// chip-level phase behaviour with all cores executing the same SPMD
    /// phase, so the per-core view is the uniform partition.
    pub fn split(&self, n: u32) -> Vec<StallAccount> {
        let n = n.max(1);
        let f = 1.0 / f64::from(n);
        (0..n)
            .map(|_| StallAccount {
                compute_cycles: self.compute_cycles * f,
                cache_stall_cycles: self.cache_stall_cycles * f,
                dram_stall_cycles: self.dram_stall_cycles * f,
                bw_bound_time: self.bw_bound_time * f,
                total_time: self.total_time * f,
            })
            .collect()
    }

    fn total_cycles(&self) -> f64 {
        self.compute_cycles + self.cache_stall_cycles + self.dram_stall_cycles
    }

    /// Table 1 column "Clock ticks cache stall" (percent).
    pub fn cache_stall_pct(&self) -> f64 {
        if self.total_cycles() == 0.0 {
            return 0.0;
        }
        100.0 * self.cache_stall_cycles / self.total_cycles()
    }

    /// Table 1 column "Clock ticks DDR stall" (percent).
    pub fn dram_stall_pct(&self) -> f64 {
        if self.total_cycles() == 0.0 {
            return 0.0;
        }
        100.0 * self.dram_stall_cycles / self.total_cycles()
    }

    /// Table 1 column "Time DDR bandwidth bound" (percent).
    pub fn bw_bound_pct(&self) -> f64 {
        if self.total_time == 0.0 {
            return 0.0;
        }
        100.0 * self.bw_bound_time / self.total_time
    }
}

impl std::ops::Add for StallAccount {
    type Output = StallAccount;
    fn add(mut self, rhs: StallAccount) -> StallAccount {
        self.merge(&rhs);
        self
    }
}

impl std::ops::AddAssign for StallAccount {
    fn add_assign(&mut self, rhs: StallAccount) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for StallAccount {
    fn sum<I: Iterator<Item = StallAccount>>(iter: I) -> StallAccount {
        iter.fold(StallAccount::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_account_reports_zero() {
        let a = StallAccount::default();
        assert_eq!(a.cache_stall_pct(), 0.0);
        assert_eq!(a.dram_stall_pct(), 0.0);
        assert_eq!(a.bw_bound_pct(), 0.0);
    }

    #[test]
    fn percentages_partition_cycles() {
        let mut a = StallAccount::default();
        a.add_phase(60.0, 30.0, 10.0, 1.0, 0.5);
        assert!((a.cache_stall_pct() - 30.0).abs() < 1e-9);
        assert!((a.dram_stall_pct() - 10.0).abs() < 1e-9);
        assert_eq!(a.bw_bound_pct(), 0.0, "u = 0.5 is not bandwidth-bound");
    }

    #[test]
    fn bandwidth_bound_time_is_duration_weighted() {
        let mut a = StallAccount::default();
        a.add_phase(1.0, 0.0, 0.0, 3.0, 0.95); // 3 s bound
        a.add_phase(1.0, 0.0, 0.0, 7.0, 0.2); // 7 s unbound
        assert!((a.bw_bound_pct() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn merging_accumulates() {
        let mut a = StallAccount::default();
        a.add_phase(10.0, 5.0, 5.0, 1.0, 0.0);
        a.add_phase(10.0, 5.0, 5.0, 1.0, 0.0);
        assert_eq!(a.compute_cycles, 20.0);
        assert!((a.cache_stall_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn split_shares_sum_back_to_whole() {
        let mut a = StallAccount::default();
        a.add_phase(64.0, 32.0, 16.0, 8.0, 0.95);
        for n in [1u32, 2, 7, 64] {
            let shares = a.split(n);
            assert_eq!(shares.len(), n as usize);
            let total: StallAccount = shares.into_iter().sum();
            assert!((total.compute_cycles - a.compute_cycles).abs() < 1e-9);
            assert!((total.dram_stall_cycles - a.dram_stall_cycles).abs() < 1e-9);
            assert!((total.bw_bound_time - a.bw_bound_time).abs() < 1e-9);
            assert!((total.total_time - a.total_time).abs() < 1e-9);
        }
    }

    #[test]
    fn add_matches_merge() {
        let mut a = StallAccount::default();
        a.add_phase(10.0, 5.0, 2.0, 1.0, 0.95);
        let mut b = StallAccount::default();
        b.add_phase(4.0, 1.0, 3.0, 2.0, 0.1);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(a + b, merged);
    }
}
