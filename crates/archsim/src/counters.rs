//! Per-core mergeable counter sets.
//!
//! The simulator's run-global quantities (hierarchy service counts, TLB
//! misses, DRAM queue occupancy, stall cycles) become per-core
//! [`CoreCounters`] that merge with `+`: summing the per-core sets of a
//! run reproduces the run-global totals exactly, which is what the
//! `--metrics` export and its consistency tests rely on. Phase-boundary
//! snapshots are deltas, so phase counters likewise sum to the run total.

use crate::cache::CacheStats;
use crate::stall::StallAccount;

/// Per-level service counts through a cache hierarchy: how many accesses
/// were satisfied at each level. Mergeable with `+`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyCounters {
    /// Total accesses issued.
    pub accesses: u64,
    /// Accesses satisfied by L1.
    pub l1_hits: u64,
    /// Accesses satisfied by L2.
    pub l2_hits: u64,
    /// Accesses satisfied by L3.
    pub l3_hits: u64,
    /// Accesses that went to DRAM.
    pub dram: u64,
}

impl HierarchyCounters {
    /// Counts must partition: every access is served somewhere.
    pub fn is_consistent(&self) -> bool {
        self.l1_hits + self.l2_hits + self.l3_hits + self.dram == self.accesses
    }
}

impl std::ops::Add for HierarchyCounters {
    type Output = HierarchyCounters;
    fn add(self, rhs: HierarchyCounters) -> HierarchyCounters {
        HierarchyCounters {
            accesses: self.accesses + rhs.accesses,
            l1_hits: self.l1_hits + rhs.l1_hits,
            l2_hits: self.l2_hits + rhs.l2_hits,
            l3_hits: self.l3_hits + rhs.l3_hits,
            dram: self.dram + rhs.dram,
        }
    }
}

impl std::ops::AddAssign for HierarchyCounters {
    fn add_assign(&mut self, rhs: HierarchyCounters) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for HierarchyCounters {
    fn sum<I: Iterator<Item = HierarchyCounters>>(iter: I) -> HierarchyCounters {
        iter.fold(HierarchyCounters::default(), |a, b| a + b)
    }
}

/// Time-weighted DRAM queue occupancy: `weighted_depth` accumulates
/// `depth × duration`, so `avg_depth()` is the duration-weighted mean and
/// merging two intervals (or two cores' contributions) is plain addition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueOccupancy {
    /// Σ depth·duration (requests × seconds).
    pub weighted_depth: f64,
    /// Σ duration (seconds).
    pub time: f64,
}

impl QueueOccupancy {
    /// Record `duration_s` seconds at queue depth `depth`.
    pub fn observe(&mut self, depth: f64, duration_s: f64) {
        self.weighted_depth += depth * duration_s;
        self.time += duration_s;
    }

    /// Duration-weighted mean queue depth (0 if nothing observed).
    pub fn avg_depth(&self) -> f64 {
        if self.time == 0.0 {
            0.0
        } else {
            self.weighted_depth / self.time
        }
    }
}

impl std::ops::Add for QueueOccupancy {
    type Output = QueueOccupancy;
    fn add(self, rhs: QueueOccupancy) -> QueueOccupancy {
        QueueOccupancy {
            weighted_depth: self.weighted_depth + rhs.weighted_depth,
            time: self.time + rhs.time,
        }
    }
}

impl std::ops::AddAssign for QueueOccupancy {
    fn add_assign(&mut self, rhs: QueueOccupancy) {
        *self = *self + rhs;
    }
}

/// The full per-core counter set, snapshotted at phase boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreCounters {
    /// Cache-hierarchy service counts for this core's accesses.
    pub hierarchy: HierarchyCounters,
    /// TLB hit/miss counters.
    pub tlb: CacheStats,
    /// DRAM queue occupancy attributable to this core.
    pub dram_queue: QueueOccupancy,
    /// Stall-cycle breakdown for this core.
    pub stalls: StallAccount,
}

impl std::ops::Add for CoreCounters {
    type Output = CoreCounters;
    fn add(self, rhs: CoreCounters) -> CoreCounters {
        CoreCounters {
            hierarchy: self.hierarchy + rhs.hierarchy,
            tlb: self.tlb + rhs.tlb,
            dram_queue: self.dram_queue + rhs.dram_queue,
            stalls: self.stalls + rhs.stalls,
        }
    }
}

impl std::ops::AddAssign for CoreCounters {
    fn add_assign(&mut self, rhs: CoreCounters) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for CoreCounters {
    fn sum<I: Iterator<Item = CoreCounters>>(iter: I) -> CoreCounters {
        iter.fold(CoreCounters::default(), |a, b| a + b)
    }
}

/// Counters for one named phase across all cores: `per_core[i]` is core
/// `i`'s activity within the phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseCounters {
    /// Phase name (matches the benchmark's `PhaseProfile` name).
    pub phase: String,
    /// One counter set per core.
    pub per_core: Vec<CoreCounters>,
}

impl PhaseCounters {
    /// Sum over cores: the phase's chip-global counters.
    #[cfg(test)]
    pub(crate) fn total(&self) -> CoreCounters {
        self.per_core.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> CoreCounters {
        let mut stalls = StallAccount::default();
        stalls.add_phase(seed as f64, (seed / 2) as f64, (seed / 4) as f64, 1.0, 0.95);
        let mut q = QueueOccupancy::default();
        q.observe(seed as f64, 2.0);
        CoreCounters {
            hierarchy: HierarchyCounters {
                accesses: 10 * seed,
                l1_hits: 5 * seed,
                l2_hits: 3 * seed,
                l3_hits: seed,
                dram: seed,
            },
            tlb: CacheStats {
                accesses: 10 * seed,
                misses: seed,
            },
            dram_queue: q,
            stalls,
        }
    }

    #[test]
    fn per_core_sets_sum_to_global() {
        let cores: Vec<CoreCounters> = (1..=8).map(sample).collect();
        let total: CoreCounters = cores.iter().copied().sum();
        let sum_1_to_8 = 36u64;
        assert_eq!(total.hierarchy.accesses, 10 * sum_1_to_8);
        assert_eq!(total.hierarchy.dram, sum_1_to_8);
        assert_eq!(total.tlb.misses, sum_1_to_8);
        assert!(total.hierarchy.is_consistent());
    }

    #[test]
    fn queue_occupancy_mean_is_duration_weighted() {
        let mut q = QueueOccupancy::default();
        q.observe(10.0, 1.0);
        q.observe(2.0, 3.0);
        assert!((q.avg_depth() - 4.0).abs() < 1e-12);
        assert_eq!(QueueOccupancy::default().avg_depth(), 0.0);
    }

    #[test]
    fn phase_total_matches_manual_sum() {
        let p = PhaseCounters {
            phase: "spmv-stream".to_string(),
            per_core: (1..=4).map(sample).collect(),
        };
        let t = p.total();
        assert_eq!(t.hierarchy.accesses, 100);
        assert!((t.dram_queue.avg_depth() - 2.5).abs() < 1e-12);
    }
}
