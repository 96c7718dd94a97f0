//! Multi-level trace-driven hierarchy simulation.
//!
//! Chains trace-driven [`Cache`] instances into an L1→L2→L3 hierarchy and
//! replays synthetic address streams through it, producing the same
//! [`MissBreakdown`] quantity the closed-form estimates predict — the
//! cross-validation layer between "fast analytic model" (used at paper
//! scale) and "cycle-free but faithful cache behaviour".

use rvhpc_machines::Machine;

use crate::cache::{Cache, CacheStats, FlatCache, Lines};
use crate::counters::HierarchyCounters;
#[cfg(test)]
use crate::hierarchy::MissBreakdown;
use crate::stream_gen::AddressStream;

/// A three-level (or two-level) cache hierarchy that replays address
/// traces. Caches are non-inclusive: each level is looked up on a miss in
/// the previous one and allocates on miss, mirroring the estimate model's
/// assumptions. The private L1 is one flat array; the L2 and L3 slices
/// (up to a million lines) allocate their blocks as they are touched.
pub struct TraceHierarchy {
    l1: FlatCache,
    l2: Cache,
    l3: Option<Cache>,
}

/// `bytes` of `ways`-way cache with `line`-byte lines, at least one set.
fn sized<L: Lines>(bytes: f64, ways: u32, line: u32) -> Cache<L> {
    let sets = ((bytes / f64::from(line) / f64::from(ways)) as usize).max(1);
    Cache::with_storage(sets, ways as usize, line)
}

impl TraceHierarchy {
    /// Build the hierarchy seen by **one thread of `threads`** on machine
    /// `m`: private L1, its share of the (possibly cluster-shared) L2, and
    /// its share of the L3.
    pub fn for_thread(m: &Machine, threads: u32) -> Self {
        let threads = threads.max(1);
        let line = m.l1d.line_bytes;
        let l2_sharers = threads.min(m.l2.shared_by_cores).max(1);
        let l2 = sized(
            m.l2.size_bytes as f64 / f64::from(l2_sharers),
            m.l2.associativity,
            line,
        );
        let l3 = m.l3.as_ref().map(|l3| {
            let sharers = threads.min(l3.shared_by_cores).max(1);
            sized(
                l3.size_bytes as f64 / f64::from(sharers),
                l3.associativity,
                line,
            )
        });
        Self {
            l1: FlatCache::new(&m.l1d),
            l2,
            l3,
        }
    }

    /// Explicit capacities in bytes, 8-way.
    #[cfg(test)]
    pub(crate) fn with_capacities(l1: u64, l2: u64, l3: Option<u64>, line: u32) -> Self {
        Self {
            l1: sized(l1 as f64, 8, line),
            l2: sized(l2 as f64, 8, line),
            l3: l3.map(|bytes| sized(bytes as f64, 8, line)),
        }
    }

    /// Replay one access.
    #[inline]
    pub fn access(&mut self, addr: u64) {
        if !self.l1.access(addr) && !self.l2.access(addr) {
            if let Some(l3) = &mut self.l3 {
                l3.access(addr);
            }
        }
    }

    /// Replay `n` accesses from a stream.
    pub fn replay(&mut self, stream: &mut dyn AddressStream, n: usize) {
        for _ in 0..n {
            let a = stream.next_addr();
            self.access(a);
        }
    }

    /// Zero the counters (keeping cache contents — warm-up protocol).
    #[cfg(test)]
    pub(crate) fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
        }
    }

    /// Cumulative per-level service counts since the last reset, read off
    /// the levels: each is looked up exactly when the one above it missed.
    pub fn counters(&self) -> HierarchyCounters {
        let hits = |s: CacheStats| s.accesses - s.misses;
        let (l1, l2) = (self.l1.stats(), self.l2.stats());
        let l3 = self.l3.as_ref().map(Cache::stats);
        HierarchyCounters {
            accesses: l1.accesses,
            l1_hits: hits(l1),
            l2_hits: hits(l2),
            l3_hits: l3.map_or(0, hits),
            dram: l3.unwrap_or(l2).misses,
        }
    }

    /// The measured per-level service breakdown.
    #[cfg(test)]
    pub(crate) fn breakdown(&self) -> MissBreakdown {
        let c = self.counters();
        if c.accesses == 0 {
            return MissBreakdown::default();
        }
        let n = c.accesses as f64;
        MissBreakdown {
            l1: c.l1_hits as f64 / n,
            l2: c.l2_hits as f64 / n,
            l3: c.l3_hits as f64 / n,
            dram: c.dram as f64 / n,
        }
    }

    /// Total accesses replayed since the last reset.
    pub fn accesses(&self) -> u64 {
        self.l1.stats().accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_gen::{RandomInWs, Sequential};
    use rvhpc_machines::presets;

    #[test]
    fn levels_serve_progressively_larger_working_sets() {
        // 32 KiB L1 / 256 KiB L2 / 2 MiB L3: a working set sized for each
        // level must be served predominantly by that level.
        let line = 64;
        let cases = [
            (16 * 1024u64, "l1"),
            (128 * 1024, "l2"),
            (1024 * 1024, "l3"),
            (64 * 1024 * 1024, "dram"),
        ];
        for (ws, expect) in cases {
            let mut h =
                TraceHierarchy::with_capacities(32 * 1024, 256 * 1024, Some(2 * 1024 * 1024), line);
            let mut s = RandomInWs::new(8, ws, 1234);
            h.replay(&mut s, 300_000); // warm
            h.reset_stats();
            h.replay(&mut s, 300_000);
            let b = h.breakdown();
            let dominant = [("l1", b.l1), ("l2", b.l2), ("l3", b.l3), ("dram", b.dram)]
                .into_iter()
                .max_by(|a, c| a.1.total_cmp(&c.1))
                .unwrap();
            assert_eq!(dominant.0, expect, "ws={ws}: {b:?}");
        }
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut h = TraceHierarchy::with_capacities(32 * 1024, 512 * 1024, None, 64);
        let mut s = Sequential::new(8, 8 * 1024 * 1024);
        h.replay(&mut s, 200_000);
        let b = h.breakdown();
        assert!((b.total() - 1.0).abs() < 1e-12);
        assert_eq!(b.l3, 0.0, "no L3 configured");
    }

    #[test]
    fn trace_agrees_with_analytic_hierarchy_for_streaming() {
        // SG2044, one thread, huge streaming working set: the analytic
        // model says 1/8 of 8-byte refs reach DRAM; the trace must concur.
        let m = presets::sg2044();
        let mut h = TraceHierarchy::for_thread(&m, 1);
        let ws = 512 * 1024 * 1024u64; // 512 MiB, beyond every level
        let mut s = Sequential::new(8, ws);
        h.replay(&mut s, 400_000);
        h.reset_stats();
        h.replay(&mut s, 400_000);
        let measured = h.breakdown();
        let analytic = crate::hierarchy::Hierarchy::for_threads(&m, 1).breakdown(
            ws as f64,
            crate::hierarchy::Pattern::Streaming { elem_bytes: 8 },
        );
        assert!(
            (measured.dram - analytic.dram).abs() < 0.02,
            "dram: trace {:.4} vs analytic {:.4}",
            measured.dram,
            analytic.dram
        );
    }

    #[test]
    fn trace_agrees_with_analytic_hierarchy_for_random() {
        // Working set between the L2 and L3 shares at full occupancy.
        let m = presets::sg2044();
        let mut h = TraceHierarchy::for_thread(&m, 64);
        let ws = 700 * 1024u64; // 700 KiB vs 512 KiB L2 share, 1 MiB L3 share
        let mut s = RandomInWs::new(8, ws, 42);
        h.replay(&mut s, 400_000);
        h.reset_stats();
        h.replay(&mut s, 400_000);
        let measured = h.breakdown();
        let analytic = crate::hierarchy::Hierarchy::for_threads(&m, 64).breakdown(
            ws as f64,
            crate::hierarchy::Pattern::RandomInWs { elem_bytes: 8 },
        );
        // The random estimate is a resident-fraction approximation; allow
        // a coarse but meaningful tolerance on the DRAM fraction.
        assert!(
            (measured.dram - analytic.dram).abs() < 0.1,
            "dram: trace {:.4} vs analytic {:.4}",
            measured.dram,
            analytic.dram
        );
        // And L1 must be near-useless for both (ws >> L1).
        assert!(measured.l1 < 0.15, "{measured:?}");
    }

    #[test]
    fn reset_keeps_contents_but_zeroes_counters() {
        let mut h = TraceHierarchy::with_capacities(32 * 1024, 256 * 1024, None, 64);
        let mut s = Sequential::new(8, 16 * 1024);
        h.replay(&mut s, 4096);
        h.reset_stats();
        assert_eq!(h.accesses(), 0);
        // Warm contents: an immediate re-walk hits L1 entirely.
        h.replay(&mut s, 2048);
        let b = h.breakdown();
        assert!(b.l1 > 0.99, "{b:?}");
    }
}
