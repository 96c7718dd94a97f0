//! A simple TLB model.
//!
//! The IS scatter's 2¹⁰ concurrent write streams touch as many distinct
//! pages as buckets, which is exactly the kind of access that blows
//! through a small data TLB — one of the "some overhead for this memory
//! latency bound workload" effects the paper notes for the SG2044 (§5.1).
//! The model is kept standalone (exercised by the trace harness and the
//! ablation benches); the analytic predictor subsumes its average effect
//! in the calibrated per-benchmark constants.

use crate::cache::{CacheStats, FlatCache};

/// A set-associative TLB over fixed-size pages (reuses the LRU cache
/// machinery with page-granular "lines", in one flat array: a TLB is a few
/// dozen entries).
pub struct Tlb {
    inner: FlatCache,
    /// Cycles to walk the page table on a miss.
    pub walk_cycles: u32,
}

impl Tlb {
    /// A TLB with `entries` mappings over `page_bytes` pages (must be a
    /// power of two), `ways`-associative.
    pub(crate) fn new(entries: usize, ways: usize, page_bytes: u64, walk_cycles: u32) -> Self {
        assert!(page_bytes.is_power_of_two());
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        // Represent each page as one "line" of `page_bytes`.
        let sets = entries / ways;
        Self {
            inner: FlatCache::with_storage(sets, ways, page_bytes.min(u32::MAX as u64) as u32),
            walk_cycles,
        }
    }

    /// A typical 64-entry, 4-way, 4 KiB-page data TLB with a ~30-cycle
    /// table walk.
    pub fn typical_l1_dtlb() -> Self {
        Self::new(64, 4, 4096, 30)
    }

    /// Translate one access; returns `true` on TLB hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr)
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_gen::{AddressStream, RandomInWs, Sequential};

    #[test]
    fn sequential_within_reach_hits_after_warmup() {
        let mut t = Tlb::typical_l1_dtlb();
        let ws = 32 * 4096u64;
        let mut s = Sequential::new(8, ws);
        for _ in 0..(ws / 8) as usize {
            t.access(s.next_addr());
        }
        t.inner.reset_stats();
        for _ in 0..(ws / 8) as usize {
            t.access(s.next_addr());
        }
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    fn scatter_over_many_pages_thrashes_the_tlb() {
        // 1024 write streams spread over 1024 pages vs 64 entries: the
        // steady-state miss ratio must be high — the IS scatter signature.
        let mut t = Tlb::typical_l1_dtlb();
        let pages = 1024u64;
        let mut cursor = vec![0u64; pages as usize];
        let mut i = 0usize;
        for step in 0..200_000 {
            let stream = (step * 7919) % pages as usize; // pseudo-random stream pick
            let addr = stream as u64 * 4096 + (cursor[stream] % 4096);
            cursor[stream] += 4;
            t.access(addr);
            i += 1;
        }
        assert_eq!(i, 200_000);
        let mr = t.stats().miss_ratio();
        assert!(mr > 0.5, "scatter miss ratio only {mr:.3}");
    }

    #[test]
    fn random_miss_ratio_follows_reach_shortfall() {
        let mut t = Tlb::typical_l1_dtlb();
        let ws = 4 * 64 * 4096; // four times the reach
        let mut s = RandomInWs::new(8, ws, 77);
        for _ in 0..100_000 {
            t.access(s.next_addr());
        }
        t.inner.reset_stats();
        for _ in 0..100_000 {
            t.access(s.next_addr());
        }
        let mr = t.stats().miss_ratio();
        // Resident fraction ≈ 1/4 → miss ≈ 0.75.
        assert!((mr - 0.75).abs() < 0.08, "miss ratio {mr:.3}");
    }

    #[test]
    fn huge_pages_restore_reach() {
        // Same thrashing workload, 2 MiB pages: everything fits.
        let mut t = Tlb::new(64, 4, 2 * 1024 * 1024, 30);
        let pages_4k = 1024u64;
        for step in 0..100_000usize {
            let stream = (step * 7919) % pages_4k as usize;
            let addr = stream as u64 * 4096;
            t.access(addr);
        }
        t.inner.reset_stats();
        for step in 0..100_000usize {
            let stream = (step * 7919) % pages_4k as usize;
            t.access(stream as u64 * 4096);
        }
        assert_eq!(t.stats().misses, 0, "4 MiB footprint fits 64 huge pages");
    }
}
