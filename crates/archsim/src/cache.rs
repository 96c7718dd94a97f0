//! Trace-driven set-associative cache model.

use rvhpc_machines::CacheSpec;

/// Hit/miss counters. Mergeable: `a + b` combines the counts of two
/// disjoint measurement intervals (or two cores), so per-core counter
/// sets sum to the run-global totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Alias for [`CacheStats::miss_ratio`] under the name most profiling
    /// tools use. Defined (as 0.0) even when no accesses were recorded —
    /// never NaN, so downstream reports can divide/format unconditionally.
    pub fn miss_rate(&self) -> f64 {
        self.miss_ratio()
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses + rhs.accesses,
            misses: self.misses + rhs.misses,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| a + b)
    }
}

/// Where a [`Cache`] keeps its lines: `ways` entries a set, each the line
/// number plus one, most recently used first, zero for an empty way.
pub trait Lines {
    /// Storage for `sets × ways` lines, all empty.
    fn new(sets: usize, ways: usize) -> Self;
    /// The ways of `set`.
    fn set(&mut self, set: usize, ways: usize) -> &mut [u64];
    /// Empty every way.
    fn clear(&mut self);
}

/// Every line in one array, allocated up front, set `s` at `s * ways`:
/// the storage for a cache that is one [`Blocks`] block or less — an L1d, a
/// TLB — where it saves the block table's load and test on every access.
#[derive(Debug, Clone)]
pub struct Flat(Vec<u64>);

impl Lines for Flat {
    fn new(sets: usize, ways: usize) -> Self {
        Flat(vec![0; sets * ways])
    }

    #[inline]
    fn set(&mut self, set: usize, ways: usize) -> &mut [u64] {
        let first = set * ways;
        &mut self.0[first..first + ways]
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// Lines allocated a block of sets at a time, when a set in the block is
/// first touched: the storage for a cache larger than a block. A 64 MiB L3
/// is a million lines, of which a kernel-sized replay touches a few
/// thousand: allocated whole, it costs more to zero than the replay takes
/// and sets the resident size of the process.
#[derive(Debug, Clone)]
pub struct Blocks {
    /// `blocks[set >> shift]` is empty until touched, then holds the ways
    /// of each of its sets.
    blocks: Vec<Vec<u64>>,
    shift: u32,
}

/// Lines in a block, at most (32 KiB of state).
const BLOCK_LINES: usize = 4096;

/// Allocate a block's lines, all empty. Out of line: it runs once a block.
#[cold]
fn allocate(block: &mut Vec<u64>, lines: usize) {
    *block = vec![0; lines];
}

impl Lines for Blocks {
    fn new(sets: usize, ways: usize) -> Self {
        let shift = (BLOCK_LINES / ways).max(1).ilog2();
        Blocks {
            blocks: vec![Vec::new(); ((sets - 1) >> shift) + 1],
            shift,
        }
    }

    #[inline]
    fn set(&mut self, set: usize, ways: usize) -> &mut [u64] {
        let block = &mut self.blocks[set >> self.shift];
        if block.is_empty() {
            allocate(block, ways << self.shift);
        }
        let first = (set & ((1 << self.shift) - 1)) * ways;
        &mut block[first..first + ways]
    }

    fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|block| block.fill(0));
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Each set keeps its lines most-recently-used first, so recency *is* the
/// position: a hit moves the line to the front, a miss drops the last one —
/// exact (not pseudo) LRU, which is what the miss-ratio estimates assume —
/// and a re-reference of the newest line (the common case in a streaming
/// replay) returns after one compare, writing nothing. A way holds the whole line number,
/// not the tag, so a lookup needs no division; the set index is a mask when
/// the set count is a power of two and a modulo otherwise (the Xeon 8170's
/// 11-way 35.75 MiB L3 isn't).
///
/// The storage `L` is fixed by the type: [`Blocks`] (the default) for a
/// cache larger than a block, [`Flat`] ([`FlatCache`]) for one that fits in
/// a block. Both run the one replacement routine.
#[derive(Debug, Clone)]
pub struct Cache<L = Blocks> {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets - 1` when `sets` is a power of two.
    set_mask: Option<u64>,
    lines: L,
    stats: CacheStats,
}

/// A cache whose lines are one flat array.
pub type FlatCache = Cache<Flat>;

/// Put `key` in front of `ways` and push what was there back a way at a
/// time, until the key's old copy turns up (a hit: everything behind it
/// stays put) or the last way falls out (a miss). Returns whether it hit.
/// A key already in front is a hit that writes nothing.
#[inline(always)]
fn promote(ways: &mut [u64], key: u64) -> bool {
    if ways[0] == key {
        return true;
    }
    let mut pushed = key;
    for way in ways {
        std::mem::swap(way, &mut pushed);
        if pushed == key {
            return true;
        }
    }
    false
}

impl Cache {
    /// Explicit geometry: `sets × ways` lines of `line_bytes`, in lazily
    /// allocated blocks.
    pub fn with_geometry(sets: usize, ways: usize, line_bytes: u32) -> Self {
        Self::with_storage(sets, ways, line_bytes)
    }
}

impl<L: Lines> Cache<L> {
    /// Build from a [`CacheSpec`] (uses its full capacity: for shared
    /// caches, construct per-sharer slices via [`Cache::with_storage`]).
    pub fn new(spec: &CacheSpec) -> Self {
        let sets = (spec.size_bytes / (spec.line_bytes as u64 * spec.associativity as u64)).max(1)
            as usize;
        Self::with_storage(sets, spec.associativity as usize, spec.line_bytes)
    }

    /// Explicit geometry: `sets × ways` lines of `line_bytes`, kept in `L`.
    pub fn with_storage(sets: usize, ways: usize, line_bytes: u32) -> Self {
        assert!(sets >= 1 && ways >= 1);
        // At least two bytes a line keeps `line + 1` from wrapping to the
        // empty marker.
        assert!(line_bytes.is_power_of_two() && line_bytes >= 2);
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            lines: L::new(sets, ways),
            stats: CacheStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64 * (1u64 << self.line_shift)
    }

    /// Access a byte address; returns `true` on hit. Misses allocate
    /// (write-allocate policy for both reads and writes, as on all the
    /// studied machines).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets as u64,
        } as usize;
        if promote(self.lines.set(set, self.ways), line + 1) {
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (keeping contents — for warm-up protocols).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate all contents and reset statistics.
    pub fn flush(&mut self) {
        self.lines.clear();
        self.stats = CacheStats::default();
    }
}

/// Closed-form steady-state miss-ratio estimates for the synthetic access
/// patterns (per *reference*, not per line). These are what the
/// performance model uses at paper scale; the trace-driven [`Cache`]
/// validates them in this crate's tests.
pub mod estimate {
    /// Streaming (unit-stride) reads of `elem_bytes` elements over a
    /// working set of `ws` bytes against a cache of `cap` bytes with
    /// `line` -byte lines: if the working set fits, ~0 after warm-up; if
    /// it doesn't, one miss per line → `elem/line` misses per reference.
    pub fn streaming(ws: f64, cap: f64, elem_bytes: u32, line: u32) -> f64 {
        if ws <= cap {
            0.0
        } else {
            f64::from(elem_bytes) / f64::from(line)
        }
    }

    /// Strided access: each reference advances `stride` bytes, so the
    /// fraction of references opening a new line is `min(1, stride/line)`;
    /// scaled by the non-resident fraction of the working set.
    pub fn strided(ws: f64, cap: f64, stride_bytes: u32, line: u32) -> f64 {
        let new_line_per_ref = (f64::from(stride_bytes.max(1)) / f64::from(line)).min(1.0);
        new_line_per_ref * hit_shortfall(ws, cap)
    }

    /// Uniform random references within a working set of `ws` bytes: the
    /// hit probability is the fraction of the working set resident,
    /// ~`cap/ws` in steady state (LRU ≈ random for uniform traffic).
    pub fn random_in_ws(ws: f64, cap: f64) -> f64 {
        if ws <= cap {
            0.0
        } else {
            1.0 - cap / ws
        }
    }

    /// The fraction of references NOT covered by the cache for patterns
    /// that sweep the working set cyclically (LRU pathological case is a
    /// full miss; real kernels are closer to random-replacement behaviour,
    /// so we use the resident-fraction model).
    fn hit_shortfall(ws: f64, cap: f64) -> f64 {
        (1.0 - cap / ws).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_within_capacity_hits_after_warmup() {
        // 4 KiB cache, walk 2 KiB twice: second pass must be all hits.
        let mut c = Cache::with_geometry(16, 4, 64);
        assert_eq!(c.capacity(), 4096);
        for addr in (0..2048).step_by(8) {
            c.access(addr);
        }
        c.reset_stats();
        for addr in (0..2048).step_by(8) {
            c.access(addr);
        }
        assert_eq!(c.stats().misses, 0, "{:?}", c.stats());
    }

    #[test]
    fn streaming_beyond_capacity_misses_once_per_line() {
        let mut c = Cache::with_geometry(16, 4, 64); // 4 KiB
                                                     // Stream 64 KiB of u64s.
        for addr in (0..65536u64).step_by(8) {
            c.access(addr);
        }
        let st = c.stats();
        let expect = 65536 / 64;
        assert_eq!(st.misses, expect, "one miss per line");
        let est = estimate::streaming(65536.0, 4096.0, 8, 64);
        assert!((st.miss_ratio() - est).abs() < 1e-9);
    }

    #[test]
    fn lru_keeps_hot_line_alive() {
        let mut c = Cache::with_geometry(1, 2, 64); // 2 lines, 1 set
        let hot = 0u64;
        let a = 64u64;
        let b = 128u64;
        c.access(hot); // miss
        c.access(a); // miss
        c.access(hot); // hit, promotes hot to MRU
        c.access(b); // miss, evicts a (LRU), not hot
        assert!(c.access(hot), "hot line must survive");
        assert!(!c.access(a), "a was evicted");
    }

    #[test]
    fn random_within_ws_matches_resident_fraction_estimate() {
        let cap = 16 * 1024u64;
        let ws = 128 * 1024u64;
        let mut c = Cache::with_geometry(64, 4, 64);
        assert_eq!(c.capacity(), cap);
        // Deterministic LCG addresses within ws.
        let mut x = 12345u64;
        // Warm up.
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            c.access((x >> 11) % ws);
        }
        c.reset_stats();
        for _ in 0..100_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            c.access((x >> 11) % ws);
        }
        let measured = c.stats().miss_ratio();
        let est = estimate::random_in_ws(ws as f64, cap as f64);
        assert!(
            (measured - est).abs() < 0.06,
            "measured {measured:.3} vs estimate {est:.3}"
        );
    }

    #[test]
    fn non_power_of_two_sets_work() {
        // 11-way, 52 sets (Xeon-8170-like slice geometry).
        let mut c = Cache::with_geometry(52, 11, 64);
        for addr in (0..c.capacity()).step_by(64) {
            c.access(addr);
        }
        c.reset_stats();
        for addr in (0..c.capacity()).step_by(64) {
            c.access(addr);
        }
        // Modulo indexing maps the linear sweep perfectly: all hits.
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = Cache::with_geometry(4, 2, 64);
        c.access(0);
        c.access(64);
        c.flush();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0), "flushed line must miss");
    }

    #[test]
    fn estimates_are_monotone_in_working_set() {
        let cap = 32768.0;
        let mut prev = 0.0;
        for ws_kb in [16.0, 32.0, 64.0, 128.0, 256.0] {
            let m = estimate::random_in_ws(ws_kb * 1024.0, cap);
            assert!(m >= prev);
            prev = m;
        }
    }
}
