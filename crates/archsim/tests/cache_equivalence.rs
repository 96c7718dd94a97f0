//! `Cache` against a naive true-LRU reference (tag by division, set by
//! modulo, recency by per-line use stamps) over seeded address streams:
//! every access must agree on hit or miss and the statistics must match,
//! for power-of-two and other set counts, 1–16 ways, across `flush` and
//! `reset_stats`.

use proptest::prelude::*;
use rvhpc_archsim::cache::{Cache, CacheStats};

/// The textbook model: a line is (tag, last use); a miss in a full set
/// replaces the line used longest ago.
struct NaiveLru {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    line_bytes: u64,
    clock: u64,
    stats: CacheStats,
}

impl NaiveLru {
    fn new(sets: usize, ways: usize, line_bytes: u32) -> Self {
        NaiveLru {
            sets: vec![Vec::new(); sets],
            ways,
            line_bytes: u64::from(line_bytes),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        let (set, tag) = (&mut self.sets[(line % n) as usize], line / n);
        if let Some(entry) = set.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.clock;
            return true;
        }
        self.stats.misses += 1;
        if set.len() == self.ways {
            let oldest = (0..set.len()).min_by_key(|&w| set[w].1).unwrap();
            set.swap_remove(oldest);
        }
        set.push((tag, self.clock));
        false
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.reset_stats();
    }
}

/// Set counts on both sides of the indexing choice: powers of two take
/// the mask, the rest (incl. the Xeon 8170 slice's 52) the modulo.
const SET_COUNTS: [usize; 10] = [1, 2, 3, 4, 7, 16, 52, 64, 100, 256];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn cache_matches_naive_true_lru(
        geometry in prop::array::uniform3(0usize..1 << 16),
        seed in 0u64..u64::MAX,
        len in 200usize..3000,
    ) {
        let sets = SET_COUNTS[geometry[0] % SET_COUNTS.len()];
        let ways = 1 + geometry[1] % 16;
        let line_bytes = [2u32, 64, 4096][geometry[2] % 3];
        let mut cache = Cache::with_geometry(sets, ways, line_bytes);
        let mut naive = NaiveLru::new(sets, ways, line_bytes);

        // Lines drawn from a pool a few times the capacity, so sets fill,
        // hit at every recency depth and evict; now and then an address
        // from the whole 64-bit range.
        let pool = (sets * ways) as u64 * 3 + 1;
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 11
        };
        for step in 0..len {
            let r = next();
            match r % 997 {
                0 => {
                    cache.flush();
                    naive.flush();
                }
                1 | 2 => {
                    cache.reset_stats();
                    naive.reset_stats();
                }
                _ => {
                    let addr = if r % 61 == 0 {
                        next() << 11 | next() & 0x7ff
                    } else {
                        (next() % pool) * u64::from(line_bytes) + next() % u64::from(line_bytes)
                    };
                    prop_assert_eq!(
                        cache.access(addr),
                        naive.access(addr),
                        "sets={} ways={} line={} step={} addr={:#x}",
                        sets, ways, line_bytes, step, addr
                    );
                }
            }
            prop_assert_eq!(cache.stats(), naive.stats);
        }
    }
}

#[test]
fn the_top_of_the_address_space_is_an_ordinary_line() {
    // The last line's key is the largest a way can hold; it must neither
    // collide with the empty marker nor wrap.
    let mut cache = Cache::with_geometry(1, 2, 2);
    assert!(!cache.access(u64::MAX));
    assert!(cache.access(u64::MAX - 1));
    assert!(!cache.access(0));
    assert!(cache.access(u64::MAX));
}
