//! `Cache` against a naive true-LRU reference (tag by division, set by
//! modulo, recency by per-line use stamps) over seeded address streams:
//! every access must agree on hit or miss and the statistics must match,
//! for power-of-two and other set counts, 1–16 ways, across `flush` and
//! `reset_stats` — in both storages, the flat array and the lazily
//! allocated blocks, and for caches of one block and of many.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rvhpc_archsim::cache::{Blocks, Cache, CacheStats, Flat, Lines};

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
/// the mask, the rest (incl. the Xeon 8170 slice's 52) the modulo. With
/// up to 16 ways these are all one block of `Blocks` or less.
const SET_COUNTS: [usize; 10] = [1, 2, 3, 4, 7, 16, 52, 64, 100, 256];

/// Geometries of several blocks — the shape of every preset's L2 and L3
/// slice — ending in a full block or a partial one: 1 024 × 8 is two
/// blocks, 300 × 16 one and a part, 4 099 × 11 sixteen and a part.
const MANY_BLOCKS: [(usize, usize); 5] = [(1024, 8), (300, 16), (2048, 3), (4099, 11), (8192, 1)];

/// Replays `len` seeded operations into a `Cache<L>` and the naive model,
/// comparing every access and the statistics after every step. `line_of`
/// maps a random draw to a line number.
fn replay_against_naive<L: Lines>(
    sets: usize,
    ways: usize,
    line_bytes: u32,
    seed: u64,
    len: usize,
    line_of: impl Fn(u64) -> u64,
) -> Result<(), TestCaseError> {
    let mut cache = Cache::<L>::with_storage(sets, ways, line_bytes);
    let mut naive = NaiveLru::new(sets, ways, line_bytes);
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
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
                // Now and then an address from the whole 64-bit range.
                let addr = if r % 61 == 0 {
                    next() << 11 | next() & 0x7ff
                } else {
                    line_of(next()) * u64::from(line_bytes) + next() % u64::from(line_bytes)
                };
                prop_assert_eq!(
                    cache.access(addr),
                    naive.access(addr),
                    "sets={} ways={} line={} step={} addr={:#x}",
                    sets,
                    ways,
                    line_bytes,
                    step,
                    addr
                );
            }
        }
        prop_assert_eq!(cache.stats(), naive.stats);
    }
    Ok(())
}

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
        // Lines drawn from a pool a few times the capacity, so sets fill,
        // hit at every recency depth and evict.
        let pool = (sets * ways) as u64 * 3 + 1;
        replay_against_naive::<Flat>(sets, ways, line_bytes, seed, len, |r| r % pool)?;
        replay_against_naive::<Blocks>(sets, ways, line_bytes, seed, len, |r| r % pool)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn caches_of_many_blocks_match_naive_true_lru(
        geometry in prop::array::uniform2(0usize..1 << 16),
        hot in prop::array::uniform8(0usize..1 << 20),
        seed in 0u64..u64::MAX,
        len in 2000usize..6000,
    ) {
        let (sets, ways) = MANY_BLOCKS[geometry[0] % MANY_BLOCKS.len()];
        let line_bytes = [2u32, 64, 4096][geometry[1] % 3];
        // A pool over the whole cache would rarely fill a set in a few
        // thousand accesses. Instead: eight sets spread over the blocks,
        // each with three times its ways in distinct lines.
        let hot = hot.map(|h| (h % sets) as u64);
        let (sets_u, depth) = (sets as u64, 3 * ways as u64 + 1);
        let line_of = |r: u64| hot[(r % 8) as usize] + sets_u * (r / 8 % depth);
        replay_against_naive::<Flat>(sets, ways, line_bytes, seed, len, line_of)?;
        replay_against_naive::<Blocks>(sets, ways, line_bytes, seed, len, line_of)?;
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
