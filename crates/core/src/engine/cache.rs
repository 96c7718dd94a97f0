//! Sharded, thread-safe memo cache with hit/miss accounting — the hot
//! tier of the engine's two-tier store.
//!
//! The engine keeps two of these: `(bench, class)` → [`WorkloadProfile`]
//! and [`CacheKey`](crate::engine::CacheKey) → `Prediction`. Values are
//! handed out as `Arc`s so renders can hold results without cloning the
//! payload; counters are plain relaxed atomics read by the `engine`
//! metrics section.
//!
//! **A key is hashed once.** [`key_hash`] is the one hash of a key: the
//! fixed-key SipHash of `std`'s `DefaultHasher`. [`Hashed`] carries it
//! beside the key, and everything downstream reuses it: the shard is
//! the low bits of that hash (`hash & (SHARDS - 1)`), and each shard's
//! map and the executor's dedup map index by it through
//! [`IdentityState`], which hashes a `u64` to itself.
//!
//! Counter semantics, pinned by regression tests: a counter moves only
//! when a *serving* probe runs — [`get_or_insert_with`], the executor's
//! batch pre-pass via [`count_hit`]/[`count_miss`], never more than once
//! per served request. [`peek`] is a warmth probe (the serve layer asks
//! "would this be cheap?" before batching) and deliberately counts
//! nothing, so warmth probes cannot skew the hit rate reported in
//! `rvhpc-metrics/1` documents.
//!
//! The cache may be bounded with [`set_capacity`]: each shard keeps its
//! entries in insertion order and evicts the oldest once past its share
//! of the cap. The hash is fixed-key, so the same key stream produces
//! the same shard fills, the same eviction order, and — through the
//! [`evict hook`](ShardedCache::set_evict_hook) — the same spill
//! sequence into the disk tier, run after run. The hook is always
//! invoked *outside* the shard lock (spills do disk I/O).
//!
//! A shard holds each key once: its map goes from hash to `(key,
//! value)`, and its FIFO queue holds only hashes. Two distinct keys
//! with one 64-bit hash cannot both live in a shard; the second is
//! simply not stored, so it is recomputed on each probe — slower, never
//! wrong.
//!
//! Lookups never hold a lock across the compute closure: on a miss the
//! value is produced outside the shard lock and inserted afterwards. Two
//! racing threads may both compute the same key — the first insert wins
//! and both observe the same stored value on the next probe — but the
//! executor deduplicates plans before dispatch, so in practice every key
//! is computed exactly once.
//!
//! [`get_or_insert_with`]: ShardedCache::get_or_insert_with
//! [`count_hit`]: ShardedCache::count_hit
//! [`count_miss`]: ShardedCache::count_miss
//! [`peek`]: ShardedCache::peek_hashed
//! [`set_capacity`]: ShardedCache::set_capacity

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of independent shards; a power of two so the selector is a mask.
const SHARDS: usize = 16;

/// The hash of a key: fixed-key SipHash, so shard choice (hence
/// eviction order) is a pure function of the key stream, not of
/// per-process random state.
pub(crate) fn key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
}

/// The shard a key with hash `hash` lives in: its low bits.
pub(crate) fn shard_of(hash: u64) -> usize {
    (hash as usize) & (SHARDS - 1)
}

/// A key with its [`key_hash`], computed once by [`Hashed::new`]. As a
/// map key it hashes as that `u64` (meant for [`IdentityState`]) and
/// compares by key, so a hash collision never merges two keys.
#[derive(Debug, Clone, Copy)]
pub struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: Hash> Hashed<K> {
    /// Hash `key`.
    pub(crate) fn new(key: K) -> Self {
        Self {
            hash: key_hash(&key),
            key,
        }
    }
}

impl<K> Hashed<K> {
    /// The carried [`key_hash`].
    #[cfg(test)]
    pub(crate) fn hash64(&self) -> u64 {
        self.hash
    }

    /// The key.
    pub(crate) fn key(&self) -> &K {
        &self.key
    }
}

impl<K: PartialEq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A hasher that passes one `u64` through: the hash of a `u64` key (or
/// of a [`Hashed`]) is that value.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("IdentityHasher hashes a single u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Map state for keys that are already hashes.
pub(crate) type IdentityState = BuildHasherDefault<IdentityHasher>;

/// Hook invoked (outside any shard lock) for each entry evicted by the
/// capacity bound — the engine wires this to the disk-tier spill.
pub(crate) type EvictHook<K, V> = Arc<dyn Fn(&K, &Arc<V>) + Send + Sync>;

struct Shard<K, V> {
    /// Key hash → the entry; the key is stored here and only here.
    map: HashMap<u64, (K, Arc<V>), IdentityState>,
    /// Key hashes in insertion order, driving deterministic FIFO eviction.
    order: VecDeque<u64>,
}

impl<K: Eq, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::default(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &Hashed<K>) -> Option<&Arc<V>> {
        match self.map.get(&key.hash) {
            Some((k, v)) if *k == key.key => Some(v),
            _ => None,
        }
    }

    /// Store `value` unless the hash is taken — by this key, or by a
    /// colliding one, which leaves this key uncached. Returns the value
    /// the shard holds for `key`, if any.
    fn put(&mut self, key: Hashed<K>, value: Arc<V>) -> Option<&Arc<V>> {
        let hash = key.hash;
        match self.map.entry(hash) {
            Entry::Occupied(e) => {
                let (k, v) = e.into_mut();
                (*k == key.key).then_some(&*v)
            }
            Entry::Vacant(e) => {
                self.order.push_back(hash);
                Some(&e.insert((key.key, value)).1)
            }
        }
    }
}

/// A sharded `HashMap<K, Arc<V>>` memo table with an optional capacity.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Total entry bound across shards; 0 = unbounded.
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evict_hook: Mutex<Option<EvictHook<K, V>>>,
}

impl<K: Eq + Hash + Clone, V> ShardedCache<K, V> {
    /// An empty, unbounded cache.
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            capacity: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evict_hook: Mutex::new(None),
        }
    }

    fn shard(&self, key: &Hashed<K>) -> &Mutex<Shard<K, V>> {
        &self.shards[shard_of(key.hash)]
    }

    /// Each shard's share of the capacity (at least one entry), or
    /// `None` when unbounded.
    fn per_shard_cap(&self) -> Option<usize> {
        match self.capacity.load(Ordering::Relaxed) {
            0 => None,
            cap => Some(cap.div_ceil(SHARDS).max(1)),
        }
    }

    /// Pop oldest entries until the shard fits its share of the cap.
    /// Returns the evicted pairs; the caller runs the hook unlocked.
    fn evict_overflow(&self, shard: &mut Shard<K, V>) -> Vec<(K, Arc<V>)> {
        let Some(per) = self.per_shard_cap() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while shard.map.len() > per {
            let Some(h) = shard.order.pop_front() else {
                break;
            };
            if let Some(entry) = shard.map.remove(&h) {
                out.push(entry);
            }
        }
        out
    }

    fn run_evict_hook(&self, evicted: Vec<(K, Arc<V>)>) {
        if evicted.is_empty() {
            return;
        }
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        let hook = self.evict_hook.lock().clone();
        if let Some(hook) = hook {
            for (k, v) in &evicted {
                hook(k, v);
            }
        }
    }

    /// Bound the cache to `capacity` total entries (0 = unbounded),
    /// sweeping overfull shards immediately.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        for shard in &self.shards {
            let evicted = self.evict_overflow(&mut shard.lock());
            self.run_evict_hook(evicted);
        }
    }

    /// The configured capacity (0 = unbounded).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Install the eviction hook. Runs outside any shard lock, once per
    /// evicted entry, in eviction order.
    pub(crate) fn set_evict_hook(&self, hook: EvictHook<K, V>) {
        *self.evict_hook.lock() = Some(hook);
    }

    /// Look the key up without computing or counting: a warmth probe,
    /// which must not skew the serving hit rate (see the module docs).
    pub(crate) fn peek_hashed(&self, key: &Hashed<K>) -> Option<Arc<V>> {
        self.shard(key).lock().get(key).cloned()
    }

    /// Fetch the value for `key`, computing it with `f` on a miss. The
    /// closure runs outside the shard lock.
    pub(crate) fn get_or_insert_with(&self, key: &K, f: impl FnOnce() -> V) -> Arc<V> {
        let key = Hashed::new(key.clone());
        let shard = self.shard(&key);
        if let Some(v) = shard.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(f());
        let (value, evicted) = {
            let mut shard = shard.lock();
            let value = shard
                .put(key, Arc::clone(&computed))
                .map_or(computed, Arc::clone);
            (value, self.evict_overflow(&mut shard))
        };
        self.run_evict_hook(evicted);
        value
    }

    /// Insert a precomputed value (used by the batch executor after a
    /// parallel fill, and by the disk tier promoting a record into
    /// memory). Counts as neither hit nor miss — the executor already
    /// counted the probe that scheduled the computation.
    pub(crate) fn insert_hashed(&self, key: Hashed<K>, value: Arc<V>) {
        let evicted = {
            let mut shard = self.shard(&key).lock();
            shard.put(key, value);
            self.evict_overflow(&mut shard)
        };
        self.run_evict_hook(evicted);
    }

    /// Visit every entry, shard by shard in insertion order (used by the
    /// snapshot-on-drain path). Holds one shard lock at a time.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&K, &Arc<V>)) {
        for shard in &self.shards {
            let shard = shard.lock();
            for h in &shard.order {
                if let Some((k, v)) = shard.map.get(h) {
                    f(k, v);
                }
            }
        }
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Count a probe that found the key present, performed by the
    /// executor's batch pre-pass.
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a probe that missed and scheduled a computation.
    pub(crate) fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

impl<K: Eq + Hash + Clone, V> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counters_track_probes() {
        let c: ShardedCache<u32, u32> = ShardedCache::new();
        for i in 0..10u32 {
            let v = c.get_or_insert_with(&(i % 3), || i % 3 + 100);
            assert_eq!(*v, i % 3 + 100);
        }
        assert_eq!(c.misses(), 3);
        assert_eq!(c.hits(), 7);
        assert_eq!(c.len(), 3);
    }

    /// The counter contract: warmth probes are free. Any number of
    /// `peek`s moves nothing; each serving probe moves exactly one
    /// counter exactly once.
    #[test]
    fn peeks_never_skew_the_serving_counters() {
        let c: ShardedCache<u32, u32> = ShardedCache::new();
        c.get_or_insert_with(&1, || 10);
        for _ in 0..100 {
            c.peek_hashed(&Hashed::new(1));
            c.peek_hashed(&Hashed::new(2));
        }
        assert_eq!((c.hits(), c.misses()), (0, 1));
        c.get_or_insert_with(&1, || 10);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        c.insert_hashed(Hashed::new(2), Arc::new(20));
        assert_eq!(
            (c.hits(), c.misses()),
            (1, 1),
            "executor inserts are pre-counted probes"
        );
    }

    #[test]
    fn racing_inserts_converge_on_one_value() {
        let c: Arc<ShardedCache<u32, u64>> = Arc::new(ShardedCache::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for k in 0..64u32 {
                        seen.push(*c.get_or_insert_with(&k, || u64::from(k) * 31 + t));
                    }
                    seen
                })
            })
            .collect();
        let all: Vec<Vec<u64>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        // The first insert wins; every probe (including the computing
        // thread that lost the race) returns the stored value.
        for k in 0..64usize {
            let stored = *c.peek_hashed(&Hashed::new(k as u32)).expect("stored");
            assert!((0..8).any(|t| stored == k as u64 * 31 + t));
            for seen in &all {
                assert_eq!(seen[k], stored, "thread observed a non-stored value");
            }
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.hits() + c.misses(), 8 * 64);
    }

    #[test]
    fn capacity_bound_evicts_fifo_through_the_hook() {
        let c: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new());
        let spilled: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&spilled);
        c.set_evict_hook(Arc::new(move |k, _v| sink.lock().push(*k)));
        c.set_capacity(SHARDS); // one entry per shard
        for k in 0..64u32 {
            c.insert_hashed(Hashed::new(k), Arc::new(k));
        }
        assert!(c.len() <= SHARDS);
        assert_eq!(
            c.evictions() as usize,
            spilled.lock().len(),
            "every eviction passes through the hook"
        );
        assert_eq!(c.evictions() as usize, 64 - c.len());
        // Within each shard the oldest key left first: every spilled key
        // is older (smaller, for this insertion order) than the survivor
        // in its shard.
        for &k in spilled.lock().iter() {
            assert!(
                c.peek_hashed(&Hashed::new(k)).is_none(),
                "evicted key {k} still present"
            );
        }
    }

    #[test]
    fn eviction_order_is_deterministic_across_instances() {
        let run = || {
            let c: ShardedCache<u32, u32> = ShardedCache::new();
            let spilled: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&spilled);
            c.set_evict_hook(Arc::new(move |k, _v| sink.lock().push(*k)));
            c.set_capacity(8);
            for k in 0..200u32 {
                c.insert_hashed(Hashed::new(k), Arc::new(k));
            }
            let spills = spilled.lock().clone();
            let mut survivors = Vec::new();
            c.for_each(|k, _| survivors.push(*k));
            (spills, survivors)
        };
        assert_eq!(run(), run(), "fixed-key hashing makes eviction replayable");
    }

    #[test]
    fn shrinking_capacity_sweeps_immediately() {
        let c: ShardedCache<u32, u32> = ShardedCache::new();
        for k in 0..64u32 {
            c.insert_hashed(Hashed::new(k), Arc::new(k));
        }
        assert_eq!(c.len(), 64);
        c.set_capacity(SHARDS);
        assert!(c.len() <= SHARDS);
        assert_eq!(c.evictions() as usize, 64 - c.len());
    }
}
