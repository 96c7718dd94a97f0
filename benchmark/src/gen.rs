//! Seeded inputs of the serve workloads: the distinct request keys and
//! the order they are sent in. Everything here is a pure function of
//! the seed; the server only ever sees the generated lines.

use std::collections::HashSet;

use rvhpc_machines::{presets, MachineId};
use rvhpc_npb::{BenchmarkId, Class};

use crate::rng::SplitMix64;

/// `serve_hot` and `serve_routed` draw from this many distinct keys.
pub const HOT_KEYS: usize = 512;
/// `serve_churn` bounds the hot cache to this many entries.
pub const CHURN_CACHE_CAP: usize = 4096;
/// An "old" re-read names a key last sent at least this many requests
/// earlier: twice the cache bound, so FIFO eviction has dropped it.
pub const OLD_GAP: usize = 2 * CHURN_CACHE_CAP;
/// A "recent" re-read names a key that entered the cache at most this
/// many requests earlier: a quarter of the cache bound, so it is still
/// in memory. Entered, not last sent: a hit does not move a key back in
/// the FIFO, so a chain of re-reads of re-reads would age out.
pub const RECENT_GAP: usize = CHURN_CACHE_CAP / 4;
/// Old re-reads pick from this many requests beyond [`OLD_GAP`].
const OLD_WINDOW: usize = 1024;
/// Never-seen keys sent (untimed) before the first timed request of
/// `serve_churn`, so old re-reads exist from the first timed request on.
pub const CHURN_PROLOGUE: usize = OLD_GAP + OLD_WINDOW;

/// What a `serve_churn` request does to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A key never sent before: computed, inserted, appended to disk.
    New,
    /// A key evicted long ago: read from disk and promoted.
    Old,
    /// A key still in memory.
    Recent,
}

/// Of every 20 consecutive timed `serve_churn` requests: 12 new (60 %),
/// 5 old (25 %), 3 recent (15 %), in seeded order.
const CHURN_MIX: [(Kind, usize); 3] = [(Kind::New, 12), (Kind::Old, 5), (Kind::Recent, 3)];

/// The requests of one serve workload. Request `i` is the line
/// `keys[order[i]]` followed by `i` and a closing brace — see [`line`].
pub struct Schedule {
    /// Distinct request lines up to and including `"id":`.
    pub keys: Vec<String>,
    /// Key index of every request, untimed prologue first.
    pub order: Vec<u32>,
    /// Leading requests sent untimed (warm-up).
    pub prologue: usize,
    /// Kind of every request (`New` throughout for the prologue; empty
    /// for the all-hit schedules).
    pub kinds: Vec<Kind>,
}

impl Schedule {
    /// The full request line of request `i`.
    pub fn line(&self, i: usize) -> String {
        line(&self.keys[self.order[i] as usize], i as u64)
    }
}

/// Complete a key prefix into a request line carrying `id`.
pub fn line(prefix: &str, id: u64) -> String {
    format!("{prefix}{id}}}")
}

fn preset_key(rng: &mut SplitMix64) -> String {
    format!(
        r#"{{"op":"predict","bench":"{}","class":"{}","threads":{},"machine":"{}","id":"#,
        rng.pick(&BenchmarkId::ALL).name(),
        rng.pick(&Class::ALL).name(),
        1 + rng.below(1024),
        rng.pick(&MachineId::ALL).name(),
    )
}

/// An inline what-if descriptor, kept inside the limits `proto.rs`
/// enforces (`clock_ghz` 0.1..=20, scales 0.01..=64, `vlen_bits` a power
/// of two in 64..=4096 and only on RVV bases).
fn custom_key(rng: &mut SplitMix64) -> String {
    let base = rng.pick(&MachineId::ALL);
    let vlen = if presets::by_id(base).vector.is_rvv() {
        format!(r#","vlen_bits":{}"#, 128u32 << rng.below(4))
    } else {
        String::new()
    };
    format!(
        r#"{{"op":"predict","bench":"{}","class":"{}","threads":{},"machine":{{"base":"{}","clock_ghz":{:.3},"bandwidth_scale":{:.3}{vlen}}},"id":"#,
        rng.pick(&BenchmarkId::ALL).name(),
        rng.pick(&Class::ALL).name(),
        1 + rng.below(64),
        base.name(),
        rng.grid(1.0, 5.0, 4000),
        rng.grid(0.5, 2.0, 1500),
    )
}

/// Draw keys from `draw` until `n` distinct ones exist.
fn distinct_keys(n: usize, mut draw: impl FnMut(usize) -> String) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let key = draw(keys.len());
        if seen.insert(key.clone()) {
            keys.push(key);
        }
    }
    keys
}

/// `serve_hot` / `serve_routed`: [`HOT_KEYS`] distinct preset keys, each
/// sent once untimed, then `requests` uniform draws from the set.
pub fn hot_schedule(seed: u64, requests: usize) -> Schedule {
    let mut rng = SplitMix64::new(seed);
    let keys = distinct_keys(HOT_KEYS, |_| preset_key(&mut rng));
    let mut order: Vec<u32> = (0..HOT_KEYS as u32).collect();
    order.extend((0..requests).map(|_| rng.below(HOT_KEYS) as u32));
    Schedule {
        keys,
        order,
        prologue: HOT_KEYS,
        kinds: Vec::new(),
    }
}

/// `serve_churn`: [`CHURN_PROLOGUE`] never-seen keys untimed, then
/// `requests` (a multiple of 20) in the 60/25/15 mix. New keys alternate
/// between presets and custom-machine descriptors.
pub fn churn_schedule(seed: u64, requests: usize) -> Schedule {
    assert_eq!(requests % 20, 0, "the mix is exact per 20 requests");
    let mut rng = SplitMix64::new(seed);
    let total = CHURN_PROLOGUE + requests;

    let mut kinds = vec![Kind::New; CHURN_PROLOGUE];
    let mut cycle: Vec<Kind> = CHURN_MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    for _ in 0..requests / 20 {
        rng.shuffle(&mut cycle);
        kinds.extend_from_slice(&cycle);
    }

    let new_keys = kinds.iter().filter(|&&k| k == Kind::New).count();
    let keys = distinct_keys(new_keys, |n| {
        if n % 2 == 0 {
            preset_key(&mut rng)
        } else {
            custom_key(&mut rng)
        }
    });

    let mut order: Vec<u32> = Vec::with_capacity(total);
    // last[k]: index of the latest request that named key k.
    let mut last: Vec<usize> = Vec::with_capacity(new_keys);
    for (i, kind) in kinds.iter().enumerate() {
        let key = match kind {
            Kind::New => {
                last.push(i);
                last.len() - 1
            }
            Kind::Recent => loop {
                let j = i - 1 - rng.below(RECENT_GAP);
                if kinds[j] != Kind::Recent {
                    break order[j] as usize;
                }
            },
            Kind::Old => {
                // A request in the window names an old key only if
                // nothing re-read that key since; most do.
                let newest = i - OLD_GAP;
                let mut tries = (0..64).map(|_| newest - rng.below(OLD_WINDOW));
                let j = tries
                    .find(|&j| last[order[j] as usize] == j)
                    .or_else(|| (0..=newest).rev().find(|&j| last[order[j] as usize] == j))
                    .expect("an old key exists");
                order[j] as usize
            }
        };
        last[key] = i;
        order.push(key as u32);
    }
    Schedule {
        keys,
        order,
        prologue: CHURN_PROLOGUE,
        kinds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn lines(s: &Schedule) -> Vec<String> {
        (0..s.order.len()).map(|i| s.line(i)).collect()
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        assert_eq!(lines(&hot_schedule(7, 2000)), lines(&hot_schedule(7, 2000)));
        assert_ne!(lines(&hot_schedule(7, 2000)), lines(&hot_schedule(8, 2000)));
        assert_eq!(
            lines(&churn_schedule(7, 2000)),
            lines(&churn_schedule(7, 2000))
        );
        assert_ne!(
            lines(&churn_schedule(7, 2000)),
            lines(&churn_schedule(8, 2000))
        );
    }

    #[test]
    fn every_generated_line_is_a_valid_predict() {
        for s in [hot_schedule(3, 100), churn_schedule(3, 2000)] {
            for (k, prefix) in s.keys.iter().enumerate() {
                let l = line(prefix, k as u64);
                match rvhpc_serve::parse_request(&l) {
                    Ok(rvhpc_serve::Request::Predict(p)) => assert_eq!(p.id, Some(k as u64)),
                    other => panic!("{l} → {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hot_schedule_draws_from_512_distinct_keys() {
        let s = hot_schedule(11, 50_000);
        assert_eq!(s.keys.len(), HOT_KEYS);
        assert_eq!(s.keys.iter().collect::<HashSet<_>>().len(), HOT_KEYS);
        assert_eq!(s.order.len() - s.prologue, 50_000);
        let used: HashSet<u32> = s.order[s.prologue..].iter().copied().collect();
        assert_eq!(used.len(), HOT_KEYS);
    }

    #[test]
    fn churn_mix_is_60_25_15_and_rereads_fall_where_stated() {
        let s = churn_schedule(5, 40_000);
        let timed = &s.kinds[s.prologue..];
        let count = |k| timed.iter().filter(|&&x| x == k).count();
        assert_eq!(count(Kind::New), 24_000);
        assert_eq!(count(Kind::Old), 10_000);
        assert_eq!(count(Kind::Recent), 6_000);
        // Half the new keys are presets, half custom descriptors.
        let custom = s.keys.iter().filter(|k| k.contains("\"base\"")).count();
        assert_eq!(custom, s.keys.len() / 2);

        // Replay against a 4096-entry FIFO: insert on a miss, no
        // reordering on a hit — the engine's hot tier without sharding.
        let mut fifo: VecDeque<u32> = VecDeque::new();
        let mut resident: HashSet<u32> = HashSet::new();
        // last_sent[k], entered[k]: when key k was last sent, and when it
        // last entered the cache (the engine shards its FIFO sixteen
        // ways, so the gaps must hold with room to spare, not just
        // against the one exact queue replayed here).
        let mut last_sent: Vec<Option<usize>> = vec![None; s.keys.len()];
        let mut entered = vec![0; s.keys.len()];
        for (i, (&key, &kind)) in s.order.iter().zip(&s.kinds).enumerate() {
            let k = key as usize;
            match kind {
                Kind::New => assert_eq!(last_sent[k], None, "request {i}: new key seen before"),
                Kind::Old => {
                    let sent = last_sent[k].expect("old key was sent before");
                    assert!(
                        i - sent >= OLD_GAP,
                        "request {i}: old key sent {} ago",
                        i - sent
                    );
                    assert!(
                        !resident.contains(&key),
                        "request {i}: old key still cached"
                    );
                }
                Kind::Recent => {
                    assert!(
                        i - entered[k] <= RECENT_GAP,
                        "request {i}: entered {}",
                        entered[k]
                    );
                    assert!(resident.contains(&key), "request {i}: recent key evicted")
                }
            }
            last_sent[k] = Some(i);
            if resident.insert(key) {
                entered[k] = i;
                fifo.push_back(key);
                if fifo.len() > CHURN_CACHE_CAP {
                    resident.remove(&fifo.pop_front().unwrap());
                }
            }
        }
    }
}
