//! SplitMix64: the deterministic generator behind probability rules and
//! retry jitter.
//!
//! Chosen because it is stateless per step (`mix` is a pure function of
//! its input), so probability rules can be evaluated as
//! `mix(seed ^ site ^ occurrence)` — the decision for occurrence `n` at
//! a site does not depend on which thread asked first, only on the plan
//! and the occurrence index.

/// The SplitMix64 finalizer: a bijective mix of one `u64`.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny sequential SplitMix64 stream (jittered client backoff).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded stream; equal seeds produce equal sequences.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform value in `0..bound` (`0` when `bound` is 0).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7), mix(7));
        assert_ne!(mix(7), mix(8));
        let set: std::collections::HashSet<u64> = (0..1000).map(mix).collect();
        assert_eq!(set.len(), 1000, "mix must not collide on small inputs");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(rng.next_below(17) < 17);
        }
        assert_eq!(SplitMix64::new(9).next_below(0), 0);
    }
}
