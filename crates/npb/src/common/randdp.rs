//! The NPB double-precision pseudo-random number generator.
//!
//! A linear congruential generator over 2⁴⁶ with multiplier a = 5¹³:
//!
//! > x_{k+1} = a · x_k  (mod 2⁴⁶),  returning r_k = 2⁻⁴⁶ · x_k ∈ (0, 1)
//!
//! NPB's `randdp.f` carries the state in a double and splits both factors
//! into 23-bit halves so that every partial product is exact. What that
//! computes is an integer product below 2⁹² reduced modulo 2⁴⁶, and the
//! low 46 bits of a product are the low 46 bits of its low 64: one
//! `u64::wrapping_mul` and a mask. States and multipliers stay `f64` at the
//! interface (every integer below 2⁵³ converts exactly both ways), so the
//! callers and the sequence are NPB's. Bit-compatibility with the reference
//! generator is what makes the EP/CG/FT/MG verification constants
//! meaningful, so this module is tested against the split-double form
//! (kept as a test oracle) and against published sequence values.

/// The NPB multiplier, 5¹³.
pub const A: f64 = 1220703125.0; // 5^13

/// Default seed used by most benchmarks.
pub const SEED: f64 = 314159265.0;

/// 2⁴⁶ − 1: the bits of a state.
const MASK46: u64 = (1 << 46) - 1;
const R46: f64 = 1.0 / (MASK46 + 1) as f64; // 2^-46

/// One LCG step on integers: `a · x mod 2⁴⁶`.
#[inline]
fn step(x: u64, a: u64) -> u64 {
    x.wrapping_mul(a) & MASK46
}

/// Generate the next pseudo-random number; updates `x` in place to the new
/// LCG state and returns 2⁻⁴⁶·x (uniform in (0,1)). `x` and `a` must be
/// integers below 2⁴⁶, which every state and every power of [`A`] is.
#[inline]
pub fn randlc(x: &mut f64, a: f64) -> f64 {
    *x = step(*x as u64, a as u64) as f64;
    R46 * *x
}

/// Independent LCG streams [`vranlc`] advances side by side. One step is a
/// multiply, a mask and a conversion, each waiting on the one before, so a
/// single stream leaves issue slots idle — far fewer than the split-double
/// step did, so the lane count now matters little. Measured on EP class S,
/// one thread, median (best) of seven runs: 1 lane 0.292 s (0.270), 2 lanes
/// 0.319 (0.307), 4 lanes 0.288 (0.280), 8 lanes 0.263 (0.254), 16 lanes
/// 0.262 (0.259).
const LANES: usize = 8;

/// Generate `y.len()` consecutive pseudo-random numbers (NPB's `vranlc`),
/// updating `x` to the state after the last one.
///
/// Element `i + LANES` is element `i`'s state times a^LANES (mod 2⁴⁶), so
/// after the first `LANES` elements the buffer is filled by `LANES`
/// independent recurrences instead of one. The lanes stay integers; each
/// element is the conversion [`randlc`] returns, so every element and the
/// final state are bit-identical to the sequential form.
pub(crate) fn vranlc(x: &mut f64, a: f64, y: &mut [f64]) {
    let a = a as u64;
    let (head, tail) = y.split_at_mut(LANES.min(y.len()));
    let mut state = *x as u64;
    let mut lanes = [0u64; LANES];
    for (lane, out) in lanes.iter_mut().zip(head) {
        state = step(state, a);
        *lane = state;
        *out = R46 * state as f64;
    }
    if !tail.is_empty() {
        // al = a^LANES mod 2^46.
        let al = (1..LANES).fold(a, |g, _| step(g, a));
        // The last chunk may be short: `zip` stops at its end.
        for chunk in tail.chunks_mut(LANES) {
            for (lane, out) in lanes.iter_mut().zip(chunk) {
                *lane = step(*lane, al);
                *out = R46 * *lane as f64;
            }
        }
        state = lanes[(tail.len() - 1) % LANES];
    }
    *x = state as f64;
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

    const T23: f64 = 8388608.0; // 2^23
    const R23: f64 = 1.0 / T23; // 2^-23
    const T46: f64 = T23 * T23; // 2^46

    /// NPB's `randlc` as `randdp.f` writes it, in double-precision
    /// arithmetic on 23-bit halves: the oracle for the integer form.
    fn randlc_float(x: &mut f64, a: f64) -> f64 {
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

    /// EP's stride between batches, a^(2¹⁷) mod 2⁴⁶, by the oracle.
    fn ep_batch_multiplier() -> f64 {
        let mut an = A;
        for _ in 0..17 {
            let sq = an;
            randlc_float(&mut an, sq);
        }
        an
    }

    /// Seeds at both ends of the state space and the two in use.
    fn seeds() -> [f64; 4] {
        [SEED, 271828183.0, 1.0, T46 - 1.0]
    }

    #[test]
    fn constants_are_exact_powers() {
        assert_eq!(R46, R23 * R23);
        assert_eq!((MASK46 + 1) as f64, T46);
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
    fn randlc_is_bit_identical_to_the_split_double_form() {
        for a in [A, ep_batch_multiplier(), T46 - 1.0] {
            for seed in seeds() {
                let (mut x, mut oracle) = (seed, seed);
                for i in 0..5_000 {
                    let (r, expect) = (randlc(&mut x, a), randlc_float(&mut oracle, a));
                    assert_eq!(r.to_bits(), expect.to_bits(), "a={a} seed={seed} step {i}");
                    assert_eq!(x.to_bits(), oracle.to_bits(), "a={a} seed={seed} state {i}");
                }
            }
        }
    }

    #[test]
    fn vranlc_is_bit_identical_to_the_split_double_form() {
        // Around every lane boundary, a long odd tail, and EP's batch size.
        let lengths = (0..2)
            .chain(LANES - 1..=2 * LANES + 3)
            .chain(1000..=1003)
            .chain([1 << 17]);
        for len in lengths {
            for a in [A, ep_batch_multiplier()] {
                for seed in seeds() {
                    let (mut laned, mut oracle) = (seed, seed);
                    let mut buf = vec![0.0; len];
                    vranlc(&mut laned, a, &mut buf);
                    for (i, &v) in buf.iter().enumerate() {
                        let r = randlc_float(&mut oracle, a);
                        assert_eq!(v.to_bits(), r.to_bits(), "length {len}, element {i}");
                    }
                    assert_eq!(laned.to_bits(), oracle.to_bits(), "length {len}: state");
                }
            }
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
    fn skip_ahead_matches_stepping_the_split_double_form() {
        for seed in seeds() {
            for n in [0u64, 1, 2, 3, 17, 100, 12345] {
                let mut x = seed;
                for _ in 0..n {
                    randlc_float(&mut x, A);
                }
                let jumped = skip_ahead(seed, A, n);
                assert_eq!(jumped.to_bits(), x.to_bits(), "seed={seed} n={n}");
            }
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
