//! Deterministic and parallel slice reductions.
//!
//! Floating-point addition is not associative, so a naive parallel sum's
//! result depends on the team size — unacceptable for NPB verification,
//! which compares against reference values to 1e-8. [`pairwise_sum`] gives a
//! summation order that is *independent of team size* (and more accurate
//! than left-to-right folding); [`parallel_pairwise_sum`] parallelizes the
//! top levels of the same tree so the parallel result is bit-identical to
//! the serial one.

use crate::pool::Pool;
use crate::sync_slice::TeamChunks;

/// Below this length the pairwise tree bottoms out into a simple fold.
/// Fixed (not tuned per machine) so that the summation order — and thus the
/// bit-exact result — never varies.
const PAIRWISE_LEAF: usize = 128;

/// Pairwise (cascade) summation: splits at the largest power of two strictly
/// less than `n`, recursing on both halves. O(log n) error growth.
pub fn pairwise_sum(x: &[f64]) -> f64 {
    let n = x.len();
    if n <= PAIRWISE_LEAF {
        return x.iter().sum();
    }
    let split = largest_pow2_below(n);
    pairwise_sum(&x[..split]) + pairwise_sum(&x[split..])
}

/// Largest power of two strictly less than `n` (for `n >= 2`).
#[inline]
fn largest_pow2_below(n: usize) -> usize {
    debug_assert!(n >= 2);
    let p = n.next_power_of_two();
    if p == n {
        n / 2
    } else {
        p / 2
    }
}

/// Parallel pairwise sum with a result bit-identical to [`pairwise_sum`].
///
/// The slice is recursively split at the same points as the serial version;
/// the top `log2(nthreads)`-ish levels are distributed over the team and the
/// partials are combined in tree order on thread 0.
pub fn parallel_pairwise_sum(pool: &Pool, x: &[f64]) -> f64 {
    let n = pool.nthreads();
    if n == 1 || x.len() <= 4 * PAIRWISE_LEAF {
        return pairwise_sum(x);
    }
    // Cut the slice at the serial tree's own split points until we have at
    // least `n` segments; summing each segment serially and then combining
    // in the same tree shape reproduces the serial result exactly.
    let mut segments: Vec<&[f64]> = vec![x];
    while segments.len() < n {
        // Split the longest segment the same way pairwise_sum would.
        let (idx, _) = segments
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.len())
            .expect("segments nonempty");
        let seg = segments[idx];
        if seg.len() <= PAIRWISE_LEAF {
            break;
        }
        let split = largest_pow2_below(seg.len());
        let (a, b) = seg.split_at(split);
        segments[idx] = a;
        segments.insert(idx + 1, b);
    }
    let partials: Vec<(usize, f64)> = {
        let sums = pool.run(|team| {
            let mut local: Vec<(usize, f64)> = Vec::new();
            for s in team.static_range(0, segments.len()) {
                local.push((s, pairwise_sum(segments[s])));
            }
            team.barrier();
            local
        });
        sums.into_iter().flatten().collect()
    };
    let mut ordered = vec![0.0f64; segments.len()];
    for (i, v) in partials {
        ordered[i] = v;
    }
    // Combine partials in the same shape the serial tree would have used:
    // repeatedly merge the segment pair that shares the lowest tree split.
    combine_in_tree_order(&segments, &ordered)
}

/// Combine per-segment partial sums in exactly the order the serial pairwise
/// tree combines those segments.
fn combine_in_tree_order(segments: &[&[f64]], partials: &[f64]) -> f64 {
    // Reconstruct recursively: a (start,len) node either corresponds to one
    // segment exactly, or splits at largest_pow2_below(len).
    fn rec(start: usize, len: usize, seg_bounds: &[(usize, usize)], partials: &[f64]) -> f64 {
        if let Ok(k) = seg_bounds.binary_search(&(start, len)) {
            return partials[k];
        }
        let split = largest_pow2_below(len);
        rec(start, split, seg_bounds, partials)
            + rec(start + split, len - split, seg_bounds, partials)
    }
    let mut bounds = Vec::with_capacity(segments.len());
    let mut offset = 0usize;
    for s in segments {
        bounds.push((offset, s.len()));
        offset += s.len();
    }
    rec(0, offset, &bounds, partials)
}

/// Parallel sum of squares (L2-norm building block used by MG/CG
/// verification), deterministic in the same way as
/// [`parallel_pairwise_sum`].
pub fn parallel_sum_of_squares(pool: &Pool, x: &[f64]) -> f64 {
    // Squaring is elementwise (exact same rounding regardless of order), so
    // square on the fly into the pairwise tree via a chunked temporary.
    if x.len() <= 4 * PAIRWISE_LEAF || pool.nthreads() == 1 {
        return sum_of_squares_serial(x);
    }
    let mut sq = vec![0.0f64; x.len()];
    let parts = TeamChunks::new(pool, &mut sq, 1, 0, x.len());
    pool.run(|team| {
        let (first, mine) = parts.claim(team);
        for (s, v) in mine.iter_mut().zip(&x[first..]) {
            *s = v * v;
        }
    });
    pairwise_sum(&sq)
}

/// Serial sum of squares through the same pairwise tree.
pub fn sum_of_squares_serial(x: &[f64]) -> f64 {
    if x.len() <= PAIRWISE_LEAF {
        return x.iter().map(|v| v * v).sum();
    }
    let split = largest_pow2_below(x.len());
    sum_of_squares_serial(&x[..split]) + sum_of_squares_serial(&x[split..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pairwise_matches_naive_for_small() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&x), x.iter().sum::<f64>());
    }

    #[test]
    fn pairwise_is_accurate_for_ill_conditioned_input() {
        // 1 followed by many tiny values: naive left fold loses them less
        // gracefully than the cascade.
        let mut x = vec![1.0f64];
        x.extend(std::iter::repeat_n(1e-16, 1 << 16));
        let exact = 1.0 + 1e-16 * ((1 << 16) as f64);
        let pair_err = (pairwise_sum(&x) - exact).abs();
        assert!(pair_err < 1e-12, "pairwise error {pair_err}");
    }

    #[test]
    fn parallel_sum_is_bit_identical_to_serial() {
        let x: Vec<f64> = (0..100_000)
            .map(|i| ((i * 2654435761usize) % 1000) as f64 * 1.000000001e-3 - 0.5)
            .collect();
        let serial = pairwise_sum(&x);
        for n in [1, 2, 3, 4, 7] {
            let pool = Pool::new(n);
            let par = parallel_pairwise_sum(&pool, &x);
            assert_eq!(
                par.to_bits(),
                serial.to_bits(),
                "team of {n} changed the summation result"
            );
        }
    }

    #[test]
    fn sum_of_squares_parallel_matches_serial() {
        let x: Vec<f64> = (0..50_000).map(|i| (i as f64).sin()).collect();
        let serial = sum_of_squares_serial(&x);
        let pool = Pool::new(4);
        assert_eq!(
            parallel_sum_of_squares(&pool, &x).to_bits(),
            serial.to_bits()
        );
    }

    #[test]
    fn largest_pow2_below_values() {
        assert_eq!(largest_pow2_below(2), 1);
        assert_eq!(largest_pow2_below(3), 2);
        assert_eq!(largest_pow2_below(4), 2);
        assert_eq!(largest_pow2_below(5), 4);
        assert_eq!(largest_pow2_below(1024), 512);
        assert_eq!(largest_pow2_below(1025), 1024);
    }

    proptest! {
        #[test]
        fn pairwise_close_to_kahan(x in prop::collection::vec(-1e6f64..1e6, 0..2000)) {
            // Kahan compensated summation as the accuracy oracle.
            let (mut s, mut c) = (0.0f64, 0.0f64);
            for &v in &x {
                let y = v - c;
                let t = s + y;
                c = (t - s) - y;
                s = t;
            }
            let p = pairwise_sum(&x);
            let scale = x.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
            prop_assert!((p - s).abs() / scale < 1e-12);
        }

        #[test]
        fn parallel_equals_serial_for_any_team(x in prop::collection::vec(-1.0f64..1.0, 0..4000), n in 1usize..6) {
            let pool = Pool::new(n);
            let par = parallel_pairwise_sum(&pool, &x);
            let ser = pairwise_sum(&x);
            prop_assert_eq!(par.to_bits(), ser.to_bits());
        }
    }
}
