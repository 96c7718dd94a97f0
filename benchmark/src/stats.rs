//! The arithmetic behind every reported number: exact quantiles and the
//! block rule.
//!
//! The sandbox the benchmark must be steady on is not quiet. A pure
//! register loop pinned to one CPU runs 10–40 % below its best speed in
//! bursts of one to ten seconds, about a third of the time, and the
//! slow-down a request path sees in such a burst does not track the
//! loop's, so it cannot be divided out (README.md has the measurements).
//! Noise of that kind only ever slows. So every timed phase is cut into
//! [`BLOCKS`] blocks, each figure is computed per block, and the
//! reported value is the best block's ([`best`]) — the convention of
//! STREAM and NPB timing, which this repository's own `run_host_stream`
//! follows. Over ten runs in a noisy spell the best block moved by 4–6 %
//! between its quartiles where the median block moved by 13–19 %.

/// Every timed phase is cut into this many equal blocks.
pub const BLOCKS: usize = 40;

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile: the sample at rank `ceil(q * n)` (1-based).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median; the mean of the two middle samples when `n` is even.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median wall time of one call of `f`, over `repeats` calls, in seconds.
pub fn median_s(repeats: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The best block's value: the highest rate, the lowest time.
pub fn best(per_block: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Higher => f64::max,
        Better::Lower => f64::min,
    };
    per_block
        .iter()
        .copied()
        .reduce(pick)
        .expect("best of no blocks")
}

/// Cut `samples` into [`BLOCKS`] contiguous blocks whose sizes differ by
/// at most one (fewer blocks when there are fewer samples).
pub fn blocks<T>(samples: &[T]) -> Vec<&[T]> {
    let n = samples.len();
    (0..BLOCKS)
        .map(|b| &samples[b * n / BLOCKS..(b + 1) * n / BLOCKS])
        .filter(|b| !b.is_empty())
        .collect()
}

/// Each block's `q` quantile.
pub fn block_quantiles(samples: &[f64], q: f64) -> Vec<f64> {
    blocks(samples).iter().map(|b| quantile(b, q)).collect()
}

/// Per block, the sum of `num` over the sum of `den`: work per second
/// from per-operation work and seconds, CPU per unit from CPU and units.
pub fn block_ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    assert_eq!(num.len(), den.len());
    blocks(num)
        .iter()
        .zip(blocks(den))
        .map(|(n, d)| n.iter().sum::<f64>() / d.iter().sum::<f64>())
        .collect()
}

/// Per-block rates from completion times: `ends[i]` is when operation
/// `i` finished (seconds since the phase began) and each operation
/// carries `work[i]` units. A block's rate is its work over the time
/// between the previous block's last completion and its own.
pub fn block_rates(ends: &[f64], work: &[f64]) -> Vec<f64> {
    assert_eq!(ends.len(), work.len());
    let mut rates = Vec::new();
    let mut from = 0.0;
    let mut start = 0;
    for block in blocks(ends) {
        let until = block.iter().copied().fold(from, f64::max);
        let units: f64 = work[start..start + block.len()].iter().sum();
        rates.push(units / (until - from));
        from = until;
        start += block.len();
    }
    rates
}

/// `(p75 - p25) / median` in percent, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` — the spread the driver computes.
pub fn spread_pct(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    100.0 * (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Order of the input does not matter.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_takes_the_better_end() {
        let per_block = [7.0, 3.0, 5.0, 4.0, 6.0, 9.0, 8.0];
        assert_eq!(best(&per_block, Better::Higher), 9.0);
        assert_eq!(best(&per_block, Better::Lower), 3.0);
    }

    #[test]
    fn tail_is_the_best_block_tail() {
        // 40 blocks of 10: block b holds nine 1.0s and one (b + 1) * 10.
        let mut samples = Vec::new();
        for b in 0..40 {
            samples.extend(std::iter::repeat_n(1.0, 9));
            samples.push(f64::from(b + 1) * 10.0);
        }
        // Each block's p99 is its outlier: 10, 20, ..., 400.
        let tails = block_quantiles(&samples, 0.99);
        assert_eq!(tails.len(), 40);
        assert_eq!((tails[0], tails[39]), (10.0, 400.0));
        assert_eq!(best(&tails, Better::Lower), 10.0);
        // A terrible stretch elsewhere does not move it.
        samples[399] = 1e9;
        assert_eq!(best(&block_quantiles(&samples, 0.99), Better::Lower), 10.0);
    }

    #[test]
    fn block_rate_uses_time_between_block_ends() {
        // 80 operations of one unit; the first forty finish 1 s apart,
        // the rest 0.5 s apart → 40 blocks of 2: twenty at rate 1, then 2.
        let mut t = 0.0;
        let ends: Vec<f64> = (0..80)
            .map(|i| {
                t += if i < 40 { 1.0 } else { 0.5 };
                t
            })
            .collect();
        let rates = block_rates(&ends, &[1.0; 80]);
        assert_eq!(rates[..20], [1.0; 20]);
        assert_eq!(rates[20..], [2.0; 20]);
        assert_eq!(best(&rates, Better::Higher), 2.0);
    }

    #[test]
    fn block_ratio_sums_before_dividing() {
        // 40 blocks of 2: work 3 + 1 over seconds 1 + 1 → 2 per second.
        let work: Vec<f64> = (0..80)
            .map(|i| if i % 2 == 0 { 3.0 } else { 1.0 })
            .collect();
        assert_eq!(block_ratios(&work, &[1.0; 80]), [2.0; 40]);
    }

    #[test]
    fn blocks_cover_every_sample_once() {
        let v: Vec<u32> = (0..97).collect();
        let b = blocks(&v);
        assert_eq!(b.len(), BLOCKS);
        assert_eq!(b.iter().map(|b| b.len()).sum::<usize>(), 97);
        assert!(b.iter().all(|b| b.len() == 2 || b.len() == 3));
        assert_eq!(blocks(&v[..7]).len(), 7);
    }

    #[test]
    fn spread_matches_python_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_pct(&v) - 100.0 * (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
