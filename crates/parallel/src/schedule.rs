//! Loop schedules, mirroring OpenMP `schedule(...)` clauses.

/// How a work-sharing loop distributes iterations over the team.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous block per thread (OpenMP `schedule(static)`).
    Static,
    /// Fixed-size chunks dealt round-robin (`schedule(static, chunk)`).
    StaticChunk(usize),
    /// Chunks claimed from a shared counter (`schedule(dynamic, chunk)`).
    Dynamic(usize),
    /// Exponentially shrinking chunks with a floor (`schedule(guided, min)`).
    Guided(usize),
}

impl Schedule {
    /// A human-readable name, used in reports and benches.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Static => "static",
            Schedule::StaticChunk(_) => "static-chunk",
            Schedule::Dynamic(_) => "dynamic",
            Schedule::Guided(_) => "guided",
        }
    }
}

/// The contiguous block of `lo..hi` owned by thread `tid` of `nthreads`
/// under a static block distribution. Remainder iterations are spread one
/// each over the lowest-numbered threads, exactly like `schedule(static)`.
#[inline]
pub(crate) fn static_block(
    lo: usize,
    hi: usize,
    tid: usize,
    nthreads: usize,
) -> std::ops::Range<usize> {
    debug_assert!(tid < nthreads);
    let total = hi.saturating_sub(lo);
    let base = total / nthreads;
    let rem = total % nthreads;
    let start = lo + tid * base + tid.min(rem);
    let len = base + usize::from(tid < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn static_block_basic() {
        assert_eq!(static_block(0, 10, 0, 3), 0..4);
        assert_eq!(static_block(0, 10, 1, 3), 4..7);
        assert_eq!(static_block(0, 10, 2, 3), 7..10);
    }

    #[test]
    fn static_block_empty_range() {
        for t in 0..4 {
            assert!(static_block(5, 5, t, 4).is_empty());
        }
    }

    #[test]
    fn static_block_more_threads_than_work() {
        let blocks: Vec<_> = (0..8).map(|t| static_block(0, 3, t, 8)).collect();
        let covered: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(covered, 3);
        assert_eq!(blocks[0], 0..1);
        assert_eq!(blocks[2], 2..3);
        assert!(blocks[3].is_empty());
    }

    proptest! {
        /// Static blocks partition the range: disjoint, complete, ordered.
        #[test]
        fn static_blocks_partition(lo in 0usize..1000, len in 0usize..5000, n in 1usize..33) {
            let hi = lo + len;
            let mut next = lo;
            for t in 0..n {
                let b = static_block(lo, hi, t, n);
                prop_assert_eq!(b.start, next, "blocks must be contiguous");
                prop_assert!(b.end >= b.start);
                next = b.end;
            }
            prop_assert_eq!(next, hi, "blocks must cover the whole range");
        }

        /// Block sizes differ by at most one (load balance property).
        #[test]
        fn static_blocks_balanced(len in 0usize..5000, n in 1usize..33) {
            let sizes: Vec<usize> = (0..n).map(|t| static_block(0, len, t, n).len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
