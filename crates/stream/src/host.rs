//! Host-run STREAM.
//!
//! Faithful to McCalpin's protocol: three arrays of `n` doubles, each
//! kernel run `ntimes` times, the *best* (minimum) time per kernel kept,
//! bandwidth computed from the kernel's actual byte traffic (2 arrays for
//! copy/scale, 3 for add/triad). Parallelized over the team with static
//! partitions, like the OpenMP reference.

use rvhpc_parallel::{Pool, TeamChunks};

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    Copy,
    Scale,
    Add,
    Triad,
}

impl StreamKernel {
    /// All four, in STREAM's canonical order.
    pub const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];

    /// Bytes moved per element (8-byte doubles).
    pub(crate) fn bytes_per_element(&self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }

    /// Canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Scale => "Scale",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
        }
    }
}

/// Result of one host STREAM run.
#[derive(Debug, Clone)]
pub struct HostStreamResult {
    /// Best bandwidth per kernel, GB/s, in [`StreamKernel::ALL`] order.
    pub best_gbs: [f64; 4],
    /// Array length used.
    pub n: usize,
    pub threads: usize,
    /// Validation outcome (STREAM's solution check).
    pub validated: bool,
}

/// Run host STREAM with arrays of `n` doubles, `ntimes` repetitions.
pub fn run_host_stream(n: usize, ntimes: usize, pool: &Pool) -> HostStreamResult {
    assert!(n >= 64, "array too small to time");
    assert!(ntimes >= 2, "need at least two repetitions");
    let scalar = 3.0f64;
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let mut best = [f64::INFINITY; 4];

    for _ in 0..ntimes {
        // Copy: c = a
        let dt = timed_kernel(pool, &mut c, |i0, c| {
            for (c, a) in c.iter_mut().zip(&a[i0..]) {
                *c = *a;
            }
        });
        best[0] = best[0].min(dt);
        // Scale: b = scalar * c
        let dt = timed_kernel(pool, &mut b, |i0, b| {
            for (b, c) in b.iter_mut().zip(&c[i0..]) {
                *b = scalar * c;
            }
        });
        best[1] = best[1].min(dt);
        // Add: c = a + b
        let dt = timed_kernel(pool, &mut c, |i0, c| {
            for ((c, a), b) in c.iter_mut().zip(&a[i0..]).zip(&b[i0..]) {
                *c = a + b;
            }
        });
        best[2] = best[2].min(dt);
        // Triad: a = b + scalar * c
        let dt = timed_kernel(pool, &mut a, |i0, a| {
            for ((a, b), c) in a.iter_mut().zip(&b[i0..]).zip(&c[i0..]) {
                *a = b + scalar * c;
            }
        });
        best[3] = best[3].min(dt);
    }

    // STREAM validation: after k iterations the arrays satisfy a known
    // recurrence; check against a scalar replay.
    let (mut ea, mut eb, mut ec) = (1.0f64, 2.0f64, 0.0f64);
    for _ in 0..ntimes {
        ec = ea;
        eb = scalar * ec;
        ec = ea + eb;
        ea = eb + scalar * ec;
    }
    let tol = 1e-8;
    let validated = a.iter().all(|&v| (v - ea).abs() < tol * ea.abs())
        && b.iter().all(|&v| (v - eb).abs() < tol * eb.abs())
        && c.iter().all(|&v| (v - ec).abs() < tol * ec.abs());

    let mut best_gbs = [0.0f64; 4];
    for (slot, (kernel, &t)) in best_gbs.iter_mut().zip(StreamKernel::ALL.iter().zip(&best)) {
        *slot = (kernel.bytes_per_element() * n as u64) as f64 / t / 1e9;
    }
    HostStreamResult {
        best_gbs,
        n,
        threads: pool.nthreads(),
        validated,
    }
}

/// Time one team-parallel kernel writing `out`: `body` gets the index its
/// member's static block starts at and that block of `out`.
fn timed_kernel(pool: &Pool, out: &mut [f64], body: impl Fn(usize, &mut [f64]) + Sync) -> f64 {
    let n = out.len();
    let blocks = TeamChunks::new(pool, out, 1, 0, n);
    let t0 = std::time::Instant::now();
    pool.run(|team| {
        let (i0, mine) = blocks.claim(team);
        body(i0, mine);
    });
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_validates_and_reports_positive_bandwidth() {
        let pool = Pool::new(2);
        let r = run_host_stream(1 << 16, 3, &pool);
        assert!(r.validated, "solution check failed");
        for (k, &gbs) in StreamKernel::ALL.iter().zip(&r.best_gbs) {
            assert!(gbs > 0.0, "{} bandwidth {gbs}", k.name());
            assert!(gbs.is_finite());
        }
    }

    #[test]
    fn kernel_byte_counts_match_stream_definition() {
        assert_eq!(StreamKernel::Copy.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Scale.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Add.bytes_per_element(), 24);
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Bandwidth varies; the *data* must not.
        let r1 = run_host_stream(1 << 14, 2, &Pool::new(1));
        let r2 = run_host_stream(1 << 14, 2, &Pool::new(3));
        assert!(r1.validated && r2.validated);
    }

    #[test]
    #[should_panic(expected = "array too small")]
    fn rejects_tiny_arrays() {
        let pool = Pool::new(1);
        let _ = run_host_stream(8, 2, &pool);
    }
}
