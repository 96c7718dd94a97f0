//! Stress and property tests for the runtime: oversubscription, pool
//! longevity, schedule equivalence, concurrent pools.

use proptest::prelude::*;
use rvhpc_parallel::{Pool, Schedule, SyncSlice};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn heavily_oversubscribed_pool_makes_progress() {
    // 16 threads on (likely) far fewer cores: the yield-based waiting must
    // keep everything moving.
    let pool = Pool::new(16);
    let n = 10_000usize;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    pool.run(|team| {
        team.for_dynamic(0, n, 13, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        team.barrier();
        team.for_static(0, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
}

#[test]
fn pool_survives_thousands_of_regions() {
    let pool = Pool::new(3);
    let mut acc = 0usize;
    for round in 0..2000 {
        let r = pool.run(|team| team.tid() + round);
        acc += r.iter().sum::<usize>();
    }
    assert_eq!(acc, (0..2000).map(|r| 3 * r + 3).sum::<usize>());
}

#[test]
fn twenty_thousand_empty_regions_finish_on_fitting_and_oversubscribed_teams() {
    // Fork-join latency is all there is to an empty region: a team of two
    // polls for the next one, a team of 2 x CPUs + 1 parks between them.
    // (Whether a region reaches workers that poll and workers that parked,
    // and whether `drop` joins both, is pinned in `src/dispatch.rs`, where
    // the test can see who is parked.)
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for nthreads in [2, 2 * cpus + 1] {
        let pool = Pool::new(nthreads);
        let ran = AtomicUsize::new(0);
        for _ in 0..20_000 {
            pool.run(|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 20_000 * nthreads);
    }
}

#[test]
fn several_pools_coexist() {
    let pools: Vec<Pool> = (1..=4).map(Pool::new).collect();
    let handles: Vec<_> = pools
        .iter()
        .map(|pool| {
            pool.run(|team| {
                let mut local = 0u64;
                team.for_static(0, 1000, |i| local += i as u64);
                team.reduce_sum_u64(local)
            })
        })
        .collect();
    for r in handles {
        assert!(r.iter().all(|&v| v == (0..1000u64).sum::<u64>()));
    }
}

#[test]
fn all_schedules_compute_the_same_reduction() {
    let pool = Pool::new(4);
    let n = 20_000usize;
    let expect: u64 = (0..n as u64).map(|i| i.wrapping_mul(i)).sum();
    for sched in [
        Schedule::Static,
        Schedule::StaticChunk(7),
        Schedule::Dynamic(64),
        Schedule::Guided(4),
    ] {
        let total: u64 = pool
            .run(|team| {
                let mut local = 0u64;
                team.for_schedule(0, n, sched, |i| {
                    local = local.wrapping_add((i as u64).wrapping_mul(i as u64));
                });
                local
            })
            .into_iter()
            .sum();
        assert_eq!(total, expect, "{}", sched.name());
    }
}

#[test]
fn odd_sized_pool_under_back_to_back_dynamic_loops() {
    let pool = Pool::new(5);
    let n = 5000usize;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    pool.run(|team| {
        for _ in 0..10 {
            team.for_dynamic(0, n, 11, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 10));
}

#[test]
fn sync_slice_stencil_update_with_plane_ownership() {
    // A 2-D Jacobi-style sweep where each thread owns whole rows: the
    // cross-crate usage pattern every NPB stencil relies on.
    let pool = Pool::new(3);
    let (rows, cols) = (64usize, 64usize);
    let mut src = vec![0.0f64; rows * cols];
    for (i, v) in src.iter_mut().enumerate() {
        *v = (i % 17) as f64;
    }
    let mut dst = vec![0.0f64; rows * cols];
    {
        let d = SyncSlice::new(&mut dst);
        let s = &src;
        pool.run(|team| {
            team.for_static(1, rows - 1, |r| {
                for ccol in 1..cols - 1 {
                    let idx = r * cols + ccol;
                    let v = 0.25 * (s[idx - 1] + s[idx + 1] + s[idx - cols] + s[idx + cols]);
                    // SAFETY: row r is exclusively ours.
                    unsafe { d.set(idx, v) };
                }
            });
        });
    }
    // Serial oracle.
    for r in 1..rows - 1 {
        for ccol in 1..cols - 1 {
            let idx = r * cols + ccol;
            let v = 0.25 * (src[idx - 1] + src[idx + 1] + src[idx - cols] + src[idx + cols]);
            assert_eq!(dst[idx], v);
        }
    }
}

#[test]
#[should_panic(expected = "not reentrant")]
fn nested_run_on_the_same_pool_is_rejected() {
    let pool = Pool::new(2);
    let p = &pool;
    pool.run(|team| {
        if team.tid() == 0 {
            // A second fork on the same pool from inside a region must be
            // caught, not deadlock.
            let _ = p.run(|t| t.tid());
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Work-sharing covers arbitrary ranges exactly once for any schedule
    /// and team size.
    #[test]
    fn any_schedule_partitions_any_range(
        n in 0usize..3000,
        team in 1usize..6,
        sched_pick in 0usize..4,
        chunk in 1usize..64,
    ) {
        let sched = match sched_pick {
            0 => Schedule::Static,
            1 => Schedule::StaticChunk(chunk),
            2 => Schedule::Dynamic(chunk),
            _ => Schedule::Guided(chunk),
        };
        let pool = Pool::new(team);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|team| {
            team.for_schedule(0, n, sched, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Array reductions equal the serial elementwise sums for any widths.
    #[test]
    fn vec_reduction_matches_serial(vals in prop::collection::vec(-100.0f64..100.0, 1..16), team in 1usize..5) {
        let pool = Pool::new(team);
        let out = pool.run(|t| {
            // Every member contributes `vals` scaled by its tid+1.
            let mine: Vec<f64> = vals.iter().map(|v| v * (t.tid() + 1) as f64).collect();
            t.reduce_f64_vec(&mine)
        });
        let factor: f64 = (1..=team).map(|k| k as f64).sum();
        for member in out {
            for (got, want) in member.iter().zip(&vals) {
                let expect = want * factor;
                prop_assert!((got - expect).abs() < 1e-9 * expect.abs().max(1.0));
            }
        }
    }
}
