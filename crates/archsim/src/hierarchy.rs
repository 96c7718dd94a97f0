//! Cache-hierarchy composition.
//!
//! Combines the per-level miss estimates into the quantities the
//! performance model needs: for one phase's access pattern, the fraction
//! of references served by each level and by DRAM, with effective
//! capacities that account for how many threads share each cache instance
//! (the paper leans on exactly this: the SG2044 doubling the
//! cluster-shared L2 "could also be having an impact" on CG, §5.4).

use rvhpc_machines::Machine;

use crate::cache::estimate;

/// How a phase walks memory — mirror of the npb profile's pattern enum,
/// kept local so archsim does not depend on rvhpc-npb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    Streaming {
        elem_bytes: u32,
    },
    Strided {
        stride_bytes: u32,
    },
    RandomInWs {
        elem_bytes: u32,
    },
    /// Index stream + random data stream.
    Indirect {
        elem_bytes: u32,
    },
}

/// Fraction of references served at each level.
#[derive(Debug, Clone, Copy, Default)]
pub struct MissBreakdown {
    /// Served by L1.
    pub l1: f64,
    /// Served by L2.
    pub l2: f64,
    /// Served by L3.
    pub l3: f64,
    /// Went to DRAM.
    pub dram: f64,
}

impl MissBreakdown {
    /// Sanity: fractions sum to 1.
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.l1 + self.l2 + self.l3 + self.dram
    }
}

/// The hierarchy model for one machine at a given thread count.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Effective per-thread capacities at each level, bytes.
    pub l1_bytes: f64,
    pub l2_bytes: f64,
    pub l3_bytes: f64,
    /// Full per-instance capacities, for *shared* (single-copy) data: a
    /// read-shared structure occupies each cache once, not once per
    /// sharer.
    pub l2_instance_bytes: f64,
    pub l3_instance_bytes: f64,
    pub line: u32,
    /// Whether an L3 exists at all.
    pub has_l3: bool,
}

impl Hierarchy {
    /// Effective capacities for `threads` active threads on `m`,
    /// close-packed placement.
    ///
    /// * L1 is private.
    /// * L2 capacity is the machine's per-instance size divided by the
    ///   threads *sharing that instance* (cluster-shared on the SGs,
    ///   private on EPYC/Xeon/TX2) — but a lone thread on a cluster gets
    ///   the whole instance.
    /// * L3 likewise at chip (or CCX) scope.
    pub fn for_threads(m: &Machine, threads: u32) -> Self {
        let threads = threads.max(1);
        let l2_sharers = threads.min(m.l2.shared_by_cores).max(1);
        let (l3_bytes, l3_instance, has_l3) = match &m.l3 {
            Some(l3) => {
                let sharers = threads.min(l3.shared_by_cores).max(1);
                (
                    l3.size_bytes as f64 / sharers as f64,
                    l3.size_bytes as f64,
                    true,
                )
            }
            None => (0.0, 0.0, false),
        };
        Self {
            l1_bytes: m.l1d.size_bytes as f64,
            l2_bytes: m.l2.size_bytes as f64 / l2_sharers as f64,
            l3_bytes,
            l2_instance_bytes: m.l2.size_bytes as f64,
            l3_instance_bytes: l3_instance,
            line: m.l1d.line_bytes,
            has_l3,
        }
    }

    /// Like [`Hierarchy::breakdown`] but for *shared* (single-copy) data:
    /// capacity checks use the full per-instance sizes.
    pub fn breakdown_shared(&self, ws: f64, pattern: Pattern) -> MissBreakdown {
        let shared_view = Self {
            l1_bytes: self.l1_bytes,
            l2_bytes: self.l2_instance_bytes,
            l3_bytes: self.l3_instance_bytes,
            l2_instance_bytes: self.l2_instance_bytes,
            l3_instance_bytes: self.l3_instance_bytes,
            line: self.line,
            has_l3: self.has_l3,
        };
        shared_view.breakdown(ws, pattern)
    }

    /// Per-level service breakdown for a working set of `ws` bytes per
    /// thread walked with `pattern`.
    pub fn breakdown(&self, ws: f64, pattern: Pattern) -> MissBreakdown {
        let miss_at = |cap: f64| -> f64 {
            match pattern {
                Pattern::Streaming { elem_bytes } => {
                    estimate::streaming(ws, cap, elem_bytes, self.line)
                }
                Pattern::Strided { stride_bytes } => {
                    estimate::strided(ws, cap, stride_bytes, self.line)
                }
                Pattern::RandomInWs { .. } | Pattern::Indirect { .. } => {
                    estimate::random_in_ws(ws, cap)
                }
            }
        };
        let m1 = miss_at(self.l1_bytes).clamp(0.0, 1.0);
        let m2 = miss_at(self.l2_bytes).clamp(0.0, 1.0).min(m1);
        let m3 = if self.has_l3 {
            miss_at(self.l3_bytes).clamp(0.0, 1.0).min(m2)
        } else {
            m2
        };
        MissBreakdown {
            l1: 1.0 - m1,
            l2: m1 - m2,
            l3: m2 - m3,
            dram: m3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::presets;

    #[test]
    fn fractions_sum_to_one() {
        let m = presets::sg2044();
        for threads in [1, 4, 16, 64] {
            let h = Hierarchy::for_threads(&m, threads);
            for ws in [1e3, 1e5, 1e7, 1e9] {
                for pat in [
                    Pattern::Streaming { elem_bytes: 8 },
                    Pattern::RandomInWs { elem_bytes: 8 },
                    Pattern::Strided { stride_bytes: 4096 },
                    Pattern::Indirect { elem_bytes: 8 },
                ] {
                    let b = h.breakdown(ws, pat);
                    assert!((b.total() - 1.0).abs() < 1e-12, "{b:?}");
                    assert!(b.l1 >= 0.0 && b.l2 >= 0.0 && b.l3 >= 0.0 && b.dram >= 0.0);
                }
            }
        }
    }

    #[test]
    fn tiny_working_sets_live_in_l1() {
        let h = Hierarchy::for_threads(&presets::sg2044(), 64);
        let b = h.breakdown(16.0 * 1024.0, Pattern::RandomInWs { elem_bytes: 8 });
        assert!(b.l1 > 0.99, "{b:?}");
    }

    #[test]
    fn huge_random_working_sets_hit_dram() {
        let h = Hierarchy::for_threads(&presets::sg2044(), 64);
        let b = h.breakdown(4e9, Pattern::RandomInWs { elem_bytes: 8 });
        assert!(b.dram > 0.9, "{b:?}");
    }

    #[test]
    fn streaming_misses_at_line_granularity() {
        let h = Hierarchy::for_threads(&presets::sg2042(), 64);
        let b = h.breakdown(1e9, Pattern::Streaming { elem_bytes: 8 });
        // 8-byte elements on 64-byte lines: 1/8 of refs go below L1, and
        // with a 1 GB working set they reach DRAM.
        assert!((b.dram - 0.125).abs() < 0.01, "{b:?}");
    }

    #[test]
    fn lone_thread_gets_whole_shared_l2() {
        let m = presets::sg2044();
        let h1 = Hierarchy::for_threads(&m, 1);
        assert_eq!(h1.l2_bytes, 2.0 * 1024.0 * 1024.0);
        let h4 = Hierarchy::for_threads(&m, 4);
        assert_eq!(h4.l2_bytes, 512.0 * 1024.0);
        // Beyond one cluster the per-thread share stays constant.
        let h64 = Hierarchy::for_threads(&m, 64);
        assert_eq!(h64.l2_bytes, 512.0 * 1024.0);
    }

    #[test]
    fn sg2044_l2_doubles_sg2042() {
        let h44 = Hierarchy::for_threads(&presets::sg2044(), 64);
        let h42 = Hierarchy::for_threads(&presets::sg2042(), 64);
        assert_eq!(h44.l2_bytes, 2.0 * h42.l2_bytes);
    }

    #[test]
    fn epyc_l3_is_ccx_private() {
        // EPYC: 16 MiB per 4-core CCX → 4 MiB per thread at full chip.
        let h = Hierarchy::for_threads(&presets::epyc7742(), 64);
        assert_eq!(h.l3_bytes, 4.0 * 1024.0 * 1024.0);
        // Xeon: one 35.75 MiB L3 for 26 threads → ~1.375 MiB each.
        let h = Hierarchy::for_threads(&presets::xeon8170(), 26);
        assert!((h.l3_bytes / (1024.0 * 1024.0) - 1.408) < 0.1);
    }

    #[test]
    fn boards_without_l3_report_none() {
        let h = Hierarchy::for_threads(&presets::visionfive_v2(), 4);
        assert!(!h.has_l3);
        let b = h.breakdown(1e8, Pattern::RandomInWs { elem_bytes: 8 });
        assert_eq!(b.l3, 0.0);
        assert!(b.dram > 0.9);
    }
}
