//! Cache-level geometry.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Total capacity of one cache instance, in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (64 on every machine in the study).
    pub line_bytes: u32,
    /// Associativity (ways).
    pub associativity: u32,
    /// How many cores share one instance of this cache (1 = private,
    /// 4 = per-cluster like the SG2044's L2, `cores` = chip-wide L3).
    pub shared_by_cores: u32,
    /// Load-to-use latency in core cycles.
    pub latency_cycles: u32,
}

impl CacheSpec {
    /// Convenience constructor with KiB capacity.
    pub(crate) fn kib(
        size_kib: u64,
        associativity: u32,
        shared_by_cores: u32,
        latency_cycles: u32,
    ) -> Self {
        Self {
            size_bytes: size_kib * 1024,
            line_bytes: 64,
            associativity,
            shared_by_cores,
            latency_cycles,
        }
    }

    /// Convenience constructor with MiB capacity.
    pub(crate) fn mib(
        size_mib: u64,
        associativity: u32,
        shared_by_cores: u32,
        latency_cycles: u32,
    ) -> Self {
        Self::kib(
            size_mib * 1024,
            associativity,
            shared_by_cores,
            latency_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_arithmetic() {
        let l1 = CacheSpec::kib(64, 4, 1, 4);
        assert_eq!(l1.size_bytes, 65536);
    }

    #[test]
    fn geometry_is_power_of_two_for_presets() {
        for c in [
            CacheSpec::kib(32, 8, 1, 4),
            CacheSpec::kib(64, 4, 1, 4),
            CacheSpec::mib(2, 16, 4, 24),
            CacheSpec::mib(64, 16, 64, 45),
        ] {
            let sets = c.size_bytes / (u64::from(c.line_bytes) * u64::from(c.associativity));
            assert!(sets.is_power_of_two(), "{c:?}");
        }
    }
}
