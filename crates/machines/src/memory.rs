//! Off-chip memory subsystem geometry.
//!
//! The paper attributes the SG2044's headline result to exactly these
//! parameters (§5.2): controllers, channels, and DDR generation — "when
//! running over 64 cores the ratio of cores to memory controllers/channels
//! in the SG2044 is 2:1, whereas it is 16:1 in the SG2042".

/// DRAM generation (with its transfer-rate class as used by each machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DdrGeneration {
    /// DDR3 (AllWinner D1 class boards).
    Ddr3,
    /// LPDDR4 (VisionFive boards, SpacemiT boards).
    Lpddr4,
    /// DDR4 (SG2042, EPYC, Skylake, ThunderX2).
    Ddr4,
    /// DDR5 (SG2044).
    Ddr5,
}

impl DdrGeneration {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DdrGeneration::Ddr3 => "DDR3",
            DdrGeneration::Lpddr4 => "LPDDR4",
            DdrGeneration::Ddr4 => "DDR4",
            DdrGeneration::Ddr5 => "DDR5",
        }
    }

    /// Typical random-access (closed-page) latency in nanoseconds, used as
    /// the base DRAM latency by the simulator. DDR5 trades slightly higher
    /// idle latency for much higher parallelism.
    pub fn base_latency_ns(&self) -> f64 {
        match self {
            DdrGeneration::Ddr3 => 55.0,
            DdrGeneration::Lpddr4 => 60.0,
            DdrGeneration::Ddr4 => 45.0,
            DdrGeneration::Ddr5 => 50.0,
        }
    }
}

/// Off-chip memory subsystem of one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Memory controllers.
    pub controllers: u32,
    /// Memory channels (DDR5 counts 32-bit sub-channels, which is how
    /// SOPHGO arrives at "32 channels" for the SG2044).
    pub channels: u32,
    /// Width of one channel in bytes (8 for DDR3/DDR4, 4 for DDR5
    /// sub-channels, 4 for the LPDDR4 x32 packages on the small boards).
    pub channel_bytes: u32,
    /// Transfer rate in mega-transfers per second (e.g. 3200 for DDR4-3200).
    pub mt_per_s: u32,
    /// Generation.
    pub generation: DdrGeneration,
    /// Uncontended full-path memory latency seen by a core, in ns (includes
    /// the on-chip path; small boards have notoriously long paths).
    pub idle_latency_ns: f64,
    /// Fraction of theoretical peak bandwidth the controller complex
    /// sustains under full streaming load (calibrated against published
    /// STREAM results; the SG2042's low value *is* the paper's finding
    /// from \[3\], and the SG2044's value is set so Figure 1's 64-core ≈3×
    /// ratio holds).
    pub sustained_fraction: f64,
}

impl MemorySpec {
    /// Theoretical peak bandwidth in GB/s.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.channels as f64 * self.channel_bytes as f64 * self.mt_per_s as f64 * 1.0e6 / 1.0e9
    }

    /// Peak bandwidth of a single channel in GB/s.
    pub fn channel_bandwidth_gbs(&self) -> f64 {
        self.peak_bandwidth_gbs() / self.channels as f64
    }

    /// Core-to-channel ratio at `p` active cores — the quantity the paper
    /// uses to explain the SG2042 plateau (saturates beyond ≈4:1).
    pub fn core_channel_ratio(&self, active_cores: u32) -> f64 {
        active_cores as f64 / self.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_3200_eight_channel_peak() {
        // EPYC 7742: 8 × DDR4-3200 × 8 B = 204.8 GB/s.
        let m = MemorySpec {
            controllers: 8,
            channels: 8,
            channel_bytes: 8,
            mt_per_s: 3200,
            generation: DdrGeneration::Ddr4,
            idle_latency_ns: 95.0,
            sustained_fraction: 0.75,
        };
        assert!((m.peak_bandwidth_gbs() - 204.8).abs() < 1e-9);
        assert!((m.channel_bandwidth_gbs() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn core_channel_ratios_match_paper() {
        let sg2042 = MemorySpec {
            controllers: 4,
            channels: 4,
            channel_bytes: 8,
            mt_per_s: 3200,
            generation: DdrGeneration::Ddr4,
            idle_latency_ns: 110.0,
            sustained_fraction: 0.36,
        };
        let sg2044 = MemorySpec {
            controllers: 32,
            channels: 32,
            channel_bytes: 4,
            mt_per_s: 4266,
            generation: DdrGeneration::Ddr5,
            idle_latency_ns: 100.0,
            sustained_fraction: 0.21,
        };
        // Paper §5.2: 16:1 for the SG2042 at 64 cores, 2:1 for the SG2044.
        assert_eq!(sg2042.core_channel_ratio(64), 16.0);
        assert_eq!(sg2044.core_channel_ratio(64), 2.0);
    }

    #[test]
    fn latency_ordering_is_sane() {
        assert!(DdrGeneration::Ddr4.base_latency_ns() < DdrGeneration::Ddr5.base_latency_ns());
        assert!(DdrGeneration::Ddr5.base_latency_ns() < DdrGeneration::Lpddr4.base_latency_ns());
    }
}
