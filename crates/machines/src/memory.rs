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
    }
}
