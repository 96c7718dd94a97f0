//! Simulated STREAM — regenerates the paper's Figure 1.

use rvhpc_archsim::DramModel;
use rvhpc_machines::Machine;

use crate::host::StreamKernel;

/// One point of a simulated STREAM scaling curve.
#[derive(Debug, Clone)]
pub struct StreamPoint {
    pub cores: u32,
    pub copy_gbs: f64,
}

/// Sustained copy bandwidth (GB/s) on `machine` with `cores` active.
pub fn simulate_copy_bandwidth(machine: &Machine, cores: u32) -> f64 {
    let dram = DramModel::new(&machine.memory, &machine.core, machine.clock_ghz);
    dram.bandwidth(cores)
}

/// Per-kernel *reported* bandwidth (STREAM convention: counted bytes,
/// excluding the write-allocate fetch the hardware actually performs).
///
/// Copy/scale move two counted streams but three bus streams (read +
/// write-allocate + write-back); add/triad move three counted over four on
/// the bus. Reported bandwidth therefore differs slightly per kernel:
/// with the bus saturated at `B`, a 2-stream kernel reports `B·2/3` and a
/// 3-stream kernel `B·3/4` — the familiar few-percent triad ≥ copy gap.
pub fn simulate_kernel_bandwidth(machine: &Machine, kernel: StreamKernel, cores: u32) -> f64 {
    let bus = simulate_copy_bandwidth(machine, cores) * 1.5; // copy counts 2/3 of its bus traffic
    match kernel {
        StreamKernel::Copy | StreamKernel::Scale => bus * 2.0 / 3.0,
        StreamKernel::Add | StreamKernel::Triad => bus * 3.0 / 4.0,
    }
}

/// The full Figure 1 curve for a machine at the paper's core counts.
pub fn simulated_curve(machine: &Machine, core_counts: &[u32]) -> Vec<StreamPoint> {
    core_counts
        .iter()
        .filter(|&&p| p <= machine.cores)
        .map(|&cores| StreamPoint {
            cores,
            copy_gbs: simulate_copy_bandwidth(machine, cores),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::presets;

    const FIG1_CORES: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

    #[test]
    fn triad_reports_slightly_more_than_copy() {
        let m = presets::sg2044();
        for cores in [1u32, 8, 64] {
            let copy = simulate_kernel_bandwidth(&m, StreamKernel::Copy, cores);
            let triad = simulate_kernel_bandwidth(&m, StreamKernel::Triad, cores);
            let ratio = triad / copy;
            assert!(
                (1.05..1.2).contains(&ratio),
                "triad/copy at {cores} cores: {ratio:.3}"
            );
        }
    }

    #[test]
    fn copy_kernel_matches_fig1_definition() {
        let m = presets::sg2042();
        for cores in [1u32, 4, 64] {
            assert!(
                (simulate_kernel_bandwidth(&m, StreamKernel::Copy, cores)
                    - simulate_copy_bandwidth(&m, cores))
                .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn figure1_shape_sg2042_plateau_and_sg2044_scaling() {
        let c42 = simulated_curve(&presets::sg2042(), &FIG1_CORES);
        let c44 = simulated_curve(&presets::sg2044(), &FIG1_CORES);
        // Similar through 8 cores...
        for (p42, p44) in c42.iter().zip(&c44).take(4) {
            let ratio = p44.copy_gbs / p42.copy_gbs;
            assert!(
                (0.7..1.7).contains(&ratio),
                "at {} cores: {ratio:.2}",
                p42.cores
            );
        }
        // ...then the SG2042 plateaus while the SG2044 scales ~3×.
        let last42 = c42.last().unwrap().copy_gbs;
        let last44 = c44.last().unwrap().copy_gbs;
        assert!(last44 / last42 > 3.0, "64-core ratio {}", last44 / last42);
    }

    #[test]
    fn curves_respect_core_counts() {
        let sky = simulated_curve(&presets::xeon8170(), &FIG1_CORES);
        assert!(sky.iter().all(|p| p.cores <= 26));
        assert_eq!(sky.len(), 5); // 1,2,4,8,16
    }

    #[test]
    fn bandwidth_monotone_in_cores() {
        for m in presets::all() {
            let curve = simulated_curve(&m, &FIG1_CORES);
            for w in curve.windows(2) {
                assert!(w[1].copy_gbs >= w[0].copy_gbs - 1e-12, "{:?}", m.id);
            }
        }
    }
}
