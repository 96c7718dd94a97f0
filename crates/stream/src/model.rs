//! Simulated STREAM — regenerates the paper's Figure 1.

use rvhpc_archsim::DramModel;
use rvhpc_machines::Machine;

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
