//! Thread-placement policies, mirroring `OMP_PROC_BIND` / `OMP_PLACES`.
//!
//! The paper (§5.2) experiments with `OMP_PROC_BIND` on the SG2044 and finds
//! that *unbound* threads (OS free to migrate) beat explicit pinning for the
//! memory-bound MG kernel. The architecture simulator reproduces that
//! experiment, which requires the actual placement arithmetic: given a chip
//! topology (cores grouped into clusters, clusters grouped into NUMA
//! domains) and a policy, compute which core each team member lands on.
//!
//! On the host side this crate performs no affinity syscalls (placement is a
//! model input, not an OS action).

/// Chip topology as seen by the placement algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Total physical cores.
    pub cores: usize,
    /// Cores per cluster (cores sharing an L2 in the SG2042/SG2044).
    pub cores_per_cluster: usize,
    /// Cores per NUMA domain.
    pub cores_per_numa: usize,
}

/// Placement policy (the useful subset of `OMP_PROC_BIND`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BindPolicy {
    /// `OMP_PROC_BIND=false`: threads unbound; the OS may migrate them. In
    /// the simulator this is modelled as time-averaged uniform occupancy.
    #[default]
    Unbound,
    /// `OMP_PROC_BIND=close`: pack threads onto consecutive cores.
    Close,
    /// `OMP_PROC_BIND=spread`: distribute threads as evenly as possible
    /// across the chip (maximizing cluster/NUMA spread).
    Spread,
}

impl BindPolicy {
    /// Parse from the `OMP_PROC_BIND`-style strings used in config/env.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "false" | "unbound" | "none" => Some(Self::Unbound),
            "close" | "true" => Some(Self::Close),
            "spread" => Some(Self::Spread),
            _ => None,
        }
    }
}

/// Compute the core each of `nthreads` team members is placed on.
///
/// For [`BindPolicy::Unbound`] the returned mapping is the `Close` packing —
/// callers that model migration (the simulator) should treat unbound
/// placement as uniform occupancy instead of using this mapping verbatim;
/// see `rvhpc-core`'s predictor.
pub fn placement(policy: BindPolicy, nthreads: usize, topo: &Topology) -> Vec<usize> {
    assert!(
        nthreads <= topo.cores,
        "cannot place {nthreads} threads on {} cores",
        topo.cores
    );
    match policy {
        BindPolicy::Unbound | BindPolicy::Close => (0..nthreads).collect(),
        BindPolicy::Spread => {
            // Evenly stride threads across the core range so consecutive
            // threads land in different clusters where possible.
            (0..nthreads).map(|t| t * topo.cores / nthreads).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct clusters occupied by a placement — how much
    /// cluster-shared L2 capacity the team can use in aggregate.
    fn clusters_occupied(cores: &[usize], topo: &Topology) -> usize {
        let mut clusters: Vec<usize> = cores.iter().map(|c| c / topo.cores_per_cluster).collect();
        clusters.sort_unstable();
        clusters.dedup();
        clusters.len()
    }

    fn sg_topology() -> Topology {
        // SG2044: 64 cores in clusters of 4, single NUMA domain.
        Topology {
            cores: 64,
            cores_per_cluster: 4,
            cores_per_numa: 64,
        }
    }

    #[test]
    fn close_packs_consecutively() {
        let p = placement(BindPolicy::Close, 8, &sg_topology());
        assert_eq!(p, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(clusters_occupied(&p, &sg_topology()), 2);
    }

    #[test]
    fn spread_maximizes_cluster_coverage() {
        let topo = sg_topology();
        let p = placement(BindPolicy::Spread, 8, &topo);
        assert_eq!(p, vec![0, 8, 16, 24, 32, 40, 48, 56]);
        assert_eq!(clusters_occupied(&p, &topo), 8);
    }

    #[test]
    fn spread_with_full_chip_uses_every_core() {
        let topo = sg_topology();
        let p = placement(BindPolicy::Spread, 64, &topo);
        let mut q = p.clone();
        q.sort_unstable();
        q.dedup();
        assert_eq!(q.len(), 64);
        assert_eq!(clusters_occupied(&p, &topo), 16);
    }

    #[test]
    fn placement_is_within_range() {
        let topo = sg_topology();
        for n in 1..=64 {
            for pol in [BindPolicy::Close, BindPolicy::Spread, BindPolicy::Unbound] {
                let p = placement(pol, n, &topo);
                assert_eq!(p.len(), n);
                assert!(p.iter().all(|&c| c < topo.cores));
                // No two threads on the same core.
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                assert_eq!(
                    q.len(),
                    n,
                    "policy {pol:?} with {n} threads double-booked a core"
                );
            }
        }
    }

    #[test]
    fn parse_policy_strings() {
        assert_eq!(BindPolicy::parse("false"), Some(BindPolicy::Unbound));
        assert_eq!(BindPolicy::parse("CLOSE"), Some(BindPolicy::Close));
        assert_eq!(BindPolicy::parse("spread"), Some(BindPolicy::Spread));
        assert_eq!(BindPolicy::parse("bogus"), None);
    }
}
