//! Gas, grid and dissipation constants (NPB `set_constants`).

/// All scalar constants needed by the pseudo-application operators.
#[derive(Debug, Clone)]
pub(crate) struct CfdConstants {
    /// Time step.
    pub dt: f64,
    // Gas constants.
    pub c1: f64,
    pub c2: f64,
    pub c3c4: f64,
    pub c1345: f64,
    pub con43: f64,
    /// Reciprocal grid spacing denominators: `1/(n-1)`.
    pub dnm1: f64,
    // Metric factors per direction (the grid is isotropic here, as in the
    // NPB cubic classes: tx ≡ ty ≡ tz numerically, kept separate for
    // fidelity to the reference structure).
    pub tx1: f64,
    pub tx2: f64,
    pub ty1: f64,
    pub ty2: f64,
    pub tz1: f64,
    pub tz2: f64,
    // Artificial-dissipation strengths (NPB dx1..dz5 collapsed: the
    // reference uses 0.75 in x/y and 1.0 in z).
    pub dx: f64,
    pub dy: f64,
    pub dz: f64,
    /// Fourth-difference dissipation coefficient `max(dx,dy,dz)/4`.
    pub dssp: f64,
    // Viscous-term combinations (xxcon ≡ yycon ≡ zzcon on the cube).
    pub xxcon2: f64,
    pub xxcon3: f64,
    pub xxcon4: f64,
    pub xxcon5: f64,
}

impl CfdConstants {
    /// Constants for an `n³` grid with time step `dt`.
    pub(crate) fn new(n: usize, dt: f64) -> Self {
        assert!(n >= 5, "pseudo-app grids need at least 5 points per side");
        let c1 = 1.4;
        let c2 = 0.4;
        let c3 = 0.1;
        let c4 = 1.0;
        let c5 = 1.4;
        let c1c5 = c1 * c5;
        let c3c4 = c3 * c4;
        let c1345 = c1 * c3 * c4 * c5;
        let con43 = 4.0 / 3.0;
        let conz1 = 1.0 - c1c5;
        let dnm1 = 1.0 / (n as f64 - 1.0);
        let tx3 = 1.0 / dnm1;
        let tx1 = tx3 * tx3;
        let tx2 = tx3 / 2.0;
        let (dx, dy, dz) = (0.75f64, 0.75f64, 1.0f64);
        let dssp = 0.25 * dx.max(dy).max(dz);
        Self {
            dt,
            c1,
            c2,
            c3c4,
            c1345,
            con43,
            dnm1,
            tx1,
            tx2,
            ty1: tx1,
            ty2: tx2,
            tz1: tx1,
            tz2: tx2,
            dx,
            dy,
            dz,
            dssp,
            xxcon2: c3c4 * tx3 * tx3,
            xxcon3: c3c4 * conz1 * tx3 * tx3,
            xxcon4: c3c4 * tx3 * tx3 / 2.0,
            xxcon5: c3c4 * c1c5 * tx3 * tx3,
        }
    }

    /// Physical coordinate of 0-based grid index `i`.
    #[inline]
    pub(crate) fn coord(&self, i: usize) -> f64 {
        i as f64 * self.dnm1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gas_constants_match_npb() {
        let c = CfdConstants::new(12, 0.01);
        assert_eq!(c.c1, 1.4);
        assert_eq!(c.c2, 0.4);
        assert!((c.con43 - 4.0 / 3.0).abs() < 1e-15);
        assert!((c.dssp - 0.25).abs() < 1e-12); // max(0.75,0.75,1.0)/4
    }

    #[test]
    fn metrics_scale_with_grid() {
        let small = CfdConstants::new(12, 0.01);
        let big = CfdConstants::new(102, 0.01);
        assert!(big.tx1 > small.tx1);
        assert!((small.coord(11) - 1.0).abs() < 1e-12);
        assert!((big.coord(101) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 5")]
    fn tiny_grids_are_rejected() {
        let _ = CfdConstants::new(4, 0.01);
    }
}
