//! Shared substrate for the three NPB pseudo-applications.
//!
//! BT, SP and LU all march the same problem: the 3-D compressible
//! Navier–Stokes equations, discretized with second-order central
//! differences plus fourth-order artificial dissipation on the unit cube,
//! with Dirichlet boundaries set from a polynomial "exact solution" and a
//! forcing term chosen so that exact solution is a steady state. They
//! differ only in the implicit solver: block-tridiagonal ADI (BT),
//! diagonalized scalar-pentadiagonal ADI (SP), and SSOR (LU).
//!
//! This module implements the shared parts once:
//!
//! * [`exact`] — the 13-coefficient polynomial exact solution (NPB's `ce`
//!   table and `exact_solution`).
//! * [`constants`] — gas constants, grid metrics, dissipation constants.
//! * [`fields`] — the 5-component state and auxiliary fields.
//! * [`rhs`] — the spatial right-hand-side operator (convective fluxes,
//!   viscous terms, fourth-order dissipation) and the forcing term, which
//!   is *defined* as the negated spatial operator applied to the exact
//!   solution sampled on the grid — the same quantity NPB's `exact_rhs`
//!   computes, obtained by construction rather than by 400 lines of
//!   expanded differences, and guaranteeing the discrete steady-state
//!   property `RHS(u_exact) = 0` that the stability invariants test.
//! * [`norms`] — RMS residual and solution-error norms used for
//!   verification.

pub(crate) mod constants;
pub(crate) mod exact;
pub(crate) mod fields;
pub(crate) mod jacobians;
pub(crate) mod matrix5;
pub(crate) mod norms;
pub(crate) mod rhs;

/// Admissible (positive density and pressure) conserved states, each with
/// an arbitrary right-hand side, from the NPB generator.
#[cfg(test)]
pub(crate) fn random_states(count: usize) -> Vec<([f64; 5], matrix5::Vec5)> {
    use crate::common::randdp::{randlc, A, SEED};
    let mut seed = SEED;
    let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * randlc(&mut seed, A);
    (0..count)
        .map(|_| {
            let rho = uniform(0.5, 2.0);
            let vel = [uniform(-1.5, 1.5), uniform(-1.5, 1.5), uniform(-1.5, 1.5)];
            let q = 0.5 * vel.iter().map(|v| v * v).sum::<f64>();
            let pressure = uniform(0.2, 3.0);
            let u = [
                rho,
                rho * vel[0],
                rho * vel[1],
                rho * vel[2],
                pressure / 0.4 + rho * q,
            ];
            (u, std::array::from_fn(|_| uniform(-10.0, 10.0)))
        })
        .collect()
}
