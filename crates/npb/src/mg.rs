//! MG — the Multi-Grid kernel.
//!
//! Approximates the solution of a 3-D Poisson problem `∇²u = v` with
//! periodic boundaries using V-cycles of a four-coefficient 27-point
//! multigrid: full-weighting restriction (`rprj3`), trilinear prolongation
//! (`interp`), the residual operator `A` (`resid`) and the smoother `S`
//! (`psinv`). The right-hand side is zero except for +1 at the ten grid
//! points where a pseudo-random field is largest and −1 at the ten where
//! it is smallest (`zran3`).
//!
//! MG streams several full grids per sweep: it is the paper's memory-
//! *bandwidth* probe (§5.2; Table 1: 88% of its time DDR-bandwidth bound
//! on the Xeon).
//!
//! Port of NPB 3.4 `MG/mg.f`: same stencil coefficients (class-dependent
//! smoother), same V-cycle schedule, same `zran3` generator consumption,
//! and the published residual-norm verification constants.

use rvhpc_parallel::{Pool, TeamChunks};

use crate::common::array::Array3;
use crate::common::class::{self, Class};
use crate::common::mops;
use crate::common::randdp::{randlc, skip_ahead, vranlc, A as AMULT, SEED};
use crate::common::result::{BenchResult, Provenance};
use crate::common::timers::Timers;
use crate::common::verify;
use crate::profile::{AccessPattern, PhaseProfile, WorkloadProfile};
use crate::{Benchmark, BenchmarkId};

/// The MG benchmark.
pub(crate) struct Mg;

/// Residual-operator coefficients (NPB's `a`): center, faces, edges,
/// corners. The face coefficient is exactly zero and its term is skipped,
/// as in the reference.
const A_COEF: [f64; 4] = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];

/// Smoother coefficients (NPB's `c`), class-dependent.
fn c_coef(class: Class) -> [f64; 4] {
    match class {
        // S(a) smoother for the small classes.
        Class::T | Class::S | Class::W | Class::A => [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0],
        // S(b) smoother for the big classes.
        Class::B | Class::C => [-3.0 / 17.0, 1.0 / 33.0, -1.0 / 61.0, 0.0],
    }
}

/// Row `(i3, i2)` of a flat `m³` grid. Every kernel below works on such
/// row views: the bounds are checked here, once per row, and the `i1`
/// loops over them compile to straight-line vector code.
#[inline]
fn row(g: &[f64], m: usize, i3: usize, i2: usize) -> &[f64] {
    &g[(i3 * m + i2) * m..][..m]
}

/// The `n` interior points of a row as seen from their left neighbour,
/// from themselves and from their right neighbour.
#[inline]
fn taps(row: &[f64], n: usize) -> (&[f64], &[f64], &[f64]) {
    (&row[..n], &row[1..][..n], &row[2..][..n])
}

/// The two partial sums every 27-point operator here starts from, for all
/// of row `(i3, i2)`: `face[i1]` adds the four neighbours that share a face
/// with the row in the `(i2, i3)` plane, `edge[i1]` the four diagonal ones
/// (NPB's `u1`/`u2`, `r1`/`r2`, `x1`/`y1`).
#[inline]
fn plane_sums(g: &[f64], m: usize, i3: usize, i2: usize, face: &mut [f64], edge: &mut [f64]) {
    let at = |j3: usize, j2: usize| row(g, m, j3, j2);
    let (s, n, b, a) = (
        at(i3, i2 - 1),
        at(i3, i2 + 1),
        at(i3 - 1, i2),
        at(i3 + 1, i2),
    );
    let (bs, bn, as_, an) = (
        at(i3 - 1, i2 - 1),
        at(i3 - 1, i2 + 1),
        at(i3 + 1, i2 - 1),
        at(i3 + 1, i2 + 1),
    );
    let (face, edge) = (&mut face[..m], &mut edge[..m]);
    for i1 in 0..m {
        face[i1] = s[i1] + n[i1] + b[i1] + a[i1];
        edge[i1] = bs[i1] + bn[i1] + as_[i1] + an[i1];
    }
}

/// Periodic ghost-cell exchange (NPB `comm3`): copy the opposing interior
/// face into each ghost face, axis by axis so edges and corners resolve.
fn comm3(g: &mut Array3, pool: &Pool) {
    let (m, _, _) = g.dims();
    let hi = m - 1;
    let plane = m * m;
    let flat = g.flat_mut();
    {
        // Axes 1 and 2 stay inside an interior plane, so its owner does
        // both, in order.
        let planes = TeamChunks::new(pool, flat, plane, 1, hi);
        pool.run(|team| {
            team.phase("comm3-ghost", || {
                for (_, p) in planes.claim_units(team) {
                    for r in p[m..hi * m].chunks_exact_mut(m) {
                        r[0] = r[hi - 1];
                        r[hi] = r[1];
                    }
                    p.copy_within((hi - 1) * m..hi * m, 0);
                    p.copy_within(m..2 * m, hi * m);
                }
            });
        });
    }
    // Axis 3 fills the two ghost planes from interior planes nobody writes
    // any more; shared by rows.
    let (ghost_lo, rest) = flat.split_at_mut(plane);
    let (interior, ghost_hi) = rest.split_at_mut((hi - 1) * plane);
    let (first, last) = (&interior[..plane], &interior[(hi - 2) * plane..]);
    let lo_rows = TeamChunks::new(pool, ghost_lo, m, 0, m);
    let hi_rows = TeamChunks::new(pool, ghost_hi, m, 0, m);
    pool.run(|team| {
        team.phase("comm3-ghost", || {
            let (i2, dst) = lo_rows.claim(team);
            dst.copy_from_slice(&last[i2 * m..][..dst.len()]);
            let (i2, dst) = hi_rows.claim(team);
            dst.copy_from_slice(&first[i2 * m..][..dst.len()]);
        });
    });
}

/// Where `resid` reads its right-hand side from.
enum VSource<'a> {
    /// A separate array.
    Separate(&'a Array3),
    /// The output array itself (`r ← r − A u`); only the center value is
    /// read, before it is overwritten, so in-place is safe.
    InPlace,
}

/// `r = v − A u` (NPB `resid`), followed by `comm3(r)`.
fn resid(u: &Array3, v: VSource<'_>, r: &mut Array3, pool: &Pool) {
    let (m, _, _) = u.dims();
    let n = m - 2;
    {
        let uf = u.flat();
        let planes = TeamChunks::new(pool, r.flat_mut(), m * m, 1, m - 1);
        pool.run(|team| {
            let mut u1 = vec![0.0f64; m];
            let mut u2 = vec![0.0f64; m];
            team.phase("stencil-sweeps", || {
                for (i3, plane) in planes.claim_units(team) {
                    for (i2, out) in plane.chunks_exact_mut(m).enumerate().skip(1).take(n) {
                        plane_sums(uf, m, i3, i2, &mut u1, &mut u2);
                        let uc = &row(uf, m, i3, i2)[1..][..n];
                        let (u1l, _, u1r) = taps(&u1, n);
                        let (u2l, u2c, u2r) = taps(&u2, n);
                        let minus_au = |vv: f64, i: usize| {
                            vv - A_COEF[0] * uc[i]
                                - A_COEF[2] * (u2c[i] + u1l[i] + u1r[i])
                                - A_COEF[3] * (u2l[i] + u2r[i])
                        };
                        let out = &mut out[1..][..n];
                        match &v {
                            VSource::Separate(va) => {
                                let vv = &row(va.flat(), m, i3, i2)[1..][..n];
                                for i in 0..n {
                                    out[i] = minus_au(vv[i], i);
                                }
                            }
                            VSource::InPlace => {
                                for i in 0..n {
                                    out[i] = minus_au(out[i], i);
                                }
                            }
                        }
                    }
                }
            });
        });
    }
    comm3(r, pool);
}

/// `u += S r` (NPB `psinv`), followed by `comm3(u)`.
fn psinv(r: &Array3, u: &mut Array3, c: &[f64; 4], pool: &Pool) {
    let (m, _, _) = r.dims();
    let n = m - 2;
    {
        let rf = r.flat();
        let planes = TeamChunks::new(pool, u.flat_mut(), m * m, 1, m - 1);
        pool.run(|team| {
            let mut r1 = vec![0.0f64; m];
            let mut r2 = vec![0.0f64; m];
            team.phase("stencil-sweeps", || {
                for (i3, plane) in planes.claim_units(team) {
                    for (i2, out) in plane.chunks_exact_mut(m).enumerate().skip(1).take(n) {
                        plane_sums(rf, m, i3, i2, &mut r1, &mut r2);
                        let (rl, rc, rr) = taps(row(rf, m, i3, i2), n);
                        let (r1l, r1c, r1r) = taps(&r1, n);
                        let r2c = &r2[1..][..n];
                        let out = &mut out[1..][..n];
                        for i in 0..n {
                            out[i] = out[i]
                                + c[0] * rc[i]
                                + c[1] * (rl[i] + rr[i] + r1c[i])
                                + c[2] * (r2c[i] + r1l[i] + r1r[i]);
                        }
                    }
                }
            });
        });
    }
    comm3(u, pool);
}

/// The fine points `2j − 1, 2j, 2j + 1` around each interior coarse point
/// `j = 1, 2, …` of a fine row.
#[inline]
fn fine_taps(fine_row: &[f64]) -> impl Iterator<Item = &[f64]> {
    fine_row[1..].windows(3).step_by(2)
}

/// Full-weighting restriction fine `rf` → coarse `rc` (NPB `rprj3`),
/// followed by `comm3(rc)`.
fn rprj3(rfine: &Array3, rcoarse: &mut Array3, pool: &Pool) {
    let (mf, _, _) = rfine.dims();
    let (mc, _, _) = rcoarse.dims();
    let nc = mc - 2;
    {
        let ff = rfine.flat();
        let planes = TeamChunks::new(pool, rcoarse.flat_mut(), mc * mc, 1, nc + 1);
        pool.run(|team| {
            // Alignment: the fine point coincident with coarse j is 2j
            // (0-based) — the same parity `interp` injects at (NPB's d=1
            // offsets). x1/y1 hold the first-sum rows at every fine point:
            // NPB's `x1`/`y1` at the odd ones, its `x2`/`y2` at the even.
            let mut x1 = vec![0.0f64; mf];
            let mut y1 = vec![0.0f64; mf];
            for (j3, plane) in planes.claim_units(team) {
                for (j2, out) in plane.chunks_exact_mut(mc).enumerate().skip(1).take(nc) {
                    let (i3, i2) = (2 * j3, 2 * j2);
                    plane_sums(ff, mf, i3, i2, &mut x1, &mut y1);
                    let center = fine_taps(row(ff, mf, i3, i2));
                    let sums = fine_taps(&x1).zip(fine_taps(&y1));
                    for ((o, f), (x, y)) in out[1..][..nc].iter_mut().zip(center).zip(sums) {
                        *o = 0.5 * f[1]
                            + 0.25 * (f[0] + f[2] + x[1])
                            + 0.125 * (x[0] + x[2] + y[1])
                            + 0.0625 * (y[0] + y[2]);
                    }
                }
            }
        });
    }
    comm3(rcoarse, pool);
}

/// Trilinear prolongation coarse `z` → fine `u` (additive; NPB `interp`).
fn interp(z: &Array3, u: &mut Array3, pool: &Pool) {
    let (mc, _, _) = z.dims();
    let (mf, _, _) = u.dims();
    let nc = mc - 2;
    let zf = z.flat();
    // Coarse plane c3 writes fine planes 2c3 and 2c3+1: disjoint pairs.
    let pairs = TeamChunks::new(pool, u.flat_mut(), 2 * mf * mf, 0, nc + 1);
    pool.run(|team| {
        let mut z1 = vec![0.0f64; mc];
        let mut z2 = vec![0.0f64; mc];
        let mut z3 = vec![0.0f64; mc];
        for (c3, pair) in pairs.claim_units(team) {
            let (lower, upper) = pair.split_at_mut(mf * mf);
            let row_pairs = lower
                .chunks_exact_mut(2 * mf)
                .zip(upper.chunks_exact_mut(2 * mf));
            for (c2, (lower, upper)) in row_pairs.enumerate() {
                let z00 = row(zf, mc, c3, c2);
                let (z01, z10, z11) = (
                    row(zf, mc, c3, c2 + 1),
                    row(zf, mc, c3 + 1, c2),
                    row(zf, mc, c3 + 1, c2 + 1),
                );
                let (z1, z2, z3) = (&mut z1[..mc], &mut z2[..mc], &mut z3[..mc]);
                for c1 in 0..mc {
                    z1[c1] = z01[c1] + z00[c1];
                    z2[c1] = z10[c1] + z00[c1];
                    z3[c1] = z11[c1] + z10[c1] + z1[c1];
                }
                // Fine rows (2c3, 2c2), (2c3, 2c2+1), (2c3+1, 2c2),
                // (2c3+1, 2c2+1); each takes fine points 2c1 and 2c1+1 from
                // coarse points c1 and c1+1 of one source row.
                let (u00, u01) = lower.split_at_mut(mf);
                let (u10, u11) = upper.split_at_mut(mf);
                for (t, z) in u00.chunks_exact_mut(2).zip(z00.windows(2)) {
                    t[0] += z[0];
                    t[1] += 0.5 * (z[1] + z[0]);
                }
                for (t, z) in u01.chunks_exact_mut(2).zip(z1.windows(2)) {
                    t[0] += 0.5 * z[0];
                    t[1] += 0.25 * (z[0] + z[1]);
                }
                for (t, z) in u10.chunks_exact_mut(2).zip(z2.windows(2)) {
                    t[0] += 0.5 * z[0];
                    t[1] += 0.25 * (z[0] + z[1]);
                }
                for (t, z) in u11.chunks_exact_mut(2).zip(z3.windows(2)) {
                    t[0] += 0.25 * z[0];
                    t[1] += 0.125 * (z[0] + z[1]);
                }
            }
        }
    });
}

/// Fill `z` with the NPB right-hand side: +1 at the ten interior positions
/// where the generator field is largest, −1 at the ten smallest
/// (NPB `zran3`). Serial (setup is untimed).
fn zran3(z: &mut Array3, n: usize) {
    let (m, _, _) = z.dims();
    debug_assert_eq!(m, n + 2);
    z.zero();
    // Fill the interior with the random field, row by row: row (i2,i3)
    // starts at generator offset n·((i2−1) + n·(i3−1)). For the single-
    // process grid the NPB pre-jump `randlc(x, power(a, 0))` is the
    // identity, so the base seed is used directly.
    let a1 = skip_ahead_mult(n as u64);
    let a2 = skip_ahead_mult((n * n) as u64);
    let mut field = Array3::new(m, m, m);
    let mut x0 = SEED;
    for i3 in 1..=n {
        let mut x1 = x0;
        for i2 in 1..=n {
            let mut xx = x1;
            let row = &mut field.row_mut(i3, i2)[1..=n];
            vranlc(&mut xx, AMULT, row);
            randlc(&mut x1, a1);
        }
        randlc(&mut x0, a2);
    }
    // Find the ten largest and ten smallest interior values.
    let mut largest: Vec<(f64, (usize, usize, usize))> = Vec::new();
    let mut smallest: Vec<(f64, (usize, usize, usize))> = Vec::new();
    for i3 in 1..=n {
        for i2 in 1..=n {
            for i1 in 1..=n {
                let v = field[(i3, i2, i1)];
                insert_extreme(&mut largest, v, (i3, i2, i1), true);
                insert_extreme(&mut smallest, v, (i3, i2, i1), false);
            }
        }
    }
    for &(_, (i3, i2, i1)) in &smallest {
        z[(i3, i2, i1)] = -1.0;
    }
    for &(_, (i3, i2, i1)) in &largest {
        z[(i3, i2, i1)] = 1.0;
    }
}

/// Maintain a 10-element extreme list.
fn insert_extreme(
    list: &mut Vec<(f64, (usize, usize, usize))>,
    v: f64,
    pos: (usize, usize, usize),
    want_max: bool,
) {
    const MM: usize = 10;
    let better = |a: f64, b: f64| if want_max { a > b } else { a < b };
    if list.len() < MM {
        list.push((v, pos));
        list.sort_by(|a, b| {
            if want_max {
                b.0.partial_cmp(&a.0).expect("no NaNs")
            } else {
                a.0.partial_cmp(&b.0).expect("no NaNs")
            }
        });
        return;
    }
    let worst = list.last().expect("list full").0;
    if better(v, worst) {
        list.pop();
        list.push((v, pos));
        list.sort_by(|a, b| {
            if want_max {
                b.0.partial_cmp(&a.0).expect("no NaNs")
            } else {
                a.0.partial_cmp(&b.0).expect("no NaNs")
            }
        });
    }
}

/// `a^n mod 2^46` expressed as a multiplier (NPB `power`).
fn skip_ahead_mult(n: u64) -> f64 {
    // NPB's power() starts from 1 and multiplies by a^bit: the same binary
    // method as jumping the generator from state 1.
    skip_ahead(1.0, AMULT, n)
}

/// L2 norm of the interior of `r`, normalized by the point count
/// (NPB `norm2u3`).
fn norm2u3(r: &Array3, n: usize, pool: &Pool) -> f64 {
    let sums = pool.run(|team| {
        let mut local = 0.0f64;
        for i3 in team.static_range(1, n + 1) {
            for i2 in 1..=n {
                for v in &r.row(i3, i2)[1..][..n] {
                    local += v * v;
                }
            }
        }
        team.reduce_sum(local)
    });
    (sums[0] / (n as f64).powi(3)).sqrt()
}

/// Grid hierarchy state.
struct MgState {
    /// Solution grids, coarsest (index 0, 2³) to finest.
    u: Vec<Array3>,
    /// Residual grids, same shape.
    r: Vec<Array3>,
    /// Right-hand side at the finest level.
    v: Array3,
    /// Number of levels (finest grid is 2^lt).
    lt: usize,
}

impl MgState {
    fn new(n: usize) -> Self {
        let lt = n.trailing_zeros() as usize;
        assert_eq!(1 << lt, n, "MG grid must be a power of two");
        let mk = |k: usize| {
            let nk = 1usize << (k + 1); // level index 0 ↔ NPB level lb+? see below
            Array3::new(nk + 2, nk + 2, nk + 2)
        };
        // Levels 0..lt-1 have sizes 2^1..2^lt; NPB's lb=1 coarsest is 2¹=2.
        let u: Vec<Array3> = (0..lt).map(&mk).collect();
        let r: Vec<Array3> = (0..lt).map(&mk).collect();
        let v = Array3::new(n + 2, n + 2, n + 2);
        Self { u, r, lt, v }
    }

    /// One V-cycle (NPB `mg3P`).
    fn mg3p(&mut self, c: &[f64; 4], pool: &Pool) {
        let top = self.lt - 1;
        // Restrict the residual down to the coarsest level.
        for k in (1..=top).rev() {
            let (coarse, fine) = self.r.split_at_mut(k);
            rprj3(&fine[0], &mut coarse[k - 1], pool);
        }
        // Coarsest: u = S r.
        self.u[0].zero();
        psinv(&self.r[0], &mut self.u[0], c, pool);
        // Back up the hierarchy.
        for k in 1..top {
            self.u[k].zero();
            let (lo, hi) = self.u.split_at_mut(k);
            interp(&lo[k - 1], &mut hi[0], pool);
            resid(&self.u[k], VSource::InPlace, &mut self.r[k], pool);
            psinv(&self.r[k], &mut self.u[k], c, pool);
        }
        // Finest level: prolongate, recompute the true residual, smooth.
        let (lo, hi) = self.u.split_at_mut(top);
        interp(&lo[top - 1], &mut hi[0], pool);
        resid(
            &self.u[top],
            VSource::Separate(&self.v),
            &mut self.r[top],
            pool,
        );
        psinv(&self.r[top], &mut self.u[top], c, pool);
    }
}

/// Reusable state for timing the finest-level residual operator in
/// isolation (`r = v − A u` followed by `comm3`) — the 27-point stencil
/// that dominates MG's memory traffic. The benchmark harness's
/// `host_mg_resid` target calls [`ResidualBench::step`] repeatedly on
/// one instance, so setup cost (grid allocation, `zran3`) is paid once
/// and every step touches identical data.
pub struct ResidualBench {
    u: Array3,
    v: Array3,
    r: Array3,
    n: usize,
}

impl ResidualBench {
    /// Allocate and initialize grids for `class`'s finest level.
    pub fn new(class: Class, pool: &Pool) -> Self {
        let n = class::mg_params(class).n;
        let mut u = Array3::new(n + 2, n + 2, n + 2);
        let mut v = Array3::new(n + 2, n + 2, n + 2);
        let r = Array3::new(n + 2, n + 2, n + 2);
        zran3(&mut v, n);
        comm3(&mut v, pool);
        // A non-zero u so the stencil reads realistic operands rather
        // than multiplying through zeros.
        zran3(&mut u, n);
        comm3(&mut u, pool);
        Self { u, v, r, n }
    }

    /// Apply the residual operator once across the full grid.
    pub fn step(&mut self, pool: &Pool) {
        resid(&self.u, VSource::Separate(&self.v), &mut self.r, pool);
    }

    /// Interior points updated per [`ResidualBench::step`].
    pub fn points(&self) -> usize {
        self.n * self.n * self.n
    }

    /// L2 norm of the current residual — a correctness probe for tests
    /// (the operator is deterministic, so the norm is too).
    pub fn norm(&self, pool: &Pool) -> f64 {
        norm2u3(&self.r, self.n, pool)
    }
}

/// Raw outputs of an MG run.
#[derive(Debug, Clone)]
pub(crate) struct MgOutput {
    /// Final residual L2 norm.
    pub rnm2: f64,
    /// Seconds in the timed section.
    pub timed_seconds: f64,
}

/// Run the full MG benchmark computation.
pub(crate) fn compute(class: Class, pool: &Pool) -> MgOutput {
    let params = class::mg_params(class);
    let n = params.n;
    let c = c_coef(class);
    let mut st = MgState::new(n);
    let top = st.lt - 1;

    // Setup + one untimed iteration (NPB warms code paths), then reinit.
    zran3(&mut st.v, n);
    comm3(&mut st.v, pool);
    resid(&st.u[top], VSource::Separate(&st.v), &mut st.r[top], pool);
    st.mg3p(&c, pool);
    resid(&st.u[top], VSource::Separate(&st.v), &mut st.r[top], pool);

    // Re-initialize exactly as the reference does.
    for u in &mut st.u {
        u.zero();
    }
    for r in &mut st.r {
        r.zero();
    }
    zran3(&mut st.v, n);
    comm3(&mut st.v, pool);

    let mut timers = Timers::new(1);
    timers.start(0);
    resid(&st.u[top], VSource::Separate(&st.v), &mut st.r[top], pool);
    for _ in 0..params.nit {
        st.mg3p(&c, pool);
        resid(&st.u[top], VSource::Separate(&st.v), &mut st.r[top], pool);
    }
    timers.stop(0);
    let rnm2 = norm2u3(&st.r[top], n, pool);
    MgOutput {
        rnm2,
        timed_seconds: timers.read(0),
    }
}

/// NPB-published residual-norm verification values (`mg.f`); `T` is
/// self-referenced.
fn reference_rnm2(class: Class) -> (f64, Provenance) {
    match class {
        Class::T => (1.6695011374808e-4, Provenance::SelfReference),
        Class::S => (0.5307707005734e-4, Provenance::NpbReference),
        Class::W => (0.6467329375339e-5, Provenance::NpbReference),
        Class::A => (0.2433365309069e-5, Provenance::NpbReference),
        Class::B => (0.1800564401355e-5, Provenance::NpbReference),
        Class::C => (0.5706732285740e-6, Provenance::NpbReference),
    }
}

impl Benchmark for Mg {
    fn run(&self, class: Class, pool: &Pool) -> BenchResult {
        let out = compute(class, pool);
        let (rref, prov) = reference_rnm2(class);
        let verified = verify::check(out.rnm2, rref, verify::EPSILON, prov);
        BenchResult {
            name: "MG",
            class,
            threads: pool.nthreads(),
            time_seconds: out.timed_seconds,
            mops: mops::mops(BenchmarkId::Mg, class, out.timed_seconds),
            verified,
            check_value: out.rnm2,
        }
    }
}

/// Analytic workload profile.
///
/// Each V-cycle sweeps the finest grid ~4 times (resid ×2, psinv, interp)
/// plus a geometric tail over the coarser levels (× 8/7). Stencils stream
/// three planes of the input array plus the output — the paper's
/// bandwidth-bound workload.
pub(crate) fn profile(class: Class) -> WorkloadProfile {
    let p = class::mg_params(class);
    let n3 = (p.n * p.n * p.n) as f64;
    let nit = p.nit as f64;
    let level_tail = 8.0 / 7.0; // Σ (1/8)^k
    let sweeps = nit * 4.0 * level_tail;
    let grid_bytes = n3 * 8.0;
    WorkloadProfile {
        bench: BenchmarkId::Mg,
        class,
        total_ops: mops::total_ops(BenchmarkId::Mg, class),
        phases: vec![
            PhaseProfile {
                name: "stencil-sweeps",
                instructions: nit * n3 * 58.0 * 1.7 * level_tail,
                flops: nit * n3 * 58.0 * level_tail,
                mem_refs: sweeps * n3 * 3.5, // ~2.5 reads + 1 write per point
                elem_bytes: 8,
                working_set_bytes: 3.0 * grid_bytes, // u, r, v live together
                pattern: AccessPattern::Streaming,
                ws_partitioned: true,
                vectorizable: 0.95,
                branch_rate: 0.02,
                branch_misrate: 0.01,
            },
            PhaseProfile {
                name: "comm3-ghost",
                instructions: sweeps * n3.powf(2.0 / 3.0) * 6.0 * 3.0,
                flops: 0.0,
                mem_refs: sweeps * n3.powf(2.0 / 3.0) * 2.0 * 3.0,
                elem_bytes: 8,
                working_set_bytes: grid_bytes,
                pattern: AccessPattern::Strided {
                    stride_bytes: (p.n as u32 + 2) * 8,
                },
                ws_partitioned: true,
                vectorizable: 0.5,
                branch_rate: 0.05,
                branch_misrate: 0.02,
            },
        ],
        // ~6 parallel regions per level per V-cycle.
        barriers: nit * 6.0 * (p.n as f64).log2() * 3.0,
        imbalance: 1.04,
        parallel_fraction: 0.99,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zran3_places_exactly_ten_of_each() {
        let n = 16;
        let mut z = Array3::new(n + 2, n + 2, n + 2);
        zran3(&mut z, n);
        let mut pos = 0;
        let mut neg = 0;
        for i3 in 1..=n {
            for i2 in 1..=n {
                for i1 in 1..=n {
                    let v = z[(i3, i2, i1)];
                    if v == 1.0 {
                        pos += 1;
                    } else if v == -1.0 {
                        neg += 1;
                    } else {
                        assert_eq!(v, 0.0);
                    }
                }
            }
        }
        assert_eq!((pos, neg), (10, 10));
    }

    #[test]
    fn comm3_makes_faces_periodic() {
        let pool = Pool::new(2);
        let n = 8;
        let mut g = Array3::new(n + 2, n + 2, n + 2);
        // Distinct interior values.
        for i3 in 1..=n {
            for i2 in 1..=n {
                for i1 in 1..=n {
                    g[(i3, i2, i1)] = (i3 * 100 + i2 * 10 + i1) as f64;
                }
            }
        }
        comm3(&mut g, &pool);
        // Ghost faces mirror the opposite interior faces.
        for i3 in 1..=n {
            for i2 in 1..=n {
                assert_eq!(g[(i3, i2, 0)], g[(i3, i2, n)]);
                assert_eq!(g[(i3, i2, n + 1)], g[(i3, i2, 1)]);
            }
        }
        for i2 in 0..n + 2 {
            for i1 in 0..n + 2 {
                assert_eq!(g[(0, i2, i1)], g[(n, i2, i1)]);
                assert_eq!(g[(n + 1, i2, i1)], g[(1, i2, i1)]);
            }
        }
    }

    #[test]
    fn residual_norm_decreases_across_iterations() {
        // The V-cycle must actually converge on the tiny grid.
        let pool = Pool::new(2);
        let n = 16;
        let c = c_coef(Class::T);
        let mut st = MgState::new(n);
        let top = st.lt - 1;
        zran3(&mut st.v, n);
        comm3(&mut st.v, &pool);
        resid(&st.u[top], VSource::Separate(&st.v), &mut st.r[top], &pool);
        let r0 = norm2u3(&st.r[top], n, &pool);
        st.mg3p(&c, &pool);
        resid(&st.u[top], VSource::Separate(&st.v), &mut st.r[top], &pool);
        let r1 = norm2u3(&st.r[top], n, &pool);
        st.mg3p(&c, &pool);
        resid(&st.u[top], VSource::Separate(&st.v), &mut st.r[top], &pool);
        let r2 = norm2u3(&st.r[top], n, &pool);
        assert!(
            r1 < r0,
            "first V-cycle did not reduce the residual: {r0} -> {r1}"
        );
        assert!(
            r2 < r1,
            "second V-cycle did not reduce the residual: {r1} -> {r2}"
        );
    }

    #[test]
    fn result_is_thread_count_stable() {
        let base = compute(Class::T, &Pool::new(1));
        for nt in [2, 3] {
            let out = compute(Class::T, &Pool::new(nt));
            let rel = ((out.rnm2 - base.rnm2) / base.rnm2).abs();
            assert!(rel < 1e-10, "rnm2 differs at {nt} threads: rel {rel}");
        }
    }

    #[test]
    fn class_t_rnm2_is_pinned() {
        let out = compute(Class::T, &Pool::new(2));
        assert!(
            (out.rnm2 - 1.6695011374808e-4).abs() / 1.67e-4 < 1e-6,
            "rnm2 = {:.13e}",
            out.rnm2
        );
    }

    #[test]
    fn class_s_matches_npb_reference() {
        let pool = Pool::new(2);
        let r = Mg.run(Class::S, &pool);
        assert!(
            r.verified.passed(),
            "rnm2 = {:.13e} ({:?})",
            r.check_value,
            r.verified
        );
    }
}
