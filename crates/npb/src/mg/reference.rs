//! Oracles for the row-view kernels: the four operators as they were
//! written before — one `(i3, i2, i1)` index per operand, serial — and the
//! check that the row-view versions produce the same bits on every element,
//! plus the whole benchmark's `rnm2` pinned to the bits the indexed port
//! produced.

use super::*;
use crate::common::verify::assert_pinned_bits;

fn resid_indexed(u: &Array3, v: Option<&Array3>, r: &mut Array3) {
    let (m, _, _) = u.dims();
    let hi = m - 1;
    let (mut u1, mut u2) = (vec![0.0f64; m], vec![0.0f64; m]);
    for i3 in 1..hi {
        for i2 in 1..hi {
            for i1 in 0..m {
                u1[i1] = u[(i3, i2 - 1, i1)]
                    + u[(i3, i2 + 1, i1)]
                    + u[(i3 - 1, i2, i1)]
                    + u[(i3 + 1, i2, i1)];
                u2[i1] = u[(i3 - 1, i2 - 1, i1)]
                    + u[(i3 - 1, i2 + 1, i1)]
                    + u[(i3 + 1, i2 - 1, i1)]
                    + u[(i3 + 1, i2 + 1, i1)];
            }
            for i1 in 1..hi {
                let vv = v.map_or(r[(i3, i2, i1)], |v| v[(i3, i2, i1)]);
                r[(i3, i2, i1)] = vv
                    - A_COEF[0] * u[(i3, i2, i1)]
                    - A_COEF[2] * (u2[i1] + u1[i1 - 1] + u1[i1 + 1])
                    - A_COEF[3] * (u2[i1 - 1] + u2[i1 + 1]);
            }
        }
    }
}

fn psinv_indexed(r: &Array3, u: &mut Array3, c: &[f64; 4]) {
    let (m, _, _) = r.dims();
    let hi = m - 1;
    let (mut r1, mut r2) = (vec![0.0f64; m], vec![0.0f64; m]);
    for i3 in 1..hi {
        for i2 in 1..hi {
            for i1 in 0..m {
                r1[i1] = r[(i3, i2 - 1, i1)]
                    + r[(i3, i2 + 1, i1)]
                    + r[(i3 - 1, i2, i1)]
                    + r[(i3 + 1, i2, i1)];
                r2[i1] = r[(i3 - 1, i2 - 1, i1)]
                    + r[(i3 - 1, i2 + 1, i1)]
                    + r[(i3 + 1, i2 - 1, i1)]
                    + r[(i3 + 1, i2 + 1, i1)];
            }
            for i1 in 1..hi {
                u[(i3, i2, i1)] = u[(i3, i2, i1)]
                    + c[0] * r[(i3, i2, i1)]
                    + c[1] * (r[(i3, i2, i1 - 1)] + r[(i3, i2, i1 + 1)] + r1[i1])
                    + c[2] * (r2[i1] + r1[i1 - 1] + r1[i1 + 1]);
            }
        }
    }
}

fn rprj3_indexed(f: &Array3, c: &mut Array3) {
    let (mf, _, _) = f.dims();
    let (mc, _, _) = c.dims();
    let nc = mc - 2;
    let (mut x1, mut y1) = (vec![0.0f64; mf], vec![0.0f64; mf]);
    for j3 in 1..=nc {
        let i3 = 2 * j3;
        for j2 in 1..=nc {
            let i2 = 2 * j2;
            for jj in 0..=nc {
                let i1 = 2 * jj + 1;
                x1[i1] = f[(i3, i2 - 1, i1)]
                    + f[(i3, i2 + 1, i1)]
                    + f[(i3 - 1, i2, i1)]
                    + f[(i3 + 1, i2, i1)];
                y1[i1] = f[(i3 - 1, i2 - 1, i1)]
                    + f[(i3 - 1, i2 + 1, i1)]
                    + f[(i3 + 1, i2 - 1, i1)]
                    + f[(i3 + 1, i2 + 1, i1)];
            }
            for j1 in 1..=nc {
                let i1 = 2 * j1;
                let y2 = f[(i3 - 1, i2 - 1, i1)]
                    + f[(i3 - 1, i2 + 1, i1)]
                    + f[(i3 + 1, i2 - 1, i1)]
                    + f[(i3 + 1, i2 + 1, i1)];
                let x2 = f[(i3, i2 - 1, i1)]
                    + f[(i3, i2 + 1, i1)]
                    + f[(i3 - 1, i2, i1)]
                    + f[(i3 + 1, i2, i1)];
                c[(j3, j2, j1)] = 0.5 * f[(i3, i2, i1)]
                    + 0.25 * (f[(i3, i2, i1 - 1)] + f[(i3, i2, i1 + 1)] + x2)
                    + 0.125 * (x1[i1 - 1] + x1[i1 + 1] + y2)
                    + 0.0625 * (y1[i1 - 1] + y1[i1 + 1]);
            }
        }
    }
}

fn interp_indexed(z: &Array3, u: &mut Array3) {
    let (mc, _, _) = z.dims();
    let nc = mc - 2;
    let (mut z1, mut z2, mut z3) = (vec![0.0f64; mc], vec![0.0f64; mc], vec![0.0f64; mc]);
    for c3 in 0..=nc {
        for c2 in 0..=nc {
            for c1 in 0..=nc + 1 {
                z1[c1] = z[(c3, c2 + 1, c1)] + z[(c3, c2, c1)];
                z2[c1] = z[(c3 + 1, c2, c1)] + z[(c3, c2, c1)];
                z3[c1] = z[(c3 + 1, c2 + 1, c1)] + z[(c3 + 1, c2, c1)] + z1[c1];
            }
            for c1 in 0..=nc {
                let zc = z[(c3, c2, c1)];
                u[(2 * c3, 2 * c2, 2 * c1)] += zc;
                u[(2 * c3, 2 * c2, 2 * c1 + 1)] += 0.5 * (z[(c3, c2, c1 + 1)] + zc);
                u[(2 * c3, 2 * c2 + 1, 2 * c1)] += 0.5 * z1[c1];
                u[(2 * c3, 2 * c2 + 1, 2 * c1 + 1)] += 0.25 * (z1[c1] + z1[c1 + 1]);
                u[(2 * c3 + 1, 2 * c2, 2 * c1)] += 0.5 * z2[c1];
                u[(2 * c3 + 1, 2 * c2, 2 * c1 + 1)] += 0.25 * (z2[c1] + z2[c1 + 1]);
                u[(2 * c3 + 1, 2 * c2 + 1, 2 * c1)] += 0.25 * z3[c1];
                u[(2 * c3 + 1, 2 * c2 + 1, 2 * c1 + 1)] += 0.125 * (z3[c1] + z3[c1 + 1]);
            }
        }
    }
}

fn comm3_indexed(g: &mut Array3) {
    let (m, _, _) = g.dims();
    let hi = m - 1;
    for i3 in 1..hi {
        for i2 in 1..hi {
            g[(i3, i2, 0)] = g[(i3, i2, hi - 1)];
            g[(i3, i2, hi)] = g[(i3, i2, 1)];
        }
    }
    for i3 in 1..hi {
        for i1 in 0..=hi {
            g[(i3, 0, i1)] = g[(i3, hi - 1, i1)];
            g[(i3, hi, i1)] = g[(i3, 1, i1)];
        }
    }
    for i2 in 0..=hi {
        for i1 in 0..=hi {
            g[(0, i2, i1)] = g[(hi - 1, i2, i1)];
            g[(hi, i2, i1)] = g[(1, i2, i1)];
        }
    }
}

/// An `m³` grid of reproducible values in (−0.5, 0.5), ghosts included.
fn noise(m: usize, seed: f64) -> Array3 {
    let mut g = Array3::new(m, m, m);
    let mut x = seed;
    vranlc(&mut x, AMULT, g.flat_mut());
    for v in g.flat_mut() {
        *v -= 0.5;
    }
    g
}

fn assert_same_bits(got: &Array3, want: &Array3, what: &str) {
    let m = want.dims().0;
    for (k, (g, w)) in got.flat().iter().zip(want.flat()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}, m = {m}: element {k} is {g:e}, indexed reference {w:e}"
        );
    }
}

/// Grid edges with ghosts: the coarsest level, sizes that are no multiple
/// of a vector width (one of them with an odd interior, which no MG level
/// has), and one whose rows span several cache lines.
const SIZES: [usize; 5] = [4, 6, 7, 10, 34];

#[test]
fn resid_matches_the_indexed_reference_bit_for_bit() {
    for m in SIZES {
        let (u, v, r0) = (noise(m, SEED), noise(m, 271_828_183.0), noise(m, 57.0));
        let mut want_sep = r0.clone();
        resid_indexed(&u, Some(&v), &mut want_sep);
        comm3_indexed(&mut want_sep);
        let mut want_in = r0.clone();
        resid_indexed(&u, None, &mut want_in);
        comm3_indexed(&mut want_in);
        for nt in 1..=3 {
            let pool = Pool::new(nt);
            let mut r = r0.clone();
            resid(&u, VSource::Separate(&v), &mut r, &pool);
            assert_same_bits(&r, &want_sep, &format!("resid from v, {nt} threads"));
            let mut r = r0.clone();
            resid(&u, VSource::InPlace, &mut r, &pool);
            assert_same_bits(&r, &want_in, &format!("resid in place, {nt} threads"));
        }
    }
}

#[test]
fn psinv_matches_the_indexed_reference_bit_for_bit() {
    for class in [Class::S, Class::B] {
        let c = c_coef(class);
        for m in SIZES {
            let (r, u0) = (noise(m, SEED), noise(m, 271_828_183.0));
            let mut want = u0.clone();
            psinv_indexed(&r, &mut want, &c);
            comm3_indexed(&mut want);
            for nt in 1..=3 {
                let mut u = u0.clone();
                psinv(&r, &mut u, &c, &Pool::new(nt));
                assert_same_bits(&u, &want, &format!("psinv, {nt} threads"));
            }
        }
    }
}

#[test]
fn rprj3_and_interp_match_the_indexed_references_bit_for_bit() {
    for mc in SIZES {
        let mf = 2 * (mc - 2) + 2;
        let (fine, coarse) = (noise(mf, SEED), noise(mc, 271_828_183.0));
        let mut want_coarse = coarse.clone();
        rprj3_indexed(&fine, &mut want_coarse);
        comm3_indexed(&mut want_coarse);
        let mut want_fine = fine.clone();
        interp_indexed(&coarse, &mut want_fine);
        for nt in 1..=3 {
            let pool = Pool::new(nt);
            let mut c = coarse.clone();
            rprj3(&fine, &mut c, &pool);
            assert_same_bits(&c, &want_coarse, &format!("rprj3, {nt} threads"));
            let mut f = fine.clone();
            interp(&coarse, &mut f, &pool);
            assert_same_bits(&f, &want_fine, &format!("interp, {nt} threads"));
        }
    }
}

#[test]
fn comm3_matches_the_indexed_reference_bit_for_bit() {
    for m in SIZES {
        let g0 = noise(m, SEED);
        let mut want = g0.clone();
        comm3_indexed(&mut want);
        for nt in 1..=3 {
            let mut g = g0.clone();
            comm3(&mut g, &Pool::new(nt));
            assert_same_bits(&g, &want, &format!("comm3, {nt} threads"));
        }
    }
}

/// `rnm2` of the indexed port (the commit before the row views) for 1, 2
/// and 3 threads; the team's partial norms are added in `tid` order, so the
/// last bits depend on the team size and on nothing else.
#[test]
fn rnm2_is_pinned_to_the_indexed_ports_bits() {
    let pins: [(Class, [u64; 3]); 3] = [
        (
            Class::T,
            [
                0x3f25_e1ea_8ea6_2a70,
                0x3f25_e1ea_8ea6_2a70,
                0x3f25_e1ea_8ea6_2a6f,
            ],
        ),
        (
            Class::S,
            [
                0x3f0b_d3e2_3d92_18d5,
                0x3f0b_d3e2_3d92_18d3,
                0x3f0b_d3e2_3d92_18d6,
            ],
        ),
        (
            Class::W,
            [
                0x3edb_203d_f653_6ff8,
                0x3edb_203d_f653_7082,
                0x3edb_203d_f653_705e,
            ],
        ),
    ];
    assert_pinned_bits("MG rnm2", &pins, |class, pool| compute(class, pool).rnm2);
}
