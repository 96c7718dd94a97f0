//! Opt-in larger-class host runs (`cargo test --release -- --ignored`):
//! exercise the kernels at NPB's real published-constant classes beyond
//! what the default CI-speed suite covers.

use rvhpc::npb::{self, BenchmarkId, Class};
use rvhpc::parallel::Pool;

#[test]
#[ignore = "slow: class W host runs"]
fn class_w_kernels_verify() {
    let pool = Pool::new(2);
    for bench in [
        BenchmarkId::Is,
        BenchmarkId::Cg,
        BenchmarkId::Mg,
        BenchmarkId::Ft,
    ] {
        let r = npb::run(bench, Class::W, &pool);
        assert!(r.verified.passed(), "{}: {:?}", r.name, r.verified);
    }
}

#[test]
#[ignore = "slow: EP class S against the published NPB sums"]
fn ep_class_s_matches_published_constants() {
    let pool = Pool::new(2);
    let r = npb::run(BenchmarkId::Ep, Class::S, &pool);
    assert!(r.verified.passed(), "{:?}", r.verified);
}

#[test]
#[ignore = "slow: class S pseudo-applications"]
fn class_s_pseudo_apps_stay_stable() {
    let pool = Pool::new(2);
    for bench in BenchmarkId::PSEUDO_APPS {
        let r = npb::run(bench, Class::S, &pool);
        assert!(r.verified.passed(), "{}: {:?}", r.name, r.verified);
    }
}

#[test]
#[ignore = "slow: class W pseudo-applications (invariants only)"]
fn class_w_pseudo_apps_converge() {
    let pool = Pool::new(2);
    for bench in BenchmarkId::PSEUDO_APPS {
        let r = npb::run(bench, Class::W, &pool);
        // W has no pinned goldens: invariants (stability + error decrease)
        // carry the verification.
        assert!(r.verified.passed(), "{}: {:?}", r.name, r.verified);
    }
}
