//! NPB problem classes and the per-benchmark problem-size tables.

/// NPB problem class.
///
/// `S`, `W`, `A`, `B`, `C` are the official NPB classes. `T` ("tiny") is an
/// rvhpc addition small enough for sub-second runs in debug builds; its
/// verification values are self-referenced (see
/// `crate::common::result::Provenance`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Tiny (rvhpc-specific, for fast tests).
    T,
    /// Small.
    S,
    /// Workstation.
    W,
    /// Standard A.
    A,
    /// Standard B (the paper's single-board comparison class, Table 2).
    B,
    /// Standard C (the paper's main class, §4–§6).
    C,
}

impl Class {
    /// All classes, smallest first.
    pub const ALL: [Class; 6] = [Class::T, Class::S, Class::W, Class::A, Class::B, Class::C];

    /// One-letter name.
    pub fn name(&self) -> &'static str {
        match self {
            Class::T => "T",
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
        }
    }
}

/// IS problem size: number of keys and key range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsParams {
    /// log2(number of keys).
    pub total_keys_log2: u32,
    /// log2(maximum key value).
    pub max_key_log2: u32,
    /// Ranking iterations (always 10 in NPB).
    pub iterations: u32,
}

impl IsParams {
    pub fn total_keys(&self) -> usize {
        1 << self.total_keys_log2
    }
    pub(crate) fn max_key(&self) -> usize {
        1 << self.max_key_log2
    }
}

/// IS problem sizes per class (NPB `npbparams` tables).
pub fn is_params(class: Class) -> IsParams {
    let (tk, mk) = match class {
        Class::T => (12, 9),
        Class::S => (16, 11),
        Class::W => (20, 16),
        Class::A => (23, 19),
        Class::B => (25, 21),
        Class::C => (27, 23),
    };
    IsParams {
        total_keys_log2: tk,
        max_key_log2: mk,
        iterations: 10,
    }
}

/// EP problem size: 2^m random-number pairs.
pub(crate) fn ep_m(class: Class) -> u32 {
    match class {
        Class::T => 18,
        Class::S => 24,
        Class::W => 25,
        Class::A => 28,
        Class::B => 30,
        Class::C => 32,
    }
}

/// CG problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgParams {
    /// Matrix order.
    pub na: usize,
    /// Nonzeros per generated row seed.
    pub nonzer: usize,
    /// Outer (zeta) iterations.
    pub niter: usize,
    /// Eigenvalue shift.
    pub shift: f64,
}

/// CG problem sizes per class.
pub fn cg_params(class: Class) -> CgParams {
    let (na, nonzer, niter, shift) = match class {
        Class::T => (500, 5, 10, 8.0),
        Class::S => (1400, 7, 15, 10.0),
        Class::W => (7000, 8, 15, 12.0),
        Class::A => (14000, 11, 15, 20.0),
        Class::B => (75000, 13, 75, 60.0),
        Class::C => (150000, 15, 75, 110.0),
    };
    CgParams {
        na,
        nonzer,
        niter,
        shift,
    }
}

/// MG problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MgParams {
    /// Grid is `n³`.
    pub n: usize,
    /// V-cycle iterations.
    pub nit: usize,
}

/// MG problem sizes per class.
pub(crate) fn mg_params(class: Class) -> MgParams {
    let (n, nit) = match class {
        Class::T => (16, 4),
        Class::S => (32, 4),
        Class::W => (128, 4),
        Class::A => (256, 4),
        Class::B => (256, 20),
        Class::C => (512, 20),
    };
    MgParams { n, nit }
}

/// FT problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtParams {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Time-evolution iterations.
    pub niter: usize,
}

impl FtParams {
    pub fn ntotal(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// FT problem sizes per class.
pub fn ft_params(class: Class) -> FtParams {
    let (nx, ny, nz, niter) = match class {
        Class::T => (32, 32, 32, 4),
        Class::S => (64, 64, 64, 6),
        Class::W => (128, 128, 32, 6),
        Class::A => (256, 256, 128, 6),
        Class::B => (512, 256, 256, 20),
        Class::C => (512, 512, 512, 20),
    };
    FtParams { nx, ny, nz, niter }
}

/// BT/SP/LU pseudo-application problem size (cubic grids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AppParams {
    /// Grid points per dimension.
    pub problem_size: usize,
    /// Time steps.
    pub niter: usize,
    /// Time-step length.
    pub dt: f64,
}

/// BT problem sizes per class.
pub(crate) fn bt_params(class: Class) -> AppParams {
    let (n, niter, dt) = match class {
        Class::T => (8, 20, 0.015),
        Class::S => (12, 60, 0.010),
        Class::W => (24, 200, 0.0008),
        Class::A => (64, 200, 0.0008),
        Class::B => (102, 200, 0.0003),
        Class::C => (162, 200, 0.0001),
    };
    AppParams {
        problem_size: n,
        niter,
        dt,
    }
}

/// SP problem sizes per class.
pub(crate) fn sp_params(class: Class) -> AppParams {
    let (n, niter, dt) = match class {
        Class::T => (8, 50, 0.010),
        Class::S => (12, 100, 0.015),
        Class::W => (36, 400, 0.0015),
        Class::A => (64, 400, 0.0015),
        Class::B => (102, 400, 0.001),
        Class::C => (162, 400, 0.00067),
    };
    AppParams {
        problem_size: n,
        niter,
        dt,
    }
}

/// LU problem sizes per class.
pub(crate) fn lu_params(class: Class) -> AppParams {
    let (n, niter, dt) = match class {
        Class::T => (8, 20, 0.5),
        Class::S => (12, 50, 0.5),
        Class::W => (33, 300, 0.0015),
        Class::A => (64, 250, 2.0),
        Class::B => (102, 250, 2.0),
        Class::C => (162, 250, 2.0),
    };
    AppParams {
        problem_size: n,
        niter,
        dt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_ordered_by_size() {
        // Every benchmark's work must grow monotonically with the class.
        let mut prev = 0usize;
        for c in Class::ALL {
            let keys = is_params(c).total_keys();
            assert!(keys > prev, "IS keys not monotone at {c:?}");
            prev = keys;
        }
        let mut prev = 0usize;
        for c in Class::ALL {
            let na = cg_params(c).na;
            assert!(na > prev, "CG na not monotone at {c:?}");
            prev = na;
        }
    }

    #[test]
    fn paper_class_c_sizes() {
        // The sizes behind the paper's §4–§6 (class C) results.
        assert_eq!(is_params(Class::C).total_keys(), 1 << 27);
        assert_eq!(cg_params(Class::C).na, 150_000);
        assert_eq!(mg_params(Class::C).n, 512);
        assert_eq!(ft_params(Class::C).ntotal(), 512 * 512 * 512);
        assert_eq!(bt_params(Class::C).problem_size, 162);
        assert_eq!(ep_m(Class::C), 32);
    }

    #[test]
    fn class_b_sizes_for_table2() {
        assert_eq!(is_params(Class::B).total_keys(), 1 << 25);
        assert_eq!(mg_params(Class::B).n, 256);
        assert_eq!(ft_params(Class::B).ntotal(), 512 * 256 * 256);
        assert_eq!(ep_m(Class::B), 30);
    }

    #[test]
    fn tiny_class_is_genuinely_tiny() {
        assert!(is_params(Class::T).total_keys() <= 1 << 12);
        assert!(mg_params(Class::T).n <= 16);
        assert!(ft_params(Class::T).ntotal() <= 32 * 32 * 32);
        assert!(bt_params(Class::T).problem_size <= 8);
    }
}
