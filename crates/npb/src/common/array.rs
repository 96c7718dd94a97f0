//! Dense multi-dimensional array helpers.
//!
//! The NPB codes are written against Fortran arrays (`u(m,i,j,k)`); these
//! row-major equivalents keep the *innermost* index contiguous so the Rust
//! loops enjoy the same unit-stride access the Fortran loops do.

use std::ops::{Index, IndexMut};

/// Dense 3-D array of `f64` with `k` (the last index) contiguous.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Array3 {
    n1: usize,
    n2: usize,
    n3: usize,
    data: Vec<f64>,
}

impl Array3 {
    /// Zero-filled `n1 × n2 × n3` array.
    pub(crate) fn new(n1: usize, n2: usize, n3: usize) -> Self {
        Self {
            n1,
            n2,
            n3,
            data: vec![0.0; n1 * n2 * n3],
        }
    }

    /// Dimensions `(n1, n2, n3)`.
    #[inline]
    pub(crate) fn dims(&self) -> (usize, usize, usize) {
        (self.n1, self.n2, self.n3)
    }

    /// Flat offset of `(i, j, k)`.
    #[inline]
    pub(crate) fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.n1 && j < self.n2 && k < self.n3);
        (i * self.n2 + j) * self.n3 + k
    }

    /// The underlying flat storage.
    #[inline]
    pub(crate) fn flat(&self) -> &[f64] {
        &self.data
    }

    /// The underlying flat storage, mutably.
    #[inline]
    pub(crate) fn flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One contiguous `k`-row at `(i, j)`.
    #[inline]
    pub(crate) fn row(&self, i: usize, j: usize) -> &[f64] {
        let base = self.idx(i, j, 0);
        &self.data[base..base + self.n3]
    }

    /// One contiguous `k`-row at `(i, j)`, mutably.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize, j: usize) -> &mut [f64] {
        let base = self.idx(i, j, 0);
        &mut self.data[base..base + self.n3]
    }

    /// Fill with zeros.
    pub(crate) fn zero(&mut self) {
        self.data.fill(0.0);
    }
}

impl Index<(usize, usize, usize)> for Array3 {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j, k): (usize, usize, usize)) -> &f64 {
        &self.data[self.idx(i, j, k)]
    }
}

impl IndexMut<(usize, usize, usize)> for Array3 {
    #[inline]
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut f64 {
        let n = self.idx(i, j, k);
        &mut self.data[n]
    }
}

/// Dense 4-D array of `f64` with the last index contiguous — used for the
/// pseudo-applications' `u(i,j,k,m)` 5-component state fields.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Array4 {
    n1: usize,
    n2: usize,
    n3: usize,
    n4: usize,
    data: Vec<f64>,
}

impl Array4 {
    /// Zero-filled `n1 × n2 × n3 × n4` array.
    pub(crate) fn new(n1: usize, n2: usize, n3: usize, n4: usize) -> Self {
        Self {
            n1,
            n2,
            n3,
            n4,
            data: vec![0.0; n1 * n2 * n3 * n4],
        }
    }

    /// Flat offset of `(i, j, k, m)`.
    #[inline]
    pub(crate) fn idx(&self, i: usize, j: usize, k: usize, m: usize) -> usize {
        debug_assert!(i < self.n1 && j < self.n2 && k < self.n3 && m < self.n4);
        ((i * self.n2 + j) * self.n3 + k) * self.n4 + m
    }

    /// The underlying flat storage.
    #[inline]
    pub(crate) fn flat(&self) -> &[f64] {
        &self.data
    }

    /// The underlying flat storage, mutably.
    #[inline]
    pub(crate) fn flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Index<(usize, usize, usize, usize)> for Array4 {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j, k, m): (usize, usize, usize, usize)) -> &f64 {
        &self.data[self.idx(i, j, k, m)]
    }
}

impl IndexMut<(usize, usize, usize, usize)> for Array4 {
    #[inline]
    fn index_mut(&mut self, (i, j, k, m): (usize, usize, usize, usize)) -> &mut f64 {
        let n = self.idx(i, j, k, m);
        &mut self.data[n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array3_layout_is_k_contiguous() {
        let a = Array3::new(2, 3, 4);
        assert_eq!(a.idx(0, 0, 1) - a.idx(0, 0, 0), 1);
        assert_eq!(a.idx(0, 1, 0) - a.idx(0, 0, 0), 4);
        assert_eq!(a.idx(1, 0, 0) - a.idx(0, 0, 0), 12);
    }

    #[test]
    fn array3_round_trips() {
        let mut a = Array3::new(3, 4, 5);
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    a[(i, j, k)] = (i * 100 + j * 10 + k) as f64;
                }
            }
        }
        assert_eq!(a[(2, 3, 4)], 234.0);
        assert_eq!(a.row(1, 2), &[120.0, 121.0, 122.0, 123.0, 124.0]);
    }

    #[test]
    fn array4_state_vectors_are_contiguous() {
        let mut a = Array4::new(2, 2, 2, 5);
        for m in 0..5 {
            a[(1, 0, 1, m)] = m as f64;
        }
        let base = a.idx(1, 0, 1, 0);
        assert_eq!(&a.flat()[base..base + 5], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.idx(0, 0, 1, 0) - a.idx(0, 0, 0, 0), 5);
    }

    #[test]
    fn zeroing() {
        let mut a = Array3::new(2, 2, 2);
        a[(1, 1, 1)] = 5.0;
        a.zero();
        assert!(a.flat().iter().all(|&v| v == 0.0));
    }
}
