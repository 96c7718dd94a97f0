//! Shared-slice wrapper for disjoint-index parallel writes.
//!
//! OpenMP work-sharing loops routinely have every thread write a disjoint
//! subset of the same array (`u[i] = ...` inside `#pragma omp for`). Rust's
//! aliasing rules cannot express "disjoint by construction of the schedule",
//! so this module provides the standard HPC escape hatch: a `Sync` wrapper
//! over a mutable slice whose element writes are `unsafe` and whose safety
//! contract is *exactly* the work-sharing discipline.
//!
//! Prefer the safe chunk-splitting helpers ([`split_chunks`]) when the
//! access pattern allows; use [`SyncSlice`] for stencils and transposes
//! where each thread's writes are disjoint but not contiguous.

use std::cell::UnsafeCell;

/// A shared view of `&mut [T]` allowing concurrent element access from a
/// team, under the caller-guaranteed contract that no element is written by
/// one thread while read or written by another.
pub struct SyncSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: the only field is a shared slice of cells, and every access to a
// cell goes through an `unsafe` method whose contract forbids data races.
// Sharing `&SyncSlice` lets other threads read `T` through `get` (needs
// `T: Sync`) and write or take `&mut T` (needs `T: Send`).
unsafe impl<T: Send + Sync> Sync for SyncSlice<'_, T> {}
// SAFETY: moving the wrapper to another thread moves access to the `T`s it
// borrows mutably, which is `&mut [T]: Send`, i.e. `T: Send`.
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wrap a mutable slice for team-shared access.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: &mut [T] -> &[UnsafeCell<T>] is sound: we hold the unique
        // borrow for 'a and UnsafeCell<T> has the same layout as T.
        let data = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        Self { data }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No other thread may be concurrently writing element `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.data.len(), "index {i} out of bounds");
        // SAFETY: the index is bounds-checked by the slice; the caller
        // guarantees no concurrent write to this cell.
        *self.data[i].get()
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// No other thread may be concurrently reading or writing element `i`.
    #[inline]
    pub unsafe fn set(&self, i: usize, value: T) {
        debug_assert!(i < self.data.len(), "index {i} out of bounds");
        // SAFETY: the index is bounds-checked by the slice; the caller
        // guarantees no concurrent access to this cell.
        *self.data[i].get() = value;
    }

    /// Mutable reference to element `i`.
    ///
    /// # Safety
    /// No other thread may concurrently access element `i`, and the caller
    /// must not create overlapping references through other calls.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.data.len(), "index {i} out of bounds");
        // SAFETY: the index is bounds-checked by the slice; the caller
        // guarantees this is the only live reference to the cell.
        &mut *self.data[i].get()
    }

    /// Raw pointer to element `i` (for building sub-slices).
    ///
    /// # Safety
    /// Dereferencing must honour the same disjointness contract as
    /// [`SyncSlice::get_mut`].
    #[inline]
    pub unsafe fn ptr_at(&self, i: usize) -> *mut T {
        assert!(i <= self.data.len(), "index {i} out of bounds");
        // SAFETY: `i <= len` (checked above), so the offset stays inside
        // the slice or one past its end; `UnsafeCell<T>` has `T`'s layout.
        self.data.as_ptr().add(i) as *mut T
    }

    /// A mutable sub-slice `[start, start+len)`.
    ///
    /// # Safety
    /// The range must be disjoint from every range concurrently handed out
    /// or element accessed on other threads.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.data.len());
        // SAFETY: the range lies inside the slice (checked above), whose
        // cells are initialised `T`s borrowed for `'a`; the caller
        // guarantees no other access to the range while the result lives.
        std::slice::from_raw_parts_mut(self.ptr_at(start), len)
    }
}

/// Split `slice` into `n` nearly equal contiguous chunks (sizes differ by at
/// most one) — the safe counterpart of a static schedule over owned data.
pub fn split_chunks<T>(slice: &mut [T], n: usize) -> Vec<&mut [T]> {
    assert!(n >= 1);
    let total = slice.len();
    let base = total / n;
    let rem = total % n;
    let mut out = Vec::with_capacity(n);
    let mut rest = slice;
    for t in 0..n {
        let len = base + usize::from(t < rem);
        let (head, tail) = rest.split_at_mut(len);
        out.push(head);
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn sync_slice_disjoint_parallel_writes() {
        let pool = Pool::new(4);
        let n = 4096usize;
        let mut data = vec![0u64; n];
        {
            let shared = SyncSlice::new(&mut data);
            pool.run(|team| {
                // SAFETY: a static schedule hands each index to one thread.
                team.for_static(0, n, |i| unsafe {
                    shared.set(i, (i * 3) as u64);
                });
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == (i * 3) as u64));
    }

    #[test]
    fn sync_slice_strided_writes() {
        let pool = Pool::new(3);
        let n = 300usize;
        let mut data = vec![0usize; n];
        {
            let shared = SyncSlice::new(&mut data);
            pool.run(|team| {
                // Strided (cyclic) ownership: thread t owns i ≡ t (mod n).
                let t = team.tid();
                let p = team.nthreads();
                let mut i = t;
                while i < n {
                    // SAFETY: residue classes mod p are disjoint.
                    unsafe { shared.set(i, i + 1) };
                    i += p;
                }
                team.barrier();
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn split_chunks_partitions() {
        let mut data: Vec<u32> = (0..10).collect();
        let chunks = split_chunks(&mut data, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], &[0, 1, 2, 3]);
        assert_eq!(chunks[1], &[4, 5, 6]);
        assert_eq!(chunks[2], &[7, 8, 9]);
    }

    #[test]
    fn split_chunks_more_chunks_than_items() {
        let mut data = vec![1, 2];
        let chunks = split_chunks(&mut data, 5);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 2);
        assert!(sizes.iter().all(|&s| s <= 1));
    }

    #[test]
    fn slice_mut_subranges() {
        let mut data = vec![0u8; 100];
        {
            let shared = SyncSlice::new(&mut data);
            // SAFETY: the two halves do not overlap.
            let (a, b) = unsafe { (shared.slice_mut(0, 50), shared.slice_mut(50, 50)) };
            a.fill(1);
            b.fill(2);
        }
        assert!(data[..50].iter().all(|&v| v == 1));
        assert!(data[50..].iter().all(|&v| v == 2));
    }
}
