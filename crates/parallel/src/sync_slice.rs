//! Team access to one mutable slice.
//!
//! OpenMP work-sharing loops routinely have every thread write a disjoint
//! subset of the same array (`u[i] = ...` inside `#pragma omp for`). Rust's
//! aliasing rules cannot express "disjoint by construction of the schedule",
//! so this module has two answers.
//!
//! [`TeamChunks`] is the safe one and the one to reach for: when a member
//! owns what a static schedule gives it — whole planes, whole rows, one
//! contiguous range — the slice is split before the region and each member
//! claims its part as an ordinary `&mut [T]`. The kernels then work on row
//! views of that chunk, so the compiler sees the lengths, checks bounds once
//! per row and vectorises the inner loop.
//!
//! [`SyncSlice`] is the escape hatch for the rest: a `Sync` wrapper whose
//! accesses are `unsafe` and whose contract is *exactly* the work-sharing
//! discipline. It is for ownership that is strided (FT's z pencils), that
//! follows a data-dependent order (LU's wavefronts, IS's scatter), or that
//! alternates between "everyone reads all of it" and "everyone writes their
//! part" inside one region (CG's direction vector).

use std::cell::UnsafeCell;

use parking_lot::Mutex;

use crate::pool::{Pool, Team};
use crate::schedule::static_block;

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
    pub(crate) unsafe fn ptr_at(&self, i: usize) -> *mut T {
        assert!(i <= self.data.len(), "index {i} out of bounds");
        // SAFETY: `i <= len` (checked above), so the offset stays inside
        // the slice or one past its end; `UnsafeCell<T>` has `T`'s layout.
        self.data.as_ptr().add(i) as *mut T
    }

    /// A shared sub-slice `[start, start+len)`.
    ///
    /// # Safety
    /// No thread may write an element of the range while the result lives.
    #[inline]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &[T] {
        assert!(start + len <= self.data.len());
        // SAFETY: the range lies inside the slice (checked above), whose
        // cells are initialised `T`s borrowed for `'a`; the caller
        // guarantees nothing writes the range while the result lives.
        std::slice::from_raw_parts(self.ptr_at(start), len)
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

/// One slice dealt out to a pool's team in the blocks of a static schedule:
/// the safe counterpart of [`Team::for_static`] for data the iterations own.
///
/// The slice is read as units of `unit` elements — a grid plane, a row, a
/// single element — and member `tid` gets units
/// [`static_block(lo, hi, tid, nthreads)`](static_block) as one `&mut`
/// chunk, which it claims once inside a region of that pool. Units outside
/// `lo..hi` (ghost planes) are handed to nobody.
pub struct TeamChunks<'a, T> {
    unit: usize,
    /// The dealt range of units.
    units: std::ops::Range<usize>,
    /// Each member's chunk, until claimed.
    slots: Vec<Mutex<Option<&'a mut [T]>>>,
}

impl<'a, T> TeamChunks<'a, T> {
    /// Deal units `lo..hi` of `slice` to the teams `pool` forks.
    pub fn new(pool: &Pool, slice: &'a mut [T], unit: usize, lo: usize, hi: usize) -> Self {
        let nthreads = pool.nthreads();
        let mut rest = &mut slice[lo * unit..hi * unit];
        let mut slots = Vec::with_capacity(nthreads);
        for tid in 0..nthreads {
            let block = static_block(lo, hi, tid, nthreads);
            let (head, tail) = rest.split_at_mut(block.len() * unit);
            rest = tail;
            slots.push(Mutex::new(Some(head)));
        }
        Self {
            unit,
            units: lo..hi,
            slots,
        }
    }

    /// The calling member's first unit and its chunk (empty when the team
    /// is larger than the range). Panics on a second claim by one member.
    pub fn claim(&self, team: &Team<'_>) -> (usize, &'a mut [T]) {
        let chunk = self.slots[team.tid()].lock().take();
        (
            team.static_range(self.units.start, self.units.end).start,
            chunk.expect("a team member claims its chunk once"),
        )
    }

    /// [`TeamChunks::claim`], unit by unit: each of the member's units with
    /// its index.
    pub fn claim_units(&self, team: &Team<'_>) -> impl Iterator<Item = (usize, &'a mut [T])> {
        let (first, chunk) = self.claim(team);
        (first..).zip(chunk.chunks_exact_mut(self.unit))
    }
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
    fn team_chunks_follow_the_static_schedule() {
        // Ten rows of three between two ghost rows, dealt to three members.
        let mut data: Vec<u32> = (0..36).collect();
        let pool = Pool::new(3);
        let chunks = TeamChunks::new(&pool, &mut data, 3, 1, 11);
        let seen = pool.run(|team| {
            let (first, mine) = chunks.claim(team);
            assert_eq!(first, team.static_range(1, 11).start);
            assert_eq!(mine.len(), 3 * team.static_range(1, 11).len());
            assert_eq!(mine[0] as usize, 3 * first);
            mine.fill(team.tid() as u32 + 100);
            mine.len()
        });
        assert_eq!(seen, [12, 9, 9]);
        assert_eq!(data[..3], [0, 1, 2], "ghost row dealt out");
        assert_eq!(data[33..], [33, 34, 35], "ghost row dealt out");
        assert!(data[3..15].iter().all(|&v| v == 100));
        assert!(data[15..24].iter().all(|&v| v == 101));
        assert!(data[24..33].iter().all(|&v| v == 102));
    }

    #[test]
    fn team_chunks_more_members_than_units() {
        let mut data = vec![1u8, 2];
        let pool = Pool::new(5);
        let chunks = TeamChunks::new(&pool, &mut data, 1, 0, 2);
        let sizes = pool.run(|team| chunks.claim(team).1.len());
        assert_eq!(sizes, [1, 1, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "claims its chunk once")]
    fn team_chunks_refuse_a_second_claim() {
        let mut data = vec![0u8; 4];
        let pool = Pool::new(1);
        let chunks = TeamChunks::new(&pool, &mut data, 1, 0, 4);
        pool.run(|team| {
            chunks.claim(team);
            chunks.claim(team);
        });
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
