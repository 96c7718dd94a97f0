//! Cache-line isolation for hot atomics.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes, so barrier counters, dynamic-loop
/// cursors and per-thread slots never share a cache line.
///
/// 128 rather than 64 because adjacent-line prefetchers on modern x86 pull
/// line pairs, so true isolation needs two lines.
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pads and aligns `value` to 128 bytes.
    pub(crate) const fn new(value: T) -> Self {
        Self(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::CachePadded;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn padded_is_at_least_128_aligned_and_sized() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
    }

    #[test]
    fn deref_reaches_inner_value() {
        let c = CachePadded::new(AtomicUsize::new(7));
        assert_eq!(c.load(Ordering::Relaxed), 7);
        c.store(9, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 9);
    }
}
