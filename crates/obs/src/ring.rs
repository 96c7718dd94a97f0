//! Single-producer event ring with lock-free, race-free draining.
//!
//! Each recording thread owns one [`EventRing`]: only that thread writes,
//! while any thread may drain concurrently without blocking the writer
//! (the writer never takes a lock, never waits, never retries).
//!
//! Consistency uses a per-slot sequence number in seqlock style, but the
//! payload itself is stored as a block of `AtomicU64` words with `Relaxed`
//! ordering rather than a plain struct — so a torn read produces garbage
//! *words* (detected and discarded via the sequence check), never a data
//! race in the language-semantics sense. Slot protocol, for write `i`:
//!
//! 1. `seq.store(2*i + 1)` (release) — odd: write in progress
//! 2. store payload words (relaxed)
//! 3. `seq.store(2*i + 2)` (release) — even: write `i` complete
//!
//! A drainer reads `seq`, copies the words, re-reads `seq`, and keeps the
//! slot only if both reads saw the same even value. When the ring wraps,
//! the oldest events are overwritten; `dropped()` reports how many.

use crate::event::{Event, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Payload words per slot: kind|tid, name ptr, name len, start, dur, arg.
const WORDS: usize = 6;

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A fixed-capacity single-producer ring of [`Event`]s.
pub(crate) struct EventRing {
    slots: Box<[Slot]>,
    /// Total events ever pushed (not wrapped). Only the owner advances it.
    head: AtomicU64,
}

impl EventRing {
    /// Create a ring holding up to `capacity` events (rounded up to a
    /// power of two, minimum 2, so wrapping is a mask).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        // SAFETY: a `Slot` is nothing but `AtomicU64`s, so all-zero bits
        // are a valid empty slot (seq 0, no write yet).
        let slots = unsafe { Box::<[Slot]>::new_zeroed_slice(cap).assume_init() };
        EventRing {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Total events pushed over the ring's lifetime.
    pub(crate) fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to wrapping (pushed minus capacity, when positive).
    pub(crate) fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Append an event. MUST only be called from the owning thread —
    /// enforced by the recorder, which hands each thread its own ring.
    pub(crate) fn push(&self, ev: &Event) {
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];

        slot.seq.store(2 * i + 1, Ordering::Release);
        let name = ev.name;
        slot.words[0].store(
            u64::from(ev.kind as u8) | (u64::from(ev.tid) << 8),
            Ordering::Relaxed,
        );
        slot.words[1].store(name.as_ptr() as u64, Ordering::Relaxed);
        slot.words[2].store(name.len() as u64, Ordering::Relaxed);
        slot.words[3].store(ev.start_us, Ordering::Relaxed);
        slot.words[4].store(ev.dur_us, Ordering::Relaxed);
        slot.words[5].store(ev.arg, Ordering::Relaxed);
        slot.seq.store(2 * i + 2, Ordering::Release);

        self.head.store(i + 1, Ordering::Release);
    }

    /// Snapshot every event currently resident in the ring, oldest first.
    /// Never blocks the writer; a slot being overwritten mid-copy is
    /// detected by its sequence number and skipped.
    pub(crate) fn drain(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
            let want = 2 * i + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // being rewritten by a lapping writer
            }
            let words: [u64; WORDS] =
                std::array::from_fn(|w| slot.words[w].load(Ordering::Relaxed));
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // overwritten while copying
            }
            if let Some(ev) = decode(&words) {
                out.push(ev);
            }
        }
        out
    }
}

fn decode(words: &[u64; WORDS]) -> Option<Event> {
    let kind = EventKind::from_u8((words[0] & 0xff) as u8)?;
    let tid = (words[0] >> 8) as u32;
    // SAFETY: the ptr/len words were produced by `push` from a
    // `&'static str`, and the seq check guarantees we read a consistent
    // word set — so this reconstructs exactly that 'static string.
    let name: &'static str = unsafe {
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(
            words[1] as *const u8,
            words[2] as usize,
        ))
    };
    Some(Event {
        kind,
        name,
        tid,
        start_us: words[3],
        dur_us: words[4],
        arg: words[5],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start: u64) -> Event {
        Event {
            kind: EventKind::Phase,
            name,
            tid: 1,
            start_us: start,
            dur_us: 5,
            arg: 7,
        }
    }

    #[test]
    fn drain_returns_pushed_events_in_order() {
        let ring = EventRing::with_capacity(8);
        for i in 0..5 {
            ring.push(&ev("spmv-stream", i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 5);
        for (i, e) in drained.iter().enumerate() {
            assert_eq!(e.start_us, i as u64);
            assert_eq!(e.name, "spmv-stream");
            assert_eq!(e.arg, 7);
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wrapping_keeps_newest_and_counts_drops() {
        let ring = EventRing::with_capacity(4);
        for i in 0..10 {
            ring.push(&ev("x", i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 4);
        assert_eq!(drained[0].start_us, 6);
        assert_eq!(drained[3].start_us, 9);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(5).slots.len(), 8);
        assert_eq!(EventRing::with_capacity(0).slots.len(), 2);
    }

    #[test]
    fn concurrent_drain_never_yields_torn_events() {
        use std::sync::Arc;
        let ring = Arc::new(EventRing::with_capacity(16));
        let writer_ring = Arc::clone(&ring);
        // Writer pushes events whose fields are all derived from one
        // counter; a torn read would break the invariant.
        let writer = std::thread::spawn(move || {
            for i in 0..20_000u64 {
                writer_ring.push(&Event {
                    kind: EventKind::Counter,
                    name: "c",
                    tid: (i & 0xffff) as u32,
                    start_us: i,
                    dur_us: i * 2,
                    arg: i * 3,
                });
            }
        });
        let check = |events: Vec<Event>| {
            for e in &events {
                assert_eq!(e.dur_us, e.start_us * 2, "torn event");
                assert_eq!(e.arg, e.start_us * 3, "torn event");
                assert_eq!(u64::from(e.tid), e.start_us & 0xffff, "torn event");
            }
            events.len()
        };
        // Concurrent drains are best-effort overlap (on a single-core box
        // the writer may finish first); the final drain always validates.
        while !writer.is_finished() {
            check(ring.drain());
        }
        writer.join().expect("writer");
        assert!(check(ring.drain()) > 0, "final drain sees resident events");
    }
}
