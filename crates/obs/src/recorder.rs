//! The global recorder: an on/off switch, a monotonic epoch, and a
//! registry of per-thread event rings.
//!
//! Cost model: when tracing is disabled every instrumentation site reduces
//! to one relaxed bool load (snapshotted into a [`RecorderHandle`] at
//! region start, so inner loops test a register) and a predictable branch —
//! no clock reads, no stores, no allocation. When enabled, a span costs
//! two `Instant::now` calls and one ring push.
//!
//! Threads record into thread-local rings registered globally; a drain
//! walks the registry without ever blocking a writer (see
//! [`crate::ring::EventRing`]).

use crate::event::{Event, EventKind};
use crate::ring::EventRing;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable that switches tracing on: `RVHPC_TRACE=1`.
pub const TRACE_ENV: &str = "RVHPC_TRACE";

/// Default per-thread ring capacity (events). At ~48 bytes of payload per
/// slot this is ~3 MiB per thread, enough for every chunk acquisition of a
/// class-B NPB run.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<EventRing>>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_RING: RefCell<Option<Arc<EventRing>>> = const { RefCell::new(None) };
}

/// Is event recording currently on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switch recording on or off (also pins the epoch on first enable).
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable tracing if `RVHPC_TRACE` is set to `1`, `true`, `on` or `yes`
/// (case-insensitive). Returns whether tracing ended up enabled.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var(TRACE_ENV) {
        let v = v.to_ascii_lowercase();
        if matches!(v.as_str(), "1" | "true" | "on" | "yes") {
            set_enabled(true);
        }
    }
    enabled()
}

/// Pin the recorder epoch without enabling recording. Timestamp-only
/// consumers (slow-request dumps, the timeseries sampler) call this so
/// [`now_us`] advances even when `RVHPC_TRACE` is off.
pub fn pin_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

/// Microseconds since the recorder epoch (pinned at first enable).
#[inline]
pub fn now_us() -> u64 {
    match EPOCH.get() {
        Some(epoch) => epoch.elapsed().as_micros() as u64,
        None => 0,
    }
}

/// Snapshot the on/off switch into a cheap `Copy` handle. Call once per
/// region/phase, then record through the handle — inner loops never touch
/// the atomic.
#[inline]
pub fn handle() -> RecorderHandle {
    RecorderHandle { on: enabled() }
}

/// A disabled handle: every recording call is a no-op branch.
#[inline]
pub fn disabled_handle() -> RecorderHandle {
    RecorderHandle { on: false }
}

/// The start timestamp of an in-flight span, or nothing when tracing is
/// off (no clock was read).
#[derive(Debug, Clone, Copy)]
#[must_use = "a span start should be closed with record_span"]
pub struct SpanStart(Option<u64>);

impl SpanStart {
    /// A span start pinned to an explicit epoch-relative timestamp —
    /// used by [`crate::trace::TraceCtx`] when retaining spans for a
    /// slow-request dump while global recording is off.
    pub(crate) fn at(start_us: u64) -> Self {
        SpanStart(Some(start_us))
    }

    /// The start timestamp, when one was taken.
    pub(crate) fn value(self) -> Option<u64> {
        self.0
    }
}

/// Per-region snapshot of the recorder switch; all methods are `#[inline]`
/// no-ops when the snapshot said "off".
#[derive(Debug, Clone, Copy)]
pub struct RecorderHandle {
    on: bool,
}

impl RecorderHandle {
    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(self) -> bool {
        self.on
    }

    /// Open a span: reads the clock only when enabled.
    #[inline]
    pub fn span_start(self) -> SpanStart {
        SpanStart(if self.on { Some(now_us()) } else { None })
    }

    /// Close a span opened with [`Self::span_start`] and record it.
    #[inline]
    pub fn record_span(
        self,
        start: SpanStart,
        kind: EventKind,
        name: &'static str,
        tid: u32,
        arg: u64,
    ) {
        if let Some(start_us) = start.0 {
            let end = now_us();
            record(Event {
                kind,
                name,
                tid,
                start_us,
                dur_us: end.saturating_sub(start_us),
                arg,
            });
        }
    }
}

/// Append an event to the calling thread's ring (creating and registering
/// the ring on first use).
pub fn record(ev: Event) {
    THREAD_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(EventRing::with_capacity(ring_capacity()));
            REGISTRY
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        ring.push(&ev);
    });
}

fn ring_capacity() -> usize {
    static CAPACITY: OnceLock<usize> = OnceLock::new();
    *CAPACITY.get_or_init(|| {
        std::env::var("RVHPC_TRACE_BUF")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY)
    })
}

/// Everything drained from the rings, plus loss accounting.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// All resident events, sorted by start time.
    pub events: Vec<Event>,
    /// Events lost to ring wrap-around across all threads.
    pub dropped: u64,
}

/// Snapshot every thread's ring. Non-destructive (rings keep their
/// contents) and never blocks writers; the registry lock only orders
/// concurrent drains against ring creation.
pub fn drain_all() -> TraceData {
    let rings: Vec<Arc<EventRing>> = REGISTRY.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in &rings {
        events.extend(ring.drain());
        dropped += ring.dropped();
    }
    events.sort_by_key(|e| (e.start_us, e.tid));
    TraceData { events, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-switch tests share process state; run them as one test so the
    // default parallel test runner cannot interleave them.
    #[test]
    fn recorder_end_to_end() {
        // Disabled: span_start must not read the clock or record.
        assert!(!enabled());
        let h = handle();
        let s = h.span_start();
        h.record_span(s, EventKind::Phase, "off-phase", 0, 0);
        assert!(
            !drain_all()
                .events
                .iter()
                .any(|e| e.name.starts_with("off-")),
            "disabled handle must record nothing"
        );

        // Enabled: spans land in the drain, in order.
        set_enabled(true);
        let h = handle();
        assert!(h.is_enabled());
        let s = h.span_start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        h.record_span(s, EventKind::Phase, "on-phase", 3, 42);

        // Another thread records into its own ring; both appear.
        set_enabled(true);
        std::thread::spawn(|| {
            let h = handle();
            let s = h.span_start();
            h.record_span(s, EventKind::BarrierWait, "on-thread2", 1, 0);
        })
        .join()
        .expect("recorder thread");

        set_enabled(false);
        let data = drain_all();
        let phase = data
            .events
            .iter()
            .find(|e| e.name == "on-phase")
            .expect("phase recorded");
        assert!(
            phase.dur_us >= 1_000,
            "slept 2ms, recorded {}",
            phase.dur_us
        );
        assert_eq!(phase.tid, 3);
        assert_eq!(phase.arg, 42);
        assert!(data.events.iter().any(|e| e.name == "on-thread2"));
        assert!(
            data.events
                .windows(2)
                .all(|w| w[0].start_us <= w[1].start_us),
            "drain output sorted by start time"
        );

        // A handle snapshotted while enabled keeps recording after the
        // global switch flips (region-scoped semantics)...
        set_enabled(true);
        let live = handle();
        set_enabled(false);
        live.record_span(live.span_start(), EventKind::Phase, "late-phase", 0, 9);
        assert!(drain_all().events.iter().any(|e| e.name == "late-phase"));
        // ...and a disabled_handle never records.
        let off = disabled_handle();
        off.record_span(off.span_start(), EventKind::Phase, "never", 0, 1);
        assert!(!drain_all().events.iter().any(|e| e.name == "never"));
    }
}
