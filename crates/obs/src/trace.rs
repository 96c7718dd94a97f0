//! Request-scoped tracing: one [`TraceCtx`] per served request.
//!
//! A trace context carries a process-unique trace id (derived from the
//! server's request counter, so ids are deterministic for a given request
//! sequence) plus a span stack. Every span it records lands in the same
//! per-thread event rings the offline tracer uses, with the trace id in
//! the event's `arg` — so one drained trace interleaves runtime phases,
//! serve-layer request spans, engine execution and pool-worker regions,
//! and a Chrome-trace viewer can follow a single request across all four
//! layers by filtering on the id.
//!
//! Like every obs entry point, a `TraceCtx` built while recording is off
//! is free: it snapshots the recorder switch once and every call is an
//! inlined branch on a register-resident bool. When `retain` is on, the
//! context additionally keeps a local copy of each closed span — that is
//! the slow-request dump: the server renders the retained spans into the
//! reply's `trace` field when a request crosses the latency threshold.

use crate::event::EventKind;
use crate::json::JsonValue;
use crate::recorder::{self, RecorderHandle, SpanStart};

/// One closed span retained by a [`TraceCtx`] for slow-request dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetainedSpan {
    /// What the span measured.
    pub kind: EventKind,
    /// Site name (`"parse"`, `"queue"`, ...).
    pub name: &'static str,
    /// Start in microseconds since the recorder epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl RetainedSpan {
    /// Render as one element of a slow-request dump.
    pub(crate) fn to_json(self) -> JsonValue {
        JsonValue::object([
            ("kind".to_string(), JsonValue::from(self.kind.label())),
            ("name".to_string(), JsonValue::from(self.name)),
            ("start_us".to_string(), JsonValue::from(self.start_us)),
            ("dur_us".to_string(), JsonValue::from(self.dur_us)),
        ])
    }
}

/// A request's trace context: trace id, recorder snapshot, span stack.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    id: u64,
    tid: u32,
    handle: RecorderHandle,
    /// Open spans, innermost last.
    stack: Vec<(&'static str, SpanStart)>,
    /// When true, closed spans are also kept locally for a dump.
    retain: bool,
    retained: Vec<RetainedSpan>,
}

impl TraceCtx {
    /// Start a context for trace `id`. `tid` tags the recording thread
    /// in exported traces (the server uses the connection ordinal).
    pub fn start(id: u64, tid: u32) -> Self {
        Self::with_handle(id, tid, recorder::handle())
    }

    /// As [`TraceCtx::start`] with an explicit recorder snapshot.
    pub fn with_handle(id: u64, tid: u32, handle: RecorderHandle) -> Self {
        Self {
            id,
            tid,
            handle,
            stack: Vec::new(),
            retain: false,
            retained: Vec::new(),
        }
    }

    /// The trace id every span of this context carries.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether spans reach the event rings.
    pub fn is_enabled(&self) -> bool {
        self.handle.is_enabled()
    }

    /// Also keep a local copy of every closed span (slow-request dumps).
    /// Retention works even when global recording is off — the threshold
    /// gate, not `RVHPC_TRACE`, decides whether dumps are wanted.
    pub fn set_retain(&mut self, retain: bool) {
        if retain {
            recorder::pin_epoch();
        }
        self.retain = retain;
    }

    /// Open a span named `name`; close it with [`TraceCtx::pop`].
    pub fn push(&mut self, name: &'static str) {
        let start = if self.retain && !self.handle.is_enabled() {
            // Retention needs timestamps even when the rings are off.
            SpanStart::at(recorder::now_us())
        } else {
            self.handle.span_start()
        };
        self.stack.push((name, start));
    }

    /// Close the innermost open span as `kind`, recording it into the
    /// rings (when enabled) and the retained list (when retaining).
    /// A pop with nothing open is a no-op, not a panic — tracing must
    /// never take a server down.
    pub fn pop(&mut self, kind: EventKind) {
        let Some((name, start)) = self.stack.pop() else {
            return;
        };
        if let Some(start_us) = start.value() {
            let dur_us = recorder::now_us().saturating_sub(start_us);
            if self.retain {
                self.retained.push(RetainedSpan {
                    kind,
                    name,
                    start_us,
                    dur_us,
                });
            }
            if self.handle.is_enabled() {
                recorder::record(crate::event::Event {
                    kind,
                    name,
                    tid: self.tid,
                    start_us,
                    dur_us,
                    arg: self.id,
                });
            }
        }
    }

    /// Record a complete span from explicit timestamps — used for spans
    /// whose endpoints live on different threads (queue wait: admission
    /// happens on the connection thread, pickup on the shard worker).
    pub(crate) fn record_between(
        &mut self,
        kind: EventKind,
        name: &'static str,
        start_us: u64,
        end_us: u64,
    ) {
        let dur_us = end_us.saturating_sub(start_us);
        if self.retain {
            self.retained.push(RetainedSpan {
                kind,
                name,
                start_us,
                dur_us,
            });
        }
        if self.handle.is_enabled() {
            recorder::record(crate::event::Event {
                kind,
                name,
                tid: self.tid,
                start_us,
                dur_us,
                arg: self.id,
            });
        }
    }

    /// Keep a span in the retained list only, without touching the event
    /// rings — for spans another thread already recorded (the shard
    /// worker records queue-wait and engine-exec into its own ring; the
    /// connection mirrors them into its slow-request dump with this).
    pub fn retain_span(&mut self, kind: EventKind, name: &'static str, start_us: u64, dur_us: u64) {
        if self.retain {
            self.retained.push(RetainedSpan {
                kind,
                name,
                start_us,
                dur_us,
            });
        }
    }

    /// Record a zero-duration marker (cache-hit / cache-miss outcomes).
    pub fn mark(&mut self, kind: EventKind, name: &'static str) {
        let now = recorder::now_us();
        self.record_between(kind, name, now, now);
    }

    /// The spans retained so far (closed spans only, in close order).
    pub fn retained(&self) -> &[RetainedSpan] {
        &self.retained
    }

    /// Render the retained spans as the reply's `trace` field:
    /// `{"trace_id": N, "spans": [...]}`.
    pub fn dump(&self) -> JsonValue {
        JsonValue::object([
            ("trace_id".to_string(), JsonValue::from(self.id)),
            (
                "spans".to_string(),
                JsonValue::Array(self.retained.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_records_and_retains_nothing() {
        let mut ctx = TraceCtx::with_handle(0, 0, crate::recorder::disabled_handle());
        ctx.push("parse");
        ctx.pop(EventKind::ProtoParse);
        ctx.mark(EventKind::CacheProbe, "cache-hit");
        assert_eq!(ctx.stack.len(), 0);
        assert!(ctx.retained().is_empty());
    }

    #[test]
    fn retention_works_without_global_recording() {
        let mut ctx = TraceCtx::with_handle(7, 0, crate::recorder::disabled_handle());
        ctx.set_retain(true);
        ctx.push("parse");
        ctx.pop(EventKind::ProtoParse);
        ctx.record_between(EventKind::QueueWait, "queue", 10, 25);
        ctx.mark(EventKind::CacheProbe, "cache-miss");
        let spans = ctx.retained();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "parse");
        assert_eq!(spans[1].dur_us, 15);
        assert_eq!(spans[2].dur_us, 0);
        let dump = ctx.dump();
        assert_eq!(dump.get("trace_id").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(
            dump.get("spans")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn span_stack_nests_and_tolerates_extra_pops() {
        let mut ctx = TraceCtx::with_handle(1, 0, crate::recorder::disabled_handle());
        ctx.set_retain(true);
        ctx.push("outer");
        ctx.push("inner");
        assert_eq!(ctx.stack.len(), 2);
        ctx.pop(EventKind::EngineExec);
        ctx.pop(EventKind::ProtoParse);
        ctx.pop(EventKind::ProtoParse); // extra pop: no-op
        assert_eq!(ctx.stack.len(), 0);
        assert_eq!(ctx.retained()[0].name, "inner");
        assert_eq!(ctx.retained()[1].name, "outer");
    }
}
