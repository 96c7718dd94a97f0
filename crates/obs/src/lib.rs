//! Runtime observability for the rvhpc workspace.
//!
//! `rvhpc-obs` is the instrumentation layer behind `RVHPC_TRACE`: the
//! parallel runtime records barrier waits, critical-section contention,
//! work-sharing chunk acquisitions and fork/join region spans; the NPB
//! ports record phase spans named after their `PhaseProfile` entries; the
//! exporters turn a drained trace into a Chrome `trace_event` timeline or
//! a versioned JSON metrics document.
//!
//! The design constraint is *zero cost when disabled*: instrumented code
//! snapshots the global switch into a [`RecorderHandle`] once per region,
//! and every recording call on a disabled handle is an inlined branch on a
//! register-resident bool — no clock reads, no atomics, no allocation.
//! When enabled, events go into per-thread single-producer rings
//! ([`ring::EventRing`]) that a drainer can snapshot without ever blocking
//! a writer.
//!
//! ```
//! rvhpc_obs::set_enabled(true);
//! let h = rvhpc_obs::handle();
//! let span = h.span_start();
//! // ... work ...
//! h.record_span(span, rvhpc_obs::EventKind::Phase, "spmv-stream", 0, 0);
//! let trace = rvhpc_obs::drain_all();
//! assert!(trace.events.iter().any(|e| e.name == "spmv-stream"));
//! # rvhpc_obs::set_enabled(false);
//! ```

pub mod benchdoc;
pub mod chrome;
pub mod diff;
pub mod doc;
pub(crate) mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub(crate) mod recorder;
pub mod ring;
pub mod saturation;
pub mod timeseries;
pub mod trace;

pub use benchdoc::{SystemInfo, WallStats};
pub use chrome::{chrome_trace, write_chrome_trace};
pub use diff::{diff_any, DiffConfig, DiffReport};
pub use doc::Kind;
pub use event::{Event, EventKind};
pub use hist::LatencyHistogram;
pub use json::JsonValue;
pub use metrics::{summarize, Summary};
pub use recorder::{
    disabled_handle, drain_all, enabled, handle, init_from_env, now_us, pin_epoch, record,
    set_enabled, RecorderHandle, SpanStart, TraceData, TRACE_ENV,
};
pub use saturation::{knee_index, SweepStep};
pub use timeseries::{Sample, Timeseries};
pub use trace::{RetainedSpan, TraceCtx};
