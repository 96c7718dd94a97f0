//! Bounded in-memory time series of gauge snapshots.
//!
//! [`Timeseries`] holds a ring of [`Sample`]s — each a timestamp plus a
//! flat map of named gauge values — and renders as the `timeseries`
//! section of an `rvhpc-metrics/1` document. The server samples its
//! counters, shard queue depths, cache hit rate and latency quantiles
//! into one of these, either on a fixed interval (a background sampler
//! thread) or on demand (each `metrics` request when no interval is
//! configured, which keeps the section deterministic for tests).
//!
//! The ring is bounded: when full, the oldest sample is evicted and
//! counted in `evicted`, so a long-running server's metrics document
//! stays a fixed size. Gauge maps are `BTreeMap`s, so the JSON layout is
//! deterministic — the property `obsdiff` and the `--jobs` determinism
//! test rely on.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::json::JsonValue;
use crate::recorder;

/// Default bound on retained samples (~1 hour at 1 sample/s).
pub const DEFAULT_CAPACITY: usize = 3600;

/// Version tag for the sample-ring layout (sample shape + eviction
/// semantics), stamped into every `timeseries` section so consumers can
/// refuse cross-version comparisons instead of silently mixing layouts.
pub(crate) const RING_LAYOUT: &str = "gauge-ring/1";

/// One gauge snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Microseconds since the recorder epoch when the sample was taken.
    pub t_us: u64,
    /// Gauge name → value, deterministic key order.
    pub gauges: BTreeMap<String, f64>,
}

impl Sample {
    /// Render as one element of the `samples` array.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("t_us".to_string(), JsonValue::from(self.t_us)),
            (
                "gauges".to_string(),
                JsonValue::object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from(*v))),
                ),
            ),
        ])
    }
}

struct Inner {
    samples: VecDeque<Sample>,
    evicted: u64,
}

/// A bounded ring of gauge snapshots.
pub struct Timeseries {
    capacity: usize,
    interval_us: u64,
    inner: Mutex<Inner>,
}

impl Timeseries {
    /// A ring holding up to `capacity` samples. `interval_us` is
    /// advisory metadata (0 = on-demand sampling) echoed in the export.
    pub fn new(capacity: usize, interval_us: u64) -> Self {
        recorder::pin_epoch();
        Self {
            capacity: capacity.max(1),
            interval_us,
            inner: Mutex::new(Inner {
                samples: VecDeque::new(),
                evicted: 0,
            }),
        }
    }

    /// The advisory sampling interval in microseconds (0 = on demand).
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Take a sample now from the provided gauges.
    pub fn sample_now(&self, gauges: impl IntoIterator<Item = (String, f64)>) {
        self.push(Sample {
            t_us: recorder::now_us(),
            gauges: gauges.into_iter().collect(),
        });
    }

    /// Append a prepared sample, evicting the oldest when full.
    pub(crate) fn push(&self, sample: Sample) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.samples.len() == self.capacity {
            inner.samples.pop_front();
            inner.evicted += 1;
        }
        inner.samples.push_back(sample);
    }

    /// Render the `timeseries` metrics section.
    pub fn to_json(&self) -> JsonValue {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        JsonValue::object([
            ("layout".to_string(), JsonValue::from(RING_LAYOUT)),
            ("interval_us".to_string(), JsonValue::from(self.interval_us)),
            ("capacity".to_string(), JsonValue::from(self.capacity)),
            ("evicted".to_string(), JsonValue::from(inner.evicted)),
            (
                "samples".to_string(),
                JsonValue::Array(inner.samples.iter().map(Sample::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ts: &Timeseries) -> Vec<Sample> {
        let inner = ts.inner.lock().unwrap();
        inner.samples.iter().cloned().collect()
    }

    fn gauges(v: f64) -> Vec<(String, f64)> {
        vec![
            ("requests_ok".to_string(), v),
            ("queue_depth".to_string(), 0.0),
        ]
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let ts = Timeseries::new(3, 0);
        for i in 0..5 {
            ts.sample_now(gauges(i as f64));
        }
        let samples = samples(&ts);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].gauges["requests_ok"], 2.0);
        assert_eq!(samples[2].gauges["requests_ok"], 4.0);
        let doc = ts.to_json();
        assert_eq!(doc.get("evicted").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(
            doc.get("samples")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn timestamps_are_monotone_and_json_is_deterministic() {
        let ts = Timeseries::new(16, 1_000_000);
        ts.sample_now(gauges(1.0));
        ts.sample_now(gauges(2.0));
        let samples = samples(&ts);
        assert!(samples[0].t_us <= samples[1].t_us);
        // Gauge key order is deterministic regardless of insertion order.
        let a = Sample {
            t_us: 5,
            gauges: [("b".to_string(), 1.0), ("a".to_string(), 2.0)].into(),
        };
        let b = Sample {
            t_us: 5,
            gauges: [("a".to_string(), 2.0), ("b".to_string(), 1.0)].into(),
        };
        assert_eq!(a.to_json().to_json(), b.to_json().to_json());
        let text = ts.to_json().to_json();
        let parsed = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("interval_us").and_then(JsonValue::as_f64),
            Some(1_000_000.0)
        );
    }
}
