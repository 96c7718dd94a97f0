//! The metrics document: the server's [`Counters`], and the one place
//! that turns the [`Shared`] state into gauges ([`Shared::gauges`]) and
//! the `rvhpc-metrics/1` document ([`Shared::metrics_doc`]).
//!
//! Live telemetry: a [`Timeseries`](rvhpc_obs::Timeseries) ring collects
//! gauge snapshots — either from a background sampler thread
//! (`sample_interval_ms > 0`) or on demand at each `metrics` request
//! (interval 0, deterministic) — and returns them as the `timeseries`
//! section.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rvhpc_obs::{metrics, JsonValue, LatencyHistogram};

use super::Shared;
use crate::batch::Batcher;
use crate::proto::Priority;

/// Monotonic server counters, exported as the `server` metrics section.
#[derive(Default)]
pub(super) struct Counters {
    pub(super) conns_accepted: AtomicU64,
    pub(super) conns_rejected: AtomicU64,
    pub(super) conns_closed: AtomicU64,
    pub(super) requests: AtomicU64,
    pub(super) ok: AtomicU64,
    pub(super) protocol_errors: AtomicU64,
    pub(super) invalid: AtomicU64,
    pub(super) rejected_admission: AtomicU64,
    pub(super) deadline_expired: AtomicU64,
    pub(super) internal_errors: AtomicU64,
    pub(super) cache_hits: AtomicU64,
    pub(super) cache_misses: AtomicU64,
    /// Sum of per-connection cache hit rates (per-connection hit rate is
    /// the serve-level warmth a single client observed).
    pub(super) conn_hit_rate_sum: Mutex<f64>,
    /// Service time (admission → result) of completed predicts.
    pub(super) service: Mutex<LatencyHistogram>,
    /// Load-shed replies (injected saturation + genuine queue-full).
    /// Exported in the gated `faults` metrics section, not `server`,
    /// so the healthy-path document shape is unchanged.
    pub(super) shed_total: AtomicU64,
    /// Connections shed for stalling mid-line past the stall timeout.
    pub(super) stalled_conns_shed: AtomicU64,
    /// Per-class QoS accounting, indexed by [`Priority::index`]. Only
    /// requests carrying an explicit `priority` field are recorded, so
    /// class-less traffic leaves these (and the gated `qos` section)
    /// untouched.
    pub(super) class_requests: [AtomicU64; 3],
    pub(super) class_ok: [AtomicU64; 3],
    pub(super) class_shed: [AtomicU64; 3],
    pub(super) class_latency: [Mutex<LatencyHistogram>; 3],
}

/// Count one more of whatever `counter` counts.
pub(super) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

pub(super) fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl Counters {
    fn to_json(&self, active_conns: usize) -> JsonValue {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let closed = self.conns_closed.load(Ordering::Relaxed);
        let mean_conn_hit_rate = if closed == 0 {
            0.0
        } else {
            *self.conn_hit_rate_sum.lock() / closed as f64
        };
        let c = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
        JsonValue::object([
            (
                "connections".to_string(),
                JsonValue::object([
                    ("accepted".to_string(), c(&self.conns_accepted)),
                    ("rejected".to_string(), c(&self.conns_rejected)),
                    ("closed".to_string(), c(&self.conns_closed)),
                    ("active".to_string(), JsonValue::from(active_conns)),
                    (
                        "mean_cache_hit_rate".to_string(),
                        JsonValue::from(mean_conn_hit_rate),
                    ),
                ]),
            ),
            (
                "requests".to_string(),
                JsonValue::object([
                    ("received".to_string(), c(&self.requests)),
                    ("ok".to_string(), c(&self.ok)),
                    ("protocol_errors".to_string(), c(&self.protocol_errors)),
                    ("invalid".to_string(), c(&self.invalid)),
                    (
                        "rejected_admission".to_string(),
                        c(&self.rejected_admission),
                    ),
                    ("deadline_expired".to_string(), c(&self.deadline_expired)),
                    ("internal_errors".to_string(), c(&self.internal_errors)),
                ]),
            ),
            (
                "cache".to_string(),
                JsonValue::object([
                    ("hits".to_string(), JsonValue::from(hits)),
                    ("misses".to_string(), JsonValue::from(misses)),
                    ("hit_rate".to_string(), JsonValue::from(rate(hits, misses))),
                ]),
            ),
            ("service_latency".to_string(), self.service.lock().to_json()),
        ])
    }
}

impl Shared {
    /// One gauge snapshot of the server's live state, as flat named values.
    ///
    /// Names split into two families the determinism test relies on:
    /// counter-derived gauges (request/cache/queue counts — identical for
    /// identical request sequences regardless of `--jobs`), and `*_us`
    /// latency gauges (wall-clock dependent, excluded from determinism
    /// comparisons along with the sample timestamp).
    pub(super) fn gauges(&self) -> Vec<(String, f64)> {
        let counters = &self.counters;
        let hits = counters.cache_hits.load(Ordering::Relaxed);
        let misses = counters.cache_misses.load(Ordering::Relaxed);
        let depths = self.batcher.queue_depths();
        let active = self.active.load(Ordering::Relaxed);
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let mut gauges: Vec<(String, f64)> = vec![
            ("conns_accepted".to_string(), c(&counters.conns_accepted)),
            ("conns_active".to_string(), active as f64),
            ("requests_received".to_string(), c(&counters.requests)),
            ("requests_ok".to_string(), c(&counters.ok)),
            (
                "rejected_admission".to_string(),
                c(&counters.rejected_admission),
            ),
            (
                "deadline_expired".to_string(),
                c(&counters.deadline_expired),
            ),
            ("cache_hits".to_string(), hits as f64),
            ("cache_misses".to_string(), misses as f64),
            ("cache_hit_rate".to_string(), rate(hits, misses)),
            (
                "queue_depth_total".to_string(),
                depths.iter().sum::<usize>() as f64,
            ),
        ];
        for (i, d) in depths.iter().enumerate() {
            gauges.push((format!("queue_depth_shard{i}"), *d as f64));
        }
        // Tier-occupancy gauges: hot-cache size always, disk-store size when
        // a store is attached. All counter-derived — identical request
        // sequences produce identical values (eviction is deterministic).
        let engine = self.batcher.engine();
        gauges.push(("cache_entries".to_string(), engine.hot_entries() as f64));
        if let Some(store) = engine.store() {
            gauges.push(("store_entries".to_string(), store.len() as f64));
            gauges.push(("store_bytes".to_string(), store.bytes() as f64));
        }
        // Cluster gauges ride along only in router mode: forwarded request
        // volume plus per-node ring occupancy (distinct keys this router
        // has assigned to each node). Counter-derived, so the occupancy sum
        // equals the total distinct keys routed.
        if let Some(router) = &self.router {
            gauges.push((
                "forwarded_total".to_string(),
                router.forwarded_total() as f64,
            ));
            for (i, keys) in router.keys_per_node().iter().enumerate() {
                gauges.push((format!("ring_keys_node{i}"), *keys as f64));
            }
        }
        let service = counters.service.lock();
        gauges.push(("service_p50_us".to_string(), service.quantile(0.5) as f64));
        gauges.push(("service_p99_us".to_string(), service.quantile(0.99) as f64));
        gauges.push(("service_max_us".to_string(), service.max_us() as f64));
        gauges.push(("service_mean_us".to_string(), service.mean_us()));
        gauges
    }

    /// Snapshot the full metrics document: `server` counters plus the
    /// engine's cache/executor section, the `timeseries` ring and the
    /// gated sections.
    pub(super) fn metrics_doc(&self) -> JsonValue {
        // On-demand mode: each metrics snapshot takes exactly one sample, so
        // the section's sample count tracks the request sequence, not the
        // wall clock — deterministic across `--jobs` settings.
        if self.timeseries.interval_us() == 0 {
            self.timeseries.sample_now(self.gauges());
        }
        let engine = self.batcher.engine();
        let active = self.active.load(Ordering::Relaxed);
        let mut doc = metrics::document("rvhpc-serve");
        if let JsonValue::Object(map) = &mut doc {
            map.insert("server".to_string(), self.counters.to_json(active));
            map.insert("engine".to_string(), engine.metrics().to_json());
            map.insert("timeseries".to_string(), self.timeseries.to_json());
            // Gated sections: absent on a store-less / class-less server,
            // keeping the healthy-path document byte-identical to before
            // these subsystems existed.
            if let Some(store) = engine.store_section() {
                map.insert("store".to_string(), store);
            }
            if let Some(qos) = qos_section(&self.counters) {
                map.insert("qos".to_string(), qos);
            }
            if let Some(faults) = faults_section(&self.counters, &self.batcher) {
                map.insert("faults".to_string(), faults);
            }
            // And the cluster section only exists in router mode.
            if let Some(router) = &self.router {
                map.insert("cluster".to_string(), router.to_json());
            }
        }
        doc
    }
}

/// The gated `qos` metrics section: per-class request/ok/shed counters
/// and latency histograms, classes in priority order, only classes that
/// actually saw explicit-priority traffic. `None` when no request ever
/// carried a `priority` field.
fn qos_section(counters: &Counters) -> Option<JsonValue> {
    let total: u64 = counters
        .class_requests
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum();
    if total == 0 {
        return None;
    }
    let c = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
    let mut classes = Vec::new();
    for p in Priority::ALL {
        let i = p.index();
        let requests = counters.class_requests[i].load(Ordering::Relaxed);
        if requests == 0 {
            continue;
        }
        classes.push((
            p.label().to_string(),
            JsonValue::object([
                ("requests".to_string(), JsonValue::from(requests)),
                ("ok".to_string(), c(&counters.class_ok[i])),
                ("shed".to_string(), c(&counters.class_shed[i])),
                (
                    "latency".to_string(),
                    counters.class_latency[i].lock().to_json(),
                ),
            ]),
        ));
    }
    Some(JsonValue::object([(
        "classes".to_string(),
        JsonValue::object(classes),
    )]))
}

/// The gated `faults` metrics section: plan + injection counters (when
/// an injector is installed) and recovery counters. Present only when an
/// injector exists or some recovery actually happened, so the default
/// healthy-path document is byte-identical to a build without this
/// subsystem.
fn faults_section(counters: &Counters, batcher: &Batcher) -> Option<JsonValue> {
    let worker_restarts = batcher.worker_restarts();
    let shed = counters.shed_total.load(Ordering::Relaxed);
    let stalled = counters.stalled_conns_shed.load(Ordering::Relaxed);
    let injector = batcher.injector();
    if injector.is_none() && worker_restarts + shed + stalled == 0 {
        return None;
    }
    let recovery = JsonValue::object([
        (
            "worker_restarts".to_string(),
            JsonValue::from(worker_restarts),
        ),
        ("shed_total".to_string(), JsonValue::from(shed)),
        ("stalled_conns_shed".to_string(), JsonValue::from(stalled)),
    ]);
    let mut fields = Vec::new();
    if let Some(inj) = injector {
        if let JsonValue::Object(map) = inj.to_json() {
            fields.extend(map);
        }
    }
    fields.push(("recovery".to_string(), recovery));
    Some(JsonValue::object(fields))
}
