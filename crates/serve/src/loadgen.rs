//! The load generator: replay a deterministic request mix against a
//! running server at a target rate, measure per-request latency, and
//! report throughput plus p50/p95/p99 as an `rvhpc-metrics/1` document.
//!
//! Requests are generated by index, so a run is reproducible: request
//! `k` is always the same query, spread over a small grid of benchmarks,
//! thread counts, classes and machines (plus custom-machine descriptors
//! in the [`Mix::Mixed`] workload). The grid is much smaller than a
//! typical request count, so a healthy server answers most of the run
//! from its warm prediction cache — the cache hit rate in the report is
//! the knob CI asserts on.
//!
//! Latencies are recorded into per-connection [`LatencyHistogram`]s and
//! merged exactly; pacing follows an open-loop schedule (request `k`
//! fires at `start + k/rate`), so queueing delay at the server shows up
//! as latency instead of being absorbed by the generator.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rvhpc_obs::{metrics, JsonValue, LatencyHistogram};

use crate::client::{ClientConfig, ClientError, ClientStats, RetryClient};
use crate::proto::Priority;

/// Which request mix to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Preset machines only.
    Preset,
    /// Presets plus custom-machine (what-if) descriptors.
    Mixed,
}

/// A weighted QoS class schedule parsed from `--class-mix` specs like
/// `interactive:8,batch:2`. The weights expand into a fixed pattern and
/// request `k` takes class `pattern[k % len]`, so class assignment is
/// deterministic and reproduces across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMix {
    pattern: Vec<Priority>,
    spec: String,
}

impl ClassMix {
    /// Parse `label:weight` pairs (weight defaults to 1).
    pub fn parse(spec: &str) -> Result<ClassMix, String> {
        let mut pattern = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (label, weight) = part.split_once(':').unwrap_or((part, "1"));
            let class = Priority::from_label(label.trim()).ok_or_else(|| {
                format!(
                    "unknown class '{}' in class mix (expected one of: {})",
                    label.trim(),
                    Priority::ALL.map(|p| p.label()).join(", ")
                )
            })?;
            let weight: usize = weight
                .trim()
                .parse()
                .map_err(|_| format!("class weight '{}' is not a number", weight.trim()))?;
            if weight == 0 {
                return Err(format!("class weight for '{}' must be >= 1", class.label()));
            }
            for _ in 0..weight {
                pattern.push(class);
            }
        }
        if pattern.is_empty() {
            return Err("class mix is empty".to_string());
        }
        Ok(ClassMix {
            pattern,
            spec: spec.to_string(),
        })
    }

    /// The class of request `k`.
    pub(crate) fn class_of(&self, k: usize) -> Priority {
        self.pattern[k % self.pattern.len()]
    }

    /// The spec string this mix was parsed from.
    pub(crate) fn spec(&self) -> &str {
        &self.spec
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent connections.
    pub conns: usize,
    /// Target aggregate request rate per second; 0 = as fast as replies
    /// come back.
    pub rate: f64,
    /// Request mix.
    pub mix: Mix,
    /// Per-request deadline passed to the server, if any.
    pub deadline_ms: Option<u64>,
    /// Cache-hit-rate sampling interval in milliseconds; 0 disables.
    /// When set, a sampler polls the server's cache counters every
    /// interval and records the *per-interval* hit rate (hits and misses
    /// accrued since the previous poll), so warmup (cold, low rate) is
    /// visible separately from steady state instead of being averaged
    /// into one lifetime number.
    pub sample_ms: u64,
    /// Route requests through the reconnecting [`RetryClient`] instead
    /// of a bare stream: transient failures (drops, corrupt replies,
    /// load-shed `overloaded` errors) are retried with backoff, so a
    /// chaos run counts a request as dropped only after exhausting all
    /// attempts. Off by default — the bare path keeps the healthy-run
    /// report byte-compatible.
    pub retry: bool,
    /// Seed for the retry client's backoff jitter (each connection
    /// derives its own stream from this), so retrying runs reproduce.
    pub retry_seed: u64,
    /// Optional QoS class schedule (`--class-mix`). `None` — the default
    /// — sends class-less requests and keeps the report byte-compatible
    /// with pre-QoS consumers; `Some` tags every request with its
    /// scheduled `priority` and adds a per-class `classes` section.
    pub class_mix: Option<ClassMix>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_string(),
            requests: 1000,
            conns: 4,
            rate: 0.0,
            mix: Mix::Mixed,
            deadline_ms: None,
            sample_ms: 0,
            retry: false,
            retry_seed: 0,
            class_mix: None,
        }
    }
}

const BENCHES: [&str; 5] = ["cg", "ep", "mg", "ft", "is"];
const THREADS: [u32; 3] = [1, 8, 64];
const CLASSES: [&str; 2] = ["B", "C"];

/// The request line for index `k` — deterministic, newline-free. With
/// `priority: None` the line is byte-identical to the pre-QoS generator.
pub fn request_line(
    k: usize,
    mix: Mix,
    deadline_ms: Option<u64>,
    priority: Option<Priority>,
) -> String {
    let bench = BENCHES[k % BENCHES.len()];
    let threads = THREADS[(k / BENCHES.len()) % THREADS.len()];
    let class = CLASSES[(k / (BENCHES.len() * THREADS.len())) % CLASSES.len()];
    let deadline = deadline_ms
        .map(|d| format!(",\"deadline_ms\":{d}"))
        .unwrap_or_default();
    let priority = priority
        .map(|p| format!(",\"priority\":\"{}\"", p.label()))
        .unwrap_or_default();
    let machine = match (mix, k % 7) {
        // Every 7th mixed request is a custom what-if descriptor (two
        // variants, so custom keys repeat and can go warm too).
        (Mix::Mixed, 0) => {
            if (k / 7).is_multiple_of(2) {
                r#"{"base":"sg2044","clock_ghz":3.2}"#.to_string()
            } else {
                r#"{"base":"sg2044","vlen_bits":256,"bandwidth_scale":1.25}"#.to_string()
            }
        }
        _ => {
            if k.is_multiple_of(2) {
                "\"sg2044\"".to_string()
            } else {
                "\"sg2042\"".to_string()
            }
        }
    };
    format!(
        "{{\"op\":\"predict\",\"id\":{k},\"bench\":\"{bench}\",\"class\":\"{class}\",\
         \"threads\":{threads},\"machine\":{machine}{deadline}{priority}}}"
    )
}

/// Aggregated outcome of a load run.
pub struct LoadReport {
    /// The full `rvhpc-metrics/1` document.
    pub doc: JsonValue,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered with a protocol-level error reply.
    pub errors: u64,
    /// Requests that never got a reply (transport failure; in retry
    /// mode, only after exhausting every attempt).
    pub dropped: u64,
    /// Extra attempts made by the retry client (0 on the bare path).
    pub retries: u64,
    /// TCP connections the retry client established (0 on the bare path).
    pub reconnects: u64,
    /// Prediction-cache hit rate reported by the server's counters
    /// (hits / probes over the server's lifetime).
    pub cache_hit_rate: f64,
    /// Per-interval cache hit rates sampled every `sample_ms` during the
    /// run (empty when sampling is disabled). Early entries show the
    /// warmup transient; late entries the steady-state rate.
    pub cache_hit_rate_samples: Vec<f64>,
    /// In-flight request count observed at each sampling interval (same
    /// cadence as `cache_hit_rate_samples`; empty when sampling is
    /// disabled). The saturation sweep averages these into each step's
    /// `inflight_mean`.
    pub inflight_samples: Vec<u64>,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Per-class outcome summaries, priority order; empty without a
    /// class mix.
    pub classes: Vec<ClassReport>,
}

/// One QoS class's aggregated outcome (only classes the mix scheduled).
pub struct ClassReport {
    /// Stable class label (`interactive` / `batch` / `bulk`).
    pub label: &'static str,
    /// Requests sent with this class.
    pub sent: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// `overloaded` outcomes: shed replies on the bare path, shed
    /// backoffs absorbed by the retry client in `--retry` mode.
    pub shed: u64,
    /// Non-shed error replies.
    pub errors: u64,
    /// Requests that never got a reply.
    pub dropped: u64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
}

#[derive(Default)]
struct ClassStat {
    sent: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    dropped: u64,
    hist: LatencyHistogram,
}

#[derive(Default)]
struct WorkerStats {
    hist: LatencyHistogram,
    ok: u64,
    dropped: u64,
    errors_by_kind: BTreeMap<String, u64>,
    /// Per-class breakdown, indexed by `Priority::index()`; untouched
    /// (all zero) without a class mix.
    class: [ClassStat; 3],
    /// Retry-client counters; all zero on the bare (non-retry) path.
    client: ClientStats,
}

fn classify_reply(line: &str, stats: &mut WorkerStats, class: Option<Priority>) {
    match rvhpc_obs::json::parse(line) {
        Ok(doc) if doc.get("ok") == Some(&JsonValue::Bool(true)) => {
            stats.ok += 1;
            if let Some(c) = class {
                stats.class[c.index()].ok += 1;
            }
        }
        Ok(doc) => {
            let kind = doc
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string();
            if let Some(c) = class {
                if kind == "overloaded" {
                    stats.class[c.index()].shed += 1;
                } else {
                    stats.class[c.index()].errors += 1;
                }
            }
            *stats.errors_by_kind.entry(kind).or_default() += 1;
        }
        Err(_) => {
            if let Some(c) = class {
                stats.class[c.index()].errors += 1;
            }
            *stats
                .errors_by_kind
                .entry("unparseable".to_string())
                .or_default() += 1;
        }
    }
}

/// Attribute a dead worker's unsent quota (requests `k`, `k+conns`, …)
/// to the classes those requests would have carried.
fn drop_remaining(stats: &mut WorkerStats, cfg: &LoadgenConfig, mut k: usize) {
    while k < cfg.requests {
        if let Some(mix) = &cfg.class_mix {
            stats.class[mix.class_of(k).index()].dropped += 1;
        }
        k += cfg.conns;
    }
}

fn worker(
    cfg: &LoadgenConfig,
    worker_id: usize,
    start: Instant,
    inflight: &AtomicUsize,
) -> std::io::Result<WorkerStats> {
    let mut stats = WorkerStats::default();
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let mut k = worker_id;
    while k < cfg.requests {
        if cfg.rate > 0.0 {
            let due = start + Duration::from_secs_f64(k as f64 / cfg.rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let class = cfg.class_mix.as_ref().map(|m| m.class_of(k));
        let line = request_line(k, cfg.mix, cfg.deadline_ms, class);
        let sent = Instant::now();
        inflight.fetch_add(1, Ordering::Relaxed);
        if writeln!(writer, "{line}").is_err() {
            inflight.fetch_sub(1, Ordering::Relaxed);
            stats.dropped += (cfg.requests - k).div_ceil(cfg.conns) as u64;
            drop_remaining(&mut stats, cfg, k);
            break;
        }
        reply.clear();
        let read = reader.read_line(&mut reply);
        inflight.fetch_sub(1, Ordering::Relaxed);
        match read {
            Ok(n) if n > 0 => {
                let us = sent.elapsed().as_micros() as u64;
                stats.hist.record(us);
                if let Some(c) = class {
                    stats.class[c.index()].sent += 1;
                    stats.class[c.index()].hist.record(us);
                }
                classify_reply(reply.trim_end(), &mut stats, class);
            }
            _ => {
                // Connection died; everything this worker still owed is
                // dropped.
                stats.dropped += (cfg.requests - k).div_ceil(cfg.conns) as u64;
                drop_remaining(&mut stats, cfg, k);
                break;
            }
        }
        k += cfg.conns;
    }
    Ok(stats)
}

/// The `--retry` worker: same strided schedule as [`worker`], but every
/// request goes through a [`RetryClient`], so a single injected fault
/// costs a retry instead of the rest of the worker's quota. A request is
/// dropped only when every attempt failed; definitive server rejections
/// still count under `errors_by_kind`.
fn worker_retrying(
    cfg: &LoadgenConfig,
    worker_id: usize,
    start: Instant,
    inflight: &AtomicUsize,
) -> std::io::Result<WorkerStats> {
    let mut stats = WorkerStats::default();
    let mut client = RetryClient::new(ClientConfig {
        addr: cfg.addr.clone(),
        jitter_seed: rvhpc_faults::rng::mix(cfg.retry_seed ^ worker_id as u64),
        ..ClientConfig::default()
    });
    let mut k = worker_id;
    while k < cfg.requests {
        if cfg.rate > 0.0 {
            let due = start + Duration::from_secs_f64(k as f64 / cfg.rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let class = cfg.class_mix.as_ref().map(|m| m.class_of(k));
        let line = request_line(k, cfg.mix, cfg.deadline_ms, class);
        let sent = Instant::now();
        // In retry mode `overloaded` replies are absorbed as backoffs
        // inside the client; the per-call delta of that counter is this
        // request's shed count.
        let shed_before = client.stats().overloaded_backoffs;
        inflight.fetch_add(1, Ordering::Relaxed);
        let outcome = client.call(&line);
        inflight.fetch_sub(1, Ordering::Relaxed);
        if let Some(c) = class {
            let cs = &mut stats.class[c.index()];
            cs.sent += 1;
            cs.shed += client.stats().overloaded_backoffs - shed_before;
        }
        match outcome {
            Ok(_) => {
                let us = sent.elapsed().as_micros() as u64;
                stats.hist.record(us);
                stats.ok += 1;
                if let Some(c) = class {
                    stats.class[c.index()].ok += 1;
                    stats.class[c.index()].hist.record(us);
                }
            }
            Err(ClientError::Rejected(doc)) => {
                let us = sent.elapsed().as_micros() as u64;
                stats.hist.record(us);
                let kind = doc
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                if let Some(c) = class {
                    stats.class[c.index()].errors += 1;
                    stats.class[c.index()].hist.record(us);
                }
                *stats.errors_by_kind.entry(kind).or_default() += 1;
            }
            Err(ClientError::Exhausted { .. }) => {
                stats.dropped += 1;
                if let Some(c) = class {
                    stats.class[c.index()].dropped += 1;
                }
            }
        }
        k += cfg.conns;
    }
    stats.client = client.stats();
    Ok(stats)
}

/// One `{"op":"metrics"}` round trip: the server's prediction-cache
/// `(hits, misses)` counters. Predict replies are deliberately
/// cache-agnostic (byte-identical warm or cold), so hit rate comes from
/// the server's own counters. `None` when the server is unreachable or
/// the document shape is unexpected.
fn fetch_server_cache(addr: &str) -> Option<(u64, u64)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{{\"op\":\"metrics\"}}").ok()?;
    let mut reply = String::new();
    reader.read_line(&mut reply).ok()?;
    let doc = rvhpc_obs::json::parse(reply.trim_end()).ok()?;
    let cache = doc.get("result")?.get("server")?.get("cache")?;
    let hits = cache.get("hits")?.as_f64()? as u64;
    let misses = cache.get("misses")?.as_f64()? as u64;
    Some((hits, misses))
}

/// Run the configured workload and aggregate a [`LoadReport`].
pub fn run(cfg: &LoadgenConfig) -> std::io::Result<LoadReport> {
    // Connections beyond the request count still connect and idle —
    // that is the point of a saturation sweep: held connections load
    // the server even when only the first `requests` workers send.
    let cfg = LoadgenConfig {
        conns: cfg.conns.max(1),
        ..cfg.clone()
    };
    let start = Instant::now();
    let done = std::sync::atomic::AtomicBool::new(false);
    let inflight = AtomicUsize::new(0);
    #[allow(clippy::type_complexity)]
    let (stats, (cache_hit_rate_samples, inflight_samples)): (
        Vec<std::io::Result<WorkerStats>>,
        (Vec<f64>, Vec<u64>),
    ) = std::thread::scope(|scope| {
        // Optional sampler: polls the server's cache counters on its
        // own connection and turns counter deltas into per-interval
        // hit rates while the workers replay the mix.
        let sampler = (cfg.sample_ms > 0).then(|| {
            let cfg = &cfg;
            let done = &done;
            let inflight = &inflight;
            scope.spawn(move || {
                let mut samples = Vec::new();
                let mut inflight_samples = Vec::new();
                let mut last = fetch_server_cache(&cfg.addr);
                let interval = Duration::from_millis(cfg.sample_ms);
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    // Sleep in short slices so the sampler exits
                    // promptly when the run ends mid-interval.
                    let mut left = interval;
                    while !left.is_zero() && !done.load(std::sync::atomic::Ordering::Relaxed) {
                        let step = left.min(Duration::from_millis(20));
                        std::thread::sleep(step);
                        left = left.saturating_sub(step);
                    }
                    // One in-flight observation per interval, taken at
                    // the same moment as the cache-counter poll.
                    inflight_samples.push(inflight.load(Ordering::Relaxed) as u64);
                    let cur = fetch_server_cache(&cfg.addr);
                    if let (Some((h0, m0)), Some((h1, m1))) = (last, cur) {
                        let dh = h1.saturating_sub(h0);
                        let dm = m1.saturating_sub(m0);
                        if dh + dm > 0 {
                            samples.push(dh as f64 / (dh + dm) as f64);
                        }
                    }
                    last = cur;
                }
                (samples, inflight_samples)
            })
        });
        let handles: Vec<_> = (0..cfg.conns)
            .map(|w| {
                let cfg = &cfg;
                let inflight = &inflight;
                scope.spawn(move || {
                    if cfg.retry {
                        worker_retrying(cfg, w, start, inflight)
                    } else {
                        worker(cfg, w, start, inflight)
                    }
                })
            })
            .collect();
        let stats = handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let samples = sampler
            .map(|h| h.join().expect("loadgen sampler panicked"))
            .unwrap_or_default();
        (stats, samples)
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut hist = LatencyHistogram::new();
    let mut ok = 0u64;
    let mut dropped = 0u64;
    let mut errors_by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut class_totals: [ClassStat; 3] = Default::default();
    let mut client_totals = ClientStats::default();
    for s in stats {
        let s = s?;
        hist.merge(&s.hist);
        ok += s.ok;
        dropped += s.dropped;
        for (kind, n) in s.errors_by_kind {
            *errors_by_kind.entry(kind).or_default() += n;
        }
        for (total, part) in class_totals.iter_mut().zip(&s.class) {
            total.sent += part.sent;
            total.ok += part.ok;
            total.shed += part.shed;
            total.errors += part.errors;
            total.dropped += part.dropped;
            total.hist.merge(&part.hist);
        }
        client_totals.requests += s.client.requests;
        client_totals.retries += s.client.retries;
        client_totals.reconnects += s.client.reconnects;
        client_totals.corrupt_replies += s.client.corrupt_replies;
        client_totals.overloaded_backoffs += s.client.overloaded_backoffs;
        client_totals.backoff_ms_total += s.client.backoff_ms_total;
    }
    let errors: u64 = errors_by_kind.values().sum();
    // Server-side counters over the server's lifetime; with a fresh
    // server per run (the CI smoke setup) this is the run's hit rate.
    let (cached, cache_hit_rate) = match fetch_server_cache(&cfg.addr) {
        Some((hits, misses)) if hits + misses > 0 => (hits, hits as f64 / (hits + misses) as f64),
        _ => (0, 0.0),
    };
    let answered = ok + errors;
    let throughput = if elapsed > 0.0 {
        answered as f64 / elapsed
    } else {
        0.0
    };

    let mut doc = metrics::document("rvhpc-loadgen");
    if let JsonValue::Object(map) = &mut doc {
        map.insert(
            "loadgen".to_string(),
            JsonValue::object([
                (
                    "target".to_string(),
                    JsonValue::object([
                        ("addr".to_string(), JsonValue::from(cfg.addr.as_str())),
                        ("requests".to_string(), JsonValue::from(cfg.requests)),
                        ("conns".to_string(), JsonValue::from(cfg.conns)),
                        ("rate_rps".to_string(), JsonValue::from(cfg.rate)),
                        (
                            "mix".to_string(),
                            JsonValue::from(match cfg.mix {
                                Mix::Preset => "preset",
                                Mix::Mixed => "mixed",
                            }),
                        ),
                    ]),
                ),
                // `class_mix` and the per-class `classes` section are
                // added below only when a mix was configured, so the
                // default report stays byte-compatible.
                ("ok".to_string(), JsonValue::from(ok)),
                ("errors".to_string(), JsonValue::from(errors)),
                (
                    "errors_by_kind".to_string(),
                    JsonValue::object(
                        errors_by_kind
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::from(*v))),
                    ),
                ),
                ("dropped".to_string(), JsonValue::from(dropped)),
                ("cache_hits".to_string(), JsonValue::from(cached)),
                (
                    "cache_hit_rate".to_string(),
                    JsonValue::from(cache_hit_rate),
                ),
                ("sample_ms".to_string(), JsonValue::from(cfg.sample_ms)),
                (
                    "cache_hit_rate_samples".to_string(),
                    JsonValue::Array(
                        cache_hit_rate_samples
                            .iter()
                            .map(|v| JsonValue::from(*v))
                            .collect(),
                    ),
                ),
                (
                    "inflight_samples".to_string(),
                    JsonValue::Array(
                        inflight_samples
                            .iter()
                            .map(|v| JsonValue::from(*v))
                            .collect(),
                    ),
                ),
                ("elapsed_s".to_string(), JsonValue::from(elapsed)),
                ("throughput_rps".to_string(), JsonValue::from(throughput)),
                ("latency".to_string(), hist.to_json()),
            ]),
        );
        if let Some(mix_cfg) = &cfg.class_mix {
            if let Some(JsonValue::Object(loadgen)) = map.get_mut("loadgen") {
                if let Some(JsonValue::Object(target)) = loadgen.get_mut("target") {
                    target.insert("class_mix".to_string(), JsonValue::from(mix_cfg.spec()));
                }
                let classes = Priority::ALL.iter().filter_map(|p| {
                    let c = &class_totals[p.index()];
                    if c.sent + c.dropped == 0 {
                        return None;
                    }
                    Some((
                        p.label().to_string(),
                        JsonValue::object([
                            ("sent".to_string(), JsonValue::from(c.sent)),
                            ("ok".to_string(), JsonValue::from(c.ok)),
                            ("shed".to_string(), JsonValue::from(c.shed)),
                            ("errors".to_string(), JsonValue::from(c.errors)),
                            ("dropped".to_string(), JsonValue::from(c.dropped)),
                            ("latency".to_string(), c.hist.to_json()),
                        ]),
                    ))
                });
                loadgen.insert("classes".to_string(), JsonValue::object(classes));
            }
        }
        // The retry section appears only in retry mode so the default
        // report stays byte-compatible with pre-retry consumers.
        if cfg.retry {
            if let Some(JsonValue::Object(loadgen)) = map.get_mut("loadgen") {
                loadgen.insert(
                    "retry".to_string(),
                    JsonValue::object([
                        ("seed".to_string(), JsonValue::from(cfg.retry_seed)),
                        (
                            "retries".to_string(),
                            JsonValue::from(client_totals.retries),
                        ),
                        (
                            "reconnects".to_string(),
                            JsonValue::from(client_totals.reconnects),
                        ),
                        (
                            "corrupt_replies".to_string(),
                            JsonValue::from(client_totals.corrupt_replies),
                        ),
                        (
                            "overloaded_backoffs".to_string(),
                            JsonValue::from(client_totals.overloaded_backoffs),
                        ),
                        (
                            "backoff_ms_total".to_string(),
                            JsonValue::from(client_totals.backoff_ms_total),
                        ),
                    ]),
                );
            }
        }
    }
    let classes = if cfg.class_mix.is_some() {
        Priority::ALL
            .iter()
            .filter_map(|p| {
                let c = &class_totals[p.index()];
                if c.sent + c.dropped == 0 {
                    return None;
                }
                Some(ClassReport {
                    label: p.label(),
                    sent: c.sent,
                    ok: c.ok,
                    shed: c.shed,
                    errors: c.errors,
                    dropped: c.dropped,
                    p50_us: c.hist.quantile(0.5),
                    p99_us: c.hist.quantile(0.99),
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(LoadReport {
        ok,
        errors,
        dropped,
        retries: client_totals.retries,
        reconnects: client_totals.reconnects,
        cache_hit_rate,
        cache_hit_rate_samples,
        inflight_samples,
        p50_us: hist.quantile(0.5),
        p99_us: hist.quantile(0.99),
        classes,
        doc,
    })
}

/// A parsed `--sweep LO:HI:STEP` concurrency schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    /// First connection count.
    pub lo: usize,
    /// Last connection count (inclusive when the stride lands on it).
    pub hi: usize,
    /// Stride between steps.
    pub step: usize,
}

impl SweepSpec {
    /// Parse `LO:HI:STEP` (e.g. `2:32:2`): positive integers, `lo <= hi`.
    pub fn parse(spec: &str) -> Result<SweepSpec, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("sweep spec '{spec}' is not LO:HI:STEP"));
        }
        let mut nums = [0usize; 3];
        for (slot, part) in nums.iter_mut().zip(&parts) {
            *slot = part
                .trim()
                .parse()
                .map_err(|_| format!("sweep bound '{}' is not a number", part.trim()))?;
        }
        let [lo, hi, step] = nums;
        if lo == 0 || step == 0 {
            return Err("sweep bounds and stride must be >= 1".to_string());
        }
        if lo > hi {
            return Err(format!("sweep lo {lo} exceeds hi {hi}"));
        }
        Ok(SweepSpec { lo, hi, step })
    }

    /// The connection counts the sweep visits, in ascending order.
    pub(crate) fn points(&self) -> Vec<usize> {
        (self.lo..=self.hi).step_by(self.step).collect()
    }
}

/// Run the workload once per concurrency step and fold the results into
/// an `rvhpc-saturation/1` document: each step replays `cfg.requests`
/// requests at `cfg.conns = step` connections, and the knee of the
/// resulting (conns, p99) curve marks where the server saturates. The
/// per-step reports are discarded — only the curve is returned.
pub fn sweep(cfg: &LoadgenConfig, spec: SweepSpec) -> std::io::Result<JsonValue> {
    let mut steps = Vec::new();
    for conns in spec.points() {
        let step_cfg = LoadgenConfig {
            conns,
            ..cfg.clone()
        };
        let report = run(&step_cfg)?;
        let inflight_mean = (!report.inflight_samples.is_empty()).then(|| {
            report.inflight_samples.iter().sum::<u64>() as f64
                / report.inflight_samples.len() as f64
        });
        steps.push(rvhpc_obs::SweepStep {
            conns: conns as u64,
            ok: report.ok,
            errors: report.errors,
            dropped: report.dropped,
            throughput_rps: report
                .doc
                .get("loadgen")
                .and_then(|l| l.get("throughput_rps"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            p50_us: report.p50_us as f64,
            p99_us: report.p99_us as f64,
            cache_hit_rate: report.cache_hit_rate,
            inflight_mean,
        });
    }
    let params = rvhpc_obs::saturation::SweepParams {
        lo: spec.lo as u64,
        hi: spec.hi as u64,
        step: spec.step as u64,
        requests_per_step: cfg.requests as u64,
        rate_rps: cfg.rate as u64,
        mix: match cfg.mix {
            Mix::Preset => "preset",
            Mix::Mixed => "mixed",
        },
    };
    Ok(rvhpc_obs::saturation::document(
        "rvhpc-loadgen",
        &params,
        &steps,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_are_deterministic_and_parseable() {
        for k in 0..200 {
            for mix in [Mix::Preset, Mix::Mixed] {
                let a = request_line(k, mix, Some(500), None);
                let b = request_line(k, mix, Some(500), None);
                assert_eq!(a, b, "generation must be deterministic");
                assert!(!a.contains('\n'));
                match crate::proto::parse_request(&a).expect("mix lines are well-formed") {
                    crate::proto::Request::Predict(p) => {
                        assert_eq!(p.id, Some(k as u64));
                        assert_eq!(p.deadline_ms, Some(500));
                        assert_eq!(p.priority, None);
                    }
                    other => panic!("expected predict, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mixed_workload_contains_custom_machines() {
        let customs = (0..100)
            .filter(|&k| request_line(k, Mix::Mixed, None, None).contains("\"base\""))
            .count();
        assert!(customs > 5, "mixed workload must exercise custom machines");
        assert_eq!(
            (0..100)
                .filter(|&k| request_line(k, Mix::Preset, None, None).contains("\"base\""))
                .count(),
            0
        );
    }

    #[test]
    fn class_mix_schedules_weights_deterministically() {
        let mix = ClassMix::parse("interactive:8,batch:2").expect("parses");
        let interactive = (0..100)
            .filter(|&k| mix.class_of(k) == Priority::Interactive)
            .count();
        assert_eq!(interactive, 80, "8:2 weights hold over a full cycle");
        assert_eq!(mix.class_of(0), mix.class_of(10), "pattern repeats");

        // Classed lines carry the priority field and still parse; the
        // class-less line is a strict prefix-wise subset (byte-identical
        // except for the absent field).
        let classed = request_line(3, Mix::Mixed, None, Some(mix.class_of(3)));
        match crate::proto::parse_request(&classed).expect("classed line parses") {
            crate::proto::Request::Predict(p) => {
                assert_eq!(p.priority, Some(mix.class_of(3)));
            }
            other => panic!("expected predict, got {other:?}"),
        }
        let classless = request_line(3, Mix::Mixed, None, None);
        assert!(!classless.contains("priority"));
    }

    #[test]
    fn sweep_specs_parse_and_enumerate() {
        let spec = SweepSpec::parse("2:8:2").expect("parses");
        assert_eq!(spec.points(), vec![2, 4, 6, 8]);
        let odd = SweepSpec::parse("1:10:4").expect("parses");
        assert_eq!(odd.points(), vec![1, 5, 9], "stride may overshoot hi");
        assert!(SweepSpec::parse("0:8:2").is_err());
        assert!(SweepSpec::parse("2:8").is_err());
        assert!(SweepSpec::parse("8:2:1").is_err());
        assert!(SweepSpec::parse("2:8:0").is_err());
        assert!(SweepSpec::parse("a:8:2").is_err());
    }

    #[test]
    fn class_mix_rejects_bad_specs() {
        assert!(ClassMix::parse("").is_err());
        assert!(ClassMix::parse("urgent:3").is_err());
        assert!(ClassMix::parse("bulk:0").is_err());
        assert!(ClassMix::parse("bulk:many").is_err());
        let bare = ClassMix::parse("bulk").expect("weight defaults to 1");
        assert_eq!(bare.class_of(7), Priority::Bulk);
    }
}
