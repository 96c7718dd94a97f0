//! The TCP server: a nonblocking readiness-polling reactor handling
//! accept, per-connection protocol framing, admission control,
//! deadlines, counters, and graceful drain.
//!
//! Each reactor thread (one per acceptor shard) owns an OS polling
//! instance from [`crate::poll`] plus every connection it accepted:
//! requests are parsed out of a per-connection input buffer fed by
//! incremental nonblocking reads, and replies leave through a
//! per-connection output buffer flushed under write interest. There is
//! no hard connection cap — a connection costs a buffer pair and a map
//! entry, not a thread. Blocking work never runs on a reactor: a predict
//! the engine's memory tier already holds is answered where its line
//! was read, and every other one goes to the shared [`Batcher`] with a
//! [`ReplySink`] completion port; a cluster forward is written to a
//! nonblocking [`Upstream`] the reactor polls beside its clients, and
//! only what must block (connects, retries, failover, every forward
//! under a fault plan) goes to the [`cluster::Forwarder`] pool. Batch
//! and pool completions come back through a [`ReactorHub`] whose
//! [`poll::Waker`] pops the reactor out of its wait. The bounded shard
//! queues remain the admission-control boundary (a full queue produces
//! an immediate `overloaded` reply instead of unbounded buffering).
//! Every predict carries a deadline — the client's `deadline_ms` or
//! the server default — after which the connection answers `deadline`
//! and moves on; the computed result still lands in the cache.
//!
//! In router mode (`--route node1,node2,...`) predicts are not served
//! locally at all: the request's cache-key fingerprint picks an owner
//! on the [`cluster::Ring`] and the raw request line is forwarded to
//! that node — by the reactor itself while the node answers, by the
//! pool once it does not — with failover to the next ring owner and
//! hot-key replication across the owner set.
//!
//! Every request gets a [`TraceCtx`] whose id comes from a process-wide
//! counter, so ids are unique and monotone per connection. The context
//! records parse and reply-write spans on the reactor; the shard worker
//! tags queue-wait, dedup, cache-probe, engine-exec and pool-region
//! spans with the same id — one Chrome trace follows a request across
//! all layers. When `slow_us` is configured, any predict at or above
//! the threshold carries its span dump in the reply's `trace` field and
//! lands in the admin `slow` log.
//!
//! Live telemetry: a [`Timeseries`] ring collects gauge snapshots —
//! either from a background sampler thread (`sample_interval_ms > 0`)
//! or on demand at each `metrics` request (interval 0, deterministic) —
//! and the admin `watch` op streams fresh snapshots as NDJSON, timed by
//! the reactor clock instead of a parked thread.
//!
//! Shutdown is cooperative: an admin `quit` request, [`request_drain`],
//! or SIGTERM/SIGINT (via [`install_signal_drain`]) sets one flag. The
//! reactors stop accepting, each connection finishes its in-flight
//! request, the batcher serves everything already admitted, and
//! [`Server::run`] returns the final metrics document.
//!
//! The polling layer is unix-only ([`crate::poll`] has the details);
//! off unix, [`Server::run`] fails at startup with `Unsupported`.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rvhpc_core::engine::Engine;
use rvhpc_faults::{note_recovery, FaultPlan, FaultSite, Injector, TornWriter};
use rvhpc_obs::{
    self as obs, metrics, EventKind, JsonValue, LatencyHistogram, Sample, Timeseries, TraceCtx,
};

use crate::batch::{
    AdmissionError, Batcher, Completion, CompletionPort, Job, JobResult, ReplySink,
};
use crate::client::{classify_reply, Transient};
use crate::cluster::{self, ConnectJob, Forward, ForwardJob, ForwardOutcome, PoolJob, Router};
use crate::poll::{self, Interest, PollEvent, Poller};
use crate::proto::{self, ErrorKind, PredictRequest, Priority, ProtoError, Request};

/// Hard cap on one request line; longer input is a protocol error.
const MAX_LINE_BYTES: usize = 64 * 1024;
/// Reactor tick cap — how quickly idle reactors notice a drain; also
/// the sampler thread's sleep slice.
const READ_POLL: Duration = Duration::from_millis(50);
/// Most retained slow-request dumps (admin `slow` op).
const SLOW_LOG_CAP: usize = 64;
/// One nonblocking read's scratch size.
const READ_CHUNK: usize = 16 * 1024;
/// Most bytes one readiness event may pull into a connection's input
/// buffer before yielding back to the event loop (level-triggered
/// polling re-fires for the rest), so one firehose client cannot
/// starve its reactor's other connections.
const FILL_CAP: usize = 256 * 1024;

/// Reactor-internal token for the acceptor socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reactor-internal token for the wake channel.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Tokens from here up (below the two above) are upstream connections,
/// `TOKEN_UPSTREAM | node << 32 | serial`; connection ids count up from
/// zero and never get here.
const TOKEN_UPSTREAM: u64 = 1 << 62;
/// Hard cap on one upstream reply line (a reply may carry a span dump,
/// so it is far above the request cap); a node that exceeds it is cut
/// off like one that sent garbage.
const MAX_REPLY_BYTES: usize = 4 * 1024 * 1024;

/// Returns from [`Poller::wait`], every reactor in the process: lets a
/// test bound how often a parked connection wakes its reactor.
#[cfg(test)]
static LOOP_PASSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide drain flag set by signal handlers and `quit` requests.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// Process-wide trace id sequence. Ids start at 1 (0 marks "no trace")
/// and are handed out in request order, so within one connection they
/// are strictly increasing and across every server in the process they
/// never collide.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

fn next_trace_id() -> u64 {
    TRACE_SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

/// Request a graceful drain of every server in this process.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Whether a drain has been requested.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Reset the drain flag (tests start servers sequentially in one
/// process).
pub fn reset_drain() {
    DRAIN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn drain_on_signal(_sig: i32) {
    // Async-signal-safe: a single atomic store.
    DRAIN.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT to a graceful drain. Uses the libc `signal`
/// entry point std already links against; no crate dependency.
#[cfg(unix)]
pub fn install_signal_drain() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, drain_on_signal);
        signal(SIGTERM, drain_on_signal);
    }
}

/// No-op off unix; `quit` and [`request_drain`] still work.
#[cfg(not(unix))]
pub fn install_signal_drain() {}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> poll::RawFd {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> poll::RawFd {
    0
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Batching shards (worker threads).
    pub shards: usize,
    /// Bounded queue depth per shard — the admission limit.
    pub queue_cap: usize,
    /// Engine pool threads per shard.
    pub pool_threads: usize,
    /// Deadline applied when a request names none.
    pub default_deadline_ms: u64,
    /// Reactor threads (acceptor shards); each owns a polling instance
    /// and the connections it accepted.
    pub reactors: usize,
    /// Slow-request threshold in microseconds: a predict whose service
    /// time reaches it replies with a span dump in `trace` and lands in
    /// the admin `slow` log. 0 dumps every predict; `None` disables.
    pub slow_us: Option<u64>,
    /// Timeseries sampling interval. 0 samples on demand at each
    /// `metrics` request (deterministic); >0 runs a background sampler.
    pub sample_interval_ms: u64,
    /// Chaos fault plan (`--faults` / `RVHPC_FAULTS`). `None` — the
    /// default — leaves the serving path untouched: no injector exists
    /// and no fault code runs.
    pub faults: Option<FaultPlan>,
    /// How long a connection may sit on a *partial* request line before
    /// it is shed as stalled (also the write-stall bound).
    pub stall_timeout_ms: u64,
    /// Back-off hint carried in load-shed (`overloaded`) replies.
    pub retry_after_ms: u64,
    /// Directory of the persistent prediction store (`--store` /
    /// `RVHPC_STORE`). `None` — the default — serves purely from
    /// memory, exactly as before the store existed.
    pub store_dir: Option<std::path::PathBuf>,
    /// Capacity bound on the engine's hot prediction cache; overflow
    /// evicts FIFO into the disk store (when attached). 0 = unbounded.
    pub hot_cache_cap: usize,
    /// SLO rules (`--slo FILE`) backing the admin `health` op. `None`
    /// — the default — makes `health` an invalid-op error.
    pub slo_rules: Option<obs::RuleSet>,
    /// Cluster router mode (`--route node1,node2,...`): predicts are
    /// forwarded to ring owners instead of served locally. `None` — the
    /// default — serves every predict from this process.
    pub route: Option<cluster::RouterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shards = cores.clamp(1, 4);
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards,
            queue_cap: 128,
            pool_threads: (cores / shards).max(1),
            default_deadline_ms: 10_000,
            reactors: cores.clamp(1, 4),
            slow_us: None,
            sample_interval_ms: 0,
            faults: None,
            stall_timeout_ms: 30_000,
            retry_after_ms: 100,
            store_dir: None,
            hot_cache_cap: 0,
            slo_rules: None,
            route: None,
        }
    }
}

/// Monotonic server counters, exported as the `server` metrics section.
#[derive(Default)]
struct Counters {
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    conns_closed: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    protocol_errors: AtomicU64,
    invalid: AtomicU64,
    rejected_admission: AtomicU64,
    deadline_expired: AtomicU64,
    internal_errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Sum of per-connection cache hit rates (per-connection hit rate is
    /// the serve-level warmth a single client observed).
    conn_hit_rate_sum: Mutex<f64>,
    /// Service time (admission → result) of completed predicts.
    service: Mutex<LatencyHistogram>,
    /// Load-shed replies (injected saturation + genuine queue-full).
    /// Exported in the gated `faults` metrics section, not `server`,
    /// so the healthy-path document shape is unchanged.
    shed_total: AtomicU64,
    /// Connections shed for stalling mid-line past the stall timeout.
    stalled_conns_shed: AtomicU64,
    /// Per-class QoS accounting, indexed by [`Priority::index`]. Only
    /// requests carrying an explicit `priority` field are recorded, so
    /// class-less traffic leaves these (and the gated `qos` section)
    /// untouched.
    class_requests: [AtomicU64; 3],
    class_ok: [AtomicU64; 3],
    class_shed: [AtomicU64; 3],
    class_latency: [Mutex<LatencyHistogram>; 3],
}

fn rate(hits: u64, misses: u64) -> f64 {
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

/// One gauge snapshot of the server's live state, as flat named values.
///
/// Names split into two families the determinism test relies on:
/// counter-derived gauges (request/cache/queue counts — identical for
/// identical request sequences regardless of `--jobs`), and `*_us`
/// latency gauges (wall-clock dependent, excluded from determinism
/// comparisons along with the sample timestamp).
fn sample_gauges(
    counters: &Counters,
    active: usize,
    batcher: &Batcher,
    router: Option<&Router>,
) -> Vec<(String, f64)> {
    let hits = counters.cache_hits.load(Ordering::Relaxed);
    let misses = counters.cache_misses.load(Ordering::Relaxed);
    let depths = batcher.queue_depths();
    let mut gauges: Vec<(String, f64)> = vec![
        (
            "conns_accepted".to_string(),
            counters.conns_accepted.load(Ordering::Relaxed) as f64,
        ),
        ("conns_active".to_string(), active as f64),
        (
            "requests_received".to_string(),
            counters.requests.load(Ordering::Relaxed) as f64,
        ),
        (
            "requests_ok".to_string(),
            counters.ok.load(Ordering::Relaxed) as f64,
        ),
        (
            "rejected_admission".to_string(),
            counters.rejected_admission.load(Ordering::Relaxed) as f64,
        ),
        (
            "deadline_expired".to_string(),
            counters.deadline_expired.load(Ordering::Relaxed) as f64,
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
    let engine = batcher.engine();
    gauges.push(("cache_entries".to_string(), engine.hot_entries() as f64));
    if let Some(store) = engine.store() {
        gauges.push(("store_entries".to_string(), store.len() as f64));
        gauges.push(("store_bytes".to_string(), store.bytes() as f64));
    }
    // Cluster gauges ride along only in router mode: forwarded request
    // volume plus per-node ring occupancy (distinct keys this router
    // has assigned to each node). Counter-derived, so the occupancy sum
    // equals the total distinct keys routed.
    if let Some(router) = router {
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

/// A bound, running prediction server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    batcher: Arc<Batcher>,
    counters: Arc<Counters>,
    active_conns: Arc<AtomicUsize>,
    timeseries: Arc<Timeseries>,
    slow_log: Arc<Mutex<VecDeque<JsonValue>>>,
    slo_rules: Option<Arc<obs::RuleSet>>,
    router: Option<Arc<Router>>,
    forwarder: Option<Arc<cluster::Forwarder>>,
}

impl Server {
    /// Bind the listener and start the shard workers (on the process
    /// global [`Engine`]).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        Self::bind_on(config, Engine::global())
    }

    /// As [`Server::bind`], resolving through a caller-chosen engine
    /// (tests use a fresh engine for isolated counters).
    pub fn bind_on(config: ServerConfig, engine: &'static Engine) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // std binds with a 128-deep accept backlog — a flood of
        // simultaneous connects (the 10k-conn saturation sweep) would
        // overflow it and drop SYNs before the reactor ever saw them.
        // listen(2) on an already-listening socket just updates the
        // backlog.
        #[cfg(unix)]
        unsafe {
            extern "C" {
                fn listen(fd: std::os::raw::c_int, backlog: std::os::raw::c_int) -> i32;
            }
            let _ = listen(fd_of(&listener), 4096);
        }
        // An inactive plan (empty or seed-only) builds no injector at
        // all: the fault branches in the serving path never run.
        let injector = config
            .faults
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| Arc::new(Injector::new(p.clone())));
        // Two-tier store wiring: bound the hot tier first (so eviction
        // is live before any traffic), then attach the disk tier —
        // restoring its index warms `is_cached` immediately. With an
        // injector present the store's appends run through the
        // chaos shred hook (torn mid-record writes).
        engine.set_hot_capacity(config.hot_cache_cap);
        if let Some(dir) = &config.store_dir {
            let store = engine.attach_store(dir)?;
            if let Some(inj) = &injector {
                let inj = Arc::clone(inj);
                store.set_shred_hook(Box::new(move || inj.roll(FaultSite::StoreTorn)));
            }
        }
        let batcher = Arc::new(Batcher::with_injector(
            engine,
            config.shards,
            config.queue_cap,
            config.pool_threads,
            injector,
        ));
        let timeseries = Arc::new(Timeseries::new(
            obs::timeseries::DEFAULT_CAPACITY,
            config.sample_interval_ms * 1_000,
        ));
        let slo_rules = config.slo_rules.clone().map(Arc::new);
        // Router mode: the ring and forwarder pool exist only when
        // `--route` named a node set. The router shares the injector so
        // the partition site can force failover re-routes under chaos.
        let (router, forwarder) = match &config.route {
            Some(rc) => {
                let router = Arc::new(Router::new(rc.clone(), batcher.injector().cloned()));
                let forwarder = Arc::new(cluster::Forwarder::spawn(Arc::clone(&router)));
                (Some(router), Some(forwarder))
            }
            None => (None, None),
        };
        Ok(Server {
            listener,
            local_addr,
            config,
            batcher,
            counters: Arc::new(Counters::default()),
            active_conns: Arc::new(AtomicUsize::new(0)),
            timeseries,
            slow_log: Arc::new(Mutex::new(VecDeque::new())),
            slo_rules,
            router,
            forwarder,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot the full metrics document: `server` counters plus the
    /// engine's cache/executor section and the `timeseries` ring.
    pub fn metrics_document(&self) -> JsonValue {
        build_metrics_doc(
            &self.counters,
            self.active_conns.load(Ordering::Relaxed),
            &self.batcher,
            &self.timeseries,
            self.router.as_deref(),
        )
    }

    /// Serve until a drain is requested (`quit`, signal, or
    /// [`request_drain`]); then stop accepting, let connections finish,
    /// drain the batcher, and return the final metrics document.
    pub fn run(self) -> std::io::Result<JsonValue> {
        let shared = Arc::new(Shared {
            injector: self.batcher.injector().cloned(),
            batcher: Arc::clone(&self.batcher),
            counters: Arc::clone(&self.counters),
            active: Arc::clone(&self.active_conns),
            timeseries: Arc::clone(&self.timeseries),
            slow_log: Arc::clone(&self.slow_log),
            slow_us: self.config.slow_us,
            slo_rules: self.slo_rules.clone(),
            default_deadline: Duration::from_millis(self.config.default_deadline_ms),
            stall_timeout: Duration::from_millis(self.config.stall_timeout_ms.max(1)),
            retry_after_ms: self.config.retry_after_ms,
            router: self.router.clone(),
            forwarder: self.forwarder.clone(),
        });
        let sampler = if self.config.sample_interval_ms > 0 {
            let interval = Duration::from_millis(self.config.sample_interval_ms);
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("rvhpc-serve-sampler".to_string())
                    .spawn(move || {
                        while !drain_requested() {
                            shared.timeseries.sample_now(sample_gauges(
                                &shared.counters,
                                shared.active.load(Ordering::Relaxed),
                                &shared.batcher,
                                shared.router.as_deref(),
                            ));
                            // Sleep in short slices so a drain is noticed
                            // promptly even with long intervals.
                            let mut left = interval;
                            while !left.is_zero() && !drain_requested() {
                                let step = left.min(READ_POLL);
                                std::thread::sleep(step);
                                left = left.saturating_sub(step);
                            }
                        }
                    })
                    .expect("spawn sampler thread"),
            )
        } else {
            None
        };
        // Acceptor shards: every reactor polls its own dup of the
        // listening socket, so accepts spread across reactors without a
        // dedicated accept thread.
        let mut reactors = Vec::new();
        for i in 0..self.config.reactors.max(1) {
            let listener = self.listener.try_clone()?;
            let poller = Poller::new()?;
            let (waker, waker_rx) = poll::waker_pair()?;
            let shared = Arc::clone(&shared);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("rvhpc-serve-reactor-{i}"))
                    .spawn(move || Reactor::new(shared, poller, waker, waker_rx, listener).run())
                    .expect("spawn reactor thread"),
            );
        }
        for h in reactors {
            let _ = h.join();
        }
        drop(self.listener);
        if let Some(h) = sampler {
            let _ = h.join();
        }
        if let Some(f) = &self.forwarder {
            f.drain();
        }
        self.batcher.drain();
        // Snapshot the hot tier into the disk store (when attached) so
        // the next process starts warm even for entries computed before
        // the store was wired or never evicted. Append-once: entries
        // already on disk cost nothing. Failures are reflected in the
        // store's write_errors counter rather than failing the drain.
        let _ = self.batcher.engine().snapshot_store();
        Ok(build_metrics_doc(
            &self.counters,
            self.active_conns.load(Ordering::Relaxed),
            &self.batcher,
            &self.timeseries,
            self.router.as_deref(),
        ))
    }
}

fn build_metrics_doc(
    counters: &Counters,
    active: usize,
    batcher: &Batcher,
    timeseries: &Timeseries,
    router: Option<&Router>,
) -> JsonValue {
    // On-demand mode: each metrics snapshot takes exactly one sample, so
    // the section's sample count tracks the request sequence, not the
    // wall clock — deterministic across `--jobs` settings.
    if timeseries.interval_us() == 0 {
        timeseries.sample_now(sample_gauges(counters, active, batcher, router));
    }
    let mut doc = metrics::document("rvhpc-serve");
    if let JsonValue::Object(map) = &mut doc {
        map.insert("server".to_string(), counters.to_json(active));
        map.insert("engine".to_string(), batcher.engine().metrics().to_json());
        map.insert("timeseries".to_string(), timeseries.to_json());
        // Gated sections: absent on a store-less / class-less server,
        // keeping the healthy-path document byte-identical to before
        // these subsystems existed.
        if let Some(store) = batcher.engine().store_section() {
            map.insert("store".to_string(), store);
        }
        if let Some(qos) = qos_section(counters) {
            map.insert("qos".to_string(), qos);
        }
        if let Some(faults) = faults_section(counters, batcher) {
            map.insert("faults".to_string(), faults);
        }
        // The continuous profile rides along the same way: only a server
        // started with `--profile` ever grows this section.
        let profile = obs::prof::snapshot();
        if !profile.is_empty() {
            map.insert("profile".to_string(), profile.to_json());
        }
        // And the cluster section only exists in router mode.
        if let Some(router) = router {
            map.insert("cluster".to_string(), router.to_json());
        }
    }
    doc
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
                (
                    "ok".to_string(),
                    JsonValue::from(counters.class_ok[i].load(Ordering::Relaxed)),
                ),
                (
                    "shed".to_string(),
                    JsonValue::from(counters.class_shed[i].load(Ordering::Relaxed)),
                ),
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

/// Everything a reactor needs that is not per-connection state.
struct Shared {
    injector: Option<Arc<Injector>>,
    batcher: Arc<Batcher>,
    counters: Arc<Counters>,
    active: Arc<AtomicUsize>,
    timeseries: Arc<Timeseries>,
    slow_log: Arc<Mutex<VecDeque<JsonValue>>>,
    slow_us: Option<u64>,
    slo_rules: Option<Arc<obs::RuleSet>>,
    default_deadline: Duration,
    stall_timeout: Duration,
    retry_after_ms: u64,
    router: Option<Arc<Router>>,
    forwarder: Option<Arc<cluster::Forwarder>>,
}

/// One finished piece of off-reactor work.
enum Done {
    /// A batcher completion (local predict).
    Job(Completion),
    /// A cluster forward came back from the pool.
    Forward { token: u64, outcome: ForwardOutcome },
    /// The pool finished connecting an upstream.
    Connected {
        token: u64,
        stream: std::io::Result<TcpStream>,
    },
}

/// The reactor's completion mailbox: batch workers and forwarders push
/// results from their own threads, then wake the reactor. Implements
/// [`CompletionPort`] so a [`ReplySink::port`] can point straight at it.
struct ReactorHub {
    done: Mutex<Vec<Done>>,
    waker: poll::Waker,
}

impl ReactorHub {
    fn post(&self, done: Done) {
        self.done.lock().push(done);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock())
    }
}

impl CompletionPort for ReactorHub {
    fn complete(&self, completion: Completion) {
        self.post(Done::Job(completion));
    }
}

/// A predict waiting on its completion (local batch or cluster
/// forward).
struct PendingPredict {
    seq: u64,
    req: Box<PredictRequest>,
    trace: TraceCtx,
    deadline_at: Instant,
    deadline: Duration,
    enqueued_us: u64,
}

/// An in-progress admin `watch` stream, timed by the reactor clock.
struct WatchState {
    remaining: u64,
    interval: Duration,
    next_at: Instant,
}

/// What a connection is doing. While not `Ready` the reactor neither
/// reads from nor parses the connection — the same one-request-at-a-time
/// backpressure the blocking loop had.
enum ConnState {
    Ready,
    Predicting(PendingPredict),
    Watching(WatchState),
}

struct Conn {
    stream: TcpStream,
    conn_ord: u32,
    interest: Interest,
    /// Read interest stays armed across a park, so a request/reply
    /// client costs no `epoll_ctl`; only a readable event that arrives
    /// while parked (pipelined bytes, a half-close — level-triggered,
    /// they would fire every pass) sets this and drops it until the
    /// connection is `Ready` again.
    read_muted: bool,
    inbuf: Vec<u8>,
    /// Bytes before this offset are known newline-free — incremental
    /// scans never re-walk old partial data.
    scan_from: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    state: ConnState,
    close_after_flush: bool,
    hard_close: bool,
    peer_closed: bool,
    partial_since: Option<Instant>,
    write_blocked_since: Option<Instant>,
    hits: u64,
    misses: u64,
}

/// What the incremental frame scanner found.
enum Step {
    /// A complete request line (newline included upstream, stripped by
    /// the caller).
    Line(String),
    /// Partial line grew past [`MAX_LINE_BYTES`].
    Oversize,
    /// The line bytes are not UTF-8; close silently (the blocking
    /// reader's `InvalidData` behavior).
    BadUtf8,
    /// Peer closed and nothing is buffered.
    CloseEof,
    /// Nothing complete yet.
    Idle,
}

/// Pull what a readiness event promised into `into`, until a read
/// comes back short or [`FILL_CAP`] bytes are in; `Ok(true)` when the
/// peer has closed its side.
fn read_ready(stream: &mut TcpStream, into: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut buf = [0u8; READ_CHUNK];
    let mut pulled = 0usize;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                into.extend_from_slice(&buf[..n]);
                pulled += n;
                // A short read emptied the socket buffer; asking again
                // would only buy a `WouldBlock`. Polling is
                // level-triggered, so bytes (or the EOF) arriving after
                // this read fire another event.
                if n < READ_CHUNK || pulled >= FILL_CAP {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn next_step(conn: &mut Conn) -> Step {
    if let Some(pos) = conn.inbuf[conn.scan_from..]
        .iter()
        .position(|&b| b == b'\n')
    {
        let end = conn.scan_from + pos;
        let raw: Vec<u8> = conn.inbuf.drain(..=end).collect();
        conn.scan_from = 0;
        conn.partial_since = None;
        return match String::from_utf8(raw) {
            Ok(s) => Step::Line(s),
            Err(_) => Step::BadUtf8,
        };
    }
    conn.scan_from = conn.inbuf.len();
    if conn.inbuf.len() > MAX_LINE_BYTES {
        return Step::Oversize;
    }
    if conn.peer_closed {
        if conn.inbuf.is_empty() {
            return Step::CloseEof;
        }
        // A final unterminated line at EOF is still a request — the
        // blocking reader's `read_line` behavior.
        let raw = std::mem::take(&mut conn.inbuf);
        conn.scan_from = 0;
        conn.partial_since = None;
        return match String::from_utf8(raw) {
            Ok(s) => Step::Line(s),
            Err(_) => Step::BadUtf8,
        };
    }
    if conn.inbuf.is_empty() {
        conn.partial_since = None;
    } else if conn.partial_since.is_none() {
        // A partial frame starts the stall clock: a client that opens a
        // frame and stalls holds buffers hostage, so past the stall
        // timeout it is shed.
        conn.partial_since = Some(Instant::now());
    }
    Step::Idle
}

/// Account for one local predict's outcome and render its reply line:
/// the one place that counts `ok`, cache warmth and the QoS class,
/// records the service time and keeps the slow-request dump, for a
/// shard worker's completion and for a hot hit answered on the reactor
/// alike — so the metrics document and the reply bytes do not depend on
/// which of the two served the request. `result` is `None` when the
/// worker abandoned the batch.
fn settle_predict(
    sh: &Shared,
    conn: &mut Conn,
    req: &PredictRequest,
    trace: &mut TraceCtx,
    enqueued_us: u64,
    result: Option<JobResult>,
) -> String {
    let Some(res) = result else {
        // The batch was abandoned after repeated panics; the dropped
        // ReplySink delivered this tombstone.
        sh.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
        return proto::render_error(&ProtoError::new(
            req.id,
            ErrorKind::Internal,
            "worker dropped the job",
        ));
    };
    sh.counters.ok.fetch_add(1, Ordering::Relaxed);
    if let Some(pr) = req.priority {
        sh.counters.class_ok[pr.index()].fetch_add(1, Ordering::Relaxed);
        sh.counters.class_latency[pr.index()]
            .lock()
            .record(res.service_us);
    }
    if res.cached {
        sh.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        conn.hits += 1;
    } else {
        sh.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        conn.misses += 1;
    }
    sh.counters.service.lock().record(res.service_us);
    // The engine-side spans go into this request's retained dump only:
    // whoever executed the probe recorded them into its own ring.
    trace.retain_span(EventKind::QueueWait, "queue", enqueued_us, res.queue_us);
    trace.retain_span(
        EventKind::EngineExec,
        "execute",
        enqueued_us + res.queue_us,
        res.exec_us,
    );
    trace.retain_span(
        EventKind::CacheProbe,
        if res.cached {
            "cache-hit"
        } else {
            "cache-miss"
        },
        enqueued_us,
        0,
    );
    let result = proto::prediction_result(req, &res.pred);
    if sh.slow_us.is_some_and(|t| res.service_us >= t) {
        let dump = trace.dump();
        let mut log = sh.slow_log.lock();
        if log.len() == SLOW_LOG_CAP {
            log.pop_front();
        }
        log.push_back(dump.clone());
        proto::render_ok_traced(req.id, result, dump)
    } else {
        proto::render_ok(req.id, result)
    }
}

/// Account for one cluster forward's outcome and give its reply line:
/// the router-mode sibling of [`settle_predict`], shared by the reactor's
/// own relay and the pool's completion so the counters cannot tell the
/// two apart.
fn settle_forward(
    sh: &Shared,
    req: &PredictRequest,
    enqueued_us: u64,
    outcome: ForwardOutcome,
) -> String {
    match outcome {
        ForwardOutcome::Reply(raw) => {
            // The owner's reply is relayed byte-for-byte. Service
            // accounting covers the whole forward round trip; cache
            // warmth is the owner's story, not the router's.
            // `render_ok` leads with the echoed id when present, so
            // match the marker anywhere in the (single-line) frame.
            if raw.contains("\"ok\":true") {
                sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                let service_us = obs::now_us().saturating_sub(enqueued_us);
                sh.counters.service.lock().record(service_us);
                if let Some(pr) = req.priority {
                    sh.counters.class_ok[pr.index()].fetch_add(1, Ordering::Relaxed);
                    sh.counters.class_latency[pr.index()]
                        .lock()
                        .record(service_us);
                }
            }
            raw
        }
        ForwardOutcome::Failed(last) => {
            sh.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
            proto::render_error(&ProtoError::new(
                req.id,
                ErrorKind::Internal,
                format!("cluster forward failed: {last}"),
            ))
        }
    }
}

/// One nonblocking connection from this reactor to a cluster node.
///
/// INVARIANT (FIFO matching): a node serves one connection's lines in
/// the order it read them and answers each with exactly one line, so
/// the k-th reply line read from `stream` answers the k-th request line
/// written to it. `inflight` *is* that order: a [`Forward`] is pushed
/// exactly when its line is appended to `outbuf`, and the front is
/// popped exactly when one complete line is split off `inbuf` — never
/// for an expired deadline or a closed client, whose replies still
/// arrive, are popped, and find nobody waiting. Whatever would break
/// the pairing — EOF, a transport error, a corrupt, oversize or
/// unsolicited frame, a reply overdue by `read_timeout_ms` — retires
/// the whole connection ([`Reactor::fail_upstream`]) and hands every
/// forward still in `inflight` to the pool; none is ever matched
/// against a later line.
struct Upstream {
    token: u64,
    /// `None` until the pool's connect job hands the stream over; lines
    /// queue in `outbuf` meanwhile.
    stream: Option<TcpStream>,
    write_armed: bool,
    inbuf: Vec<u8>,
    /// As [`Conn::scan_from`].
    scan_from: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    inflight: VecDeque<Forward>,
    /// Since when the reply now due (the front of `inflight`) has been
    /// awaited: restarted when a line joins an idle upstream and at
    /// every reply.
    waiting_since: Instant,
}

impl Upstream {
    /// An upstream whose connect job is with the pool.
    fn connecting(token: u64) -> Upstream {
        Upstream {
            token,
            stream: None,
            write_armed: false,
            inbuf: Vec::new(),
            scan_from: 0,
            outbuf: Vec::new(),
            outpos: 0,
            inflight: VecDeque::new(),
            waiting_since: Instant::now(),
        }
    }
}

fn upstream_node(token: u64) -> usize {
    ((token & !TOKEN_UPSTREAM) >> 32) as usize
}

fn find_upstream(upstreams: &mut [Vec<Upstream>], token: u64) -> Option<&mut Upstream> {
    upstreams
        .get_mut(upstream_node(token))?
        .iter_mut()
        .find(|u| u.token == token)
}

/// Whether an upstream reply line can be relayed without parsing it: a
/// brace-delimited frame carrying the success marker, which is what
/// every `ok` reply a node renders looks like and what a corrupted or
/// cut-off one does not. Everything else takes [`classify_reply`].
fn is_ok_frame(raw: &str) -> bool {
    raw.starts_with('{') && raw.ends_with('}') && raw.contains("\"ok\":true")
}

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    hub: Arc<ReactorHub>,
    waker_rx: TcpStream,
    listener: TcpListener,
    listener_open: bool,
    conns: HashMap<u64, Conn>,
    /// In-flight predict tokens → connection id. A completion whose
    /// token is absent (deadline already answered, connection gone) is
    /// dropped — the result still landed in the cache.
    pending: HashMap<u64, u64>,
    /// Upstream connections by node index (router mode; empty
    /// otherwise), at most `forward_workers` each.
    upstreams: Vec<Vec<Upstream>>,
    next_upstream: u32,
    next_conn: u64,
    next_seq: u64,
    events: Vec<PollEvent>,
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        poller: Poller,
        waker: poll::Waker,
        waker_rx: TcpStream,
        listener: TcpListener,
    ) -> Reactor {
        let nodes = shared.router.as_ref().map_or(0, |r| r.config().nodes.len());
        Reactor {
            shared,
            poller,
            hub: Arc::new(ReactorHub {
                done: Mutex::new(Vec::new()),
                waker,
            }),
            waker_rx,
            listener,
            listener_open: true,
            conns: HashMap::new(),
            pending: HashMap::new(),
            upstreams: (0..nodes).map(|_| Vec::new()).collect(),
            next_upstream: 0,
            next_conn: 0,
            next_seq: 0,
            events: Vec::new(),
        }
    }

    fn run(mut self) {
        if self
            .poller
            .register(fd_of(&self.listener), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            return;
        }
        if self
            .poller
            .register(fd_of(&self.waker_rx), TOKEN_WAKER, Interest::READ)
            .is_err()
        {
            return;
        }
        loop {
            if drain_requested() {
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = self.wait_timeout();
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            #[cfg(test)]
            LOOP_PASSES.fetch_add(1, Ordering::Relaxed);
            for i in 0..events.len() {
                let ev = events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => poll::drain_wakes(&mut self.waker_rx),
                    t if t >= TOKEN_UPSTREAM => {
                        self.on_upstream_event(t, ev.readable || ev.hangup, ev.writable)
                    }
                    id => self.on_conn_event(id, ev),
                }
            }
            self.events = events;
            for done in self.hub.drain() {
                self.on_done(done);
            }
            self.tick();
        }
    }

    /// Next wait's upper bound: the nearest deadline, watch emission,
    /// or stall cutoff, capped at [`READ_POLL`] so drains are noticed.
    fn wait_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut t = READ_POLL;
        let mut consider = |at: Instant| {
            let d = at.saturating_duration_since(now);
            if d < t {
                t = d;
            }
        };
        for conn in self.conns.values() {
            match &conn.state {
                ConnState::Predicting(p) => consider(p.deadline_at),
                ConnState::Watching(w) => consider(w.next_at),
                ConnState::Ready => {
                    if let Some(s) = conn.partial_since {
                        consider(s + self.shared.stall_timeout);
                    }
                }
            }
            if let Some(s) = conn.write_blocked_since {
                consider(s + self.shared.stall_timeout);
            }
        }
        t
    }

    /// Drain mode: stop accepting, convert every connection to
    /// close-after-current-work. Idempotent — runs every loop pass
    /// while draining, closing connections as their work completes.
    fn begin_drain(&mut self) {
        if self.listener_open {
            let _ = self.poller.deregister(fd_of(&self.listener));
            self.listener_open = false;
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let close_now = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if let ConnState::Watching(_) = conn.state {
                    // The blocking watch checked drain before each
                    // emission and bailed; do the same.
                    conn.state = ConnState::Ready;
                }
                conn.close_after_flush = true;
                matches!(conn.state, ConnState::Ready) && conn.outpos >= conn.outbuf.len()
            };
            if close_now {
                self.close_conn(id);
            } else {
                self.update_interest(id);
            }
        }
    }

    fn accept_burst(&mut self) {
        if !self.listener_open {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(_) => {
                    // Transient accept failure (fd pressure etc.): the
                    // level-triggered poll retries on the next pass.
                    self.shared
                        .counters
                        .conns_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let conn_ord = self
            .shared
            .counters
            .conns_accepted
            .fetch_add(1, Ordering::Relaxed) as u32;
        self.shared.active.fetch_add(1, Ordering::Relaxed);
        let id = self.next_conn;
        self.next_conn += 1;
        if self
            .poller
            .register(fd_of(&stream), id, Interest::READ)
            .is_err()
        {
            self.shared
                .counters
                .conns_closed
                .fetch_add(1, Ordering::Relaxed);
            self.shared.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.conns.insert(
            id,
            Conn {
                stream,
                conn_ord,
                interest: Interest::READ,
                read_muted: false,
                inbuf: Vec::new(),
                scan_from: 0,
                outbuf: Vec::new(),
                outpos: 0,
                state: ConnState::Ready,
                close_after_flush: false,
                hard_close: false,
                peer_closed: false,
                partial_since: None,
                write_blocked_since: None,
                hits: 0,
                misses: 0,
            },
        );
    }

    fn on_conn_event(&mut self, id: u64, ev: PollEvent) {
        if ev.writable {
            self.try_flush(id);
        }
        if !(ev.readable || ev.hangup) {
            return;
        }
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if matches!(conn.state, ConnState::Ready) {
            self.fill_inbuf(id);
            self.advance(id);
        } else if ev.hangup {
            // Dead in both directions: nobody is left to answer, and an
            // error condition cannot be masked out of the poll set.
            self.close_conn(id);
        } else {
            conn.read_muted = true;
            self.update_interest(id);
        }
    }

    /// Pull ready bytes into the connection's input buffer, until a read
    /// comes back short. Reads only while the connection is `Ready` —
    /// in-flight work keeps the same backpressure the blocking loop
    /// enforced by not calling `read_line`.
    fn fill_inbuf(&mut self, id: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.close_after_flush || !matches!(conn.state, ConnState::Ready) {
                return;
            }
            match read_ready(&mut conn.stream, &mut conn.inbuf) {
                Ok(eof) => conn.peer_closed |= eof,
                Err(_) => dead = true,
            }
        }
        if dead {
            self.close_conn(id);
        }
    }

    /// Process every complete request line buffered on the connection,
    /// stopping when it leaves `Ready` (in-flight predict/watch), runs
    /// out of complete lines, or closes.
    fn advance(&mut self, id: u64) {
        loop {
            if drain_requested() {
                // Stop consuming between requests; the drain sweep in
                // the main loop closes this connection.
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.close_after_flush = true;
                }
                break;
            }
            let step = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.close_after_flush || !matches!(conn.state, ConnState::Ready) {
                    break;
                }
                next_step(conn)
            };
            match step {
                Step::Idle => break,
                Step::BadUtf8 | Step::CloseEof => {
                    self.close_conn(id);
                    return;
                }
                Step::Oversize => {
                    self.shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let reply = proto::render_error(&ProtoError::new(
                        None,
                        ErrorKind::Parse,
                        "request line exceeds 64 KiB",
                    ));
                    self.queue_frame(id, &reply);
                    self.shutdown_conn_graceful(id);
                    break;
                }
                Step::Line(line) => {
                    let keep = self.handle_line(id, line.trim_end_matches(['\r', '\n']));
                    if !keep {
                        self.shutdown_conn_graceful(id);
                        break;
                    }
                }
            }
        }
        self.update_interest(id);
    }

    /// Process one request line; returns false when the connection
    /// should close (after flushing what was queued).
    fn handle_line(&mut self, id: u64, line: &str) -> bool {
        if line.is_empty() {
            return true;
        }
        let sh = Arc::clone(&self.shared);
        sh.counters.requests.fetch_add(1, Ordering::Relaxed);
        let conn_ord = self.conns.get(&id).map(|c| c.conn_ord).unwrap_or(0);
        // One trace per request: the id is process-unique and monotone
        // within the connection. The same context threads through parse,
        // the shard handoff (via the Job), and the reply write.
        let mut trace = TraceCtx::start(next_trace_id(), conn_ord);
        if sh.slow_us.is_some() {
            trace.set_retain(true);
        }
        trace.push("parse");
        let parsed = proto::parse_request(line);
        trace.pop(EventKind::ProtoParse);
        let reply = match parsed {
            Err(e) => {
                let counter = match e.kind {
                    ErrorKind::Parse => &sh.counters.protocol_errors,
                    _ => &sh.counters.invalid,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                proto::render_error(&e)
            }
            Ok(Request::Ping) => {
                sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                proto::render_ok(None, JsonValue::from("pong"))
            }
            Ok(Request::Metrics) => {
                sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                let doc = build_metrics_doc(
                    &sh.counters,
                    sh.active.load(Ordering::Relaxed),
                    &sh.batcher,
                    &sh.timeseries,
                    sh.router.as_deref(),
                );
                proto::render_ok(None, doc)
            }
            Ok(Request::Slow) => {
                sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                let log = sh.slow_log.lock();
                proto::render_ok(None, JsonValue::Array(log.iter().cloned().collect()))
            }
            Ok(Request::Health) => match &sh.slo_rules {
                Some(rules) => {
                    sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                    let doc = build_metrics_doc(
                        &sh.counters,
                        sh.active.load(Ordering::Relaxed),
                        &sh.batcher,
                        &sh.timeseries,
                        sh.router.as_deref(),
                    );
                    proto::render_ok(None, obs::evaluate(rules, &doc).to_json())
                }
                None => {
                    sh.counters.invalid.fetch_add(1, Ordering::Relaxed);
                    proto::render_error(&ProtoError::new(
                        None,
                        ErrorKind::Invalid,
                        "no SLO rules loaded (start the server with --slo FILE)",
                    ))
                }
            },
            Ok(Request::Profile) => {
                sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                proto::render_ok(None, obs::prof::snapshot().to_json())
            }
            Ok(Request::Watch {
                samples,
                interval_ms,
            }) => {
                sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                return self.start_watch(id, samples, interval_ms);
            }
            Ok(Request::Quit) => {
                sh.counters.ok.fetch_add(1, Ordering::Relaxed);
                let reply = proto::render_ok(None, JsonValue::from("draining"));
                trace.push("reply");
                self.queue_frame(id, &reply);
                trace.pop(EventKind::ReplyWrite);
                request_drain();
                return false;
            }
            Ok(Request::Predict(req)) => {
                return self.handle_predict(id, line, *req, trace);
            }
        };
        trace.push("reply");
        self.queue_frame(id, &reply);
        trace.pop(EventKind::ReplyWrite);
        true
    }

    /// Admit one predict: answer it here if it is a hot-cache hit;
    /// otherwise forward it to a ring owner (router mode) or submit it
    /// to a local shard, parking the connection in `Predicting` until
    /// the completion or its deadline.
    fn handle_predict(
        &mut self,
        id: u64,
        line: &str,
        req: PredictRequest,
        mut trace: TraceCtx,
    ) -> bool {
        let sh = Arc::clone(&self.shared);
        let _prof = obs::prof::scope("serve.predict");
        // Per-class QoS accounting covers only requests that named a
        // class; class-less requests are admitted as interactive but
        // recorded nowhere class-specific, so their replies and metrics
        // stay byte-identical to the pre-QoS protocol.
        if let Some(p) = req.priority {
            sh.counters.class_requests[p.index()].fetch_add(1, Ordering::Relaxed);
        }
        // Chaos: a queue-saturation burst sheds the request at admission
        // exactly as a genuinely full shard queue would — an `overloaded`
        // reply carrying the structured back-off hint.
        if let Some(inj) = &sh.injector {
            if inj.roll(FaultSite::QueueSaturate).is_some() {
                return self.shed(id, &req, &mut trace, false, "shard queues saturated");
            }
        }
        let (plan, query) = req.to_plan();
        let enqueued_us = obs::now_us();
        let enqueued_at = Instant::now();
        // A hot-tier hit is answered here: the probe costs less than
        // handing the job to a shard worker and being woken for its
        // completion. Only that case — a miss computes and a disk-tier
        // hit reads a file, neither of which may block a reactor; a
        // router owns no predictions; and under a fault plan every
        // request must reach the worker, whose stall and panic rolls are
        // scheduled per pickup.
        if sh.router.is_none() && sh.injector.is_none() {
            if let Some(pred) = sh.batcher.engine().hot_hit(&plan, &query) {
                let exec_us = enqueued_at.elapsed().as_micros() as u64;
                let Some(conn) = self.conns.get_mut(&id) else {
                    return false;
                };
                if trace.is_enabled() {
                    // What the worker's own context would have put in
                    // its ring, under this request's id.
                    for (kind, name, dur_us) in [
                        (EventKind::CacheProbe, "cache-hit", 0),
                        (EventKind::EngineExec, "execute", exec_us),
                    ] {
                        obs::record(obs::Event {
                            kind,
                            name,
                            tid: conn.conn_ord,
                            start_us: enqueued_us,
                            dur_us,
                            arg: trace.id(),
                        });
                    }
                }
                let result = JobResult {
                    pred,
                    cached: true,
                    service_us: exec_us,
                    queue_us: 0,
                    exec_us,
                };
                let reply = settle_predict(&sh, conn, &req, &mut trace, enqueued_us, Some(result));
                return self.finish_predict_reply(id, &mut trace, &reply);
            }
        }
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(sh.default_deadline);
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(router) = &sh.router {
            // Router mode: the raw request line travels to the ring
            // owner verbatim, so the owner's reply bytes are exactly
            // what a directly-connected client would have received.
            // This reactor writes it itself; the pool takes it when no
            // upstream can be had, and always under a fault plan, whose
            // partition rolls are scheduled per worker pickup.
            let fingerprint = plan.key_of(&query).fingerprint();
            let forward = Forward {
                line: line.to_string(),
                fingerprint,
                order: router.route(fingerprint),
                token: seq,
            };
            // Parked before the send: a write that fails on the spot
            // already hands the forward on, and that looks it up.
            self.park(id, seq, req, trace, deadline, enqueued_us);
            let unsent = match sh.injector {
                None => self.send_upstream(forward).err(),
                Some(_) => Some(forward),
            };
            if unsent.is_some_and(|forward| !self.submit_forward(forward, None)) {
                self.pending.remove(&seq);
                let Some(p) = self.take_parked(id) else {
                    return false;
                };
                let mut trace = p.trace;
                return self.shed(id, &p.req, &mut trace, true, "forward queue full");
            }
            return true;
        } else {
            let job = Job {
                plan,
                query,
                enqueued_at,
                trace_id: trace.id(),
                enqueued_us,
                class: req.priority.unwrap_or(Priority::Interactive),
                reply: ReplySink::port(Arc::clone(&self.hub) as Arc<dyn CompletionPort>, seq),
            };
            match sh.batcher.submit(job) {
                Err(AdmissionError::QueueFull) => {
                    return self.shed(id, &req, &mut trace, true, "shard queue full");
                }
                Err(AdmissionError::Draining) => {
                    let reply = proto::render_error(&ProtoError::new(
                        req.id,
                        ErrorKind::Draining,
                        "server is draining",
                    ));
                    return self.finish_predict_reply(id, &mut trace, &reply);
                }
                Ok(()) => {}
            }
        }
        self.park(id, seq, req, trace, deadline, enqueued_us);
        true
    }

    /// Park connection `id` on predict `seq` until its completion, its
    /// upstream's reply, or its deadline.
    fn park(
        &mut self,
        id: u64,
        seq: u64,
        req: PredictRequest,
        trace: TraceCtx,
        deadline: Duration,
        enqueued_us: u64,
    ) {
        self.pending.insert(seq, id);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.state = ConnState::Predicting(PendingPredict {
                seq,
                req: Box::new(req),
                trace,
                deadline_at: Instant::now() + deadline,
                deadline,
                enqueued_us,
            });
        }
    }

    /// Shed one predict with an `overloaded` reply carrying the
    /// structured back-off hint. `genuine` is false for an injected
    /// saturation burst, which is not an admission rejection.
    fn shed(
        &mut self,
        id: u64,
        req: &PredictRequest,
        trace: &mut TraceCtx,
        genuine: bool,
        what: &str,
    ) -> bool {
        let counters = &self.shared.counters;
        if genuine {
            counters.rejected_admission.fetch_add(1, Ordering::Relaxed);
        }
        counters.shed_total.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = req.priority {
            counters.class_shed[p.index()].fetch_add(1, Ordering::Relaxed);
        }
        note_recovery("load-shed", trace.id());
        let reply = proto::render_error(
            &ProtoError::new(
                req.id,
                ErrorKind::Overloaded,
                format!("{what}, retry later"),
            )
            .with_retry_after(self.shared.retry_after_ms),
        );
        self.finish_predict_reply(id, trace, &reply)
    }

    fn on_done(&mut self, done: Done) {
        match done {
            Done::Job(c) => self.on_job_done(c),
            Done::Forward { token, outcome } => {
                // Absent: deadline already answered or the connection
                // is gone.
                if let Some(id) = self.pending.remove(&token) {
                    self.finish_forward(id, outcome);
                }
            }
            Done::Connected { token, stream } => self.on_connected(token, stream),
        }
    }

    /// Un-park connection `id`, handing back the predict it waited on.
    fn take_parked(&mut self, id: u64) -> Option<PendingPredict> {
        let conn = self.conns.get_mut(&id)?;
        match std::mem::replace(&mut conn.state, ConnState::Ready) {
            ConnState::Predicting(p) => Some(p),
            other => {
                conn.state = other;
                None
            }
        }
    }

    /// After a parked predict's reply was queued: go on with the lines
    /// buffered behind it, or (injected drop) just settle interest.
    fn resume(&mut self, id: u64, keep: bool) {
        if keep {
            self.advance(id);
        } else {
            self.update_interest(id);
        }
    }

    fn on_job_done(&mut self, c: Completion) {
        let Some(id) = self.pending.remove(&c.token) else {
            // Deadline already answered or the connection is gone; the
            // computed result still landed in the cache.
            return;
        };
        let Some(p) = self.take_parked(id) else {
            return;
        };
        let sh = Arc::clone(&self.shared);
        let mut trace = p.trace;
        let reply = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            settle_predict(&sh, conn, &p.req, &mut trace, p.enqueued_us, c.result)
        };
        let keep = self.finish_predict_reply(id, &mut trace, &reply);
        self.resume(id, keep);
    }

    /// A forward ended, on either entry: settle it and answer.
    fn finish_forward(&mut self, id: u64, outcome: ForwardOutcome) {
        let Some(p) = self.take_parked(id) else {
            return;
        };
        let mut trace = p.trace;
        let reply = settle_forward(&self.shared, &p.req, p.enqueued_us, outcome);
        let keep = self.finish_predict_reply(id, &mut trace, &reply);
        self.resume(id, keep);
    }

    /// Hand a forward to the pool; false when its queue is full or
    /// draining. `failed` is how this reactor's own attempt ended, if
    /// it made one.
    fn submit_forward(&self, forward: Forward, failed: Option<Transient>) -> bool {
        let Some(pool) = &self.shared.forwarder else {
            return false;
        };
        let hub = Arc::clone(&self.hub);
        pool.submit(PoolJob::Forward(ForwardJob {
            forward,
            failed,
            done: Box::new(move |token, outcome| hub.post(Done::Forward { token, outcome })),
        }))
    }

    /// A forward this reactor could not finish goes to the pool, which
    /// resumes from `failed`; one whose client no longer waits (deadline
    /// answered, connection gone) is dropped.
    fn resubmit(&mut self, forward: Forward, failed: Transient) {
        let token = forward.token;
        if !self.pending.contains_key(&token) || self.submit_forward(forward, Some(failed)) {
            return;
        }
        let Some(id) = self.pending.remove(&token) else {
            return;
        };
        let Some(p) = self.take_parked(id) else {
            return;
        };
        let mut trace = p.trace;
        let keep = self.shed(id, &p.req, &mut trace, true, "forward queue full");
        self.resume(id, keep);
    }

    /// Write one forward to an upstream of its first owner: an idle
    /// connection if there is one, else a new one while the node has
    /// fewer than `forward_workers`, else pipelined behind the
    /// shortest queue. Hands the forward back when no upstream can be
    /// had (no owner, or the pool refused the connect job).
    fn send_upstream(&mut self, forward: Forward) -> Result<(), Forward> {
        let sh = Arc::clone(&self.shared);
        let (Some(router), Some(pool), Some(&node)) =
            (&sh.router, &sh.forwarder, forward.order.first())
        else {
            return Err(forward);
        };
        let upstreams = &mut self.upstreams[node];
        let shortest = upstreams
            .iter()
            .enumerate()
            .map(|(at, up)| (up.inflight.len(), at))
            .min();
        let at = match shortest {
            Some((0, at)) => at,
            Some((_, at)) if upstreams.len() >= router.config().forward_workers.max(1) => at,
            _ => {
                let token = TOKEN_UPSTREAM | (node as u64) << 32 | u64::from(self.next_upstream);
                self.next_upstream = self.next_upstream.wrapping_add(1);
                let hub = Arc::clone(&self.hub);
                let opened = pool.submit(PoolJob::Connect(ConnectJob {
                    node,
                    done: Box::new(move |stream| hub.post(Done::Connected { token, stream })),
                }));
                match (opened, shortest) {
                    (true, _) => {
                        upstreams.push(Upstream::connecting(token));
                        upstreams.len() - 1
                    }
                    (false, Some((_, at))) => at,
                    (false, None) => return Err(forward),
                }
            }
        };
        let up = &mut upstreams[at];
        up.outbuf.extend_from_slice(forward.line.as_bytes());
        up.outbuf.push(b'\n');
        if up.inflight.is_empty() {
            up.waiting_since = Instant::now();
        }
        up.inflight.push_back(forward);
        router.note_sent(node, true);
        let token = up.token;
        self.flush_upstream(token);
        Ok(())
    }

    /// The pool finished a connect job: adopt the stream and send what
    /// queued up meanwhile, or retire the upstream.
    fn on_connected(&mut self, token: u64, stream: std::io::Result<TcpStream>) {
        if find_upstream(&mut self.upstreams, token).is_none() {
            // Retired while connecting; the stream just closes.
            return;
        }
        let registered = stream.and_then(|stream| {
            self.poller
                .register(fd_of(&stream), token, Interest::READ)?;
            Ok(stream)
        });
        match registered {
            Ok(stream) => {
                if let Some(up) = find_upstream(&mut self.upstreams, token) {
                    up.stream = Some(stream);
                }
                self.flush_upstream(token);
            }
            Err(e) => self.fail_upstream(token, e.to_string()),
        }
    }

    /// Write the upstream's buffered lines until the socket blocks or
    /// the buffer empties, keeping write interest in step.
    fn flush_upstream(&mut self, token: u64) {
        let Some(up) = find_upstream(&mut self.upstreams, token) else {
            return;
        };
        let Some(stream) = up.stream.as_mut() else {
            return;
        };
        while up.outpos < up.outbuf.len() {
            match stream.write(&up.outbuf[up.outpos..]) {
                Ok(0) => return self.fail_upstream(token, "upstream accepts no bytes".to_string()),
                Ok(n) => up.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return self.fail_upstream(token, e.to_string()),
            }
        }
        let blocked = up.outpos < up.outbuf.len();
        if !blocked {
            up.outbuf.clear();
            up.outpos = 0;
        }
        if blocked != up.write_armed {
            let want = Interest {
                read: true,
                write: blocked,
            };
            if self.poller.reregister(fd_of(stream), token, want).is_ok() {
                up.write_armed = blocked;
            }
        }
    }

    /// Readiness on an upstream: flush, then read what arrived, split
    /// it into reply lines and match each to the forward at the front
    /// of the FIFO (see [`Upstream`]).
    fn on_upstream_event(&mut self, token: u64, readable: bool, writable: bool) {
        if writable {
            self.flush_upstream(token);
        }
        if !readable {
            return;
        }
        let mut broken = None;
        {
            let Some(up) = find_upstream(&mut self.upstreams, token) else {
                return;
            };
            let Some(stream) = up.stream.as_mut() else {
                return;
            };
            match read_ready(stream, &mut up.inbuf) {
                Ok(false) => {}
                Ok(true) => broken = Some("connection closed mid-request".to_string()),
                Err(e) => broken = Some(e.to_string()),
            }
        }
        // A reply can re-enter this reactor (the client's next line is
        // forwarded from inside `finish_forward`) and even retire this
        // upstream, so look it up afresh for every line.
        while let Some(up) = find_upstream(&mut self.upstreams, token) {
            let Some(pos) = up.inbuf[up.scan_from..].iter().position(|&b| b == b'\n') else {
                up.scan_from = up.inbuf.len();
                if up.inbuf.len() > MAX_REPLY_BYTES {
                    broken = Some("reply frame exceeds 4 MiB".to_string());
                }
                break;
            };
            let end = up.scan_from + pos;
            let raw: Vec<u8> = up.inbuf.drain(..=end).collect();
            up.scan_from = 0;
            let Some(forward) = up.inflight.pop_front() else {
                broken = Some("unsolicited reply frame".to_string());
                break;
            };
            up.waiting_since = Instant::now();
            if !self.on_upstream_reply(token, forward, raw) {
                broken = Some("corrupt reply bytes".to_string());
                break;
            }
        }
        if let Some(why) = broken {
            self.fail_upstream(token, why);
        }
    }

    /// One reply line for `forward`: relay it if the node answered
    /// (success or definitive rejection), hand the forward to the pool
    /// if the answer is transient. False when the frame was corrupt —
    /// the stream can no longer be trusted to be in step.
    fn on_upstream_reply(&mut self, token: u64, forward: Forward, raw: Vec<u8>) -> bool {
        let Some(&id) = self.pending.get(&forward.token) else {
            // Deadline already answered or the client is gone: the
            // late reply is consumed here and goes nowhere.
            return true;
        };
        let verdict = match String::from_utf8(raw) {
            Err(_) => Err(Transient::Corrupt),
            Ok(mut raw) => {
                raw.truncate(raw.trim_end().len());
                if is_ok_frame(&raw) {
                    Ok(raw)
                } else {
                    classify_reply(&raw).map(|_| raw)
                }
            }
        };
        match verdict {
            Ok(raw) => {
                if let Some(router) = &self.shared.router {
                    router.note_served(forward.fingerprint, upstream_node(token));
                }
                self.pending.remove(&forward.token);
                self.finish_forward(id, ForwardOutcome::Reply(raw));
                true
            }
            Err(failed) => {
                let in_step = !matches!(failed, Transient::Corrupt);
                self.resubmit(forward, failed);
                in_step
            }
        }
    }

    /// Retire an upstream that can no longer pair replies with
    /// forwards; everything it had in flight goes to the pool.
    fn fail_upstream(&mut self, token: u64, why: String) {
        let Some(upstreams) = self.upstreams.get_mut(upstream_node(token)) else {
            return;
        };
        let Some(at) = upstreams.iter().position(|up| up.token == token) else {
            return;
        };
        let up = upstreams.swap_remove(at);
        if let Some(stream) = &up.stream {
            let _ = self.poller.deregister(fd_of(stream));
        }
        for forward in up.inflight {
            self.resubmit(forward, Transient::Io(why.clone()));
        }
    }

    /// Wrap a predict reply in its reply-write span and push it through
    /// the chaos choke point. Returns false when the connection must
    /// close (injected drop).
    fn finish_predict_reply(&mut self, id: u64, trace: &mut TraceCtx, reply: &str) -> bool {
        trace.push("reply");
        let keep = self.queue_predict_reply(id, reply);
        trace.pop(EventKind::ReplyWrite);
        keep
    }

    /// Queue a predict reply through the chaos choke point: the
    /// corrupt, drop and torn sites each get one roll per reply, then
    /// the frame enters the outbuf. Admin replies bypass this, so
    /// metrics fetches always come back clean even mid-chaos.
    fn queue_predict_reply(&mut self, id: u64, reply: &str) -> bool {
        let Some(inj) = self.shared.injector.clone() else {
            self.queue_frame(id, reply);
            return true;
        };
        // Corrupt: flip the opening brace so the frame stays a single
        // newline-terminated line but no longer parses as JSON.
        let corrupted;
        let mut reply = reply;
        if inj.roll(FaultSite::CorruptReply).is_some() && !reply.is_empty() {
            corrupted = format!(";{}", &reply[1..]);
            reply = &corrupted;
        }
        // Drop: deliver half the frame, then hard-close the socket —
        // the client sees a mid-frame disconnect.
        if inj.roll(FaultSite::ConnDrop).is_some() {
            let full = format!("{reply}\n");
            let half = &full.as_bytes()[..full.len() / 2];
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.outbuf.extend_from_slice(half);
                conn.close_after_flush = true;
                conn.hard_close = true;
            }
            self.try_flush(id);
            return false;
        }
        // Torn: route the frame through short writes + injected EINTR;
        // write_frame's retry loop must still assemble it intact before
        // the bytes enter the outbuf.
        if let Some(chunk) = inj.roll(FaultSite::TornWrite) {
            let mut assembled: Vec<u8> = Vec::with_capacity(reply.len() + 1);
            {
                let mut torn = TornWriter::new(&mut assembled, chunk as usize);
                let _ = proto::write_frame(&mut torn, reply);
            }
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.outbuf.extend_from_slice(&assembled);
            }
            self.try_flush(id);
            return true;
        }
        self.queue_frame(id, reply);
        true
    }

    /// Begin (or fully serve) an admin `watch` stream. Interval 0 emits
    /// every sample immediately; otherwise the first sample goes now
    /// and the rest are timed by the reactor clock.
    fn start_watch(&mut self, id: u64, samples: u64, interval_ms: u64) -> bool {
        if samples == 0 {
            return true;
        }
        if interval_ms == 0 {
            for _ in 0..samples {
                if drain_requested() {
                    return false;
                }
                let line = self.watch_sample_line();
                self.queue_frame(id, &line);
                if !self.conns.contains_key(&id) {
                    return false;
                }
            }
            return true;
        }
        if drain_requested() {
            return false;
        }
        let line = self.watch_sample_line();
        self.queue_frame(id, &line);
        if !self.conns.contains_key(&id) {
            return false;
        }
        if samples > 1 {
            if let Some(conn) = self.conns.get_mut(&id) {
                let interval = Duration::from_millis(interval_ms);
                conn.state = ConnState::Watching(WatchState {
                    remaining: samples - 1,
                    interval,
                    next_at: Instant::now() + interval,
                });
            }
        }
        true
    }

    /// One fresh gauge snapshot as a `watch` NDJSON line. Read-only:
    /// streamed samples do not enter the timeseries ring.
    fn watch_sample_line(&self) -> String {
        let sh = &self.shared;
        let sample = Sample {
            t_us: obs::now_us(),
            gauges: sample_gauges(
                &sh.counters,
                sh.active.load(Ordering::Relaxed),
                &sh.batcher,
                sh.router.as_deref(),
            )
            .into_iter()
            .collect(),
        };
        proto::render_ok(None, sample.to_json())
    }

    /// Reactor-clock work: expired predict deadlines, due watch
    /// emissions, read/write stall sheds.
    fn tick(&mut self) {
        let now = Instant::now();
        self.tick_upstreams(now);
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let expired = match self.conns.get(&id).map(|conn| &conn.state) {
                Some(ConnState::Predicting(p)) if now >= p.deadline_at => self.take_parked(id),
                _ => None,
            };
            if let Some(p) = expired {
                // The completion (or the upstream's reply), when it
                // eventually arrives, finds no pending entry and is
                // dropped — but the result still lands in the cache,
                // exactly like the blocking `recv_timeout` path.
                self.pending.remove(&p.seq);
                self.shared
                    .counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                let reply = proto::render_error(&ProtoError::new(
                    p.req.id,
                    ErrorKind::Deadline,
                    format!("deadline of {} ms expired", p.deadline.as_millis()),
                ));
                let mut trace = p.trace;
                let keep = self.finish_predict_reply(id, &mut trace, &reply);
                self.resume(id, keep);
                continue;
            }
            self.tick_watch(id, now);
            self.tick_stalls(id, now);
        }
    }

    /// Retire every upstream whose due reply is overdue by the router's
    /// `read_timeout_ms` — a node that accepted the line and went
    /// silent — so the pool can retry and fail over.
    fn tick_upstreams(&mut self, now: Instant) {
        let Some(router) = &self.shared.router else {
            return;
        };
        let read_timeout = Duration::from_millis(router.config().read_timeout_ms);
        let overdue: Vec<u64> = self
            .upstreams
            .iter()
            .flatten()
            .filter(|up| !up.inflight.is_empty())
            .filter(|up| now.duration_since(up.waiting_since) >= read_timeout)
            .map(|up| up.token)
            .collect();
        for token in overdue {
            self.fail_upstream(token, "timed out waiting for a reply".to_string());
        }
    }

    fn tick_watch(&mut self, id: u64, now: Instant) {
        loop {
            let due = {
                let Some(conn) = self.conns.get(&id) else {
                    return;
                };
                matches!(&conn.state, ConnState::Watching(w) if now >= w.next_at)
            };
            if !due {
                return;
            }
            if drain_requested() {
                // The blocking watch bailed out before each emission on
                // drain; close the stream the same way.
                self.close_conn(id);
                return;
            }
            let line = self.watch_sample_line();
            let finished = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                let ConnState::Watching(w) = &mut conn.state else {
                    return;
                };
                w.remaining -= 1;
                w.next_at += w.interval;
                let finished = w.remaining == 0;
                if finished {
                    conn.state = ConnState::Ready;
                }
                finished
            };
            self.queue_frame(id, &line);
            if finished {
                self.advance(id);
                return;
            }
        }
    }

    fn tick_stalls(&mut self, id: u64, now: Instant) {
        let (read_stalled, write_stalled) = {
            let Some(conn) = self.conns.get(&id) else {
                return;
            };
            (
                matches!(conn.state, ConnState::Ready)
                    && conn
                        .partial_since
                        .is_some_and(|s| now.duration_since(s) >= self.shared.stall_timeout),
                conn.write_blocked_since
                    .is_some_and(|s| now.duration_since(s) >= self.shared.stall_timeout),
            )
        };
        if read_stalled {
            self.shared
                .counters
                .stalled_conns_shed
                .fetch_add(1, Ordering::Relaxed);
            let ord = self.conns.get(&id).map(|c| c.conn_ord).unwrap_or(0);
            note_recovery("stalled-conn-shed", u64::from(ord));
            self.close_conn(id);
            return;
        }
        if write_stalled {
            // The blocking path bounded writes with a socket write
            // timeout; a peer that won't drain its replies is cut off
            // the same way.
            self.close_conn(id);
        }
    }

    /// Append a frame to the connection's outbuf and flush what the
    /// socket will take now.
    fn queue_frame(&mut self, id: u64, reply: &str) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.outbuf.extend_from_slice(reply.as_bytes());
            conn.outbuf.push(b'\n');
        }
        self.try_flush(id);
    }

    /// Write buffered output until the socket blocks or empties; empty
    /// + close-after-flush closes the connection.
    fn try_flush(&mut self, id: u64) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            while conn.outpos < conn.outbuf.len() {
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => conn.outpos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if conn.outpos >= conn.outbuf.len() {
                conn.outbuf.clear();
                conn.outpos = 0;
                conn.write_blocked_since = None;
                if conn.close_after_flush {
                    close = true;
                }
            } else if conn.write_blocked_since.is_none() {
                conn.write_blocked_since = Some(Instant::now());
            }
        }
        if close {
            self.close_conn(id);
        } else {
            self.update_interest(id);
        }
    }

    /// Mark the connection close-after-flush and close it immediately
    /// if nothing is still buffered.
    fn shutdown_conn_graceful(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.close_after_flush = true;
        }
        self.try_flush(id);
    }

    /// Keep the poller's interest in sync with connection state: read
    /// unless closing or muted while parked (see [`Conn::read_muted`];
    /// parked connections are never read *from* either way — that is
    /// the backpressure), write only while the outbuf holds bytes.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if matches!(conn.state, ConnState::Ready) {
            conn.read_muted = false;
        }
        let want = Interest {
            read: !conn.read_muted && !conn.close_after_flush && !conn.peer_closed,
            write: conn.outpos < conn.outbuf.len(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(fd_of(&conn.stream), id, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        if let ConnState::Predicting(p) = &conn.state {
            self.pending.remove(&p.seq);
        }
        let _ = self.poller.deregister(fd_of(&conn.stream));
        if conn.hard_close {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        if conn.hits + conn.misses > 0 {
            *self.shared.counters.conn_hit_rate_sum.lock() += rate(conn.hits, conn.misses);
        }
        self.shared
            .counters
            .conns_closed
            .fetch_add(1, Ordering::Relaxed);
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn metrics(admin: &mut BufReader<TcpStream>) -> JsonValue {
        admin
            .get_mut()
            .write_all(b"{\"op\":\"metrics\"}\n")
            .expect("write");
        let mut reply = String::new();
        admin.read_line(&mut reply).expect("read");
        obs::json::parse(reply.trim_end()).expect("metrics reply parses")
    }

    /// Read interest stays armed across a park, so what arrives while a
    /// connection is parked — pipelined lines, then a half-close, both
    /// level-triggered — must wake the reactor once, not once per loop
    /// pass; and the lines are still answered in request order.
    #[test]
    fn parked_connection_is_not_read_and_does_not_spin_the_reactor() {
        const STALL_MS: u64 = 300;
        reset_drain();
        // The only worker stalls on its first pickup: the first predict
        // stays parked for STALL_MS whatever the machine's speed.
        let plan = format!("seed=1,stall=1:1x1/{STALL_MS}");
        let engine: &'static Engine = Box::leak(Box::new(Engine::new()));
        let server = Server::bind_on(
            ServerConfig {
                reactors: 1,
                shards: 1,
                pool_threads: 1,
                faults: Some(FaultPlan::parse(&plan).expect("plan parses")),
                ..ServerConfig::default()
            },
            engine,
        )
        .expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("run"));

        let predict = |id: u32| {
            format!("{{\"op\":\"predict\",\"id\":{id},\"bench\":\"cg\",\"class\":\"B\",\"threads\":8,\"machine\":\"sg2044\"}}\n")
        };
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(predict(1).as_bytes()).expect("write");
        let mut admin = BufReader::new(TcpStream::connect(addr).expect("connect"));
        let stalled = |doc: &JsonValue| {
            ["result", "faults", "injected", "stall", "injected"]
                .iter()
                .try_fold(doc, |d, key| d.get(key))
                .and_then(JsonValue::as_f64)
        };
        while stalled(&metrics(&mut admin)) != Some(1.0) {
            std::thread::yield_now();
        }

        let before = LOOP_PASSES.load(Ordering::Relaxed);
        client
            .write_all(format!("{}{{\"op\":\"ping\"}}\n", predict(2)).as_bytes())
            .expect("write");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut replies = String::new();
        client.read_to_string(&mut replies).expect("read to EOF");
        let passes = LOOP_PASSES.load(Ordering::Relaxed) - before;

        let replies: Vec<&str> = replies.lines().collect();
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert!(
            replies[0].starts_with("{\"id\":1,\"ok\":true,"),
            "{replies:?}"
        );
        assert!(
            replies[1].starts_with("{\"id\":2,\"ok\":true,"),
            "{replies:?}"
        );
        assert_eq!(replies[2], "{\"ok\":true,\"result\":\"pong\"}");
        // One pass for the pipelined bytes, one per READ_POLL tick of
        // the stall, a handful to answer and close; a level-triggered
        // spin would be tens of thousands.
        let ticks = STALL_MS / READ_POLL.as_millis() as u64;
        assert!(passes <= ticks + 16, "{passes} loop passes while parked");

        admin
            .get_mut()
            .write_all(b"{\"op\":\"quit\"}\n")
            .expect("write");
        handle.join().expect("server thread");
        reset_drain();
    }
}
