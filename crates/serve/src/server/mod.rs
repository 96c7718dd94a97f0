//! The TCP server's lifecycle — configuration, bind, run, graceful
//! drain — and the state its reactors share ([`Shared`], built once by
//! [`Server::bind_on`]). One job per file beside it: [`reactor`] is the
//! event loop and the request handlers, [`conn`] the line transport and
//! the client connection state machine, [`upstream`] the router's
//! connections to cluster nodes, [`metrics`] the counters and the one
//! builder of the metrics document.
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
//! [`ReplySink`](crate::batch::ReplySink) completion port. The bounded
//! shard queues remain the admission-control boundary (a full queue
//! produces an immediate `overloaded` reply instead of unbounded
//! buffering). Every predict carries a deadline — the client's
//! `deadline_ms` or the server default — after which the connection
//! answers `deadline` and moves on; the computed result still lands in
//! the cache.
//!
//! In router mode (`--route node1,node2,...`) predicts are not served
//! locally at all: the request's cache-key fingerprint picks its owners
//! on the [`cluster::Ring`] and [`upstream`] forwards the raw request
//! line to the first, with failover to the next.
//!
//! Shutdown is cooperative: an admin `quit` request, [`request_drain`],
//! or SIGTERM/SIGINT (via [`install_signal_drain`]) sets one flag. The
//! reactors stop accepting, each connection finishes its in-flight
//! request, the batcher serves everything already admitted, and
//! [`Server::run`] returns the final metrics document.
//!
//! The polling layer is Linux-only ([`crate::poll`] has the details);
//! elsewhere, [`Server::run`] fails at startup with `Unsupported`.

mod conn;
mod metrics;
mod reactor;
mod upstream;

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rvhpc_core::engine::Engine;
use rvhpc_faults::{FaultPlan, FaultSite, Injector};
use rvhpc_obs::{self as obs, JsonValue, Timeseries};

use crate::batch::Batcher;
use crate::cluster::{self, Router};
use crate::poll::{self, Poller};
use metrics::Counters;
use reactor::Reactor;

/// Reactor tick cap — how quickly idle reactors notice a drain; also
/// the sampler thread's sleep slice.
const READ_POLL: Duration = Duration::from_millis(50);

/// Process-wide drain flag set by signal handlers and `quit` requests.
static DRAIN: AtomicBool = AtomicBool::new(false);

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

/// Route SIGTERM and SIGINT to a graceful drain. A no-op off Linux;
/// `quit` and [`request_drain`] still work.
pub fn install_signal_drain() {
    poll::flag_on_terminate(&DRAIN);
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
            route: None,
        }
    }
}

/// Everything a reactor needs that is not per-connection state: built
/// once at bind, shared by the reactors, the sampler and the final
/// metrics snapshot.
struct Shared {
    injector: Option<Arc<Injector>>,
    batcher: Batcher,
    counters: Counters,
    active: AtomicUsize,
    timeseries: Timeseries,
    slow_log: Mutex<VecDeque<JsonValue>>,
    slow_us: Option<u64>,
    default_deadline: Duration,
    stall_timeout: Duration,
    retry_after_ms: u64,
    router: Option<Arc<Router>>,
    forwarder: Option<cluster::Forwarder>,
}

/// A bound, running prediction server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    shared: Arc<Shared>,
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
        poll::set_backlog(&listener, 4096);
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
        // Router mode: the ring and forwarder pool exist only when
        // `--route` named a node set. The router shares the injector so
        // the partition site can force failover re-routes under chaos.
        let router = config
            .route
            .as_ref()
            .map(|rc| Arc::new(Router::new(rc.clone(), injector.clone())));
        let shared = Arc::new(Shared {
            batcher: Batcher::with_injector(
                engine,
                config.shards,
                config.queue_cap,
                config.pool_threads,
                injector.clone(),
            ),
            injector,
            counters: Counters::default(),
            active: AtomicUsize::new(0),
            timeseries: Timeseries::new(
                obs::timeseries::DEFAULT_CAPACITY,
                config.sample_interval_ms * 1_000,
            ),
            slow_log: Mutex::new(VecDeque::new()),
            slow_us: config.slow_us,
            default_deadline: Duration::from_millis(config.default_deadline_ms),
            stall_timeout: Duration::from_millis(config.stall_timeout_ms.max(1)),
            retry_after_ms: config.retry_after_ms,
            forwarder: router
                .as_ref()
                .map(|router| cluster::Forwarder::spawn(Arc::clone(router))),
            router,
        });
        Ok(Server {
            listener,
            local_addr,
            config,
            shared,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serve until a drain is requested (`quit`, signal, or
    /// [`request_drain`]); then stop accepting, let connections finish,
    /// drain the batcher, and return the final metrics document.
    pub fn run(self) -> std::io::Result<JsonValue> {
        let shared = self.shared;
        let sampler = (self.config.sample_interval_ms > 0).then(|| {
            let interval = Duration::from_millis(self.config.sample_interval_ms);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rvhpc-serve-sampler".to_string())
                .spawn(move || {
                    while !drain_requested() {
                        shared.timeseries.sample_now(shared.gauges());
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
                .expect("spawn sampler thread")
        });
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
        if let Some(f) = &shared.forwarder {
            f.drain();
        }
        shared.batcher.drain();
        // Snapshot the hot tier into the disk store (when attached) so
        // the next process starts warm even for entries computed before
        // the store was wired or never evicted. Append-once: entries
        // already on disk cost nothing. Failures are reflected in the
        // store's write_errors counter rather than failing the drain.
        let _ = shared.batcher.engine().snapshot_store();
        Ok(shared.metrics_doc())
    }
}
