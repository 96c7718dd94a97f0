//! Horizontal sharding for the serving tier: a seeded consistent-hash
//! ring over cache-key fingerprints, plus the thin router that forwards
//! raw request lines to ring owners.
//!
//! The [`Ring`] places every node at `vnodes` pseudo-random points on
//! the `u64` circle; a fingerprint is owned by the first point at or
//! after it (wrapping). Each node's points are a pure function of
//! `(seed, node name, vnode index)` — independent of the other members
//! — so removing a node leaves every surviving point exactly where it
//! was and only the dead node's keys move (the classic
//! minimal-disruption property, checked by `ring_properties.rs`).
//! Virtual nodes flatten ownership skew; the same suite bounds max/min
//! key ownership under 1.5x for rings of three or more nodes.
//!
//! The [`Router`] sits in front of a node set (`serve --route
//! node1,node2,...`): each predict's fingerprint picks an owner order
//! ([`Ring::owners`]) and the *raw* request line is relayed to the
//! first owner — so the owner's reply bytes reach the client verbatim,
//! keeping single-node and cluster replies byte-identical. A forward
//! has two entries that share the router's accounting
//! ([`Router::note_sent`], [`Router::note_served`]): the server's
//! reactor writes the line to a nonblocking upstream connection it owns
//! and relays the reply itself, and everything that must block — a
//! connect ([`ConnectJob`]), the retry/back-off of a transient failure,
//! the failover walk to the next owner when a node is dead, and every
//! forward while a fault plan is active — runs on a [`Forwarder`]
//! worker over [`RetryClient`]. Routing is a pure function of the ring:
//! one key has one owner whatever its history, and a key that fails
//! over costs the next owner one recompute. The
//! [`FaultSite::Partition`] chaos site forces the primary to be treated
//! as unreachable, exercising the failover path deterministically.

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rvhpc_faults::{note_recovery, rng::mix, FaultSite, Injector};
use rvhpc_obs::JsonValue;

use crate::client::{ClientConfig, RetryClient, Transient};

/// Most distinct fingerprints the key → node assignment table retains
/// (first-come, a bounded map, not an LRU). Keys past the cap are still
/// routed and served; they are only missing from the `keys` gauges, so
/// `keys_total` saturates here instead of growing for the life of the
/// process.
const ASSIGNED_TRACK_CAP: usize = 65_536;

/// FNV-1a over the node name: the stable name → point-stream seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cluster router tuning (`serve --route`).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Node addresses, `host:port`, ring membership order.
    pub nodes: Vec<String>,
    /// Virtual nodes per member; more vnodes, flatter ownership.
    pub vnodes: u32,
    /// Ring placement seed — same seed + members, same assignment.
    pub seed: u64,
    /// Forwarder worker threads; also the most upstream connections a
    /// reactor keeps open to one node.
    pub forward_workers: usize,
    /// Bounded forward queue depth — the router's admission limit.
    pub forward_queue: usize,
    /// Retry attempts against one node before failing over.
    pub attempts_per_node: u32,
    /// Per-node TCP connect timeout.
    pub connect_timeout_ms: u64,
    /// Per-reply read timeout.
    pub read_timeout_ms: u64,
}

impl RouterConfig {
    /// Defaults for a node list.
    pub fn new(nodes: Vec<String>) -> RouterConfig {
        RouterConfig {
            nodes,
            // 256 points per member holds max/min ownership skew under
            // 1.5x for 3..=8-node rings (measured ~1.39 worst over 40
            // seeds; ring_properties.rs enforces the bound).
            vnodes: 256,
            seed: 0,
            forward_workers: 8,
            forward_queue: 1024,
            attempts_per_node: 2,
            connect_timeout_ms: 500,
            read_timeout_ms: 30_000,
        }
    }
}

/// A seeded consistent-hash ring over `u64` fingerprints.
#[derive(Debug, Clone)]
pub struct Ring {
    nodes: Vec<String>,
    vnodes: u32,
    seed: u64,
    /// `(point, node index)`, sorted by point.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Place `nodes` on the circle at `vnodes` points each.
    pub fn new(nodes: &[String], vnodes: u32, seed: u64) -> Ring {
        let mut points = Vec::with_capacity(nodes.len() * vnodes as usize);
        for (ni, name) in nodes.iter().enumerate() {
            // Each node's point stream depends only on (seed, name, v):
            // membership changes move nobody else's points, which *is*
            // the minimal-disruption property.
            let base = mix(seed ^ fnv1a(name.as_bytes()));
            for v in 0..vnodes {
                points.push((mix(base ^ u64::from(v)), ni as u32));
            }
        }
        points.sort_unstable();
        Ring {
            nodes: nodes.to_vec(),
            vnodes,
            seed,
            points,
        }
    }

    /// Ring membership, construction order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The owning node index for a fingerprint: the first point at or
    /// after it, wrapping past the top of the circle.
    pub fn owner_of(&self, fingerprint: u64) -> usize {
        assert!(!self.points.is_empty(), "owner_of() on an empty ring");
        let start = self.points.partition_point(|&(p, _)| p < fingerprint);
        self.points[start % self.points.len()].1 as usize
    }

    /// The first `n` *distinct* owners clockwise from the fingerprint —
    /// the failover order. Panics on an empty ring.
    pub fn owners(&self, fingerprint: u64, n: usize) -> Vec<usize> {
        assert!(!self.points.is_empty(), "owners() on an empty ring");
        let start = self.points.partition_point(|&(p, _)| p < fingerprint);
        let want = n.min(self.nodes.len()).max(1);
        let mut order = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let (_, ni) = self.points[(start + i) % self.points.len()];
            let ni = ni as usize;
            if !order.contains(&ni) {
                order.push(ni);
                if order.len() == want {
                    break;
                }
            }
        }
        order
    }

    /// The ring after removing `name` — surviving nodes keep their
    /// exact points, so only keys the removed node owned move.
    pub fn without(&self, name: &str) -> Ring {
        let rest: Vec<String> = self
            .nodes
            .iter()
            .filter(|n| n.as_str() != name)
            .cloned()
            .collect();
        Ring::new(&rest, self.vnodes, self.seed)
    }

    /// Distinct keys each node owns out of `fingerprints` (skew checks).
    pub fn ownership_counts(&self, fingerprints: &[u64]) -> Vec<u64> {
        let mut counts = vec![0u64; self.nodes.len()];
        for &fp in fingerprints {
            counts[self.owner_of(fp)] += 1;
        }
        counts
    }
}

/// Per-node forwarding counters.
#[derive(Default)]
struct NodeStats {
    forwarded: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    failovers: AtomicU64,
}

/// The key → node assignment table behind the ring-occupancy gauges.
struct Assigned {
    /// Last node each tracked fingerprint was served by (bounded by
    /// [`ASSIGNED_TRACK_CAP`]).
    node_of: BTreeMap<u64, u32>,
    /// Tracked fingerprints per node, kept in step with `node_of` so a
    /// gauge sample never walks the map.
    per_node: Vec<u64>,
}

/// The routing brain: ring, per-node stats, and the key → node
/// assignment table behind the ring-occupancy gauges.
pub struct Router {
    config: RouterConfig,
    ring: Ring,
    stats: Vec<NodeStats>,
    forwarded: AtomicU64,
    /// Forwards a reactor wrote to an upstream itself / forwards a
    /// [`Forwarder`] worker picked up (first sends and re-submissions).
    forwards_reactor: AtomicU64,
    forwards_pool: AtomicU64,
    assigned: Mutex<Assigned>,
    injector: Option<Arc<Injector>>,
}

impl Router {
    /// A router over `config.nodes`; the injector (when present) powers
    /// the `partition` chaos site.
    pub(crate) fn new(config: RouterConfig, injector: Option<Arc<Injector>>) -> Router {
        let ring = Ring::new(&config.nodes, config.vnodes.max(1), config.seed);
        let stats = config.nodes.iter().map(|_| NodeStats::default()).collect();
        let assigned = Assigned {
            node_of: BTreeMap::new(),
            per_node: vec![0; config.nodes.len()],
        };
        Router {
            config,
            ring,
            stats,
            forwarded: AtomicU64::new(0),
            forwards_reactor: AtomicU64::new(0),
            forwards_pool: AtomicU64::new(0),
            assigned: Mutex::new(assigned),
            injector,
        }
    }

    /// Total predicts handed to the forwarder.
    pub(crate) fn forwarded_total(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// The configuration this router was built from.
    pub(crate) fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The node order to try for one forward: the fingerprint's ring
    /// owners, first owner first, and nothing else. Empty only when no
    /// node is configured. Called once per predict, whichever entry
    /// then carries it.
    pub(crate) fn route(&self, fingerprint: u64) -> Vec<usize> {
        self.forwarded.fetch_add(1, Ordering::Relaxed);
        if self.config.nodes.is_empty() {
            return Vec::new();
        }
        // Two owners: the first, and the one a forward fails over to.
        self.ring.owners(fingerprint, 2)
    }

    /// One forward is on its way to `node`; `on_reactor` says which of
    /// the two entries wrote it.
    pub(crate) fn note_sent(&self, node: usize, on_reactor: bool) {
        self.stats[node].forwarded.fetch_add(1, Ordering::Relaxed);
        if on_reactor {
            self.forwards_reactor.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `node` answered a forward of `fingerprint` (a success or a
    /// definitive rejection): count it and record the assignment.
    pub(crate) fn note_served(&self, fingerprint: u64, node: usize) {
        self.stats[node].ok.fetch_add(1, Ordering::Relaxed);
        let mut assigned = self.assigned.lock();
        let Assigned { node_of, per_node } = &mut *assigned;
        let node = node as u32;
        if let Some(prev) = node_of.get_mut(&fingerprint) {
            if *prev != node {
                per_node[*prev as usize] -= 1;
                per_node[node as usize] += 1;
                *prev = node;
            }
        } else if node_of.len() < ASSIGNED_TRACK_CAP {
            node_of.insert(fingerprint, node);
            per_node[node as usize] += 1;
        }
    }

    /// Distinct keys currently assigned to each node; the sum over
    /// nodes equals the total distinct keys this router has served
    /// (up to [`ASSIGNED_TRACK_CAP`]).
    pub(crate) fn keys_per_node(&self) -> Vec<u64> {
        self.assigned.lock().per_node.clone()
    }

    /// The `cluster` metrics section.
    pub(crate) fn to_json(&self) -> JsonValue {
        let keys = self.keys_per_node();
        let keys_total: u64 = keys.iter().sum();
        let c = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
        let nodes: Vec<JsonValue> = self
            .config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                JsonValue::object([
                    ("addr".to_string(), JsonValue::from(addr.as_str())),
                    ("forwarded".to_string(), c(&self.stats[i].forwarded)),
                    ("ok".to_string(), c(&self.stats[i].ok)),
                    ("errors".to_string(), c(&self.stats[i].errors)),
                    ("failovers".to_string(), c(&self.stats[i].failovers)),
                    ("keys".to_string(), JsonValue::from(keys[i])),
                ])
            })
            .collect();
        JsonValue::object([
            (
                "ring".to_string(),
                JsonValue::object([
                    (
                        "nodes".to_string(),
                        JsonValue::Array(
                            self.config
                                .nodes
                                .iter()
                                .map(|n| JsonValue::from(n.as_str()))
                                .collect(),
                        ),
                    ),
                    (
                        "vnodes".to_string(),
                        JsonValue::from(u64::from(self.ring.vnodes)),
                    ),
                    ("seed".to_string(), JsonValue::from(self.ring.seed)),
                ]),
            ),
            ("nodes".to_string(), JsonValue::Array(nodes)),
            ("keys_total".to_string(), JsonValue::from(keys_total)),
            (
                "forwards".to_string(),
                JsonValue::object([
                    ("reactor".to_string(), c(&self.forwards_reactor)),
                    ("pool".to_string(), c(&self.forwards_pool)),
                ]),
            ),
        ])
    }
}

/// How a forward ended.
pub(crate) enum ForwardOutcome {
    /// Some node answered: the raw reply frame, newline stripped,
    /// relayed verbatim (successes *and* definitive rejections).
    Reply(String),
    /// Every owner failed transiently; the last failure, described.
    Failed(String),
}

/// One predict to relay: the raw request line, its ring coordinate and
/// the owner order [`Router::route`] chose for it.
pub(crate) struct Forward {
    /// The raw request line (no newline).
    pub line: String,
    /// Cache-key fingerprint — the ring coordinate.
    pub fingerprint: u64,
    /// Nodes to try, first owner first.
    pub order: Vec<usize>,
    /// Caller token echoed into the completion.
    pub token: u64,
}

/// A [`Forward`] for a pool worker, with the completion callback back
/// into the reactor.
pub(crate) struct ForwardJob {
    pub forward: Forward,
    /// How the reactor's own attempt on the first owner failed, when it
    /// made one: the worker resumes from there
    /// ([`RetryClient::call_raw_after`]) instead of starting over.
    pub failed: Option<Transient>,
    /// Completion delivery; must not block.
    pub done: Box<dyn FnOnce(u64, ForwardOutcome) + Send>,
}

/// Open one upstream connection to node `node` for a reactor: the
/// blocking half (resolve, connect within `connect_timeout_ms`) runs on
/// a pool worker, which hands the nonblocking stream — or the error —
/// to `done`.
pub(crate) struct ConnectJob {
    pub node: usize,
    /// Completion delivery; must not block.
    pub done: Box<dyn FnOnce(std::io::Result<TcpStream>) + Send>,
}

/// What a [`Forwarder`] worker can be asked to do.
pub(crate) enum PoolJob {
    Forward(ForwardJob),
    Connect(ConnectJob),
}

/// The forwarder pool: worker threads pulling jobs off a bounded queue,
/// each holding lazily-built per-node [`RetryClient`]s.
pub(crate) struct Forwarder {
    tx: Mutex<Option<SyncSender<PoolJob>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Forwarder {
    /// Start the worker pool for `router`.
    pub(crate) fn spawn(router: Arc<Router>) -> Forwarder {
        let (tx, rx) = sync_channel::<PoolJob>(router.config.forward_queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for w in 0..router.config.forward_workers.max(1) {
            let rx = Arc::clone(&rx);
            let router = Arc::clone(&router);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rvhpc-serve-fwd-{w}"))
                    .spawn(move || forward_loop(w as u64, &router, &rx))
                    .expect("spawn forwarder thread"),
            );
        }
        Forwarder {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
        }
    }

    /// Enqueue one job; false when the queue is full or draining (the
    /// job is dropped, its completion uncalled) — the caller sheds a
    /// forward with an `overloaded` reply, exactly like a full shard
    /// queue, and treats a connect as failed.
    pub(crate) fn submit(&self, job: PoolJob) -> bool {
        let tx = self.tx.lock();
        tx.as_ref().is_some_and(|tx| tx.try_send(job).is_ok())
    }

    /// Stop accepting, let queued jobs finish, join the workers.
    pub(crate) fn drain(&self) {
        self.tx.lock().take();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

fn connect_upstream(router: &Router, node: usize) -> std::io::Result<TcpStream> {
    let name = &router.config.nodes[node];
    let addr = name.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("'{name}' resolves to nothing"),
        )
    })?;
    let timeout = Duration::from_millis(router.config.connect_timeout_ms);
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

fn forward_loop(worker: u64, router: &Router, rx: &Mutex<Receiver<PoolJob>>) {
    let mut clients: HashMap<usize, RetryClient> = HashMap::new();
    loop {
        // Hold the receiver lock only while pulling one job.
        let job = match rx.lock().recv() {
            Ok(PoolJob::Forward(job)) => job,
            Ok(PoolJob::Connect(job)) => {
                (job.done)(connect_upstream(router, job.node));
                continue;
            }
            Err(_) => return,
        };
        let ForwardJob {
            forward:
                Forward {
                    line,
                    fingerprint,
                    order,
                    token,
                },
            mut failed,
            done,
        } = job;
        router.forwards_pool.fetch_add(1, Ordering::Relaxed);
        // Option-wrapped so one completion fires exactly once whether a
        // node answers mid-loop or every owner fails.
        let mut done = Some(done);
        let mut last = "no cluster nodes configured".to_string();
        for (hop, &ni) in order.iter().enumerate() {
            // Chaos: the partition site declares the primary owner
            // unreachable, forcing the same failover walk a dead node
            // would — deterministically, under the plan's schedule.
            if hop == 0 && order.len() > 1 {
                if let Some(inj) = &router.injector {
                    if inj.roll(FaultSite::Partition).is_some() {
                        router.stats[ni].failovers.fetch_add(1, Ordering::Relaxed);
                        note_recovery("partition-reroute", ni as u64);
                        last = format!("partitioned from {}", router.config.nodes[ni]);
                        continue;
                    }
                }
            }
            let client = clients.entry(ni).or_insert_with(|| {
                RetryClient::new(ClientConfig {
                    addr: router.config.nodes[ni].clone(),
                    connect_timeout: Duration::from_millis(router.config.connect_timeout_ms),
                    read_timeout: Duration::from_millis(router.config.read_timeout_ms),
                    max_attempts: router.config.attempts_per_node.max(1),
                    // Distinct deterministic jitter stream per
                    // (seed, worker, node) — chaos runs stay replayable.
                    jitter_seed: mix(router.config.seed ^ (worker << 32) ^ ni as u64),
                    ..ClientConfig::default()
                })
            });
            // A resumed forward was already counted against its first
            // owner when the reactor sent it.
            let failed = failed.take();
            if failed.is_none() {
                router.note_sent(ni, false);
            }
            match client.call_raw_after(&line, failed) {
                Ok(raw) => {
                    router.note_served(fingerprint, ni);
                    if let Some(done) = done.take() {
                        done(token, ForwardOutcome::Reply(raw));
                    }
                    break;
                }
                Err(e) => {
                    router.stats[ni].errors.fetch_add(1, Ordering::Relaxed);
                    last = e.to_string();
                    if hop + 1 < order.len() {
                        router.stats[ni].failovers.fetch_add(1, Ordering::Relaxed);
                        note_recovery("node-failover", ni as u64);
                    }
                }
            }
        }
        if let Some(done) = done.take() {
            done(token, ForwardOutcome::Failed(last));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node{i}:71{i:02}")).collect()
    }

    #[test]
    fn assignment_is_total_and_deterministic() {
        let ring = Ring::new(&names(4), 64, 7);
        let again = Ring::new(&names(4), 64, 7);
        for i in 0..1000u64 {
            let fp = mix(i);
            let owner = ring.owner_of(fp);
            assert!(owner < 4);
            assert_eq!(owner, again.owner_of(fp), "same seed, same assignment");
        }
    }

    #[test]
    fn owner_of_is_the_first_of_owners() {
        let ring = Ring::new(&names(5), 64, 9);
        for i in 0..2000u64 {
            let fp = mix(i);
            assert_eq!(ring.owner_of(fp), ring.owners(fp, 3)[0]);
        }
        // Past the last point the circle wraps to the first.
        assert_eq!(ring.owner_of(u64::MAX), ring.owners(u64::MAX, 1)[0]);
    }

    /// Routing is the ring: a key's hundredth forward goes where its
    /// first did.
    #[test]
    fn route_is_the_ring_owners_on_every_call() {
        let config = RouterConfig::new(names(3));
        let ring = Ring::new(&config.nodes, config.vnodes, config.seed);
        let router = Router::new(config, None);
        for i in 0..2000u64 {
            let fp = mix(i);
            let owners = ring.owners(fp, 2);
            for call in 1..=100 {
                assert_eq!(router.route(fp), owners, "call {call} of key {i}");
            }
        }
        assert_eq!(router.forwarded_total(), 200_000);
    }

    #[test]
    fn key_gauges_follow_reassignment_and_saturate_at_the_cap() {
        let router = Router::new(RouterConfig::new(names(3)), None);
        router.note_served(7, 0);
        router.note_served(8, 0);
        router.note_served(7, 0);
        assert_eq!(router.keys_per_node(), [2, 0, 0]);
        // A failover serves key 7 from node 2: the key moves, the sum
        // does not.
        router.note_served(7, 2);
        assert_eq!(router.keys_per_node(), [1, 0, 1]);
        for fp in 0..ASSIGNED_TRACK_CAP as u64 + 100 {
            router.note_served(mix(fp) | 1 << 40, 1);
        }
        let keys = router.keys_per_node();
        assert_eq!(keys.iter().sum::<u64>(), ASSIGNED_TRACK_CAP as u64);
        // A tracked key still moves once the table is full.
        router.note_served(8, 1);
        assert_eq!(router.keys_per_node()[0], 0);
        assert_eq!(
            router.keys_per_node().iter().sum::<u64>(),
            ASSIGNED_TRACK_CAP as u64
        );
    }

    #[test]
    fn owners_walk_distinct_nodes() {
        let ring = Ring::new(&names(3), 32, 1);
        for i in 0..200u64 {
            let order = ring.owners(mix(i), 3);
            assert_eq!(order.len(), 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "owner order must be distinct: {order:?}");
        }
    }

    #[test]
    fn removal_only_moves_the_dead_nodes_keys() {
        let nodes = names(5);
        let ring = Ring::new(&nodes, 64, 3);
        let smaller = ring.without(&nodes[2]);
        for i in 0..2000u64 {
            let fp = mix(i ^ 0xabcd);
            let before = ring.owner_of(fp);
            if nodes[before] == nodes[2] {
                continue; // the dead node's keys may go anywhere
            }
            let after = smaller.owner_of(fp);
            assert_eq!(
                nodes[before],
                smaller.nodes()[after],
                "a surviving node's key moved on membership change"
            );
        }
    }
}
