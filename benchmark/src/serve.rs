//! The three serve workloads: in-process `rvhpc-serve` servers on
//! loopback, driven closed-loop by blocking generator threads.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rvhpc_core::engine::{Engine, EngineMetrics};
use rvhpc_obs::json::{self, JsonValue};
use rvhpc_serve::proto::{self, Request};
use rvhpc_serve::{request_drain, reset_drain, RouterConfig, Server, ServerConfig};

use crate::gen::{self, Schedule};
use crate::metrics::Report;
use crate::spans::{Recorder, Span};
use crate::stats::Better;
use crate::{layers_bench, layers_core, layers_serve, stats, sys, Args, Outcome};

/// Every this-many-th reply is kept and compared byte for byte with the
/// line rendered in-process.
const SAMPLE_EVERY: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Churn,
    Routed,
}

impl Kind {
    fn of(workload: &str) -> Kind {
        match workload {
            "serve_hot" => Kind::Hot,
            "serve_churn" => Kind::Churn,
            "serve_routed" => Kind::Routed,
            other => unreachable!("{other} is not a serve workload"),
        }
    }

    /// Timed requests at the reference run length, sized on the 2-vCPU
    /// reference sandbox so the timed phase takes 8–9 s there.
    fn base_requests(self) -> usize {
        match self {
            Kind::Hot => 380_000,
            Kind::Churn => 230_000,
            Kind::Routed => 155_000,
        }
    }

    pub fn hot_cache_cap(self) -> usize {
        match self {
            Kind::Churn => gen::CHURN_CACHE_CAP,
            Kind::Hot | Kind::Routed => 0,
        }
    }

    fn schedule(self, seed: u64, requests: usize) -> Schedule {
        match self {
            Kind::Churn => gen::churn_schedule(seed, requests),
            Kind::Hot | Kind::Routed => gen::hot_schedule(seed, requests),
        }
    }
}

/// The servers of one workload.
pub struct Fleet {
    /// Where clients connect: the server, or the router.
    pub front: SocketAddr,
    /// `serve_routed`: the node servers behind the router.
    pub nodes: Vec<SocketAddr>,
    /// The engines that resolve predictions (one per serving node).
    pub engines: Vec<&'static Engine>,
    servers: Vec<JoinHandle<JsonValue>>,
    store_dir: Option<PathBuf>,
}

impl Fleet {
    fn start(kind: Kind) -> Fleet {
        reset_drain();
        let config = || ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: 1,
            shards: 1,
            pool_threads: 1,
            queue_cap: 128,
            sample_interval_ms: 0,
            slow_us: None,
            faults: None,
            ..ServerConfig::default()
        };
        let mut servers = Vec::new();
        let mut boot = |config: ServerConfig| {
            // Leaked on purpose: `bind_on` wants `'static`, and the
            // benchmark reads the engine's counters after the run.
            let engine: &'static Engine = Box::leak(Box::new(Engine::new()));
            let server = Server::bind_on(config, engine).expect("bind benchmark server");
            let addr = server.local_addr();
            let handle = std::thread::Builder::new()
                .name("bench-server".into())
                .spawn(move || server.run().expect("benchmark server run"))
                .expect("spawn server thread");
            servers.push(handle);
            (addr, engine)
        };
        let mut store_dir = None;
        let (front, nodes, engines) = match kind {
            Kind::Hot => {
                let (front, engine) = boot(config());
                (front, Vec::new(), vec![engine])
            }
            Kind::Churn => {
                let dir = crate::scratch_dir("store");
                let (front, engine) = boot(ServerConfig {
                    hot_cache_cap: kind.hot_cache_cap(),
                    store_dir: Some(dir.clone()),
                    ..config()
                });
                store_dir = Some(dir);
                (front, Vec::new(), vec![engine])
            }
            Kind::Routed => {
                let (nodes, engines): (Vec<_>, Vec<_>) = (0..2).map(|_| boot(config())).unzip();
                let route = RouterConfig {
                    forward_workers: 2,
                    ..RouterConfig::new(nodes.iter().map(|a| a.to_string()).collect())
                };
                // The router's own engine resolves nothing.
                let (front, _) = boot(ServerConfig {
                    route: Some(route),
                    ..config()
                });
                (front, nodes, engines)
            }
        };
        Fleet {
            front,
            nodes,
            engines,
            servers,
            store_dir,
        }
    }

    /// Drain every server, wait for its threads, remove the store.
    fn stop(self) {
        request_drain();
        for server in self.servers {
            server.join().expect("server thread panicked");
        }
        reset_drain();
        if let Some(dir) = self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    pub fn engine_metrics(&self) -> Vec<EngineMetrics> {
        self.engines.iter().map(|e| e.metrics()).collect()
    }

    /// `(predictions read from the disk tier, predictions computed)` so
    /// far, over every serving engine.
    fn tier_counts(&self) -> (u64, u64) {
        let disk: u64 = self
            .engines
            .iter()
            .filter_map(|e| e.store())
            .map(|s| s.metrics().hits)
            .sum();
        let computed = self
            .engines
            .iter()
            .map(|e| e.metrics().prediction_misses)
            .sum();
        (disk, computed)
    }
}

/// One blocking connection: write a line, read the reply line.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    pub reply: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to benchmark server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
            out: Vec::with_capacity(256),
            reply: String::with_capacity(256),
        }
    }

    /// Send `prefix` + `id` + `}` and read the reply into `self.reply`
    /// (newline stripped).
    pub fn call(&mut self, prefix: &str, id: u64) {
        self.out.clear();
        writeln!(self.out, "{prefix}{id}}}").expect("write to buffer");
        self.call_raw();
    }

    pub fn call_line(&mut self, line: &str) {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.call_raw();
    }

    fn call_raw(&mut self) {
        self.writer.write_all(&self.out).expect("send request");
        self.reply.clear();
        let n = self.reader.read_line(&mut self.reply).expect("read reply");
        assert!(n > 0, "server closed the connection");
        if self.reply.ends_with('\n') {
            self.reply.pop();
        }
    }
}

/// `"ok":true` with the echoed `id`. The wire writer sorts keys, so a
/// predict reply reads `{"id":N,"ok":true,"result":{...}}`.
fn reply_ok(reply: &str, id: u64) -> bool {
    reply
        .strip_prefix("{\"id\":")
        .and_then(|r| r.split_once(','))
        .is_some_and(|(digits, rest)| digits.parse() == Ok(id) && rest.starts_with("\"ok\":true,"))
}

/// The reply the server must give to `line`, rendered in-process through
/// the same public functions. Predict replies are pure, so hot,
/// disk-restored and routed replies must all equal this.
pub fn expected_reply(engine: &Engine, line: &str) -> String {
    let Ok(Request::Predict(req)) = proto::parse_request(line) else {
        panic!("generated line is not a predict: {line}");
    };
    let (plan, _) = req.to_plan();
    let pred = engine
        .execute_with_jobs(&plan, 1)
        .pop()
        .expect("single-query plan");
    proto::render_ok(req.id, proto::prediction_result(&req, &pred))
}

/// How many sampled `(request line, reply)` pairs differ from the
/// in-process render.
fn mismatches(samples: &[(String, String)]) -> u64 {
    let engine = Engine::new();
    samples
        .iter()
        .filter(|(line, reply)| expected_reply(&engine, line) != *reply)
        .count() as u64
}

/// Servers up, connections open, caches warm.
pub struct State {
    pub schedule: Schedule,
    pub fleet: Fleet,
    clients: Vec<Client>,
    /// Replies checked / found wrong during warm-up.
    attempted: u64,
    failed: u64,
}

fn setup(kind: Kind, seed: u64, requests: usize, lanes: usize) -> State {
    let schedule = kind.schedule(seed, requests);
    let fleet = Fleet::start(kind);
    let mut clients: Vec<Client> = (0..lanes).map(|_| Client::connect(fleet.front)).collect();
    let mut failed = 0;
    let mut warm = |client: &mut Client| {
        for i in 0..schedule.prologue {
            client.call(&schedule.keys[schedule.order[i] as usize], i as u64);
            failed += u64::from(!reply_ok(&client.reply, i as u64));
        }
    };
    warm(&mut clients[0]);
    // The router replicates keys it sees often onto the second owner;
    // warm both nodes so that hand-over meets no cold cache mid-run.
    for &node in &fleet.nodes {
        warm(&mut Client::connect(node));
    }
    let attempted = (schedule.prologue * (1 + fleet.nodes.len())) as u64;
    State {
        schedule,
        fleet,
        clients,
        attempted,
        failed,
    }
}

fn teardown(state: State) {
    drop(state.clients);
    state.fleet.stop();
}

/// One timed pass over a range of the schedule.
pub struct Pass {
    /// Client-observed write→reply-line latency, request order.
    pub lat_us: Vec<f64>,
    /// Completion time of each request, seconds since the pass began.
    pub end_s: Vec<f64>,
    pub failed: u64,
    /// `(request line, reply)` of every [`SAMPLE_EVERY`]-th request.
    pub sampled: Vec<(String, String)>,
    pub wall_s: f64,
    pub client_cpu_s: f64,
    /// Per block: process CPU minus the generator threads' CPU, in
    /// microseconds per request.
    pub block_cpu_us: Vec<f64>,
    /// Generator threads' spans (empty unless traced).
    pub spans: Vec<Vec<Span>>,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        stats::best(&self.block_rates(), Better::Higher)
    }

    pub fn p50_us(&self) -> f64 {
        stats::best(&stats::block_quantiles(&self.lat_us, 0.5), Better::Lower)
    }

    pub fn p99_us(&self) -> f64 {
        stats::best(&stats::block_quantiles(&self.lat_us, 0.99), Better::Lower)
    }

    pub fn block_rates(&self) -> Vec<f64> {
        stats::block_rates(&self.end_s, &vec![1.0; self.end_s.len()])
    }
}

/// Send requests `range` of the schedule and check that the cache
/// tiers served them as the workload says: every old re-read from disk,
/// every new key computed, everything else from memory.
fn drive(state: &mut State, range: Range<usize>, traced: bool) -> Pass {
    let before = state.fleet.tier_counts();
    let mut pass = send(state, range.clone(), traced);
    let after = state.fleet.tier_counts();
    let of_kind = |kind| {
        let kinds = state.schedule.kinds.get(range.clone()).unwrap_or(&[]);
        kinds.iter().filter(|&&k| k == kind).count() as u64
    };
    pass.failed += u64::from(after.0 - before.0 != of_kind(gen::Kind::Old))
        + u64::from(after.1 - before.1 != of_kind(gen::Kind::New));
    pass
}

/// Each generator thread takes the next unsent request, so the global
/// order is the schedule's.
fn send(state: &mut State, range: Range<usize>, traced: bool) -> Pass {
    struct Lane {
        done: Vec<(usize, u64, u64)>,
        failed: u64,
        sampled: Vec<(String, String)>,
        /// `marks[b]`: this thread's and the process's CPU time when
        /// the thread first took a request of block `b` or later; one
        /// more entry for the end of the pass.
        marks: Vec<(Duration, Duration)>,
        spans: Vec<Span>,
    }
    let n = range.len();
    let schedule = &state.schedule;
    let next = AtomicUsize::new(range.start);
    let epoch = Instant::now();
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .map(|client| {
                let (next, range) = (&next, range.clone());
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, traced);
                    let mut lane = Lane {
                        done: Vec::with_capacity(range.len()),
                        failed: 0,
                        sampled: Vec::new(),
                        marks: Vec::with_capacity(stats::BLOCKS + 1),
                        spans: Vec::new(),
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let block = if i < range.end {
                            (i - range.start) * stats::BLOCKS / n
                        } else {
                            stats::BLOCKS
                        };
                        while lane.marks.len() <= block {
                            lane.marks.push((sys::thread_cpu(), sys::process_cpu()));
                        }
                        if i >= range.end {
                            break;
                        }
                        let prefix = &schedule.keys[schedule.order[i] as usize];
                        rec.enter("request", i as u64);
                        let t0 = epoch.elapsed().as_nanos() as u64;
                        client.call(prefix, i as u64);
                        let t1 = epoch.elapsed().as_nanos() as u64;
                        rec.exit();
                        lane.done.push((i, t0, t1));
                        lane.failed += u64::from(!reply_ok(&client.reply, i as u64));
                        if i % SAMPLE_EVERY == 0 {
                            lane.sampled.push((schedule.line(i), client.reply.clone()));
                        }
                    }
                    lane.spans = rec.spans().to_vec();
                    lane
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    let mut lat_us = vec![0.0; n];
    let mut end_s = vec![0.0; n];
    for &(i, t0, t1) in lanes.iter().flat_map(|l| &l.done) {
        lat_us[i - range.start] = (t1 - t0) as f64 / 1e3;
        end_s[i - range.start] = t1 as f64 / 1e9;
    }
    let client_cpu: Duration = lanes
        .iter()
        .map(|l| l.marks[stats::BLOCKS].0 - l.marks[0].0)
        .sum();
    let block_cpu_us = (0..stats::BLOCKS)
        .map(|b| {
            let process_at = |b: usize| lanes.iter().map(|l| l.marks[b].1).min().expect("a lane");
            let generators: Duration = lanes.iter().map(|l| l.marks[b + 1].0 - l.marks[b].0).sum();
            let server = (process_at(b + 1) - process_at(b)).saturating_sub(generators);
            let requests = (b + 1) * n / stats::BLOCKS - b * n / stats::BLOCKS;
            server.as_secs_f64() * 1e6 / requests as f64
        })
        .collect();
    let mut pass = Pass {
        lat_us,
        end_s,
        failed: lanes.iter().map(|l| l.failed).sum(),
        sampled: Vec::new(),
        wall_s,
        client_cpu_s: client_cpu.as_secs_f64(),
        block_cpu_us,
        spans: Vec::new(),
    };
    for lane in lanes {
        pass.sampled.extend(lane.sampled);
        pass.spans.push(lane.spans);
    }
    pass.failed += mismatches(&pass.sampled);
    pass
}

pub fn run(args: &Args) -> Outcome {
    let kind = Kind::of(&args.workload);
    if args.trace {
        return run_traced(args, kind);
    }
    let requests = args.count(kind.base_requests(), 20);
    let (mut state, setup_s) =
        crate::setup_median(|| setup(kind, args.seed, requests, args.lanes()), teardown);
    let range = state.schedule.prologue..state.schedule.order.len();
    let pass = drive(&mut state, range, false);

    let mut report = Report::default();
    let n = pass.lat_us.len() as u64;
    let blocks = stats::BLOCKS as u64;
    report.set("setup_s", setup_s, crate::SETUPS as u64);
    report.set("ops_per_s", pass.ops_per_s(), blocks);
    report.set("latency_p50_us", pass.p50_us(), n);
    report.set(
        "cpu_us_per_op",
        stats::best(&pass.block_cpu_us, Better::Lower),
        blocks,
    );
    let outcome = Outcome {
        attempted: state.attempted + n,
        failed: state.failed + pass.failed,
        report,
    };
    teardown(state);
    outcome
}

/// The server's own metrics document, through the admin op.
pub fn admin_metrics(front: SocketAddr) -> JsonValue {
    let mut admin = Client::connect(front);
    admin.call_line("{\"op\":\"metrics\"}");
    let doc = json::parse(&admin.reply).expect("metrics reply is JSON");
    doc.get("result").expect("metrics result").clone()
}

fn num(doc: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metrics document lacks {path:?}"))
}

/// The traced run: the workload at a quarter of its counts, once with
/// span recording off and once with it on, then the layers one by one.
fn run_traced(args: &Args, kind: Kind) -> Outcome {
    let mut report = layers_bench::probe();

    let quarter = args.count(kind.base_requests(), 20);
    let mut state = setup(kind, args.seed, 2 * quarter, args.lanes());
    let start = state.schedule.prologue;

    let engines_before = state.fleet.engine_metrics();
    let store_before = state.fleet.engines[0].store().map(|s| s.metrics());
    let switches_before = sys::ctx_switches();
    let plain = drive(&mut state, start..start + quarter, false);
    let switches = sys::ctx_switches() - switches_before;
    let engines_after = state.fleet.engine_metrics();
    let store_after = state.fleet.engines[0].store().map(|s| s.metrics());
    let server_doc = admin_metrics(state.fleet.front);
    let traced = drive(&mut state, start + quarter..start + 2 * quarter, true);

    let n = quarter as f64;
    report.set("bench.client_cpu_s", plain.client_cpu_s, 1);
    layers_bench::headline(
        &mut report,
        plain.wall_s,
        (plain.ops_per_s(), traced.ops_per_s()),
        quarter as u64,
        &plain.block_rates(),
    );
    let client_p50 = plain.p50_us();
    let service = |q| num(&server_doc, &["server", "service_latency", q]);
    let requests = |k| num(&server_doc, &["server", "requests", k]);
    report.set("serve.server.client_p50_us", client_p50, quarter as u64);
    report.set("serve.server.client_p99_us", plain.p99_us(), quarter as u64);
    report.set(
        "serve.server.service_p50_us",
        service("p50_us"),
        service("count") as u64,
    );
    report.set(
        "serve.server.service_p99_us",
        service("p99_us"),
        service("count") as u64,
    );
    report.set(
        "serve.server.ctx_switches_per_req",
        switches as f64 / n,
        quarter as u64,
    );
    report.set("serve.server.requests_ok", requests("ok"), 1);
    report.set(
        "serve.server.deadline_expired",
        requests("deadline_expired"),
        1,
    );
    report.set(
        "serve.server.internal_errors",
        requests("internal_errors"),
        1,
    );
    report.set("serve.batch.shed", requests("rejected_admission"), 1);

    let delta = |f: fn(&EngineMetrics) -> u64| -> f64 {
        let sum = |ms: &[EngineMetrics]| ms.iter().map(f).sum::<u64>();
        (sum(&engines_after) - sum(&engines_before)) as f64
    };
    let probes = delta(|m| m.prediction_hits) + delta(|m| m.prediction_misses);
    report.set(
        "core.engine.hit_ratio",
        delta(|m| m.prediction_hits) / probes,
        probes as u64,
    );
    report.set("core.engine.dedup_ratio", 1.0 - probes / n, quarter as u64);
    report.set(
        "serve.batch.jobs_per_batch",
        n / delta(|m| m.batches),
        quarter as u64,
    );
    let capacity = delta(|m| m.capacity);
    let occupancy = if capacity > 0.0 {
        delta(|m| m.executed) / capacity
    } else {
        1.0
    };
    report.set("core.engine.occupancy", occupancy, capacity as u64);
    if let (Some(before), Some(after)) = (store_before, store_after) {
        report.set("core.store.hits", (after.hits - before.hits) as f64, 1);
        report.set(
            "core.store.appends",
            (after.appends - before.appends) as f64,
            1,
        );
        let section = state.fleet.engines[0]
            .store_section()
            .expect("store attached");
        report.set(
            "core.engine.evictions",
            num(&section, &["hot", "evictions"]),
            1,
        );
    }

    if kind == Kind::Routed {
        layers_serve::cluster(&mut report, &state, client_p50);
    }
    let lines: Vec<String> = (start..start + quarter.min(layers_serve::REPLAY_LINES))
        .map(|i| state.schedule.line(i))
        .collect();
    // Stop the servers before the in-process layers run, so nothing
    // else wakes up on the pinned CPU while they are timed.
    let (attempted, failed) = (state.attempted, state.failed);
    teardown(state);
    let replay = layers_serve::replay(&mut report, kind, &lines);
    layers_serve::poll(&mut report);
    layers_core::plan(&mut report, args.seed);
    layers_core::engine(&mut report, args.seed);
    if kind == Kind::Churn {
        layers_core::store(&mut report, args.seed);
    }
    layers_core::obs(&mut report, &server_doc);

    // By construction: what the client saw, minus every part an outside
    // call can isolate, is what the reactor's read/frame/flush path and
    // the scheduler cost.
    let isolated = ["parse_ns", "to_plan_ns", "render_ns", "write_frame_ns"]
        .iter()
        .map(|k| {
            report
                .get(&format!("serve.proto.{k}"))
                .expect("proto layer ran")
                / 1e3
        })
        .sum::<f64>()
        + report
            .get("serve.batch.roundtrip_us")
            .expect("batch layer ran")
        + report
            .get("bench.loopback_rtt_us")
            .expect("bench layer ran");
    report.set(
        "serve.server.residual_us",
        client_p50 - isolated,
        quarter as u64,
    );

    let mut threads: Vec<(u32, &[Span])> = traced
        .spans
        .iter()
        .enumerate()
        .map(|(t, s)| (t as u32 + 1, s.as_slice()))
        .collect();
    threads.push((100, &replay));
    crate::write_trace(args, &threads);

    Outcome {
        attempted: attempted + 2 * quarter as u64,
        failed: failed + plain.failed + traced.failed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_check_wants_ok_and_the_echoed_id() {
        assert!(reply_ok(r#"{"id":42,"ok":true,"result":{"mops":1.5}}"#, 42));
        assert!(!reply_ok(
            r#"{"id":42,"ok":true,"result":{"mops":1.5}}"#,
            43
        ));
        assert!(!reply_ok(r#"{"ok":true,"result":{"mops":1.5}}"#, 42));
        assert!(!reply_ok(
            r#"{"error":{"kind":"overloaded","message":"x"},"id":42,"ok":false}"#,
            42
        ));
        assert!(!reply_ok(
            r#"{"id":42,"ok":false,"error":{"kind":"internal","message":"x"}}"#,
            42
        ));
    }

    #[test]
    fn a_corrupted_reply_fails_the_run() {
        let line = gen::hot_schedule(9, 10).line(3);
        let good = expected_reply(&Engine::new(), &line);
        assert!(reply_ok(&good, 3));
        assert_eq!(mismatches(&[(line.clone(), good.clone())]), 0);
        // One digit of the predicted seconds flipped.
        let at = good.find("\"seconds\":").unwrap() + 10;
        let mut bad = good.into_bytes();
        bad[at] = if bad[at] == b'9' { b'8' } else { b'9' };
        let bad = String::from_utf8(bad).unwrap();
        assert_eq!(mismatches(&[(line, bad)]), 1);
    }

    /// The whole path at a small scale: real servers, real sockets.
    #[test]
    fn small_runs_of_all_three_workloads_check_every_reply() {
        // The drain flag is process-global: one test boots servers.
        for kind in [Kind::Hot, Kind::Churn, Kind::Routed] {
            let mut state = setup(kind, 4, 2000, 2);
            let range = state.schedule.prologue..state.schedule.order.len();
            let pass = drive(&mut state, range, false);
            assert_eq!(pass.lat_us.len(), 2000);
            assert_eq!(pass.failed + state.failed, 0, "{kind:?}");
            assert_eq!(pass.sampled.len(), 2000 / SAMPLE_EVERY, "{kind:?}");
            assert!(pass.end_s.iter().all(|&t| t > 0.0));
            if kind == Kind::Churn {
                let store = state.fleet.engines[0].store().unwrap().metrics();
                let old = state.schedule.kinds[state.schedule.prologue..]
                    .iter()
                    .filter(|&&k| k == gen::Kind::Old)
                    .count() as u64;
                assert_eq!(store.hits, old, "every old re-read is a disk hit");
            }
            teardown(state);
        }
    }
}
