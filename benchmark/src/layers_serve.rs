//! The `serve.*` layers, each measured around calls into its public
//! functions with the servers stopped.

use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{channel, sync_channel};
use std::time::Instant;

use rvhpc_core::engine::Engine;
use rvhpc_serve::batch::{Batcher, Job, ReplySink};
use rvhpc_serve::poll::{self, Interest, Poller};
use rvhpc_serve::proto::{self, Priority, Request};
use rvhpc_serve::{RetryClient, Ring, RouterConfig};

use crate::metrics::Report;
use crate::serve::{Client, Kind, State};
use crate::spans::{self, Recorder, Span};
use crate::stats;

/// Request lines replayed in-process for the proto/batch layers.
pub const REPLAY_LINES: usize = 20_000;
const WAKE_ROUNDS: usize = 2000;
const DIRECT_ROUNDS: usize = 5000;

/// Replay the workload's own request lines through the public functions
/// the reactor calls, one `request` span each with the layers as
/// children. Sets `serve.proto.*` and `serve.batch.*` from the spans'
/// self times and returns the spans for the trace file.
pub fn replay(report: &mut Report, kind: Kind, lines: &[String]) -> Vec<Span> {
    let engine: &'static Engine = Box::leak(Box::new(Engine::new()));
    engine.set_hot_capacity(kind.hot_cache_cap());
    let batcher = Batcher::new(engine, 1, 128, 1);
    let mut frame = Vec::with_capacity(512);

    // Returns the reply frame lengths.
    let mut pass = |rec: &mut Recorder| -> Vec<f64> {
        let mut reply_bytes = Vec::with_capacity(lines.len());
        for (op, line) in lines.iter().enumerate() {
            let op = op as u64;
            let (tx, rx) = sync_channel(1);
            rec.enter("request", op);

            rec.enter("proto.parse", op);
            let parsed = proto::parse_request(line);
            rec.exit();
            let Ok(Request::Predict(req)) = parsed else {
                panic!("generated line is not a predict: {line}");
            };

            rec.enter("proto.to_plan", op);
            let (plan, query) = req.to_plan();
            std::hint::black_box(plan.key_of(&query).fingerprint());
            rec.exit();

            rec.enter("batch.roundtrip", op);
            batcher
                .submit(Job {
                    plan,
                    query,
                    enqueued_at: Instant::now(),
                    trace_id: 0,
                    enqueued_us: rvhpc_obs::now_us(),
                    class: Priority::Interactive,
                    reply: ReplySink::Channel(tx),
                })
                .expect("one job in flight never fills the queue");
            let result = rx.recv().expect("batch worker replied");
            rec.child("batch.queue", op, 0, result.queue_us * 1000);
            rec.child(
                "batch.exec",
                op,
                result.queue_us * 1000,
                result.exec_us * 1000,
            );
            rec.exit();

            rec.enter("proto.render", op);
            let reply = proto::render_ok(req.id, proto::prediction_result(&req, &result.pred));
            rec.exit();

            rec.enter("proto.write_frame", op);
            frame.clear();
            proto::write_frame(&mut frame, &reply).expect("write to a Vec");
            rec.exit();

            rec.exit();
            reply_bytes.push(frame.len() as f64);
        }
        reply_bytes
    };
    if kind != Kind::Churn {
        // The all-hit workloads replay against a warm cache, as they run.
        pass(&mut Recorder::new(Instant::now(), false));
    }
    let mut rec = Recorder::new(Instant::now(), true);
    let reply_bytes = pass(&mut rec);
    batcher.drain();

    let n = lines.len() as u64;
    let by_name = spans::self_times_by_name(rec.spans());
    let self_ns = |name: &str| stats::median(&by_name[name]);
    report.set("serve.proto.parse_ns", self_ns("proto.parse"), n);
    report.set("serve.proto.to_plan_ns", self_ns("proto.to_plan"), n);
    report.set("serve.proto.render_ns", self_ns("proto.render"), n);
    report.set(
        "serve.proto.write_frame_ns",
        self_ns("proto.write_frame"),
        n,
    );
    let request_bytes: Vec<f64> = lines.iter().map(|l| l.len() as f64 + 1.0).collect();
    report.set(
        "serve.proto.request_bytes",
        stats::median(&request_bytes),
        n,
    );
    report.set("serve.proto.reply_bytes", stats::median(&reply_bytes), n);

    // The hand-off and back is the span as a whole; queue and exec are
    // the worker's own whole-microsecond clocks, hence means.
    let roundtrips: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "batch.roundtrip")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let mean_us = |name: &str| {
        let (sum, count) = rec
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(sum, count), s| {
                (sum + (s.end_ns - s.start_ns) as f64 / 1e3, count + 1.0)
            });
        sum / count
    };
    report.set("serve.batch.roundtrip_us", stats::median(&roundtrips), n);
    report.set("serve.batch.queue_us", mean_us("batch.queue"), n);
    report.set("serve.batch.exec_us", mean_us("batch.exec"), n);
    rec.spans().to_vec()
}

/// `serve.poll.*`: the completion-port hop (a second thread wakes a
/// poller parked in `wait`) and the cost of a `wait` that finds nothing.
pub fn poll(report: &mut Report) {
    let mut poller = Poller::new().expect("poller");
    let (waker, mut wake_rx) = poll::waker_pair().expect("waker pair");
    poller
        .register(wake_rx.as_raw_fd(), 1, Interest::READ)
        .expect("register wake channel");
    let (idle_waker, idle_rx) = poll::waker_pair().expect("idle pair");
    poller
        .register(idle_rx.as_raw_fd(), 2, Interest::READ)
        .expect("register idle fd");

    let mut events = Vec::new();
    let empty: Vec<f64> = (0..WAKE_ROUNDS)
        .map(|_| {
            let t = Instant::now();
            poller
                .wait(&mut events, Some(std::time::Duration::ZERO))
                .expect("poll");
            assert!(events.is_empty());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    report.set(
        "serve.poll.wait_empty_ns",
        stats::median(&empty),
        WAKE_ROUNDS as u64,
    );

    // Each round the main thread tells the waker thread to go, then
    // parks in `wait`; the waker stamps the time and wakes.
    let epoch = Instant::now();
    let (go_tx, go_rx) = channel::<()>();
    let (stamp_tx, stamp_rx) = channel::<u64>();
    let waker_thread = std::thread::spawn(move || {
        while go_rx.recv().is_ok() {
            let stamp = epoch.elapsed().as_nanos() as u64;
            waker.wake();
            stamp_tx.send(stamp).expect("main thread listens");
        }
    });
    let rtts: Vec<f64> = (0..WAKE_ROUNDS)
        .map(|_| {
            go_tx.send(()).expect("waker thread listens");
            poller.wait(&mut events, None).expect("poll");
            poll::drain_wakes(&mut wake_rx);
            let woke = epoch.elapsed().as_nanos() as u64;
            let stamped = stamp_rx.recv().expect("stamp");
            woke.saturating_sub(stamped) as f64 / 1e3
        })
        .collect();
    drop(go_tx);
    waker_thread.join().expect("waker thread panicked");
    report.set(
        "serve.poll.wake_rtt_us",
        stats::median(&rtts),
        WAKE_ROUNDS as u64,
    );
    drop(idle_waker);
}

/// `serve.cluster.*`, while the routed fleet is still up.
pub fn cluster(report: &mut Report, state: &State, routed_p50_us: f64) {
    let schedule = &state.schedule;
    let nodes: Vec<String> = state.fleet.nodes.iter().map(|a| a.to_string()).collect();
    let config = RouterConfig::new(nodes.clone());
    let ring = Ring::new(&nodes, config.vnodes, config.seed);
    let fingerprints: Vec<u64> = schedule
        .keys
        .iter()
        .map(|prefix| {
            let Ok(Request::Predict(req)) = proto::parse_request(&crate::gen::line(prefix, 0))
            else {
                panic!("generated line is not a predict");
            };
            let (plan, query) = req.to_plan();
            plan.key_of(&query).fingerprint()
        })
        .collect();
    let per_call_ns = |f: &dyn Fn(u64)| {
        let rounds = 20;
        let t = Instant::now();
        for _ in 0..rounds {
            fingerprints.iter().for_each(|&fp| f(fp));
        }
        t.elapsed().as_nanos() as f64 / (rounds * fingerprints.len()) as f64
    };
    let calls = 20 * fingerprints.len() as u64;
    report.set(
        "serve.cluster.owner_of_ns",
        per_call_ns(&|fp| {
            std::hint::black_box(ring.owner_of(fp));
        }),
        calls,
    );
    report.set(
        "serve.cluster.owners_ns",
        per_call_ns(&|fp| {
            std::hint::black_box(ring.owners(fp, 2));
        }),
        calls,
    );

    // The hop as the forwarder makes it, and the same keys sent straight
    // to a node by the benchmark's own client.
    let mut forwarder = RetryClient::connect(nodes[0].clone());
    let mut direct = Client::connect(state.fleet.nodes[0]);
    let mut forward_us = Vec::with_capacity(DIRECT_ROUNDS);
    let mut direct_us = Vec::with_capacity(DIRECT_ROUNDS);
    for i in 0..DIRECT_ROUNDS {
        let prefix = &schedule.keys[schedule.order[schedule.prologue + i] as usize];
        let line = crate::gen::line(prefix, i as u64);
        let t = Instant::now();
        forwarder.call_raw(&line).expect("forward to node");
        forward_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        direct.call(prefix, i as u64);
        direct_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let n = DIRECT_ROUNDS as u64;
    report.set("serve.cluster.forward_us", stats::median(&forward_us), n);
    report.set(
        "serve.cluster.hop_overhead_us",
        routed_p50_us - stats::median(&direct_us),
        n,
    );

    let doc = crate::serve::admin_metrics(state.fleet.front);
    let per_node = |key: &str| -> Vec<f64> {
        doc.get("cluster")
            .and_then(|c| c.get("nodes"))
            .and_then(|n| n.as_array())
            .expect("router exports a cluster section")
            .iter()
            .map(|node| {
                node.get(key)
                    .and_then(|v| v.as_f64())
                    .expect("node counter")
            })
            .collect()
    };
    let forwarded = per_node("forwarded");
    let (min, max) = forwarded
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    report.set(
        "serve.cluster.failovers",
        per_node("failovers").iter().sum(),
        1,
    );
    report.set(
        "serve.cluster.forward_errors",
        per_node("errors").iter().sum(),
        1,
    );
    report.set(
        "serve.cluster.node_skew",
        max / min.max(1.0),
        forwarded.len() as u64,
    );
}
