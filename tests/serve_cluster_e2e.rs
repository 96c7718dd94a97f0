//! Cluster end-to-end tests: three real `serve` node processes behind
//! an in-process router (`route` mode), driven over TCP.
//!
//! Covers the cluster acceptance criteria:
//!
//! * **Byte identity** — the same request set answered by a single
//!   standalone node and by the 3-node cluster produces byte-identical
//!   predict replies, cold and warm (the router relays the owning
//!   node's raw reply frame, and predictions are a pure function of the
//!   request).
//! * **Zero lost acks across a node kill** — a retrying load run keeps
//!   every ack while one node is SIGKILLed mid-run; the router fails
//!   the dead node's keys over to the next ring owner.
//! * **Ring-occupancy accounting** — the gated `cluster` metrics
//!   section's per-node key gauges sum to the total distinct keys the
//!   router has served.
//! * **Two forward entries, one behaviour** — a healthy forward is
//!   written and relayed by the router's reactor and reaches no
//!   forwarder thread; whatever must block goes to the pool. Scripted
//!   upstream nodes (a listener thread that reads and answers exactly
//!   what its script says) pin the hand-over cases: a mid-frame close
//!   under pipelined forwards, a deadline that expires in flight, an
//!   `overloaded` answer, a node that goes silent.
//!
//! The drain flag is process-global, so tests that boot the in-process
//! router serialize on [`SERVER_LOCK`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rvhpc::obs::{json, JsonValue};
use rvhpc::serve::{
    loadgen, reset_drain, LoadgenConfig, Mix, Ring, RouterConfig, Server, ServerConfig,
};

static SERVER_LOCK: Mutex<()> = Mutex::new(());

/// A real `serve` node process on an ephemeral port.
struct Node {
    child: Child,
    addr: String,
}

impl Node {
    fn spawn() -> Node {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve node");
        // The binary prints `rvhpc-serve listening on ADDR` (a stable
        // line; CI greps it too) before accepting.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("node prints its banner")
            .expect("read banner");
        let addr = banner
            .strip_prefix("rvhpc-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Node { child, addr }
    }

    /// Graceful stop: admin quit, then reap.
    fn quit(mut self) {
        if let Ok(stream) = TcpStream::connect(&self.addr) {
            let mut writer = stream.try_clone().unwrap();
            let _ = writeln!(writer, "{{\"op\":\"quit\"}}");
            let mut reply = String::new();
            let _ = BufReader::new(stream).read_line(&mut reply);
        }
        let _ = self.child.wait();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

type RouterHandle = std::thread::JoinHandle<JsonValue>;

fn boot(config: ServerConfig) -> (SocketAddr, RouterHandle) {
    reset_drain();
    let server = Server::bind(config).expect("bind router");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("router run"));
    (addr, handle)
}

/// Boot the in-process router over `nodes`.
fn boot_router(
    nodes: &[Node],
    tweak: impl FnOnce(&mut RouterConfig),
) -> (SocketAddr, RouterHandle) {
    let mut route = RouterConfig::new(nodes.iter().map(|n| n.addr.clone()).collect());
    tweak(&mut route);
    boot(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        route: Some(route),
        ..ServerConfig::default()
    })
}

/// A router for the scripted-upstream tests: one reactor and at most
/// one upstream connection per node, so every forward to a node shares
/// one FIFO and the script sees the lines in the order they were sent;
/// one attempt per node, so a failed owner fails over at once.
fn boot_scripted_router(
    nodes: &[&str],
    tweak: impl FnOnce(&mut RouterConfig),
) -> (SocketAddr, RouterHandle) {
    let mut route = RouterConfig::new(nodes.iter().map(|n| n.to_string()).collect());
    route.forward_workers = 1;
    route.attempts_per_node = 1;
    route.connect_timeout_ms = 200;
    tweak(&mut route);
    boot(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactors: 1,
        route: Some(route),
        ..ServerConfig::default()
    })
}

/// A scripted cluster node: `script` runs on its own thread with the
/// bound listener and does exactly what the test wrote — accept, read
/// lines, answer, hang up.
fn scripted_node(
    script: impl FnOnce(TcpListener) + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted node");
    let addr = listener.local_addr().expect("addr").to_string();
    (addr, std::thread::spawn(move || script(listener)))
}

fn accept(listener: &TcpListener) -> (BufReader<TcpStream>, TcpStream) {
    let (stream, _) = listener.accept().expect("accept");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// The next request line a scripted node receives, as its echoed id.
fn read_id(reader: &mut BufReader<TcpStream>) -> u64 {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read") > 0,
        "router hung up"
    );
    json::parse(line.trim_end())
        .expect("forwarded line is the client's JSON")
        .get("id")
        .and_then(JsonValue::as_f64)
        .expect("request carries an id") as u64
}

/// What a scripted node answers with: a well-formed `ok` frame that no
/// real node would render, so a reply's origin is visible in its bytes.
fn scripted_ok(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":\"scripted\"}}")
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(reply.ends_with('\n'), "replies are newline-terminated");
        reply.trim_end().to_string()
    }
}

/// The gated `cluster` section out of an admin metrics reply.
fn cluster_section(metrics_reply: &str) -> JsonValue {
    let doc = json::parse(metrics_reply).expect("metrics reply parses");
    doc.get("result")
        .and_then(|r| r.get("cluster"))
        .expect("router metrics carry a cluster section")
        .clone()
}

/// Distinct deterministic predict lines (the loadgen grid).
fn request_lines(count: usize) -> Vec<String> {
    (0..count)
        .map(|k| loadgen::request_line(k, Mix::Mixed, None, None))
        .collect()
}

/// The first `count` grid indices whose first ring owner, in a default
/// router over `nodes`, is node `owner`.
fn indices_owned_by(nodes: &[&str], owner: usize, count: usize) -> Vec<usize> {
    let nodes: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    let defaults = RouterConfig::new(nodes.clone());
    let ring = Ring::new(&nodes, defaults.vnodes, defaults.seed);
    (0..)
        .filter(|&k| {
            let line = loadgen::request_line(k, Mix::Mixed, None, None);
            ring.owner_of(fingerprint_of(&line)) == owner
        })
        .take(count)
        .collect()
}

/// A number out of the `cluster` section.
fn cluster_num(cluster: &JsonValue, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(cluster, |doc, key| match key.parse::<usize>() {
            Ok(i) => doc.as_array().and_then(|a| a.get(i)),
            Err(_) => doc.get(key),
        })
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("cluster section lacks {path:?}")) as u64
}

const PING: &str = r#"{"op":"ping"}"#;
const PONG: &str = r#"{"ok":true,"result":"pong"}"#;

/// The routing fingerprint of a request line — the same cache-key
/// fingerprint the router shards on (ids and deadlines don't shard;
/// the engine query does).
fn fingerprint_of(line: &str) -> u64 {
    let req = match rvhpc::serve::proto::parse_request(line).expect("well-formed") {
        rvhpc::serve::proto::Request::Predict(p) => *p,
        other => panic!("expected predict, got {other:?}"),
    };
    let (plan, query) = req.to_plan();
    plan.key_of(&query).fingerprint()
}

/// Byte identity: every reply through the 3-node cluster equals the
/// standalone node's reply for the same line — cold pass and warm pass,
/// forwarded by the reactor and (under a fault plan that never fires)
/// by the pool — and the ring-occupancy gauges account for every
/// distinct key. The healthy router's forwards reach no forwarder
/// thread; the armed router's never take the reactor path. Routing is
/// the ring: a key's 42nd forward goes to the node its first went to.
#[test]
fn cluster_replies_are_byte_identical_to_single_node() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let lines = request_lines(60);
    let distinct: std::collections::BTreeSet<u64> =
        lines.iter().map(|l| fingerprint_of(l)).collect();

    // Reference: one standalone node, two passes (cold, then warm).
    let single = Node::spawn();
    let mut reference = Vec::new();
    {
        let mut client = Client::connect(&single.addr);
        for line in lines.iter().chain(lines.iter()) {
            reference.push(client.roundtrip(line));
        }
    }
    single.quit();

    // Cluster: three nodes behind the router, same two passes.
    let nodes: Vec<Node> = (0..3).map(|_| Node::spawn()).collect();
    let (router_addr, handle) = boot_router(&nodes, |_| {});
    let mut client = Client::connect(&router_addr.to_string());
    const PASSES: usize = 42;
    for pass in 0..PASSES {
        for (i, line) in lines.iter().enumerate() {
            // Every pass after the cold one is a warm one.
            let expected = &reference[i + lines.len() * pass.min(1)];
            assert_eq!(
                &client.roundtrip(line),
                expected,
                "cluster reply {i} of pass {pass} diverged from the standalone node"
            );
        }
    }

    // Ring occupancy: per-node key gauges sum to the distinct keys the
    // router served, and more than one node took traffic.
    let cluster = cluster_section(&client.roundtrip(r#"{"op":"metrics"}"#));
    let keys_total = cluster
        .get("keys_total")
        .and_then(JsonValue::as_f64)
        .unwrap() as usize;
    assert_eq!(keys_total, distinct.len(), "one ring slot per distinct key");
    let node_stats = match cluster.get("nodes") {
        Some(JsonValue::Array(a)) => a.clone(),
        other => panic!("cluster.nodes must be an array, got {other:?}"),
    };
    let key_sum: u64 = node_stats
        .iter()
        .map(|n| n.get("keys").and_then(JsonValue::as_f64).unwrap() as u64)
        .sum();
    assert_eq!(key_sum as usize, keys_total, "per-node gauges sum to total");
    let serving = node_stats
        .iter()
        .filter(|n| n.get("ok").and_then(JsonValue::as_f64).unwrap() > 0.0)
        .count();
    assert!(
        serving >= 2,
        "traffic must spread across the ring: {serving}"
    );
    let sent = (PASSES * lines.len()) as u64;
    assert_eq!(cluster_num(&cluster, &["forwards", "reactor"]), sent);
    assert_eq!(
        cluster_num(&cluster, &["forwards", "pool"]),
        0,
        "a healthy forward reaches no forwarder thread"
    );
    // Each node was sent exactly the lines the ring gives it, on every
    // pass: no key moved once it had been asked for often enough.
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let defaults = RouterConfig::new(addrs.clone());
    let ring = Ring::new(&addrs, defaults.vnodes, defaults.seed);
    for node in 0..nodes.len() {
        let owned = lines
            .iter()
            .filter(|l| ring.owner_of(fingerprint_of(l)) == node)
            .count();
        assert_eq!(
            cluster_num(&cluster, &["nodes", &node.to_string(), "forwarded"]),
            (PASSES * owned) as u64,
            "node {node} owns {owned} of the corpus lines"
        );
    }
    assert!(
        cluster.get("hot").is_none(),
        "no hot-key section: {cluster:?}"
    );

    client.roundtrip(r#"{"op":"quit"}"#);
    let doc = handle.join().expect("router thread");
    assert!(
        doc.get("cluster").is_some(),
        "final router document keeps the cluster section"
    );

    // The same nodes behind a router whose fault plan is armed but a
    // million pickups from firing: every forward goes through the pool,
    // and the bytes do not change.
    let mut route = RouterConfig::new(nodes.iter().map(|n| n.addr.clone()).collect());
    route.forward_workers = 2;
    let (router_addr, handle) = boot(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        route: Some(route),
        faults: Some(rvhpc::faults::FaultPlan::parse("seed=1,partition=1000000:1").expect("plan")),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&router_addr.to_string());
    for (i, line) in lines.iter().chain(lines.iter()).enumerate() {
        assert_eq!(
            client.roundtrip(line),
            reference[i],
            "pool-forwarded reply {i} diverged from the standalone node"
        );
    }
    let cluster = cluster_section(&client.roundtrip(r#"{"op":"metrics"}"#));
    let sent = 2 * lines.len() as u64;
    assert_eq!(cluster_num(&cluster, &["forwards", "pool"]), sent);
    assert_eq!(
        cluster_num(&cluster, &["forwards", "reactor"]),
        0,
        "under a fault plan no forward takes the reactor path"
    );
    assert_eq!(
        cluster_num(&cluster, &["keys_total"]),
        distinct.len() as u64
    );
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("router thread");
    for node in nodes {
        node.quit();
    }
}

/// An upstream answers the first of three pipelined forwards, half of
/// the second, and hangs up. Every client gets exactly one reply, its
/// own: the first from the dying node, the other two — handed to the
/// pool — from the next ring owner, byte-identical to asking it
/// directly.
#[test]
fn upstream_closing_mid_frame_loses_and_crosses_nothing() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let healthy = Node::spawn();
    let (read_tx, read_rx) = std::sync::mpsc::channel();
    let (dying, script) = scripted_node(move |listener| {
        let (mut reader, mut writer) = accept(&listener);
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                let id = read_id(&mut reader);
                read_tx.send(id).expect("test waits for each line");
                id
            })
            .collect();
        write!(
            writer,
            "{}\n{{\"id\":{},\"ok\":tr",
            scripted_ok(ids[0]),
            ids[1]
        )
        .expect("write");
        // Both halves drop here: EOF in the middle of the second frame.
    });
    let nodes = [dying.as_str(), healthy.addr.as_str()];
    let picked = indices_owned_by(&nodes, 0, 3);
    let lines: Vec<String> = picked
        .iter()
        .map(|&k| loadgen::request_line(k, Mix::Mixed, None, None))
        .collect();
    let direct: Vec<String> = {
        let mut client = Client::connect(&healthy.addr);
        lines.iter().map(|line| client.roundtrip(line)).collect()
    };

    let (router_addr, handle) = boot_scripted_router(&nodes, |_| {});
    // One line per connection, each sent once the node has read the one
    // before: all three share the node's single upstream, in this order.
    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(&router_addr.to_string()))
        .collect();
    for (client, (line, &k)) in clients.iter_mut().zip(lines.iter().zip(&picked)) {
        writeln!(client.writer, "{line}").expect("write request");
        assert_eq!(read_rx.recv().expect("node reads the line"), k as u64);
    }
    script.join().expect("scripted node");

    let read_reply = |client: &mut Client| {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    };
    assert_eq!(read_reply(&mut clients[0]), scripted_ok(picked[0] as u64));
    assert_eq!(read_reply(&mut clients[1]), direct[1]);
    assert_eq!(read_reply(&mut clients[2]), direct[2]);
    // Exactly one reply each: the next frame on every connection is
    // the answer to the next request.
    for client in &mut clients {
        assert_eq!(client.roundtrip(PING), PONG);
    }

    let cluster = cluster_section(&clients[0].roundtrip(r#"{"op":"metrics"}"#));
    assert_eq!(cluster_num(&cluster, &["forwards", "reactor"]), 3);
    assert_eq!(cluster_num(&cluster, &["forwards", "pool"]), 2);
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "ok"]), 1);
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "errors"]), 2);
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "failovers"]), 2);
    assert_eq!(cluster_num(&cluster, &["nodes", "1", "ok"]), 2);

    clients[0].roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("router thread");
    healthy.quit();
}

/// A forward whose deadline expires in flight: the client gets the
/// `deadline` error, the node's late reply is consumed and dropped, and
/// the next reply on that upstream still answers the next forward.
#[test]
fn deadline_in_flight_drops_the_late_reply_and_keeps_the_fifo_in_step() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let (node, script) = scripted_node(move |listener| {
        let (mut reader, mut writer) = accept(&listener);
        let late = read_id(&mut reader);
        // Answer nothing until the second forward is here too — which
        // the client only sends after its deadline error.
        let next = read_id(&mut reader);
        writeln!(writer, "{}\n{}", scripted_ok(late), scripted_ok(next)).expect("write");
        let _ = done_rx.recv();
    });
    let (router_addr, handle) = boot_scripted_router(&[node.as_str()], |_| {});
    let mut client = Client::connect(&router_addr.to_string());

    let reply = client.roundtrip(&loadgen::request_line(3, Mix::Preset, Some(40), None));
    let doc = json::parse(&reply).expect("deadline reply parses");
    assert_eq!(doc.get("id").and_then(JsonValue::as_f64), Some(3.0));
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("deadline"),
        "{reply}"
    );
    assert_eq!(
        client.roundtrip(&loadgen::request_line(4, Mix::Preset, None, None)),
        scripted_ok(4),
        "the late reply to 3 must not answer 4"
    );
    assert_eq!(client.roundtrip(PING), PONG);

    let reply = client.roundtrip(r#"{"op":"metrics"}"#);
    let cluster = cluster_section(&reply);
    assert_eq!(cluster_num(&cluster, &["forwards", "reactor"]), 2);
    assert_eq!(cluster_num(&cluster, &["forwards", "pool"]), 0);
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "ok"]), 1);
    let expired = json::parse(&reply)
        .expect("metrics reply parses")
        .get("result")
        .and_then(|r| r.get("server"))
        .and_then(|s| s.get("requests"))
        .and_then(|r| r.get("deadline_expired"))
        .and_then(JsonValue::as_f64);
    assert_eq!(expired, Some(1.0));

    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("router thread");
    done_tx.send(()).expect("scripted node still up");
    script.join().expect("scripted node");
}

/// A node's `overloaded` answer is transient: the pool honours its
/// `retry_after_ms` and retries on a connection of its own; the client
/// sees only the eventual success.
#[test]
fn overloaded_reply_is_retried_by_the_pool_not_relayed() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let (node, script) = scripted_node(move |listener| {
        let (mut reader, mut writer) = accept(&listener);
        let id = read_id(&mut reader);
        writeln!(
            writer,
            "{{\"error\":{{\"kind\":\"overloaded\",\"message\":\"shed\",\"retry_after_ms\":1}},\"id\":{id},\"ok\":false}}"
        )
        .expect("write");
        // The retry arrives on the pool worker's own connection.
        let (mut retry_reader, mut retry_writer) = accept(&listener);
        assert_eq!(read_id(&mut retry_reader), id);
        writeln!(retry_writer, "{}", scripted_ok(id)).expect("write");
        let _ = done_rx.recv();
    });
    let (router_addr, handle) =
        boot_scripted_router(&[node.as_str()], |rc| rc.attempts_per_node = 2);
    let mut client = Client::connect(&router_addr.to_string());
    assert_eq!(
        client.roundtrip(&loadgen::request_line(9, Mix::Preset, None, None)),
        scripted_ok(9)
    );
    let cluster = cluster_section(&client.roundtrip(r#"{"op":"metrics"}"#));
    assert_eq!(cluster_num(&cluster, &["forwards", "reactor"]), 1);
    assert_eq!(cluster_num(&cluster, &["forwards", "pool"]), 1);
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "forwarded"]), 1);
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "ok"]), 1);
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "errors"]), 0);

    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("router thread");
    done_tx.send(()).expect("scripted node still up");
    script.join().expect("scripted node");
}

/// A node that takes the line and goes silent is given up on after the
/// router's `read_timeout_ms`, and the forward fails over.
#[test]
fn silent_node_is_timed_out_and_failed_over() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let healthy = Node::spawn();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let (silent, script) = scripted_node(move |listener| {
        let (mut reader, _writer) = accept(&listener);
        read_id(&mut reader);
        let _ = done_rx.recv();
    });
    let nodes = [silent.as_str(), healthy.addr.as_str()];
    let k = indices_owned_by(&nodes, 0, 1)[0];
    let line = loadgen::request_line(k, Mix::Mixed, None, None);
    let direct = Client::connect(&healthy.addr).roundtrip(&line);

    let (router_addr, handle) = boot_scripted_router(&nodes, |rc| rc.read_timeout_ms = 100);
    let mut client = Client::connect(&router_addr.to_string());
    assert_eq!(client.roundtrip(&line), direct);
    let cluster = cluster_section(&client.roundtrip(r#"{"op":"metrics"}"#));
    assert_eq!(cluster_num(&cluster, &["nodes", "0", "failovers"]), 1);
    assert_eq!(cluster_num(&cluster, &["nodes", "1", "ok"]), 1);

    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("router thread");
    done_tx.send(()).expect("scripted node still up");
    script.join().expect("scripted node");
    healthy.quit();
}

/// Node-kill failover: a retrying load run against the router loses no
/// acks while one node is SIGKILLed mid-run; the dead node's keys
/// re-route to the next ring owner and the router records failovers.
#[test]
fn node_kill_mid_run_loses_no_acks() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let mut nodes: Vec<Node> = (0..3).map(|_| Node::spawn()).collect();
    // One attempt per node: a dead node fails fast to the next owner.
    let (router_addr, handle) = boot_router(&nodes, |rc| {
        rc.attempts_per_node = 1;
        rc.connect_timeout_ms = 200;
    });

    const REQUESTS: u64 = 3_000;
    let loadgen_addr = router_addr.to_string();
    let run = std::thread::spawn(move || {
        loadgen::run(&LoadgenConfig {
            addr: loadgen_addr,
            requests: REQUESTS as usize,
            conns: 4,
            // Paced so the run outlives the kill below even on a fast
            // machine (~2s of wall clock).
            rate: 1_500.0,
            mix: Mix::Mixed,
            deadline_ms: Some(30_000),
            retry: true,
            retry_seed: 11,
            ..LoadgenConfig::default()
        })
        .expect("loadgen run")
    });

    // Wait until the cluster has definitely served traffic, then kill a
    // node while the run is still going.
    let mut poll = Client::connect(&router_addr.to_string());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let cluster = cluster_section(&poll.roundtrip(r#"{"op":"metrics"}"#));
        let served: f64 = match cluster.get("nodes") {
            Some(JsonValue::Array(a)) => a
                .iter()
                .map(|n| n.get("ok").and_then(JsonValue::as_f64).unwrap_or(0.0))
                .sum(),
            _ => 0.0,
        };
        if served >= 400.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never reached 400 served requests"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    nodes[1].kill();

    let report = run.join().expect("loadgen thread");
    assert_eq!(report.ok, REQUESTS, "zero lost acks across the node kill");
    assert_eq!(report.errors, 0, "failover must absorb the dead node");
    assert_eq!(report.dropped, 0);

    // The router saw the kill: the dead node took errors and its keys
    // failed over, while the survivors kept serving.
    let cluster = cluster_section(&poll.roundtrip(r#"{"op":"metrics"}"#));
    let node_stats = match cluster.get("nodes") {
        Some(JsonValue::Array(a)) => a.clone(),
        other => panic!("cluster.nodes must be an array, got {other:?}"),
    };
    let failovers: f64 = node_stats
        .iter()
        .map(|n| n.get("failovers").and_then(JsonValue::as_f64).unwrap())
        .sum();
    assert!(failovers > 0.0, "a mid-run kill must record failovers");
    let keys_total = cluster
        .get("keys_total")
        .and_then(JsonValue::as_f64)
        .unwrap() as u64;
    let key_sum: u64 = node_stats
        .iter()
        .map(|n| n.get("keys").and_then(JsonValue::as_f64).unwrap() as u64)
        .sum();
    assert_eq!(key_sum, keys_total, "occupancy gauges stay consistent");

    poll.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("router thread");
    for node in nodes {
        node.quit();
    }
}

/// The deterministic `partition` chaos site forces the failover path
/// without killing anything: the primary owner is treated unreachable
/// on schedule, the reply still arrives (from the next owner), and the
/// recovery journal records the re-routes.
#[test]
fn partition_site_reroutes_deterministically() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let nodes: Vec<Node> = (0..3).map(|_| Node::spawn()).collect();
    let mut route = RouterConfig::new(nodes.iter().map(|n| n.addr.clone()).collect());
    route.forward_workers = 1; // one worker: the site's lattice is exact
    let (addr, handle) = boot(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        route: Some(route),
        faults: Some(rvhpc::faults::FaultPlan::parse("seed=5,partition=2:3x4").expect("plan")),
        ..ServerConfig::default()
    });

    let mut client = Client::connect(&addr.to_string());
    for line in request_lines(40) {
        let reply = client.roundtrip(&line);
        assert!(
            reply.contains("\"ok\":true"),
            "partitioned forwards must still be acked: {reply}"
        );
    }

    let reply = client.roundtrip(r#"{"op":"metrics"}"#);
    let doc = json::parse(&reply).expect("metrics reply parses");
    let injected = doc
        .get("result")
        .and_then(|r| r.get("faults"))
        .and_then(|f| f.get("injected"))
        .and_then(|i| i.get("partition"))
        .and_then(|p| p.get("injected"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64;
    assert_eq!(injected, 4, "partition site must hit its cap exactly");

    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("router thread");
    for node in nodes {
        node.quit();
    }
}
