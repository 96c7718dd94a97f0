//! End-to-end tests for `rvhpc-serve`: boot a real server on an
//! ephemeral port and drive it over TCP.
//!
//! Covers the ISSUE acceptance criteria: golden replies for a preset and
//! a custom-machine query (byte-equal to the directly computed
//! prediction), warm-cache behaviour (hit counter increases, repeat
//! reply byte-identical), the 1k-request mixed loadgen workload with
//! zero drops, admission-control rejections under a tiny queue, and
//! graceful drain via the admin `quit` op. Also pins what must not
//! depend on whether a predict was served by a shard worker or, as a
//! hot-cache hit, on the reactor: reply bytes, reply order on a
//! pipelined connection, and the counter sections of the metrics
//! document; and the framing cases of the reactor's read path (a line
//! longer than one read, a client half-close, an unterminated last
//! line).
//!
//! The drain flag is process-global, so tests that boot a server
//! serialize on [`SERVER_LOCK`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use rvhpc::obs::{json, JsonValue};
use rvhpc::serve::{loadgen, proto, reset_drain, LoadgenConfig, Mix, Server, ServerConfig};

static SERVER_LOCK: Mutex<()> = Mutex::new(());

type Running = (SocketAddr, std::thread::JoinHandle<JsonValue>);

fn spawn(server: Server) -> Running {
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn boot(config: ServerConfig) -> Running {
    reset_drain();
    spawn(Server::bind(config).expect("bind ephemeral port"))
}

/// As [`boot`], on an engine of its own: empty caches, counters from 0.
fn boot_fresh(config: ServerConfig) -> Running {
    reset_drain();
    let engine = Box::leak(Box::new(rvhpc::eval::engine::Engine::new()));
    spawn(Server::bind_on(config, engine).expect("bind ephemeral port"))
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Self {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("write request");
        self.read_reply()
    }

    fn read_reply(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(reply.ends_with('\n'), "replies are newline-terminated");
        reply.trim_end().to_string()
    }
}

/// The reply the server must produce for `line`, computed directly
/// through the same proto + engine path on a fresh local engine.
fn golden_reply(line: &str) -> String {
    let req = match proto::parse_request(line).expect("well-formed") {
        proto::Request::Predict(p) => *p,
        other => panic!("expected predict, got {other:?}"),
    };
    let (plan, query) = req.to_plan();
    let idx = plan
        .queries()
        .iter()
        .position(|q| *q == query)
        .expect("query is in its own plan");
    let engine = rvhpc::eval::engine::Engine::new();
    let pred = engine.execute(&plan).remove(idx);
    proto::render_ok(req.id, proto::prediction_result(&req, &pred))
}

fn cache_counters(metrics_reply: &str) -> (u64, u64) {
    let doc = json::parse(metrics_reply).expect("metrics reply parses");
    let cache = doc
        .get("result")
        .and_then(|r| r.get("server"))
        .and_then(|s| s.get("cache"))
        .expect("server.cache section");
    let hits = cache.get("hits").and_then(JsonValue::as_f64).unwrap() as u64;
    let misses = cache.get("misses").and_then(JsonValue::as_f64).unwrap() as u64;
    (hits, misses)
}

#[test]
fn golden_replies_and_warm_cache() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot(test_config());
    let mut client = Client::connect(addr);

    // Golden reply, preset machine.
    let preset = r#"{"id":1,"bench":"cg","class":"C","threads":64,"machine":"sg2044"}"#;
    let reply = client.roundtrip(preset);
    assert_eq!(reply, golden_reply(preset), "preset reply must be golden");

    // Golden reply, custom what-if machine.
    let custom = r#"{"id":2,"bench":"ft","class":"B","threads":8,"machine":{"base":"sg2044","clock_ghz":3.2,"vlen_bits":256}}"#;
    let reply = client.roundtrip(custom);
    assert_eq!(reply, golden_reply(custom), "custom reply must be golden");

    // Warm cache: the repeat is byte-identical and the hit counter grows.
    let (hits_before, _) = cache_counters(&client.roundtrip(r#"{"op":"metrics"}"#));
    let first = client.roundtrip(preset);
    let second = client.roundtrip(preset);
    assert_eq!(first, second, "warm reply must be byte-identical");
    let (hits_after, _) = cache_counters(&client.roundtrip(r#"{"op":"metrics"}"#));
    assert!(
        hits_after >= hits_before + 2,
        "repeat requests must hit the warm cache ({hits_before} -> {hits_after})"
    );

    // Malformed and invalid lines get structured errors on the same
    // connection, which stays usable.
    let reply = client.roundtrip("this is not json");
    assert!(reply.contains(r#""ok":false"#) && reply.contains(r#""kind":"parse""#));
    let reply = client.roundtrip(r#"{"bench":"nope"}"#);
    assert!(reply.contains(r#""kind":"invalid""#));
    assert_eq!(
        client.roundtrip(r#"{"op":"ping"}"#),
        r#"{"ok":true,"result":"pong"}"#
    );

    // Graceful drain via admin quit; the final document reports our traffic.
    let reply = client.roundtrip(r#"{"op":"quit"}"#);
    assert!(reply.contains("draining"));
    let doc = handle.join().expect("server thread");
    let ok = doc
        .get("server")
        .and_then(|s| s.get("requests"))
        .and_then(|r| r.get("ok"))
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(
        ok >= 4.0,
        "final metrics must count the ok requests, got {ok}"
    );
}

/// The ISSUE acceptance run: a 1k-request mixed workload completes with
/// zero dropped well-formed requests, reports p50/p99 in the metrics
/// document, and leaves a warm cache behind.
#[test]
fn loadgen_1k_mixed_workload_drops_nothing() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot(test_config());

    let report = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        requests: 1000,
        conns: 4,
        rate: 0.0,
        mix: Mix::Mixed,
        deadline_ms: Some(30_000),
        sample_ms: 0,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");

    assert_eq!(report.ok, 1000, "every well-formed request must succeed");
    assert_eq!(report.errors, 0);
    assert_eq!(report.dropped, 0);
    assert!(
        report.cache_hit_rate > 0.5,
        "small request grid must go warm, got {}",
        report.cache_hit_rate
    );
    let latency = report
        .doc
        .get("loadgen")
        .and_then(|l| l.get("latency"))
        .expect("latency section");
    for q in ["p50_us", "p99_us"] {
        let v = latency.get(q).and_then(JsonValue::as_f64).expect(q);
        assert!(v > 0.0, "{q} must be positive");
    }

    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}

/// A one-slot queue with a single shard forces admission rejections
/// under a burst; rejected requests get the `overloaded` error kind and
/// the counter records them.
#[test]
fn admission_control_rejects_with_structured_error() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot(ServerConfig {
        shards: 1,
        queue_cap: 1,
        pool_threads: 1,
        ..test_config()
    });

    let report = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        requests: 400,
        conns: 8,
        rate: 0.0,
        mix: Mix::Preset,
        deadline_ms: Some(30_000),
        sample_ms: 0,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");

    // Nothing is dropped at the transport level and every reply is
    // structured; under a one-deep queue some bursts may be rejected.
    assert_eq!(report.dropped, 0);
    assert_eq!(report.ok + report.errors, 400);
    let by_kind = report
        .doc
        .get("loadgen")
        .and_then(|l| l.get("errors_by_kind"))
        .expect("errors_by_kind section");
    if report.errors > 0 {
        let overloaded = by_kind
            .get("overloaded")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as u64;
        assert_eq!(
            overloaded, report.errors,
            "only admission rejections are acceptable errors here"
        );
    }

    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"op":"quit"}"#);
    let doc = handle.join().expect("server thread");
    let rejected = doc
        .get("server")
        .and_then(|s| s.get("requests"))
        .and_then(|r| r.get("rejected_admission"))
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert_eq!(
        rejected as u64, report.errors,
        "counter matches observed rejections"
    );
}

/// Reactor regression: slow-loris clients (a byte every 100 ms, never a
/// newline) used to pin one blocking worker thread each; with enough of
/// them the server stopped answering anyone else. Under the reactor a
/// stalled frame is just a buffered connection — interactive clients
/// keep getting served while forty loris connections drip, and once the
/// stall timeout passes the loris connections are shed and counted.
#[test]
fn slow_loris_does_not_starve_interactive_clients() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot(ServerConfig {
        stall_timeout_ms: 1_000,
        ..test_config()
    });

    // Forty connections each open a frame and stall mid-line.
    let mut loris: Vec<TcpStream> = (0..40)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("loris connect");
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    for s in &mut loris {
        s.write_all(b"{\"op\":\"pi").expect("partial frame");
    }

    // While they drip one byte per round, an interactive client gets
    // predicts and pings answered — golden bytes, no queue-behind-loris.
    let mut client = Client::connect(addr);
    let preset = r#"{"id":9,"bench":"mg","class":"B","threads":8,"machine":"sg2044"}"#;
    let golden = golden_reply(preset);
    for round in 0..5 {
        for s in &mut loris {
            let _ = s.write_all(b"n"); // never completes the frame
        }
        assert_eq!(client.roundtrip(preset), golden, "round {round}");
        assert_eq!(
            client.roundtrip(r#"{"op":"ping"}"#),
            r#"{"ok":true,"result":"pong"}"#,
            "round {round}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Past the stall timeout the drip-feeders are shed: the partial
    // frame's clock starts when the frame opens and a trickle of bytes
    // does not reset it.
    std::thread::sleep(Duration::from_millis(1_200));
    let reply = client.roundtrip(r#"{"op":"metrics"}"#);
    let doc = json::parse(&reply).expect("metrics reply parses");
    let shed = doc
        .get("result")
        .and_then(|r| r.get("faults"))
        .and_then(|f| f.get("recovery"))
        .and_then(|f| f.get("stalled_conns_shed"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64;
    assert!(
        shed >= 40,
        "all 40 loris connections must be shed as stalled, got {shed}"
    );

    drop(loris);
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}

/// Raise the soft fd limit to the hard limit so the idle-connection
/// flood has room; returns the resulting soft limit.
#[cfg(unix)]
fn raise_nofile_limit() -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur < lim.max {
            let want = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            let _ = setrlimit(RLIMIT_NOFILE, &want);
            let _ = getrlimit(RLIMIT_NOFILE, &mut lim);
        }
        lim.cur
    }
}

/// Reactor regression: the old accept loop refused connections past a
/// hard cap (256 by default). The reactor has no cap — thousands of
/// idle connections are accepted and held while the server keeps
/// answering on any of them. Scaled to the fd limit, up to 5k.
#[cfg(unix)]
#[test]
fn idle_connection_flood_is_accepted_and_served() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let soft = raise_nofile_limit();
    // Each held connection costs two fds in this process (client end +
    // server end); leave generous headroom for the rest of the suite.
    let target = (((soft.saturating_sub(512)) / 2) as usize).clamp(64, 5_000);
    let (addr, handle) = boot(test_config());

    let mut idle: Vec<TcpStream> = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connection {i}/{target} refused: {e}"),
        }
    }

    // The flood must not block service: a fresh client and a sampling of
    // the idle connections all round-trip.
    let mut client = Client::connect(addr);
    assert_eq!(
        client.roundtrip(r#"{"op":"ping"}"#),
        r#"{"ok":true,"result":"pong"}"#
    );
    for pick in [0, target / 2, target - 1] {
        let s = &mut idle[pick];
        s.write_all(b"{\"op\":\"ping\"}\n").expect("write ping");
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read ping reply");
        assert_eq!(reply.trim_end(), r#"{"ok":true,"result":"pong"}"#);
    }

    let reply = client.roundtrip(r#"{"op":"metrics"}"#);
    let doc = json::parse(&reply).expect("metrics reply parses");
    let accepted = doc
        .get("result")
        .and_then(|r| r.get("server"))
        .and_then(|s| s.get("connections"))
        .and_then(|c| c.get("accepted"))
        .and_then(JsonValue::as_f64)
        .unwrap() as usize;
    assert!(
        accepted > target,
        "all {target} idle connections must be accepted, got {accepted}"
    );

    drop(idle);
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}

const PONG: &str = r#"{"ok":true,"result":"pong"}"#;

/// A connection that pipelines `miss, hit, hit, ping` in one write gets
/// its replies in request order: the miss parks the connection until the
/// worker's completion, and the hits behind it — answered on the reactor
/// without a worker — must not overtake it.
#[test]
fn pipelined_miss_hit_hit_ping_is_answered_in_request_order() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot_fresh(ServerConfig {
        shards: 1,
        ..test_config()
    });
    let mut client = Client::connect(addr);
    let line = |id: u32, bench: &str| {
        format!(r#"{{"id":{id},"bench":"{bench}","class":"B","threads":16,"machine":"sg2042"}}"#)
    };
    let warm = client.roundtrip(&line(2, "lu"));

    let burst = format!(
        "{}\n{}\n{}\n{{\"op\":\"ping\"}}\n",
        line(1, "sp"),
        line(2, "lu"),
        line(3, "lu")
    );
    client.writer.write_all(burst.as_bytes()).expect("write");
    assert_eq!(client.read_reply(), golden_reply(&line(1, "sp")));
    assert_eq!(client.read_reply(), warm);
    assert_eq!(client.read_reply(), golden_reply(&line(3, "lu")));
    assert_eq!(client.read_reply(), PONG);

    let (hits, misses) = cache_counters(&client.roundtrip(r#"{"op":"metrics"}"#));
    assert_eq!((hits, misses), (2, 2));
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}

/// The request sequence of the two tests below: a preset key cold and
/// again, then a custom-machine key cold and again.
const COLD_REPEAT_SEQUENCE: [&str; 4] = [
    r#"{"id":1,"bench":"cg","class":"C","threads":64,"machine":"sg2044"}"#,
    r#"{"id":2,"bench":"cg","class":"C","threads":64,"machine":"sg2044"}"#,
    r#"{"id":3,"bench":"ft","class":"B","threads":8,"machine":{"base":"sg2044","clock_ghz":3.2,"vlen_bits":256}}"#,
    r#"{"id":4,"bench":"ft","class":"B","threads":8,"machine":{"base":"sg2044","clock_ghz":3.2,"vlen_bits":256}}"#,
];

/// The counter sections of the metrics document after
/// [`COLD_REPEAT_SEQUENCE`] and the metrics request itself, captured at
/// the commit before hot hits were answered on the reactor, where a
/// shard worker served all four. A hit answered inline is accounted as
/// the one-query batch it replaces, so the bytes must not move.
const GOLDEN_SECTIONS: [(&[&str], &str); 3] = [
    (
        &["server", "requests"],
        r#"{"deadline_expired":0,"internal_errors":0,"invalid":0,"ok":5,"protocol_errors":0,"received":5,"rejected_admission":0}"#,
    ),
    (
        &["server", "cache"],
        r#"{"hit_rate":0.5,"hits":2,"misses":2}"#,
    ),
    (
        &["engine"],
        r#"{"executor":{"batches":4,"capacity":2,"executed":2,"occupancy":1},"prediction_cache":{"hits":2,"misses":2},"profile_cache":{"hits":0,"misses":2}}"#,
    ),
];

#[test]
fn counter_sections_match_the_all_worker_golden() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot_fresh(ServerConfig {
        shards: 1,
        pool_threads: 1,
        ..test_config()
    });
    let mut client = Client::connect(addr);
    for line in COLD_REPEAT_SEQUENCE {
        assert_eq!(client.roundtrip(line), golden_reply(line));
    }
    let reply = client.roundtrip(r#"{"op":"metrics"}"#);
    let doc = json::parse(&reply).expect("metrics reply parses");
    let result = doc.get("result").expect("metrics result");
    for (path, golden) in GOLDEN_SECTIONS {
        let section = path
            .iter()
            .try_fold(result, |d, key| d.get(key))
            .unwrap_or_else(|| panic!("{path:?} missing"));
        assert_eq!(section.to_json(), golden, "{path:?}");
    }
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}

/// A server with a fault plan loaded sends every predict, hits included,
/// to a shard worker (the plan's per-pickup schedules count on it); one
/// without answers hot hits on the reactor. The predict replies are the
/// same bytes either way.
#[test]
fn replies_do_not_depend_on_which_path_served_them() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let run = |faults: Option<&str>| {
        let (addr, handle) = boot_fresh(ServerConfig {
            shards: 1,
            faults: faults.map(|p| rvhpc::faults::FaultPlan::parse(p).expect("plan parses")),
            ..test_config()
        });
        let mut client = Client::connect(addr);
        let replies: Vec<String> = COLD_REPEAT_SEQUENCE
            .iter()
            .map(|line| client.roundtrip(line))
            .collect();
        client.roundtrip(r#"{"op":"quit"}"#);
        (replies, handle.join().expect("server thread"))
    };
    let (inline, doc) = run(None);
    assert!(doc.get("faults").is_none());
    // Armed, but its first panic is a million pickups away.
    let (worker, doc) = run(Some("seed=1,panic=1000000:1"));
    assert_eq!(inline, worker);
    let pickups = doc
        .get("faults")
        .and_then(|f| f.get("injected"))
        .and_then(|i| i.get("panic"))
        .and_then(|p| p.get("occurrences"))
        .and_then(JsonValue::as_f64);
    assert_eq!(pickups, Some(4.0), "all four went through a worker");
}

/// The reactor stops reading a socket after a short read and relies on
/// level-triggered polling for the rest. Three framings that depend on
/// the rest arriving: a line longer than one read, a half-close right
/// behind a line, and a last line that ends at EOF with no newline.
#[test]
fn long_lines_half_close_and_unterminated_last_line_are_answered() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot(test_config());

    // 40 KiB of insignificant whitespace: more than two 16 KiB reads,
    // under the 64 KiB line cap.
    let mut client = Client::connect(addr);
    let long = format!("{{\"op\":\"ping\"{}}}", " ".repeat(40 * 1024));
    assert_eq!(client.roundtrip(&long), PONG);
    assert_eq!(client.roundtrip(r#"{"op":"ping"}"#), PONG);

    let read_to_end = |mut client: Client| {
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut client.reader, &mut rest).expect("read to EOF");
        rest
    };

    let mut client = Client::connect(addr);
    client
        .writer
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("write");
    client
        .writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert_eq!(read_to_end(client), format!("{PONG}\n"));

    let mut client = Client::connect(addr);
    client
        .writer
        .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}")
        .expect("write");
    client
        .writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert_eq!(read_to_end(client), format!("{PONG}\n{PONG}\n"));

    // The 64 KiB cap holds however the line was segmented: 100 KiB in
    // one write, its newline already buffered when the scanner runs,
    // and a 70 KiB tail that only the half-close ends. The server may
    // close on bytes it has not read, which resets the connection, so a
    // write may fail and the reply is followed by EOF or a reset.
    let refusal = proto::render_error(&proto::ProtoError::new(
        None,
        proto::ErrorKind::Parse,
        "request line exceeds 64 KiB",
    ));
    let oversized = [
        format!("{{\"op\":\"ping\"{}}}\n", " ".repeat(100 * 1024)),
        format!("{{\"op\":\"ping\"{}", " ".repeat(70 * 1024)),
    ];
    for bytes in oversized {
        let mut client = Client::connect(addr);
        let _ = client.writer.write_all(bytes.as_bytes());
        let _ = client.writer.shutdown(std::net::Shutdown::Write);
        let mut reply = String::new();
        client.reader.read_line(&mut reply).expect("read reply");
        assert_eq!(reply.trim_end(), refusal);
        let mut rest = Vec::new();
        let _ = std::io::Read::read_to_end(&mut client.reader, &mut rest);
        assert!(rest.is_empty(), "nothing follows the refusal: {rest:?}");
    }

    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}
