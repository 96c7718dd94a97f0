//! End-to-end tests for request tracing and live telemetry in
//! `rvhpc-serve`: boot a real server on an ephemeral port and assert
//! the ISSUE acceptance criteria over TCP.
//!
//! Covers: a single served request produces ring spans from all four
//! layers (proto parse, shard queue, engine exec, pool worker) sharing
//! one trace id, and a repeat of it — a hot-cache hit, answered on the
//! reactor — keeps its probe and execute spans under its own id with no
//! queue wait; trace ids are unique and monotone per connection; a
//! slow threshold of 0 attaches a span dump to every predict reply and
//! fills the admin `slow` log; and the `timeseries` metrics section is
//! deterministic across engine worker counts once wall-clock fields are
//! stripped.
//!
//! The recorder switch and the drain flag are process-global, so tests
//! serialize on [`SERVER_LOCK`]. (This file is its own test binary, so
//! it does not share recorder state with `serve_e2e`.)

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use rvhpc::eval::engine::Engine;
use rvhpc::obs::{json, EventKind, JsonValue};
use rvhpc::serve::{reset_drain, Server, ServerConfig};

static SERVER_LOCK: Mutex<()> = Mutex::new(());

fn boot_on(
    config: ServerConfig,
    engine: &'static Engine,
) -> (SocketAddr, std::thread::JoinHandle<JsonValue>) {
    reset_drain();
    let server = Server::bind_on(config, engine).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn boot(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<JsonValue>) {
    boot_on(config, Box::leak(Box::new(Engine::new())))
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
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(reply.ends_with('\n'), "replies are newline-terminated");
        reply.trim_end().to_string()
    }
}

const PREDICT: &str = r#"{"id":1,"bench":"cg","class":"B","threads":8,"machine":"sg2044"}"#;

/// The `trace.trace_id` of a traced predict reply.
fn reply_trace_id(reply: &str) -> u64 {
    let doc = json::parse(reply).expect("reply parses");
    assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{reply}");
    doc.get("trace")
        .and_then(|t| t.get("trace_id"))
        .and_then(JsonValue::as_f64)
        .expect("traced reply carries trace.trace_id") as u64
}

/// ISSUE acceptance: one served request, recording on, yields ring
/// spans from all four layers — proto parse (connection thread), shard
/// queue wait (worker pickup), engine execution, and a pool-worker
/// region — all tagged with the same trace id.
#[test]
fn one_request_spans_all_four_layers_under_one_trace_id() {
    let _guard = SERVER_LOCK.lock().unwrap();
    rvhpc::obs::set_enabled(true);
    let (addr, handle) = boot(ServerConfig {
        shards: 1,
        pool_threads: 2,
        // Threshold 0 so the reply names its trace id.
        slow_us: Some(0),
        ..test_config()
    });
    let mut client = Client::connect(addr);
    let trace_id = reply_trace_id(&client.roundtrip(PREDICT));
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
    rvhpc::obs::set_enabled(false);

    let data = rvhpc::obs::drain_all();
    let kinds: BTreeSet<EventKind> = data
        .events
        .iter()
        .filter(|e| e.arg == trace_id)
        .map(|e| e.kind)
        .collect();
    for kind in [
        EventKind::ProtoParse,
        EventKind::QueueWait,
        EventKind::EngineExec,
        EventKind::Region,
    ] {
        assert!(
            kinds.contains(&kind),
            "trace {trace_id} must span all four layers; missing {kind:?} in {kinds:?}"
        );
    }
    // The engine also attributes its dedup and cache probe to the trace.
    assert!(kinds.contains(&EventKind::DedupMerge), "{kinds:?}");
    assert!(kinds.contains(&EventKind::CacheProbe), "{kinds:?}");
}

/// A repeat is a hot-cache hit, which the reactor answers itself: its
/// trace id still carries the probe outcome and an execute span beside
/// parse and reply write, now recorded on the reactor thread — and no
/// queue wait, because it never entered a shard queue.
#[test]
fn hot_hit_is_traced_on_the_reactor_without_a_queue_wait() {
    let _guard = SERVER_LOCK.lock().unwrap();
    rvhpc::obs::set_enabled(true);
    let (addr, handle) = boot(ServerConfig {
        shards: 1,
        slow_us: Some(0),
        ..test_config()
    });
    let mut client = Client::connect(addr);
    let cold_id = reply_trace_id(&client.roundtrip(PREDICT));
    let hit_id = reply_trace_id(&client.roundtrip(PREDICT));
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
    rvhpc::obs::set_enabled(false);

    let data = rvhpc::obs::drain_all();
    let of = |id: u64| -> Vec<_> { data.events.iter().filter(|e| e.arg == id).collect() };
    let hit = of(hit_id);
    let kinds: BTreeSet<EventKind> = hit.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        BTreeSet::from([
            EventKind::ProtoParse,
            EventKind::CacheProbe,
            EventKind::EngineExec,
            EventKind::ReplyWrite,
        ]),
        "a hot hit is parse, probe, execute, reply and nothing else"
    );
    let probe = hit.iter().find(|e| e.kind == EventKind::CacheProbe);
    assert_eq!(probe.map(|e| e.name), Some("cache-hit"));
    // The cold one did wait in the shard queue.
    assert!(of(cold_id).iter().any(|e| e.kind == EventKind::QueueWait));
}

#[test]
fn trace_ids_are_unique_and_monotone_per_connection() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot(ServerConfig {
        slow_us: Some(0),
        ..test_config()
    });
    let mut all_ids = BTreeSet::new();
    for _ in 0..2 {
        let mut client = Client::connect(addr);
        let ids: Vec<u64> = (0..5)
            .map(|_| reply_trace_id(&client.roundtrip(PREDICT)))
            .collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly increasing within a connection: {ids:?}"
        );
        all_ids.extend(ids);
    }
    assert_eq!(all_ids.len(), 10, "ids must be unique across connections");
    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}

#[test]
fn slow_threshold_zero_dumps_every_predict_and_fills_the_slow_log() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let (addr, handle) = boot(ServerConfig {
        slow_us: Some(0),
        ..test_config()
    });
    let mut client = Client::connect(addr);
    let mut last_id = 0;
    // The first is computed by a shard worker; the repeats are hot hits
    // answered on the reactor, whose dumps keep the worker's span names
    // (a zero-length queue wait included) so slow-log readers see one
    // shape. The reply-write span closes after the dump is rendered and
    // is in neither.
    for outcome in ["cache-miss", "cache-hit", "cache-hit"] {
        let reply = client.roundtrip(PREDICT);
        let doc = json::parse(&reply).unwrap();
        let spans = doc
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(JsonValue::as_array)
            .expect("span dump attached at threshold 0");
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(names, ["parse", "queue", "execute", outcome]);
        last_id = reply_trace_id(&reply);
    }

    let slow = client.roundtrip(r#"{"op":"slow"}"#);
    let doc = json::parse(&slow).unwrap();
    let dumps = doc
        .get("result")
        .and_then(JsonValue::as_array)
        .expect("slow log is an array");
    assert_eq!(dumps.len(), 3, "every predict crossed the 0 us threshold");
    assert_eq!(
        dumps[2].get("trace_id").and_then(JsonValue::as_f64),
        Some(last_id as f64),
        "newest dump matches the last predict"
    );

    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
}

/// Drive an identical request sequence at a given engine worker count
/// and return the `timeseries` section of the mid-session metrics reply.
fn timeseries_after_sequence(pool_threads: usize) -> JsonValue {
    let (addr, handle) = boot(ServerConfig {
        shards: 2,
        pool_threads,
        ..test_config()
    });
    let mut client = Client::connect(addr);
    for line in [
        PREDICT,
        r#"{"id":2,"bench":"ep","class":"B","threads":4,"machine":"sg2042"}"#,
        PREDICT, // repeat: warm
        r#"{"op":"metrics"}"#,
        PREDICT,
    ] {
        client.roundtrip(line);
    }
    let metrics = client.roundtrip(r#"{"op":"metrics"}"#);
    client.roundtrip(r#"{"op":"quit"}"#);
    handle.join().expect("server thread");
    json::parse(&metrics)
        .unwrap()
        .get("result")
        .and_then(|r| r.get("timeseries"))
        .cloned()
        .expect("metrics reply has a timeseries section")
}

/// Drop wall-clock-dependent fields: sample timestamps and `*_us`
/// latency gauges. What remains are pure counter-derived gauges, which
/// must not depend on the worker count.
fn scrub(value: &mut JsonValue) {
    if let JsonValue::Object(map) = value {
        map.retain(|k, _| k != "t_us" && !k.ends_with("_us"));
        for v in map.values_mut() {
            scrub(v);
        }
    } else if let JsonValue::Array(items) = value {
        for v in items.iter_mut() {
            scrub(v);
        }
    }
}

#[test]
fn timeseries_counters_are_deterministic_across_worker_counts() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let mut one = timeseries_after_sequence(1);
    let mut eight = timeseries_after_sequence(8);
    scrub(&mut one);
    scrub(&mut eight);
    assert_eq!(
        one.to_json(),
        eight.to_json(),
        "counter gauges must not depend on --jobs"
    );
    // The section is not trivially empty: on-demand sampling takes one
    // sample per metrics request.
    let samples = one.get("samples").and_then(JsonValue::as_array).unwrap();
    assert_eq!(samples.len(), 2);
    let gauges = samples[1].get("gauges").expect("sample has gauges");
    assert_eq!(
        gauges.get("cache_hits").and_then(JsonValue::as_f64),
        Some(2.0),
        "both repeats of the first predict must be warm hits"
    );
}
