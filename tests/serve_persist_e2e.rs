//! Persistent-store and QoS end-to-end tests: boot real servers on
//! fresh engines that share only an on-disk store directory, and assert
//! the warm-restart and admission-control contracts:
//!
//! * **Warm restarts** — a restarted server replays its history with
//!   zero recomputes (`prediction_cache.misses == 0 && executed == 0`)
//!   and byte-identical replies, served from the disk tier.
//! * **Torn store writes lose nothing** — seeded mid-record tears on
//!   the append path are healed in-line, the recovery counter matches
//!   the injected count exactly, no ack is lost, and the healed segment
//!   still warm-restarts cleanly.
//! * **Weighted admission** — under queue pressure bulk traffic is
//!   shed with a structured retry hint while interactive traffic keeps
//!   being admitted, and the per-class `qos` section reports it.
//!
//! Each server life runs on its own leaked [`Engine`] (`bind_on`) so
//! cache counters are isolated per life; the drain flag stays
//! process-global, so tests serialize on [`SERVER_LOCK`].

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use rvhpc::eval::engine::Engine;
use rvhpc::faults::FaultPlan;
use rvhpc::obs::JsonValue;
use rvhpc::serve::{loadgen, reset_drain, Mix, Priority, Server, ServerConfig};

static SERVER_LOCK: Mutex<()> = Mutex::new(());

/// Unique request keys: for `k < 30` under [`Mix::Mixed`] every
/// (bench, class, threads) triple is distinct, so each request computes
/// (cold) or restores (warm) exactly one prediction.
const REQUESTS: usize = 24;

fn fresh_engine() -> &'static Engine {
    Box::leak(Box::new(Engine::new()))
}

/// A per-test store directory under the system temp dir, wiped first so
/// reruns start cold.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvhpc-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path, plan: Option<&str>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        queue_cap: 16,
        pool_threads: 1,
        store_dir: Some(dir.to_path_buf()),
        faults: plan.map(|p| FaultPlan::parse(p).expect("fault plan parses")),
        ..ServerConfig::default()
    }
}

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

/// Send each line over one bare connection and collect the raw reply
/// lines — raw strings, so warm-vs-cold comparisons are byte-exact.
fn drive_raw(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::with_capacity(lines.len());
    for line in lines {
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "server closed mid-conversation");
        replies.push(reply.trim_end().to_string());
    }
    replies
}

/// Quit over a fresh connection and join the server thread for its
/// final metrics document.
fn quit_and_join(addr: SocketAddr, handle: std::thread::JoinHandle<JsonValue>) -> JsonValue {
    let replies = drive_raw(addr, &["{\"op\":\"quit\"}".to_string()]);
    assert!(replies[0].contains("draining"));
    handle.join().expect("server thread")
}

/// Numeric counter at a dotted path, panicking with the path on miss.
fn counter(doc: &JsonValue, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("{} missing from metrics doc", path.join(".")));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("{} is not a number", path.join("."))) as u64
}

fn injected(doc: &JsonValue, site: &str) -> u64 {
    counter(doc, &["faults", "injected", site, "injected"])
}

fn assert_all_ok(replies: &[String]) {
    for (k, reply) in replies.iter().enumerate() {
        let doc = rvhpc::obs::json::parse(reply).expect("reply parses");
        assert_eq!(
            doc.get("ok"),
            Some(&JsonValue::Bool(true)),
            "request {k} must be acked ok, got: {reply}"
        );
    }
}

/// The tentpole acceptance run: life 1 computes and persists, life 2 on
/// a fresh engine restores the store and replays the same history with
/// zero recomputes and byte-identical replies.
#[test]
fn warm_restart_replays_byte_identical_with_zero_recompute() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let dir = temp_store("warm");
    let lines: Vec<String> = (0..REQUESTS)
        .map(|k| loadgen::request_line(k, Mix::Mixed, None, None))
        .collect();

    // Life 1: cold. Every unique key is a compute, written through.
    let (addr, handle) = boot_on(store_config(&dir, None), fresh_engine());
    let cold = drive_raw(addr, &lines);
    assert_all_ok(&cold);
    let doc1 = quit_and_join(addr, handle);
    assert_eq!(
        counter(&doc1, &["engine", "prediction_cache", "misses"]),
        REQUESTS as u64,
        "cold life computes every unique key"
    );
    assert_eq!(
        counter(&doc1, &["store", "disk", "entries"]),
        REQUESTS as u64,
        "write-through persists every computed prediction"
    );
    assert_eq!(counter(&doc1, &["store", "disk", "write_errors"]), 0);

    // Life 2: fresh engine, same directory. The replayed history must
    // be answered from the restored store without touching the
    // executor.
    let (addr, handle) = boot_on(store_config(&dir, None), fresh_engine());
    let warm = drive_raw(addr, &lines);
    assert_eq!(cold, warm, "warm replies must be byte-identical");
    // Each disk read promoted its record, so a second replay is all
    // hot-tier hits — which the reactor answers without a worker, and
    // which must not reach the disk tier again (the counts below).
    let hot = drive_raw(addr, &lines);
    assert_eq!(cold, hot, "promoted replies must be byte-identical");
    let doc2 = quit_and_join(addr, handle);
    assert_eq!(
        counter(&doc2, &["engine", "prediction_cache", "hits"]),
        2 * REQUESTS as u64,
        "one hit per request, from the disk tier and then from the hot tier"
    );
    assert_eq!(
        counter(&doc2, &["engine", "prediction_cache", "misses"]),
        0,
        "warm restart must not recompute"
    );
    assert_eq!(
        counter(&doc2, &["engine", "executor", "executed"]),
        0,
        "warm restart must not touch the executor"
    );
    assert_eq!(
        counter(&doc2, &["store", "disk", "restored"]),
        REQUESTS as u64,
        "open-time scan restores the whole segment"
    );
    assert_eq!(
        counter(&doc2, &["store", "disk", "hits"]),
        REQUESTS as u64,
        "each unique key is one disk hit, then promoted hot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded mid-record tears on the append path: the store heals each
/// one in-line (recovery counter == injected counter, exactly), no ack
/// is lost, and the healed segment still restores cleanly for a warm
/// life with zero recomputes.
#[test]
fn torn_store_appends_recover_and_lose_nothing() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let dir = temp_store("torn");
    let lines: Vec<String> = (0..REQUESTS)
        .map(|k| loadgen::request_line(k, Mix::Mixed, None, None))
        .collect();

    // 24 unique keys mean 24 append occurrences; the schedule fires on
    // occurrences 1, 3, 5, 7 — four injected tears, each healed.
    let plan = "seed=5,store=1:2x4";
    let (addr, handle) = boot_on(store_config(&dir, Some(plan)), fresh_engine());
    let torn = drive_raw(addr, &lines);
    assert_all_ok(&torn);
    let doc = quit_and_join(addr, handle);
    assert_eq!(injected(&doc, "store"), 4, "the schedule hits its cap");
    assert_eq!(
        counter(&doc, &["store", "disk", "torn_recoveries"]),
        4,
        "every injected tear is healed in-line, and only those"
    );
    assert_eq!(counter(&doc, &["store", "disk", "write_errors"]), 0);
    assert_eq!(
        counter(&doc, &["store", "disk", "entries"]),
        REQUESTS as u64,
        "healed appends still land every record"
    );

    // The healed segment is indistinguishable from an untorn one: a
    // fault-free warm life restores it fully and replays byte-for-byte.
    let (addr, handle) = boot_on(store_config(&dir, None), fresh_engine());
    let warm = drive_raw(addr, &lines);
    assert_eq!(torn, warm, "healed records must decode identically");
    let doc2 = quit_and_join(addr, handle);
    assert_eq!(
        counter(&doc2, &["store", "disk", "restored"]),
        REQUESTS as u64
    );
    assert_eq!(counter(&doc2, &["store", "disk", "truncated_bytes"]), 0);
    assert_eq!(counter(&doc2, &["engine", "prediction_cache", "misses"]), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under queue pressure bulk traffic is shed immediately with a
/// structured retry hint while interactive traffic keeps being
/// admitted; the final document's `qos` section accounts for both.
#[test]
fn bulk_is_shed_before_interactive_under_pressure() {
    let _guard = SERVER_LOCK.lock().unwrap();
    // One shard, queue depth 4: bulk is refused at depth >= 2,
    // interactive rides the full queue. The stall rule holds the single
    // worker for 2 s after it picks up the first job, freezing the
    // depth the admission check sees.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_cap: 4,
        pool_threads: 1,
        retry_after_ms: 25,
        faults: Some(FaultPlan::parse("seed=3,stall=1:1x1/2000").expect("plan parses")),
        ..ServerConfig::default()
    };
    let (addr, handle) = boot_on(config, fresh_engine());

    let classed = |k: usize, p: Priority| loadgen::request_line(k, Mix::Preset, None, Some(p));
    let connect = || {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        (writer, BufReader::new(stream))
    };

    // Conn A's job is picked up and stalls the worker; B and C queue
    // behind it (depth 2). Each connection thread blocks in its
    // predict, so the queue can only be filled from separate conns.
    let (mut wa, mut ra) = connect();
    writeln!(wa, "{}", classed(0, Priority::Interactive)).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let (mut wb, mut rb) = connect();
    writeln!(wb, "{}", classed(1, Priority::Interactive)).unwrap();
    let (mut wc, mut rc) = connect();
    writeln!(wc, "{}", classed(2, Priority::Interactive)).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // A bulk request now bounces straight off admission: an immediate
    // `overloaded` error carrying the configured retry hint.
    let (mut wd, mut rd) = connect();
    writeln!(wd, "{}", classed(3, Priority::Bulk)).unwrap();
    let mut reply = String::new();
    rd.read_line(&mut reply).unwrap();
    let doc = rvhpc::obs::json::parse(reply.trim_end()).expect("shed reply parses");
    let error = doc.get("error").expect("bulk request must be shed");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("overloaded")
    );
    assert_eq!(
        error.get("retry_after_ms").and_then(JsonValue::as_f64),
        Some(25.0),
        "shed replies must carry the retry hint"
    );

    // The stalled interactive requests all finish once the stall ends.
    for reader in [&mut ra, &mut rb, &mut rc] {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.contains("\"ok\":true"),
            "interactive request must be served, got: {reply}"
        );
    }
    drop((wa, wb, wc, wd, rd));

    let doc = quit_and_join(addr, handle);
    assert_eq!(
        counter(&doc, &["qos", "classes", "interactive", "requests"]),
        3
    );
    assert_eq!(counter(&doc, &["qos", "classes", "interactive", "ok"]), 3);
    assert_eq!(counter(&doc, &["qos", "classes", "interactive", "shed"]), 0);
    assert_eq!(counter(&doc, &["qos", "classes", "bulk", "requests"]), 1);
    assert_eq!(counter(&doc, &["qos", "classes", "bulk", "shed"]), 1);
    assert_eq!(counter(&doc, &["qos", "classes", "bulk", "ok"]), 0);
    assert!(
        doc.get("qos")
            .and_then(|q| q.get("classes"))
            .and_then(|c| c.get("interactive"))
            .and_then(|i| i.get("latency"))
            .and_then(|l| l.get("p99_us"))
            .is_some(),
        "per-class latency histogram must be reported"
    );
}

/// A class-less request stream against a store-less server leaves no
/// `qos` or `store` section at all — the document stays byte-compatible
/// with pre-QoS consumers.
#[test]
fn classless_storeless_runs_leave_no_new_sections() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        queue_cap: 8,
        pool_threads: 1,
        ..ServerConfig::default()
    };
    let (addr, handle) = boot_on(config, fresh_engine());
    let lines: Vec<String> = (0..8)
        .map(|k| loadgen::request_line(k, Mix::Preset, None, None))
        .collect();
    assert_all_ok(&drive_raw(addr, &lines));
    let doc = quit_and_join(addr, handle);
    assert!(
        doc.get("qos").is_none(),
        "class-less runs grow no qos section"
    );
    assert!(
        doc.get("store").is_none(),
        "store-less runs grow no store section"
    );
}
