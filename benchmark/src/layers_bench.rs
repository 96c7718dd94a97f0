//! The `bench.*` layer: what the machine itself costs, with no rvhpc
//! code involved. Two runs whose `bench.calib_ns` differ by more than a
//! tenth were not made on comparable machines.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::metrics::Report;
use crate::stats;

const CALIB_STEPS: u64 = 1 << 24;
const CALIB_REPEATS: usize = 9;
const ECHO_ROUNDS: usize = 5000;

/// Nanoseconds per step of a dependent xor-shift-multiply chain (a plain
/// LCG is affine, and the compiler folds 2^24 steps of it into a few).
fn calib_ns() -> f64 {
    let times: Vec<f64> = (0..CALIB_REPEATS)
        .map(|r| {
            let t = Instant::now();
            let mut x = std::hint::black_box(r as u64);
            for step in 0..CALIB_STEPS {
                x = (x ^ (x >> 29))
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(step);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64 / CALIB_STEPS as f64
        })
        .collect();
    stats::median(&times)
}

/// Median round trip of one short line over loopback TCP between two
/// blocking threads: the floor under any client-observed latency.
fn loopback_rtt_us() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    let echo = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept echo client");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).expect("echo read") > 0 {
            writer.write_all(line.as_bytes()).expect("echo write");
            line.clear();
        }
    });
    let stream = TcpStream::connect(addr).expect("connect echo");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let request = format!("{}\n", "x".repeat(90));
    let mut reply = String::new();
    let mut rtts = Vec::with_capacity(ECHO_ROUNDS);
    for round in 0..ECHO_ROUNDS + 100 {
        let t = Instant::now();
        writer.write_all(request.as_bytes()).expect("echo send");
        reply.clear();
        reader.read_line(&mut reply).expect("echo reply");
        if round >= 100 {
            rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(writer);
    drop(reader);
    echo.join().expect("echo thread panicked");
    stats::median(&rtts)
}

/// The traced run's own headline: the pass with span recording off
/// against the pass with it on, and how far apart the blocks of the
/// first lie (`per_block`, one value per block).
pub fn headline(
    report: &mut Report,
    wall_s: f64,
    (plain, traced): (f64, f64),
    samples: u64,
    per_block: &[f64],
) {
    report.set("bench.timed_wall_s", wall_s, 1);
    report.set("bench.untraced_ops_per_s", plain, samples);
    report.set(
        "bench.trace_overhead_pct",
        100.0 * (plain - traced) / plain,
        2,
    );
    report.set(
        "bench.block_spread_pct",
        stats::spread_pct(per_block),
        per_block.len() as u64,
    );
}

/// A fresh report holding the machine's own reference figures: every
/// traced run starts from this.
pub fn probe() -> Report {
    let mut report = Report::default();
    report.set("bench.calib_ns", calib_ns(), CALIB_REPEATS as u64);
    report.set(
        "bench.loopback_rtt_us",
        loopback_rtt_us(),
        ECHO_ROUNDS as u64,
    );
    report
}
