//! The `core.*`, `npb.profile` and `obs.*` layers, each timed around
//! calls into its public functions over seeded inputs.

use std::time::Instant;

use rvhpc_core::engine::store::{decode_prediction, encode_prediction, DiskStore};
use rvhpc_core::engine::{Backend, Engine, Plan, Query};
use rvhpc_core::model::{predict, Scenario};
use rvhpc_core::{experiment, isa_backend, report as render, Prediction};
use rvhpc_isa::IsaExt;
use rvhpc_machines::{presets, MachineId};
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_obs::json::{self, JsonValue};
use rvhpc_obs::LatencyHistogram;
use rvhpc_parallel::Pool;

use crate::metrics::Report;
use crate::model::whatif_machine;
use crate::rng::SplitMix64;
use crate::stats;

/// Distinct preset queries the plan/engine layers draw.
const GRID: usize = 4096;
/// Records the store layer appends and reads back.
const STORE_RECORDS: usize = 50_000;
/// Queries per batch for the `engine_batch_*` trajectory figures.
const BATCH_QUERIES: usize = 32;

fn seeded_queries(seed: u64, n: usize) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed ^ 0xc0de);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let q = Query::paper(
            rng.pick(&MachineId::ALL),
            rng.pick(&BenchmarkId::ALL),
            rng.pick(&Class::ALL),
            1 + rng.below(1024) as u32,
        );
        if seen.insert(q) {
            out.push(q);
        }
    }
    out
}

/// Median over `repeats` of the time one call of `f` takes, in
/// nanoseconds per item of the `items` it processes.
fn ns_per_item(repeats: usize, items: usize, f: impl FnMut()) -> f64 {
    stats::median_s(repeats, f) * 1e9 / items as f64
}

/// `core.plan.*`: building a plan, and keying preset and custom queries.
pub fn plan(report: &mut Report, seed: u64) {
    let queries = seeded_queries(seed, GRID);
    let mut rng = SplitMix64::new(seed);
    let machines: Vec<_> = (0..64).map(|_| whatif_machine(&mut rng)).collect();

    let build = ns_per_item(9, GRID, || {
        let mut plan = Plan::new();
        for (k, q) in queries.iter().enumerate() {
            if k % 64 == 0 {
                std::hint::black_box(plan.add_machine(machines[k / 64].clone()));
            }
            plan.push(*q);
        }
        std::hint::black_box(plan.len());
    });
    report.set("core.plan.build_ns_per_q", build, GRID as u64);

    let mut preset_plan = Plan::new();
    queries.iter().for_each(|q| {
        preset_plan.push(*q);
    });
    let key = ns_per_item(9, GRID, || {
        for q in preset_plan.queries() {
            std::hint::black_box(preset_plan.key_of(q).fingerprint());
        }
    });
    report.set("core.plan.key_ns", key, GRID as u64);

    let mut custom_plan = Plan::new();
    for (m, q) in machines.iter().zip(&queries) {
        let machine = custom_plan.add_machine(m.clone());
        custom_plan.push(Query { machine, ..*q });
    }
    let custom = ns_per_item(9, machines.len(), || {
        for q in custom_plan.queries() {
            std::hint::black_box(custom_plan.key_of(q).fingerprint());
        }
    });
    report.set("core.plan.custom_key_ns", custom, machines.len() as u64);
}

/// `core.engine.*` timings: one query against a warm and a cold cache,
/// and the 32-query batches of the `engine_batch_*` trajectory targets.
pub fn engine(report: &mut Report, seed: u64) {
    let queries = seeded_queries(seed, GRID);
    let engine = Engine::new();
    // Derive every profile first, so a miss is the model alone.
    for bench in BenchmarkId::ALL {
        for class in Class::ALL {
            engine.profile(bench, class);
        }
    }
    let per_query = |engine: &Engine| -> Vec<f64> {
        queries
            .iter()
            .map(|q| {
                let t = Instant::now();
                std::hint::black_box(engine.resolve_one(q));
                t.elapsed().as_nanos() as f64
            })
            .collect()
    };
    report.set(
        "core.engine.miss_ns",
        stats::median(&per_query(&engine)),
        GRID as u64,
    );
    report.set(
        "core.engine.hit_ns",
        stats::median(&per_query(&engine)),
        GRID as u64,
    );

    let pool = Pool::new(1);
    let mut batch = Plan::new();
    queries[..BATCH_QUERIES].iter().for_each(|q| {
        batch.push(*q);
    });
    let cold = ns_per_item(25, BATCH_QUERIES, || {
        std::hint::black_box(Engine::new().execute_on(&batch, &pool).len());
    });
    let warm = ns_per_item(25, BATCH_QUERIES, || {
        std::hint::black_box(engine.execute_on(&batch, &pool).len());
    });
    report.set("core.engine.batch_cold_ns_per_q", cold, 25);
    report.set("core.engine.batch_warm_ns_per_q", warm, 25);
}

/// `core.store.*`: a disk tier of its own in a scratch directory.
pub fn store(report: &mut Report, seed: u64) {
    // A few hundred real predictions, reused under distinct fingerprints.
    let engine = Engine::new();
    let preds: Vec<Prediction> = seeded_queries(seed, 256)
        .iter()
        .map(|q| (*engine.resolve_one(q)).clone())
        .collect();
    let mut rng = SplitMix64::new(seed);
    let fps: Vec<u64> = (0..STORE_RECORDS).map(|_| rng.next_u64()).collect();

    let dir = crate::scratch_dir("layer-store");
    let store = DiskStore::open(&dir).expect("open scratch store");
    let timed = |f: &dyn Fn(usize)| -> f64 {
        let us: Vec<f64> = (0..STORE_RECORDS)
            .map(|i| {
                let t = Instant::now();
                f(i);
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        stats::median(&us)
    };
    let n = STORE_RECORDS as u64;
    let append = timed(&|i| {
        store
            .append(fps[i], &preds[i % preds.len()])
            .expect("append to scratch store");
    });
    report.set("core.store.append_us", append, n);
    let get = timed(&|i| {
        std::hint::black_box(store.get(fps[i]).expect("record is stored"));
    });
    report.set("core.store.get_us", get, n);
    report.set(
        "core.store.bytes_per_record",
        store.bytes() as f64 / store.len() as f64,
        n,
    );
    store.sync().expect("sync scratch store");
    drop(store);

    let open_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let reopened = DiskStore::open(&dir).expect("reopen scratch store");
            assert_eq!(reopened.len(), STORE_RECORDS);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set("core.store.open_ms", stats::median(&open_ms), 5);
    let _ = std::fs::remove_dir_all(dir);

    let encoded: Vec<Vec<u8>> = preds.iter().map(encode_prediction).collect();
    let encode = ns_per_item(25, preds.len(), || {
        for p in &preds {
            std::hint::black_box(encode_prediction(p));
        }
    });
    let decode = ns_per_item(25, preds.len(), || {
        for bytes in &encoded {
            std::hint::black_box(decode_prediction(bytes).expect("decodes"));
        }
    });
    report.set("core.store.encode_ns", encode, 25 * preds.len() as u64);
    report.set("core.store.decode_ns", decode, 25 * preds.len() as u64);
}

/// `core.model.*` and `npb.profile_us`: the arithmetic under a miss.
pub fn model(report: &mut Report, seed: u64) {
    let profile_us = ns_per_item(9, 48, || {
        for bench in BenchmarkId::ALL {
            for class in Class::ALL {
                std::hint::black_box(rvhpc_npb::profile(bench, class));
            }
        }
    }) / 1e3;
    report.set("npb.profile_us", profile_us, 9 * 48);

    let engine = Engine::new();
    let queries = seeded_queries(seed, 1024);
    let inputs: Vec<_> = queries
        .iter()
        .map(|q| {
            let rvhpc_core::engine::MachineSel::Preset(id) = q.machine else {
                unreachable!("seeded queries are preset-only")
            };
            (engine.profile(q.bench, q.class), presets::by_id(id), *q)
        })
        .collect();
    let predict_ns = ns_per_item(9, inputs.len(), || {
        for (profile, machine, q) in &inputs {
            std::hint::black_box(predict(profile, &q.scenario(machine)));
        }
    });
    report.set("core.model.predict_ns", predict_ns, 9 * inputs.len() as u64);
}

/// `core.model.predict_isa_us`: the ISA backend's predict runs a whole
/// characterisation.
pub fn model_isa(report: &mut Report) {
    let engine = Engine::new();
    let sg2044 = presets::by_id(MachineId::Sg2044);
    let scenario = Scenario::headline(&sg2044, 64);
    let benches = [BenchmarkId::Cg, BenchmarkId::Mg, BenchmarkId::Ep];
    let isa_us = ns_per_item(5, benches.len(), || {
        for bench in benches {
            let profile = engine.profile(bench, Class::C);
            std::hint::black_box(isa_backend::predict_isa(
                &profile,
                &scenario,
                IsaExt::full(),
            ));
        }
    }) / 1e3;
    report.set(
        "core.model.predict_isa_us",
        isa_us,
        5 * benches.len() as u64,
    );
    // Keyed beside the profile backend: same query, separate entry.
    let q = Query::paper(MachineId::Sg2044, BenchmarkId::Cg, Class::C, 64);
    let isa_q = q.with_backend(Backend::Isa(IsaExt::full()));
    assert_ne!(
        Plan::single(q).key_of(&q),
        Plan::single(isa_q).key_of(&isa_q)
    );
}

/// `core.report.svg_ms`: the six figures as SVG, data resolved first.
pub fn report_svg(report: &mut Report) {
    let mut figures = vec![("Figure 1", "GB/s", experiment::fig1_data())];
    for bench in BenchmarkId::KERNELS {
        figures.push((bench.name(), "Mop/s", experiment::fig_kernel_data(bench)));
    }
    let ms = ns_per_item(25, 1, || {
        for (title, unit, curves) in &figures {
            std::hint::black_box(render::svg_plot(title, unit, curves));
        }
    }) / 1e6;
    report.set("core.report.svg_ms", ms, 25);
}

/// `obs.*`: the JSON writer and parser over a document the workload
/// itself produced, and the latency histogram.
pub fn obs(report: &mut Report, doc: &JsonValue) {
    let text = doc.to_json();
    let kb = text.len() as f64 / 1024.0;
    let render_ns = ns_per_item(25, 1, || {
        std::hint::black_box(doc.to_json());
    });
    let parse_ns = ns_per_item(25, 1, || {
        std::hint::black_box(json::parse(&text).expect("own output parses"));
    });
    report.set("obs.json.render_ns_per_kb", render_ns / kb, 25);
    report.set("obs.json.parse_ns_per_kb", parse_ns / kb, 25);

    let mut rng = SplitMix64::new(text.len() as u64);
    let values: Vec<u64> = (0..100_000).map(|_| rng.next_u64() % 1_000_000).collect();
    let mut hist = LatencyHistogram::new();
    let record_ns = ns_per_item(9, values.len(), || {
        for &v in &values {
            hist.record(v);
        }
    });
    std::hint::black_box(hist.count());
    report.set("obs.hist.record_ns", record_ns, 9 * values.len() as u64);
}
