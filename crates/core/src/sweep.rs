//! Parameter sweeps with serializable raw output — the building block for
//! custom studies beyond the paper's fixed tables.
//!
//! Sweeps are thin plan constructors over the prediction engine:
//! [`thread_plan`] / [`grid_plan`] build the declarative query batch and
//! [`thread_sweep`] / [`grid_sweep`] resolve it through the global
//! [`Engine`] — so repeated sweeps over the same bench/class are cache
//! hits (including the [`WorkloadProfile`](rvhpc_npb::profile::WorkloadProfile)
//! derivation), and large grids evaluate in parallel under
//! `RVHPC_JOBS` / `--jobs`.

use std::fmt::Write as _;

use rvhpc_machines::MachineId;
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_obs::json::Writer;

use crate::engine::{Engine, MachineSel, Plan, Query};

/// One sweep sample.
#[derive(Debug, Clone)]
pub struct Sample {
    pub machine: MachineId,
    pub bench: BenchmarkId,
    pub class: Class,
    pub threads: u32,
    pub seconds: f64,
    pub mops: f64,
}

/// The query batch behind [`thread_sweep`]: one query per thread count,
/// clamped to the machine's cores (duplicates after clamping dropped).
pub(crate) fn thread_plan(
    machine: MachineId,
    bench: BenchmarkId,
    class: Class,
    threads: &[u32],
) -> Plan {
    let cores = rvhpc_machines::presets::by_id(machine).cores;
    let mut seen = std::collections::BTreeSet::new();
    let mut plan = Plan::new();
    for t in threads.iter().map(|&t| t.clamp(1, cores)) {
        if seen.insert(t) {
            plan.push(Query::paper(machine, bench, class, t));
        }
    }
    plan
}

/// The query batch behind [`grid_sweep`]: the full
/// (machine × bench × threads) product for one class, merged into a
/// single plan so the engine evaluates it as one deduplicated batch.
pub(crate) fn grid_plan(
    machines: &[MachineId],
    benches: &[BenchmarkId],
    class: Class,
    threads: &[u32],
) -> Plan {
    let mut plan = Plan::new();
    for &m in machines {
        for &b in benches {
            plan.merge(thread_plan(m, b, class, threads));
        }
    }
    plan
}

/// Resolve a sweep plan through `engine` and shape the results as samples.
/// Sweep plans only contain preset machines.
fn samples(engine: &Engine, plan: &Plan) -> Vec<Sample> {
    let preds = engine.execute(plan);
    plan.queries()
        .iter()
        .zip(preds)
        .map(|(q, pred)| {
            let MachineSel::Preset(machine) = q.machine else {
                unreachable!("sweep plans are preset-only")
            };
            Sample {
                machine,
                bench: q.bench,
                class: q.class,
                threads: q.threads,
                seconds: pred.seconds,
                mops: pred.mops,
            }
        })
        .collect()
}

/// Predict `bench`/`class` on `machine` for each thread count (clamped to
/// the machine's cores; duplicates after clamping are dropped). Resolved
/// through the global engine: the workload profile is derived at most
/// once per process and repeated sweeps are pure cache hits.
pub fn thread_sweep(
    machine: MachineId,
    bench: BenchmarkId,
    class: Class,
    threads: &[u32],
) -> Vec<Sample> {
    samples(
        Engine::global(),
        &thread_plan(machine, bench, class, threads),
    )
}

/// The full (machine × bench × threads) grid for one class, evaluated as
/// one batch on the global engine.
pub fn grid_sweep(
    machines: &[MachineId],
    benches: &[BenchmarkId],
    class: Class,
    threads: &[u32],
) -> Vec<Sample> {
    samples(
        Engine::global(),
        &grid_plan(machines, benches, class, threads),
    )
}

/// Serialize samples as a JSON array, streamed through the workspace's
/// shared JSON writer ([`rvhpc_obs::json::Writer`]) — one
/// escaping/formatting implementation for sweeps, traces and metrics
/// alike. Fields are written in key order, as a `JsonValue` object
/// prints them.
pub fn to_json(samples: &[Sample]) -> String {
    let mut out = String::with_capacity(2 + samples.len() * 128);
    Writer::new(&mut out).array(|a| {
        for s in samples {
            a.item().object(|o| {
                o.field("bench").string(s.bench.name());
                o.field("class").string(s.class.name());
                o.field("machine").string(s.machine.name());
                o.field("mops").number(s.mops);
                o.field("seconds").number(s.seconds);
                o.field("threads").number(f64::from(s.threads));
            });
        }
    });
    out
}

/// Serialize samples as CSV.
pub fn to_csv(samples: &[Sample]) -> String {
    const HEADER: &str = "machine,bench,class,threads,seconds,mops\n";
    let mut out = String::with_capacity(HEADER.len() + samples.len() * 64);
    out.push_str(HEADER);
    for s in samples {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            s.machine.name(),
            s.bench.name(),
            s.class.name(),
            s.threads,
            s.seconds,
            s.mops
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_obs::{json, JsonValue};

    /// The tree a sample used to be rendered through: the oracle for the
    /// streamed [`to_json`].
    fn sample_json(s: &Sample) -> JsonValue {
        JsonValue::object([
            ("machine".to_string(), JsonValue::from(s.machine.name())),
            ("bench".to_string(), JsonValue::from(s.bench.name())),
            ("class".to_string(), JsonValue::from(s.class.name())),
            ("threads".to_string(), JsonValue::from(u64::from(s.threads))),
            ("seconds".to_string(), JsonValue::from(s.seconds)),
            ("mops".to_string(), JsonValue::from(s.mops)),
        ])
    }

    /// The CSV writer before it wrote rows in place: the oracle for
    /// [`to_csv`].
    fn csv_by_format(samples: &[Sample]) -> String {
        let mut out = String::from("machine,bench,class,threads,seconds,mops\n");
        for s in samples {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                s.machine.name(),
                s.bench.name(),
                s.class.name(),
                s.threads,
                s.seconds,
                s.mops
            ));
        }
        out
    }

    /// Every machine, benchmark and class, threads 1 and 1024, and each
    /// number shape the writer treats apart: NaN, ±inf, −0.0, integral,
    /// at or above 9e15, fractional.
    fn awkward_samples() -> Vec<Sample> {
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            42.0,
            9e15,
            2f64.powi(60),
            0.123_456_789,
            1e-9,
        ];
        let mut out = Vec::new();
        let mut i = 0usize;
        for machine in MachineId::ALL {
            for bench in BenchmarkId::ALL {
                for class in Class::ALL {
                    out.push(Sample {
                        machine,
                        bench,
                        class,
                        threads: [1, 1024][i % 2],
                        seconds: values[i % values.len()],
                        mops: values[(i / values.len() + i) % values.len()],
                    });
                    i += 1;
                }
            }
        }
        out
    }

    #[test]
    fn streamed_json_is_byte_equal_to_the_tree() {
        let all = awkward_samples();
        for samples in [&all[..], &all[..1], &[]] {
            let tree = JsonValue::Array(samples.iter().map(sample_json).collect()).to_json();
            assert_eq!(to_json(samples), tree);
        }
    }

    #[test]
    fn in_place_csv_is_byte_equal_to_the_formatted_rows() {
        let all = awkward_samples();
        for samples in [&all[..], &[]] {
            assert_eq!(to_csv(samples), csv_by_format(samples));
        }
    }

    #[test]
    fn thread_sweep_clamps_and_dedups() {
        let s = thread_sweep(
            MachineId::Xeon8170,
            BenchmarkId::Ep,
            Class::C,
            &[1, 2, 26, 32, 64],
        );
        // 32 and 64 clamp to 26, deduplicated.
        assert_eq!(s.len(), 3);
        assert_eq!(s.last().unwrap().threads, 26);
    }

    #[test]
    fn repeated_sweeps_are_cache_hits() {
        let engine = Engine::new();
        let plan = thread_plan(MachineId::Sg2044, BenchmarkId::Mg, Class::B, &[1, 4, 16]);
        let first = samples(&engine, &plan);
        let warm = engine.metrics();
        assert_eq!(
            warm.profile_misses, 1,
            "one profile derivation per bench/class"
        );
        let second = samples(&engine, &plan);
        let after = engine.metrics();
        assert_eq!(after.prediction_misses, warm.prediction_misses);
        assert_eq!(after.profile_misses, warm.profile_misses);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
            assert_eq!(a.mops.to_bits(), b.mops.to_bits());
        }
    }

    #[test]
    fn grid_covers_the_product() {
        let g = grid_sweep(
            &[MachineId::Sg2044, MachineId::Sg2042],
            &[BenchmarkId::Is, BenchmarkId::Mg],
            Class::C,
            &[1, 64],
        );
        assert_eq!(g.len(), 2 * 2 * 2);
        assert!(g.iter().all(|s| s.mops > 0.0 && s.seconds > 0.0));
    }

    #[test]
    fn csv_has_one_line_per_sample_plus_header() {
        let g = thread_sweep(MachineId::Sg2044, BenchmarkId::Ft, Class::B, &[1, 2, 4]);
        let csv = to_csv(&g);
        assert_eq!(csv.lines().count(), 1 + g.len());
        assert!(csv.starts_with("machine,bench,class,threads,seconds,mops"));
    }

    #[test]
    fn json_output_is_structurally_sound() {
        let g = thread_sweep(MachineId::Sg2042, BenchmarkId::Cg, Class::C, &[1, 64]);
        let doc = json::parse(&to_json(&g)).expect("valid JSON");
        let items = doc.as_array().expect("array document");
        assert_eq!(items.len(), g.len());
        for (item, s) in items.iter().zip(&g) {
            assert_eq!(
                item.get("machine").and_then(JsonValue::as_str),
                Some(s.machine.name())
            );
            assert_eq!(
                item.get("threads").and_then(JsonValue::as_f64),
                Some(f64::from(s.threads))
            );
            assert_eq!(item.get("mops").and_then(JsonValue::as_f64), Some(s.mops));
        }
    }

    #[test]
    fn json_handles_single_sample_and_empty_sweeps() {
        // Single sample (every thread count clamps+dedups to one query) —
        // the old hand-rolled emitter's `len - 1` comma assertion made
        // this shape easy to get wrong.
        let one = thread_sweep(MachineId::Sg2044, BenchmarkId::Ep, Class::B, &[64, 64, 99]);
        assert_eq!(one.len(), 1);
        let doc = json::parse(&to_json(&one)).expect("single-sample JSON parses");
        assert_eq!(doc.as_array().map(<[JsonValue]>::len), Some(1));

        let empty: Vec<Sample> = Vec::new();
        assert_eq!(to_json(&empty), "[]");
    }
}
