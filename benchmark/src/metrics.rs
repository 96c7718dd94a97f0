//! The metric names. `BENCHMARK.json` lists the same names; a test keeps
//! the two in step.

use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the system sees. Every workload reports every one of
/// these; README.md says what "op" and "latency" mean on each workload.
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s"),
    d("peak_rss_mb", "MiB"),
    d("ops_per_s", "op/s"),
    d("latency_p50_us", "us"),
    d("cpu_us_per_op", "us"),
    d("model_mape_pct", "%"),
    d("isa_backend_ratio_max", "ratio"),
];

/// One layer each, measured in the traced run only. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[Def] = &[
    d("bench.calib_ns", "ns"),
    d("bench.loopback_rtt_us", "us"),
    d("bench.client_cpu_s", "s"),
    d("bench.timed_wall_s", "s"),
    d("bench.untraced_ops_per_s", "op/s"),
    d("bench.trace_overhead_pct", "%"),
    d("bench.block_spread_pct", "%"),
    d("serve.proto.parse_ns", "ns"),
    d("serve.proto.to_plan_ns", "ns"),
    d("serve.proto.render_ns", "ns"),
    d("serve.proto.write_frame_ns", "ns"),
    d("serve.proto.request_bytes", "B"),
    d("serve.proto.reply_bytes", "B"),
    d("serve.batch.roundtrip_us", "us"),
    d("serve.batch.queue_us", "us"),
    d("serve.batch.exec_us", "us"),
    d("serve.batch.jobs_per_batch", "count"),
    d("serve.batch.shed", "count"),
    d("serve.poll.wake_rtt_us", "us"),
    d("serve.poll.wait_empty_ns", "ns"),
    d("serve.server.client_p50_us", "us"),
    d("serve.server.client_p99_us", "us"),
    d("serve.server.service_p50_us", "us"),
    d("serve.server.service_p99_us", "us"),
    d("serve.server.residual_us", "us"),
    d("serve.server.ctx_switches_per_req", "count"),
    d("serve.server.requests_ok", "count"),
    d("serve.server.deadline_expired", "count"),
    d("serve.server.internal_errors", "count"),
    d("serve.cluster.owner_of_ns", "ns"),
    d("serve.cluster.owners_ns", "ns"),
    d("serve.cluster.forward_us", "us"),
    d("serve.cluster.hop_overhead_us", "us"),
    d("serve.cluster.failovers", "count"),
    d("serve.cluster.forward_errors", "count"),
    d("serve.cluster.node_skew", "ratio"),
    d("core.plan.build_ns_per_q", "ns"),
    d("core.plan.key_ns", "ns"),
    d("core.plan.custom_key_ns", "ns"),
    d("core.engine.hit_ns", "ns"),
    d("core.engine.miss_ns", "ns"),
    d("core.engine.batch_warm_ns_per_q", "ns"),
    d("core.engine.batch_cold_ns_per_q", "ns"),
    d("core.engine.hit_ratio", "ratio"),
    d("core.engine.evictions", "count"),
    d("core.engine.dedup_ratio", "ratio"),
    d("core.engine.occupancy", "ratio"),
    d("core.store.append_us", "us"),
    d("core.store.get_us", "us"),
    d("core.store.encode_ns", "ns"),
    d("core.store.decode_ns", "ns"),
    d("core.store.open_ms", "ms"),
    d("core.store.bytes_per_record", "B"),
    d("core.store.hits", "count"),
    d("core.store.appends", "count"),
    d("core.model.predict_ns", "ns"),
    d("core.model.predict_isa_us", "us"),
    d("npb.profile_us", "us"),
    d("archsim.replay_ns_per_event", "ns"),
    d("archsim.trace_sim_maccess_s", "Maccess/s"),
    d("archsim.replay_events", "count"),
    d("core.report.svg_ms", "ms"),
    d("obs.json.render_ns_per_kb", "ns"),
    d("obs.json.parse_ns_per_kb", "ns"),
    d("obs.hist.record_ns", "ns"),
    d("isa.encode_us", "us"),
    d("isa.decode_mips", "Minstr/s"),
    d("isa.cfg_us", "us"),
    d("isa.interp_mips.triad", "Minstr/s"),
    d("isa.interp_mips.spmv", "Minstr/s"),
    d("isa.interp_mips.mg", "Minstr/s"),
    d("isa.interp_mips.ep", "Minstr/s"),
    d("isa.hooked_mips", "Minstr/s"),
    d("isa.replay_share", "ratio"),
    d("isa.instret_total", "count"),
    d("npb.is.mops", "Mop/s"),
    d("npb.mg.mops", "Mop/s"),
    d("npb.ep.mops", "Mop/s"),
    d("npb.cg.mops", "Mop/s"),
    d("npb.ft.mops", "Mop/s"),
    d("npb.bt.mops", "Mop/s"),
    d("npb.lu.mops", "Mop/s"),
    d("npb.sp.mops", "Mop/s"),
    d("npb.verified", "count"),
    d("parallel.fork_join_us", "us"),
    d("parallel.barrier_ns", "ns"),
    d("parallel.dynamic_chunk_ns", "ns"),
    d("parallel.reduce_ns", "ns"),
    d("parallel.barrier_wait_share", "ratio"),
    d("parallel.mg_speedup", "ratio"),
    d("stream.triad_gbs", "GB/s"),
];

/// One run's measured values: name → (value, samples behind it).
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the registry"
        );
        assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// `(def, value, samples)` for every metric of `defs`, in registry
    /// order; a metric never set reads 0 from 0 samples.
    pub fn rows<'a>(&'a self, defs: &'a [Def]) -> impl Iterator<Item = (&'a Def, f64, u64)> {
        defs.iter().map(|d| {
            let (value, samples) = self.values.get(d.name).copied().unwrap_or((0.0, 0));
            (d, value, samples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_obs::json::{self, JsonValue};

    fn listed(doc: &JsonValue, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<_> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed(&doc, section), want, "{section}");
        }
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
