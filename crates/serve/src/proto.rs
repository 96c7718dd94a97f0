//! The wire protocol: newline-delimited JSON requests and replies.
//!
//! Every request is one line of JSON; every reply is one line of JSON.
//! The parser is total — arbitrary bytes produce a structured error
//! reply, never a panic or a dropped connection — and strict: unknown
//! fields are rejected so client typos surface as errors instead of
//! silently applying defaults.
//!
//! Request shapes (all fields except `bench` optional):
//!
//! ```json
//! {"op":"predict","bench":"cg","class":"C","threads":64,"machine":"sg2044","spec":"paper","id":7}
//! {"op":"predict","bench":"ep","machine":{"base":"sg2044","clock_ghz":3.2,"vlen_bits":256}}
//! {"op":"metrics"}
//! {"op":"ping"}
//! {"op":"quit"}
//! ```
//!
//! Replies carry `"ok":true` with a `result` object, or `"ok":false`
//! with an `error` object naming a machine-readable `kind` (`parse`,
//! `invalid`, `overloaded`, `deadline`, `draining`, `internal`) and a
//! human-readable `message`. The request `id`, when present and
//! well-formed, is echoed in both cases.

use std::borrow::Cow;

use rvhpc_core::engine::{MachineSel, Plan, Query, SpecKind};
use rvhpc_core::Prediction;
use rvhpc_machines::{presets, Machine, MachineId, VectorIsa};
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_obs::json::{self, JsonValue};

/// Machine-readable failure category carried in every error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    Parse,
    /// Valid JSON, but not a valid request (unknown op, bad field, ...).
    Invalid,
    /// Rejected at admission: the target shard's queue is full.
    Overloaded,
    /// The request's deadline expired before a result was produced.
    Deadline,
    /// The server is draining and no longer accepts work.
    Draining,
    /// The server failed internally (reply channel died, ...).
    Internal,
}

impl ErrorKind {
    /// Stable wire label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Draining => "draining",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A structured request failure: what went wrong, plus the request id
/// when one could still be extracted.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Echoed request id, when recoverable.
    pub id: Option<u64>,
    /// Failure category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Degradation hint: how long the client should back off before
    /// retrying (load-shed replies). Rendered only when present, so
    /// replies without a hint are byte-identical to the pre-hint wire
    /// format.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// A structured failure with no retry hint.
    pub fn new(id: Option<u64>, kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            id,
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attach a retry-after hint (load-shed replies).
    pub(crate) fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

/// QoS class of a predict request, carried on the wire as the optional
/// `priority` field. Classes order admission under saturation: the
/// lowest class is shed first (with a `retry_after_ms` hint), so
/// interactive traffic keeps its latency SLO while bulk backfill waits.
/// Requests without the field behave exactly as before the field
/// existed — they are admitted like [`Priority::Interactive`] and leave
/// no per-class trace in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive foreground traffic: never pre-checked, only a
    /// genuinely full queue rejects it.
    Interactive,
    /// Throughput traffic: shed when a shard queue is nearly full.
    Batch,
    /// Backfill: shed as soon as a shard queue is half full.
    Bulk,
}

impl Priority {
    /// Every class, highest first (table and metrics order).
    pub(crate) const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Bulk];

    /// Stable wire/metrics label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Bulk => "bulk",
        }
    }

    /// Dense index for per-class counter arrays.
    pub(crate) fn index(&self) -> usize {
        *self as usize
    }

    /// Parse a wire label (case-insensitive).
    pub(crate) fn from_label(s: &str) -> Option<Priority> {
        Priority::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
    }
}

/// Which machine a prediction request targets.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineSpec {
    /// One of the study's presets, by name.
    Preset(MachineId),
    /// A preset with field overrides (what-if descriptor).
    Custom {
        /// The preset the descriptor started from.
        base: MachineId,
        /// The fully-built machine.
        machine: Box<Machine>,
    },
}

/// A validated prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen id echoed in the reply.
    pub id: Option<u64>,
    pub bench: BenchmarkId,
    pub class: Class,
    pub threads: u32,
    pub machine: MachineSpec,
    /// `true` → [`SpecKind::PaperHeadline`]; `false` → [`SpecKind::Headline`].
    pub paper_spec: bool,
    /// Per-request deadline in milliseconds (server default applies when
    /// absent).
    pub deadline_ms: Option<u64>,
    /// QoS class from the optional `priority` field. `None` (class-less)
    /// requests are admitted like [`Priority::Interactive`] but recorded
    /// in no per-class counter, keeping their replies and metrics
    /// byte-identical to the pre-QoS wire format.
    pub priority: Option<Priority>,
}

impl PredictRequest {
    /// Lower the request onto the engine's query model: a single-query
    /// plan (carrying the custom machine descriptor when present).
    pub fn to_plan(&self) -> (Plan, Query) {
        let mut plan = Plan::new();
        let sel = match &self.machine {
            MachineSpec::Preset(id) => MachineSel::Preset(*id),
            MachineSpec::Custom { machine, .. } => plan.add_machine((**machine).clone()),
        };
        let q = Query {
            machine: sel,
            bench: self.bench,
            class: self.class,
            threads: self.threads,
            spec: if self.paper_spec {
                SpecKind::PaperHeadline
            } else {
                SpecKind::Headline
            },
            // The wire protocol predates the ISA backend; served
            // predictions stay profile-driven.
            backend: rvhpc_core::engine::Backend::Profile,
        };
        plan.push(q);
        (plan, q)
    }

    /// Display label for the target machine (`SG2044` or `custom:SG2044`).
    pub(crate) fn machine_label(&self) -> Cow<'static, str> {
        match &self.machine {
            MachineSpec::Preset(id) => Cow::Borrowed(id.name()),
            MachineSpec::Custom { base, .. } => Cow::Owned(format!("custom:{}", base.name())),
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Resolve one prediction query.
    Predict(Box<PredictRequest>),
    /// Return the server's metrics document.
    Metrics,
    /// Return the server's slow-request log (retained span dumps).
    Slow,
    /// Liveness check.
    Ping,
    /// Begin graceful drain and shut the server down.
    Quit,
}

/// A preset name as it is matched: ASCII-lowercased, without spaces,
/// `-` or `_`. An iterator, so a match allocates nothing.
fn squashed(s: &str) -> impl Iterator<Item = char> + '_ {
    s.chars()
        .filter(|c| !matches!(c, ' ' | '-' | '_'))
        .map(|c| c.to_ascii_lowercase())
}

fn preset_by_name(id: Option<u64>, s: &str) -> Result<MachineId, ProtoError> {
    MachineId::ALL
        .into_iter()
        .find(|m| squashed(m.name()).eq(squashed(s)))
        .ok_or_else(|| {
            ProtoError::new(
                id,
                ErrorKind::Invalid,
                format!("unknown machine preset '{s}'"),
            )
        })
}

fn req_id(doc: &JsonValue) -> Option<u64> {
    let n = doc.get("id")?.as_f64()?;
    if n.is_finite() && n >= 0.0 && n == n.trunc() && n < 9e15 {
        Some(n as u64)
    } else {
        None
    }
}

fn get_str<'a>(
    doc: &'a JsonValue,
    id: Option<u64>,
    key: &str,
) -> Result<Option<&'a str>, ProtoError> {
    match doc.get(key) {
        None => Ok(None),
        Some(JsonValue::String(s)) => Ok(Some(s)),
        Some(_) => Err(ProtoError::new(
            id,
            ErrorKind::Invalid,
            format!("field '{key}' must be a string"),
        )),
    }
}

fn get_f64(doc: &JsonValue, id: Option<u64>, key: &str) -> Result<Option<f64>, ProtoError> {
    match doc.get(key) {
        None => Ok(None),
        Some(JsonValue::Number(n)) if n.is_finite() => Ok(Some(*n)),
        Some(_) => Err(ProtoError::new(
            id,
            ErrorKind::Invalid,
            format!("field '{key}' must be a finite number"),
        )),
    }
}

fn get_uint(
    doc: &JsonValue,
    id: Option<u64>,
    key: &str,
    lo: u64,
    hi: u64,
) -> Result<Option<u64>, ProtoError> {
    match get_f64(doc, id, key)? {
        None => Ok(None),
        Some(n) if n >= 0.0 && n == n.trunc() && (lo..=hi).contains(&(n as u64)) => {
            Ok(Some(n as u64))
        }
        Some(_) => Err(ProtoError::new(
            id,
            ErrorKind::Invalid,
            format!("field '{key}' must be an integer in {lo}..={hi}"),
        )),
    }
}

fn reject_unknown_keys(
    doc: &JsonValue,
    id: Option<u64>,
    allowed: &[&str],
    what: &str,
) -> Result<(), ProtoError> {
    if let JsonValue::Object(map) = doc {
        for key in map.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ProtoError::new(
                    id,
                    ErrorKind::Invalid,
                    format!("unknown {what} field '{key}'"),
                ));
            }
        }
    }
    Ok(())
}

const MACHINE_KEYS: [&str; 7] = [
    "base",
    "clock_ghz",
    "cores",
    "vlen_bits",
    "mlp_scale",
    "stream_mlp_scale",
    "bandwidth_scale",
];

fn parse_machine(doc: &JsonValue, id: Option<u64>) -> Result<MachineSpec, ProtoError> {
    match doc.get("machine") {
        None => Ok(MachineSpec::Preset(MachineId::Sg2044)),
        Some(JsonValue::String(s)) => Ok(MachineSpec::Preset(preset_by_name(id, s)?)),
        Some(obj @ JsonValue::Object(_)) => {
            reject_unknown_keys(obj, id, &MACHINE_KEYS, "machine")?;
            let base = match get_str(obj, id, "base")? {
                Some(s) => preset_by_name(id, s)?,
                None => MachineId::Sg2044,
            };
            let mut m = presets::by_id(base);
            let invalid = |msg: String| ProtoError::new(id, ErrorKind::Invalid, msg);
            if let Some(clock) = get_f64(obj, id, "clock_ghz")? {
                if !(0.1..=20.0).contains(&clock) {
                    return Err(invalid("clock_ghz must be in 0.1..=20".into()));
                }
                m.clock_ghz = clock;
            }
            if let Some(cores) = get_uint(obj, id, "cores", 1, 1024)? {
                let cores = cores as u32;
                if !cores.is_multiple_of(m.numa_regions) {
                    return Err(invalid(format!(
                        "cores must be a multiple of the base's {} NUMA regions",
                        m.numa_regions
                    )));
                }
                m.cores = cores;
                m.cores_per_cluster = m.cores_per_cluster.min(cores);
            }
            if let Some(vlen) = get_uint(obj, id, "vlen_bits", 64, 4096)? {
                let vlen = vlen as u32;
                if !vlen.is_power_of_two() {
                    return Err(invalid("vlen_bits must be a power of two".into()));
                }
                m.vector = match m.vector {
                    VectorIsa::Rvv0_7 { .. } => VectorIsa::Rvv0_7 { vlen_bits: vlen },
                    VectorIsa::Rvv1_0 { .. } => VectorIsa::Rvv1_0 { vlen_bits: vlen },
                    other => {
                        return Err(invalid(format!(
                            "vlen_bits only applies to RVV machines, base has {other:?}"
                        )))
                    }
                };
            }
            let scale = |key: &str| -> Result<f64, ProtoError> {
                match get_f64(obj, id, key)? {
                    Some(s) if (0.01..=64.0).contains(&s) => Ok(s),
                    Some(_) => Err(invalid(format!("{key} must be in 0.01..=64"))),
                    None => Ok(1.0),
                }
            };
            m.core.mlp *= scale("mlp_scale")?;
            m.core.stream_mlp *= scale("stream_mlp_scale")?;
            m.memory.sustained_fraction *= scale("bandwidth_scale")?;
            Ok(MachineSpec::Custom {
                base,
                machine: Box::new(m),
            })
        }
        Some(_) => Err(ProtoError::new(
            id,
            ErrorKind::Invalid,
            "field 'machine' must be a preset name or a descriptor object",
        )),
    }
}

const PREDICT_KEYS: [&str; 9] = [
    "op",
    "id",
    "bench",
    "class",
    "threads",
    "machine",
    "spec",
    "deadline_ms",
    "priority",
];

fn parse_predict(doc: &JsonValue, id: Option<u64>) -> Result<Request, ProtoError> {
    reject_unknown_keys(doc, id, &PREDICT_KEYS, "request")?;
    let bench = match get_str(doc, id, "bench")? {
        Some(s) => BenchmarkId::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                ProtoError::new(id, ErrorKind::Invalid, format!("unknown benchmark '{s}'"))
            })?,
        None => {
            return Err(ProtoError::new(
                id,
                ErrorKind::Invalid,
                "predict requires a 'bench' field",
            ))
        }
    };
    let class = match get_str(doc, id, "class")? {
        Some(s) => Class::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                ProtoError::new(id, ErrorKind::Invalid, format!("unknown class '{s}'"))
            })?,
        None => Class::C,
    };
    let threads = get_uint(doc, id, "threads", 1, 1024)?.unwrap_or(1) as u32;
    let machine = parse_machine(doc, id)?;
    let paper_spec = match get_str(doc, id, "spec")? {
        None => true,
        Some(s) if s.eq_ignore_ascii_case("paper") => true,
        Some(s) if s.eq_ignore_ascii_case("headline") => false,
        Some(s) => {
            return Err(ProtoError::new(
                id,
                ErrorKind::Invalid,
                format!("unknown spec '{s}' (expected 'paper' or 'headline')"),
            ))
        }
    };
    let deadline_ms = get_uint(doc, id, "deadline_ms", 1, 600_000)?;
    let priority = match get_str(doc, id, "priority")? {
        None => None,
        Some(s) => Some(Priority::from_label(s).ok_or_else(|| {
            ProtoError::new(
                id,
                ErrorKind::Invalid,
                format!(
                    "unknown priority '{s}' (expected one of: {})",
                    Priority::ALL.map(|p| p.label()).join(", ")
                ),
            )
        })?),
    };
    Ok(Request::Predict(Box::new(PredictRequest {
        id,
        bench,
        class,
        threads,
        machine,
        paper_spec,
        deadline_ms,
        priority,
    })))
}

/// Parse one request line. Total: any input yields either a request or a
/// [`ProtoError`] that renders as a structured error reply.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc = json::parse(line.trim())
        .map_err(|e| ProtoError::new(None, ErrorKind::Parse, e.to_string()))?;
    if !matches!(doc, JsonValue::Object(_)) {
        return Err(ProtoError::new(
            None,
            ErrorKind::Invalid,
            "request must be a JSON object",
        ));
    }
    let id = req_id(&doc);
    match doc.get("op").map(|v| (v.as_str(), v)) {
        // A missing op means predict, the common case.
        None => parse_predict(&doc, id),
        Some((Some("predict"), _)) => parse_predict(&doc, id),
        Some((Some("metrics"), _)) => {
            reject_unknown_keys(&doc, id, &["op", "id"], "request")?;
            Ok(Request::Metrics)
        }
        Some((Some("slow"), _)) => {
            reject_unknown_keys(&doc, id, &["op", "id"], "request")?;
            Ok(Request::Slow)
        }
        Some((Some("ping"), _)) => {
            reject_unknown_keys(&doc, id, &["op", "id"], "request")?;
            Ok(Request::Ping)
        }
        Some((Some("quit"), _)) => {
            reject_unknown_keys(&doc, id, &["op", "id"], "request")?;
            Ok(Request::Quit)
        }
        Some((Some(other), _)) => Err(ProtoError::new(
            id,
            ErrorKind::Invalid,
            format!("unknown op '{other}'"),
        )),
        Some((None, _)) => Err(ProtoError::new(
            id,
            ErrorKind::Invalid,
            "field 'op' must be a string",
        )),
    }
}

/// Render a predict success reply (one line, no trailing newline),
/// streamed without building a tree: the bytes of
/// `render_ok(req.id, prediction_result(req, pred))`, with the request's
/// span dump as a top-level `trace` field when one is given — the
/// slow-request path (`--slow-us` threshold).
pub(crate) fn render_prediction(
    req: &PredictRequest,
    pred: &Prediction,
    trace: Option<&JsonValue>,
) -> String {
    // A reply without a trace is about 160 bytes: one allocation.
    let mut out = String::with_capacity(256);
    json::Writer::new(&mut out).object(|o| {
        if let Some(id) = req.id {
            o.field("id").number(id as f64);
        }
        o.field("ok").bool(true);
        o.field("result").object(|r| {
            r.field("bench").string(req.bench.name());
            r.field("class").string(req.class.name());
            r.field("machine").string(&req.machine_label());
            r.field("mops").number(pred.mops);
            r.field("seconds").number(pred.seconds);
            r.field("spec")
                .string(if req.paper_spec { "paper" } else { "headline" });
            r.field("threads").number(f64::from(req.threads));
        });
        if let Some(trace) = trace {
            o.field("trace").value(trace);
        }
    });
    out
}

fn id_field(id: Option<u64>) -> Option<(String, JsonValue)> {
    id.map(|v| ("id".to_string(), JsonValue::from(v)))
}

/// Render a success reply (one line, no trailing newline).
pub fn render_ok(id: Option<u64>, result: JsonValue) -> String {
    let mut fields = vec![
        ("ok".to_string(), JsonValue::Bool(true)),
        ("result".to_string(), result),
    ];
    fields.extend(id_field(id));
    JsonValue::object(fields).to_json()
}

/// Render a structured error reply (one line, no trailing newline).
pub fn render_error(e: &ProtoError) -> String {
    let mut error = vec![
        ("kind".to_string(), JsonValue::from(e.kind.label())),
        ("message".to_string(), JsonValue::from(e.message.as_str())),
    ];
    if let Some(ms) = e.retry_after_ms {
        error.push(("retry_after_ms".to_string(), JsonValue::from(ms)));
    }
    let mut fields = vec![
        ("ok".to_string(), JsonValue::Bool(false)),
        ("error".to_string(), JsonValue::object(error)),
    ];
    fields.extend(id_field(e.id));
    JsonValue::object(fields).to_json()
}

/// Write one reply frame — `line` plus the terminating newline — and
/// flush, surviving partial writes and `EINTR`.
///
/// A plain `write()` on a socket may accept only a prefix of the buffer
/// (small send windows, signal interruption); assuming full success
/// silently truncates frames mid-reply. This loop advances by the count
/// the writer actually took and retries `Interrupted`, so a frame is
/// either delivered whole or fails with a real error.
pub fn write_frame<W: std::io::Write + ?Sized>(w: &mut W, line: &str) -> std::io::Result<()> {
    write_all_retrying(w, line.as_bytes())?;
    write_all_retrying(w, b"\n")?;
    w.flush()
}

fn write_all_retrying<W: std::io::Write + ?Sized>(
    w: &mut W,
    mut buf: &[u8],
) -> std::io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The `result` object of a predict reply, as a tree: with
/// [`render_ok`], the reference reply that [`render_prediction`]'s
/// streamed bytes and the end-to-end reply checks are held to.
///
/// Deliberately excludes cache state: the model is deterministic, so a
/// repeated identical request must produce a byte-identical reply whether
/// it was computed or served warm. Cache hits are visible through the
/// server counters (`{"op":"metrics"}`) instead.
pub fn prediction_result(req: &PredictRequest, pred: &Prediction) -> JsonValue {
    JsonValue::object([
        ("bench".to_string(), JsonValue::from(req.bench.name())),
        ("class".to_string(), JsonValue::from(req.class.name())),
        (
            "machine".to_string(),
            JsonValue::from(req.machine_label().into_owned()),
        ),
        (
            "threads".to_string(),
            JsonValue::from(u64::from(req.threads)),
        ),
        (
            "spec".to_string(),
            JsonValue::from(if req.paper_spec { "paper" } else { "headline" }),
        ),
        ("seconds".to_string(), JsonValue::from(pred.seconds)),
        ("mops".to_string(), JsonValue::from(pred.mops)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict(line: &str) -> PredictRequest {
        match parse_request(line).expect("parses") {
            Request::Predict(p) => *p,
            other => panic!("expected predict, got {other:?}"),
        }
    }

    #[test]
    fn minimal_predict_applies_defaults() {
        let p = predict(r#"{"bench":"cg"}"#);
        assert_eq!(p.bench, BenchmarkId::Cg);
        assert_eq!(p.class, Class::C);
        assert_eq!(p.threads, 1);
        assert_eq!(p.machine, MachineSpec::Preset(MachineId::Sg2044));
        assert!(p.paper_spec);
        assert_eq!(p.deadline_ms, None);
        assert_eq!(p.priority, None, "class-less requests stay class-less");
    }

    #[test]
    fn full_predict_round_trips_every_field() {
        let p = predict(
            r#"{"op":"predict","id":9,"bench":"ft","class":"B","threads":16,
                "machine":"sg2042","spec":"headline","deadline_ms":250}"#,
        );
        assert_eq!(p.id, Some(9));
        assert_eq!(p.bench, BenchmarkId::Ft);
        assert_eq!(p.class, Class::B);
        assert_eq!(p.threads, 16);
        assert_eq!(p.machine, MachineSpec::Preset(MachineId::Sg2042));
        assert!(!p.paper_spec);
        assert_eq!(p.deadline_ms, Some(250));
    }

    #[test]
    fn priority_classes_parse_and_reject_unknown_labels() {
        for (label, want) in [
            ("interactive", Priority::Interactive),
            ("batch", Priority::Batch),
            ("bulk", Priority::Bulk),
            ("BULK", Priority::Bulk),
        ] {
            let p = predict(&format!(r#"{{"bench":"cg","priority":"{label}"}}"#));
            assert_eq!(p.priority, Some(want), "{label}");
        }
        let e = parse_request(r#"{"id":7,"bench":"cg","priority":"urgent"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Invalid);
        assert_eq!(e.id, Some(7));
        assert!(
            e.message.contains("interactive") && e.message.contains("bulk"),
            "error names the valid classes: {}",
            e.message
        );
    }

    #[test]
    fn priority_labels_and_indices_are_stable() {
        assert_eq!(
            Priority::ALL.map(|p| p.label()),
            ["interactive", "batch", "bulk"]
        );
        for (i, p) in Priority::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Priority::from_label(p.label()), Some(p));
        }
        assert_eq!(Priority::from_label("urgent"), None);
    }

    #[test]
    fn preset_names_match_loosely() {
        for (s, want) in [
            ("SG2044", MachineId::Sg2044),
            ("epyc 7742", MachineId::Epyc7742),
            ("epyc-7742", MachineId::Epyc7742),
            ("milk-v jupyter", MachineId::MilkVJupyter),
            ("MILK_V-jupyter", MachineId::MilkVJupyter),
            ("Vision-Five_v2", MachineId::VisionFiveV2),
            (" banana  PI ", MachineId::BananaPiF3),
            ("sg-2044", MachineId::Sg2044),
        ] {
            let p = predict(&format!(r#"{{"bench":"ep","machine":"{s}"}}"#));
            assert_eq!(p.machine, MachineSpec::Preset(want), "{s}");
        }
        for s in ["sg2044x", "sg204", "vision five", "milk.v jupyter", ""] {
            let e = parse_request(&format!(r#"{{"bench":"ep","machine":"{s}"}}"#)).unwrap_err();
            assert!(e.message.contains("unknown machine preset"), "{s}: {e:?}");
        }
    }

    #[test]
    fn custom_machine_applies_overrides() {
        let p = predict(
            r#"{"bench":"mg","machine":{"base":"sg2044","clock_ghz":3.2,
                "vlen_bits":256,"mlp_scale":2.0,"bandwidth_scale":1.25}}"#,
        );
        let base = presets::sg2044();
        match &p.machine {
            MachineSpec::Custom { base: b, machine } => {
                assert_eq!(*b, MachineId::Sg2044);
                assert_eq!(machine.clock_ghz, 3.2);
                assert_eq!(machine.vector, VectorIsa::Rvv1_0 { vlen_bits: 256 });
                assert_eq!(machine.core.mlp, base.core.mlp * 2.0);
                assert_eq!(
                    machine.memory.sustained_fraction,
                    base.memory.sustained_fraction * 1.25
                );
            }
            other => panic!("expected custom machine, got {other:?}"),
        }
        assert_eq!(p.machine_label(), "custom:SG2044");
    }

    #[test]
    fn custom_machine_plan_keys_differ_from_preset() {
        let preset = predict(r#"{"bench":"cg","threads":64}"#);
        let custom = predict(r#"{"bench":"cg","threads":64,"machine":{"clock_ghz":3.2}}"#);
        let (pp, pq) = preset.to_plan();
        let (cp, cq) = custom.to_plan();
        assert_ne!(pp.key_of(&pq), cp.key_of(&cq));
    }

    #[test]
    fn errors_carry_kind_and_id() {
        let e = parse_request("not json at all").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Parse);
        let e = parse_request(r#"{"op":"predict","id":3,"bench":"nope"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Invalid);
        assert_eq!(e.id, Some(3));
        let e = parse_request(r#"{"id":1,"bench":"cg","threadz":4}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Invalid);
        assert!(e.message.contains("threadz"));
        let e = parse_request(r#"{"bench":"cg","machine":{"base":"sg2042","vlen_bits":96}}"#)
            .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Invalid);
        let e = parse_request(r#"{"bench":"ep","machine":{"base":"xeon 8170","vlen_bits":256}}"#)
            .unwrap_err();
        assert!(e.message.contains("RVV"), "{}", e.message);
    }

    #[test]
    fn admin_ops_parse_and_reject_extras() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"quit"}"#).unwrap(), Request::Quit);
        assert_eq!(
            parse_request(r#"{"op":"metrics","id":1}"#).unwrap(),
            Request::Metrics
        );
        assert!(parse_request(r#"{"op":"ping","bench":"cg"}"#).is_err());
        assert_eq!(parse_request(r#"{"op":"slow"}"#).unwrap(), Request::Slow);
        assert!(parse_request(r#"{"op":"slow","samples":3}"#).is_err());
        // `health`, `profile` and `watch` are not ops: a structured
        // invalid error.
        for line in [
            r#"{"op":"health"}"#,
            r#"{"op":"profile"}"#,
            r#"{"op":"watch","samples":3}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Invalid, "{line}");
            assert!(e.message.contains("unknown op"), "{}", e.message);
        }
    }

    /// A span dump shaped like `TraceCtx::dump`'s.
    fn sample_trace() -> JsonValue {
        let span = JsonValue::object([
            ("name".to_string(), JsonValue::from("cache-hit")),
            ("start_us".to_string(), JsonValue::from(17u64)),
            ("dur_us".to_string(), JsonValue::from(0.5f64)),
        ]);
        JsonValue::object([
            ("trace_id".to_string(), JsonValue::from(42u64)),
            ("spans".to_string(), JsonValue::Array(vec![span])),
        ])
    }

    /// The streamed reply is the reference tree's bytes: every preset
    /// and a custom descriptor, with and without an id, both specs, the
    /// model's own numbers and a few the number format treats specially,
    /// plain and with the slow-log `trace` field.
    #[test]
    fn streamed_replies_match_the_reference_tree() {
        let engine = rvhpc_core::engine::Engine::new();
        let mut machines: Vec<String> = MachineId::ALL
            .iter()
            .map(|m| format!(r#""{}""#, m.name()))
            .collect();
        machines.push(r#"{"base":"sg2042","clock_ghz":3.2,"cores":32}"#.to_string());
        let trace = sample_trace();
        let mut checked = 0;
        for machine in &machines {
            for spec in ["paper", "headline"] {
                for id in ["", r#","id":7"#] {
                    let req = predict(&format!(
                        r#"{{"bench":"cg","class":"B","threads":16,"machine":{machine},"spec":"{spec}"{id}}}"#
                    ));
                    let (plan, _) = req.to_plan();
                    let model = engine.execute(&plan).remove(0);
                    for (seconds, mops) in [
                        (model.seconds, model.mops),
                        (3.0, 1.0 / 3.0),
                        (2f64.powi(60), -0.0),
                        (f64::NAN, f64::INFINITY),
                    ] {
                        let pred = Prediction {
                            seconds,
                            mops,
                            ..(*model).clone()
                        };
                        let reference = render_ok(req.id, prediction_result(&req, &pred));
                        assert_eq!(render_prediction(&req, &pred, None), reference);
                        let mut traced = json::parse(&reference).expect("valid");
                        if let JsonValue::Object(fields) = &mut traced {
                            fields.insert("trace".to_string(), trace.clone());
                        }
                        assert_eq!(
                            render_prediction(&req, &pred, Some(&trace)),
                            traced.to_json()
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 12 * 2 * 2 * 4);
    }

    #[test]
    fn traced_reply_carries_the_span_dump() {
        let req = predict(r#"{"bench":"ep","id":7}"#);
        let pred = rvhpc_core::engine::Engine::new()
            .execute(&req.to_plan().0)
            .remove(0);
        let line = render_prediction(&req, &pred, Some(&sample_trace()));
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("valid");
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("trace")
                .and_then(|t| t.get("trace_id"))
                .and_then(JsonValue::as_f64),
            Some(42.0)
        );
    }

    #[test]
    fn retry_hint_renders_only_when_present() {
        let bare = render_error(&ProtoError::new(Some(2), ErrorKind::Overloaded, "shed"));
        assert!(!bare.contains("retry_after_ms"), "{bare}");
        let hinted = render_error(
            &ProtoError::new(Some(2), ErrorKind::Overloaded, "shed").with_retry_after(150),
        );
        let doc = json::parse(&hinted).expect("valid");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(JsonValue::as_f64),
            Some(150.0)
        );
    }

    #[test]
    fn write_frame_survives_torn_writes() {
        let line = render_ok(Some(11), JsonValue::from("pong"));
        let mut torn = rvhpc_faults::TornWriter::new(Vec::new(), 2);
        write_frame(&mut torn, &line).expect("frame delivered despite tearing");
        let (shorts, eintrs) = torn.tally();
        assert!(
            shorts > 0 && eintrs > 0,
            "the wrapper actually degraded the writer"
        );
        assert_eq!(torn.into_inner(), format!("{line}\n").into_bytes());
    }

    #[test]
    fn replies_are_single_line_valid_json() {
        let ok = render_ok(Some(4), JsonValue::from("pong"));
        let doc = json::parse(&ok).expect("valid");
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("id").and_then(JsonValue::as_f64), Some(4.0));
        let err = render_error(&ProtoError::new(
            None,
            ErrorKind::Overloaded,
            "queue full\nretry later",
        ));
        assert!(!err.contains('\n'), "replies must be single-line");
        let doc = json::parse(&err).expect("valid");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("overloaded")
        );
    }
}
