//! Span recording for the traced run. Spans are recorded from the
//! benchmark's own files, around the calls into each layer; they stay in
//! memory until the run ends and are then written as a Chrome trace.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: Option<u32>,
    /// Spans of one operation (one request, one repetition) share this.
    pub op_id: u64,
}

/// One thread's spans. With `on == false` every call returns at once, so
/// the same code path runs untraced for the overhead comparison.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            op_id,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = now;
    }

    /// Record a child of the innermost open span whose duration was
    /// measured elsewhere (a worker's own queue/exec clocks): it is
    /// laid `offset_ns` after the parent's start.
    pub fn child(&mut self, name: &'static str, op_id: u64, offset_ns: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        let parent = *self.open.last().expect("child without open span");
        let start_ns = self.spans[parent as usize].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            op_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let hi = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p as usize].push((lo, hi));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self times in nanoseconds grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(s.name).or_default().push(ns as f64);
    }
    by_name
}

/// Write the threads' spans as Chrome-trace JSON (`chrome://tracing`,
/// Perfetto). `parent` refers to the index within the same `tid`.
pub fn write_chrome_trace(path: &Path, threads: &[(u32, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    for &(tid, spans) in threads {
        for (idx, s) in spans.iter().enumerate() {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{idx},\"parent\":{parent},\"op_id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id,
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // request 0..100 with parse 10..30 and batch 40..90; batch holds
        // queue 40..50 and exec 50..85.
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("batch", 40, 90, Some(0)),
            span("queue", 40, 50, Some(2)),
            span("exec", 50, 85, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), [30, 20, 5, 10, 35]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // A child reported past its parent's end is clipped.
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_by_enter_order_and_is_silent_when_off() {
        let mut r = Recorder::new(Instant::now(), true);
        r.enter("request", 7);
        r.enter("parse", 7);
        r.exit();
        r.enter("batch", 7);
        r.child("queue", 7, 0, 5);
        r.exit();
        r.exit();
        let parents: Vec<_> = r.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("request", None),
                ("parse", Some(0)),
                ("batch", Some(0)),
                ("queue", Some(2))
            ]
        );
        assert!(r.spans().iter().all(|s| s.op_id == 7));

        let mut off = Recorder::new(Instant::now(), false);
        off.enter("request", 1);
        off.child("queue", 1, 0, 5);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
