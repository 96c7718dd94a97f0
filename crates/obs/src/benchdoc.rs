//! The versioned `rvhpc-bench/1` benchmark document.
//!
//! One document records one run of the curated benchmark suite (see
//! `rvhpc-bench`'s harness): system info, run mode, and per-target wall
//! statistics plus optional throughput and stall-attribution sections.
//! Documents are committed under `results/BENCH_<n>.json`, forming the
//! repo's benchmark trajectory — `obsdiff` compares any two of them
//! and CI gates regressions against the newest. What a valid document
//! holds is [`crate::doc::Kind::Bench`]'s to say.
//!
//! Wall statistics are *exact* (computed from the full sample vector,
//! not a histogram) because a target runs tens to hundreds of
//! iterations, small enough to keep every sample. The section still
//! carries a `bucket_layout` tag ([`EXACT_LAYOUT`]) so the diff can
//! refuse to compare quantiles across layout versions, exactly as it
//! does for [`crate::hist::BUCKET_LAYOUT`] histogram sections.

use crate::json::JsonValue;

/// Schema tag stamped into every benchmark document.
pub(crate) const BENCH_SCHEMA: &str = "rvhpc-bench/1";

/// Layout tag for exact (full-sample-vector) wall statistics.
pub(crate) const EXACT_LAYOUT: &str = "exact/1";

/// Host facts recorded alongside the numbers: enough to tell whether two
/// documents are comparable at all (same machine? same toolchain?).
#[derive(Debug, Clone)]
pub struct SystemInfo {
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Logical CPUs visible to the process.
    pub cpus: usize,
    /// `rustc --version` output, or "unknown" when rustc is absent.
    pub rustc: String,
    /// Git revision: `RVHPC_GIT_REV` env (CI sets it), else `git
    /// rev-parse --short HEAD`, else "unknown".
    pub git_rev: String,
}

impl SystemInfo {
    /// Probe the current host.
    pub fn detect() -> Self {
        let run = |cmd: &str, args: &[&str]| -> Option<String> {
            let out = std::process::Command::new(cmd).args(args).output().ok()?;
            if !out.status.success() {
                return None;
            }
            let text = String::from_utf8(out.stdout).ok()?;
            let text = text.trim();
            (!text.is_empty()).then(|| text.to_string())
        };
        Self {
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            git_rev: std::env::var("RVHPC_GIT_REV")
                .ok()
                .filter(|s| !s.is_empty())
                .or_else(|| run("git", &["rev-parse", "--short", "HEAD"]))
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Render the `system` section.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("arch".to_string(), JsonValue::from(self.arch.as_str())),
            ("os".to_string(), JsonValue::from(self.os.as_str())),
            ("cpus".to_string(), JsonValue::from(self.cpus)),
            ("rustc".to_string(), JsonValue::from(self.rustc.as_str())),
            (
                "git_rev".to_string(),
                JsonValue::from(self.git_rev.as_str()),
            ),
        ])
    }
}

/// Exact wall-time statistics over one target's sample vector, in
/// microseconds. Keys mirror the latency-histogram section so the diff
/// machinery's quantile rules apply unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallStats {
    /// Number of measured iterations.
    pub count: u64,
    /// Smallest sample.
    pub min_us: f64,
    /// Median (p50).
    pub p50_us: f64,
    /// 99th percentile (nearest-rank; equals the max below 100 samples).
    pub p99_us: f64,
    /// Largest sample.
    pub max_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

impl WallStats {
    /// Exact stats from a sample vector (microseconds). Panics on empty
    /// input — a bench target always runs at least one iteration.
    pub fn from_samples(samples: &[u64]) -> Self {
        assert!(!samples.is_empty(), "bench target produced no samples");
        let mut sorted: Vec<u64> = samples.to_vec();
        sorted.sort_unstable();
        // Nearest-rank percentile: ceil(q * n), 1-based.
        let rank = |q: f64| {
            let r = ((q * sorted.len() as f64).ceil() as usize).max(1);
            sorted[r.min(sorted.len()) - 1] as f64
        };
        Self {
            count: sorted.len() as u64,
            min_us: sorted[0] as f64,
            p50_us: rank(0.50),
            p99_us: rank(0.99),
            max_us: *sorted.last().expect("non-empty") as f64,
            mean_us: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        }
    }

    /// Render the `wall` section, layout-tagged.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("bucket_layout".to_string(), JsonValue::from(EXACT_LAYOUT)),
            ("count".to_string(), JsonValue::from(self.count)),
            ("min_us".to_string(), JsonValue::from(self.min_us)),
            ("p50_us".to_string(), JsonValue::from(self.p50_us)),
            ("p99_us".to_string(), JsonValue::from(self.p99_us)),
            ("max_us".to_string(), JsonValue::from(self.max_us)),
            ("mean_us".to_string(), JsonValue::from(self.mean_us)),
        ])
    }
}

/// Base benchmark document: schema, generator, trajectory index and run
/// mode. The harness adds `system` and `targets` sections.
pub fn document(generator: &str, index: usize, quick: bool) -> JsonValue {
    JsonValue::object([
        ("schema".to_string(), JsonValue::from(BENCH_SCHEMA)),
        ("generator".to_string(), JsonValue::from(generator)),
        ("index".to_string(), JsonValue::from(index)),
        (
            "mode".to_string(),
            JsonValue::from(if quick { "quick" } else { "full" }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn wall_stats_are_exact_and_monotone() {
        let s = WallStats::from_samples(&[5, 1, 9, 3, 7]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min_us, 1.0);
        assert_eq!(s.p50_us, 5.0);
        assert_eq!(s.p99_us, 9.0);
        assert_eq!(s.max_us, 9.0);
        assert_eq!(s.mean_us, 5.0);
        let doc = parse(&s.to_json().to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("bucket_layout").and_then(JsonValue::as_str),
            Some(EXACT_LAYOUT)
        );
    }

    #[test]
    fn p99_uses_nearest_rank() {
        // 100 samples 1..=100: p99 = 99th value = 99, p50 = 50.
        let samples: Vec<u64> = (1..=100).collect();
        let s = WallStats::from_samples(&samples);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
    }
}
