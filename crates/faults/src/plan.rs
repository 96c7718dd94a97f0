//! The fault plan: which sites fire, when, and how hard.
//!
//! A plan is parsed from a spec string (the `RVHPC_FAULTS` environment
//! variable or `serve --faults`):
//!
//! ```text
//! seed=42,panic=2:5x2,stall=3:7x2/20,torn=1:3,drop=5:9x2,corrupt=p0.05x4,saturate=6:11x2
//! ```
//!
//! Comma-separated entries. `seed=N` seeds probability rules and any
//! derived jitter. Every other entry is `<site>=<rule>[/<param>]`:
//!
//! * `START:PERIOD[xMAX]` — deterministic schedule: fire on the site's
//!   1-based occurrences `START, START+PERIOD, START+2·PERIOD, …`, at
//!   most `MAX` times (no `x` suffix = unlimited).
//! * `pPROB[xMAX]` — probabilistic: occurrence `n` fires when
//!   `mix(seed ^ site ^ n)` falls below `PROB`; the decision is a pure
//!   function of the plan and the occurrence index, never of thread
//!   timing.
//! * `/PARAM` — site magnitude: stall duration in milliseconds for
//!   `stall` (default 20), maximum bytes per short write for `torn`
//!   (default 3), record bytes landed before the simulated crash for
//!   `store` (default 6). Other sites ignore it.
//!
//! Sites:
//!
//! | key        | site                  | where it fires                         |
//! |------------|-----------------------|----------------------------------------|
//! | `panic`    | [`FaultSite::WorkerPanic`]  | shard worker, once per examined job |
//! | `stall`    | [`FaultSite::ShardStall`]   | shard worker, once per batch pickup |
//! | `torn`     | [`FaultSite::TornWrite`]    | predict reply write (short chunks + EINTR) |
//! | `drop`     | [`FaultSite::ConnDrop`]     | predict reply write (half frame, then hard close) |
//! | `corrupt`  | [`FaultSite::CorruptReply`] | predict reply write (byte flipped)  |
//! | `saturate` | [`FaultSite::QueueSaturate`]| admission (forced load-shed)        |
//! | `store`    | [`FaultSite::StoreTorn`]    | disk-store segment append (torn mid-record) |
//! | `partition`| [`FaultSite::Partition`]    | cluster router forward (primary ring owner treated unreachable → failover) |

use crate::rng::mix;
use rvhpc_obs::JsonValue;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum FaultSite {
    /// A shard worker job panics before touching the engine.
    WorkerPanic = 0,
    /// A shard worker sleeps before executing a batch.
    ShardStall = 1,
    /// A reply is written in short chunks with interleaved `EINTR`.
    TornWrite = 2,
    /// The connection is hard-closed halfway through a reply frame.
    ConnDrop = 3,
    /// A reply byte is flipped so the frame no longer parses.
    CorruptReply = 4,
    /// Admission pretends the shard queues are saturated (load-shed).
    QueueSaturate = 5,
    /// A disk-store segment append is torn mid-record (crash mid-write).
    StoreTorn = 6,
    /// A cluster router treats the primary ring owner as unreachable and
    /// fails over to the next owner (simulated network partition).
    Partition = 7,
}

/// Number of distinct sites (array-table size).
pub(crate) const SITE_COUNT: usize = 8;

impl FaultSite {
    /// Every site, table order.
    pub(crate) const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::WorkerPanic,
        FaultSite::ShardStall,
        FaultSite::TornWrite,
        FaultSite::ConnDrop,
        FaultSite::CorruptReply,
        FaultSite::QueueSaturate,
        FaultSite::StoreTorn,
        FaultSite::Partition,
    ];

    /// Spec key and stable JSON/event label.
    pub(crate) fn key(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "panic",
            FaultSite::ShardStall => "stall",
            FaultSite::TornWrite => "torn",
            FaultSite::ConnDrop => "drop",
            FaultSite::CorruptReply => "corrupt",
            FaultSite::QueueSaturate => "saturate",
            FaultSite::StoreTorn => "store",
            FaultSite::Partition => "partition",
        }
    }

    /// Default site magnitude when the spec names none.
    fn default_param(self) -> u64 {
        match self {
            FaultSite::ShardStall => 20, // milliseconds
            FaultSite::TornWrite => 3,   // max bytes per short write
            FaultSite::StoreTorn => 6,   // max record bytes that land before the "crash"
            _ => 0,
        }
    }

    fn from_key(key: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.key() == key)
    }
}

/// When a site's rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on 1-based occurrences `start, start+period, …`.
    Schedule {
        /// First firing occurrence (1-based, >= 1).
        start: u64,
        /// Distance between firings (>= 1).
        period: u64,
    },
    /// Fire on occurrence `n` when `mix(seed ^ site ^ n)` < `p`.
    Prob {
        /// Per-occurrence firing probability in `[0, 1]`.
        p: f64,
    },
}

/// One site's complete rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteRule {
    /// When to fire.
    pub trigger: Trigger,
    /// Most injections over the process lifetime (0 = unlimited).
    pub max: u64,
    /// Site magnitude (stall ms, torn chunk bytes).
    pub param: u64,
}

impl SiteRule {
    /// Does this rule fire on 1-based occurrence `n`? (The injection cap
    /// is enforced by the injector, not here.)
    pub(crate) fn fires(&self, site: FaultSite, seed: u64, n: u64) -> bool {
        match self.trigger {
            Trigger::Schedule { start, period } => {
                n >= start && (n - start).is_multiple_of(period.max(1))
            }
            Trigger::Prob { p } => {
                let salt = mix(0xfa_u64 ^ (site as u64) << 8);
                let draw = mix(seed ^ salt ^ n) as f64 / (u64::MAX as f64);
                draw < p
            }
        }
    }
}

/// A full, validated fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seeds probability rules (and, by convention, derived jitter).
    pub seed: u64,
    rules: [Option<SiteRule>; SITE_COUNT],
}

impl FaultPlan {
    /// The empty plan: a seed, no rules, nothing ever fires.
    pub(crate) fn empty(seed: u64) -> Self {
        Self {
            seed,
            rules: [None; SITE_COUNT],
        }
    }

    /// Install or replace one site's rule.
    pub(crate) fn set(&mut self, site: FaultSite, rule: SiteRule) {
        self.rules[site as usize] = Some(rule);
    }

    /// The rule at `site`, if any.
    pub(crate) fn rule(&self, site: FaultSite) -> Option<&SiteRule> {
        self.rules[site as usize].as_ref()
    }

    /// Whether any site has a rule.
    pub fn is_active(&self) -> bool {
        self.rules.iter().any(Option::is_some)
    }

    /// Parse a spec string (see module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::empty(0);
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry '{entry}' is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("seed '{value}' is not a u64"))?;
                continue;
            }
            let site = FaultSite::from_key(key).ok_or_else(|| {
                format!(
                    "unknown fault site '{key}' (expected one of: seed, {})",
                    FaultSite::ALL.map(FaultSite::key).join(", ")
                )
            })?;
            plan.set(site, parse_rule(site, value)?);
        }
        Ok(plan)
    }

    /// Deterministic JSON rendering of the plan (sites in table order).
    pub(crate) fn to_json(&self) -> JsonValue {
        let mut fields = vec![("seed".to_string(), JsonValue::from(self.seed))];
        for site in FaultSite::ALL {
            let Some(rule) = self.rule(site) else {
                continue;
            };
            let mut r = match rule.trigger {
                Trigger::Schedule { start, period } => vec![
                    ("start".to_string(), JsonValue::from(start)),
                    ("period".to_string(), JsonValue::from(period)),
                ],
                Trigger::Prob { p } => vec![("p".to_string(), JsonValue::from(p))],
            };
            r.push(("max".to_string(), JsonValue::from(rule.max)));
            r.push(("param".to_string(), JsonValue::from(rule.param)));
            fields.push((site.key().to_string(), JsonValue::object(r)));
        }
        JsonValue::object(fields)
    }
}

fn parse_rule(site: FaultSite, value: &str) -> Result<SiteRule, String> {
    let bad = |what: &str| format!("fault rule '{}={value}': {what}", site.key());
    let (rule, param) = match value.split_once('/') {
        Some((r, p)) => (
            r.trim(),
            p.trim()
                .parse::<u64>()
                .map_err(|_| bad("param after '/' must be a u64"))?,
        ),
        None => (value, site.default_param()),
    };
    let (body, max) = match rule.rsplit_once('x') {
        // `x` only splits off a max when what follows is numeric —
        // leaves probability mantissas like `p0.5` untouched.
        Some((body, m)) if m.chars().all(|c| c.is_ascii_digit()) && !m.is_empty() => (
            body,
            m.parse::<u64>()
                .map_err(|_| bad("max after 'x' must be a u64"))?,
        ),
        _ => (rule, 0),
    };
    let trigger = if let Some(p) = body.strip_prefix('p') {
        let p: f64 = p.parse().map_err(|_| bad("probability must be a float"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(bad("probability must be in 0..=1"));
        }
        Trigger::Prob { p }
    } else {
        let (start, period) = body
            .split_once(':')
            .ok_or_else(|| bad("expected START:PERIOD[xMAX] or pPROB[xMAX]"))?;
        let start: u64 = start.parse().map_err(|_| bad("start must be a u64"))?;
        let period: u64 = period.parse().map_err(|_| bad("period must be a u64"))?;
        if start == 0 || period == 0 {
            return Err(bad("start and period must be at least 1"));
        }
        Trigger::Schedule { start, period }
    };
    Ok(SiteRule {
        trigger,
        max,
        param,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_round_trips_every_site() {
        let plan = FaultPlan::parse(
            "seed=42,panic=2:5x2,stall=3:7x2/50,torn=1:3,drop=5:9x2,corrupt=p0.05x4,saturate=6:11x2",
        )
        .expect("spec parses");
        assert_eq!(plan.seed, 42);
        assert!(plan.is_active());
        assert_eq!(
            plan.rule(FaultSite::WorkerPanic),
            Some(&SiteRule {
                trigger: Trigger::Schedule {
                    start: 2,
                    period: 5
                },
                max: 2,
                param: 0
            })
        );
        assert_eq!(plan.rule(FaultSite::ShardStall).unwrap().param, 50);
        let torn = plan.rule(FaultSite::TornWrite).unwrap();
        assert_eq!(
            (torn.max, torn.param),
            (0, 3),
            "defaults: unlimited, 3-byte chunks"
        );
        match plan.rule(FaultSite::CorruptReply).unwrap().trigger {
            Trigger::Prob { p } => assert_eq!(p, 0.05),
            other => panic!("expected probability trigger, got {other:?}"),
        }
        assert_eq!(plan.rule(FaultSite::CorruptReply).unwrap().max, 4);
    }

    #[test]
    fn empty_and_seed_only_specs_are_inactive() {
        assert!(!FaultPlan::parse("").unwrap().is_active());
        let plan = FaultPlan::parse("seed=9").unwrap();
        assert_eq!(plan.seed, 9);
        assert!(!plan.is_active());
    }

    #[test]
    fn malformed_specs_name_the_problem() {
        for (spec, needle) in [
            ("panic", "key=value"),
            ("jitterbug=1:2", "unknown fault site"),
            ("seed=abc", "not a u64"),
            ("panic=0:5", "at least 1"),
            ("panic=5:0", "at least 1"),
            ("corrupt=p1.5", "0..=1"),
            ("stall=1:2/ms", "u64"),
            ("panic=nonsense", "expected START:PERIOD"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec '{spec}': {err}");
        }
    }

    #[test]
    fn schedule_rules_fire_exactly_on_the_lattice() {
        let rule = SiteRule {
            trigger: Trigger::Schedule {
                start: 3,
                period: 4,
            },
            max: 0,
            param: 0,
        };
        let fired: Vec<u64> = (1..=16)
            .filter(|&n| rule.fires(FaultSite::WorkerPanic, 0, n))
            .collect();
        assert_eq!(fired, vec![3, 7, 11, 15]);
    }

    #[test]
    fn probability_rules_are_seed_deterministic_and_site_independent() {
        let rule = SiteRule {
            trigger: Trigger::Prob { p: 0.3 },
            max: 0,
            param: 0,
        };
        let draws = |seed: u64, site: FaultSite| -> Vec<bool> {
            (1..=200).map(|n| rule.fires(site, seed, n)).collect()
        };
        assert_eq!(draws(7, FaultSite::ConnDrop), draws(7, FaultSite::ConnDrop));
        assert_ne!(draws(7, FaultSite::ConnDrop), draws(8, FaultSite::ConnDrop));
        assert_ne!(
            draws(7, FaultSite::ConnDrop),
            draws(7, FaultSite::TornWrite),
            "sites must draw from distinct streams"
        );
        let hits = draws(7, FaultSite::ConnDrop).iter().filter(|&&b| b).count();
        assert!((30..=90).contains(&hits), "p=0.3 over 200: got {hits}");
    }

    #[test]
    fn plan_json_is_deterministic() {
        let spec = "seed=1,panic=1:2x3,stall=2:3/40";
        let a = FaultPlan::parse(spec).unwrap().to_json().to_json();
        let b = FaultPlan::parse(spec).unwrap().to_json().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"seed\":1"), "{a}");
        assert!(a.contains("\"panic\""), "{a}");
    }
}
