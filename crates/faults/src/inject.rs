//! The injector: shared, lock-free fault-decision state.
//!
//! One [`Injector`] wraps a [`FaultPlan`] for the lifetime of a server.
//! Every instrumented site calls [`Injector::roll`] once per
//! opportunity; the injector advances that site's occurrence counter,
//! evaluates the plan's rule as a pure function of `(seed, site,
//! occurrence)`, enforces the rule's injection cap with a CAS, and —
//! when the fault fires — emits an obs `fault-inject` marker and hands
//! back the site parameter. Counts are therefore exact and
//! reproducible: the same plan over the same per-site opportunity
//! sequence injects the same faults, regardless of wall-clock timing.

use std::sync::atomic::{AtomicU64, Ordering};

use rvhpc_obs::{Event, EventKind, JsonValue};

use crate::plan::{FaultPlan, FaultSite, SITE_COUNT};

#[derive(Debug, Default)]
struct SiteState {
    /// Opportunities seen at this site (rolls, fired or not).
    occurrences: AtomicU64,
    /// Faults actually injected (respects the rule's `max`).
    injected: AtomicU64,
}

/// Shared fault-decision state for one plan.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    sites: [SiteState; SITE_COUNT],
}

/// One site's counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSnapshot {
    /// The site.
    pub site: FaultSite,
    /// Opportunities seen.
    pub occurrences: u64,
    /// Faults injected.
    pub injected: u64,
}

impl Injector {
    /// Wrap a plan. An inactive plan yields an injector whose every
    /// roll misses — callers typically keep `Option<Arc<Injector>>`
    /// and skip the call entirely when faults are off.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            sites: Default::default(),
        }
    }

    /// One injection opportunity at `site`. Returns the site parameter
    /// (stall milliseconds, torn chunk bytes — 0 for parameterless
    /// sites) when the fault fires, `None` otherwise.
    pub fn roll(&self, site: FaultSite) -> Option<u64> {
        let rule = *self.plan.rule(site)?;
        let state = &self.sites[site as usize];
        let n = state.occurrences.fetch_add(1, Ordering::Relaxed) + 1;
        if !rule.fires(site, self.plan.seed, n) {
            return None;
        }
        if rule.max == 0 {
            state.injected.fetch_add(1, Ordering::Relaxed);
        } else {
            // Claim an injection slot; lose the race past the cap and
            // the fault silently does not fire.
            let claimed =
                state
                    .injected
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                        (cur < rule.max).then_some(cur + 1)
                    });
            if claimed.is_err() {
                return None;
            }
        }
        if rvhpc_obs::enabled() {
            rvhpc_obs::record(Event {
                kind: EventKind::FaultInject,
                name: site.key(),
                tid: 0,
                start_us: rvhpc_obs::now_us(),
                dur_us: 0,
                arg: n,
            });
        }
        Some(rule.param)
    }

    /// Faults injected so far at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.sites[site as usize].injected.load(Ordering::Relaxed)
    }

    /// Opportunities seen so far at `site`.
    pub fn occurrences(&self, site: FaultSite) -> u64 {
        self.sites[site as usize]
            .occurrences
            .load(Ordering::Relaxed)
    }

    /// Counters for every site with a rule, in table order.
    pub(crate) fn snapshot(&self) -> Vec<SiteSnapshot> {
        FaultSite::ALL
            .into_iter()
            .filter(|&s| self.plan.rule(s).is_some())
            .map(|site| SiteSnapshot {
                site,
                occurrences: self.occurrences(site),
                injected: self.injected(site),
            })
            .collect()
    }

    /// Deterministic JSON: the plan plus per-site counters. Keys are in
    /// table order so equal states render byte-identically.
    pub fn to_json(&self) -> JsonValue {
        let injected: Vec<(String, JsonValue)> = self
            .snapshot()
            .into_iter()
            .map(|s| {
                (
                    s.site.key().to_string(),
                    JsonValue::object(vec![
                        ("occurrences".to_string(), JsonValue::from(s.occurrences)),
                        ("injected".to_string(), JsonValue::from(s.injected)),
                    ]),
                )
            })
            .collect();
        JsonValue::object(vec![
            ("plan".to_string(), self.plan.to_json()),
            ("injected".to_string(), JsonValue::object(injected)),
        ])
    }
}

/// Record a recovery action (worker respawn, stalled-connection shed,
/// load-shed) as an obs `fault-recover` marker. Safe to call whether or
/// not an injector exists — genuine overload sheds recover too.
pub fn note_recovery(action: &'static str, arg: u64) {
    if rvhpc_obs::enabled() {
        rvhpc_obs::record(Event {
            kind: EventKind::FaultRecover,
            name: action,
            tid: 0,
            start_us: rvhpc_obs::now_us(),
            dur_us: 0,
            arg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{SiteRule, Trigger};

    fn schedule(start: u64, period: u64, max: u64) -> SiteRule {
        SiteRule {
            trigger: Trigger::Schedule { start, period },
            max,
            param: 7,
        }
    }

    #[test]
    fn roll_follows_the_schedule_and_cap() {
        let mut plan = FaultPlan::empty(1);
        plan.set(FaultSite::WorkerPanic, schedule(2, 3, 2));
        let inj = Injector::new(plan);
        let fired: Vec<bool> = (1..=12)
            .map(|_| inj.roll(FaultSite::WorkerPanic).is_some())
            .collect();
        // Lattice is 2, 5, 8, 11 but max=2 stops after 5.
        let expect: Vec<bool> = (1..=12).map(|n| n == 2 || n == 5).collect();
        assert_eq!(fired, expect);
        assert_eq!(inj.injected(FaultSite::WorkerPanic), 2);
        assert_eq!(inj.occurrences(FaultSite::WorkerPanic), 12);
    }

    #[test]
    fn roll_returns_the_site_param() {
        let mut plan = FaultPlan::empty(1);
        plan.set(FaultSite::ShardStall, schedule(1, 1, 0));
        let inj = Injector::new(plan);
        assert_eq!(inj.roll(FaultSite::ShardStall), Some(7));
    }

    #[test]
    fn ruleless_sites_never_fire_and_count_nothing() {
        let inj = Injector::new(FaultPlan::empty(3));
        for _ in 0..5 {
            assert_eq!(inj.roll(FaultSite::ConnDrop), None);
        }
        assert_eq!(inj.occurrences(FaultSite::ConnDrop), 0);
        assert!(inj.snapshot().is_empty());
    }

    #[test]
    fn same_plan_same_counts() {
        let plan = FaultPlan::parse("seed=9,corrupt=p0.4x5,drop=2:2").unwrap();
        let run = || {
            let inj = Injector::new(plan.clone());
            for _ in 0..100 {
                inj.roll(FaultSite::CorruptReply);
                inj.roll(FaultSite::ConnDrop);
            }
            (inj.snapshot(), inj.to_json().to_json())
        };
        assert_eq!(run(), run());
        let (snap, _) = run();
        let corrupt = snap
            .iter()
            .find(|s| s.site == FaultSite::CorruptReply)
            .unwrap();
        assert_eq!(
            corrupt.injected, 5,
            "p=0.4 over 100 rolls must hit the x5 cap"
        );
    }

    #[test]
    fn concurrent_rolls_respect_the_cap() {
        let mut plan = FaultPlan::empty(1);
        plan.set(FaultSite::TornWrite, schedule(1, 1, 10));
        let inj = std::sync::Arc::new(Injector::new(plan));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let inj = std::sync::Arc::clone(&inj);
                s.spawn(move || {
                    for _ in 0..50 {
                        inj.roll(FaultSite::TornWrite);
                    }
                });
            }
        });
        assert_eq!(inj.occurrences(FaultSite::TornWrite), 200);
        assert_eq!(inj.injected(FaultSite::TornWrite), 10);
    }

    #[test]
    fn injection_emits_an_obs_marker() {
        rvhpc_obs::set_enabled(true);
        let _ = rvhpc_obs::drain_all();
        let mut plan = FaultPlan::empty(1);
        plan.set(FaultSite::QueueSaturate, schedule(1, 1, 1));
        let inj = Injector::new(plan);
        assert!(inj.roll(FaultSite::QueueSaturate).is_some());
        note_recovery("load-shed", 42);
        let trace = rvhpc_obs::drain_all();
        rvhpc_obs::set_enabled(false);
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::FaultInject && e.name == "saturate" && e.arg == 1));
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::FaultRecover && e.name == "load-shed" && e.arg == 42));
    }
}
