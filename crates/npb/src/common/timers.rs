//! Simple NPB-style named timers.

use std::time::Instant;

/// A set of accumulating stopwatch timers (NPB's `timer_start/stop/read`).
#[derive(Debug)]
pub(crate) struct Timers {
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    accumulated: f64,
    started: Option<StartStamp>,
}

#[derive(Debug, Clone, Copy)]
struct StartStamp(Instant);

impl Timers {
    /// Create `n` timers, all zeroed and stopped.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            slots: vec![
                Slot {
                    accumulated: 0.0,
                    started: None,
                };
                n
            ],
        }
    }

    /// Start timer `i`. Starting a running timer restarts its current lap.
    pub(crate) fn start(&mut self, i: usize) {
        self.slots[i].started = Some(StartStamp(Instant::now()));
    }

    /// Stop timer `i`, accumulating the elapsed lap.
    pub(crate) fn stop(&mut self, i: usize) {
        if let Some(StartStamp(t0)) = self.slots[i].started.take() {
            self.slots[i].accumulated += t0.elapsed().as_secs_f64();
        }
    }

    /// Accumulated seconds on timer `i` (not counting a running lap).
    pub(crate) fn read(&self, i: usize) -> f64 {
        self.slots[i].accumulated
    }
}

/// Time a closure, returning (elapsed seconds, result).
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_laps() {
        let mut t = Timers::new(2);
        t.start(0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.stop(0);
        let first = t.read(0);
        assert!(first >= 0.004, "lap too short: {first}");
        t.start(0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.stop(0);
        assert!(t.read(0) > first);
        // Untouched timer stays zero.
        assert_eq!(t.read(1), 0.0);
    }

    #[test]
    fn stop_without_start_is_noop() {
        let mut t = Timers::new(1);
        t.stop(0);
        assert_eq!(t.read(0), 0.0);
    }

    #[test]
    fn timed_returns_result() {
        let (dt, v) = timed(|| 7 * 6);
        assert_eq!(v, 42);
        assert!(dt >= 0.0);
    }
}
