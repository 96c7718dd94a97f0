//! The quantum replay against the event-at-a-time one. A `TraceConsumer`
//! queues load/store addresses and replays a full quantum through the TLB
//! and then through the hierarchy; here the same seeded streams also go,
//! one event at a time, into a `Tlb`, a `TraceHierarchy` and a
//! `BranchPredictor` of their own. Every `ReplayStats` field must agree
//! at every read — at the end of the stream and part-way through it, on a
//! quantum boundary and off one — on a machine whose caches are all
//! powers of two (SG2044) and on one whose L3 is not (Xeon 8170: modulo
//! indexing, a slice of lazily allocated blocks).

use rvhpc_archsim::replay::QUANTUM;
use rvhpc_archsim::{BranchPredictor, ReplayStats, Tlb, TraceConsumer, TraceEvent, TraceHierarchy};
use rvhpc_machines::{presets, Machine};

/// What a `TraceConsumer` must report, built from the models it wraps,
/// each fed every event as it arrives.
struct Oracle {
    hier: TraceHierarchy,
    tlb: Tlb,
    predictor: BranchPredictor,
    counts: ReplayStats,
}

impl Oracle {
    fn new(machine: &Machine, threads: u32) -> Oracle {
        Oracle {
            hier: TraceHierarchy::for_thread(machine, threads),
            tlb: Tlb::typical_l1_dtlb(),
            predictor: BranchPredictor::new(1024),
            counts: ReplayStats::default(),
        }
    }

    fn consume(&mut self, ev: TraceEvent) {
        let c = &mut self.counts;
        match ev {
            TraceEvent::Load { addr, .. } | TraceEvent::Store { addr, .. } => {
                if matches!(ev, TraceEvent::Load { .. }) {
                    c.loads += 1;
                } else {
                    c.stores += 1;
                }
                self.tlb.access(addr);
                self.hier.access(addr);
            }
            TraceEvent::Branch { pc, taken } => {
                self.predictor.predict_and_update(pc, taken);
            }
            TraceEvent::Vector { elems, gather } => {
                c.vector_ops += 1;
                c.vector_elems += u64::from(elems);
                c.gather_ops += u64::from(gather);
            }
            TraceEvent::Retire => c.instret += 1,
        }
    }

    fn stats(&self) -> ReplayStats {
        ReplayStats {
            branches: self.predictor.branches(),
            mispredicts: self.predictor.mispredicts(),
            hierarchy: self.hier.counters(),
            tlb: self.tlb.stats(),
            ..self.counts
        }
    }
}

/// A seeded stream holding exactly `addresses` loads and stores, mixed
/// with branches, vector ops and retirements. Addresses walk a sequential
/// cursor, hit a 48 KiB hot set, or land anywhere in 96 MiB, so every
/// level of both machines hits and misses.
fn events(seed: u64, addresses: usize) -> Vec<TraceEvent> {
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 11
    };
    let (mut out, mut left, mut cursor) = (Vec::new(), addresses, 0x4000_0000u64);
    while left > 0 {
        let r = next();
        out.push(match r % 10 {
            0..=5 => {
                left -= 1;
                let addr = match next() % 3 {
                    0 => {
                        cursor += 8;
                        cursor
                    }
                    1 => 0x1000_0000 + next() % (48 << 10),
                    _ => 0x2000_0000 + next() % (96 << 20),
                };
                let bytes = 1 << (next() % 4);
                if r & 64 == 0 {
                    TraceEvent::Load { addr, bytes }
                } else {
                    TraceEvent::Store { addr, bytes }
                }
            }
            6 | 7 => TraceEvent::Branch {
                pc: 0x1000 + 2 * (next() % 40),
                taken: next() % 5 != 0,
            },
            8 => TraceEvent::Vector {
                elems: (next() % 5) as u32,
                gather: next() % 4 == 0,
            },
            _ => TraceEvent::Retire,
        });
    }
    out
}

/// Feed `stream` to a consumer and to the oracle on `machine`, comparing
/// stats whenever the number of addresses so far is in `reads`, and at
/// the end (twice: a read replays what is queued, so a second one must
/// change nothing).
fn replay_in_lock_step(machine: &Machine, threads: u32, stream: &[TraceEvent], reads: &[usize]) {
    let mut consumer = TraceConsumer::for_thread(machine, threads);
    let mut oracle = Oracle::new(machine, threads);
    let mut addresses = 0;
    for &ev in stream {
        consumer.consume(ev);
        oracle.consume(ev);
        if matches!(ev, TraceEvent::Load { .. } | TraceEvent::Store { .. }) {
            addresses += 1;
            if reads.contains(&addresses) {
                assert_eq!(
                    consumer.stats(),
                    oracle.stats(),
                    "{} x{threads}, after {addresses} addresses",
                    machine.part
                );
            }
        }
    }
    let end = oracle.stats();
    assert_eq!(
        consumer.stats(),
        end,
        "{} x{threads}, at the end",
        machine.part
    );
    assert_eq!(
        consumer.stats(),
        end,
        "{} x{threads}, read again",
        machine.part
    );
    assert_eq!(end.loads + end.stores, addresses as u64);
}

#[test]
fn quantum_replay_matches_the_event_at_a_time_models() {
    assert_eq!(QUANTUM, 1024, "the reads below are placed for this quantum");
    for machine in [presets::sg2044(), presets::xeon8170()] {
        for threads in [1, 64] {
            // More than three quanta and a part, read twice part-way
            // through a quantum (each read replays what is queued, so the
            // quanta after it start there) and carried on.
            let stream = events(17 + u64::from(threads), 3 * QUANTUM + 517);
            replay_in_lock_step(&machine, threads, &stream, &[700, 2 * QUANTUM]);
            // Exactly three quanta, read as the first one fills: every read
            // finds the queue just emptied.
            let stream = events(29 + u64::from(threads), 3 * QUANTUM);
            replay_in_lock_step(&machine, threads, &stream, &[QUANTUM]);
        }
    }
}

#[test]
fn a_stream_without_accesses_reads_the_same() {
    let machine = presets::sg2044();
    let stream: Vec<TraceEvent> = events(5, 40)
        .into_iter()
        .filter(|ev| !matches!(ev, TraceEvent::Load { .. } | TraceEvent::Store { .. }))
        .collect();
    replay_in_lock_step(&machine, 1, &stream, &[]);
}
