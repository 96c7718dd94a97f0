//! Trace-consuming front door next to `simulate`: the instruction-level
//! backend (`rvhpc-isa`) interprets real RV64 code and streams
//! [`TraceEvent`]s here, where they drive the same per-thread cache/TLB
//! models used by the stream replays, plus a deterministic 2-bit branch
//! predictor. The resulting [`ReplayStats`] characterise a kernel at
//! instruction granularity without any wall-clock or randomness.

use crate::cache::CacheStats;
use crate::counters::HierarchyCounters;
use crate::simulate::TraceHierarchy;
use crate::tlb::Tlb;
use rvhpc_machines::Machine;

/// One event emitted by an instruction-level frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    Load { addr: u64, bytes: u8 },
    Store { addr: u64, bytes: u8 },
    Branch { pc: u64, taken: bool },
    Vector { elems: u32, gather: bool },
    Retire,
}

/// Deterministic 2-bit saturating-counter branch predictor, direct-mapped
/// on the half-word-aligned pc. Counters start at 1 (weakly not-taken).
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    table: Vec<u8>,
    mask: u64,
    branches: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor entries must be a power of two"
        );
        BranchPredictor {
            table: vec![1; entries],
            mask: entries as u64 - 1,
            branches: 0,
            mispredicts: 0,
        }
    }

    /// Record the outcome of a conditional branch at `pc`; returns true if
    /// the prediction was wrong. Inline across crates: the interpreter's
    /// branch hook calls it once a branch.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let slot = ((pc >> 1) & self.mask) as usize;
        let counter = &mut self.table[slot];
        let predicted_taken = *counter >= 2;
        let miss = predicted_taken != taken;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.branches += 1;
        if miss {
            self.mispredicts += 1;
        }
        miss
    }

    pub fn branches(&self) -> u64 {
        self.branches
    }

    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

/// Characterisation of a replayed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    pub instret: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub vector_ops: u64,
    pub vector_elems: u64,
    pub gather_ops: u64,
    pub hierarchy: HierarchyCounters,
    pub tlb: CacheStats,
}

/// Load/store addresses a [`TraceConsumer`] queues before it replays them.
pub const QUANTUM: usize = 1024;

/// Consumes a trace-event stream into the per-thread cache hierarchy, the
/// L1 dTLB model, and a branch predictor. One consumer models one hardware
/// thread; `for_thread` shares L2/L3 capacity the same way the stream
/// replays do.
///
/// Loads and stores are replayed a quantum at a time: their addresses
/// queue until [`QUANTUM`] of them have, then all go through the TLB and
/// then all through the hierarchy. The two share no state, so each still
/// sees every access in program order and ends where an access-at-a-time
/// replay would; [`TraceConsumer::stats`] replays what is queued first.
pub struct TraceConsumer {
    hier: TraceHierarchy,
    tlb: Tlb,
    predictor: BranchPredictor,
    /// Addresses not yet replayed, oldest first: the first `queued`.
    pending: Box<[u64; QUANTUM]>,
    queued: usize,
    instret: u64,
    loads: u64,
    stores: u64,
    vector_ops: u64,
    vector_elems: u64,
    gather_ops: u64,
}

impl TraceConsumer {
    pub fn for_thread(machine: &Machine, threads: u32) -> Self {
        TraceConsumer {
            hier: TraceHierarchy::for_thread(machine, threads),
            tlb: Tlb::typical_l1_dtlb(),
            predictor: BranchPredictor::new(1024),
            pending: Box::new([0; QUANTUM]),
            queued: 0,
            instret: 0,
            loads: 0,
            stores: 0,
            vector_ops: 0,
            vector_elems: 0,
            gather_ops: 0,
        }
    }

    /// Always inlined, so that an event whose kind is known at the call (the
    /// interpreter's hooks each build one kind) costs only its own arm.
    #[inline(always)]
    pub fn consume(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Load { addr, .. } => {
                self.loads += 1;
                self.queue(addr);
            }
            TraceEvent::Store { addr, .. } => {
                self.stores += 1;
                self.queue(addr);
            }
            TraceEvent::Branch { pc, taken } => {
                self.predictor.predict_and_update(pc, taken);
            }
            TraceEvent::Vector { elems, gather } => {
                self.vector_ops += 1;
                self.vector_elems += elems as u64;
                if gather {
                    self.gather_ops += 1;
                }
            }
            TraceEvent::Retire => self.instret += 1,
        }
    }

    /// Count `n` retired instructions at once: what `n` [`TraceEvent::Retire`]
    /// events would.
    pub fn retire(&mut self, n: u64) {
        self.instret += n;
    }

    #[inline(always)]
    fn queue(&mut self, addr: u64) {
        self.pending[self.queued] = addr;
        self.queued += 1;
        if self.queued == QUANTUM {
            self.replay();
        }
    }

    /// Replay the queued addresses through the TLB, then through the
    /// hierarchy. One out-of-line copy of both loops, whatever inlined
    /// [`TraceConsumer::consume`].
    #[inline(never)]
    fn replay(&mut self) {
        let pending = &self.pending[..self.queued];
        for &addr in pending {
            self.tlb.access(addr);
        }
        for &addr in pending {
            self.hier.access(addr);
        }
        self.queued = 0;
    }

    /// Everything consumed so far, queued accesses included.
    pub fn stats(&mut self) -> ReplayStats {
        self.replay();
        ReplayStats {
            instret: self.instret,
            loads: self.loads,
            stores: self.stores,
            branches: self.predictor.branches(),
            mispredicts: self.predictor.mispredicts(),
            vector_ops: self.vector_ops,
            vector_elems: self.vector_elems,
            gather_ops: self.gather_ops,
            hierarchy: self.hier.counters(),
            tlb: self.tlb.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn predictor_learns_a_loop() {
        let mut bp = BranchPredictor::new(64);
        // 100 taken branches at the same pc: the first two mispredict
        // (counter starts weakly-not-taken), then it locks on.
        for _ in 0..100 {
            bp.predict_and_update(0x1000, true);
        }
        assert_eq!(bp.branches(), 100);
        assert!(bp.mispredicts() <= 2, "mispredicts = {}", bp.mispredicts());
    }

    #[test]
    fn consumer_counts_are_deterministic() {
        let machine = rvhpc_machines::presets::sg2044();
        let run = || {
            let mut c = TraceConsumer::for_thread(&machine, 4);
            for i in 0..10_000u64 {
                c.consume(TraceEvent::Retire);
                c.consume(TraceEvent::Load {
                    addr: 0x10_0000 + (i * 64) % 65536,
                    bytes: 8,
                });
                c.consume(TraceEvent::Branch {
                    pc: 0x1000,
                    taken: i % 17 != 0,
                });
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }
}
