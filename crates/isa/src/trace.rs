//! rvr-style tracer hooks: the interpreter calls into a [`Tracer`] for every
//! retired instruction, memory access, conditional branch, and vector op.
//! Implementations route these events into the archsim cache/TLB/branch
//! models (see `rvhpc-archsim`'s `replay` module) or simply count them.

use crate::ir::Instr;

/// Observer for interpreter-emitted events. All hooks default to no-ops so
/// implementations only override what they consume.
pub trait Tracer {
    /// An instruction retired at `pc`.
    fn retire(&mut self, _pc: u64, _instr: &Instr) {}
    /// A scalar memory access of `bytes` at `addr`.
    fn mem(&mut self, _addr: u64, _bytes: u8, _is_store: bool) {}
    /// A conditional branch at `pc` resolved as `taken`.
    fn branch(&mut self, _pc: u64, _taken: bool) {}
    /// A vector op retired touching `elems` lanes; `gather` marks indexed
    /// (vluxei) element accesses. Per-lane memory traffic is emitted
    /// separately through `mem`.
    fn vector(&mut self, _elems: u32, _gather: bool) {}
    /// True when every hook is a no-op. The interpreter then runs the copy
    /// of its loop that has no hook calls in it; a tracer that observes
    /// anything must leave this `false`.
    fn consumes_nothing(&self) -> bool {
        false
    }
}

/// Tracer that discards everything (interpreter-only runs, decode benches).
pub struct NullTracer;

impl Tracer for NullTracer {
    fn consumes_nothing(&self) -> bool {
        true
    }
}
