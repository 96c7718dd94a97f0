//! Deterministic RV64 interpreter over a decoded program. Executes the
//! IMAC+Zba/Zbb subset plus the minimal RVV slice, emitting trace events
//! through [`Tracer`] hooks. No wall-clock, no randomness: identical inputs
//! produce identical architectural state and identical event streams.

use crate::decode::DecodedProgram;
use crate::ir::{Instr, Op};
use crate::trace::{NullTracer, Tracer};

/// Flat little-endian guest memory starting at `base`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    base: u64,
    data: Vec<u8>,
}

impl Memory {
    pub fn new(base: u64, size: usize) -> Self {
        Memory {
            base,
            data: vec![0; size],
        }
    }

    pub fn base(&self) -> u64 {
        self.base
    }

    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// The `N` bytes at `addr`, all of them inside the memory, or a trap:
    /// one bounds check, then a fixed-width copy.
    #[inline(always)]
    fn bytes<const N: usize>(&self, addr: u64) -> Result<&[u8; N], Trap> {
        let off = addr.wrapping_sub(self.base) as usize;
        off.checked_add(N)
            .and_then(|end| self.data.get(off..end))
            .map(|bytes| bytes.try_into().expect("a range of N bytes"))
            .ok_or(Trap::OutOfBounds(addr))
    }

    /// [`Memory::bytes`], writable.
    #[inline(always)]
    fn bytes_mut<const N: usize>(&mut self, addr: u64) -> Result<&mut [u8; N], Trap> {
        let off = addr.wrapping_sub(self.base) as usize;
        off.checked_add(N)
            .and_then(|end| self.data.get_mut(off..end))
            .map(|bytes| bytes.try_into().expect("a range of N bytes"))
            .ok_or(Trap::OutOfBounds(addr))
    }

    #[inline]
    pub(crate) fn read_u64(&self, addr: u64) -> Result<u64, Trap> {
        self.bytes(addr).map(|b| u64::from_le_bytes(*b))
    }

    #[inline]
    pub(crate) fn read_u32(&self, addr: u64) -> Result<u32, Trap> {
        self.bytes(addr).map(|b| u32::from_le_bytes(*b))
    }

    #[inline]
    pub(crate) fn read_u16(&self, addr: u64) -> Result<u16, Trap> {
        self.bytes(addr).map(|b| u16::from_le_bytes(*b))
    }

    #[inline]
    pub(crate) fn read_u8(&self, addr: u64) -> Result<u8, Trap> {
        self.bytes(addr).map(|b: &[u8; 1]| b[0])
    }

    #[inline]
    pub fn read_f64(&self, addr: u64) -> Result<f64, Trap> {
        Ok(f64::from_bits(self.read_u64(addr)?))
    }

    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), Trap> {
        *self.bytes_mut(addr)? = v.to_le_bytes();
        Ok(())
    }

    #[inline]
    pub(crate) fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), Trap> {
        *self.bytes_mut(addr)? = v.to_le_bytes();
        Ok(())
    }

    #[inline]
    pub(crate) fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), Trap> {
        *self.bytes_mut(addr)? = v.to_le_bytes();
        Ok(())
    }

    #[inline]
    pub(crate) fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), Trap> {
        *self.bytes_mut(addr)? = [v];
        Ok(())
    }

    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), Trap> {
        self.write_u64(addr, v.to_bits())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    IllegalInstruction(u64),
    OutOfBounds(u64),
    MisalignedPc(u64),
    StepLimit,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::IllegalInstruction(pc) => write!(f, "illegal instruction at pc={pc:#x}"),
            Trap::OutOfBounds(addr) => write!(f, "out-of-bounds access at {addr:#x}"),
            Trap::MisalignedPc(pc) => write!(f, "pc {pc:#x} not on an instruction boundary"),
            Trap::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

/// Architectural state. Vector registers hold `vlen_bits/64` f64 lanes each.
#[derive(Debug, Clone)]
pub struct Cpu {
    pub x: [u64; 32],
    pub f: [f64; 32],
    pub v: Vec<Vec<f64>>,
    pub vl: u64,
    pub vlen_bits: u32,
    pub pc: u64,
    pub mem: Memory,
}

impl Cpu {
    pub fn new(pc: u64, mem: Memory, vlen_bits: u32) -> Self {
        let lanes = (vlen_bits / 64).max(1) as usize;
        Cpu {
            x: [0; 32],
            f: [0.0; 32],
            v: vec![vec![0.0; lanes]; 32],
            vl: 0,
            vlen_bits,
            pc,
            mem,
        }
    }

    #[inline]
    fn set_x(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.x[reg(r)] = v;
        }
    }
}

/// A register field as an index into a 32-entry file. Decoded fields are
/// already below 32; the mask only tells the compiler so, which drops a
/// bounds check from every register access.
#[inline(always)]
fn reg(r: u8) -> usize {
    (r & 31) as usize
}

/// Counters accumulated by [`run`]; these are architectural counts, the
/// microarchitectural view (cache hits, predictor misses) lives in the
/// tracer implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub instret: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub taken_branches: u64,
    pub vector_ops: u64,
    pub vector_elems: u64,
    pub amo_ops: u64,
}

/// "No op index": a slot's static target is absent or not an instruction.
const NO_SLOT: u32 = u32::MAX;

/// One instruction of the pre-decoded program.
#[derive(Clone, Copy)]
struct Slot {
    pc: u64,
    instr: Instr,
    /// Op index of a `jal`/branch target, resolved once; [`NO_SLOT`] for
    /// every other op and for a target that is not an instruction.
    target: u32,
    /// Op index of the slot that ends this one's straight-line run (see
    /// [`ends_run`]), or the slot count when no slot at or after this one
    /// does.
    run_end: u32,
}

/// Whether `op` ends a straight-line run: it can send control somewhere
/// other than the next slot (a branch, `jal`, `jalr`) or stop the loop
/// (`ebreak`, `ecall`, an illegal op). Every other op goes to [`step`],
/// these to [`control`].
fn ends_run(op: Op) -> bool {
    op.ends_block() || op == Op::Illegal
}

/// The program as the execute loop wants it: a dense slot array stepped by
/// index (fall-through is `idx + 1`) plus the pc → index table that only
/// `jalr`, the entry pc and bad static targets still need.
struct Predecoded {
    slots: Vec<Slot>,
    base: u64,
    /// The pc just past the last instruction.
    end_pc: u64,
    /// Slot index by half-word offset from `base`; [`NO_SLOT`] inside an
    /// instruction.
    index: Vec<u32>,
}

impl Predecoded {
    fn new(prog: &DecodedProgram) -> Self {
        let mut index = vec![NO_SLOT; prog.byte_len() / 2];
        let mut next_pc = prog.base;
        for (n, (pc, instr)) in prog.instrs.iter().enumerate() {
            // Stepping by index relies on it: `instrs[n + 1]` is the
            // fall-through of `instrs[n]`.
            assert_eq!(*pc, next_pc, "program is not contiguous from its base");
            index[((pc - prog.base) / 2) as usize] = n as u32;
            next_pc = pc + instr.size as u64;
        }
        let mut pre = Predecoded {
            slots: Vec::with_capacity(prog.instrs.len()),
            base: prog.base,
            end_pc: next_pc,
            index,
        };
        for &(pc, instr) in &prog.instrs {
            let target = if instr.op == Op::Jal || instr.op.is_cond_branch() {
                pre.slot_of(pc.wrapping_add(instr.imm as u64))
            } else {
                NO_SLOT
            };
            pre.slots.push(Slot {
                pc,
                instr,
                target,
                run_end: NO_SLOT,
            });
        }
        let mut run_end = pre.slots.len() as u32;
        for (n, slot) in pre.slots.iter_mut().enumerate().rev() {
            if ends_run(slot.instr.op) {
                run_end = n as u32;
            }
            slot.run_end = run_end;
        }
        pre
    }

    /// The slot whose instruction starts at `pc`, or [`NO_SLOT`].
    fn slot_of(&self, pc: u64) -> u32 {
        let off = pc.wrapping_sub(self.base);
        if off & 1 != 0 {
            return NO_SLOT;
        }
        self.index
            .get((off / 2) as usize)
            .copied()
            .unwrap_or(NO_SLOT)
    }
}

/// Execute until `ebreak` (normal halt) or a trap, emitting trace events.
/// A tracer that [consumes nothing](Tracer::consumes_nothing) gets the
/// instantiation of [`execute`] with the hooks compiled out.
pub fn run(
    cpu: &mut Cpu,
    prog: &DecodedProgram,
    tracer: &mut dyn Tracer,
    max_steps: u64,
) -> Result<ExecStats, Trap> {
    if tracer.consumes_nothing() {
        execute(cpu, prog, &mut NullTracer, max_steps)
    } else {
        execute(cpu, prog, tracer, max_steps)
    }
}

/// [`run`] with the tracer's type known: its hooks are direct calls the
/// compiler can inline. On a trap `cpu.pc` is the pc of the instruction
/// that trapped (for [`Trap::MisalignedPc`], the pc that is no instruction;
/// for [`Trap::StepLimit`], the next one to execute).
///
/// Control moves a straight-line run at a time: the slots before the one
/// that ends the run go through [`step`] on one step-budget check and one
/// `instret` add, and only that last slot is control flow. Events, counts
/// and every ending are those of [`run_reference`], which checks the
/// budget, the pc and `ebreak` before every instruction.
pub fn execute<T: Tracer + ?Sized>(
    cpu: &mut Cpu,
    prog: &DecodedProgram,
    tracer: &mut T,
    max_steps: u64,
) -> Result<ExecStats, Trap> {
    let pre = Predecoded::new(prog);
    let slots = pre.slots.as_slice();
    let mut stats = ExecStats::default();
    // Control has reached `pc`, which is no instruction. The step budget is
    // checked before the pc, as it is for one that is.
    let leave = |cpu: &mut Cpu, pc: u64, instret: u64| {
        cpu.pc = pc;
        if instret >= max_steps {
            Trap::StepLimit
        } else {
            Trap::MisalignedPc(pc)
        }
    };
    // The position is a slot index; `cpu.pc` is written on the way out.
    let mut idx = match pre.slot_of(cpu.pc) {
        NO_SLOT => return Err(leave(cpu, cpu.pc, 0)),
        n => n as usize,
    };
    loop {
        // `idx` is in a run, or one past the last slot. The run's body, as
        // much of it as the budget allows, runs without a check.
        let end = slots.get(idx).map_or(idx, |slot| slot.run_end as usize);
        let body = ((end - idx) as u64).min(max_steps - stats.instret) as usize;
        for slot in &slots[idx..idx + body] {
            tracer.retire(slot.pc, &slot.instr);
            if let Err(trap) = step(cpu, slot.pc, &slot.instr, tracer, &mut stats) {
                cpu.pc = slot.pc;
                return Err(trap);
            }
        }
        stats.instret += body as u64;
        idx += body;
        // The run's last slot, unless the budget ran out first or the run
        // fell off the end of the program.
        let slot = slots.get(idx);
        if stats.instret >= max_steps {
            cpu.pc = slot.map_or(pre.end_pc, |slot| slot.pc);
            return Err(Trap::StepLimit);
        }
        let Some(slot) = slot else {
            cpu.pc = pre.end_pc;
            return Err(Trap::MisalignedPc(pre.end_pc));
        };
        stats.instret += 1;
        tracer.retire(slot.pc, &slot.instr);
        if slot.instr.op == Op::Ebreak {
            cpu.pc = slot.pc;
            return Ok(stats);
        }
        match control(cpu, slot.pc, &slot.instr, tracer, &mut stats) {
            Ok(None) => idx += 1,
            Ok(Some(_)) if slot.target != NO_SLOT => idx = slot.target as usize,
            Ok(Some(pc)) => match pre.slot_of(pc) {
                NO_SLOT => return Err(leave(cpu, pc, stats.instret)),
                n => idx = n as usize,
            },
            Err(trap) => {
                cpu.pc = slot.pc;
                return Err(trap);
            }
        }
    }
}

/// The fetch-by-pc loop [`execute`] replaced, kept as the oracle the
/// lock-step tests hold it to: it looks every pc up and checks the budget
/// and `ebreak` before every instruction, so it shares nothing with the
/// pre-decoding or the runs but the semantics in [`step`] and [`control`].
/// Not a production path.
pub fn run_reference(
    cpu: &mut Cpu,
    prog: &DecodedProgram,
    tracer: &mut dyn Tracer,
    max_steps: u64,
) -> Result<ExecStats, Trap> {
    let mut stats = ExecStats::default();
    loop {
        if stats.instret >= max_steps {
            return Err(Trap::StepLimit);
        }
        let pc = cpu.pc;
        let Ok(n) = prog.instrs.binary_search_by_key(&pc, |(at, _)| *at) else {
            return Err(Trap::MisalignedPc(pc));
        };
        let instr = &prog.instrs[n].1;
        stats.instret += 1;
        tracer.retire(pc, instr);
        if instr.op == Op::Ebreak {
            return Ok(stats);
        }
        let redirect = if ends_run(instr.op) {
            control(cpu, pc, instr, tracer, &mut stats)?
        } else {
            step(cpu, pc, instr, tracer, &mut stats)?;
            None
        };
        cpu.pc = redirect.unwrap_or(pc + instr.size as u64);
    }
}

/// The semantics of one instruction that does not end a run: control goes
/// on to the next instruction unless it traps. `cpu.pc` is the caller's to
/// maintain.
#[inline(always)]
fn step<T: Tracer + ?Sized>(
    cpu: &mut Cpu,
    pc: u64,
    i: &Instr,
    tracer: &mut T,
    stats: &mut ExecStats,
) -> Result<(), Trap> {
    let rs1 = cpu.x[reg(i.rs1)];
    let rs2 = cpu.x[reg(i.rs2)];
    let imm = i.imm as u64;
    // A scalar load of `$bytes` through `$read`, widened by `$extend`.
    macro_rules! load {
        ($read:ident, $bytes:literal, $extend:expr) => {{
            let addr = rs1.wrapping_add(imm);
            let v = cpu.mem.$read(addr)?;
            cpu.set_x(i.rd, $extend(v));
            stats.loads += 1;
            tracer.mem(addr, $bytes, false);
        }};
    }
    // A scalar store of the low `$bytes` of `rs2` through `$write`.
    macro_rules! store {
        ($write:ident, $bytes:literal, $narrow:ty) => {{
            let addr = rs1.wrapping_add(imm);
            cpu.mem.$write(addr, rs2 as $narrow)?;
            stats.stores += 1;
            tracer.mem(addr, $bytes, true);
        }};
    }
    match i.op {
        Op::Lui => cpu.set_x(i.rd, imm),
        Op::Auipc => cpu.set_x(i.rd, pc.wrapping_add(imm)),
        Op::Lb => load!(read_u8, 1, |v: u8| v as i8 as i64 as u64),
        Op::Lbu => load!(read_u8, 1, u64::from),
        Op::Lh => load!(read_u16, 2, |v: u16| v as i16 as i64 as u64),
        Op::Lhu => load!(read_u16, 2, u64::from),
        Op::Lw => load!(read_u32, 4, |v: u32| v as i32 as i64 as u64),
        Op::Lwu => load!(read_u32, 4, u64::from),
        Op::Ld => load!(read_u64, 8, |v: u64| v),
        Op::Sb => store!(write_u8, 1, u8),
        Op::Sh => store!(write_u16, 2, u16),
        Op::Sw => store!(write_u32, 4, u32),
        Op::Sd => store!(write_u64, 8, u64),
        Op::Addi => cpu.set_x(i.rd, rs1.wrapping_add(imm)),
        Op::Slti => cpu.set_x(i.rd, ((rs1 as i64) < i.imm) as u64),
        Op::Sltiu => cpu.set_x(i.rd, (rs1 < imm) as u64),
        Op::Xori => cpu.set_x(i.rd, rs1 ^ imm),
        Op::Ori => cpu.set_x(i.rd, rs1 | imm),
        Op::Andi => cpu.set_x(i.rd, rs1 & imm),
        Op::Slli => cpu.set_x(i.rd, rs1 << (i.imm & 63)),
        Op::Srli => cpu.set_x(i.rd, rs1 >> (i.imm & 63)),
        Op::Srai => cpu.set_x(i.rd, ((rs1 as i64) >> (i.imm & 63)) as u64),
        Op::Add => cpu.set_x(i.rd, rs1.wrapping_add(rs2)),
        Op::Sub => cpu.set_x(i.rd, rs1.wrapping_sub(rs2)),
        Op::Sll => cpu.set_x(i.rd, rs1 << (rs2 & 63)),
        Op::Slt => cpu.set_x(i.rd, ((rs1 as i64) < (rs2 as i64)) as u64),
        Op::Sltu => cpu.set_x(i.rd, (rs1 < rs2) as u64),
        Op::Xor => cpu.set_x(i.rd, rs1 ^ rs2),
        Op::Srl => cpu.set_x(i.rd, rs1 >> (rs2 & 63)),
        Op::Sra => cpu.set_x(i.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
        Op::Or => cpu.set_x(i.rd, rs1 | rs2),
        Op::And => cpu.set_x(i.rd, rs1 & rs2),
        Op::Addiw => cpu.set_x(i.rd, (rs1.wrapping_add(imm) as i32) as i64 as u64),
        Op::Slliw => cpu.set_x(i.rd, (((rs1 as u32) << (i.imm & 31)) as i32) as i64 as u64),
        Op::Srliw => cpu.set_x(i.rd, (((rs1 as u32) >> (i.imm & 31)) as i32) as i64 as u64),
        Op::Sraiw => cpu.set_x(i.rd, ((rs1 as i32) >> (i.imm & 31)) as i64 as u64),
        Op::Addw => cpu.set_x(i.rd, (rs1.wrapping_add(rs2) as i32) as i64 as u64),
        Op::Subw => cpu.set_x(i.rd, (rs1.wrapping_sub(rs2) as i32) as i64 as u64),
        Op::Sllw => cpu.set_x(i.rd, (((rs1 as u32) << (rs2 & 31)) as i32) as i64 as u64),
        Op::Srlw => cpu.set_x(i.rd, (((rs1 as u32) >> (rs2 & 31)) as i32) as i64 as u64),
        Op::Sraw => cpu.set_x(i.rd, ((rs1 as i32) >> (rs2 & 31)) as i64 as u64),
        Op::Fence => {}
        Op::Mul => cpu.set_x(i.rd, rs1.wrapping_mul(rs2)),
        Op::Mulh => cpu.set_x(
            i.rd,
            (((rs1 as i64 as i128) * (rs2 as i64 as i128)) >> 64) as u64,
        ),
        Op::Mulhsu => cpu.set_x(
            i.rd,
            (((rs1 as i64 as i128) * (rs2 as u128 as i128)) >> 64) as u64,
        ),
        Op::Mulhu => cpu.set_x(i.rd, (((rs1 as u128) * (rs2 as u128)) >> 64) as u64),
        Op::Div => {
            let v = if rs2 == 0 {
                u64::MAX
            } else {
                ((rs1 as i64).wrapping_div(rs2 as i64)) as u64
            };
            cpu.set_x(i.rd, v);
        }
        Op::Divu => cpu.set_x(i.rd, rs1.checked_div(rs2).unwrap_or(u64::MAX)),
        Op::Rem => {
            let v = if rs2 == 0 {
                rs1
            } else {
                ((rs1 as i64).wrapping_rem(rs2 as i64)) as u64
            };
            cpu.set_x(i.rd, v);
        }
        Op::Remu => cpu.set_x(i.rd, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
        Op::Mulw => cpu.set_x(i.rd, ((rs1 as i32).wrapping_mul(rs2 as i32)) as i64 as u64),
        Op::Divw => {
            let (a, b) = (rs1 as i32, rs2 as i32);
            let v = if b == 0 { -1i32 } else { a.wrapping_div(b) };
            cpu.set_x(i.rd, v as i64 as u64);
        }
        Op::Divuw => {
            let (a, b) = (rs1 as u32, rs2 as u32);
            let v = a.checked_div(b).unwrap_or(u32::MAX);
            cpu.set_x(i.rd, v as i32 as i64 as u64);
        }
        Op::Remw => {
            let (a, b) = (rs1 as i32, rs2 as i32);
            let v = if b == 0 { a } else { a.wrapping_rem(b) };
            cpu.set_x(i.rd, v as i64 as u64);
        }
        Op::Remuw => {
            let (a, b) = (rs1 as u32, rs2 as u32);
            let v = if b == 0 { a } else { a % b };
            cpu.set_x(i.rd, v as i32 as i64 as u64);
        }
        // A-extension subset with single-thread semantics: sc always succeeds.
        Op::LrW => {
            let v = cpu.mem.read_u32(rs1)? as i32 as i64 as u64;
            cpu.set_x(i.rd, v);
            stats.amo_ops += 1;
            stats.loads += 1;
            tracer.mem(rs1, 4, false);
        }
        Op::ScW => {
            cpu.mem.write_u32(rs1, rs2 as u32)?;
            cpu.set_x(i.rd, 0);
            stats.amo_ops += 1;
            stats.stores += 1;
            tracer.mem(rs1, 4, true);
        }
        Op::AmoAddW | Op::AmoSwapW => {
            let old = cpu.mem.read_u32(rs1)? as i32 as i64 as u64;
            let new = if i.op == Op::AmoAddW {
                (old as u32).wrapping_add(rs2 as u32)
            } else {
                rs2 as u32
            };
            cpu.mem.write_u32(rs1, new)?;
            cpu.set_x(i.rd, old);
            stats.amo_ops += 1;
            stats.loads += 1;
            stats.stores += 1;
            tracer.mem(rs1, 4, false);
            tracer.mem(rs1, 4, true);
        }
        Op::LrD => {
            let v = cpu.mem.read_u64(rs1)?;
            cpu.set_x(i.rd, v);
            stats.amo_ops += 1;
            stats.loads += 1;
            tracer.mem(rs1, 8, false);
        }
        Op::ScD => {
            cpu.mem.write_u64(rs1, rs2)?;
            cpu.set_x(i.rd, 0);
            stats.amo_ops += 1;
            stats.stores += 1;
            tracer.mem(rs1, 8, true);
        }
        Op::AmoAddD | Op::AmoSwapD => {
            let old = cpu.mem.read_u64(rs1)?;
            let new = if i.op == Op::AmoAddD {
                old.wrapping_add(rs2)
            } else {
                rs2
            };
            cpu.mem.write_u64(rs1, new)?;
            cpu.set_x(i.rd, old);
            stats.amo_ops += 1;
            stats.loads += 1;
            stats.stores += 1;
            tracer.mem(rs1, 8, false);
            tracer.mem(rs1, 8, true);
        }
        Op::Fld => {
            let addr = rs1.wrapping_add(imm);
            cpu.f[reg(i.rd)] = cpu.mem.read_f64(addr)?;
            stats.loads += 1;
            tracer.mem(addr, 8, false);
        }
        Op::Fsd => {
            let addr = rs1.wrapping_add(imm);
            cpu.mem.write_f64(addr, cpu.f[reg(i.rs2)])?;
            stats.stores += 1;
            tracer.mem(addr, 8, true);
        }
        Op::FaddD => cpu.f[reg(i.rd)] = cpu.f[reg(i.rs1)] + cpu.f[reg(i.rs2)],
        Op::FsubD => cpu.f[reg(i.rd)] = cpu.f[reg(i.rs1)] - cpu.f[reg(i.rs2)],
        Op::FmulD => cpu.f[reg(i.rd)] = cpu.f[reg(i.rs1)] * cpu.f[reg(i.rs2)],
        Op::FdivD => cpu.f[reg(i.rd)] = cpu.f[reg(i.rs1)] / cpu.f[reg(i.rs2)],
        Op::FmaddD => {
            cpu.f[reg(i.rd)] = cpu.f[reg(i.rs1)].mul_add(cpu.f[reg(i.rs2)], cpu.f[reg(i.rs3)])
        }
        Op::FmsubD => {
            cpu.f[reg(i.rd)] = cpu.f[reg(i.rs1)].mul_add(cpu.f[reg(i.rs2)], -cpu.f[reg(i.rs3)])
        }
        Op::FnmsubD => {
            cpu.f[reg(i.rd)] = (-cpu.f[reg(i.rs1)]).mul_add(cpu.f[reg(i.rs2)], cpu.f[reg(i.rs3)])
        }
        Op::FnmaddD => {
            cpu.f[reg(i.rd)] = (-cpu.f[reg(i.rs1)]).mul_add(cpu.f[reg(i.rs2)], -cpu.f[reg(i.rs3)])
        }
        Op::FmvDX => cpu.f[reg(i.rd)] = f64::from_bits(rs1),
        Op::FmvXD => cpu.set_x(i.rd, cpu.f[reg(i.rs1)].to_bits()),
        Op::FcvtDW => cpu.f[reg(i.rd)] = (rs1 as i32) as f64,
        Op::FcvtDL => cpu.f[reg(i.rd)] = (rs1 as i64) as f64,
        Op::Sh1add => cpu.set_x(i.rd, (rs1 << 1).wrapping_add(rs2)),
        Op::Sh2add => cpu.set_x(i.rd, (rs1 << 2).wrapping_add(rs2)),
        Op::Sh3add => cpu.set_x(i.rd, (rs1 << 3).wrapping_add(rs2)),
        Op::AddUw => cpu.set_x(i.rd, ((rs1 as u32) as u64).wrapping_add(rs2)),
        Op::Min => cpu.set_x(i.rd, (rs1 as i64).min(rs2 as i64) as u64),
        Op::Minu => cpu.set_x(i.rd, rs1.min(rs2)),
        Op::Max => cpu.set_x(i.rd, (rs1 as i64).max(rs2 as i64) as u64),
        Op::Maxu => cpu.set_x(i.rd, rs1.max(rs2)),
        Op::Andn => cpu.set_x(i.rd, rs1 & !rs2),
        Op::Orn => cpu.set_x(i.rd, rs1 | !rs2),
        Op::Xnor => cpu.set_x(i.rd, !(rs1 ^ rs2)),
        Op::Rol => cpu.set_x(i.rd, rs1.rotate_left((rs2 & 63) as u32)),
        Op::Ror => cpu.set_x(i.rd, rs1.rotate_right((rs2 & 63) as u32)),
        Op::Rori => cpu.set_x(i.rd, rs1.rotate_right((i.imm & 63) as u32)),
        Op::Clz => cpu.set_x(i.rd, rs1.leading_zeros() as u64),
        Op::Ctz => cpu.set_x(i.rd, rs1.trailing_zeros() as u64),
        Op::Cpop => cpu.set_x(i.rd, rs1.count_ones() as u64),
        Op::SextB => cpu.set_x(i.rd, (rs1 as i8) as i64 as u64),
        Op::SextH => cpu.set_x(i.rd, (rs1 as i16) as i64 as u64),
        Op::Vsetvli => {
            // Subset: SEW=64, LMUL=1 only → vlmax = VLEN/64.
            let vlmax = (cpu.vlen_bits / 64).max(1) as u64;
            let avl = rs1;
            cpu.vl = avl.min(vlmax);
            cpu.set_x(i.rd, cpu.vl);
            stats.vector_ops += 1;
            tracer.vector(cpu.vl as u32, false);
        }
        Op::Vle64 => {
            let vl = cpu.vl;
            for lane in 0..vl as usize {
                let addr = rs1.wrapping_add(8 * lane as u64);
                let v = cpu.mem.read_f64(addr)?;
                cpu.v[reg(i.rd)][lane] = v;
                stats.loads += 1;
                tracer.mem(addr, 8, false);
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl;
            tracer.vector(vl as u32, false);
        }
        Op::Vse64 => {
            let vl = cpu.vl;
            for lane in 0..vl as usize {
                let addr = rs1.wrapping_add(8 * lane as u64);
                cpu.mem.write_f64(addr, cpu.v[reg(i.rd)][lane])?;
                stats.stores += 1;
                tracer.mem(addr, 8, true);
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl;
            tracer.vector(vl as u32, false);
        }
        Op::Vluxei64 => {
            // Indexed gather: byte offsets in v[vs2], base in rs1.
            let vl = cpu.vl;
            for lane in 0..vl as usize {
                let off = cpu.v[reg(i.rs2)][lane].to_bits();
                let addr = rs1.wrapping_add(off);
                let v = cpu.mem.read_f64(addr)?;
                cpu.v[reg(i.rd)][lane] = v;
                stats.loads += 1;
                tracer.mem(addr, 8, false);
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl;
            tracer.vector(vl as u32, true);
        }
        Op::VfmaccVf => {
            let vl = cpu.vl as usize;
            let scalar = cpu.f[reg(i.rs1)];
            for lane in 0..vl {
                let acc = cpu.v[reg(i.rd)][lane];
                cpu.v[reg(i.rd)][lane] = scalar.mul_add(cpu.v[reg(i.rs2)][lane], acc);
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl as u64;
            tracer.vector(vl as u32, false);
        }
        Op::VfmulVf => {
            let vl = cpu.vl as usize;
            let scalar = cpu.f[reg(i.rs1)];
            for lane in 0..vl {
                cpu.v[reg(i.rd)][lane] = scalar * cpu.v[reg(i.rs2)][lane];
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl as u64;
            tracer.vector(vl as u32, false);
        }
        Op::VfaddVv => {
            let vl = cpu.vl as usize;
            for lane in 0..vl {
                cpu.v[reg(i.rd)][lane] = cpu.v[reg(i.rs1)][lane] + cpu.v[reg(i.rs2)][lane];
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl as u64;
            tracer.vector(vl as u32, false);
        }
        Op::Jal
        | Op::Jalr
        | Op::Beq
        | Op::Bne
        | Op::Blt
        | Op::Bge
        | Op::Bltu
        | Op::Bgeu
        | Op::Ecall
        | Op::Ebreak
        | Op::Illegal => unreachable!("{:?} ends a run", i.op),
    }
    Ok(())
}

/// The semantics of the op that ends a run, for every such op but `ebreak`
/// (which the loops handle): the pc control moves to when that is not the
/// next instruction. `cpu.pc` is the caller's to maintain.
#[inline(always)]
fn control<T: Tracer + ?Sized>(
    cpu: &mut Cpu,
    pc: u64,
    i: &Instr,
    tracer: &mut T,
    stats: &mut ExecStats,
) -> Result<Option<u64>, Trap> {
    let rs1 = cpu.x[reg(i.rs1)];
    let rs2 = cpu.x[reg(i.rs2)];
    let next_pc = pc + i.size as u64;
    let target = pc.wrapping_add(i.imm as u64);
    let taken = match i.op {
        Op::Jal => {
            cpu.set_x(i.rd, next_pc);
            return Ok(Some(target));
        }
        Op::Jalr => {
            cpu.set_x(i.rd, next_pc);
            return Ok(Some(rs1.wrapping_add(i.imm as u64) & !1));
        }
        Op::Beq => rs1 == rs2,
        Op::Bne => rs1 != rs2,
        Op::Blt => (rs1 as i64) < (rs2 as i64),
        Op::Bge => (rs1 as i64) >= (rs2 as i64),
        Op::Bltu => rs1 < rs2,
        Op::Bgeu => rs1 >= rs2,
        Op::Ecall | Op::Illegal => return Err(Trap::IllegalInstruction(pc)),
        op => unreachable!("{op:?} does not end a run, or is ebreak"),
    };
    stats.branches += 1;
    if taken {
        stats.taken_branches += 1;
    }
    tracer.branch(pc, taken);
    Ok(taken.then_some(target))
}
