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

    #[inline]
    fn offset(&self, addr: u64, bytes: usize) -> Result<usize, Trap> {
        let off = addr.wrapping_sub(self.base);
        if (off as usize)
            .checked_add(bytes)
            .is_some_and(|end| end <= self.data.len())
        {
            Ok(off as usize)
        } else {
            Err(Trap::OutOfBounds(addr))
        }
    }

    pub fn read_u64(&self, addr: u64) -> Result<u64, Trap> {
        let o = self.offset(addr, 8)?;
        Ok(u64::from_le_bytes(self.data[o..o + 8].try_into().unwrap()))
    }

    pub fn read_u32(&self, addr: u64) -> Result<u32, Trap> {
        let o = self.offset(addr, 4)?;
        Ok(u32::from_le_bytes(self.data[o..o + 4].try_into().unwrap()))
    }

    pub fn read_u16(&self, addr: u64) -> Result<u16, Trap> {
        let o = self.offset(addr, 2)?;
        Ok(u16::from_le_bytes(self.data[o..o + 2].try_into().unwrap()))
    }

    pub fn read_u8(&self, addr: u64) -> Result<u8, Trap> {
        let o = self.offset(addr, 1)?;
        Ok(self.data[o])
    }

    pub fn read_f64(&self, addr: u64) -> Result<f64, Trap> {
        Ok(f64::from_bits(self.read_u64(addr)?))
    }

    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), Trap> {
        let o = self.offset(addr, 8)?;
        self.data[o..o + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), Trap> {
        let o = self.offset(addr, 4)?;
        self.data[o..o + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), Trap> {
        let o = self.offset(addr, 2)?;
        self.data[o..o + 2].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), Trap> {
        let o = self.offset(addr, 1)?;
        self.data[o] = v;
        Ok(())
    }

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
            self.x[r as usize] = v;
        }
    }
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
            pre.slots.push(Slot { pc, instr, target });
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
pub fn execute<T: Tracer + ?Sized>(
    cpu: &mut Cpu,
    prog: &DecodedProgram,
    tracer: &mut T,
    max_steps: u64,
) -> Result<ExecStats, Trap> {
    let _prof = rvhpc_obs::prof::scope("isa.interp");
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
        // Past the last slot only by falling through it.
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
        match step(cpu, slot.pc, &slot.instr, tracer, &mut stats) {
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
/// lock-step tests hold it to: it looks every pc up, so it shares nothing
/// with the pre-decoding but the semantics in [`step`]. Not a production
/// path.
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
        cpu.pc = match step(cpu, pc, instr, tracer, &mut stats)? {
            None => pc + instr.size as u64,
            Some(target) => target,
        };
    }
}

/// The semantics of one instruction (every op but `ebreak`, which the
/// loops handle). Returns the pc control moves to when that is not the
/// next instruction; `cpu.pc` is the caller's to maintain.
#[inline(always)]
fn step<T: Tracer + ?Sized>(
    cpu: &mut Cpu,
    pc: u64,
    i: &Instr,
    tracer: &mut T,
    stats: &mut ExecStats,
) -> Result<Option<u64>, Trap> {
    let next_pc = pc + i.size as u64;
    let rs1 = cpu.x[i.rs1 as usize];
    let rs2 = cpu.x[i.rs2 as usize];
    let mut redirect = None;
    match i.op {
        Op::Lui => cpu.set_x(i.rd, i.imm as u64),
        Op::Auipc => cpu.set_x(i.rd, pc.wrapping_add(i.imm as u64)),
        Op::Jal => {
            cpu.set_x(i.rd, next_pc);
            redirect = Some(pc.wrapping_add(i.imm as u64));
        }
        Op::Jalr => {
            cpu.set_x(i.rd, next_pc);
            redirect = Some(rs1.wrapping_add(i.imm as u64) & !1);
        }
        Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
            let taken = match i.op {
                Op::Beq => rs1 == rs2,
                Op::Bne => rs1 != rs2,
                Op::Blt => (rs1 as i64) < (rs2 as i64),
                Op::Bge => (rs1 as i64) >= (rs2 as i64),
                Op::Bltu => rs1 < rs2,
                _ => rs1 >= rs2,
            };
            stats.branches += 1;
            if taken {
                stats.taken_branches += 1;
                redirect = Some(pc.wrapping_add(i.imm as u64));
            }
            tracer.branch(pc, taken);
        }
        Op::Lb | Op::Lh | Op::Lw | Op::Ld | Op::Lbu | Op::Lhu | Op::Lwu => {
            let addr = rs1.wrapping_add(i.imm as u64);
            let (v, bytes) = match i.op {
                Op::Lb => (cpu.mem.read_u8(addr)? as i8 as i64 as u64, 1),
                Op::Lbu => (cpu.mem.read_u8(addr)? as u64, 1),
                Op::Lh => (cpu.mem.read_u16(addr)? as i16 as i64 as u64, 2),
                Op::Lhu => (cpu.mem.read_u16(addr)? as u64, 2),
                Op::Lw => (cpu.mem.read_u32(addr)? as i32 as i64 as u64, 4),
                Op::Lwu => (cpu.mem.read_u32(addr)? as u64, 4),
                _ => (cpu.mem.read_u64(addr)?, 8),
            };
            cpu.set_x(i.rd, v);
            stats.loads += 1;
            tracer.mem(addr, bytes, false);
        }
        Op::Sb | Op::Sh | Op::Sw | Op::Sd => {
            let addr = rs1.wrapping_add(i.imm as u64);
            let bytes = match i.op {
                Op::Sb => {
                    cpu.mem.write_u8(addr, rs2 as u8)?;
                    1
                }
                Op::Sh => {
                    cpu.mem.write_u16(addr, rs2 as u16)?;
                    2
                }
                Op::Sw => {
                    cpu.mem.write_u32(addr, rs2 as u32)?;
                    4
                }
                _ => {
                    cpu.mem.write_u64(addr, rs2)?;
                    8
                }
            };
            stats.stores += 1;
            tracer.mem(addr, bytes, true);
        }
        Op::Addi => cpu.set_x(i.rd, rs1.wrapping_add(i.imm as u64)),
        Op::Slti => cpu.set_x(i.rd, ((rs1 as i64) < i.imm) as u64),
        Op::Sltiu => cpu.set_x(i.rd, (rs1 < i.imm as u64) as u64),
        Op::Xori => cpu.set_x(i.rd, rs1 ^ i.imm as u64),
        Op::Ori => cpu.set_x(i.rd, rs1 | i.imm as u64),
        Op::Andi => cpu.set_x(i.rd, rs1 & i.imm as u64),
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
        Op::Addiw => cpu.set_x(i.rd, (rs1.wrapping_add(i.imm as u64) as i32) as i64 as u64),
        Op::Slliw => cpu.set_x(i.rd, (((rs1 as u32) << (i.imm & 31)) as i32) as i64 as u64),
        Op::Srliw => cpu.set_x(i.rd, (((rs1 as u32) >> (i.imm & 31)) as i32) as i64 as u64),
        Op::Sraiw => cpu.set_x(i.rd, ((rs1 as i32) >> (i.imm & 31)) as i64 as u64),
        Op::Addw => cpu.set_x(i.rd, (rs1.wrapping_add(rs2) as i32) as i64 as u64),
        Op::Subw => cpu.set_x(i.rd, (rs1.wrapping_sub(rs2) as i32) as i64 as u64),
        Op::Sllw => cpu.set_x(i.rd, (((rs1 as u32) << (rs2 & 31)) as i32) as i64 as u64),
        Op::Srlw => cpu.set_x(i.rd, (((rs1 as u32) >> (rs2 & 31)) as i32) as i64 as u64),
        Op::Sraw => cpu.set_x(i.rd, ((rs1 as i32) >> (rs2 & 31)) as i64 as u64),
        Op::Fence => {}
        Op::Ecall => return Err(Trap::IllegalInstruction(pc)),
        Op::Ebreak => unreachable!("the loops halt on ebreak"),
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
        Op::LrW | Op::AmoAddW | Op::AmoSwapW | Op::ScW => {
            stats.amo_ops += 1;
            match i.op {
                Op::LrW => {
                    let v = cpu.mem.read_u32(rs1)? as i32 as i64 as u64;
                    cpu.set_x(i.rd, v);
                    stats.loads += 1;
                    tracer.mem(rs1, 4, false);
                }
                Op::ScW => {
                    cpu.mem.write_u32(rs1, rs2 as u32)?;
                    cpu.set_x(i.rd, 0);
                    stats.stores += 1;
                    tracer.mem(rs1, 4, true);
                }
                _ => {
                    let old = cpu.mem.read_u32(rs1)? as i32 as i64 as u64;
                    let new = if i.op == Op::AmoAddW {
                        (old as u32).wrapping_add(rs2 as u32)
                    } else {
                        rs2 as u32
                    };
                    cpu.mem.write_u32(rs1, new)?;
                    cpu.set_x(i.rd, old);
                    stats.loads += 1;
                    stats.stores += 1;
                    tracer.mem(rs1, 4, false);
                    tracer.mem(rs1, 4, true);
                }
            }
        }
        Op::LrD | Op::AmoAddD | Op::AmoSwapD | Op::ScD => {
            stats.amo_ops += 1;
            match i.op {
                Op::LrD => {
                    let v = cpu.mem.read_u64(rs1)?;
                    cpu.set_x(i.rd, v);
                    stats.loads += 1;
                    tracer.mem(rs1, 8, false);
                }
                Op::ScD => {
                    cpu.mem.write_u64(rs1, rs2)?;
                    cpu.set_x(i.rd, 0);
                    stats.stores += 1;
                    tracer.mem(rs1, 8, true);
                }
                _ => {
                    let old = cpu.mem.read_u64(rs1)?;
                    let new = if i.op == Op::AmoAddD {
                        old.wrapping_add(rs2)
                    } else {
                        rs2
                    };
                    cpu.mem.write_u64(rs1, new)?;
                    cpu.set_x(i.rd, old);
                    stats.loads += 1;
                    stats.stores += 1;
                    tracer.mem(rs1, 8, false);
                    tracer.mem(rs1, 8, true);
                }
            }
        }
        Op::Fld => {
            let addr = rs1.wrapping_add(i.imm as u64);
            cpu.f[i.rd as usize] = cpu.mem.read_f64(addr)?;
            stats.loads += 1;
            tracer.mem(addr, 8, false);
        }
        Op::Fsd => {
            let addr = rs1.wrapping_add(i.imm as u64);
            cpu.mem.write_f64(addr, cpu.f[i.rs2 as usize])?;
            stats.stores += 1;
            tracer.mem(addr, 8, true);
        }
        Op::FaddD => cpu.f[i.rd as usize] = cpu.f[i.rs1 as usize] + cpu.f[i.rs2 as usize],
        Op::FsubD => cpu.f[i.rd as usize] = cpu.f[i.rs1 as usize] - cpu.f[i.rs2 as usize],
        Op::FmulD => cpu.f[i.rd as usize] = cpu.f[i.rs1 as usize] * cpu.f[i.rs2 as usize],
        Op::FdivD => cpu.f[i.rd as usize] = cpu.f[i.rs1 as usize] / cpu.f[i.rs2 as usize],
        Op::FmaddD => {
            cpu.f[i.rd as usize] =
                cpu.f[i.rs1 as usize].mul_add(cpu.f[i.rs2 as usize], cpu.f[i.rs3 as usize])
        }
        Op::FmsubD => {
            cpu.f[i.rd as usize] =
                cpu.f[i.rs1 as usize].mul_add(cpu.f[i.rs2 as usize], -cpu.f[i.rs3 as usize])
        }
        Op::FnmsubD => {
            cpu.f[i.rd as usize] =
                (-cpu.f[i.rs1 as usize]).mul_add(cpu.f[i.rs2 as usize], cpu.f[i.rs3 as usize])
        }
        Op::FnmaddD => {
            cpu.f[i.rd as usize] =
                (-cpu.f[i.rs1 as usize]).mul_add(cpu.f[i.rs2 as usize], -cpu.f[i.rs3 as usize])
        }
        Op::FmvDX => cpu.f[i.rd as usize] = f64::from_bits(rs1),
        Op::FmvXD => cpu.set_x(i.rd, cpu.f[i.rs1 as usize].to_bits()),
        Op::FcvtDW => cpu.f[i.rd as usize] = (rs1 as i32) as f64,
        Op::FcvtDL => cpu.f[i.rd as usize] = (rs1 as i64) as f64,
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
                cpu.v[i.rd as usize][lane] = v;
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
                cpu.mem.write_f64(addr, cpu.v[i.rd as usize][lane])?;
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
                let off = cpu.v[i.rs2 as usize][lane].to_bits();
                let addr = rs1.wrapping_add(off);
                let v = cpu.mem.read_f64(addr)?;
                cpu.v[i.rd as usize][lane] = v;
                stats.loads += 1;
                tracer.mem(addr, 8, false);
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl;
            tracer.vector(vl as u32, true);
        }
        Op::VfmaccVf => {
            let vl = cpu.vl as usize;
            let scalar = cpu.f[i.rs1 as usize];
            for lane in 0..vl {
                let acc = cpu.v[i.rd as usize][lane];
                cpu.v[i.rd as usize][lane] = scalar.mul_add(cpu.v[i.rs2 as usize][lane], acc);
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl as u64;
            tracer.vector(vl as u32, false);
        }
        Op::VfmulVf => {
            let vl = cpu.vl as usize;
            let scalar = cpu.f[i.rs1 as usize];
            for lane in 0..vl {
                cpu.v[i.rd as usize][lane] = scalar * cpu.v[i.rs2 as usize][lane];
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl as u64;
            tracer.vector(vl as u32, false);
        }
        Op::VfaddVv => {
            let vl = cpu.vl as usize;
            for lane in 0..vl {
                cpu.v[i.rd as usize][lane] =
                    cpu.v[i.rs1 as usize][lane] + cpu.v[i.rs2 as usize][lane];
            }
            stats.vector_ops += 1;
            stats.vector_elems += vl as u64;
            tracer.vector(vl as u32, false);
        }
        Op::Illegal => return Err(Trap::IllegalInstruction(pc)),
    }
    Ok(redirect)
}
