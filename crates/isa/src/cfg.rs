//! Basic-block CFG construction over a decoded program, rvr-style: leaders
//! are branch/jump targets plus fall-throughs of block-ending instructions;
//! each block records its successors by start pc.

use crate::decode::DecodedProgram;
use crate::ir::Op;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// pc of the first instruction.
    pub start: u64,
    /// pc just past the last instruction.
    pub end: u64,
    /// Index range into `DecodedProgram::instrs`.
    pub instrs: (usize, usize),
    /// Successor block start pcs (in-range only).
    pub succs: Vec<u64>,
}

#[derive(Debug, Clone)]
pub struct Cfg {
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }
}

/// Build the CFG for a decoded program.
pub fn build_cfg(prog: &DecodedProgram) -> Cfg {
    if prog.instrs.is_empty() {
        return Cfg { blocks: Vec::new() };
    }
    let end_pc = {
        let (pc, i) = prog.instrs[prog.instrs.len() - 1];
        pc + i.size as u64
    };
    let in_range = |pc: u64| pc >= prog.base && pc < end_pc;

    // Pass 1: leaders.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(prog.base);
    for &(pc, instr) in &prog.instrs {
        match instr.op {
            Op::Jal => {
                let target = pc.wrapping_add(instr.imm as u64);
                if in_range(target) {
                    leaders.insert(target);
                }
                let next = pc + instr.size as u64;
                if in_range(next) {
                    leaders.insert(next);
                }
            }
            op if op.is_cond_branch() => {
                let target = pc.wrapping_add(instr.imm as u64);
                if in_range(target) {
                    leaders.insert(target);
                }
                let next = pc + instr.size as u64;
                if in_range(next) {
                    leaders.insert(next);
                }
            }
            Op::Jalr | Op::Ebreak | Op::Ecall => {
                let next = pc + instr.size as u64;
                if in_range(next) {
                    leaders.insert(next);
                }
            }
            _ => {}
        }
    }

    // Pass 2: slice instructions into blocks.
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut idx = 0usize;
    let leader_list: Vec<u64> = leaders.iter().copied().collect();
    for (li, &start) in leader_list.iter().enumerate() {
        let limit = leader_list.get(li + 1).copied().unwrap_or(end_pc);
        // Advance idx to the leader (instr pcs are strictly increasing).
        while idx < prog.instrs.len() && prog.instrs[idx].0 < start {
            idx += 1;
        }
        let first = idx;
        let mut last_pc = start;
        let mut last_instr = None;
        while idx < prog.instrs.len() && prog.instrs[idx].0 < limit {
            let (pc, instr) = prog.instrs[idx];
            last_pc = pc + instr.size as u64;
            last_instr = Some((pc, instr));
            idx += 1;
        }
        if first == idx {
            continue;
        }
        let mut succs = Vec::new();
        if let Some((pc, instr)) = last_instr {
            match instr.op {
                Op::Jal => {
                    let target = pc.wrapping_add(instr.imm as u64);
                    if in_range(target) {
                        succs.push(target);
                    }
                }
                op if op.is_cond_branch() => {
                    let target = pc.wrapping_add(instr.imm as u64);
                    if in_range(target) {
                        succs.push(target);
                    }
                    if in_range(last_pc) && Some(&last_pc) != succs.first() {
                        succs.push(last_pc);
                    }
                }
                Op::Jalr | Op::Ebreak | Op::Ecall => {}
                _ => {
                    if in_range(last_pc) {
                        succs.push(last_pc);
                    }
                }
            }
        }
        blocks.push(BasicBlock {
            start,
            end: last_pc,
            instrs: (first, idx),
            succs,
        });
    }
    Cfg { blocks }
}
