//! Total RV64 decoder: any 32-bit word (or 16-bit compressed half-word)
//! decodes to an [`Instr`] — unknown encodings yield [`Op::Illegal`], never a
//! panic. Compressed instructions are expanded to their base op with
//! `size == 2`.

use crate::ir::{ExtSet, Instr, Op, Reg};

#[inline]
fn sext(value: u64, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((value << shift) as i64) >> shift
}

#[inline]
fn rd(w: u32) -> Reg {
    ((w >> 7) & 31) as Reg
}
#[inline]
fn rs1(w: u32) -> Reg {
    ((w >> 15) & 31) as Reg
}
#[inline]
fn rs2(w: u32) -> Reg {
    ((w >> 20) & 31) as Reg
}
#[inline]
fn funct3(w: u32) -> u32 {
    (w >> 12) & 7
}
#[inline]
fn funct7(w: u32) -> u32 {
    w >> 25
}

#[inline]
fn imm_i(w: u32) -> i64 {
    sext((w >> 20) as u64, 12)
}
#[inline]
fn imm_s(w: u32) -> i64 {
    sext((((w >> 25) << 5) | ((w >> 7) & 31)) as u64, 12)
}
#[inline]
fn imm_b(w: u32) -> i64 {
    let v = (((w >> 31) & 1) << 12)
        | (((w >> 7) & 1) << 11)
        | (((w >> 25) & 0x3f) << 5)
        | (((w >> 8) & 0xf) << 1);
    sext(v as u64, 13)
}
#[inline]
fn imm_u(w: u32) -> i64 {
    (w & 0xffff_f000) as i32 as i64
}
#[inline]
fn imm_j(w: u32) -> i64 {
    let v = (((w >> 31) & 1) << 20)
        | (((w >> 12) & 0xff) << 12)
        | (((w >> 20) & 1) << 11)
        | (((w >> 21) & 0x3ff) << 1);
    sext(v as u64, 21)
}

/// Length in bytes of the instruction starting with half-word `lo`.
#[inline]
pub(crate) fn instr_len(lo: u16) -> u8 {
    if lo & 0b11 == 0b11 {
        4
    } else {
        2
    }
}

fn mk(op: Op, rd_: Reg, rs1_: Reg, rs2_: Reg, imm: i64) -> Instr {
    Instr {
        op,
        rd: rd_,
        rs1: rs1_,
        rs2: rs2_,
        rs3: 0,
        imm,
        size: 4,
    }
}

fn gate(enabled: bool, instr: Instr) -> Instr {
    if enabled {
        instr
    } else {
        Instr::illegal(instr.size)
    }
}

/// Decode one full-width (32-bit) instruction word.
pub fn decode(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    let opcode = w & 0x7f;
    match opcode {
        0x37 => mk(Op::Lui, rd(w), 0, 0, imm_u(w)),
        0x17 => mk(Op::Auipc, rd(w), 0, 0, imm_u(w)),
        0x6f => mk(Op::Jal, rd(w), 0, 0, imm_j(w)),
        0x67 if funct3(w) == 0 => mk(Op::Jalr, rd(w), rs1(w), 0, imm_i(w)),
        0x63 => {
            let op = match funct3(w) {
                0 => Op::Beq,
                1 => Op::Bne,
                4 => Op::Blt,
                5 => Op::Bge,
                6 => Op::Bltu,
                7 => Op::Bgeu,
                _ => return ill,
            };
            mk(op, 0, rs1(w), rs2(w), imm_b(w))
        }
        0x03 => {
            let op = match funct3(w) {
                0 => Op::Lb,
                1 => Op::Lh,
                2 => Op::Lw,
                3 => Op::Ld,
                4 => Op::Lbu,
                5 => Op::Lhu,
                6 => Op::Lwu,
                _ => return ill,
            };
            mk(op, rd(w), rs1(w), 0, imm_i(w))
        }
        0x23 => {
            let op = match funct3(w) {
                0 => Op::Sb,
                1 => Op::Sh,
                2 => Op::Sw,
                3 => Op::Sd,
                _ => return ill,
            };
            mk(op, 0, rs1(w), rs2(w), imm_s(w))
        }
        0x13 => decode_op_imm(w, ext),
        0x1b => decode_op_imm32(w),
        0x33 => decode_op(w, ext),
        0x3b => decode_op32(w, ext),
        0x2f => decode_amo(w, ext),
        0x07 => decode_load_fp(w, ext),
        0x27 => decode_store_fp(w, ext),
        0x43 | 0x47 | 0x4b | 0x4f => decode_fma(w),
        0x53 => decode_op_fp(w),
        0x57 => decode_op_v(w, ext),
        0x0f => mk(Op::Fence, 0, 0, 0, 0),
        0x73 => match w >> 7 {
            0 => mk(Op::Ecall, 0, 0, 0, 0),
            0x2000 => mk(Op::Ebreak, 0, 0, 0, 0),
            _ => ill,
        },
        _ => ill,
    }
}

fn decode_op_imm(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    match funct3(w) {
        0 => mk(Op::Addi, rd(w), rs1(w), 0, imm_i(w)),
        2 => mk(Op::Slti, rd(w), rs1(w), 0, imm_i(w)),
        3 => mk(Op::Sltiu, rd(w), rs1(w), 0, imm_i(w)),
        4 => mk(Op::Xori, rd(w), rs1(w), 0, imm_i(w)),
        6 => mk(Op::Ori, rd(w), rs1(w), 0, imm_i(w)),
        7 => mk(Op::Andi, rd(w), rs1(w), 0, imm_i(w)),
        1 => {
            let hi = w >> 26; // funct6
            let shamt = ((w >> 20) & 63) as i64;
            match hi {
                0b000000 => mk(Op::Slli, rd(w), rs1(w), 0, shamt),
                0b011000 => {
                    // Zbb unary group: funct12 = 0110000_00nnn
                    let sel = (w >> 20) & 63;
                    let op = match sel {
                        0 => Op::Clz,
                        1 => Op::Ctz,
                        2 => Op::Cpop,
                        4 => Op::SextB,
                        5 => Op::SextH,
                        _ => return ill,
                    };
                    gate(ext.zbb, mk(op, rd(w), rs1(w), 0, 0))
                }
                _ => ill,
            }
        }
        5 => {
            let hi = w >> 26;
            let shamt = ((w >> 20) & 63) as i64;
            match hi {
                0b000000 => mk(Op::Srli, rd(w), rs1(w), 0, shamt),
                0b010000 => mk(Op::Srai, rd(w), rs1(w), 0, shamt),
                0b011000 => gate(ext.zbb, mk(Op::Rori, rd(w), rs1(w), 0, shamt)),
                _ => ill,
            }
        }
        _ => ill,
    }
}

fn decode_op_imm32(w: u32) -> Instr {
    let ill = Instr::illegal(4);
    match funct3(w) {
        0 => mk(Op::Addiw, rd(w), rs1(w), 0, imm_i(w)),
        1 if funct7(w) == 0 => mk(Op::Slliw, rd(w), rs1(w), 0, ((w >> 20) & 31) as i64),
        5 => match funct7(w) {
            0b0000000 => mk(Op::Srliw, rd(w), rs1(w), 0, ((w >> 20) & 31) as i64),
            0b0100000 => mk(Op::Sraiw, rd(w), rs1(w), 0, ((w >> 20) & 31) as i64),
            _ => ill,
        },
        _ => ill,
    }
}

fn decode_op(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    let r = |op: Op| mk(op, rd(w), rs1(w), rs2(w), 0);
    match (funct7(w), funct3(w)) {
        (0b0000000, 0) => r(Op::Add),
        (0b0000000, 1) => r(Op::Sll),
        (0b0000000, 2) => r(Op::Slt),
        (0b0000000, 3) => r(Op::Sltu),
        (0b0000000, 4) => r(Op::Xor),
        (0b0000000, 5) => r(Op::Srl),
        (0b0000000, 6) => r(Op::Or),
        (0b0000000, 7) => r(Op::And),
        (0b0100000, 0) => r(Op::Sub),
        (0b0100000, 5) => r(Op::Sra),
        (0b0100000, 4) => gate(ext.zbb, r(Op::Xnor)),
        (0b0100000, 6) => gate(ext.zbb, r(Op::Orn)),
        (0b0100000, 7) => gate(ext.zbb, r(Op::Andn)),
        (0b0000001, 0) => gate(ext.m, r(Op::Mul)),
        (0b0000001, 1) => gate(ext.m, r(Op::Mulh)),
        (0b0000001, 2) => gate(ext.m, r(Op::Mulhsu)),
        (0b0000001, 3) => gate(ext.m, r(Op::Mulhu)),
        (0b0000001, 4) => gate(ext.m, r(Op::Div)),
        (0b0000001, 5) => gate(ext.m, r(Op::Divu)),
        (0b0000001, 6) => gate(ext.m, r(Op::Rem)),
        (0b0000001, 7) => gate(ext.m, r(Op::Remu)),
        (0b0010000, 2) => gate(ext.zba, r(Op::Sh1add)),
        (0b0010000, 4) => gate(ext.zba, r(Op::Sh2add)),
        (0b0010000, 6) => gate(ext.zba, r(Op::Sh3add)),
        (0b0000101, 4) => gate(ext.zbb, r(Op::Min)),
        (0b0000101, 5) => gate(ext.zbb, r(Op::Minu)),
        (0b0000101, 6) => gate(ext.zbb, r(Op::Max)),
        (0b0000101, 7) => gate(ext.zbb, r(Op::Maxu)),
        (0b0110000, 1) => gate(ext.zbb, r(Op::Rol)),
        (0b0110000, 5) => gate(ext.zbb, r(Op::Ror)),
        _ => ill,
    }
}

fn decode_op32(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    let r = |op: Op| mk(op, rd(w), rs1(w), rs2(w), 0);
    match (funct7(w), funct3(w)) {
        (0b0000000, 0) => r(Op::Addw),
        (0b0000000, 1) => r(Op::Sllw),
        (0b0000000, 5) => r(Op::Srlw),
        (0b0100000, 0) => r(Op::Subw),
        (0b0100000, 5) => r(Op::Sraw),
        (0b0000001, 0) => gate(ext.m, r(Op::Mulw)),
        (0b0000001, 4) => gate(ext.m, r(Op::Divw)),
        (0b0000001, 5) => gate(ext.m, r(Op::Divuw)),
        (0b0000001, 6) => gate(ext.m, r(Op::Remw)),
        (0b0000001, 7) => gate(ext.m, r(Op::Remuw)),
        (0b0000100, 0) => gate(ext.zba, r(Op::AddUw)),
        _ => ill,
    }
}

fn decode_amo(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    let funct5 = w >> 27;
    let wide = match funct3(w) {
        2 => false,
        3 => true,
        _ => return ill,
    };
    let op = match (funct5, wide) {
        (0b00010, false) => Op::LrW,
        (0b00011, false) => Op::ScW,
        (0b00001, false) => Op::AmoSwapW,
        (0b00000, false) => Op::AmoAddW,
        (0b00010, true) => Op::LrD,
        (0b00011, true) => Op::ScD,
        (0b00001, true) => Op::AmoSwapD,
        (0b00000, true) => Op::AmoAddD,
        _ => return ill,
    };
    gate(ext.a, mk(op, rd(w), rs1(w), rs2(w), 0))
}

fn decode_load_fp(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    match funct3(w) {
        0b011 => mk(Op::Fld, rd(w), rs1(w), 0, imm_i(w)),
        0b111 => {
            // Vector load, EEW=64. mop = bits [27:26].
            let mop = (w >> 26) & 3;
            let v = match mop {
                0b00 => mk(Op::Vle64, rd(w), rs1(w), 0, 0),
                0b01 | 0b11 => mk(Op::Vluxei64, rd(w), rs1(w), rs2(w), 0),
                _ => return ill,
            };
            gate(ext.v, v)
        }
        _ => ill,
    }
}

fn decode_store_fp(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    match funct3(w) {
        0b011 => mk(Op::Fsd, 0, rs1(w), rs2(w), imm_s(w)),
        0b111 => {
            let mop = (w >> 26) & 3;
            match mop {
                // vs3 lives in the rd field for stores.
                0b00 => gate(ext.v, mk(Op::Vse64, rd(w), rs1(w), 0, 0)),
                _ => ill,
            }
        }
        _ => ill,
    }
}

fn decode_fma(w: u32) -> Instr {
    // fmt (bits 26:25) must be 01 = double.
    if (w >> 25) & 3 != 0b01 {
        return Instr::illegal(4);
    }
    let op = match w & 0x7f {
        0x43 => Op::FmaddD,
        0x47 => Op::FmsubD,
        0x4b => Op::FnmsubD,
        0x4f => Op::FnmaddD,
        _ => unreachable!(),
    };
    Instr {
        op,
        rd: rd(w),
        rs1: rs1(w),
        rs2: rs2(w),
        rs3: (w >> 27) as Reg,
        imm: 0,
        size: 4,
    }
}

fn decode_op_fp(w: u32) -> Instr {
    let ill = Instr::illegal(4);
    let r = |op: Op| mk(op, rd(w), rs1(w), rs2(w), 0);
    match funct7(w) {
        0b0000001 => r(Op::FaddD),
        0b0000101 => r(Op::FsubD),
        0b0001001 => r(Op::FmulD),
        0b0001101 => r(Op::FdivD),
        0b1111001 if rs2(w) == 0 && funct3(w) == 0 => mk(Op::FmvDX, rd(w), rs1(w), 0, 0),
        0b1110001 if rs2(w) == 0 && funct3(w) == 0 => mk(Op::FmvXD, rd(w), rs1(w), 0, 0),
        0b1101001 => match rs2(w) {
            0 => mk(Op::FcvtDW, rd(w), rs1(w), 0, 0),
            2 => mk(Op::FcvtDL, rd(w), rs1(w), 0, 0),
            _ => ill,
        },
        _ => ill,
    }
}

fn decode_op_v(w: u32, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(4);
    match funct3(w) {
        0b111 => {
            if w >> 31 != 0 {
                return ill; // vsetvl/vsetivli not in the subset
            }
            let zimm = ((w >> 20) & 0x7ff) as i64;
            gate(ext.v, mk(Op::Vsetvli, rd(w), rs1(w), 0, zimm))
        }
        0b101 => {
            // OPFVF: vd = rd field, frs1 = rs1 field, vs2 = rs2 field.
            let funct6 = w >> 26;
            let op = match funct6 {
                0b101100 => Op::VfmaccVf,
                0b100100 => Op::VfmulVf,
                _ => return ill,
            };
            gate(ext.v, mk(op, rd(w), rs1(w), rs2(w), 0))
        }
        0b001 => {
            let funct6 = w >> 26;
            match funct6 {
                0b000000 => gate(ext.v, mk(Op::VfaddVv, rd(w), rs1(w), rs2(w), 0)),
                _ => ill,
            }
        }
        _ => ill,
    }
}

// ---------------------------------------------------------------------------
// Compressed (C) decode: expand to base ops with size = 2.
// ---------------------------------------------------------------------------

#[inline]
fn creg(bits: u16) -> Reg {
    8 + (bits & 7) as Reg
}

fn mkc(op: Op, rd_: Reg, rs1_: Reg, rs2_: Reg, imm: i64) -> Instr {
    Instr {
        op,
        rd: rd_,
        rs1: rs1_,
        rs2: rs2_,
        rs3: 0,
        imm,
        size: 2,
    }
}

/// Decode one compressed (16-bit) instruction.
pub fn decode_compressed(h: u16, ext: &ExtSet) -> Instr {
    let ill = Instr::illegal(2);
    if !ext.c {
        return ill;
    }
    if h & 0b11 == 0b11 {
        return ill; // not a compressed encoding
    }
    let funct3 = (h >> 13) & 7;
    let quadrant = h & 3;
    match (quadrant, funct3) {
        (0b00, 0b000) => {
            // c.addi4spn: addi rd', x2, nzuimm
            let imm = ((((h >> 7) & 0xf) as i64) << 6)
                | ((((h >> 11) & 0x3) as i64) << 4)
                | ((((h >> 5) & 1) as i64) << 3)
                | ((((h >> 6) & 1) as i64) << 2);
            if imm == 0 {
                return ill;
            }
            mkc(Op::Addi, creg(h >> 2), 2, 0, imm)
        }
        (0b00, 0b001) => {
            // c.fld
            let imm = c_ld_imm(h);
            mkc(Op::Fld, creg(h >> 2), creg(h >> 7), 0, imm)
        }
        (0b00, 0b010) => {
            // c.lw
            let imm = c_lw_imm(h);
            mkc(Op::Lw, creg(h >> 2), creg(h >> 7), 0, imm)
        }
        (0b00, 0b011) => {
            // c.ld
            let imm = c_ld_imm(h);
            mkc(Op::Ld, creg(h >> 2), creg(h >> 7), 0, imm)
        }
        (0b00, 0b101) => {
            // c.fsd
            let imm = c_ld_imm(h);
            mkc(Op::Fsd, 0, creg(h >> 7), creg(h >> 2), imm)
        }
        (0b00, 0b110) => {
            // c.sw
            let imm = c_lw_imm(h);
            mkc(Op::Sw, 0, creg(h >> 7), creg(h >> 2), imm)
        }
        (0b00, 0b111) => {
            // c.sd
            let imm = c_ld_imm(h);
            mkc(Op::Sd, 0, creg(h >> 7), creg(h >> 2), imm)
        }
        (0b01, 0b000) => {
            // c.addi (c.nop when rd=0, imm=0)
            let r = ((h >> 7) & 31) as Reg;
            mkc(Op::Addi, r, r, 0, c_imm6(h))
        }
        (0b01, 0b001) => {
            // c.addiw (RV64); rd must be nonzero
            let r = ((h >> 7) & 31) as Reg;
            if r == 0 {
                return ill;
            }
            mkc(Op::Addiw, r, r, 0, c_imm6(h))
        }
        (0b01, 0b010) => {
            // c.li
            let r = ((h >> 7) & 31) as Reg;
            mkc(Op::Addi, r, 0, 0, c_imm6(h))
        }
        (0b01, 0b011) => {
            let r = ((h >> 7) & 31) as Reg;
            if r == 2 {
                // c.addi16sp
                let imm = ((((h >> 12) & 1) as i64) << 9)
                    | ((((h >> 3) & 3) as i64) << 7)
                    | ((((h >> 5) & 1) as i64) << 6)
                    | ((((h >> 2) & 1) as i64) << 5)
                    | ((((h >> 6) & 1) as i64) << 4);
                let imm = sext(imm as u64, 10);
                if imm == 0 {
                    return ill;
                }
                mkc(Op::Addi, 2, 2, 0, imm)
            } else {
                // c.lui
                let imm = sext((c_imm6(h) as u64) << 12, 18);
                if imm == 0 {
                    return ill;
                }
                mkc(Op::Lui, r, 0, 0, imm)
            }
        }
        (0b01, 0b100) => {
            let r = creg(h >> 7);
            match (h >> 10) & 3 {
                0b00 => mkc(Op::Srli, r, r, 0, c_shamt(h)),
                0b01 => mkc(Op::Srai, r, r, 0, c_shamt(h)),
                0b10 => mkc(Op::Andi, r, r, 0, c_imm6(h)),
                _ => {
                    let r2 = creg(h >> 2);
                    match ((h >> 12) & 1, (h >> 5) & 3) {
                        (0, 0b00) => mkc(Op::Sub, r, r, r2, 0),
                        (0, 0b01) => mkc(Op::Xor, r, r, r2, 0),
                        (0, 0b10) => mkc(Op::Or, r, r, r2, 0),
                        (0, 0b11) => mkc(Op::And, r, r, r2, 0),
                        (1, 0b00) => mkc(Op::Subw, r, r, r2, 0),
                        (1, 0b01) => mkc(Op::Addw, r, r, r2, 0),
                        _ => ill,
                    }
                }
            }
        }
        (0b01, 0b101) => {
            // c.j
            mkc(Op::Jal, 0, 0, 0, c_j_imm(h))
        }
        (0b01, 0b110) => mkc(Op::Beq, 0, creg(h >> 7), 0, c_b_imm(h)),
        (0b01, 0b111) => mkc(Op::Bne, 0, creg(h >> 7), 0, c_b_imm(h)),
        (0b10, 0b000) => {
            let r = ((h >> 7) & 31) as Reg;
            mkc(Op::Slli, r, r, 0, c_shamt(h))
        }
        (0b10, 0b001) => {
            // c.fldsp
            let r = ((h >> 7) & 31) as Reg;
            mkc(Op::Fld, r, 2, 0, c_ldsp_imm(h))
        }
        (0b10, 0b010) => {
            // c.lwsp
            let r = ((h >> 7) & 31) as Reg;
            if r == 0 {
                return ill;
            }
            mkc(Op::Lw, r, 2, 0, c_lwsp_imm(h))
        }
        (0b10, 0b011) => {
            // c.ldsp
            let r = ((h >> 7) & 31) as Reg;
            if r == 0 {
                return ill;
            }
            mkc(Op::Ld, r, 2, 0, c_ldsp_imm(h))
        }
        (0b10, 0b100) => {
            let r1 = ((h >> 7) & 31) as Reg;
            let r2 = ((h >> 2) & 31) as Reg;
            match ((h >> 12) & 1, r1, r2) {
                (0, 0, _) => ill,
                (0, _, 0) => mkc(Op::Jalr, 0, r1, 0, 0), // c.jr
                (0, _, _) => mkc(Op::Add, r1, 0, r2, 0), // c.mv
                (1, 0, 0) => mkc(Op::Ebreak, 0, 0, 0, 0),
                (1, _, 0) => mkc(Op::Jalr, 1, r1, 0, 0), // c.jalr
                (_, _, _) => mkc(Op::Add, r1, r1, r2, 0),
            }
        }
        (0b10, 0b101) => {
            // c.fsdsp
            mkc(Op::Fsd, 0, 2, ((h >> 2) & 31) as Reg, c_sdsp_imm(h))
        }
        (0b10, 0b110) => {
            // c.swsp
            mkc(Op::Sw, 0, 2, ((h >> 2) & 31) as Reg, c_swsp_imm(h))
        }
        (0b10, 0b111) => {
            // c.sdsp
            mkc(Op::Sd, 0, 2, ((h >> 2) & 31) as Reg, c_sdsp_imm(h))
        }
        _ => ill,
    }
}

#[inline]
fn c_imm6(h: u16) -> i64 {
    sext((((h >> 12) & 1) as u64) << 5 | ((h >> 2) & 31) as u64, 6)
}

#[inline]
fn c_shamt(h: u16) -> i64 {
    ((((h >> 12) & 1) as i64) << 5) | ((h >> 2) & 31) as i64
}

#[inline]
fn c_lw_imm(h: u16) -> i64 {
    (((h >> 5) & 1) as i64) << 6 | (((h >> 10) & 7) as i64) << 3 | (((h >> 6) & 1) as i64) << 2
}

#[inline]
fn c_ld_imm(h: u16) -> i64 {
    (((h >> 5) & 3) as i64) << 6 | (((h >> 10) & 7) as i64) << 3
}

#[inline]
fn c_lwsp_imm(h: u16) -> i64 {
    (((h >> 2) & 3) as i64) << 6 | (((h >> 12) & 1) as i64) << 5 | (((h >> 4) & 7) as i64) << 2
}

#[inline]
fn c_ldsp_imm(h: u16) -> i64 {
    (((h >> 2) & 7) as i64) << 6 | (((h >> 12) & 1) as i64) << 5 | (((h >> 5) & 3) as i64) << 3
}

#[inline]
fn c_swsp_imm(h: u16) -> i64 {
    (((h >> 7) & 3) as i64) << 6 | (((h >> 9) & 15) as i64) << 2
}

#[inline]
fn c_sdsp_imm(h: u16) -> i64 {
    (((h >> 7) & 7) as i64) << 6 | (((h >> 10) & 7) as i64) << 3
}

#[inline]
fn c_b_imm(h: u16) -> i64 {
    let v = ((((h >> 12) & 1) as u64) << 8)
        | ((((h >> 5) & 3) as u64) << 6)
        | ((((h >> 2) & 1) as u64) << 5)
        | ((((h >> 10) & 3) as u64) << 3)
        | ((((h >> 3) & 3) as u64) << 1);
    sext(v, 9)
}

#[inline]
fn c_j_imm(h: u16) -> i64 {
    let v = ((((h >> 12) & 1) as u64) << 11)
        | ((((h >> 8) & 1) as u64) << 10)
        | ((((h >> 9) & 3) as u64) << 8)
        | ((((h >> 6) & 1) as u64) << 7)
        | ((((h >> 7) & 1) as u64) << 6)
        | ((((h >> 2) & 1) as u64) << 5)
        | ((((h >> 11) & 1) as u64) << 4)
        | ((((h >> 3) & 7) as u64) << 1);
    sext(v, 12)
}

// ---------------------------------------------------------------------------
// Program decode
// ---------------------------------------------------------------------------

/// A decoded instruction stream: (pc, instruction) pairs starting at `base`.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub base: u64,
    pub instrs: Vec<(u64, Instr)>,
}

impl DecodedProgram {
    /// Total byte length of the encoded stream.
    pub(crate) fn byte_len(&self) -> usize {
        self.instrs.iter().map(|(_, i)| i.size as usize).sum()
    }

    /// Count of compressed (2-byte) instructions.
    pub fn compressed_count(&self) -> usize {
        self.instrs.iter().filter(|(_, i)| i.size == 2).count()
    }
}

/// Decode a raw byte stream into a program. Trailing odd bytes and truncated
/// final instructions are ignored; unknown encodings become `Illegal`.
pub fn decode_program(bytes: &[u8], base: u64, ext: &ExtSet) -> DecodedProgram {
    let mut instrs = Vec::new();
    let mut off = 0usize;
    while off + 2 <= bytes.len() {
        let lo = u16::from_le_bytes([bytes[off], bytes[off + 1]]);
        if instr_len(lo) == 4 {
            if off + 4 > bytes.len() {
                break;
            }
            let w =
                u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
            instrs.push((base + off as u64, decode(w, ext)));
            off += 4;
        } else {
            instrs.push((base + off as u64, decode_compressed(lo, ext)));
            off += 2;
        }
    }
    DecodedProgram { base, instrs }
}
