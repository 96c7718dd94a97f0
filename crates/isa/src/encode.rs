//! Instruction encoders and a tiny two-pass assembler used to build the
//! synthetic kernels as real RV64 machine code, so the decoder and
//! interpreter are exercised end-to-end. Encoders are public so golden
//! round-trip tests can assert encode → decode fidelity per format.

use crate::ir::Reg;
use std::collections::HashMap;

// --- raw format encoders ---------------------------------------------------

pub fn enc_r(opcode: u32, funct3: u32, funct7: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    opcode
        | ((rd as u32) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (funct7 << 25)
}

pub fn enc_r4(opcode: u32, funct3: u32, fmt: u32, rd: Reg, rs1: Reg, rs2: Reg, rs3: Reg) -> u32 {
    opcode
        | ((rd as u32) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (fmt << 25)
        | ((rs3 as u32) << 27)
}

pub fn enc_i(opcode: u32, funct3: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
    opcode
        | ((rd as u32) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | (((imm as u32) & 0xfff) << 20)
}

pub fn enc_s(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | ((imm & 0x1f) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (((imm >> 5) & 0x7f) << 25)
}

pub fn enc_b(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (((imm >> 5) & 0x3f) << 25)
        | (((imm >> 12) & 1) << 31)
}

pub fn enc_u(opcode: u32, rd: Reg, imm: i32) -> u32 {
    opcode | ((rd as u32) << 7) | ((imm as u32) & 0xffff_f000)
}

pub fn enc_j(opcode: u32, rd: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | ((rd as u32) << 7)
        | (((imm >> 12) & 0xff) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 20) & 1) << 31)
}

/// c.addi rd, imm6 (quadrant 1, funct3 000).
pub fn enc_c_addi(rd: Reg, imm: i32) -> u16 {
    let imm = imm as u32;
    0b01 | (((imm & 0x1f) as u16) << 2) | ((rd as u16) << 7) | ((((imm >> 5) & 1) as u16) << 12)
}

/// c.mv rd, rs2 (quadrant 2, funct4 1000).
pub fn enc_c_mv(rd: Reg, rs2: Reg) -> u16 {
    0b10 | ((rs2 as u16) << 2) | ((rd as u16) << 7) | (0b100 << 13)
}

/// c.bnez rs1', imm9 (quadrant 1, funct3 111). `rs1` must be x8..x15.
pub fn enc_c_bnez(rs1: Reg, imm: i32) -> u16 {
    debug_assert!((8..16).contains(&rs1));
    let imm = imm as u32;
    0b01 | ((((imm >> 5) & 1) as u16) << 2)
        | ((((imm >> 1) & 3) as u16) << 3)
        | ((((imm >> 6) & 3) as u16) << 5)
        | (((rs1 - 8) as u16) << 7)
        | ((((imm >> 3) & 3) as u16) << 10)
        | ((((imm >> 8) & 1) as u16) << 12)
        | (0b111 << 13)
}

// --- assembler -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Label(usize);

/// A 32-bit B-type branch at `pos` whose opcode/funct3/rs1/rs2 are
/// pre-encoded and whose immediate `finish` patches.
#[derive(Debug, Clone, Copy)]
struct Fixup {
    pos: usize,
    label: Label,
}

/// Two-pass assembler: emit instructions with possibly-unresolved labels,
/// then `finish()` patches branch/jump offsets.
#[derive(Default)]
pub struct Asm {
    bytes: Vec<u8>,
    bound: HashMap<usize, usize>,
    next_label: usize,
    fixups: Vec<Fixup>,
}

// Register aliases for kernel code readability.
pub(crate) const ZERO: Reg = 0;
pub(crate) const A0: Reg = 10;
pub(crate) const A1: Reg = 11;
pub(crate) const A2: Reg = 12;
pub(crate) const A3: Reg = 13;
pub(crate) const A4: Reg = 14;
pub(crate) const T0: Reg = 5;
pub(crate) const T1: Reg = 6;
pub(crate) const T2: Reg = 7;
pub(crate) const T3: Reg = 28;
pub(crate) const T4: Reg = 29;
pub(crate) const T5: Reg = 30;
pub(crate) const T6: Reg = 31;
pub(crate) const S2: Reg = 18;

impl Asm {
    pub fn new() -> Self {
        Asm::default()
    }

    /// Declare a label (possibly bound later).
    pub(crate) fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Bind a label to the current position.
    pub(crate) fn bind(&mut self, l: Label) {
        self.bound.insert(l.0, self.bytes.len());
    }

    /// Declare and bind a label at the current position.
    pub(crate) fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    pub fn word(&mut self, w: u32) {
        self.bytes.extend_from_slice(&w.to_le_bytes());
    }

    pub fn half(&mut self, h: u16) {
        self.bytes.extend_from_slice(&h.to_le_bytes());
    }

    // -- RV64I --
    pub(crate) fn lui(&mut self, rd: Reg, imm: i32) {
        self.word(enc_u(0x37, rd, imm));
    }
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.word(enc_i(0x13, 0, rd, rs1, imm));
    }
    pub(crate) fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 0, 0, rd, rs1, rs2));
    }
    pub(crate) fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 0, 0b0100000, rd, rs1, rs2));
    }
    pub(crate) fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 7, 0, rd, rs1, rs2));
    }
    pub(crate) fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 4, 0, rd, rs1, rs2));
    }
    pub(crate) fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 3, 0, rd, rs1, rs2));
    }
    pub(crate) fn slli(&mut self, rd: Reg, rs1: Reg, shamt: u8) {
        self.word(enc_i(0x13, 1, rd, rs1, shamt as i32));
    }
    pub(crate) fn srli(&mut self, rd: Reg, rs1: Reg, shamt: u8) {
        self.word(enc_i(0x13, 5, rd, rs1, shamt as i32));
    }
    pub fn ld(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.word(enc_i(0x03, 3, rd, rs1, imm));
    }
    pub(crate) fn lw(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.word(enc_i(0x03, 2, rd, rs1, imm));
    }
    pub(crate) fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 0, 1, rd, rs1, rs2));
    }
    pub fn ebreak(&mut self) {
        self.word(0x0010_0073);
    }

    /// Load a 32-bit constant via lui+addi (handles the sign carry).
    pub(crate) fn li32(&mut self, rd: Reg, value: i32) {
        let lo = (value << 20) >> 20; // low 12 bits, sign-extended
        let hi = value.wrapping_sub(lo);
        if hi != 0 {
            self.lui(rd, hi);
            if lo != 0 {
                self.addi(rd, rd, lo);
            }
        } else {
            self.addi(rd, ZERO, lo);
        }
    }

    // -- Zba/Zbb --
    pub(crate) fn sh2add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 4, 0b0010000, rd, rs1, rs2));
    }
    pub fn sh3add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 6, 0b0010000, rd, rs1, rs2));
    }
    pub(crate) fn maxu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x33, 7, 0b0000101, rd, rs1, rs2));
    }

    // -- F/D --
    pub(crate) fn fld(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.word(enc_i(0x07, 3, rd, rs1, imm));
    }
    pub(crate) fn fsd(&mut self, rs2: Reg, rs1: Reg, imm: i32) {
        self.word(enc_s(0x27, 3, rs1, rs2, imm));
    }
    pub(crate) fn fmadd_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg, rs3: Reg) {
        // rm = 111 (dynamic)
        self.word(enc_r4(0x43, 0b111, 0b01, rd, rs1, rs2, rs3));
    }
    pub(crate) fn fadd_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x53, 0b111, 0b0000001, rd, rs1, rs2));
    }
    pub(crate) fn fsub_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x53, 0b111, 0b0000101, rd, rs1, rs2));
    }
    pub(crate) fn fmul_d(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.word(enc_r(0x53, 0b111, 0b0001001, rd, rs1, rs2));
    }
    pub(crate) fn fmv_x_d(&mut self, rd: Reg, rs1: Reg) {
        self.word(enc_r(0x53, 0, 0b1110001, rd, rs1, 0));
    }
    pub(crate) fn fcvt_d_l(&mut self, rd: Reg, rs1: Reg) {
        self.word(enc_r(0x53, 0b111, 0b1101001, rd, rs1, 2));
    }

    // -- minimal RVV --
    /// vsetvli rd, rs1, e64,m1 (vtype zimm = 0b011 << 3).
    pub fn vsetvli_e64m1(&mut self, rd: Reg, rs1: Reg) {
        self.word(enc_i(0x57, 0b111, rd, rs1, 0b011 << 3));
    }
    pub fn vle64(&mut self, vd: Reg, rs1: Reg) {
        // mop=00, vm=1, lumop=00000, width=111
        self.word(enc_i(0x07, 0b111, vd, rs1, 0b0000_0010_0000));
    }
    pub fn vse64(&mut self, vs3: Reg, rs1: Reg) {
        self.word(enc_i(0x27, 0b111, vs3, rs1, 0b0000_0010_0000));
    }
    pub fn vluxei64(&mut self, vd: Reg, rs1: Reg, vs2: Reg) {
        // mop=01 (indexed-unordered), vm=1, width=111
        let w = enc_i(0x07, 0b111, vd, rs1, 0) | (1 << 25) | (1 << 26) | ((vs2 as u32) << 20);
        self.word(w);
    }
    pub fn vfmacc_vf(&mut self, vd: Reg, frs1: Reg, vs2: Reg) {
        // OPFVF funct6=101100, vm=1
        let w = 0x57
            | ((vd as u32) << 7)
            | (0b101 << 12)
            | ((frs1 as u32) << 15)
            | ((vs2 as u32) << 20)
            | (1 << 25)
            | (0b101100 << 26);
        self.word(w);
    }
    pub fn vfadd_vv(&mut self, vd: Reg, vs1: Reg, vs2: Reg) {
        let w = 0x57
            | ((vd as u32) << 7)
            | (0b001 << 12)
            | ((vs1 as u32) << 15)
            | ((vs2 as u32) << 20)
            | (1 << 25);
        self.word(w);
    }

    // -- compressed --
    pub(crate) fn c_addi(&mut self, rd: Reg, imm: i32) {
        self.half(enc_c_addi(rd, imm));
    }

    // -- control flow with labels --
    fn branch(&mut self, funct3: u32, rs1: Reg, rs2: Reg, target: Label) {
        self.fixups.push(Fixup {
            pos: self.bytes.len(),
            label: target,
        });
        self.word(enc_b(0x63, funct3, rs1, rs2, 0));
    }
    pub(crate) fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(0, rs1, rs2, target);
    }
    pub(crate) fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(1, rs1, rs2, target);
    }
    pub(crate) fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(4, rs1, rs2, target);
    }
    pub(crate) fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(5, rs1, rs2, target);
    }

    /// Resolve all fixups and return the machine code.
    pub fn finish(mut self) -> Vec<u8> {
        for fix in &self.fixups {
            let target = *self
                .bound
                .get(&fix.label.0)
                .unwrap_or_else(|| panic!("unbound label {:?}", fix.label));
            let offset = target as i64 - fix.pos as i64;
            assert!(
                (-4096..4096).contains(&offset),
                "branch offset out of range"
            );
            let old = u32::from_le_bytes(self.bytes[fix.pos..fix.pos + 4].try_into().unwrap());
            let keep = old & 0x01ff_f07f; // opcode|funct3|rs1|rs2 (imm bits cleared)
            let imm_bits = enc_b(0, 0, 0, 0, offset as i32);
            self.bytes[fix.pos..fix.pos + 4].copy_from_slice(&(keep | imm_bits).to_le_bytes());
        }
        self.bytes
    }
}
