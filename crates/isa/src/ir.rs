//! Typed mini-IR for the instruction-level backend.
//!
//! One flat [`Op`] enum covers the RV64IMAC+Zba/Zbb subset plus the minimal
//! RVV slice used by the synthetic kernels. Compressed instructions are
//! expanded to their base op at decode time; `size` records the encoded
//! width so the interpreter advances the pc correctly and traces can
//! distinguish compressed from full-width fetches.

/// Architectural register index (x0..x31, f0..f31 or v0..v31 by context).
pub(crate) type Reg = u8;

/// Operation kind. Unknown or disabled encodings decode to [`Op::Illegal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    // RV64I
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
    Sb,
    Sh,
    Sw,
    Sd,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    Fence,
    Ecall,
    Ebreak,
    // M
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
    // A (subset: lr/sc + swap/add, single-thread semantics)
    LrW,
    ScW,
    AmoSwapW,
    AmoAddW,
    LrD,
    ScD,
    AmoSwapD,
    AmoAddD,
    // F/D subset used by the kernels
    Fld,
    Fsd,
    FaddD,
    FsubD,
    FmulD,
    FdivD,
    FmaddD,
    FmsubD,
    FnmsubD,
    FnmaddD,
    FmvDX,
    FmvXD,
    FcvtDW,
    FcvtDL,
    // Zba
    Sh1add,
    Sh2add,
    Sh3add,
    AddUw,
    // Zbb
    Min,
    Minu,
    Max,
    Maxu,
    Andn,
    Orn,
    Xnor,
    Rol,
    Ror,
    Rori,
    Clz,
    Ctz,
    Cpop,
    SextB,
    SextH,
    // Minimal RVV (SEW=64 only)
    Vsetvli,
    Vle64,
    Vse64,
    Vluxei64,
    VfmaccVf,
    VfmulVf,
    VfaddVv,
    /// Unknown, malformed, or extension-gated encoding.
    Illegal,
}

impl Op {
    /// True for conditional branches (the only ops that feed the branch
    /// predictor model; jal/jalr are unconditional).
    pub fn is_cond_branch(self) -> bool {
        matches!(
            self,
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu
        )
    }

    /// True for ops that terminate a basic block.
    pub(crate) fn ends_block(self) -> bool {
        self.is_cond_branch() || matches!(self, Op::Jal | Op::Jalr | Op::Ebreak | Op::Ecall)
    }
}

/// One decoded instruction. Fields are reused by role: for vector ops `rd`
/// holds vd, `rs2` holds vs2 and `rs1` the scalar/base register; for R4
/// (fused multiply-add) `rs3` is live; otherwise unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    pub op: Op,
    pub rd: Reg,
    pub rs1: Reg,
    pub rs2: Reg,
    pub rs3: Reg,
    pub imm: i64,
    /// Encoded width in bytes: 2 (compressed) or 4.
    pub size: u8,
}

impl Instr {
    pub(crate) fn illegal(size: u8) -> Self {
        Instr {
            op: Op::Illegal,
            rd: 0,
            rs1: 0,
            rs2: 0,
            rs3: 0,
            imm: 0,
            size,
        }
    }
}

/// Extension gate used by the decoder: encodings belonging to a disabled
/// extension decode to [`Op::Illegal`] instead of their op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtSet {
    pub m: bool,
    pub a: bool,
    pub c: bool,
    pub zba: bool,
    pub zbb: bool,
    pub v: bool,
}

impl ExtSet {
    /// RV64IMAC + Zba + Zbb + minimal V: everything the backend implements.
    pub fn full() -> Self {
        ExtSet {
            m: true,
            a: true,
            c: true,
            zba: true,
            zbb: true,
            v: true,
        }
    }

    /// Base RV64IMAC without any of the ablatable extensions.
    pub fn rv64imac() -> Self {
        ExtSet {
            m: true,
            a: true,
            c: true,
            zba: false,
            zbb: false,
            v: false,
        }
    }
}

impl Default for ExtSet {
    fn default() -> Self {
        ExtSet::full()
    }
}
