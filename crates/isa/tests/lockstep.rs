//! Lock-step oracle: the pre-decoded execute loop against the fetch-by-pc
//! reference it replaced. Every instantiation of the new loop (`run` with a
//! consuming tracer, `run` with `NullTracer`, `execute` with the tracer's
//! type known) must leave the registers, memory, `ExecStats` or `Trap`, pc
//! and the ordered tracer event stream exactly as `run_reference` does —
//! over random programs built with the crate's own encoders (which also
//! makes this the encode → decode → execute round trip: every encoding is
//! checked to decode to the op it was built as), over the four kernels,
//! over each way a run can end other than `ebreak`, and on each edge of
//! the straight-line runs the new loop moves by.

use proptest::prelude::*;
use rvhpc_isa::encode::{
    enc_b, enc_c_addi, enc_c_bnez, enc_c_mv, enc_i, enc_j, enc_r, enc_r4, enc_s, enc_u, Asm,
};
use rvhpc_isa::kernels::MAX_STEPS;
use rvhpc_isa::{
    build, decode, decode_compressed, decode_program, execute, run, run_reference, Cpu,
    DecodedProgram, ExecStats, ExtSet, Instr, KernelId, Memory, NullTracer, Op, Tracer, Trap,
};

const TEXT: u64 = 0x1000;
const DATA: u64 = 0x10_0000;
const DATA_BYTES: usize = 4096;

#[derive(Debug, Clone, PartialEq)]
enum Event {
    Retire(u64, Instr),
    Mem(u64, u8, bool),
    Branch(u64, bool),
    Vector(u32, bool),
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl Tracer for Recorder {
    fn retire(&mut self, pc: u64, instr: &Instr) {
        self.0.push(Event::Retire(pc, *instr));
    }
    fn mem(&mut self, addr: u64, bytes: u8, is_store: bool) {
        self.0.push(Event::Mem(addr, bytes, is_store));
    }
    fn branch(&mut self, pc: u64, taken: bool) {
        self.0.push(Event::Branch(pc, taken));
    }
    fn vector(&mut self, elems: u32, gather: bool) {
        self.0.push(Event::Vector(elems, gather));
    }
}

/// Everything a run leaves behind, floats by their bits (NaN must match
/// NaN).
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<ExecStats, Trap>,
    x: [u64; 32],
    f: Vec<u64>,
    v: Vec<Vec<u64>>,
    vl: u64,
    pc: u64,
    mem: Memory,
}

fn outcome(mut cpu: Cpu, go: impl FnOnce(&mut Cpu) -> Result<ExecStats, Trap>) -> Outcome {
    let result = go(&mut cpu);
    Outcome {
        result,
        x: cpu.x,
        f: cpu.f.iter().map(|f| f.to_bits()).collect(),
        v: cpu
            .v
            .iter()
            .map(|lanes| lanes.iter().map(|l| l.to_bits()).collect())
            .collect(),
        vl: cpu.vl,
        pc: cpu.pc,
        mem: cpu.mem,
    }
}

/// Run `prog` from `cpu` through the reference and through all three
/// instantiations of the new loop; panic unless they agree. Returns how
/// the run ended and where.
fn lockstep(prog: &DecodedProgram, cpu: &Cpu, max_steps: u64) -> (Result<ExecStats, Trap>, u64) {
    let mut want_events = Recorder::default();
    let want = outcome(cpu.clone(), |c| {
        run_reference(c, prog, &mut want_events, max_steps)
    });

    let mut events = Recorder::default();
    let via_dyn = outcome(cpu.clone(), |c| run(c, prog, &mut events, max_steps));
    assert_eq!(via_dyn, want, "run(&mut dyn Tracer)");
    assert!(events.0 == want_events.0, "run(&mut dyn Tracer): events");

    let mut events = Recorder::default();
    let typed = outcome(cpu.clone(), |c| execute(c, prog, &mut events, max_steps));
    assert_eq!(typed, want, "execute::<Recorder>");
    assert!(events.0 == want_events.0, "execute::<Recorder>: events");

    let hookless = outcome(cpu.clone(), |c| run(c, prog, &mut NullTracer, max_steps));
    assert_eq!(hookless, want, "run(NullTracer)");

    (want.result, want.pc)
}

// --- random programs -------------------------------------------------------

/// x8..x11 and x2 hold pointers into the middle of the data segment; the
/// generator never picks them as a destination, so most accesses through
/// them land in bounds.
const POINTERS: [u8; 5] = [2, 8, 9, 10, 11];

/// A register that is not x0 and not a pointer.
fn scratch_reg(bits: u64) -> u8 {
    const SCRATCH: [u8; 26] = [
        1, 3, 4, 5, 6, 7, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
        30, 31,
    ];
    SCRATCH[(bits % 26) as usize]
}

const R_OPS: [(u32, u32, u32, Op); 51] = [
    (0x33, 0, 0b0000000, Op::Add),
    (0x33, 1, 0b0000000, Op::Sll),
    (0x33, 2, 0b0000000, Op::Slt),
    (0x33, 3, 0b0000000, Op::Sltu),
    (0x33, 4, 0b0000000, Op::Xor),
    (0x33, 5, 0b0000000, Op::Srl),
    (0x33, 6, 0b0000000, Op::Or),
    (0x33, 7, 0b0000000, Op::And),
    (0x33, 0, 0b0100000, Op::Sub),
    (0x33, 5, 0b0100000, Op::Sra),
    (0x33, 4, 0b0100000, Op::Xnor),
    (0x33, 6, 0b0100000, Op::Orn),
    (0x33, 7, 0b0100000, Op::Andn),
    (0x33, 0, 0b0000001, Op::Mul),
    (0x33, 1, 0b0000001, Op::Mulh),
    (0x33, 2, 0b0000001, Op::Mulhsu),
    (0x33, 3, 0b0000001, Op::Mulhu),
    (0x33, 4, 0b0000001, Op::Div),
    (0x33, 5, 0b0000001, Op::Divu),
    (0x33, 6, 0b0000001, Op::Rem),
    (0x33, 7, 0b0000001, Op::Remu),
    (0x33, 2, 0b0010000, Op::Sh1add),
    (0x33, 4, 0b0010000, Op::Sh2add),
    (0x33, 6, 0b0010000, Op::Sh3add),
    (0x33, 4, 0b0000101, Op::Min),
    (0x33, 5, 0b0000101, Op::Minu),
    (0x33, 6, 0b0000101, Op::Max),
    (0x33, 7, 0b0000101, Op::Maxu),
    (0x33, 1, 0b0110000, Op::Rol),
    (0x33, 5, 0b0110000, Op::Ror),
    (0x3b, 0, 0b0000000, Op::Addw),
    (0x3b, 1, 0b0000000, Op::Sllw),
    (0x3b, 5, 0b0000000, Op::Srlw),
    (0x3b, 0, 0b0100000, Op::Subw),
    (0x3b, 5, 0b0100000, Op::Sraw),
    (0x3b, 0, 0b0000001, Op::Mulw),
    (0x3b, 4, 0b0000001, Op::Divw),
    (0x3b, 5, 0b0000001, Op::Divuw),
    (0x3b, 6, 0b0000001, Op::Remw),
    (0x3b, 7, 0b0000001, Op::Remuw),
    (0x3b, 0, 0b0000100, Op::AddUw),
    (0x53, 7, 0b0000001, Op::FaddD),
    (0x53, 7, 0b0000101, Op::FsubD),
    (0x53, 7, 0b0001001, Op::FmulD),
    (0x53, 7, 0b0001101, Op::FdivD),
    // OPFVF / OPFVV with vm = 1 in funct7's low bit.
    (0x57, 0b101, 0b1011001, Op::VfmaccVf),
    (0x57, 0b101, 0b1001001, Op::VfmulVf),
    (0x57, 0b001, 0b0000001, Op::VfaddVv),
    (0x53, 0, 0b1111001, Op::FmvDX),
    (0x53, 0, 0b1110001, Op::FmvXD),
    (0x53, 7, 0b1101001, Op::FcvtDW),
];

/// (opcode, funct3, high immediate bits, immediate mask, op): `addi`-likes
/// take a free 12-bit immediate, shifts a shamt under a fixed funct6/7,
/// the Zbb unaries a fixed funct12.
const I_OPS: [(u32, u32, i32, i32, Op); 19] = [
    (0x13, 0, 0, 0xfff, Op::Addi),
    (0x13, 2, 0, 0xfff, Op::Slti),
    (0x13, 3, 0, 0xfff, Op::Sltiu),
    (0x13, 4, 0, 0xfff, Op::Xori),
    (0x13, 6, 0, 0xfff, Op::Ori),
    (0x13, 7, 0, 0xfff, Op::Andi),
    (0x1b, 0, 0, 0xfff, Op::Addiw),
    (0x13, 1, 0x000, 63, Op::Slli),
    (0x13, 5, 0x000, 63, Op::Srli),
    (0x13, 5, 0x400, 63, Op::Srai),
    (0x13, 5, 0x600, 63, Op::Rori),
    (0x1b, 1, 0x000, 31, Op::Slliw),
    (0x1b, 5, 0x000, 31, Op::Srliw),
    (0x1b, 5, 0x400, 31, Op::Sraiw),
    (0x13, 1, 0x600, 0, Op::Clz),
    (0x13, 1, 0x601, 0, Op::Ctz),
    (0x13, 1, 0x602, 0, Op::Cpop),
    (0x13, 1, 0x604, 0, Op::SextB),
    (0x13, 1, 0x605, 0, Op::SextH),
];

const LOADS: [(u32, u32, Op); 8] = [
    (0x03, 0, Op::Lb),
    (0x03, 1, Op::Lh),
    (0x03, 2, Op::Lw),
    (0x03, 3, Op::Ld),
    (0x03, 4, Op::Lbu),
    (0x03, 5, Op::Lhu),
    (0x03, 6, Op::Lwu),
    (0x07, 3, Op::Fld),
];

const STORES: [(u32, u32, Op); 5] = [
    (0x23, 0, Op::Sb),
    (0x23, 1, Op::Sh),
    (0x23, 2, Op::Sw),
    (0x23, 3, Op::Sd),
    (0x27, 3, Op::Fsd),
];

const AMOS: [(u32, u32, Op); 8] = [
    (2, 0b00010, Op::LrW),
    (2, 0b00011, Op::ScW),
    (2, 0b00001, Op::AmoSwapW),
    (2, 0b00000, Op::AmoAddW),
    (3, 0b00010, Op::LrD),
    (3, 0b00011, Op::ScD),
    (3, 0b00001, Op::AmoSwapD),
    (3, 0b00000, Op::AmoAddD),
];

const FMAS: [(u32, Op); 4] = [
    (0x43, Op::FmaddD),
    (0x47, Op::FmsubD),
    (0x4b, Op::FnmsubD),
    (0x4f, Op::FnmaddD),
];

const BRANCHES: [(u32, Op); 6] = [
    (0, Op::Beq),
    (1, Op::Bne),
    (4, Op::Blt),
    (5, Op::Bge),
    (6, Op::Bltu),
    (7, Op::Bgeu),
];

/// What one random word becomes. Control flow names its target as an
/// index into the program (resolved once every size is known) or as a raw
/// byte offset that is deliberately not an instruction.
enum Gen {
    Word(u32, Op),
    Half(u16),
    Branch {
        funct3: u32,
        rs1: u8,
        rs2: u8,
        to: Target,
    },
    Jal {
        rd: u8,
        to: Target,
    },
    /// `auipc x5, 0; jalr rd, x5, offset`.
    Jalr {
        rd: u8,
        to: Target,
    },
    CBnez {
        rs1: u8,
        to: usize,
    },
}

enum Target {
    Index(usize),
    Offset(i32),
}

impl Gen {
    fn size(&self) -> usize {
        match self {
            Gen::Half(_) | Gen::CBnez { .. } => 2,
            Gen::Jalr { .. } => 8,
            _ => 4,
        }
    }
}

/// The base register of a memory access: a pointer, or now and then
/// anything at all (and then most likely out of bounds).
fn base_reg(bits: u64) -> u8 {
    if bits.is_multiple_of(16) {
        (bits >> 4) as u8 % 32
    } else {
        POINTERS[(bits >> 4) as usize % POINTERS.len()]
    }
}

fn target(bits: u64, len: usize) -> Target {
    match bits % 16 {
        // Into the middle of an instruction, or far outside the program.
        0 => Target::Offset(2),
        1 => Target::Offset(((bits >> 4) % 4096) as i32 * 2 - 4096),
        // Any instruction, or one past the last (falling off the end).
        _ => Target::Index((bits >> 4) as usize % (len + 1)),
    }
}

fn generate(w: u64, len: usize) -> Gen {
    let (a, b, c, d) = (w >> 8, w >> 16, w >> 24, w >> 32);
    let reg = |bits: u64| (bits % 32) as u8;
    match w % 64 {
        0..=15 => {
            let (opcode, funct3, funct7, op) = R_OPS[a as usize % R_OPS.len()];
            let rs2 = match op {
                Op::FmvDX | Op::FmvXD | Op::FcvtDW => 0,
                _ => reg(d),
            };
            let word = enc_r(opcode, funct3, funct7, scratch_reg(b), reg(c), rs2);
            Gen::Word(word, op)
        }
        16..=23 => {
            let (opcode, funct3, high, mask, op) = I_OPS[a as usize % I_OPS.len()];
            let imm = high | (d as i32 & mask);
            Gen::Word(enc_i(opcode, funct3, scratch_reg(b), reg(c), imm), op)
        }
        24..=31 => {
            let (opcode, funct3, op) = LOADS[a as usize % LOADS.len()];
            let imm = (d % 1024) as i32 - 512;
            Gen::Word(enc_i(opcode, funct3, scratch_reg(b), base_reg(c), imm), op)
        }
        32..=37 => {
            let (opcode, funct3, op) = STORES[a as usize % STORES.len()];
            let imm = (d % 1024) as i32 - 512;
            Gen::Word(enc_s(opcode, funct3, base_reg(c), reg(b), imm), op)
        }
        38 | 39 => {
            let (funct3, funct5, op) = AMOS[a as usize % AMOS.len()];
            let word = enc_r(
                0x2f,
                funct3,
                funct5 << 2,
                scratch_reg(b),
                base_reg(c),
                reg(d),
            );
            Gen::Word(word, op)
        }
        40 | 41 => {
            let (opcode, op) = FMAS[a as usize % FMAS.len()];
            Gen::Word(
                enc_r4(opcode, 7, 1, reg(b), reg(c), reg(d), reg(w >> 40)),
                op,
            )
        }
        42 => Gen::Word(enc_r(0x53, 7, 0b1101001, reg(b), reg(c), 2), Op::FcvtDL),
        43 => Gen::Word(enc_u(0x37, scratch_reg(b), (d as i32) << 12), Op::Lui),
        44 => Gen::Word(enc_u(0x17, scratch_reg(b), (d as i32) << 12), Op::Auipc),
        // The vector memory ops, through the assembler's own encoders.
        45..=48 => {
            let mut asm = Asm::new();
            let op = match a % 4 {
                0 => {
                    asm.vsetvli_e64m1(scratch_reg(b), reg(c));
                    Op::Vsetvli
                }
                1 => {
                    asm.vle64(reg(b), base_reg(c));
                    Op::Vle64
                }
                2 => {
                    asm.vse64(reg(b), base_reg(c));
                    Op::Vse64
                }
                _ => {
                    asm.vluxei64(reg(b), base_reg(c), reg(d));
                    Op::Vluxei64
                }
            };
            let bytes = asm.finish();
            Gen::Word(u32::from_le_bytes(bytes[..4].try_into().unwrap()), op)
        }
        49..=54 => {
            let (funct3, _) = BRANCHES[a as usize % BRANCHES.len()];
            Gen::Branch {
                funct3,
                rs1: reg(b),
                rs2: reg(c),
                to: target(d, len),
            }
        }
        55 | 56 => Gen::Jal {
            rd: if a % 2 == 0 { 0 } else { scratch_reg(b) },
            to: target(d, len),
        },
        57 => Gen::Jalr {
            rd: if a % 2 == 0 { 0 } else { scratch_reg(b) },
            to: target(d, len),
        },
        58 => Gen::CBnez {
            rs1: 12 + (b % 4) as u8,
            to: (d as usize) % (len + 1),
        },
        59 => Gen::Half(match a % 2 {
            0 => enc_c_addi(scratch_reg(b), (c % 64) as i32 - 32),
            _ => enc_c_mv(scratch_reg(b), 1 + (c % 31) as u8),
        }),
        // Any half-word the decoder accepts — compressed loads, stores,
        // jumps and branches to wherever their bits say.
        60 | 61 => {
            let half = a as u16;
            let legal = half & 3 != 3 && decode_compressed(half, &ExtSet::full()).op != Op::Illegal;
            Gen::Half(if legal { half } else { enc_c_addi(0, 0) })
        }
        62 => match a % 4 {
            0 => Gen::Word(0x0000_000f, Op::Fence),
            1 => Gen::Word(0x0000_0073, Op::Ecall),
            2 => Gen::Word(0x0010_0073, Op::Ebreak),
            // jalr through any register: almost surely not a code address.
            _ => Gen::Word(enc_i(0x67, 0, 0, reg(b), (d % 64) as i32), Op::Jalr),
        },
        // Any word at all, as a 32-bit encoding: mostly illegal.
        _ => {
            let word = (a as u32) | 3;
            Gen::Word(word, decode(word, &ExtSet::full()).op)
        }
    }
}

/// Assemble one program from its random words; returns the code and the
/// offset of every instruction (plus the end).
fn assemble(words: &[u64]) -> (Vec<u8>, Vec<usize>) {
    let gens: Vec<Gen> = words.iter().map(|&w| generate(w, words.len())).collect();
    let mut at = vec![0usize];
    for g in &gens {
        at.push(at.last().unwrap() + g.size());
    }
    let offset = |from: usize, to: &Target| match *to {
        Target::Index(i) => at[i] as i32 - from as i32,
        Target::Offset(bytes) => bytes,
    };
    let mut asm = Asm::new();
    for (n, g) in gens.iter().enumerate() {
        match g {
            Gen::Word(word, op) => {
                assert_eq!(decode(*word, &ExtSet::full()).op, *op, "{word:#010x}");
                asm.word(*word);
            }
            Gen::Half(half) => asm.half(*half),
            Gen::Branch {
                funct3,
                rs1,
                rs2,
                to,
            } => {
                let word = enc_b(0x63, *funct3, *rs1, *rs2, offset(at[n], to));
                let instr = decode(word, &ExtSet::full());
                assert!(instr.op.is_cond_branch());
                assert_eq!(instr.imm, offset(at[n], to) as i64);
                asm.word(word);
            }
            Gen::Jal { rd, to } => {
                let word = enc_j(0x6f, *rd, offset(at[n], to));
                assert_eq!(decode(word, &ExtSet::full()).imm, offset(at[n], to) as i64);
                asm.word(word);
            }
            Gen::Jalr { rd, to } => {
                asm.word(enc_u(0x17, 5, 0));
                asm.word(enc_i(0x67, 0, *rd, 5, offset(at[n], to).clamp(-2048, 2047)));
            }
            Gen::CBnez { rs1, to } => {
                let off = (at[*to] as i32 - at[n] as i32).clamp(-256, 254);
                asm.half(enc_c_bnez(*rs1, off));
            }
        }
    }
    (asm.finish(), at)
}

/// Initial state from a seed: pointers into the data segment, everything
/// else a mix of small values, extremes and noise; data bytes are noise.
fn initial_cpu(seed: u64, pc: u64) -> Cpu {
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 7
    };
    let mut cpu = Cpu::new(pc, Memory::new(DATA, DATA_BYTES), 128 << (seed % 2));
    for addr in (DATA..DATA + DATA_BYTES as u64).step_by(8) {
        cpu.mem.write_u64(addr, next() << 7 | next() >> 50).unwrap();
    }
    for r in 1..32 {
        cpu.x[r] = match next() % 8 {
            0 => 0,
            1 => u64::MAX,
            2 => i64::MIN as u64,
            3 | 4 => next() % 64,
            _ => next() << 7 | next() >> 50,
        };
        cpu.f[r] = f64::from_bits(match next() % 4 {
            0 => ((next() % 1000) as f64).to_bits(),
            1 => ((next() % 1000) as f64 / 7.0).to_bits(),
            _ => next() << 7 | next() >> 50,
        });
    }
    for p in POINTERS {
        cpu.x[p as usize] = DATA + 1024 + 8 * (next() % 256);
    }
    cpu
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn random_programs_run_in_lock_step(
        words in prop::collection::vec(0u64..u64::MAX, 1..80),
        seed in 0u64..u64::MAX,
    ) {
        let (mut code, at) = assemble(&words);
        if seed % 3 != 0 {
            // Two in three end in `ebreak`; the rest fall off the end.
            code.extend_from_slice(&0x0010_0073u32.to_le_bytes());
        }
        // Mostly from the top; sometimes from another instruction, the
        // middle of one, an odd pc or outside the program.
        let entry = match (seed >> 8) % 16 {
            0 => TEXT + at[(seed >> 16) as usize % at.len()] as u64,
            1 => TEXT + (seed >> 16) % (code.len() as u64 + 4),
            2 => (seed >> 16) % (2 * TEXT),
            _ => TEXT,
        };
        let cpu = initial_cpu(seed, entry);
        let max_steps = (seed >> 40) % 300;
        for ext in [ExtSet::full(), ExtSet::rv64imac()] {
            let prog = decode_program(&code, TEXT, &ext);
            // Every ending is a valid one here; agreement is the property.
            let _ = lockstep(&prog, &cpu, max_steps);
        }
    }
}

#[test]
fn the_generator_reaches_every_way_a_run_can_end() {
    // The property above is only as good as what its programs do: count
    // the endings over the same kind of input.
    let mut seen = std::collections::BTreeMap::new();
    let mut x = 1u64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 3 ^ x << 23
    };
    for _ in 0..600 {
        let words: Vec<u64> = (0..1 + next() % 40).map(|_| next()).collect();
        let (mut code, _) = assemble(&words);
        code.extend_from_slice(&0x0010_0073u32.to_le_bytes());
        let prog = decode_program(&code, TEXT, &ExtSet::full());
        let (result, _) = lockstep(&prog, &initial_cpu(next(), TEXT), 200);
        let ending = match result {
            Ok(_) => "ebreak",
            Err(Trap::StepLimit) => "step limit",
            Err(Trap::OutOfBounds(_)) => "out of bounds",
            Err(Trap::MisalignedPc(_)) => "misaligned pc",
            Err(Trap::IllegalInstruction(_)) => "illegal instruction",
        };
        *seen.entry(ending).or_insert(0u32) += 1;
    }
    assert_eq!(seen.len(), 5, "{seen:?}");
    assert!(seen.values().all(|&n| n >= 10), "{seen:?}");
}

// --- the kernels -----------------------------------------------------------

#[test]
fn kernels_run_in_lock_step_under_every_extension_set() {
    for id in KernelId::ALL {
        for base in [ExtSet::full(), ExtSet::rv64imac()] {
            for v in [true, false] {
                let ext = ExtSet { v, ..base };
                let built = build(id, &ext, 256);
                let prog = built.decode(&ext);
                let (result, _) = lockstep(&prog, &built.cpu, MAX_STEPS);
                let stats = result.unwrap_or_else(|t| panic!("{} {ext:?}: {t}", id.name()));
                assert!(stats.instret > built.elems);
            }
        }
    }
}

// --- every ending, pinned --------------------------------------------------

/// `n` × `addi x5, x5, 1`, then whatever `tail` adds.
fn counting_program(n: usize, tail: impl FnOnce(&mut Asm)) -> DecodedProgram {
    let mut asm = Asm::new();
    for _ in 0..n {
        asm.addi(5, 5, 1);
    }
    tail(&mut asm);
    decode_program(&asm.finish(), TEXT, &ExtSet::full())
}

fn fresh_cpu() -> Cpu {
    Cpu::new(TEXT, Memory::new(DATA, DATA_BYTES), 128)
}

#[test]
fn step_budget_hit_mid_block_stops_at_the_next_instruction() {
    let prog = counting_program(6, |asm| asm.ebreak());
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 4),
        (Err(Trap::StepLimit), TEXT + 16)
    );
    // The budget counts `ebreak` too: six addis and the halt need seven.
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 6),
        (Err(Trap::StepLimit), TEXT + 24)
    );
    let (result, pc) = lockstep(&prog, &fresh_cpu(), 7);
    assert_eq!((result.unwrap().instret, pc), (7, TEXT + 24));
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 0),
        (Err(Trap::StepLimit), TEXT)
    );
}

#[test]
fn out_of_bounds_access_mid_block_stops_at_the_access() {
    let prog = counting_program(3, |asm| {
        asm.ld(6, 0, 64); // x0 + 64: below the data segment
        asm.addi(5, 5, 1);
        asm.ebreak();
    });
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 100),
        (Err(Trap::OutOfBounds(64)), TEXT + 12)
    );
}

#[test]
fn vector_accesses_from_a_base_at_the_top_of_the_address_space_trap() {
    // Lane addresses wrap instead of overflowing the host's arithmetic:
    // lane 0 is out of bounds at the base, and were it not, lane 1 would
    // be at (u64::MAX - 4) + 8 = 3.
    for store in [false, true] {
        let mut asm = Asm::new();
        asm.addi(6, 0, 2);
        asm.vsetvli_e64m1(7, 6);
        if store {
            asm.vse64(1, 5);
        } else {
            asm.vle64(1, 5);
        }
        asm.ebreak();
        let prog = decode_program(&asm.finish(), TEXT, &ExtSet::full());
        let mut cpu = fresh_cpu();
        cpu.x[5] = u64::MAX - 4;
        assert_eq!(
            lockstep(&prog, &cpu, 100),
            (Err(Trap::OutOfBounds(u64::MAX - 4)), TEXT + 8)
        );
    }
    // The wrapped lane itself: a data segment that ends where the address
    // space does, so lane 0 is in bounds and lane 1 is not.
    let mut asm = Asm::new();
    asm.addi(6, 0, 2);
    asm.vsetvli_e64m1(7, 6);
    asm.vle64(1, 5);
    asm.ebreak();
    let prog = decode_program(&asm.finish(), TEXT, &ExtSet::full());
    let mut cpu = Cpu::new(TEXT, Memory::new(u64::MAX - 15, 16), 128);
    cpu.x[5] = u64::MAX - 7;
    assert_eq!(
        lockstep(&prog, &cpu, 100),
        (Err(Trap::OutOfBounds(0)), TEXT + 8)
    );
}

#[test]
fn control_flow_to_a_pc_that_is_no_instruction_traps_there() {
    // A taken branch into the middle of the next instruction.
    let prog = counting_program(2, |asm| {
        asm.word(enc_b(0x63, 0, 0, 0, 6)); // beq x0, x0, +6
        asm.addi(5, 5, 1);
        asm.ebreak();
    });
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 100),
        (Err(Trap::MisalignedPc(TEXT + 14)), TEXT + 14)
    );
    // The same branch with the step budget spent: the budget is checked
    // first, and the pc is still the bad target.
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 3),
        (Err(Trap::StepLimit), TEXT + 14)
    );

    // jal far outside the program, backwards past zero.
    let prog = counting_program(1, |asm| asm.word(enc_j(0x6f, 1, -0x8000)));
    let far = (TEXT + 4).wrapping_sub(0x8000);
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 100),
        (Err(Trap::MisalignedPc(far)), far)
    );

    // jalr drops bit 0 of its target, so an odd address lands on the
    // instruction below it...
    let prog = counting_program(3, |asm| {
        asm.word(enc_i(0x67, 0, 1, 6, 1)); // jalr x1, 1(x6)
        asm.ebreak();
    });
    let mut cpu = fresh_cpu();
    cpu.x[6] = TEXT + 16;
    let (result, pc) = lockstep(&prog, &cpu, 100);
    assert_eq!((result.unwrap().instret, pc), (5, TEXT + 16));
    // ...and one that is mid-instruction or outside the program traps.
    for bad in [TEXT + 6, TEXT + 20, TEXT - 2, 0, u64::MAX - 1] {
        cpu.x[6] = bad;
        assert_eq!(
            lockstep(&prog, &cpu, 100),
            (Err(Trap::MisalignedPc(bad)), bad)
        );
    }

    // An odd pc can only come from outside.
    let mut cpu = fresh_cpu();
    cpu.pc = TEXT + 1;
    assert_eq!(
        lockstep(&prog, &cpu, 100),
        (Err(Trap::MisalignedPc(TEXT + 1)), TEXT + 1)
    );
}

#[test]
fn falling_off_the_end_traps_at_the_end() {
    let prog = counting_program(3, |_| {});
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 100),
        (Err(Trap::MisalignedPc(TEXT + 12)), TEXT + 12)
    );
    // A branch whose target is the end is the same ending by another road.
    let prog = counting_program(1, |asm| {
        asm.word(enc_b(0x63, 0, 0, 0, 8));
        asm.addi(5, 5, 1);
    });
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 100),
        (Err(Trap::MisalignedPc(TEXT + 12)), TEXT + 12)
    );
    // No program at all.
    let empty = decode_program(&[], TEXT, &ExtSet::full());
    assert_eq!(
        lockstep(&empty, &fresh_cpu(), 100),
        (Err(Trap::MisalignedPc(TEXT)), TEXT)
    );
}

#[test]
fn illegal_and_ecall_trap_at_their_own_pc() {
    for word in [0x0000_0073u32, 0xffff_ffff] {
        let prog = counting_program(2, |asm| {
            asm.word(word);
            asm.ebreak();
        });
        assert_eq!(
            lockstep(&prog, &fresh_cpu(), 100),
            (Err(Trap::IllegalInstruction(TEXT + 8)), TEXT + 8)
        );
    }
}

// --- run boundaries, pinned ------------------------------------------------
//
// `execute` moves a straight-line run at a time: one budget check for the
// run's body, then the slot that ends it as control flow. These place the
// budget, an indirect target and a branch target on each edge of a run.

#[test]
fn a_budget_spent_on_the_body_stops_on_the_runs_branch() {
    // Three addis, then `bne x0, x0, +8` (never taken), one addi, ebreak.
    let prog = counting_program(3, |asm| {
        asm.word(enc_b(0x63, 1, 0, 0, 8));
        asm.addi(5, 5, 1);
        asm.ebreak();
    });
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 3),
        (Err(Trap::StepLimit), TEXT + 12)
    );
    // One more step retires the branch and stops at the next run.
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 4),
        (Err(Trap::StepLimit), TEXT + 16)
    );
}

#[test]
fn a_budget_spent_on_the_last_slot_of_a_program_without_ebreak() {
    let prog = counting_program(4, |_| {});
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 3),
        (Err(Trap::StepLimit), TEXT + 12)
    );
    // Spent exactly by the last slot: the budget is checked before the
    // pc past the end, so this is a step limit, not a misaligned pc.
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 4),
        (Err(Trap::StepLimit), TEXT + 16)
    );
    assert_eq!(
        lockstep(&prog, &fresh_cpu(), 5),
        (Err(Trap::MisalignedPc(TEXT + 16)), TEXT + 16)
    );
}

#[test]
fn a_jalr_into_the_middle_of_a_run_runs_the_rest_of_it() {
    // `jalr x1, 0(x6)` to the second of three addis, then ebreak.
    let prog = counting_program(0, |asm| {
        asm.word(enc_i(0x67, 0, 1, 6, 0));
        asm.addi(5, 5, 1);
        asm.addi(5, 5, 1);
        asm.addi(5, 5, 1);
        asm.ebreak();
    });
    let mut cpu = fresh_cpu();
    cpu.x[6] = TEXT + 8;
    let (result, pc) = lockstep(&prog, &cpu, 100);
    assert_eq!((result.unwrap().instret, pc), (4, TEXT + 16));
    // And a budget that ends inside the part of the run it entered.
    assert_eq!(lockstep(&prog, &cpu, 2), (Err(Trap::StepLimit), TEXT + 12));
}

#[test]
fn a_taken_branch_to_its_own_slot_reenters_a_run_at_its_end() {
    // Two addis, then `beq x0, x0, 0`: every later run is that branch
    // alone, with an empty body, until the budget is spent on it.
    let prog = counting_program(2, |asm| {
        asm.word(enc_b(0x63, 0, 0, 0, 0));
        asm.ebreak();
    });
    for budget in [2, 3, 7] {
        assert_eq!(
            lockstep(&prog, &fresh_cpu(), budget),
            (Err(Trap::StepLimit), TEXT + 8),
            "budget {budget}"
        );
    }
}
