//! Synthetic NPB-shaped kernels assembled as real RV64 machine code, so the
//! decode → IR → CFG → interpret pipeline is exercised end-to-end. Each
//! kernel is emitted against an [`ExtSet`]: with Zba the address arithmetic
//! uses shNadd, without it the assembler falls back to slli+add; with Zbb
//! running maxima use maxu, without it a branchy compare/move sequence (which
//! also changes the branch stream); with V the triad loop is vectorised with
//! the minimal RVV subset. Results are extension-invariant — ablation changes
//! the instruction stream, never the answer — and `verify` checks outputs
//! bit-exactly against a Rust reference.

use crate::decode::{decode_program, DecodedProgram};
use crate::encode::{Asm, A0, A1, A2, A3, A4, S2, T0, T1, T2, T3, T4, T5, T6, ZERO};
use crate::interp::{Cpu, Memory};
use crate::ir::{ExtSet, Reg};

/// Guest address of the first instruction.
pub(crate) const TEXT_BASE: u64 = 0x1000;
/// Guest address of the data segment.
pub(crate) const DATA_BASE: u64 = 0x10_0000;

/// Problem sizes: large enough for a realistic dynamic instruction mix
/// (~100K retired instructions per kernel), small enough that a debug-build
/// characterisation stays in the tens of milliseconds.
pub(crate) const TRIAD_N: usize = 8192;
pub(crate) const SPMV_ROWS: usize = 1024;
pub(crate) const SPMV_NNZ_PER_ROW: usize = 16;
pub(crate) const MG_N: usize = 8192;
pub const EP_N: usize = 8192;

/// Interpreter step budget; every kernel halts far below this.
pub const MAX_STEPS: u64 = 16_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// STREAM triad: `a[i] = b[i] + s*c[i]`.
    Triad,
    /// CG-shaped CSR SpMV inner loop with indirect gather of `x[col[k]]`.
    Spmv,
    /// MG-shaped residual stencil: fourth-order 7-point
    /// `r[i] = v[i] - Σ_k c_k*(u[i-k]+u[i+k])`, whose arithmetic
    /// intensity approximates MG's fused 27-point operator.
    MgResid,
    /// EP-shaped LCG accumulate with running maximum tracking.
    EpAccum,
}

impl KernelId {
    pub const ALL: [KernelId; 4] = [
        KernelId::Triad,
        KernelId::Spmv,
        KernelId::MgResid,
        KernelId::EpAccum,
    ];

    pub fn name(self) -> &'static str {
        match self {
            KernelId::Triad => "triad",
            KernelId::Spmv => "spmv",
            KernelId::MgResid => "mg",
            KernelId::EpAccum => "ep",
        }
    }

    pub fn parse(s: &str) -> Option<KernelId> {
        match s {
            "triad" => Some(KernelId::Triad),
            "spmv" => Some(KernelId::Spmv),
            "mg" => Some(KernelId::MgResid),
            "ep" => Some(KernelId::EpAccum),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
enum Expected {
    Triad(Vec<f64>),
    Spmv { y: Vec<f64>, max_bits: u64 },
    Mg(Vec<f64>),
    Ep { sum: f64, max: u64 },
}

/// A kernel assembled for a specific extension set, with its initial CPU
/// state (memory + registers) and precomputed reference outputs.
pub struct BuiltKernel {
    pub id: KernelId,
    pub code: Vec<u8>,
    pub cpu: Cpu,
    /// Units of useful work: array elements (triad/mg), nonzeros (spmv),
    /// or samples (ep).
    pub elems: u64,
    pub flops_per_elem: f64,
    /// True when the emitted code uses the RVV subset.
    pub uses_rvv: bool,
    expect: Expected,
}

impl BuiltKernel {
    /// Decode this kernel's code with the same extension set it was built for.
    pub fn decode(&self, ext: &ExtSet) -> DecodedProgram {
        decode_program(&self.code, TEXT_BASE, ext)
    }

    /// Check final architectural state against the Rust reference, bit-exact.
    pub fn verify(&self, cpu: &Cpu) -> Result<(), String> {
        match &self.expect {
            Expected::Triad(a) => check_array(&cpu.mem, DATA_BASE, a, "triad a"),
            Expected::Spmv { y, max_bits } => {
                let y_off = spmv_layout().3;
                check_array(&cpu.mem, DATA_BASE + y_off, y, "spmv y")?;
                if cpu.x[S2 as usize] != *max_bits {
                    return Err(format!(
                        "spmv max mismatch: got {:#x}, want {:#x}",
                        cpu.x[S2 as usize], max_bits
                    ));
                }
                Ok(())
            }
            Expected::Mg(r) => {
                let r_off = 2 * MG_N as u64 * 8;
                check_array(&cpu.mem, DATA_BASE + r_off, r, "mg r")
            }
            Expected::Ep { sum, max } => {
                if cpu.f[0].to_bits() != sum.to_bits() {
                    return Err(format!("ep sum mismatch: got {}, want {}", cpu.f[0], sum));
                }
                if cpu.x[T5 as usize] != *max {
                    return Err(format!(
                        "ep max mismatch: got {:#x}, want {:#x}",
                        cpu.x[T5 as usize], max
                    ));
                }
                Ok(())
            }
        }
    }
}

fn check_array(mem: &Memory, base: u64, want: &[f64], what: &str) -> Result<(), String> {
    for (idx, w) in want.iter().enumerate() {
        let got = mem
            .read_f64(base + 8 * idx as u64)
            .map_err(|t| format!("{what}[{idx}]: {t}"))?;
        if got.to_bits() != w.to_bits() {
            return Err(format!("{what}[{idx}] mismatch: got {got}, want {w}"));
        }
    }
    Ok(())
}

/// Build a kernel for the given extension set. `vlen_bits` sizes the vector
/// registers (only relevant when `ext.v`).
pub fn build(id: KernelId, ext: &ExtSet, vlen_bits: u32) -> BuiltKernel {
    match id {
        KernelId::Triad => build_triad(ext, vlen_bits),
        KernelId::Spmv => build_spmv(ext, vlen_bits),
        KernelId::MgResid => build_mg(ext, vlen_bits),
        KernelId::EpAccum => build_ep(ext, vlen_bits),
    }
}

/// shNadd rd, idx, base when Zba is available; slli+add fallback otherwise.
fn sh3add_or(asm: &mut Asm, ext: &ExtSet, rd: Reg, idx: Reg, base: Reg) {
    if ext.zba {
        asm.sh3add(rd, idx, base);
    } else {
        asm.slli(rd, idx, 3);
        asm.add(rd, rd, base);
    }
}

fn sh2add_or(asm: &mut Asm, ext: &ExtSet, rd: Reg, idx: Reg, base: Reg) {
    if ext.zba {
        asm.sh2add(rd, idx, base);
    } else {
        asm.slli(rd, idx, 2);
        asm.add(rd, rd, base);
    }
}

/// Running unsigned max: a single `maxu` with Zbb, the branch-free
/// compare/mask/select sequence (sltu, neg, xor, and, xor — what a
/// compiler emits when it must avoid a data-dependent branch) without.
/// `s0`/`s1` are caller-provided scratch registers; `acc` and `val`
/// are preserved apart from the result landing in `acc`.
fn maxu_or(asm: &mut Asm, ext: &ExtSet, acc: Reg, val: Reg, s0: Reg, s1: Reg) {
    if ext.zbb {
        asm.maxu(acc, acc, val);
    } else {
        asm.sltu(s0, acc, val); // s0 = acc < val
        asm.sub(s1, ZERO, s0); // s1 = all-ones mask if acc < val
        asm.xor(s0, acc, val);
        asm.and(s0, s0, s1);
        asm.xor(acc, acc, s0); // acc ^= (acc ^ val) & mask
    }
}

// ---------------------------------------------------------------------------
// Triad
// ---------------------------------------------------------------------------

const TRIAD_S: f64 = 3.0;

fn triad_b(i: usize) -> f64 {
    (i % 64) as f64 * 0.5
}

fn triad_c(i: usize) -> f64 {
    ((i * 7) % 32) as f64 * 0.25
}

fn build_triad(ext: &ExtSet, vlen_bits: u32) -> BuiltKernel {
    let n = TRIAD_N;
    let use_rvv = ext.v;
    let mut asm = Asm::new();
    // a0=&a, a1=&b, a2=&c, t0=i/remaining, t1=n, f0=s
    asm.li32(T3, TRIAD_S as i32);
    asm.fcvt_d_l(0, T3); // f0 = s
    if use_rvv {
        // t0 = remaining elements; pointers advance by vl each iteration.
        let exit = asm.label();
        asm.beq(T0, ZERO, exit); // n == 0 guard (never taken)
        let head = asm.here();
        asm.vsetvli_e64m1(T2, T0); // t2 = vl
        asm.vle64(1, A1); // v1 = b[..]
        asm.vle64(2, A2); // v2 = c[..]
        asm.vfmacc_vf(1, 0, 2); // v1 += s * v2
        asm.vse64(1, A0);
        if ext.zba {
            asm.sh3add(A0, T2, A0);
            asm.sh3add(A1, T2, A1);
            asm.sh3add(A2, T2, A2);
        } else {
            asm.slli(T3, T2, 3);
            asm.add(A0, A0, T3);
            asm.add(A1, A1, T3);
            asm.add(A2, A2, T3);
        }
        asm.sub(T0, T0, T2);
        asm.bne(T0, ZERO, head);
        asm.bind(exit);
    } else {
        let head = asm.here();
        sh3add_or(&mut asm, ext, T2, T0, A1);
        asm.fld(1, T2, 0); // b[i]
        sh3add_or(&mut asm, ext, T2, T0, A2);
        asm.fld(2, T2, 0); // c[i]
        asm.fmadd_d(3, 0, 2, 1); // s*c + b
        sh3add_or(&mut asm, ext, T2, T0, A0);
        asm.fsd(3, T2, 0);
        asm.c_addi(T0, 1);
        asm.blt(T0, T1, head);
    }
    asm.ebreak();
    let code = asm.finish();

    let mem_size = 3 * n * 8;
    let mut mem = Memory::new(DATA_BASE, mem_size);
    for i in 0..n {
        mem.write_f64(DATA_BASE + (n + i) as u64 * 8, triad_b(i))
            .unwrap();
        mem.write_f64(DATA_BASE + (2 * n + i) as u64 * 8, triad_c(i))
            .unwrap();
    }
    let mut cpu = Cpu::new(TEXT_BASE, mem, vlen_bits);
    cpu.x[A0 as usize] = DATA_BASE;
    cpu.x[A1 as usize] = DATA_BASE + n as u64 * 8;
    cpu.x[A2 as usize] = DATA_BASE + 2 * n as u64 * 8;
    cpu.x[T0 as usize] = if use_rvv { n as u64 } else { 0 };
    cpu.x[T1 as usize] = n as u64;

    let expect: Vec<f64> = (0..n)
        .map(|i| TRIAD_S.mul_add(triad_c(i), triad_b(i)))
        .collect();
    BuiltKernel {
        id: KernelId::Triad,
        code,
        cpu,
        elems: n as u64,
        flops_per_elem: 2.0,
        uses_rvv: use_rvv,
        expect: Expected::Triad(expect),
    }
}

// ---------------------------------------------------------------------------
// SpMV (CSR)
// ---------------------------------------------------------------------------

/// Byte offsets of (rowptr, colidx, vals, y, x) relative to DATA_BASE.
fn spmv_layout() -> (u64, u64, u64, u64, u64) {
    let rows = SPMV_ROWS as u64;
    let nnz = (SPMV_ROWS * SPMV_NNZ_PER_ROW) as u64;
    let rowptr = 0u64; // (rows+1) × i32
    let colidx = rowptr + (rows + 1) * 4;
    let vals = (colidx + nnz * 4).next_multiple_of(8); // nnz × f64
    let y = vals + nnz * 8;
    let x = y + rows * 8;
    (rowptr, colidx, vals, y, x)
}

fn spmv_col(k: usize) -> usize {
    // Deterministic pseudo-random column in [0, SPMV_ROWS).
    let mut state = (k as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    state ^= state >> 33;
    (state % SPMV_ROWS as u64) as usize
}

fn spmv_val(k: usize) -> f64 {
    ((k % 100) + 1) as f64 * 0.01
}

fn spmv_x(i: usize) -> f64 {
    ((i % 51) + 1) as f64 * 0.125
}

fn build_spmv(ext: &ExtSet, vlen_bits: u32) -> BuiltKernel {
    let rows = SPMV_ROWS;
    let nnz = SPMV_ROWS * SPMV_NNZ_PER_ROW;
    let (rowptr_off, colidx_off, vals_off, y_off, x_off) = spmv_layout();

    let mut asm = Asm::new();
    // a0=&rowptr, a1=&colidx, a2=&vals, a3=&x, a4=&y, t0=row, t1=rows, s2=max bits
    let row_head = asm.here();
    let row_done = asm.label();
    sh2add_or(&mut asm, ext, T2, T0, A0);
    asm.lw(T3, T2, 0); // k = rowptr[row]
    asm.lw(T4, T2, 4); // end = rowptr[row+1]
    asm.fcvt_d_l(0, ZERO); // acc = 0.0
    asm.bge(T3, T4, row_done); // empty-row guard (never taken here)
    let inner = asm.here();
    sh2add_or(&mut asm, ext, T2, T3, A1);
    asm.lw(T5, T2, 0); // col
    sh3add_or(&mut asm, ext, T2, T3, A2);
    asm.fld(1, T2, 0); // vals[k]
    sh3add_or(&mut asm, ext, T2, T5, A3);
    asm.fld(2, T2, 0); // x[col]
    asm.fmadd_d(0, 1, 2, 0); // acc += vals[k] * x[col]
    asm.c_addi(T3, 1);
    asm.blt(T3, T4, inner);
    asm.bind(row_done);
    sh3add_or(&mut asm, ext, T2, T0, A4);
    asm.fsd(0, T2, 0); // y[row] = acc
    asm.fmv_x_d(T6, 0);
    maxu_or(&mut asm, ext, S2, T6, T2, T3); // running max of y bits (all positive)
    asm.c_addi(T0, 1);
    asm.blt(T0, T1, row_head);
    asm.ebreak();
    let code = asm.finish();

    let mem_size = (x_off + rows as u64 * 8) as usize;
    let mut mem = Memory::new(DATA_BASE, mem_size);
    for r in 0..=rows {
        mem.write_u32(
            DATA_BASE + rowptr_off + 4 * r as u64,
            (r * SPMV_NNZ_PER_ROW) as u32,
        )
        .unwrap();
    }
    for k in 0..nnz {
        mem.write_u32(DATA_BASE + colidx_off + 4 * k as u64, spmv_col(k) as u32)
            .unwrap();
        mem.write_f64(DATA_BASE + vals_off + 8 * k as u64, spmv_val(k))
            .unwrap();
    }
    for i in 0..rows {
        mem.write_f64(DATA_BASE + x_off + 8 * i as u64, spmv_x(i))
            .unwrap();
    }
    let mut cpu = Cpu::new(TEXT_BASE, mem, vlen_bits);
    cpu.x[A0 as usize] = DATA_BASE + rowptr_off;
    cpu.x[A1 as usize] = DATA_BASE + colidx_off;
    cpu.x[A2 as usize] = DATA_BASE + vals_off;
    cpu.x[A3 as usize] = DATA_BASE + x_off;
    cpu.x[A4 as usize] = DATA_BASE + y_off;
    cpu.x[T1 as usize] = rows as u64;

    let mut y = vec![0.0f64; rows];
    let mut max_bits = 0u64;
    for (r, slot) in y.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for k in r * SPMV_NNZ_PER_ROW..(r + 1) * SPMV_NNZ_PER_ROW {
            acc = spmv_val(k).mul_add(spmv_x(spmv_col(k)), acc);
        }
        *slot = acc;
        max_bits = max_bits.max(acc.to_bits());
    }
    BuiltKernel {
        id: KernelId::Spmv,
        code,
        cpu,
        elems: nnz as u64,
        flops_per_elem: 2.0,
        uses_rvv: false,
        expect: Expected::Spmv { y, max_bits },
    }
}

// ---------------------------------------------------------------------------
// MG residual stencil
// ---------------------------------------------------------------------------

const MG_C0: f64 = 0.5;
const MG_C1: f64 = 0.25;
const MG_C2: f64 = 0.125;
const MG_C3: f64 = 0.0625;

fn mg_u(i: usize) -> f64 {
    ((i % 97) as f64) * 0.0625
}

fn mg_v(i: usize) -> f64 {
    ((i % 89) as f64) * 0.125
}

fn build_mg(ext: &ExtSet, vlen_bits: u32) -> BuiltKernel {
    let n = MG_N;
    let mut asm = Asm::new();
    // a0=&u, a1=&v, a2=&r, t0=i (starts 3), t1=n-3, f0..f3=c0..c3.
    // Fourth-order 7-point stencil: the loaded neighbours stay in
    // registers, so flops per memory reference approach the fused
    // 27-point operator's arithmetic intensity rather than a naive
    // second-order sweep's.
    let head = asm.here();
    sh3add_or(&mut asm, ext, T2, T0, A0);
    asm.fld(4, T2, 0); // u[i]
    asm.fld(5, T2, -8); // u[i-1]
    asm.fld(6, T2, 8); // u[i+1]
    asm.fadd_d(5, 5, 6); // um1 + up1
    asm.fld(6, T2, -16); // u[i-2]
    asm.fld(7, T2, 16); // u[i+2]
    asm.fadd_d(6, 6, 7); // um2 + up2
    asm.fld(7, T2, -24); // u[i-3]
    asm.fld(8, T2, 24); // u[i+3]
    asm.fadd_d(7, 7, 8); // um3 + up3
    asm.fmul_d(4, 4, 0); // c0*u
    asm.fmadd_d(4, 5, 1, 4); // + c1*(um1+up1)
    asm.fmadd_d(4, 6, 2, 4); // + c2*(um2+up2)
    asm.fmadd_d(4, 7, 3, 4); // + c3*(um3+up3)
    sh3add_or(&mut asm, ext, T2, T0, A1);
    asm.fld(5, T2, 0); // v[i]
    asm.fsub_d(5, 5, 4);
    sh3add_or(&mut asm, ext, T2, T0, A2);
    asm.fsd(5, T2, 0);
    asm.c_addi(T0, 1);
    asm.blt(T0, T1, head);
    asm.ebreak();
    let code = asm.finish();

    let mem_size = 3 * n * 8;
    let mut mem = Memory::new(DATA_BASE, mem_size);
    for i in 0..n {
        mem.write_f64(DATA_BASE + 8 * i as u64, mg_u(i)).unwrap();
        mem.write_f64(DATA_BASE + 8 * (n + i) as u64, mg_v(i))
            .unwrap();
    }
    let mut cpu = Cpu::new(TEXT_BASE, mem, vlen_bits);
    cpu.x[A0 as usize] = DATA_BASE;
    cpu.x[A1 as usize] = DATA_BASE + 8 * n as u64;
    cpu.x[A2 as usize] = DATA_BASE + 16 * n as u64;
    cpu.x[T0 as usize] = 3;
    cpu.x[T1 as usize] = (n - 3) as u64;
    cpu.f[0] = MG_C0;
    cpu.f[1] = MG_C1;
    cpu.f[2] = MG_C2;
    cpu.f[3] = MG_C3;

    let mut r = vec![0.0f64; n];
    for (i, slot) in r.iter_mut().enumerate().take(n - 3).skip(3) {
        let mut stencil = MG_C0 * mg_u(i);
        stencil = (mg_u(i - 1) + mg_u(i + 1)).mul_add(MG_C1, stencil);
        stencil = (mg_u(i - 2) + mg_u(i + 2)).mul_add(MG_C2, stencil);
        stencil = (mg_u(i - 3) + mg_u(i + 3)).mul_add(MG_C3, stencil);
        *slot = mg_v(i) - stencil;
    }
    BuiltKernel {
        id: KernelId::MgResid,
        code,
        cpu,
        elems: (n - 6) as u64,
        // 3 pair adds + 1 mul + 3 fmadd (2 each) + 1 subtract.
        flops_per_elem: 11.0,
        uses_rvv: false,
        expect: Expected::Mg(r),
    }
}

// ---------------------------------------------------------------------------
// EP accumulate
// ---------------------------------------------------------------------------

const EP_SEED: u64 = 271_828_183;
const EP_MULT: i32 = 1_220_703_125; // 5^13, NPB-style LCG multiplier
const EP_MASK_BITS: u32 = 46;
const EP_SHIFT: u8 = 23;
const EP_SCALE: f64 = 1.0 / (1u64 << EP_SHIFT) as f64;

fn build_ep(ext: &ExtSet, vlen_bits: u32) -> BuiltKernel {
    let n = EP_N;
    let mut asm = Asm::new();
    // t0=k, t1=n, t2=x, t3=mult, t4=mask, t5=max, t6/a0=scratch, f0=sum, f1=scale
    asm.li32(T3, EP_MULT);
    asm.addi(T4, ZERO, 1);
    asm.slli(T4, T4, EP_MASK_BITS as u8);
    asm.addi(T4, T4, -1); // mask = 2^46 - 1
    let head = asm.here();
    asm.mul(T2, T2, T3);
    asm.and(T2, T2, T4); // x = (x * mult) mod 2^46
    maxu_or(&mut asm, ext, T5, T2, T6, A0);
    asm.srli(T6, T2, EP_SHIFT);
    asm.fcvt_d_l(2, T6); // exact: t6 < 2^23
    asm.fmadd_d(0, 2, 1, 0); // sum += scale * high_bits
    asm.c_addi(T0, 1);
    asm.blt(T0, T1, head);
    asm.ebreak();
    let code = asm.finish();

    let mem = Memory::new(DATA_BASE, 64);
    let mut cpu = Cpu::new(TEXT_BASE, mem, vlen_bits);
    cpu.x[T1 as usize] = n as u64;
    cpu.x[T2 as usize] = EP_SEED;
    cpu.f[1] = EP_SCALE;

    let mask = (1u64 << EP_MASK_BITS) - 1;
    let mut x = EP_SEED;
    let mut max = 0u64;
    let mut sum = 0.0f64;
    for _ in 0..n {
        x = x.wrapping_mul(EP_MULT as u64) & mask;
        max = max.max(x);
        let hi = (x >> EP_SHIFT) as i64 as f64;
        sum = hi.mul_add(EP_SCALE, sum);
    }
    BuiltKernel {
        id: KernelId::EpAccum,
        code,
        cpu,
        elems: n as u64,
        flops_per_elem: 2.0,
        uses_rvv: false,
        expect: Expected::Ep { sum, max },
    }
}
