//! Instruction-set definition for the compute fabric.
//!
//! Registers hold raw 32-bit words; floating-point ops reinterpret them as
//! IEEE-754 `f32`, integer ops as `u32`. Bit-level fault injection XORs the
//! raw word, so the same mechanism corrupts floats, integers, and addresses.

use std::fmt;

/// Number of architectural registers per execution context.
pub const NUM_REGS: usize = 64;

/// A register index.
///
/// Must be `< NUM_REGS`; the [`ProgramBuilder`](crate::ProgramBuilder)
/// validates this at program-construction time.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Index into a register file.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Opcodes of the fabric ISA.
///
/// The set is deliberately small but spans the categories the paper's fault
/// model exercises: floating-point arithmetic (the GPU compute kernels),
/// integer/address arithmetic, memory access, compares/selects, and control
/// flow (the CPU-profile programs). Permanent-fault campaigns enumerate
/// [`ALL_OPS`], mirroring the paper's per-opcode GPU/CPU campaigns.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `dst = a + b` (f32)
    FAdd,
    /// `dst = a - b` (f32)
    FSub,
    /// `dst = a * b` (f32)
    FMul,
    /// `dst = a / b` (f32)
    FDiv,
    /// `dst = min(a, b)` (f32)
    FMin,
    /// `dst = max(a, b)` (f32)
    FMax,
    /// `dst = |a|` (f32)
    FAbs,
    /// `dst = -a` (f32)
    FNeg,
    /// `dst = sqrt(a)` (f32)
    FSqrt,
    /// `dst = a * b + c` (f32 fused multiply-add)
    FFma,
    /// `dst = a + b` (u32, wrapping)
    IAdd,
    /// `dst = a - b` (u32, wrapping)
    ISub,
    /// `dst = a * b` (u32, wrapping)
    IMul,
    /// `dst = a & b`
    IAnd,
    /// `dst = a | b`
    IOr,
    /// `dst = a ^ b`
    IXor,
    /// `dst = a << (b & 31)`
    IShl,
    /// `dst = a >> (b & 31)`
    IShr,
    /// `dst = (a < b) as u32` (f32 compare)
    FLt,
    /// `dst = (a <= b) as u32` (f32 compare)
    FLe,
    /// `dst = (a < b) as u32` (u32 compare)
    ILt,
    /// `dst = (a == b) as u32` (u32 compare)
    IEq,
    /// `dst = if a != 0 { b } else { c }`
    Sel,
    /// `dst = a`
    Mov,
    /// `dst = imm` (raw 32-bit word; also used for f32 immediates)
    LdImm,
    /// `dst = mem[a + imm]` — traps on out-of-bounds
    Ld,
    /// `mem[a + imm] = b` — traps on out-of-bounds
    St,
    /// unconditional jump to `imm`
    Jmp,
    /// jump to `imm` if `a == 0`
    Jz,
    /// jump to `imm` if `a != 0`
    Jnz,
    /// `dst = (a as f32) as u32-truncated-int` (f32 → u32 saturating at 0)
    F2I,
    /// `dst = a as f32` (u32 → f32)
    I2F,
    /// `dst = thread index` (0 in scalar execution)
    Tid,
    /// stop execution
    Halt,
}

/// All opcodes, in a stable order, for permanent-fault campaign enumeration.
pub const ALL_OPS: &[Op] = &[
    Op::FAdd,
    Op::FSub,
    Op::FMul,
    Op::FDiv,
    Op::FMin,
    Op::FMax,
    Op::FAbs,
    Op::FNeg,
    Op::FSqrt,
    Op::FFma,
    Op::IAdd,
    Op::ISub,
    Op::IMul,
    Op::IAnd,
    Op::IOr,
    Op::IXor,
    Op::IShl,
    Op::IShr,
    Op::FLt,
    Op::FLe,
    Op::ILt,
    Op::IEq,
    Op::Sel,
    Op::Mov,
    Op::LdImm,
    Op::Ld,
    Op::St,
    Op::Jmp,
    Op::Jz,
    Op::Jnz,
    Op::F2I,
    Op::I2F,
    Op::Tid,
    Op::Halt,
];

impl Op {
    /// Stable index of this opcode within [`ALL_OPS`].
    #[inline]
    pub fn index(self) -> usize {
        // ALL_OPS is ordered by declaration; a match keeps this O(1).
        match self {
            Op::FAdd => 0,
            Op::FSub => 1,
            Op::FMul => 2,
            Op::FDiv => 3,
            Op::FMin => 4,
            Op::FMax => 5,
            Op::FAbs => 6,
            Op::FNeg => 7,
            Op::FSqrt => 8,
            Op::FFma => 9,
            Op::IAdd => 10,
            Op::ISub => 11,
            Op::IMul => 12,
            Op::IAnd => 13,
            Op::IOr => 14,
            Op::IXor => 15,
            Op::IShl => 16,
            Op::IShr => 17,
            Op::FLt => 18,
            Op::FLe => 19,
            Op::ILt => 20,
            Op::IEq => 21,
            Op::Sel => 22,
            Op::Mov => 23,
            Op::LdImm => 24,
            Op::Ld => 25,
            Op::St => 26,
            Op::Jmp => 27,
            Op::Jz => 28,
            Op::Jnz => 29,
            Op::F2I => 30,
            Op::I2F => 31,
            Op::Tid => 32,
            Op::Halt => 33,
        }
    }

    /// How many of the source fields `a`, `b`, `c` this opcode reads; the
    /// fields it reads are always the first ones.
    pub(crate) fn sources(self) -> usize {
        match self {
            Op::LdImm | Op::Tid | Op::Jmp | Op::Halt => 0,
            Op::FAbs | Op::FNeg | Op::FSqrt | Op::Mov | Op::F2I | Op::I2F => 1,
            Op::Ld | Op::Jz | Op::Jnz => 1,
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv | Op::FMin | Op::FMax => 2,
            Op::IAdd
            | Op::ISub
            | Op::IMul
            | Op::IAnd
            | Op::IOr
            | Op::IXor
            | Op::IShl
            | Op::IShr => 2,
            Op::FLt | Op::FLe | Op::ILt | Op::IEq | Op::St => 2,
            Op::FFma | Op::Sel => 3,
        }
    }

    /// Whether this opcode writes its destination register.
    pub(crate) fn writes(self) -> bool {
        !matches!(self, Op::St | Op::Jmp | Op::Jz | Op::Jnz | Op::Halt)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One decoded fabric instruction.
///
/// `imm` holds raw immediate bits: an `f32` payload for [`Op::LdImm`], a
/// word offset for [`Op::Ld`]/[`Op::St`], or a branch target for the jump
/// opcodes.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Instr {
    /// Opcode.
    pub op: Op,
    /// Destination register (ignored by opcodes without one).
    pub dst: Reg,
    /// First source register.
    pub a: Reg,
    /// Second source register.
    pub b: Reg,
    /// Third source register (FFma addend, Sel else-branch).
    pub c: Reg,
    /// Immediate payload (see type-level docs).
    pub imm: u32,
}

impl Instr {
    /// Construct an instruction with all fields explicit.
    pub fn new(op: Op, dst: Reg, a: Reg, b: Reg, c: Reg, imm: u32) -> Self {
        Instr { op, dst, a, b, c, imm }
    }
}

/// Reinterpret an `f32` as its raw bit pattern.
#[inline]
pub fn f32_to_bits(x: f32) -> u32 {
    x.to_bits()
}

/// Reinterpret a raw bit pattern as an `f32`.
#[inline]
pub fn bits_to_f32(w: u32) -> f32 {
    f32::from_bits(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ops_index_is_consistent() {
        for (i, op) in ALL_OPS.iter().enumerate() {
            assert_eq!(op.index(), i, "index mismatch for {op}");
        }
    }

    #[test]
    fn float_bit_roundtrip() {
        for x in [0.0f32, -1.5, 3.25e7, f32::MIN_POSITIVE] {
            assert_eq!(bits_to_f32(f32_to_bits(x)), x);
        }
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg(7).to_string(), "r7");
        assert_eq!(Reg(7).idx(), 7);
    }

    #[test]
    fn op_display_nonempty() {
        for op in ALL_OPS {
            assert!(!op.to_string().is_empty());
        }
    }
}
