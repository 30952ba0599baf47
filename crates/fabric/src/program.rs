//! Program construction: a tiny assembler with label fix-ups.

use crate::isa::{f32_to_bits, Instr, Op, Reg, NUM_REGS};

// Register sets are `u64` bitmasks below.
const _: () = assert!(NUM_REGS <= 64);

/// A forward-referenceable branch target created by
/// [`ProgramBuilder::new_label`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A validated, immutable fabric program.
///
/// Programs are built with [`ProgramBuilder`] which resolves labels and
/// validates register indices and branch targets, so executing a `Program`
/// can never fault on malformed encodings (only on data-dependent traps).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
    rows: RowLayout,
}

impl Default for Program {
    fn default() -> Self {
        ProgramBuilder::new().build()
    }
}

impl Program {
    /// The instructions of this program.
    #[inline]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The lockstep engine's register-row layout of this program.
    #[inline]
    pub(crate) fn rows(&self) -> &RowLayout {
        &self.rows
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program contains no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Slot marker for a register a program never names.
pub(crate) const UNNAMED: u8 = u8::MAX;

/// How the lockstep engine lays out a program's registers, fixed when the
/// program is built so that no launch re-scans it.
///
/// Every register the program names (in any operand field, used or not)
/// gets a dense row slot. Most rows need no zero-fill at tile entry: a
/// register whose first appearance on the program's *branch-free prefix*
/// is as a destination is written on every lane before any lane can read
/// it. The prefix is the instructions before the first branch and before
/// the lowest branch target, so every lane of a tile runs it converged
/// and exactly once, and the write is a full-width one. Every other
/// register — one read first on the prefix, one first touched after it,
/// and one never written, such as a zero register — keeps the zeroed row
/// the thread-major engine's fresh register file gives it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RowLayout {
    /// Dense row slot of each register the program names (`UNNAMED`
    /// otherwise).
    pub(crate) slot: [u8; NUM_REGS],
    /// Number of named registers.
    pub(crate) named: usize,
    /// Slots `0..zeroed` are the registers a lane may read before it
    /// writes them: the only rows a tile zero-fills.
    pub(crate) zeroed: usize,
}

impl RowLayout {
    fn of(instrs: &[Instr]) -> Self {
        let bit = |r: Reg| 1u64 << r.idx();
        let is_branch = |ins: &Instr| matches!(ins.op, Op::Jmp | Op::Jz | Op::Jnz);
        let first_branch = instrs.iter().position(is_branch).unwrap_or(instrs.len());
        let lowest_target = instrs
            .iter()
            .filter(|ins| is_branch(ins))
            .map(|ins| ins.imm as usize)
            .min()
            .unwrap_or(usize::MAX);
        let (mut named, mut written, mut read_first) = (0u64, 0u64, 0u64);
        for ins in instrs {
            for r in [ins.dst, ins.a, ins.b, ins.c] {
                named |= bit(r);
            }
        }
        for ins in &instrs[..first_branch.min(lowest_target)] {
            for &r in &[ins.a, ins.b, ins.c][..ins.op.sources()] {
                if written & bit(r) == 0 {
                    read_first |= bit(r);
                }
            }
            if ins.op.writes() {
                written |= bit(ins.dst);
            }
        }
        let defined = written & !read_first;
        let zeroed = named & !defined;
        let mut slot = [UNNAMED; NUM_REGS];
        let mut n = 0u8;
        for set in [zeroed, defined] {
            for (r, s) in slot.iter_mut().enumerate() {
                if set >> r & 1 == 1 {
                    *s = n;
                    n += 1;
                }
            }
        }
        RowLayout { slot, named: n as usize, zeroed: zeroed.count_ones() as usize }
    }
}

/// Incremental builder for fabric [`Program`]s.
///
/// # Example
///
/// ```
/// use diverseav_fabric::{ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let loop_top = b.new_label();
/// b.ldimm_i(Reg(0), 10);
/// b.bind(loop_top);
/// b.ldimm_i(Reg(1), 1);
/// b.isub(Reg(0), Reg(0), Reg(1));
/// b.jnz(Reg(0), loop_top);
/// b.halt();
/// let prog = b.build();
/// assert!(prog.len() > 0);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: Vec<Option<usize>>,
    /// (instruction index, label) pairs awaiting resolution.
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction offset (useful for size accounting in tests).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Allocate a label that can be bound later with [`bind`](Self::bind).
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current instruction offset.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.instrs.len());
    }

    fn check_reg(r: Reg) -> Reg {
        assert!(r.idx() < NUM_REGS, "register {r} out of range");
        r
    }

    fn push(&mut self, op: Op, dst: Reg, a: Reg, b: Reg, c: Reg, imm: u32) {
        self.instrs.push(Instr::new(
            op,
            Self::check_reg(dst),
            Self::check_reg(a),
            Self::check_reg(b),
            Self::check_reg(c),
            imm,
        ));
    }

    fn push_jump(&mut self, op: Op, cond: Reg, label: Label) {
        self.fixups.push((self.instrs.len(), label));
        self.push(op, Reg(0), cond, Reg(0), Reg(0), u32::MAX);
    }

    /// Resolve all labels and return the finished program.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn build(mut self) -> Program {
        for (at, label) in self.fixups.drain(..) {
            let target = self.labels[label.0].expect("jump to unbound label");
            self.instrs[at].imm = target as u32;
        }
        let rows = RowLayout::of(&self.instrs);
        Program { instrs: self.instrs, rows }
    }

    // --- float ALU ---

    /// `dst = a + b` (f32)
    pub fn fadd(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::FAdd, dst, a, b, Reg(0), 0);
    }
    /// `dst = a - b` (f32)
    pub fn fsub(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::FSub, dst, a, b, Reg(0), 0);
    }
    /// `dst = a * b` (f32)
    pub fn fmul(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::FMul, dst, a, b, Reg(0), 0);
    }
    /// `dst = a / b` (f32)
    pub fn fdiv(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::FDiv, dst, a, b, Reg(0), 0);
    }
    /// `dst = min(a, b)` (f32)
    pub fn fmin(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::FMin, dst, a, b, Reg(0), 0);
    }
    /// `dst = max(a, b)` (f32)
    pub fn fmax(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::FMax, dst, a, b, Reg(0), 0);
    }
    /// `dst = |a|` (f32)
    pub fn fabs(&mut self, dst: Reg, a: Reg) {
        self.push(Op::FAbs, dst, a, Reg(0), Reg(0), 0);
    }
    /// `dst = -a` (f32)
    pub fn fneg(&mut self, dst: Reg, a: Reg) {
        self.push(Op::FNeg, dst, a, Reg(0), Reg(0), 0);
    }
    /// `dst = sqrt(a)` (f32)
    pub fn fsqrt(&mut self, dst: Reg, a: Reg) {
        self.push(Op::FSqrt, dst, a, Reg(0), Reg(0), 0);
    }
    /// `dst = a * b + c` (f32)
    pub fn ffma(&mut self, dst: Reg, a: Reg, b: Reg, c: Reg) {
        self.push(Op::FFma, dst, a, b, c, 0);
    }

    // --- integer ALU ---

    /// `dst = a + b` (u32, wrapping)
    pub fn iadd(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IAdd, dst, a, b, Reg(0), 0);
    }
    /// `dst = a - b` (u32, wrapping)
    pub fn isub(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::ISub, dst, a, b, Reg(0), 0);
    }
    /// `dst = a * b` (u32, wrapping)
    pub fn imul(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IMul, dst, a, b, Reg(0), 0);
    }
    /// `dst = a & b`
    pub fn iand(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IAnd, dst, a, b, Reg(0), 0);
    }
    /// `dst = a | b`
    pub fn ior(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IOr, dst, a, b, Reg(0), 0);
    }
    /// `dst = a ^ b`
    pub fn ixor(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IXor, dst, a, b, Reg(0), 0);
    }
    /// `dst = a << (b & 31)`
    pub fn ishl(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IShl, dst, a, b, Reg(0), 0);
    }
    /// `dst = a >> (b & 31)`
    pub fn ishr(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IShr, dst, a, b, Reg(0), 0);
    }

    // --- compares & select ---

    /// `dst = (a < b) as u32` (f32)
    pub fn flt(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::FLt, dst, a, b, Reg(0), 0);
    }
    /// `dst = (a < b) as u32` (u32)
    pub fn ilt(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::ILt, dst, a, b, Reg(0), 0);
    }
    /// `dst = (a == b) as u32` (u32)
    pub fn ieq(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.push(Op::IEq, dst, a, b, Reg(0), 0);
    }
    /// `dst = if cond != 0 { a } else { b }`
    pub fn sel(&mut self, dst: Reg, cond: Reg, a: Reg, b: Reg) {
        self.push(Op::Sel, dst, cond, a, b, 0);
    }

    // --- moves & immediates ---

    /// `dst = a`
    pub fn mov(&mut self, dst: Reg, a: Reg) {
        self.push(Op::Mov, dst, a, Reg(0), Reg(0), 0);
    }
    /// `dst = imm` (f32 payload)
    pub fn ldimm_f(&mut self, dst: Reg, imm: f32) {
        self.push(Op::LdImm, dst, Reg(0), Reg(0), Reg(0), f32_to_bits(imm));
    }
    /// `dst = imm` (raw u32 payload)
    pub fn ldimm_i(&mut self, dst: Reg, imm: u32) {
        self.push(Op::LdImm, dst, Reg(0), Reg(0), Reg(0), imm);
    }

    // --- memory ---

    /// `dst = mem[a + offset]`
    pub fn ld(&mut self, dst: Reg, addr: Reg, offset: u32) {
        self.push(Op::Ld, dst, addr, Reg(0), Reg(0), offset);
    }
    /// `mem[a + offset] = b`
    pub fn st(&mut self, addr: Reg, src: Reg, offset: u32) {
        self.push(Op::St, Reg(0), addr, src, Reg(0), offset);
    }

    // --- control flow ---

    /// unconditional jump
    pub fn jmp(&mut self, target: Label) {
        self.push_jump(Op::Jmp, Reg(0), target);
    }
    /// jump if `cond == 0`
    pub fn jz(&mut self, cond: Reg, target: Label) {
        self.push_jump(Op::Jz, cond, target);
    }
    /// jump if `cond != 0`
    pub fn jnz(&mut self, cond: Reg, target: Label) {
        self.push_jump(Op::Jnz, cond, target);
    }

    // --- conversions & misc ---

    /// `dst = a as u32` (f32 → u32, saturating at 0 and `u32::MAX`)
    pub fn f2i(&mut self, dst: Reg, a: Reg) {
        self.push(Op::F2I, dst, a, Reg(0), Reg(0), 0);
    }
    /// `dst = a as f32`
    pub fn i2f(&mut self, dst: Reg, a: Reg) {
        self.push(Op::I2F, dst, a, Reg(0), Reg(0), 0);
    }
    /// `dst = thread index`
    pub fn tid(&mut self, dst: Reg) {
        self.push(Op::Tid, dst, Reg(0), Reg(0), Reg(0), 0);
    }
    /// stop execution
    pub fn halt(&mut self) {
        self.push(Op::Halt, Reg(0), Reg(0), Reg(0), Reg(0), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_fixups_resolve() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        b.jmp(end);
        b.ldimm_i(Reg(0), 42);
        b.bind(end);
        b.halt();
        let p = b.build();
        assert_eq!(p.instrs()[0].imm, 2, "jump should target the halt");
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.jmp(l);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_register_panics() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(64), Reg(0));
    }

    #[test]
    fn empty_program() {
        let p = ProgramBuilder::new().build();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn row_layout_zero_fills_only_registers_read_before_written() {
        // r1 is written first on the prefix; r2 and r63 are read there
        // first. The loop head at 3 ends the prefix before the first
        // branch, so r3 and r4, first touched at or after it, keep zeroed
        // rows too.
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.ldimm_i(Reg(1), 1);
        b.iadd(Reg(2), Reg(2), Reg(1));
        b.ld(Reg(63), Reg(63), 0);
        b.bind(top);
        b.ldimm_i(Reg(3), 7);
        b.iadd(Reg(4), Reg(3), Reg(1));
        b.jnz(Reg(4), top);
        let rows = b.build().rows;
        let zeroed: Vec<usize> =
            (0..NUM_REGS).filter(|&r| (rows.slot[r] as usize) < rows.zeroed).collect();
        // r0 is named only as an unused operand field and never written.
        assert_eq!(zeroed, [0, 2, 3, 4, 63]);
        assert_eq!(rows.named, 6);
        assert_eq!(rows.slot[5], UNNAMED);
    }

    #[test]
    fn ldimm_f_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(Reg(1), -2.5);
        let p = b.build();
        assert_eq!(f32::from_bits(p.instrs()[0].imm), -2.5);
    }
}
