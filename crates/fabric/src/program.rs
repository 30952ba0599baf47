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
    facts: Vec<LaneFacts>,
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

    /// The lockstep engine's lane facts, one per instruction.
    #[inline]
    pub(crate) fn facts(&self) -> &[LaneFacts] {
        &self.facts
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
    /// The layout of `instrs`, and the registers whose rows a tile
    /// zero-fills as a bitmask.
    fn of(instrs: &[Instr]) -> (Self, u64) {
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
        let layout = RowLayout { slot, named: n as usize, zeroed: zeroed.count_ones() as usize };
        (layout, zeroed)
    }
}

/// How one register's row looks across the lanes of a converged tile.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Nothing is proven.
    Unknown,
    /// Every lane holds the same word.
    Uniform,
    /// Lane `l` holds `lane0 + l`, wrapping.
    Consecutive,
}

/// What the lockstep engine may assume about one instruction whenever a
/// tile executes it converged, proven once when the program is built.
///
/// The shapes come from a forward dataflow fixpoint over the program's
/// control-flow graph. At entry a register whose row the tile zero-fills
/// is `Uniform` and every other register is `Unknown`. `Tid` writes a
/// `Consecutive` row and `LdImm` a `Uniform` one; `Mov` copies its
/// source's shape; `IAdd` of two `Uniform` rows is `Uniform` and of a
/// `Uniform` and a `Consecutive` row (either order) `Consecutive`; `ISub`
/// of two `Uniform` rows is `Uniform` and `Consecutive − Uniform` is
/// `Consecutive`; every other writing opcode (a load from a `Uniform`
/// address included) is `Uniform` when all its sources are, else
/// `Unknown`. Where paths join, equal shapes stay and unequal ones become
/// `Unknown`. A tile executing converged has followed one path of that
/// graph with every lane, so the facts hold on it exactly as long as every
/// write computes what the opcode says (see `LaneFault::trust` in `vm.rs`
/// for the fault modes that break them).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct LaneFacts {
    /// Shape of the `a` operand: a load's or store's address register, a
    /// conditional branch's condition.
    pub(crate) a: Shape,
    /// A store that no store can precede and no load or store can follow
    /// on any path: no store-owner entry is live when it executes and none
    /// is read after it.
    pub(crate) lone_store: bool,
}

impl LaneFacts {
    /// Fact of an instruction no path reaches: never used.
    const NONE: LaneFacts = LaneFacts { a: Shape::Unknown, lone_store: false };

    /// The facts of every instruction of `instrs`, whose tiles zero-fill
    /// the rows of the registers in the bitmask `zeroed`: the shape
    /// fixpoint, then one backward pass for the lone-store rule. Each pass
    /// sweeps the program in order (in reverse for the backward one), which
    /// settles every forward edge at once, and sweeps again only when a
    /// backward edge carried a change.
    fn of(instrs: &[Instr], zeroed: u64) -> Vec<LaneFacts> {
        let n = instrs.len();
        // The state before each instruction, and whether it changed since
        // the instruction last ran.
        let mut at = vec![Flow::UNREACHED; n];
        let mut dirty = vec![false; n];
        if n > 0 {
            at[0] = Flow { uniform: zeroed, consecutive: 0, stored: false };
            dirty[0] = true;
        }
        let mut again = true;
        while again {
            again = false;
            for pc in 0..n {
                if !std::mem::take(&mut dirty[pc]) {
                    continue;
                }
                let out = at[pc].step(&instrs[pc]);
                for s in successors(instrs, pc) {
                    let joined = at[s].join(out);
                    if at[s] != joined {
                        at[s] = joined;
                        dirty[s] = true;
                        again |= s <= pc;
                    }
                }
            }
        }
        // Whether a load or store may execute after each instruction. When
        // that becomes true of a backward branch's target, the branch (at a
        // later pc, already swept) must be looked at again.
        let mut back_target = vec![false; n];
        for (pc, ins) in instrs.iter().enumerate() {
            if matches!(ins.op, Op::Jmp | Op::Jz | Op::Jnz) && (ins.imm as usize) <= pc {
                back_target[ins.imm as usize] = true;
            }
        }
        let accesses = |pc: usize| matches!(instrs[pc].op, Op::Ld | Op::St);
        let mut followed = vec![false; n];
        again = true;
        while again {
            again = false;
            for pc in (0..n).rev() {
                if !followed[pc] && successors(instrs, pc).any(|s| accesses(s) || followed[s]) {
                    followed[pc] = true;
                    again |= back_target[pc];
                }
            }
        }
        instrs
            .iter()
            .zip(at)
            .zip(followed)
            .map(|((ins, flow), followed)| {
                if !flow.reached() {
                    return LaneFacts::NONE;
                }
                LaneFacts {
                    a: flow.shape(ins.a),
                    lone_store: ins.op == Op::St && !flow.stored && !followed,
                }
            })
            .collect()
    }
}

/// The instructions that may execute right after `instrs[pc]`. A jump
/// target or fall-through at `instrs.len()` is the implicit halt, and the
/// builder resolves every target to at most that.
#[inline(always)]
fn successors(instrs: &[Instr], pc: usize) -> impl Iterator<Item = usize> {
    let ins = instrs[pc];
    let next = (!matches!(ins.op, Op::Jmp | Op::Halt)).then_some(pc + 1);
    let target = matches!(ins.op, Op::Jmp | Op::Jz | Op::Jnz).then_some(ins.imm as usize);
    let n = instrs.len();
    next.into_iter().chain(target).filter(move |&s| s < n)
}

/// The dataflow state before one instruction: the registers proven
/// `Uniform` and those proven `Consecutive` (disjoint bitmasks on every
/// path), and whether a store may have executed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Flow {
    uniform: u64,
    consecutive: u64,
    stored: bool,
}

impl Flow {
    /// The state of an instruction no path reaches yet: every register in
    /// both sets, so that it joins with any state to that state.
    const UNREACHED: Flow = Flow { uniform: u64::MAX, consecutive: u64::MAX, stored: false };

    /// Whether some path reaches this state: only `UNREACHED` has a
    /// register in both sets.
    fn reached(&self) -> bool {
        self.uniform & self.consecutive == 0
    }

    fn shape(&self, r: Reg) -> Shape {
        if self.uniform >> r.idx() & 1 == 1 {
            Shape::Uniform
        } else if self.consecutive >> r.idx() & 1 == 1 {
            Shape::Consecutive
        } else {
            Shape::Unknown
        }
    }

    /// The state where paths from `self` and `other` meet.
    fn join(self, other: Flow) -> Flow {
        Flow {
            uniform: self.uniform & other.uniform,
            consecutive: self.consecutive & other.consecutive,
            stored: self.stored | other.stored,
        }
    }

    /// The state after `ins` executes.
    fn step(mut self, ins: &Instr) -> Flow {
        use Shape::{Consecutive, Uniform, Unknown};
        self.stored |= ins.op == Op::St;
        if !ins.op.writes() {
            return self;
        }
        let (a, b) = (self.shape(ins.a), self.shape(ins.b));
        let shape = match ins.op {
            Op::Tid => Consecutive,
            Op::LdImm => Uniform,
            Op::Mov => a,
            Op::IAdd => match (a, b) {
                (Uniform, Uniform) => Uniform,
                (Uniform, Consecutive) | (Consecutive, Uniform) => Consecutive,
                _ => Unknown,
            },
            Op::ISub => match (a, b) {
                (Uniform, Uniform) => Uniform,
                (Consecutive, Uniform) => Consecutive,
                _ => Unknown,
            },
            op => {
                let sources = &[ins.a, ins.b, ins.c][..op.sources()];
                if sources.iter().all(|&r| self.shape(r) == Uniform) {
                    Uniform
                } else {
                    Unknown
                }
            }
        };
        let bit = 1u64 << ins.dst.idx();
        self.uniform &= !bit;
        self.consecutive &= !bit;
        match shape {
            Uniform => self.uniform |= bit,
            Consecutive => self.consecutive |= bit,
            Unknown => {}
        }
        self
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
        let (rows, zeroed) = RowLayout::of(&self.instrs);
        let facts = LaneFacts::of(&self.instrs, zeroed);
        Program { instrs: self.instrs, rows, facts }
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

    /// The shape of each listed register's row at the end of the program,
    /// read off one probe store per register (`st reg, r0`) appended to
    /// `b`; the probes sit in a branch-free tail, so they see one state.
    fn shapes_at_end(mut b: ProgramBuilder, regs: &[u8]) -> Vec<Shape> {
        let at = b.here();
        for &r in regs {
            b.st(Reg(r), Reg(0), 0);
        }
        let prog = b.build();
        prog.facts[at..].iter().map(|f| f.a).collect()
    }

    #[test]
    fn lane_shapes_follow_the_transfer_rules() {
        use Shape::{Consecutive as C, Uniform as U, Unknown as X};
        let mut b = ProgramBuilder::new();
        b.tid(Reg(1));
        b.ldimm_i(Reg(2), 7);
        b.mov(Reg(3), Reg(1));
        b.iadd(Reg(4), Reg(2), Reg(1)); // U + C
        b.iadd(Reg(5), Reg(1), Reg(2)); // C + U
        b.iadd(Reg(6), Reg(1), Reg(1)); // C + C
        b.isub(Reg(7), Reg(1), Reg(2)); // C − U
        b.isub(Reg(8), Reg(2), Reg(1)); // U − C
        b.isub(Reg(9), Reg(2), Reg(2)); // U − U
        b.ld(Reg(10), Reg(2), 0); // load from a uniform address
        b.ld(Reg(11), Reg(1), 0); // load from a consecutive one
        b.fmul(Reg(12), Reg(2), Reg(10)); // every source uniform
        b.imul(Reg(13), Reg(1), Reg(2)); // a consecutive source
        b.sel(Reg(14), Reg(2), Reg(9), Reg(63)); // r63: zero-filled, uniform
        b.i2f(Reg(15), Reg(4));
        let regs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 63];
        assert_eq!(shapes_at_end(b, &regs), [C, U, C, C, C, X, C, X, U, U, X, U, X, U, X, U]);
    }

    #[test]
    fn joins_keep_only_equal_shapes() {
        use Shape::{Consecutive as C, Uniform as U, Unknown as X};
        // A diamond: each register gets one definition on each arm.
        let mut b = ProgramBuilder::new();
        let (other, join) = (b.new_label(), b.new_label());
        b.ldimm_i(Reg(1), 0);
        b.jz(Reg(1), other);
        b.ldimm_i(Reg(2), 5); // U | U
        b.tid(Reg(3)); // C | C
        b.ldimm_i(Reg(4), 5); // U | C
        b.tid(Reg(5)); // C | X
        b.jmp(join);
        b.bind(other);
        b.ldimm_i(Reg(2), 6);
        b.tid(Reg(3));
        b.tid(Reg(4));
        b.imul(Reg(5), Reg(5), Reg(5));
        b.bind(join);
        assert_eq!(shapes_at_end(b, &[2, 3, 4, 5]), [U, C, X, X]);

        // A loop: a uniform counter stays uniform, while a register that
        // enters uniform and is redefined consecutive is unknown at the top.
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.ldimm_i(Reg(1), 4);
        b.ldimm_i(Reg(2), 1);
        b.ldimm_i(Reg(3), 100);
        b.bind(top);
        let head = b.here();
        b.ld(Reg(4), Reg(3), 0);
        b.tid(Reg(3));
        b.isub(Reg(1), Reg(1), Reg(2));
        b.jnz(Reg(1), top);
        let prog = b.build();
        assert_eq!(prog.facts[head].a, X, "r3 at the loop head");
        assert_eq!(prog.facts[head + 3].a, U, "the loop condition r1");
    }

    #[test]
    fn lone_stores_have_no_store_before_and_no_access_after() {
        let lone = |prog: &Program| -> Vec<usize> {
            (0..prog.len()).filter(|&pc| prog.facts[pc].lone_store).collect()
        };
        // One final store is lone; of two in a row, neither is.
        let mut b = ProgramBuilder::new();
        b.tid(Reg(0));
        b.ld(Reg(1), Reg(0), 0);
        b.st(Reg(0), Reg(1), 64);
        assert_eq!(lone(&b.build()), [2]);
        let mut b = ProgramBuilder::new();
        b.tid(Reg(0));
        b.st(Reg(0), Reg(0), 0);
        b.st(Reg(0), Reg(0), 64);
        assert_eq!(lone(&b.build()), [] as [usize; 0]);

        // Stores on the two arms of a branch never meet: both are lone.
        let mut b = ProgramBuilder::new();
        let (other, end) = (b.new_label(), b.new_label());
        b.tid(Reg(0));
        b.jz(Reg(0), other);
        b.st(Reg(0), Reg(0), 0);
        b.jmp(end);
        b.bind(other);
        b.st(Reg(0), Reg(0), 64);
        b.bind(end);
        b.halt();
        assert_eq!(lone(&b.build()), [2, 4]);

        // A store in a loop precedes itself.
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.tid(Reg(0));
        b.bind(top);
        b.st(Reg(0), Reg(0), 0);
        b.jnz(Reg(1), top);
        assert_eq!(lone(&b.build()), [] as [usize; 0]);

        // The store at 0 is followed by the load at 3 through a loop
        // entered at its bottom: the backward pass must carry the load up
        // through the branch at 4 to its target at 2, then on to 1 and 0.
        let mut b = ProgramBuilder::new();
        let (top, bottom) = (b.new_label(), b.new_label());
        b.st(Reg(0), Reg(0), 0);
        b.jmp(bottom);
        b.bind(top);
        b.ldimm_i(Reg(1), 0);
        b.ld(Reg(2), Reg(1), 0);
        b.bind(bottom);
        b.jnz(Reg(3), top);
        b.halt();
        assert_eq!(lone(&b.build()), [] as [usize; 0]);
    }

    #[test]
    fn ldimm_f_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(Reg(1), -2.5);
        let p = b.build();
        assert_eq!(f32::from_bits(p.instrs()[0].imm), -2.5);
    }
}
