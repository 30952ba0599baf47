//! The fabric interpreter: scalar (CPU-profile) and data-parallel
//! (GPU-profile) execution with trap semantics and fault injection.

use crate::fault::{FaultModel, FaultState};
use crate::isa::{bits_to_f32, f32_to_bits, Instr, Op, Reg, ALL_OPS, NUM_REGS};
use crate::program::Program;
use crate::stats::ExecStats;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Which processing element a fabric models.
///
/// The profiles share an ISA; the distinction selects the fault-injection
/// *target* (the paper's "CPU vs GPU" injection-site axis) and labels the
/// resource accounting of Table II.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Profile {
    /// Scalar control/glue processor (PinFI target analogue).
    Cpu,
    /// Data-parallel numeric processor (NVBitFI target analogue).
    Gpu,
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Profile::Cpu => write!(f, "CPU"),
            Profile::Gpu => write!(f, "GPU"),
        }
    }
}

/// Abnormal termination of a fabric execution.
///
/// Traps are the fabric-level manifestation of the paper's *crash*
/// (`OutOfBounds`, `InvalidTarget`) and *hang* (`Watchdog`) outcome classes:
/// corrupted address registers fault on access, and corrupted loop counters
/// exhaust the watchdog budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// A load or store addressed memory outside the context.
    OutOfBounds {
        /// The offending word address.
        addr: u32,
    },
    /// A branch targeted an address outside the program.
    InvalidTarget {
        /// The offending target.
        target: u32,
    },
    /// The instruction budget was exhausted (hang detector).
    Watchdog,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfBounds { addr } => write!(f, "out-of-bounds access at word {addr}"),
            Trap::InvalidTarget { target } => write!(f, "invalid branch target {target}"),
            Trap::Watchdog => write!(f, "watchdog budget exhausted"),
        }
    }
}

impl Error for Trap {}

/// An execution context: word-addressed memory plus a persistent scalar
/// register file.
///
/// Each agent owns its own contexts (its *private state*, in the paper's
/// terms) while the [`Fabric`] — the shared processor — owns the fault state
/// and instruction counters.
#[derive(Clone, Debug, PartialEq)]
pub struct Context {
    /// Word-addressed memory (raw 32-bit words).
    pub mem: Vec<u32>,
    /// Scalar register file, persisted across `run_scalar` calls.
    pub regs: [u32; NUM_REGS],
}

impl Context {
    /// Create a context with `words` words of zeroed memory.
    pub fn new(words: usize) -> Self {
        Context { mem: vec![0; words], regs: [0; NUM_REGS] }
    }

    /// Read a register as `f32`.
    #[inline]
    pub fn reg_f(&self, r: Reg) -> f32 {
        bits_to_f32(self.regs[r.idx()])
    }

    /// Read a register as raw `u32`.
    #[inline]
    pub fn reg_i(&self, r: Reg) -> u32 {
        self.regs[r.idx()]
    }

    /// Write a register as `f32`.
    #[inline]
    pub fn set_reg_f(&mut self, r: Reg, v: f32) {
        self.regs[r.idx()] = f32_to_bits(v);
    }

    /// Write a register as raw `u32`.
    #[inline]
    pub fn set_reg_i(&mut self, r: Reg, v: u32) {
        self.regs[r.idx()] = v;
    }

    /// Read memory word `addr` as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range (host-side accessor; fabric-side
    /// accesses trap instead).
    #[inline]
    pub fn read_f32(&self, addr: usize) -> f32 {
        bits_to_f32(self.mem[addr])
    }

    /// Write memory word `addr` as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write_f32(&mut self, addr: usize, v: f32) {
        self.mem[addr] = f32_to_bits(v);
    }

    /// Copy a float slice into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn write_slice_f32(&mut self, addr: usize, data: &[f32]) {
        for (i, &v) in data.iter().enumerate() {
            self.mem[addr + i] = f32_to_bits(v);
        }
    }

    /// Read `len` floats starting at `addr`.
    ///
    /// Allocates a fresh vector per call; hot readback paths should use
    /// [`read_slice_f32_into`](Self::read_slice_f32_into) instead to keep
    /// the steady state allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn read_slice_f32(&self, addr: usize, len: usize) -> Vec<f32> {
        self.mem[addr..addr + len].iter().map(|&w| bits_to_f32(w)).collect()
    }

    /// Read `out.len()` floats starting at `addr` into a caller-provided
    /// buffer — the allocation-free counterpart of
    /// [`read_slice_f32`](Self::read_slice_f32) for hot kernel-readback
    /// sites.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn read_slice_f32_into(&self, addr: usize, out: &mut [f32]) {
        let src = &self.mem[addr..addr + out.len()];
        for (o, &w) in out.iter_mut().zip(src) {
            *o = bits_to_f32(w);
        }
    }

    /// Memory footprint in bytes (Table II accounting).
    pub fn bytes(&self) -> usize {
        self.mem.len() * 4 + NUM_REGS * 4
    }
}

/// A processing element: interpreter state shared by everything that runs
/// on this "chip" — the dynamic-instruction counter, execution statistics,
/// and at most one injected fault.
///
/// Sharing one `Fabric` between DiverseAV's two agents is what makes a
/// *permanent* fault affect both agents (they time-multiplex the same
/// processor), while a *transient* fault lands in whichever agent happens to
/// execute the targeted dynamic instruction — exactly the paper's §VI-A
/// independence argument.
#[derive(Clone, Debug)]
pub struct Fabric {
    profile: Profile,
    stats: ExecStats,
    fault: Option<FaultState>,
    dyn_counter: u64,
    scratch: LockstepScratch,
    counters: LockstepCounters,
}

/// Tile width of the lockstep kernel engine behind
/// [`Fabric::run_kernel`].
///
/// A tile is the unit of lockstep execution, conflict tracking and
/// rollback: one fetch/decode per step drives every lane of the tile, so a
/// wider tile spreads the per-step and per-tile bookkeeping over more
/// threads, while an abort replays only its own tile on the scalar
/// interpreter. The value was picked by measuring the agent's kernels
/// (`fabric.*.lockstep_us` in `perfbench`); at this width a tile's register
/// rows (named registers × tile width words) stay well inside L2.
pub const KERNEL_TILE: usize = 256;

/// Silent-fallback counters of the lockstep kernel engine, accumulated
/// since the fabric was created.
///
/// They describe how the engine ran, never what it computed: every tile
/// the engine gives up on is replayed bit-identically on the scalar
/// interpreter, so these counters are kept out of [`ExecStats`] and out of
/// every deterministic artifact.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LockstepCounters {
    /// Tiles whose lockstep execution committed.
    pub tiles_committed: u64,
    /// Tiles aborted on a (conservatively detected) cross-lane memory
    /// conflict.
    pub conflict_aborts: u64,
    /// Tiles aborted because a lane would trap or exhaust the watchdog.
    pub trap_aborts: u64,
    /// Threads replayed on the scalar interpreter after an abort.
    pub threads_replayed: u64,
    /// Tiles re-run to realize a transient fault on its exact lane.
    pub transient_reruns: u64,
}

/// Memory-ordering state of one lockstep tile: an epoch-tagged store-owner
/// map over context memory, two load-interval summaries, and an undo log
/// for rollback. All buffers keep their capacity across tiles, so
/// steady-state kernel launches stay allocation-free.
///
/// Loads are deliberately *not* tracked per word. They only record two
/// address intervals for the tile — `[load_lo, load_hi]` for lane-varying
/// loads and `[uload_lo, uload_hi]` for uniform broadcast loads — and a
/// store landing inside either interval aborts to the exact scalar path
/// instead of consulting a per-word load map. That is strictly more
/// conservative than precise tracking, and aborting is always
/// semantics-preserving (rollback + scalar replay). In exchange the
/// dominant operation of real kernels, the load, costs no map traffic at
/// all. Two intervals instead of one because real layouts put uniform
/// constants (parameter blocks, LUTs) at the far end of memory, past the
/// output planes: one interval would span the outputs and force every
/// store to abort. Kernels that genuinely read and write the same region in
/// one program (the agent's 1-thread planning kernel with its history
/// buffer) simply run scalar.
#[derive(Clone, Debug, Default)]
struct TileLog {
    /// Current tile epoch (never 0); an owner entry is live only if its
    /// upper 16 bits match.
    epoch: u16,
    /// Store-owner map: per word, `epoch << 16 | lane` packed into one
    /// entry so an ownership probe is a single load.
    owner: Vec<u32>,
    /// Lowest / highest word address covered by lane-varying loads this
    /// tile (`lo > hi` when empty).
    load_lo: usize,
    load_hi: usize,
    /// Lowest / highest word address covered by uniform broadcast loads
    /// this tile (`lo > hi` when empty).
    uload_lo: usize,
    uload_hi: usize,
    /// `(addr, len)` of every store run this tile, in execution order;
    /// popped in reverse to roll the tile back.
    undo: Vec<(u32, u32)>,
    /// The words each undo run overwrote, concatenated in run order.
    undo_words: Vec<u32>,
}

impl TileLog {
    /// Open a new tile epoch over a context of `words` memory words.
    fn begin(&mut self, words: usize) {
        if self.owner.len() < words {
            self.owner.resize(words, 0);
        }
        self.undo.clear();
        self.undo_words.clear();
        self.load_lo = usize::MAX;
        self.load_hi = 0;
        self.uload_lo = usize::MAX;
        self.uload_hi = 0;
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: stale entries could alias the new epoch, so
                // clear the map once every 2^16 tiles.
                self.owner.fill(0);
                1
            }
        };
    }

    /// Whether any store landed this tile (otherwise the owner map holds
    /// no live entries and loads need no probe).
    #[inline]
    fn stored(&self) -> bool {
        !self.undo.is_empty()
    }

    /// Whether `entry` is live this tile and owned by a lane other than
    /// `lane`.
    #[inline]
    fn foreign(&self, entry: u32, lane: usize) -> bool {
        entry >> 16 == self.epoch as u32 && entry & 0xFFFF != lane as u32
    }

    /// Whether any lane stored to `addr` this tile.
    #[inline]
    fn owned(&self, addr: usize) -> bool {
        self.owner[addr] >> 16 == self.epoch as u32
    }

    /// Whether lane `l` of a run load at `start + l` reads a word another
    /// lane stored this tile, for any of `len` lanes.
    fn run_conflicts(&self, start: usize, len: usize) -> bool {
        if !self.stored() {
            return false;
        }
        let mut conflict = false;
        for (l, &e) in self.owner[start..start + len].iter().enumerate() {
            conflict |= self.foreign(e, l);
        }
        conflict
    }

    /// Widen the tile's lane-varying load interval to cover `[lo, hi]`.
    #[inline]
    fn note_load_range(&mut self, lo: usize, hi: usize) {
        self.load_lo = self.load_lo.min(lo);
        self.load_hi = self.load_hi.max(hi);
    }

    /// Widen the tile's uniform-load interval to cover `addr`.
    #[inline]
    fn note_uniform_load(&mut self, addr: usize) {
        self.uload_lo = self.uload_lo.min(addr);
        self.uload_hi = self.uload_hi.max(addr);
    }

    /// Whether `[lo, hi]` overlaps either load interval of this tile.
    #[inline]
    fn overlaps_loads(&self, lo: usize, hi: usize) -> bool {
        (lo <= self.load_hi && self.load_lo <= hi) || (lo <= self.uload_hi && self.uload_lo <= hi)
    }

    /// Store `val` to `mem[addr]` for `lane`, logging the old word.
    ///
    /// # Errors
    ///
    /// [`Abort::Trap`] if `addr` is out of bounds, [`Abort::Conflict`] if
    /// any load this tile may have read the word or another lane stored to
    /// it.
    #[inline]
    fn store(&mut self, mem: &mut [u32], addr: usize, lane: usize, val: u32) -> Result<(), Abort> {
        if addr >= mem.len() {
            // Scalar path raises OutOfBounds { addr }.
            return Err(Abort::Trap);
        }
        if self.overlaps_loads(addr, addr) || self.foreign(self.owner[addr], lane) {
            return Err(Abort::Conflict);
        }
        self.owner[addr] = (self.epoch as u32) << 16 | lane as u32;
        self.undo.push((addr as u32, 1));
        self.undo_words.push(mem[addr]);
        mem[addr] = val;
        Ok(())
    }

    /// Store lane `l`'s `vals[l]` to `mem[start + l]` for every lane: one
    /// interval test, one owner-map pass, one undo extend, one slice copy.
    /// The caller guarantees the run is in bounds.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] exactly when a per-lane [`store`](Self::store)
    /// of any lane would conflict.
    fn store_run(&mut self, mem: &mut [u32], start: usize, vals: &[u32]) -> Result<(), Abort> {
        let end = start + vals.len();
        if self.overlaps_loads(start, end - 1) {
            return Err(Abort::Conflict);
        }
        let live = self.epoch as u32;
        let tag = live << 16;
        let mut conflict = false;
        for (l, e) in self.owner[start..end].iter_mut().enumerate() {
            conflict |= *e >> 16 == live && *e & 0xFFFF != l as u32;
            *e = tag | l as u32;
        }
        if conflict {
            return Err(Abort::Conflict);
        }
        self.undo.push((start as u32, vals.len() as u32));
        self.undo_words.extend_from_slice(&mem[start..end]);
        mem[start..end].copy_from_slice(vals);
        Ok(())
    }

    /// Undo every store of the current tile, newest first.
    fn rollback(&mut self, mem: &mut [u32]) {
        while let Some((addr, len)) = self.undo.pop() {
            let (addr, len) = (addr as usize, len as usize);
            let from = self.undo_words.len() - len;
            mem[addr..addr + len].copy_from_slice(&self.undo_words[from..]);
            self.undo_words.truncate(from);
        }
    }
}

/// Slot marker for a register the bound program never names.
const UNNAMED: u8 = u8::MAX;

/// Per-fabric scratch of the lockstep tile engine: the memory-ordering log,
/// a dense register file holding one row per register the program names,
/// per-lane divergence state, and the tile's deferred instruction
/// accounting. Every buffer keeps its capacity across tiles and launches.
#[derive(Clone, Debug)]
struct LockstepScratch {
    log: TileLog,
    /// Lane-executions per opcode in the current tile; folded into
    /// [`ExecStats`] and the dynamic-instruction counter only on commit.
    op_counts: [u64; ALL_OPS.len()],
    /// Dense slot of each register the bound program names (`UNNAMED`
    /// otherwise).
    slot: [u8; NUM_REGS],
    /// Number of named registers of the bound program.
    nslots: usize,
    /// Register rows, `rows[slot][lane]`; every row (and `spare`) has the
    /// same length, the widest tile bound so far, so that swapping rows
    /// never leaves a short one behind.
    rows: Vec<Vec<u32>>,
    /// Value row of the current step. A converged write swaps it with the
    /// destination row instead of copying.
    spare: Vec<u32>,
    /// Per-lane program counters, instruction counts, liveness and step
    /// mask — materialized only once a tile diverges.
    pc: Vec<u32>,
    executed: Vec<u64>,
    live: Vec<bool>,
    active: Vec<bool>,
    /// Per-lane addresses of a scattered load.
    addrs: Vec<u32>,
}

impl Default for LockstepScratch {
    fn default() -> Self {
        LockstepScratch {
            log: TileLog::default(),
            op_counts: [0; ALL_OPS.len()],
            slot: [UNNAMED; NUM_REGS],
            nslots: 0,
            rows: Vec::new(),
            spare: Vec::new(),
            pc: Vec::new(),
            executed: Vec::new(),
            live: Vec::new(),
            active: Vec::new(),
            addrs: Vec::new(),
        }
    }
}

/// Fault realization mode for one lockstep tile.
#[derive(Copy, Clone, Debug)]
enum LaneFault {
    /// No polling this tile: either no fault is armed, a transient fault
    /// targets a dynamic index outside this tile, or this is the probe
    /// pass of a transient fault whose index may land here.
    Inert,
    /// Permanent fault: every active lane executing the target opcode is
    /// corrupted, exactly as every scalar dynamic instance would be.
    Permanent {
        /// Targeted opcode.
        op: Op,
    },
    /// Lane-exact transient pass: only `lane` polls the fault, at its
    /// `local_index`-th executed instruction, reporting the fault's scalar
    /// dynamic index `fire_index` — so the XOR lands on exactly the write
    /// the scalar interpreter would have corrupted.
    Transient { lane: usize, local_index: u64, fire_index: u64 },
}

/// Why a lockstep tile gave up. Either way the caller rolls the tile back
/// and replays it on the scalar reference path, which reproduces the exact
/// partial state and trap the paper's thread-major model requires.
#[derive(Copy, Clone, Debug)]
enum Abort {
    /// A cross-lane memory conflict (conservatively detected).
    Conflict,
    /// A lane would trap or exhaust its watchdog budget.
    Trap,
}

/// Instructions executed per lane by a finished tile.
#[derive(Copy, Clone, Debug)]
enum LaneCounts {
    /// The tile never diverged: every lane executed this many.
    Converged(u64),
    /// The tile diverged: per-lane counts are in `LockstepScratch::executed`.
    Diverged,
}

/// A tile that ran to completion without traps or cross-lane conflicts.
/// Memory effects are applied; instruction accounting is parked in the
/// scratch op counts until the caller commits it.
#[derive(Copy, Clone, Debug)]
struct TileDone {
    /// Total instructions executed, i.e. the dynamic-counter advance.
    dyn_add: u64,
    /// Instructions each lane executed.
    lanes: LaneCounts,
}

/// Address pattern of one tile-wide memory step: lane `l` accesses
/// `a[l] + imm`.
enum Pattern {
    /// Every lane addresses this word (possibly out of bounds).
    Uniform(u32),
    /// Lane `l` addresses `start + l`, every lane in bounds.
    Run(usize),
    /// Anything else, including runs that leave memory.
    Scattered,
}

impl Pattern {
    /// Classify a tile's address row against `words` words of memory.
    #[inline]
    fn of(a: &[u32], imm: u32, words: usize) -> Self {
        let a0 = a[0];
        let (mut uniform, mut run) = (true, true);
        for (l, &x) in a.iter().enumerate() {
            uniform &= x == a0;
            run &= x == a0.wrapping_add(l as u32);
        }
        let start = a0.wrapping_add(imm);
        // A run must not wrap the 32-bit address space: lane `l` addresses
        // `start + l` only while that sum fits.
        let fits = start.checked_add(a.len() as u32 - 1).is_some();
        if uniform {
            Pattern::Uniform(start)
        } else if run && fits && start as usize + a.len() <= words {
            Pattern::Run(start as usize)
        } else {
            Pattern::Scattered
        }
    }
}

/// Compute the value row of a register-writing ALU op (every opcode but
/// loads, stores, branches and halt) for lanes `0..val.len()` of a tile
/// whose first thread is `t0`.
#[inline(always)]
fn alu_row(op: Op, a: &[u32], b: &[u32], c: &[u32], imm: u32, t0: u32, val: &mut [u32]) {
    #[inline(always)]
    fn map1(val: &mut [u32], a: &[u32], f: impl Fn(u32) -> u32) {
        for (v, &x) in val.iter_mut().zip(a) {
            *v = f(x);
        }
    }
    #[inline(always)]
    fn map2(val: &mut [u32], a: &[u32], b: &[u32], f: impl Fn(u32, u32) -> u32) {
        for ((v, &x), &y) in val.iter_mut().zip(a).zip(b) {
            *v = f(x, y);
        }
    }
    #[inline(always)]
    fn fmap2(val: &mut [u32], a: &[u32], b: &[u32], f: impl Fn(f32, f32) -> u32) {
        map2(val, a, b, |x, y| f(bits_to_f32(x), bits_to_f32(y)));
    }

    match op {
        Op::FAdd => fmap2(val, a, b, |x, y| f32_to_bits(x + y)),
        Op::FSub => fmap2(val, a, b, |x, y| f32_to_bits(x - y)),
        Op::FMul => fmap2(val, a, b, |x, y| f32_to_bits(x * y)),
        Op::FDiv => fmap2(val, a, b, |x, y| f32_to_bits(x / y)),
        Op::FMin => fmap2(val, a, b, |x, y| f32_to_bits(x.min(y))),
        Op::FMax => fmap2(val, a, b, |x, y| f32_to_bits(x.max(y))),
        Op::FAbs => map1(val, a, |x| f32_to_bits(bits_to_f32(x).abs())),
        Op::FNeg => map1(val, a, |x| f32_to_bits(-bits_to_f32(x))),
        Op::FSqrt => map1(val, a, |x| f32_to_bits(bits_to_f32(x).sqrt())),
        Op::FFma => {
            for (((v, &x), &y), &z) in val.iter_mut().zip(a).zip(b).zip(c) {
                *v = f32_to_bits(bits_to_f32(x).mul_add(bits_to_f32(y), bits_to_f32(z)));
            }
        }
        Op::IAdd => map2(val, a, b, u32::wrapping_add),
        Op::ISub => map2(val, a, b, u32::wrapping_sub),
        Op::IMul => map2(val, a, b, u32::wrapping_mul),
        Op::IAnd => map2(val, a, b, |x, y| x & y),
        Op::IOr => map2(val, a, b, |x, y| x | y),
        Op::IXor => map2(val, a, b, |x, y| x ^ y),
        Op::IShl => map2(val, a, b, |x, y| x << (y & 31)),
        Op::IShr => map2(val, a, b, |x, y| x >> (y & 31)),
        Op::FLt => fmap2(val, a, b, |x, y| (x < y) as u32),
        Op::FLe => fmap2(val, a, b, |x, y| (x <= y) as u32),
        Op::ILt => map2(val, a, b, |x, y| (x < y) as u32),
        Op::IEq => map2(val, a, b, |x, y| (x == y) as u32),
        Op::Sel => {
            for (((v, &x), &y), &z) in val.iter_mut().zip(a).zip(b).zip(c) {
                *v = if x != 0 { y } else { z };
            }
        }
        Op::Mov => val.copy_from_slice(a),
        Op::LdImm => val.fill(imm),
        Op::F2I => map1(val, a, |x| bits_to_f32(x) as u32),
        Op::I2F => map1(val, a, |x| f32_to_bits(x as f32)),
        Op::Tid => {
            for (l, v) in val.iter_mut().enumerate() {
                *v = t0 + l as u32;
            }
        }
        Op::Ld | Op::St | Op::Jmp | Op::Jz | Op::Jnz | Op::Halt => {
            unreachable!("{op} has no ALU value row")
        }
    }
}

/// XOR the armed fault into a step's value row. A permanent fault corrupts
/// every active lane's write of its opcode (as it corrupts every scalar
/// dynamic instance); a transient pass corrupts only the one lane-local
/// write the scalar stream indexes. `local(l)` is lane `l`'s zero-based
/// index of the executing instruction.
#[inline(always)]
fn realize_fault(
    fault: &mut Option<FaultState>,
    mode: LaneFault,
    op: Op,
    val: &mut [u32],
    active: impl Fn(usize) -> bool,
    local: impl Fn(usize) -> u64,
) {
    let Some(f) = fault.as_mut() else { return };
    match mode {
        LaneFault::Inert => {}
        LaneFault::Permanent { op: target } => {
            if op == target {
                for (l, v) in val.iter_mut().enumerate() {
                    if active(l) {
                        // Permanent polling ignores the dynamic index.
                        if let Some(m) = f.poll(0, op) {
                            *v ^= m;
                        }
                    }
                }
            }
        }
        LaneFault::Transient { lane, local_index, fire_index } => {
            if lane < val.len() && active(lane) && local(lane) == local_index {
                if let Some(m) = f.poll(fire_index, op) {
                    val[lane] ^= m;
                }
            }
        }
    }
}

/// Row slots of `ins`'s destination and three sources under `slot`.
#[inline(always)]
fn row_slots(slot: &[u8; NUM_REGS], ins: &Instr) -> [usize; 4] {
    [ins.dst, ins.a, ins.b, ins.c].map(|r| slot[r.idx()] as usize)
}

impl LockstepScratch {
    /// Give every register `prog` names a dense row, sized for tiles of up
    /// to `width` lanes.
    fn bind(&mut self, prog: &Program, width: usize) {
        self.slot = [UNNAMED; NUM_REGS];
        let mut n = 0u8;
        for ins in prog.instrs() {
            for r in [ins.dst, ins.a, ins.b, ins.c] {
                let s = &mut self.slot[r.idx()];
                if *s == UNNAMED {
                    *s = n;
                    n += 1;
                }
            }
        }
        self.nslots = n as usize;
        let row_len = self.spare.len().max(width);
        if self.rows.len() < self.nslots {
            self.rows.resize_with(self.nslots, Vec::new);
        }
        for row in self.rows.iter_mut().chain(std::iter::once(&mut self.spare)) {
            row.resize(row_len, 0);
        }
        self.pc.resize(row_len, 0);
        self.executed.resize(row_len, 0);
        self.live.resize(row_len, false);
        self.active.resize(row_len, false);
        self.addrs.resize(row_len, 0);
    }

    /// Execute threads `t0..t0 + w` (`2 ≤ w ≤` the bound width) of the
    /// bound program `prog` as one lockstep tile.
    ///
    /// One instruction is fetched and decoded per step and applied across
    /// the tile's lanes. While no conditional branch has split them, the
    /// lanes share one program counter (the converged fast path: one fetch,
    /// one budget compare, one accounting add per step, unmasked value
    /// rows, and contiguous loads and stores as slice copies). After a
    /// split, each step executes the smallest program counter among live
    /// lanes under an active mask, so lanes that branched apart rejoin at
    /// the earliest common point. Cross-lane memory conflicts, traps, and
    /// watchdog exhaustion abort the tile.
    #[allow(clippy::too_many_arguments)]
    fn exec_tile(
        &mut self,
        fault: &mut Option<FaultState>,
        prog: &Program,
        mem: &mut [u32],
        t0: u32,
        w: usize,
        args: &[(Reg, u32)],
        budget: u64,
        mode: LaneFault,
    ) -> Result<TileDone, Abort> {
        self.log.begin(mem.len());
        self.op_counts = [0; ALL_OPS.len()];
        for row in &mut self.rows[..self.nslots] {
            row[..w].fill(0);
        }
        for &(r, v) in args {
            let s = self.slot[r.idx()];
            if s != UNNAMED {
                self.rows[s as usize][..w].fill(v);
            }
        }
        let instrs = prog.instrs();
        let plen = instrs.len();
        let nw = w as u64;
        let mut dyn_add = 0u64;

        // --- Converged fast path -----------------------------------------
        let mut cpc = 0usize;
        let mut cexec = 0u64;
        'fast: loop {
            let Some(&ins) = instrs.get(cpc) else {
                // Falling off the end is an implicit halt with no budget
                // check, exactly as in the scalar interpreter.
                return Ok(TileDone { dyn_add, lanes: LaneCounts::Converged(cexec) });
            };
            if cexec >= budget {
                // The scalar path raises Watchdog here.
                return Err(Abort::Trap);
            }
            cexec += 1;
            self.op_counts[ins.op.index()] += nw;
            dyn_add += nw;

            let [sd, sa, sb, sc] = row_slots(&self.slot, &ins);
            let a = &self.rows[sa][..w];
            let val = &mut self.spare[..w];
            match ins.op {
                Op::Ld => match Pattern::of(a, ins.imm, mem.len()) {
                    Pattern::Uniform(addr) => {
                        // Every lane reads the same word (shared weights,
                        // uniform tables): one bounds check, one conflict
                        // probe, one broadcast. Any same-tile store to the
                        // word aborts — with ≥ 2 lanes reading it that is
                        // a guaranteed cross-lane conflict.
                        let idx = addr as usize;
                        let Some(&word) = mem.get(idx) else {
                            // Scalar path raises OutOfBounds { addr }.
                            return Err(Abort::Trap);
                        };
                        if self.log.stored() && self.log.owned(idx) {
                            return Err(Abort::Conflict);
                        }
                        self.log.note_uniform_load(idx);
                        val.fill(word);
                    }
                    Pattern::Run(start) => {
                        if self.log.run_conflicts(start, w) {
                            return Err(Abort::Conflict);
                        }
                        self.log.note_load_range(start, start + w - 1);
                        val.copy_from_slice(&mem[start..start + w]);
                    }
                    Pattern::Scattered => {
                        // Hoisted bounds check: one max over the lane
                        // addresses replaces a branch per lane. An abort
                        // on any out-of-range lane replays scalar, which
                        // raises the exact per-lane OutOfBounds trap.
                        let addrs = &mut self.addrs[..w];
                        let (mut lo, mut hi) = (u32::MAX, 0u32);
                        for (ad, &x) in addrs.iter_mut().zip(a) {
                            *ad = x.wrapping_add(ins.imm);
                            lo = lo.min(*ad);
                            hi = hi.max(*ad);
                        }
                        if hi as usize >= mem.len() {
                            return Err(Abort::Trap);
                        }
                        self.log.note_load_range(lo as usize, hi as usize);
                        if self.log.stored() {
                            for (l, (v, &ad)) in val.iter_mut().zip(addrs.iter()).enumerate() {
                                let idx = ad as usize;
                                if self.log.foreign(self.log.owner[idx], l) {
                                    return Err(Abort::Conflict);
                                }
                                *v = mem[idx];
                            }
                        } else {
                            for (v, &ad) in val.iter_mut().zip(addrs.iter()) {
                                *v = mem[ad as usize];
                            }
                        }
                    }
                },
                Op::St => {
                    let b = &self.rows[sb][..w];
                    match Pattern::of(a, ins.imm, mem.len()) {
                        Pattern::Run(start) => self.log.store_run(mem, start, b)?,
                        Pattern::Uniform(_) | Pattern::Scattered => {
                            for (l, (&x, &v)) in a.iter().zip(b).enumerate() {
                                self.log.store(mem, x.wrapping_add(ins.imm) as usize, l, v)?;
                            }
                        }
                    }
                    cpc += 1;
                    continue 'fast;
                }
                Op::Jmp => {
                    if ins.imm as usize > plen {
                        // Scalar path raises InvalidTarget.
                        return Err(Abort::Trap);
                    }
                    cpc = ins.imm as usize;
                    continue 'fast;
                }
                Op::Jz | Op::Jnz => {
                    let want_zero = ins.op == Op::Jz;
                    let first = (a[0] == 0) == want_zero;
                    let mut split = false;
                    for &x in &a[1..] {
                        split |= ((x == 0) == want_zero) != first;
                    }
                    if !split {
                        if first {
                            if ins.imm as usize > plen {
                                // Scalar path raises InvalidTarget.
                                return Err(Abort::Trap);
                            }
                            cpc = ins.imm as usize;
                        } else {
                            cpc += 1;
                        }
                        continue 'fast;
                    }
                    // Lanes split here (so some lane takes the branch):
                    // materialize per-lane state and fall through to the
                    // masked min-pc loop for the rest of the tile.
                    if ins.imm as usize > plen {
                        return Err(Abort::Trap);
                    }
                    for (p, &x) in self.pc[..w].iter_mut().zip(a) {
                        *p = if (x == 0) == want_zero { ins.imm } else { cpc as u32 + 1 };
                    }
                    self.executed[..w].fill(cexec);
                    self.live[..w].fill(true);
                    break 'fast;
                }
                Op::Halt => {
                    return Ok(TileDone { dyn_add, lanes: LaneCounts::Converged(cexec) });
                }
                op => alu_row(op, a, &self.rows[sb][..w], &self.rows[sc][..w], ins.imm, t0, val),
            }
            realize_fault(fault, mode, ins.op, val, |_| true, |_| cexec - 1);
            std::mem::swap(&mut self.rows[sd], &mut self.spare);
            cpc += 1;
        }

        // --- Divergent path: masked min-pc reconvergence ------------------
        loop {
            let (pc, live) = (&mut self.pc[..w], &mut self.live[..w]);
            let mut pc_cur = u32::MAX;
            for (&p, &on) in pc.iter().zip(live.iter()) {
                if on && p < pc_cur {
                    pc_cur = p;
                }
            }
            if pc_cur == u32::MAX {
                return Ok(TileDone { dyn_add, lanes: LaneCounts::Diverged });
            }
            if pc_cur as usize >= plen {
                // Falling off the end is an implicit halt with no budget
                // check, exactly as in the scalar interpreter.
                for (&p, on) in pc.iter().zip(live.iter_mut()) {
                    if p == pc_cur {
                        *on = false;
                    }
                }
                continue;
            }
            let ins = instrs[pc_cur as usize];
            let (active, executed) = (&mut self.active[..w], &mut self.executed[..w]);
            let mut n_active = 0u64;
            let mut exhausted = false;
            for (((on, &p), &lv), &e) in
                active.iter_mut().zip(pc.iter()).zip(live.iter()).zip(executed.iter())
            {
                *on = lv && p == pc_cur;
                n_active += *on as u64;
                exhausted |= *on && e >= budget;
            }
            if exhausted {
                // The scalar path raises Watchdog here.
                return Err(Abort::Trap);
            }
            for (e, &on) in executed.iter_mut().zip(active.iter()) {
                *e += on as u64;
            }
            self.op_counts[ins.op.index()] += n_active;
            dyn_add += n_active;

            let [sd, sa, sb, sc] = row_slots(&self.slot, &ins);
            let a = &self.rows[sa][..w];
            let val = &mut self.spare[..w];
            let next = pc_cur + 1;
            match ins.op {
                Op::Ld => {
                    for (l, (v, &x)) in val.iter_mut().zip(a).enumerate() {
                        if active[l] {
                            let idx = x.wrapping_add(ins.imm) as usize;
                            let Some(&word) = mem.get(idx) else {
                                // Scalar path raises OutOfBounds { addr }.
                                return Err(Abort::Trap);
                            };
                            if self.log.stored() && self.log.foreign(self.log.owner[idx], l) {
                                return Err(Abort::Conflict);
                            }
                            self.log.note_load_range(idx, idx);
                            *v = word;
                        }
                    }
                }
                Op::St => {
                    let b = &self.rows[sb][..w];
                    for (l, ((&x, &v), p)) in a.iter().zip(b).zip(pc.iter_mut()).enumerate() {
                        if active[l] {
                            self.log.store(mem, x.wrapping_add(ins.imm) as usize, l, v)?;
                            *p = next;
                        }
                    }
                    continue;
                }
                Op::Jmp | Op::Jz | Op::Jnz => {
                    for ((p, &x), &on) in pc.iter_mut().zip(a).zip(active.iter()) {
                        if on {
                            let taken = match ins.op {
                                Op::Jmp => true,
                                Op::Jz => x == 0,
                                _ => x != 0,
                            };
                            if taken {
                                if ins.imm as usize > plen {
                                    // Scalar path raises InvalidTarget.
                                    return Err(Abort::Trap);
                                }
                                *p = ins.imm;
                            } else {
                                *p = next;
                            }
                        }
                    }
                    continue;
                }
                Op::Halt => {
                    for (lv, &on) in live.iter_mut().zip(active.iter()) {
                        if on {
                            *lv = false;
                        }
                    }
                    continue;
                }
                // Value rows are computed over every lane — inactive lanes
                // produce garbage that the masked writeback discards — so
                // the loops stay branch-free.
                op => alu_row(op, a, &self.rows[sb][..w], &self.rows[sc][..w], ins.imm, t0, val),
            }
            realize_fault(fault, mode, ins.op, val, |l| active[l], |l| executed[l] - 1);
            for (((d, &v), p), &on) in
                self.rows[sd][..w].iter_mut().zip(val.iter()).zip(pc.iter_mut()).zip(active.iter())
            {
                if on {
                    *d = v;
                    *p = next;
                }
            }
        }
    }

    /// Locate the lane and lane-local instruction index of the tile's
    /// `local`-th lane-execution in thread order, from the probe's per-lane
    /// counts. Lanes before the faulted one are unaffected by the fault,
    /// and the faulted lane executes identically up to the injection
    /// point, so the probe's prefix sums are valid.
    fn locate(&self, lanes: LaneCounts, mut local: u64) -> (usize, u64) {
        match lanes {
            LaneCounts::Converged(n) => ((local / n) as usize, local % n),
            LaneCounts::Diverged => {
                let mut lane = 0;
                while local >= self.executed[lane] {
                    local -= self.executed[lane];
                    lane += 1;
                }
                (lane, local)
            }
        }
    }
}

impl Fabric {
    /// Create a fabric with the given profile.
    pub fn new(profile: Profile) -> Self {
        Fabric {
            profile,
            stats: ExecStats::new(),
            fault: None,
            dyn_counter: 0,
            scratch: LockstepScratch::default(),
            counters: LockstepCounters::default(),
        }
    }

    /// The fabric's profile (CPU or GPU).
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Execution statistics accumulated since the last reset.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// How the lockstep kernel engine ran since this fabric was created:
    /// tiles committed and aborted, threads replayed on the scalar
    /// interpreter, transient re-runs. Not reset by
    /// [`reset_for_run`](Self::reset_for_run), and no part of any result.
    pub fn lockstep_counters(&self) -> LockstepCounters {
        self.counters
    }
    /// Total dynamic instructions executed since the last
    /// [`reset_for_run`](Self::reset_for_run) — the transient fault-site
    /// space for plan generation.
    pub fn dyn_instr_count(&self) -> u64 {
        self.dyn_counter
    }

    /// Allocate an execution context with `words` words of memory.
    pub fn new_context(&self, words: usize) -> Context {
        Context::new(words)
    }

    /// Arm a fault for this fabric. Replaces any previously armed fault.
    pub fn inject(&mut self, model: FaultModel) {
        self.fault = Some(FaultState::new(model));
    }

    /// Remove any armed fault, returning its final state.
    pub fn clear_fault(&mut self) -> Option<FaultState> {
        self.fault.take()
    }

    /// The armed fault's state, if any.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// Reset the dynamic-instruction counter, statistics, and fault state
    /// ahead of a new experimental run.
    pub fn reset_for_run(&mut self) {
        self.stats.reset();
        self.dyn_counter = 0;
        self.fault = None;
    }

    /// Run `prog` in scalar mode using the context's persistent register
    /// file.
    ///
    /// Returns the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on out-of-bounds access, invalid branch target,
    /// or when more than `budget` instructions execute (hang).
    pub fn run_scalar(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        budget: u64,
    ) -> Result<u64, Trap> {
        self.stats.record_launch();
        let mut regs = ctx.regs;
        let r = self.exec(prog, &mut regs, &mut ctx.mem, 0, budget);
        ctx.regs = regs;
        r
    }

    /// Launch `prog` as a data-parallel kernel over `n_threads` threads.
    ///
    /// Each thread starts from a zeroed register file with `args` preloaded
    /// and its index available via [`Op::Tid`]; threads share the context's
    /// memory and observe each other in thread order (the fabric models a
    /// time-multiplexed processor, not a parallel machine).
    ///
    /// Execution runs in lockstep tiles of [`KERNEL_TILE`] threads — one
    /// fetch/decode per tile step instead of one per thread — and is
    /// bit-identical to [`run_kernel_reference`](Self::run_kernel_reference):
    /// a tile whose lanes touch overlapping memory, trap, or exhaust the
    /// watchdog is rolled back and replayed on the scalar path, and the
    /// next tile runs in lockstep again.
    ///
    /// Returns the total number of instructions executed.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if any thread traps; `budget_per_thread` bounds
    /// each thread's instruction count.
    pub fn run_kernel(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
    ) -> Result<u64, Trap> {
        self.run_kernel_tiled(prog, ctx, n_threads, args, budget_per_thread, KERNEL_TILE)
    }

    /// Thread-major scalar kernel launch — the semantic reference for
    /// [`run_kernel`](Self::run_kernel).
    ///
    /// Runs every thread to completion through the scalar interpreter in
    /// thread order. The lockstep engine must match this path bit for bit
    /// (registers, memory, traps, statistics, dynamic-instruction counter,
    /// and fault activations); `lockstep_differential.rs` and the tile
    /// rollback path both rely on it staying exactly as the paper's
    /// time-multiplexed model specifies.
    pub fn run_kernel_reference(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
    ) -> Result<u64, Trap> {
        self.stats.record_launch();
        self.exec_threads(prog, &mut ctx.mem, 0..n_threads, args, budget_per_thread)
    }

    /// Lockstep kernel launch in tiles of `tile` threads.
    ///
    /// [`run_kernel`](Self::run_kernel) uses `tile = KERNEL_TILE`; the
    /// differential tests sweep other widths. `tile = 1` degenerates to the
    /// scalar path.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] exactly when the reference path would.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= tile <= 65536` (store-owner entries tag lanes
    /// with 16 bits).
    pub fn run_kernel_tiled(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
        tile: usize,
    ) -> Result<u64, Trap> {
        assert!((1..=1 << 16).contains(&tile), "unsupported tile width {tile}");
        self.stats.record_launch();
        let tile = tile as u32;
        if tile >= 2 && n_threads >= 2 {
            self.scratch.bind(prog, n_threads.min(tile) as usize);
        }
        let mut total = 0u64;
        let mut t0 = 0u32;
        while t0 < n_threads {
            let w = (n_threads - t0).min(tile);
            total += if w < 2 {
                // One-thread tiles (tails, one-thread kernels) take the
                // scalar path directly: it is the reference semantics, and
                // faults poll live against the true dynamic index.
                self.exec_threads(prog, &mut ctx.mem, t0..t0 + w, args, budget_per_thread)?
            } else {
                self.run_tile(prog, &mut ctx.mem, t0, w as usize, args, budget_per_thread)?
            };
            t0 += w;
        }
        Ok(total)
    }

    /// Run threads `t0..t0 + w` as one lockstep tile and commit it, or roll
    /// it back and replay it on the scalar interpreter.
    fn run_tile(
        &mut self,
        prog: &Program,
        mem: &mut [u32],
        t0: u32,
        w: usize,
        args: &[(Reg, u32)],
        budget: u64,
    ) -> Result<u64, Trap> {
        let base = self.dyn_counter;
        let snap_fault = self.fault;
        // A transient fault whose dynamic index might land in this tile
        // cannot be applied while lanes interleave: the scalar index of
        // each write is only known once per-lane instruction counts are.
        // Run such tiles as an unfaulted probe first, then re-run with the
        // injection pinned to the exact lane and local instruction.
        let (mode, probe) = match snap_fault.map(|f| f.model()) {
            None => (LaneFault::Inert, None),
            Some(FaultModel::Permanent { op, .. }) => (LaneFault::Permanent { op }, None),
            Some(FaultModel::Transient { instr_index, .. }) => {
                (LaneFault::Inert, (instr_index >= base).then_some(instr_index))
            }
        };
        let scratch = &mut self.scratch;
        let mut exit = scratch.exec_tile(&mut self.fault, prog, mem, t0, w, args, budget, mode);
        if let (Ok(done), Some(index)) = (exit, probe) {
            if index < base + done.dyn_add {
                scratch.log.rollback(mem);
                let (lane, local_index) = scratch.locate(done.lanes, index - base);
                let mode = LaneFault::Transient { lane, local_index, fire_index: index };
                self.counters.transient_reruns += 1;
                exit = scratch.exec_tile(&mut self.fault, prog, mem, t0, w, args, budget, mode);
            }
        }
        match exit {
            Ok(done) => {
                self.stats.add_op_counts(&scratch.op_counts);
                self.dyn_counter += done.dyn_add;
                self.counters.tiles_committed += 1;
                Ok(done.dyn_add)
            }
            Err(abort) => {
                scratch.log.rollback(mem);
                self.fault = snap_fault;
                match abort {
                    Abort::Conflict => self.counters.conflict_aborts += 1,
                    Abort::Trap => self.counters.trap_aborts += 1,
                }
                self.counters.threads_replayed += w as u64;
                self.exec_threads(prog, mem, t0..t0 + w as u32, args, budget)
            }
        }
    }

    /// Run `threads` through the scalar interpreter in thread order, each
    /// from a zeroed register file with `args` preloaded — a replayed or
    /// one-thread tile, and the whole of
    /// [`run_kernel_reference`](Self::run_kernel_reference).
    fn exec_threads(
        &mut self,
        prog: &Program,
        mem: &mut [u32],
        threads: Range<u32>,
        args: &[(Reg, u32)],
        budget: u64,
    ) -> Result<u64, Trap> {
        let mut total = 0u64;
        for t in threads {
            let mut regs = [0u32; NUM_REGS];
            for &(r, v) in args {
                regs[r.idx()] = v;
            }
            total += self.exec(prog, &mut regs, mem, t, budget)?;
        }
        Ok(total)
    }

    #[inline(always)]
    fn exec(
        &mut self,
        prog: &Program,
        regs: &mut [u32; NUM_REGS],
        mem: &mut [u32],
        tid: u32,
        budget: u64,
    ) -> Result<u64, Trap> {
        let instrs = prog.instrs();
        let mut pc = 0usize;
        let mut executed = 0u64;
        loop {
            let Some(ins) = instrs.get(pc) else {
                // Falling off the end is an implicit halt.
                return Ok(executed);
            };
            if executed >= budget {
                return Err(Trap::Watchdog);
            }
            executed += 1;
            self.stats.record(ins.op);
            let dyn_index = self.dyn_counter;
            self.dyn_counter += 1;
            pc += 1;

            let fa = bits_to_f32(regs[ins.a.idx()]);
            let fb = bits_to_f32(regs[ins.b.idx()]);
            let ia = regs[ins.a.idx()];
            let ib = regs[ins.b.idx()];

            let wrote: Option<u32> = match ins.op {
                Op::FAdd => Some(f32_to_bits(fa + fb)),
                Op::FSub => Some(f32_to_bits(fa - fb)),
                Op::FMul => Some(f32_to_bits(fa * fb)),
                Op::FDiv => Some(f32_to_bits(fa / fb)),
                Op::FMin => Some(f32_to_bits(fa.min(fb))),
                Op::FMax => Some(f32_to_bits(fa.max(fb))),
                Op::FAbs => Some(f32_to_bits(fa.abs())),
                Op::FNeg => Some(f32_to_bits(-fa)),
                Op::FSqrt => Some(f32_to_bits(fa.sqrt())),
                Op::FFma => {
                    let fc = bits_to_f32(regs[ins.c.idx()]);
                    Some(f32_to_bits(fa.mul_add(fb, fc)))
                }
                Op::IAdd => Some(ia.wrapping_add(ib)),
                Op::ISub => Some(ia.wrapping_sub(ib)),
                Op::IMul => Some(ia.wrapping_mul(ib)),
                Op::IAnd => Some(ia & ib),
                Op::IOr => Some(ia | ib),
                Op::IXor => Some(ia ^ ib),
                Op::IShl => Some(ia << (ib & 31)),
                Op::IShr => Some(ia >> (ib & 31)),
                Op::FLt => Some((fa < fb) as u32),
                Op::FLe => Some((fa <= fb) as u32),
                Op::ILt => Some((ia < ib) as u32),
                Op::IEq => Some((ia == ib) as u32),
                Op::Sel => {
                    let ic = regs[ins.c.idx()];
                    Some(if ia != 0 { ib } else { ic })
                }
                Op::Mov => Some(ia),
                Op::LdImm => Some(ins.imm),
                Op::Ld => {
                    let addr = ia.wrapping_add(ins.imm);
                    let Some(&w) = mem.get(addr as usize) else {
                        return Err(Trap::OutOfBounds { addr });
                    };
                    Some(w)
                }
                Op::St => {
                    let addr = ia.wrapping_add(ins.imm);
                    let Some(slot) = mem.get_mut(addr as usize) else {
                        return Err(Trap::OutOfBounds { addr });
                    };
                    *slot = ib;
                    None
                }
                Op::Jmp | Op::Jz | Op::Jnz => {
                    let taken = match ins.op {
                        Op::Jmp => true,
                        Op::Jz => ia == 0,
                        _ => ia != 0,
                    };
                    if taken {
                        let target = ins.imm as usize;
                        if target > instrs.len() {
                            return Err(Trap::InvalidTarget { target: ins.imm });
                        }
                        pc = target;
                    }
                    None
                }
                Op::F2I => Some(fa as u32),
                Op::I2F => Some(f32_to_bits(ia as f32)),
                Op::Tid => Some(tid),
                Op::Halt => return Ok(executed),
            };

            if let Some(mut val) = wrote {
                if let Some(fault) = &mut self.fault {
                    if let Some(mask) = fault.poll(dyn_index, ins.op) {
                        val ^= mask;
                    }
                }
                regs[ins.dst.idx()] = val;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn r(i: u8) -> Reg {
        Reg(i)
    }

    fn run(b: ProgramBuilder) -> (Fabric, Context) {
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(64);
        f.run_scalar(&prog, &mut ctx, 10_000).expect("program should not trap");
        (f, ctx)
    }

    #[test]
    fn float_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 3.0);
        b.ldimm_f(r(1), 4.0);
        b.fmul(r(2), r(0), r(1));
        b.fadd(r(3), r(2), r(1));
        b.fsub(r(4), r(3), r(0));
        b.fdiv(r(5), r(4), r(1));
        b.fsqrt(r(6), r(0));
        b.fneg(r(7), r(6));
        b.fabs(r(8), r(7));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_f(r(2)), 12.0);
        assert_eq!(ctx.reg_f(r(3)), 16.0);
        assert_eq!(ctx.reg_f(r(4)), 13.0);
        assert_eq!(ctx.reg_f(r(5)), 3.25);
        assert!((ctx.reg_f(r(8)) - 3.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn fma_min_max() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 2.0);
        b.ldimm_f(r(1), 5.0);
        b.ldimm_f(r(2), 1.0);
        b.ffma(r(3), r(0), r(1), r(2));
        b.fmin(r(4), r(0), r(1));
        b.fmax(r(5), r(0), r(1));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_f(r(3)), 11.0);
        assert_eq!(ctx.reg_f(r(4)), 2.0);
        assert_eq!(ctx.reg_f(r(5)), 5.0);
    }

    #[test]
    fn integer_ops_and_compares() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 6);
        b.ldimm_i(r(1), 3);
        b.iadd(r(2), r(0), r(1));
        b.isub(r(3), r(0), r(1));
        b.imul(r(4), r(0), r(1));
        b.iand(r(5), r(0), r(1));
        b.ior(r(6), r(0), r(1));
        b.ixor(r(7), r(0), r(1));
        b.ishl(r(8), r(1), r(1));
        b.ishr(r(9), r(0), r(1));
        b.ilt(r(10), r(1), r(0));
        b.ieq(r(11), r(0), r(0));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(2)), 9);
        assert_eq!(ctx.reg_i(r(3)), 3);
        assert_eq!(ctx.reg_i(r(4)), 18);
        assert_eq!(ctx.reg_i(r(5)), 2);
        assert_eq!(ctx.reg_i(r(6)), 7);
        assert_eq!(ctx.reg_i(r(7)), 5);
        assert_eq!(ctx.reg_i(r(8)), 24);
        assert_eq!(ctx.reg_i(r(9)), 0);
        assert_eq!(ctx.reg_i(r(10)), 1);
        assert_eq!(ctx.reg_i(r(11)), 1);
    }

    #[test]
    fn select_and_conversions() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 1);
        b.ldimm_i(r(1), 10);
        b.ldimm_i(r(2), 20);
        b.sel(r(3), r(0), r(1), r(2));
        b.ldimm_i(r(4), 0);
        b.sel(r(5), r(4), r(1), r(2));
        b.ldimm_f(r(6), 7.9);
        b.f2i(r(7), r(6));
        b.i2f(r(8), r(7));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(3)), 10);
        assert_eq!(ctx.reg_i(r(5)), 20);
        assert_eq!(ctx.reg_i(r(7)), 7);
        assert_eq!(ctx.reg_f(r(8)), 7.0);
    }

    #[test]
    fn f2i_saturates_negative_and_nan() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), -3.0);
        b.f2i(r(1), r(0));
        b.ldimm_f(r(2), f32::NAN);
        b.f2i(r(3), r(2));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(1)), 0);
        assert_eq!(ctx.reg_i(r(3)), 0);
    }

    #[test]
    fn memory_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 5);
        b.ldimm_f(r(1), 2.5);
        b.st(r(0), r(1), 2); // mem[7] = 2.5
        b.ld(r(2), r(0), 2);
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_f(r(2)), 2.5);
        assert_eq!(ctx.read_f32(7), 2.5);
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 1_000_000);
        b.ld(r(1), r(0), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(16);
        let err = f.run_scalar(&prog, &mut ctx, 100).unwrap_err();
        assert_eq!(err, Trap::OutOfBounds { addr: 1_000_000 });
    }

    #[test]
    fn out_of_bounds_store_traps() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 99);
        b.st(r(0), r(0), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(16);
        assert_eq!(f.run_scalar(&prog, &mut ctx, 100).unwrap_err(), Trap::OutOfBounds { addr: 99 });
    }

    #[test]
    fn infinite_loop_hits_watchdog() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.jmp(top);
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        assert_eq!(f.run_scalar(&prog, &mut ctx, 1000).unwrap_err(), Trap::Watchdog);
    }

    #[test]
    fn loop_counts_down() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 10);
        b.ldimm_i(r(1), 1);
        b.ldimm_i(r(2), 0);
        let top = b.new_label();
        b.bind(top);
        b.iadd(r(2), r(2), r(1));
        b.isub(r(0), r(0), r(1));
        b.jnz(r(0), top);
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(2)), 10);
    }

    #[test]
    fn kernel_threads_see_tid_and_share_memory() {
        // mem[tid] = tid as f32 * 2.0
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.i2f(r(1), r(0));
        b.ldimm_f(r(2), 2.0);
        b.fmul(r(3), r(1), r(2));
        b.st(r(0), r(3), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(8);
        f.run_kernel(&prog, &mut ctx, 8, &[], 100).unwrap();
        for t in 0..8 {
            assert_eq!(ctx.read_f32(t), t as f32 * 2.0);
        }
    }

    #[test]
    fn kernel_args_are_preloaded() {
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.st(r(0), r(10), 0); // store arg value at mem[tid]
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(4);
        f.run_kernel(&prog, &mut ctx, 4, &[(r(10), f32_to_bits(9.0))], 100).unwrap();
        assert_eq!(ctx.read_f32(3), 9.0);
    }

    #[test]
    fn transient_fault_corrupts_exactly_one_write() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 1.0);
        b.ldimm_f(r(1), 1.0); // dynamic index 1 — the injection target
        b.ldimm_f(r(2), 1.0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        f.inject(FaultModel::Transient { instr_index: 1, mask: 0x0040_0000 });
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(ctx.reg_f(r(0)), 1.0);
        assert_ne!(ctx.reg_f(r(1)), 1.0);
        assert_eq!(ctx.reg_f(r(2)), 1.0);
        assert_eq!(f.fault_state().unwrap().activations(), 1);
    }

    #[test]
    fn permanent_fault_corrupts_every_instance() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 2.0);
        b.ldimm_f(r(1), 3.0);
        b.fmul(r(2), r(0), r(1));
        b.fmul(r(3), r(0), r(1));
        b.fadd(r(4), r(0), r(1));
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        f.inject(FaultModel::Permanent { op: Op::FMul, mask: 1 });
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_ne!(ctx.reg_f(r(2)), 6.0);
        assert_ne!(ctx.reg_f(r(3)), 6.0);
        assert_eq!(ctx.reg_f(r(4)), 5.0, "FAdd must be unaffected");
        assert_eq!(f.fault_state().unwrap().activations(), 2);
    }

    #[test]
    fn store_is_not_injectable() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 0);
        b.ldimm_f(r(1), 5.0);
        b.st(r(0), r(1), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        f.inject(FaultModel::Permanent { op: Op::St, mask: u32::MAX });
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(ctx.read_f32(0), 5.0, "stores have no destination register");
        assert_eq!(f.fault_state().unwrap().activations(), 0);
    }

    #[test]
    fn dyn_counter_spans_runs_until_reset() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 1);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(f.dyn_instr_count(), 4);
        f.reset_for_run();
        assert_eq!(f.dyn_instr_count(), 0);
        assert_eq!(f.stats().total(), 0);
        assert!(f.fault_state().is_none());
    }

    #[test]
    fn stats_count_per_op() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 1.0);
        b.fadd(r(1), r(0), r(0));
        b.fadd(r(2), r(1), r(0));
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(f.stats().count(Op::FAdd), 2);
        assert_eq!(f.stats().count(Op::LdImm), 1);
        assert_eq!(f.stats().count(Op::Halt), 1);
        assert_eq!(f.stats().launches(), 1);
    }

    #[test]
    fn falling_off_end_is_implicit_halt() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 7);
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        let n = f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(n, 1);
        assert_eq!(ctx.reg_i(r(0)), 7);
    }

    #[test]
    fn scalar_registers_persist_across_runs() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(1), 1);
        b.iadd(r(0), r(0), r(1));
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(ctx.reg_i(r(0)), 2);
    }

    #[test]
    fn trap_display_and_error() {
        let t: Box<dyn Error> = Box::new(Trap::Watchdog);
        assert!(t.to_string().contains("watchdog"));
        assert!(Trap::OutOfBounds { addr: 3 }.to_string().contains('3'));
        assert!(Trap::InvalidTarget { target: 9 }.to_string().contains('9'));
    }

    #[test]
    fn context_bytes_accounting() {
        let ctx = Context::new(100);
        assert_eq!(ctx.bytes(), 100 * 4 + NUM_REGS * 4);
    }

    #[test]
    fn read_slice_into_matches_allocating_read() {
        let mut ctx = Context::new(16);
        ctx.write_slice_f32(4, &[1.5, -2.0, 3.25]);
        let mut buf = [0.0f32; 3];
        ctx.read_slice_f32_into(4, &mut buf);
        assert_eq!(buf.as_slice(), ctx.read_slice_f32(4, 3).as_slice());
    }

    /// Run the same kernel through the reference and lockstep paths on two
    /// fresh fabrics and assert every observable matches bit for bit.
    fn assert_lockstep_matches(
        prog: &Program,
        mem_words: usize,
        n_threads: u32,
        budget: u64,
        fault: Option<FaultModel>,
    ) {
        let mut f_ref = Fabric::new(Profile::Gpu);
        let mut f_ls = Fabric::new(Profile::Gpu);
        if let Some(m) = fault {
            f_ref.inject(m);
            f_ls.inject(m);
        }
        let mut ctx_ref = f_ref.new_context(mem_words);
        let mut ctx_ls = f_ls.new_context(mem_words);
        let r_ref = f_ref.run_kernel_reference(prog, &mut ctx_ref, n_threads, &[], budget);
        let r_ls = f_ls.run_kernel(prog, &mut ctx_ls, n_threads, &[], budget);
        assert_eq!(r_ref, r_ls, "result/trap mismatch");
        assert_eq!(ctx_ref, ctx_ls, "memory or registers diverged");
        assert_eq!(f_ref.stats(), f_ls.stats(), "ExecStats diverged");
        assert_eq!(f_ref.dyn_instr_count(), f_ls.dyn_instr_count(), "dyn counter diverged");
        assert_eq!(f_ref.fault_state(), f_ls.fault_state(), "fault state diverged");
    }

    /// tid-dependent loop: lanes iterate different trip counts, so the
    /// tile diverges and must reconverge at the loop exit.
    fn divergent_loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.tid(r(0)); // counter = tid
        b.ldimm_i(r(1), 1);
        b.ldimm_i(r(2), 0); // accumulator
        let top = b.new_label();
        let done = b.new_label();
        b.bind(top);
        b.jz(r(0), done);
        b.iadd(r(2), r(2), r(0));
        b.isub(r(0), r(0), r(1));
        b.jmp(top);
        b.bind(done);
        b.tid(r(3));
        b.st(r(3), r(2), 0); // mem[tid] = sum(1..=tid)
        b.halt();
        b.build()
    }

    #[test]
    fn lockstep_divergent_loop_matches_reference() {
        let prog = divergent_loop_program();
        for n in [1u32, 3, 8, 13, 64] {
            assert_lockstep_matches(&prog, 64, n, 10_000, None);
        }
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(64);
        f.run_kernel(&prog, &mut ctx, 8, &[], 10_000).unwrap();
        for t in 0..8u32 {
            assert_eq!(ctx.mem[t as usize], t * (t + 1) / 2);
        }
    }

    #[test]
    fn lockstep_conflicting_stores_fall_back_to_scalar_order() {
        // Every thread stores its tid to the SAME word: thread-major order
        // means the last thread wins. The tile conflicts and must roll
        // back to the scalar path to preserve that.
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.ldimm_i(r(1), 0);
        b.st(r(1), r(0), 7);
        b.halt();
        let prog = b.build();
        assert_lockstep_matches(&prog, 16, 8, 100, None);
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(16);
        f.run_kernel(&prog, &mut ctx, 8, &[], 100).unwrap();
        assert_eq!(ctx.mem[7], 7, "last thread's store must win");
    }

    #[test]
    fn lockstep_read_after_write_chain_matches_reference() {
        // Thread t reads the word thread t-1 wrote (cross-lane RAW): the
        // lockstep tile must detect the conflict and replay scalar.
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.ld(r(1), r(0), 0); // mem[tid] (written by thread tid-1... races)
        b.ldimm_i(r(2), 1);
        b.iadd(r(1), r(1), r(2));
        b.iadd(r(3), r(0), r(2));
        b.st(r(3), r(1), 0); // mem[tid+1] = mem[tid] + 1
        b.halt();
        let prog = b.build();
        assert_lockstep_matches(&prog, 64, 16, 100, None);
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(64);
        f.run_kernel(&prog, &mut ctx, 16, &[], 100).unwrap();
        assert_eq!(ctx.mem[16], 16, "prefix chain requires thread-major order");
    }

    #[test]
    fn lockstep_watchdog_matches_reference() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.jmp(top);
        let prog = b.build();
        assert_lockstep_matches(&prog, 4, 8, 50, None);
    }

    #[test]
    fn lockstep_oob_store_matches_reference() {
        // Thread 5 stores out of bounds; earlier threads' stores must land.
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.ldimm_i(r(1), 5);
        b.ieq(r(2), r(0), r(1));
        b.ldimm_i(r(3), 1_000_000);
        b.ldimm_i(r(4), 0);
        b.sel(r(5), r(2), r(3), r(0));
        b.st(r(5), r(0), 0);
        b.halt();
        let prog = b.build();
        assert_lockstep_matches(&prog, 16, 8, 100, None);
    }

    #[test]
    fn lockstep_transient_fault_is_lane_exact() {
        // Sweep the transient target across the whole dynamic stream of a
        // divergent kernel; every index must reproduce the reference run.
        let prog = divergent_loop_program();
        let mut probe = Fabric::new(Profile::Gpu);
        let mut ctx = probe.new_context(64);
        probe.run_kernel_reference(&prog, &mut ctx, 8, &[], 10_000).unwrap();
        let dyn_total = probe.dyn_instr_count();
        for idx in 0..dyn_total {
            let fault = FaultModel::Transient { instr_index: idx, mask: 0x8000_0001 };
            assert_lockstep_matches(&prog, 64, 8, 10_000, Some(fault));
        }
    }

    #[test]
    fn lockstep_permanent_fault_matches_reference() {
        let prog = divergent_loop_program();
        for op in [Op::IAdd, Op::ISub, Op::Tid, Op::St, Op::Ld] {
            let fault = FaultModel::Permanent { op, mask: 0x0000_0101 };
            assert_lockstep_matches(&prog, 64, 8, 10_000, Some(fault));
        }
    }

    #[test]
    fn lockstep_fallbacks_replay_only_their_tile_and_are_counted() {
        // Thread 1 stores to thread 0's word; every other thread owns its
        // word. At width 4 only the first of three tiles conflicts: it
        // replays on the scalar path and the later tiles still commit.
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.ldimm_i(r(1), 1);
        b.ieq(r(2), r(0), r(1));
        b.isub(r(3), r(0), r(1));
        b.sel(r(4), r(2), r(3), r(0));
        b.st(r(4), r(0), 32);
        b.halt();
        let prog = b.build();
        let mut f_ref = Fabric::new(Profile::Gpu);
        let mut ctx_ref = f_ref.new_context(64);
        f_ref.run_kernel_reference(&prog, &mut ctx_ref, 12, &[], 100).unwrap();
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(64);
        f.run_kernel_tiled(&prog, &mut ctx, 12, &[], 100, 4).unwrap();
        assert_eq!(ctx, ctx_ref);
        let expected = LockstepCounters {
            tiles_committed: 2,
            conflict_aborts: 1,
            threads_replayed: 4,
            ..LockstepCounters::default()
        };
        assert_eq!(f.lockstep_counters(), expected);

        // A transient fault inside the last tile (on thread 11's unused
        // `isub`) re-runs that tile once.
        let dyn_total = f_ref.dyn_instr_count();
        f.inject(FaultModel::Transient { instr_index: 2 * dyn_total - 4, mask: 1 });
        f.run_kernel_tiled(&prog, &mut ctx, 12, &[], 100, 4).unwrap();
        assert_eq!(f.fault_state().unwrap().activations(), 1);
        let expected = LockstepCounters {
            tiles_committed: 4,
            conflict_aborts: 2,
            threads_replayed: 8,
            transient_reruns: 1,
            ..LockstepCounters::default()
        };
        assert_eq!(f.lockstep_counters(), expected);

        // In 40 words the last tile's first store is out of bounds: that
        // tile aborts as a trap and its replay raises the exact trap.
        let mut small = f.new_context(40);
        let trap = f.run_kernel_tiled(&prog, &mut small, 12, &[], 100, 4).unwrap_err();
        assert_eq!(trap, Trap::OutOfBounds { addr: 40 });
        let expected = LockstepCounters {
            tiles_committed: 5,
            conflict_aborts: 3,
            trap_aborts: 1,
            threads_replayed: 16,
            transient_reruns: 1,
        };
        assert_eq!(f.lockstep_counters(), expected);
    }

    #[test]
    fn lockstep_explicit_widths_match() {
        let prog = divergent_loop_program();
        let mut f_ref = Fabric::new(Profile::Gpu);
        let mut ctx_ref = f_ref.new_context(64);
        f_ref.run_kernel_reference(&prog, &mut ctx_ref, 11, &[], 10_000).unwrap();
        for width in [1usize, 4, 8, 16, KERNEL_TILE] {
            let mut f = Fabric::new(Profile::Gpu);
            let mut ctx = f.new_context(64);
            f.run_kernel_tiled(&prog, &mut ctx, 11, &[], 10_000, width).unwrap();
            assert_eq!(ctx, ctx_ref, "width {width} diverged");
            assert_eq!(f.stats(), f_ref.stats(), "width {width} stats diverged");
        }
    }
}
