//! Lane-equivalence gate for the lockstep kernel engine.
//!
//! Random kernels — divergent branches, loops, cross-lane memory traffic,
//! watchdog traps, out-of-bounds accesses, and injected transient/permanent
//! faults — must produce identical registers, memory, traps, [`ExecStats`],
//! dynamic-instruction counts, and fault activations under the thread-major
//! reference path (`run_kernel_reference`) and the lockstep path for tile
//! widths {1, 4, 8, 16, `KERNEL_TILE`}, with thread counts that cross
//! several tile boundaries. This is the property the whole engine rests
//! on: the tiled interpreter is an *optimization*, never a semantic change.

use diverseav_fabric::{
    Fabric, FaultModel, Op, Profile, Program, ProgramBuilder, Reg, ALL_OPS, KERNEL_TILE,
};
use proptest::prelude::*;

/// Words of context memory for the random and divergence generators.
const MEM_WORDS: usize = 64;

/// Tile widths every property sweeps; the last is the production width.
const WIDTHS: [usize; 5] = [1, 4, 8, 16, KERNEL_TILE];

/// Upper end of the wide thread-count range: several production tiles.
const WIDE: u32 = 3 * KERNEL_TILE as u32 + 24;

/// Pick a small thread count (partial and one-thread tiles at every
/// width) or a wide one (several production tiles).
fn threads((small, wide, use_wide): (u32, u32, bool)) -> u32 {
    if use_wide {
        wide
    } else {
        small
    }
}

/// One generated instruction: an opcode selector plus raw operand fields.
/// `imm` doubles as the branch-target selector so branches can land on any
/// instruction boundary (including backward edges, i.e. loops).
type RandInstr = (u8, u8, u8, u8, u8, u32);

/// Lower a random descriptor list into a program. A label is bound at every
/// instruction boundary (and at end-of-program) so generated branches cover
/// forward jumps, backward loops, and the implicit-halt boundary.
fn build_program(descr: &[RandInstr]) -> Program {
    let n = descr.len();
    let mut b = ProgramBuilder::new();
    let labels: Vec<_> = (0..=n).map(|_| b.new_label()).collect();
    for (i, &(kind, dst, a, b_, c, imm)) in descr.iter().enumerate() {
        b.bind(labels[i]);
        let d = Reg(dst % 8);
        let ra = Reg(a % 8);
        let rb = Reg(b_ % 8);
        let rc = Reg(c % 8);
        let target = labels[(imm as usize) % (n + 1)];
        match kind % 19 {
            0 => b.fadd(d, ra, rb),
            1 => b.fmul(d, ra, rb),
            2 => b.fdiv(d, ra, rb),
            3 => b.iadd(d, ra, rb),
            4 => b.isub(d, ra, rb),
            5 => b.ixor(d, ra, rb),
            6 => b.ishl(d, ra, rb),
            7 => b.ilt(d, ra, rb),
            8 => b.sel(d, ra, rb, rc),
            9 => b.mov(d, ra),
            10 => b.ldimm_i(d, imm),
            11 => b.tid(d),
            // Memory offsets range past MEM_WORDS so some accesses trap.
            12 => b.ld(d, ra, imm % (MEM_WORDS as u32 + 16)),
            13 => b.st(ra, rb, imm % (MEM_WORDS as u32 + 16)),
            14 => b.jz(ra, target),
            15 => b.jnz(ra, target),
            16 => b.i2f(d, ra),
            17 => b.halt(),
            _ => b.jmp(target),
        }
    }
    b.bind(labels[n]);
    b.build()
}

/// Deterministic non-trivial memory image shared by both fabrics.
fn prefill(mem: &mut [u32]) {
    for (i, w) in mem.iter_mut().enumerate() {
        *w = (i as u32).wrapping_mul(0x9E37_79B9).rotate_left(7) ^ 0x5A5A_0001;
    }
}

/// Run the kernel through the reference path and one lockstep `width`
/// over `mem_words` words of prefilled memory and assert every observable
/// is bit-identical.
fn assert_equivalent(
    width: usize,
    prog: &Program,
    mem_words: usize,
    n_threads: u32,
    budget: u64,
    fault: Option<FaultModel>,
) -> Result<(), TestCaseError> {
    let mut f_ref = Fabric::new(Profile::Gpu);
    let mut f_ls = Fabric::new(Profile::Gpu);
    if let Some(m) = fault {
        f_ref.inject(m);
        f_ls.inject(m);
    }
    let mut c_ref = f_ref.new_context(mem_words);
    let mut c_ls = f_ls.new_context(mem_words);
    prefill(&mut c_ref.mem);
    prefill(&mut c_ls.mem);

    let r_ref = f_ref.run_kernel_reference(prog, &mut c_ref, n_threads, &[], budget);
    let r_ls = f_ls.run_kernel_tiled(prog, &mut c_ls, n_threads, &[], budget, width);

    prop_assert_eq!(r_ref, r_ls, "executed count / trap diverged at width {}", width);
    prop_assert_eq!(&c_ref, &c_ls, "memory or registers diverged at width {}", width);
    prop_assert_eq!(f_ref.stats(), f_ls.stats(), "ExecStats diverged at width {}", width);
    prop_assert_eq!(
        f_ref.dyn_instr_count(),
        f_ls.dyn_instr_count(),
        "dynamic-instruction counter diverged at width {}",
        width
    );
    prop_assert_eq!(
        f_ref.fault_state(),
        f_ls.fault_state(),
        "fault activations diverged at width {}",
        width
    );
    Ok(())
}

/// Decode the fault selector drawn by the strategies below.
fn pick_fault(sel: u8, idx: u64, mask: u32) -> Option<FaultModel> {
    match sel % 4 {
        0 => None,
        // Early indices land inside the first batches; later ones exercise
        // the probe/re-run machinery deeper into the stream.
        1 => Some(FaultModel::Transient { instr_index: idx % 64, mask }),
        2 => Some(FaultModel::Transient { instr_index: idx, mask }),
        _ => {
            Some(FaultModel::Permanent { op: ALL_OPS[(idx % ALL_OPS.len() as u64) as usize], mask })
        }
    }
}

proptest! {
    /// Arbitrary kernels over arbitrary thread counts and watchdog budgets,
    /// with and without injected faults, are bit-identical across the
    /// reference path and every lockstep width.
    #[test]
    fn lockstep_matches_reference_for_random_kernels(
        descr in proptest::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u32..4096),
            1..48,
        ),
        threads_sel in (1u32..24, 1..WIDE, any::<bool>()),
        budget in 1u64..220,
        fault_sel in 0u8..=255,
        fault_idx in 0u64..2048,
        fault_mask in any::<u32>(),
    ) {
        let n_threads = threads(threads_sel);
        let prog = build_program(&descr);
        let fault = pick_fault(fault_sel, fault_idx, fault_mask);
        for w in WIDTHS {
            assert_equivalent(w, &prog, MEM_WORDS, n_threads, budget, fault)?;
        }
    }

    /// Focused generator: guaranteed divergent loops (trip count = tid) with
    /// interleaved shared-memory traffic, swept across transient indices —
    /// the worst case for lane-exact fault realization.
    #[test]
    fn lockstep_transient_sweep_on_divergent_loops(
        threads_sel in (2u32..24, 2..WIDE, any::<bool>()),
        idx in 0u64..600,
        mask in 1u32..=u32::MAX,
    ) {
        let n_threads = threads(threads_sel);
        let mut b = ProgramBuilder::new();
        b.tid(Reg(0));
        b.ldimm_i(Reg(1), 1);
        b.ldimm_i(Reg(2), 0);
        let top = b.new_label();
        let out = b.new_label();
        b.bind(top);
        b.jz(Reg(0), out);
        b.iadd(Reg(2), Reg(2), Reg(0));
        b.ld(Reg(3), Reg(2), 0);      // data-dependent shared load
        b.iadd(Reg(2), Reg(2), Reg(3));
        b.isub(Reg(0), Reg(0), Reg(1));
        b.jmp(top);
        b.bind(out);
        b.tid(Reg(4));
        b.st(Reg(4), Reg(2), 8);      // lane-private store
        b.halt();
        let prog = b.build();
        let fault = Some(FaultModel::Transient { instr_index: idx, mask });
        for w in WIDTHS {
            assert_equivalent(w, &prog, MEM_WORDS, n_threads, 4000, fault)?;
        }
    }

    /// Focused generator: lanes branch on tid parity to two *different*
    /// store instructions that write the same shared word. Min-pc
    /// scheduling executes the lower-pc store site first regardless of
    /// thread order, while thread-major semantics say the highest thread
    /// must win the word — the scheduling-order trap a lockstep engine
    /// without store-conflict rollback gets wrong.
    #[test]
    fn lockstep_divergent_shared_stores_keep_thread_order(
        threads_sel in (2u32..24, 2..WIDE, any::<bool>()),
        slot in 0u32..4,
        pad in 0usize..4,
    ) {
        let n_threads = threads(threads_sel);
        let mut b = ProgramBuilder::new();
        b.tid(Reg(0));
        b.ldimm_i(Reg(1), 1);
        b.iand(Reg(2), Reg(0), Reg(1)); // parity
        b.ldimm_i(Reg(4), slot);
        let odd = b.new_label();
        let even = b.new_label();
        b.jnz(Reg(2), odd);
        b.jmp(even);
        b.bind(odd); // lower-pc store site (odd tids)
        b.st(Reg(4), Reg(0), 16); // mem[16 + slot] = tid
        b.halt();
        b.bind(even); // higher-pc store site (even tids)
        for _ in 0..pad {
            b.iadd(Reg(5), Reg(5), Reg(1));
        }
        b.st(Reg(4), Reg(0), 16);
        b.halt();
        let prog = b.build();
        for w in WIDTHS {
            assert_equivalent(w, &prog, MEM_WORDS, n_threads, 1000, None)?;
        }

        // Thread-major ground truth: the last thread owns the word.
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(MEM_WORDS);
        prefill(&mut ctx.mem);
        f.run_kernel(&prog, &mut ctx, n_threads, &[], 1000).unwrap();
        prop_assert_eq!(ctx.mem[16 + slot as usize], n_threads - 1);
    }
}

proptest! {
    // Cheap enough to run 256 cases by default: several of the conflict
    // checks it exercises need that many draws to be reached.
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::default().cases.max(256),
        ..ProptestConfig::default()
    })]

    /// Affine kernels on memory wide enough for many production tiles:
    /// loads and stores at `tid·s + imm` for strides 0, 1 and 2 (uniform,
    /// contiguous and scattered patterns), load and store ranges that
    /// overlap or not, a load after the store that may read another
    /// lane's word, optionally two lanes storing one word and an
    /// out-of-bounds last thread — each run fault-free, with a transient
    /// fault anywhere in the launch, and with a permanent fault on one of
    /// the kernel's opcodes.
    #[test]
    fn lockstep_matches_reference_for_affine_kernels(
        threads_sel in (1u32..24, 1..WIDE, any::<bool>()),
        strides in (0u32..3, 0u32..3),
        imms in proptest::collection::vec((0u32..64, 0..AFFINE_WORDS as u32, any::<bool>()), 4),
        dup_sel in any::<u32>(),
        oob_last in any::<bool>(),
        fault_idx in any::<u64>(),
        fault_op in 0usize..AFFINE_OPS.len(),
        mask in 1u32..=u32::MAX,
    ) {
        let n_threads = threads(threads_sel);
        // A thread `dup` in 1..n stores to its predecessor's word, or none.
        let dup = if dup_sel.is_multiple_of(2) { u32::MAX } else { 1 + dup_sel % n_threads.max(2) };
        let oob = if oob_last { n_threads - 1 } else { u32::MAX };
        let imm = |(near, far, use_far): (u32, u32, bool)| if use_far { far } else { near };
        let [ld0, ld1, st0, st1] = [0, 1, 2, 3].map(|i| imm(imms[i]));
        let prog = affine_program(strides, [ld0, ld1], [st0, st1], dup, oob);

        let mut probe = Fabric::new(Profile::Gpu);
        let mut ctx = probe.new_context(AFFINE_WORDS);
        prefill(&mut ctx.mem);
        let _ = probe.run_kernel_reference(&prog, &mut ctx, n_threads, &[], 100);
        let instr_index = fault_idx % (probe.dyn_instr_count() + 1);
        for fault in [
            None,
            Some(FaultModel::Transient { instr_index, mask }),
            Some(FaultModel::Permanent { op: AFFINE_OPS[fault_op], mask }),
        ] {
            for w in WIDTHS {
                assert_equivalent(w, &prog, AFFINE_WORDS, n_threads, 100, fault)?;
            }
        }
    }
}

/// Words of memory for the affine generator: several production tiles of
/// contiguous accesses fit, while far offsets and stride 2 run off the end.
const AFFINE_WORDS: usize = 4 * KERNEL_TILE;

/// The register-writing opcodes of [`affine_program`].
const AFFINE_OPS: [Op; 8] =
    [Op::Tid, Op::LdImm, Op::IMul, Op::IEq, Op::ISub, Op::Sel, Op::Ld, Op::IAdd];

/// Thread `t` loads `t·s_ld + ld[0]`, stores that word plus `t` at
/// `t·s_st + st[0]`, then loads `t·s_ld + ld[1]` and stores it at
/// `t·s_st + st[1]`. Thread `dup` stores to thread `dup - 1`'s words and
/// thread `oob` past the end of memory.
fn affine_program(
    (s_ld, s_st): (u32, u32),
    ld: [u32; 2],
    st: [u32; 2],
    dup: u32,
    oob: u32,
) -> Program {
    let mut b = ProgramBuilder::new();
    b.tid(Reg(0));
    b.ldimm_i(Reg(1), s_ld);
    b.imul(Reg(2), Reg(0), Reg(1)); // load base
    b.ldimm_i(Reg(6), s_st);
    b.imul(Reg(7), Reg(0), Reg(6)); // store base
    b.ldimm_i(Reg(8), dup);
    b.ieq(Reg(9), Reg(0), Reg(8));
    b.isub(Reg(10), Reg(7), Reg(6));
    b.sel(Reg(7), Reg(9), Reg(10), Reg(7));
    b.ldimm_i(Reg(11), oob);
    b.ieq(Reg(12), Reg(0), Reg(11));
    b.ldimm_i(Reg(13), 2 * AFFINE_WORDS as u32);
    b.sel(Reg(7), Reg(12), Reg(13), Reg(7));
    b.ld(Reg(3), Reg(2), ld[0]);
    b.iadd(Reg(5), Reg(3), Reg(0));
    b.st(Reg(7), Reg(5), st[0]);
    b.ld(Reg(14), Reg(2), ld[1]);
    b.st(Reg(7), Reg(14), st[1]);
    b.halt();
    b.build()
}

/// Words of memory for the shaped generator. Its stores land below
/// [`SHAPED_LOADS`], its loads from there to word 2047, and its edge
/// access at the top of memory, so only the edge access can leave it and
/// no store of a committed tile falls inside the tile's load intervals.
const SHAPED_WORDS: usize = 16 * KERNEL_TILE;

/// First word of the shaped generator's load region.
const SHAPED_LOADS: u32 = 1024;

/// The register-writing opcodes whose permanent faults the shaped
/// property sweeps: the four that write consecutive rows, whose faults
/// void those facts, and the two writers of uniform rows, whose faults
/// keep every fact.
const SHAPED_FAULT_OPS: [Op; 6] = [Op::Tid, Op::IAdd, Op::ISub, Op::Mov, Op::LdImm, Op::Ld];

/// Where a shaped program's edge access lands, for thread `t` of `n`.
#[derive(Copy, Clone, Debug)]
enum Edge {
    /// `t + SHAPED_WORDS − n − 8`: inside memory.
    Inside,
    /// `t + SHAPED_WORDS − n`: the last thread reads or writes the last word.
    AtEnd,
    /// `t + SHAPED_WORDS − n + 1`: the last thread is one word past the end.
    PastEnd,
    /// As `AtEnd`, but the address register holds `t + 2³² − wrap` (so its
    /// row wraps past `u32::MAX` at thread `wrap`) and the offset wraps it
    /// back.
    RegisterWraps,
    /// `t − wrap`, wrapping: the threads before `wrap` address the top of
    /// the 32-bit space, and a tile holding thread `wrap` wraps mid-run.
    AddressWraps,
}

/// A program whose address and condition registers the build proves
/// uniform or consecutive on the converged path, except where noted.
///
/// With `b` the base (a parameter, or fixed by `edge`), `L` =
/// [`SHAPED_LOADS`] and `u` a uniform load masked to `[0, 64)`, thread
/// `t` computes `x = t + b + u` through a `Tid → IAdd → Mov → ISub →
/// IAdd` chain and:
/// - loads `x + L + 64 − b`, the zero register's word `L + zoff`, and
///   `L + u`;
/// - runs a loop of `trips` iterations on a uniform counter that loads at
///   `x + L + 64 − b + counter`, and at a register that enters the loop
///   holding the uniform `L + ubase` and holds `t + u + L + 128` on every
///   later iteration (a join of a uniform and a consecutive definition);
/// - takes one side of a branch on the uniform `sel`, defining one
///   register as `x` or as a uniform word, and loads at it plus an offset
///   (the same join, outside a loop);
/// - loads at `L + 1023 − t`, a row that descends and is not consecutive;
/// - stores a value mixing every load at `x − b` (if `main_store`), then,
///   per `extra`, nothing, the same value `shift` words further on (onto a
///   neighbour's word of the first store when `shift > 0`), or at the
///   uniform address `u + 512`;
/// - loads or stores at the `edge` address (stores if `edge_store` or
///   without a main store, which makes it the program's only store).
#[allow(clippy::too_many_arguments)]
fn shaped_program(
    n_threads: u32,
    base: u32,
    edge: (Edge, u32),
    edge_store: bool,
    (trips, ubase, zoff): (u32, u32, u32),
    (sel, u_target): (u32, u32),
    main_store: bool,
    (extra, shift): (u8, u32),
) -> Program {
    const L: u32 = SHAPED_LOADS;
    let words = SHAPED_WORDS as u32;
    let (kind, wrap) = edge;
    let wrap = wrap % n_threads;
    let b = if let Edge::RegisterWraps = kind { wrap.wrapping_neg() } else { base };
    let edge_target = match kind {
        Edge::Inside => words - n_threads - 8,
        Edge::AtEnd | Edge::RegisterWraps => words - n_threads,
        Edge::PastEnd => words - n_threads + 1,
        Edge::AddressWraps => wrap.wrapping_neg(),
    };
    let edge_store = edge_store || !main_store;
    let mut p = ProgramBuilder::new();
    let r = Reg;
    p.tid(r(0));
    p.ldimm_i(r(1), 0x1357_9BDF);
    p.iadd(r(2), r(1), r(0)); // U + C
    p.mov(r(3), r(2));
    p.ldimm_i(r(4), 0x1357_9BDFu32.wrapping_sub(b));
    p.isub(r(5), r(3), r(4)); // C − U: t + b
    p.ldimm_i(r(6), L + zoff);
    p.ld(r(7), r(6), 0); // uniform load
    p.ldimm_i(r(8), 63);
    p.iand(r(8), r(7), r(8)); // u
    p.iadd(r(9), r(5), r(8)); // C + U: x
    p.ld(r(10), r(9), (L + 64).wrapping_sub(b));
    p.ld(r(11), Reg(63), L + zoff);

    // Uniform-counter loop; r20 joins a uniform and a consecutive row.
    p.ldimm_i(r(12), trips);
    p.ldimm_i(r(13), 1);
    p.ldimm_i(r(20), L + ubase);
    p.ldimm_i(r(24), b.wrapping_sub(L + 128));
    let top = p.new_label();
    p.bind(top);
    p.ld(r(21), r(20), 0);
    p.ld(r(14), r(8), L);
    p.iadd(r(15), r(12), r(9)); // U + C
    p.ld(r(16), r(15), (L + 64).wrapping_sub(b));
    p.ixor(r(17), r(17), r(16));
    p.ixor(r(17), r(17), r(21));
    p.iadd(r(17), r(17), r(14));
    p.isub(r(20), r(9), r(24)); // t + u + L + 128
    p.isub(r(12), r(12), r(13));
    p.jnz(r(12), top);

    // A branch on a uniform condition; r19 joins a uniform and a
    // consecutive definition.
    let (upath, join) = (p.new_label(), p.new_label());
    let imm_j = (L + 256).wrapping_sub(b);
    p.ldimm_i(r(18), sel);
    p.jz(r(18), upath);
    p.mov(r(19), r(9));
    p.jmp(join);
    p.bind(upath);
    p.ldimm_i(r(19), (L + u_target).wrapping_sub(imm_j));
    p.bind(join);
    p.ld(r(22), r(19), imm_j);

    // U − C: a descending row.
    p.ldimm_i(r(23), 1023);
    p.isub(r(23), r(23), r(0));
    p.ld(r(25), r(23), L);

    p.ixor(r(26), r(10), r(11));
    p.iadd(r(26), r(26), r(17));
    p.ixor(r(26), r(26), r(22));
    p.iadd(r(26), r(26), r(25));
    let imm_e = edge_target.wrapping_sub(b);
    if !edge_store {
        p.ld(r(27), r(5), imm_e);
        p.ixor(r(26), r(26), r(27));
    }
    if main_store {
        let imm_st = b.wrapping_neg();
        p.st(r(9), r(26), imm_st);
        match extra % 3 {
            0 => {}
            1 => p.st(r(9), r(10), imm_st.wrapping_add(shift)),
            _ => p.st(r(8), r(26), 512),
        }
    }
    if edge_store {
        p.st(r(5), r(26), imm_e);
    }
    p.halt();
    p.build()
}
proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::default().cases.max(256),
        ..ProptestConfig::default()
    })]

    /// Kernels whose addresses and branch conditions the lane facts prove
    /// uniform or consecutive (see [`shaped_program`]): chains of the
    /// shape-preserving opcodes, a loop on a uniform counter, uniform
    /// loads, joins of a uniform and a consecutive definition, and runs
    /// that end at the last word, cross it by one, or wrap past
    /// `u32::MAX` — each run fault-free, with a transient fault anywhere
    /// in the launch, and with a permanent fault on each opcode that
    /// writes a proven row.
    #[test]
    fn lockstep_matches_reference_for_proven_shapes(
        threads_sel in (1u32..24, 1..WIDE, any::<bool>()),
        base in any::<u32>(),
        edge in (0u8..5, any::<u32>()),
        edge_store in any::<bool>(),
        loop_sel in (1u32..5, 0u32..256, 0u32..64),
        join_sel in (0u32..2, 0u32..512),
        main_store in 0u8..5,
        extra in (0u8..=255, 0u32..4),
        fault_idx in any::<u64>(),
        mask in (any::<bool>(), 1u32..64, 1u32..=u32::MAX),
    ) {
        // Small masks keep faulted addresses inside memory, where a
        // wrongly trusted run would read or write the wrong words.
        let mask = if mask.0 { mask.1 } else { mask.2 };
        let n_threads = threads(threads_sel);
        let kind = [Edge::Inside, Edge::AtEnd, Edge::PastEnd, Edge::RegisterWraps, Edge::AddressWraps]
            [edge.0 as usize];
        let prog = shaped_program(
            n_threads, base, (kind, edge.1), edge_store, loop_sel, join_sel, main_store != 0, extra,
        );
        let mut probe = Fabric::new(Profile::Gpu);
        let mut ctx = probe.new_context(SHAPED_WORDS);
        prefill(&mut ctx.mem);
        let _ = probe.run_kernel_reference(&prog, &mut ctx, n_threads, &[], 400);
        let instr_index = fault_idx % (probe.dyn_instr_count() + 1);
        let faults = SHAPED_FAULT_OPS.map(|op| Some(FaultModel::Permanent { op, mask }));
        for fault in [None, Some(FaultModel::Transient { instr_index, mask })].into_iter().chain(faults) {
            for w in WIDTHS {
                assert_equivalent(w, &prog, SHAPED_WORDS, n_threads, 400, fault)?;
            }
        }
    }
}
