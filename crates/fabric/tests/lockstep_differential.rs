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
