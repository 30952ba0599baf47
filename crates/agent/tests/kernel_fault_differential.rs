//! Fault differential on the agent's own kernels.
//!
//! `lockstep_differential.rs` in the fabric crate checks the lockstep
//! engine on generated kernels; this checks it on the five programs the
//! agent actually runs, at the production 64×48 layout and with the
//! agent's watchdog budgets. For every kernel, `run_kernel` must equal
//! `run_kernel_reference` in memory, result or trap, `ExecStats`,
//! dynamic-instruction count and fault state — under a transient fault
//! swept across the whole launch, and under a permanent fault on every
//! opcode the kernel executes.

use diverseav_agent::{kernels, layout::param, AgentConfig, GpuLayout};
use diverseav_fabric::{Context, Fabric, FaultModel, Profile, Program};

/// One kernel launch of the agent's pipeline, with the memory image it
/// starts from.
struct Launch {
    name: &'static str,
    prog: Program,
    n_threads: u32,
    budget: u64,
    pre: Context,
}

/// A synthetic scene at the production layout: a textured road, a blue
/// vehicle block, white lane marks in the bottom third, the agent's
/// in-lane weights and distance LUT, and a filled parameter block.
fn scene(l: &GpuLayout) -> Context {
    let mut ctx = Context::new(l.total);
    for y in 0..l.h {
        for x in 0..l.w {
            let i = y * l.w + x;
            let t = ((x * 7 + y * 13) % 17) as f32 / 170.0;
            let (r, g, b) = if (28..36).contains(&x) && (26..32).contains(&y) {
                (0.12, 0.14, 0.85)
            } else if y >= l.h * 2 / 3 && (x == 12 || x == 13 || x == 50 || x == 51) {
                (0.92, 0.93, 0.91)
            } else {
                (0.3 + t, 0.32, 0.35 - t)
            };
            ctx.write_f32(l.img_r + i, r);
            ctx.write_f32(l.img_g + i, g);
            ctx.write_f32(l.img_b + i, b);
            ctx.write_f32(l.lanew + i, if y > l.h / 2 { 1.0 } else { 0.25 });
        }
    }
    for y2 in 0..l.h2 {
        ctx.write_f32(l.dist + y2, 80.0 - y2 as f32 * 3.0);
    }
    for (slot, v) in [
        (param::BIAS, 0.15),
        (param::THRESH, 0.05),
        (param::KD, 0.5),
        (param::D_MIN, 6.0),
        (param::D_EMERG, 5.0),
        (param::KS, 0.01),
        (param::KC, 2.0),
        (param::LIMIT, 8.0),
        (param::CURV, 0.002),
        (param::KL, 0.3),
        (param::LAT_OFF, 0.1),
        (param::KH, 0.5),
        (param::HEAD_ERR, 0.02),
        (param::KV, 0.01),
        (param::CAL_REF, 0.5),
        (param::KCAL, 1.0),
    ] {
        ctx.write_f32(l.params + slot, v);
    }
    ctx
}

/// The agent's five GPU launches in pipeline order, each paired with the
/// memory image the fault-free pipeline hands it.
fn launches() -> Vec<Launch> {
    let cfg = AgentConfig::default();
    let l = GpuLayout::new(cfg.img_w, cfg.img_h);
    let (gpu, decide) = (cfg.gpu_thread_budget, cfg.decide_budget);
    let pipeline = [
        ("mask", kernels::build_mask_kernel(&l), l.w * l.h, gpu),
        ("conv", kernels::build_conv_kernel(&l), l.w2 * l.h2, gpu),
        ("rowmax", kernels::build_rowmax_kernel(&l), l.h2, gpu),
        ("lane", kernels::build_lane_kernel(&l), l.w, gpu),
        ("decide", kernels::build_decide_kernel(&l), 1, decide),
    ];
    let mut ctx = scene(&l);
    let mut fabric = Fabric::new(Profile::Gpu);
    pipeline
        .into_iter()
        .map(|(name, prog, n, budget)| {
            let pre = ctx.clone();
            fabric
                .run_kernel_reference(&prog, &mut ctx, n as u32, &[], budget)
                .expect("fault-free pipeline");
            Launch { name, prog, n_threads: n as u32, budget, pre }
        })
        .collect()
}

/// Run `launch` under `fault` on both engines and assert every observable
/// matches.
fn assert_engines_agree(launch: &Launch, fault: FaultModel) {
    let mut f_ref = Fabric::new(Profile::Gpu);
    let mut f_ls = Fabric::new(Profile::Gpu);
    f_ref.inject(fault);
    f_ls.inject(fault);
    let mut c_ref = launch.pre.clone();
    let mut c_ls = launch.pre.clone();
    let (prog, n, budget) = (&launch.prog, launch.n_threads, launch.budget);
    let r_ref = f_ref.run_kernel_reference(prog, &mut c_ref, n, &[], budget);
    let r_ls = f_ls.run_kernel(prog, &mut c_ls, n, &[], budget);
    let at = format!("{} under {fault}", launch.name);
    assert_eq!(r_ref, r_ls, "result or trap diverged: {at}");
    assert!(c_ref == c_ls, "memory diverged: {at}");
    assert_eq!(f_ref.stats(), f_ls.stats(), "ExecStats diverged: {at}");
    assert_eq!(f_ref.dyn_instr_count(), f_ls.dyn_instr_count(), "dynamic count diverged: {at}");
    assert_eq!(f_ref.fault_state(), f_ls.fault_state(), "fault state diverged: {at}");
}

/// Fault-free profile of a launch: its dynamic-instruction count and
/// executed opcodes.
fn profile(launch: &Launch) -> Fabric {
    let mut f = Fabric::new(Profile::Gpu);
    let mut ctx = launch.pre.clone();
    f.run_kernel_reference(&launch.prog, &mut ctx, launch.n_threads, &[], launch.budget)
        .expect("fault-free launch");
    f
}

/// Bit flips from a low mantissa bit (data corruption) to high bits that
/// turn addresses and loop counters into traps and hangs.
const MASKS: [u32; 4] = [0x0000_0001, 0x0040_0000, 0x0100_0000, 0x8000_0000];

#[test]
fn transient_faults_match_reference_across_each_launch() {
    const SWEEP: u64 = 512;
    for launch in launches() {
        let total = profile(&launch).dyn_instr_count();
        assert!(total > 0, "{} executes instructions", launch.name);
        let indices = (0..SWEEP).map(|k| k * total / SWEEP).chain([total - 1, total]);
        for (k, instr_index) in indices.enumerate() {
            let mask = MASKS[k % MASKS.len()];
            assert_engines_agree(&launch, FaultModel::Transient { instr_index, mask });
        }
    }
}

#[test]
fn permanent_faults_match_reference_on_every_executed_opcode() {
    for launch in launches() {
        let used = profile(&launch).stats().used_ops();
        assert!(!used.is_empty(), "{} executes instructions", launch.name);
        for (op, _) in used {
            for mask in [MASKS[0], MASKS[2]] {
                assert_engines_agree(&launch, FaultModel::Permanent { op, mask });
            }
        }
    }
}
