//! Component probes on inputs captured from a workload's own golden run:
//! the rasterizer and world step (`simworld`), one agent step (`agent`),
//! each agent kernel on the lockstep and the reference engine plus the
//! CPU control program (`fabric`), and detector observation (`core`).
//!
//! The kernels run on an [`AgentMirror`]: a GPU/CPU context laid out and
//! initialised the way `SensorimotorAgent::new` and the host half of
//! `SensorimotorAgent::step` do, so each kernel can be launched on its
//! own. The benchmark's tests check the mirror against the agent.

use crate::trace::{median, Captured};
use diverseav::{DetectorConfig, DetectorModel, OnlineDetector, TrainSample};
use diverseav_agent::kernels::{
    build_control_program, build_conv_kernel, build_decide_kernel, build_lane_kernel,
    build_mask_kernel, build_rowmax_kernel,
};
use diverseav_agent::layout::{cpu, out, param};
use diverseav_agent::{AgentConfig, GpuLayout, SensorimotorAgent};
use diverseav_fabric::{Context, Fabric, Profile, Program};
use diverseav_simworld::{RouteHint, SensorFrame, TICK_HZ};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The agent's five GPU kernels, in launch order.
pub const KERNELS: [&str; 5] = ["mask", "conv", "rowmax", "lane", "decide"];

/// Timing repetitions over the captured inputs.
const REPS: usize = 5;

/// The agent's programs and contexts, outside the agent.
pub struct AgentMirror {
    pub cfg: AgentConfig,
    pub layout: GpuLayout,
    pub kernels: [Program; 5],
    pub control: Program,
    pub gpu: Context,
    pub cpu: Context,
}

impl AgentMirror {
    pub fn new(cfg: AgentConfig) -> Self {
        let l = GpuLayout::new(cfg.img_w, cfg.img_h);
        let mut gpu = Context::new(l.total);
        let mut cpu_ctx = Context::new(cpu::TOTAL);
        let fx = (cfg.img_w as f64 / 2.0) / (cfg.hfov_deg.to_radians() / 2.0).tan();
        let (cx, cy) = (cfg.img_w as f64 / 2.0, cfg.img_h as f64 / 2.0);
        for y in 0..l.h {
            for x in 0..l.w {
                let yf = y as f64 + 0.5;
                let mut w = 0.0f32;
                if yf > cy + 0.2 {
                    let d = cfg.cam_height * fx / (yf - cy);
                    let lat = -((x as f64 + 0.5) - cx) * d / fx;
                    if lat.abs() < 2.2 && d < 70.0 {
                        w = 1.0;
                    }
                }
                gpu.write_f32(l.lanew + y * l.w + x, w);
            }
        }
        for y2 in 0..l.h2 {
            let row = 2.0 * y2 as f64 + 1.5;
            let d = if row > cy + 0.3 {
                (cfg.cam_height * fx / (row - cy)).clamp(2.0, 200.0)
            } else {
                200.0
            };
            gpu.write_f32(l.dist + y2, d as f32);
        }
        gpu.write_f32(l.hist, 1.0e6);
        gpu.write_f32(l.hist + 1, 1.0e6);
        for (slot, v) in [
            (param::BIAS, cfg.bias),
            (param::THRESH, cfg.mask_thresh),
            (param::KD, cfg.kd),
            (param::D_MIN, cfg.d_min),
            (param::D_EMERG, cfg.d_emerg),
            (param::KS, cfg.ks),
            (param::KC, cfg.kc),
            (param::KL, cfg.kl),
            (param::KH, cfg.kh),
            (param::KV, cfg.kv),
            (param::KCAL, cfg.kcal),
        ] {
            gpu.write_f32(l.params + slot, v);
        }
        let mut c0 = 0.0f32;
        for y2 in 0..l.h2 {
            c0 += gpu.read_f32(l.dist + y2) * 0.001f32;
        }
        gpu.write_f32(l.params + param::CAL_REF, c0);
        for (i, v) in
            [cfg.kp, cfg.ki, cfg.kb, cfg.ema_alpha, cfg.kdy, cfg.integ_clamp, cfg.steer_beta]
                .into_iter()
                .enumerate()
        {
            cpu_ctx.write_f32(cpu::PARAMS + i, v);
        }
        AgentMirror {
            cfg,
            layout: l,
            kernels: [
                build_mask_kernel(&l),
                build_conv_kernel(&l),
                build_rowmax_kernel(&l),
                build_lane_kernel(&l),
                build_decide_kernel(&l),
            ],
            control: build_control_program(cfg.kp, cfg.ki, cfg.kb, cfg.integ_clamp),
            gpu,
            cpu: cpu_ctx,
        }
    }

    /// Host upload of one frame (zero compute jitter).
    pub fn upload(&mut self, frame: &SensorFrame, hint: RouteHint) {
        let l = self.layout;
        let img = &frame.cameras[1];
        for y in 0..l.h {
            for x in 0..l.w {
                let [r, g, b] = img.pixel(x, y);
                let i = y * l.w + x;
                self.gpu.write_f32(l.img_r + i, r as f32 / 255.0);
                self.gpu.write_f32(l.img_g + i, g as f32 / 255.0);
                self.gpu.write_f32(l.img_b + i, b as f32 / 255.0);
            }
        }
        self.gpu.write_f32(l.params + param::BIAS, self.cfg.bias);
        self.gpu.write_f32(l.params + param::LIMIT, hint.speed_limit);
        self.gpu.write_f32(l.params + param::CURV, hint.curvature);
        self.gpu.write_f32(l.params + param::LAT_OFF, hint.lateral_offset);
        self.gpu.write_f32(l.params + param::HEAD_ERR, hint.heading_err);
    }

    /// Launch shape of kernel `k`: (threads, per-thread budget).
    pub fn launch(&self, k: usize) -> (u32, u64) {
        let l = self.layout;
        let n = [l.w * l.h, l.w2 * l.h2, l.h2, l.w, 1][k] as u32;
        let budget = if k == 4 { self.cfg.decide_budget } else { self.cfg.gpu_thread_budget };
        (n, budget)
    }

    /// Host DMA of the waypoints and CPU inputs for the control program.
    pub fn stage_control(&mut self, frame: &SensorFrame, dt: f64, first: bool) {
        let mut wp = [0.0f32; 8];
        self.gpu.read_slice_f32_into(self.layout.out + out::WP, &mut wp);
        self.cpu.write_slice_f32(cpu::WP, &wp);
        self.cpu.write_f32(cpu::SPEED, frame.speed);
        self.cpu.write_f32(cpu::DT, dt as f32);
        self.cpu.write_f32(cpu::YAW_RATE, frame.imu.yaw_rate);
        let k = dt * 40.0;
        let alpha = 1.0 - (1.0 - self.cfg.ema_alpha as f64).powf(k);
        let beta = 1.0 - (1.0 - self.cfg.steer_beta as f64).powf(k);
        self.cpu.write_f32(cpu::PARAMS + 3, alpha as f32);
        self.cpu.write_f32(cpu::PARAMS + 6, beta as f32);
        if first {
            self.cpu.write_f32(cpu::VDES_EMA, frame.speed);
        }
    }

    /// The perception outputs the agent reports as `PerceptionDebug`.
    pub fn perception(&self) -> [f32; 4] {
        let o = self.layout.out;
        [out::DIST, out::LAT_ERR, out::V_DES, out::STEER_FF].map(|i| self.gpu.read_f32(o + i))
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Run every probe over `captured`; `training` feeds the detector probe
/// when the workload trained one. Returns metric name → value.
pub fn run(
    captured: &[Captured],
    detector: Option<&(DetectorModel, DetectorConfig)>,
    training: &[Vec<TrainSample>],
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let dt = 1.0 / TICK_HZ;

    let (mut sense, mut step) = (Vec::new(), Vec::new());
    let mut frame = SensorFrame::empty();
    for _ in 0..REPS {
        for c in captured {
            let mut w = c.world.clone();
            let t = Instant::now();
            w.sense_into(&mut frame);
            sense.push(us(t));
            let mut w = c.world.clone();
            let t = Instant::now();
            black_box(w.step(c.controls));
            step.push(us(t));
        }
    }
    m.insert("simworld.sense_us".into(), median(&sense));
    m.insert("simworld.step_us".into(), median(&step));

    let mut agent_step = Vec::new();
    for _ in 0..REPS {
        let mut agent = SensorimotorAgent::new(AgentConfig::default(), 1);
        let mut gpu = Fabric::new(Profile::Gpu);
        let mut cpu_fab = Fabric::new(Profile::Cpu);
        for c in captured {
            let t = Instant::now();
            black_box(
                agent.step(&c.frame, c.hint, dt, &mut gpu, &mut cpu_fab).expect("fault-free"),
            );
            agent_step.push(us(t));
        }
    }
    let agent_us = median(&agent_step);
    m.insert("agent.step_us".into(), agent_us);

    // Per-kernel lockstep vs reference from identical pre-states; the
    // lockstep result carries the pipeline forward.
    let mut lock = vec![Vec::new(); KERNELS.len()];
    let mut refr = vec![Vec::new(); KERNELS.len()];
    let (mut control, mut instr, mut lock_ns) = (Vec::new(), 0u64, 0f64);
    for _ in 0..REPS {
        let mut mirror = AgentMirror::new(AgentConfig::default());
        // One fabric per engine for the whole sequence, as in the agent.
        let mut lock_fab = Fabric::new(Profile::Gpu);
        let mut ref_fab = Fabric::new(Profile::Gpu);
        let mut cpu_fab = Fabric::new(Profile::Cpu);
        for (i, c) in captured.iter().enumerate() {
            mirror.upload(&c.frame, c.hint);
            for k in 0..KERNELS.len() {
                let (n, budget) = mirror.launch(k);
                let prog = &mirror.kernels[k];
                // Lockstep runs in place on the warm context, as in the
                // agent; the reference runs on a copy of the pre-state.
                let mut pre = mirror.gpu.clone();
                let t = Instant::now();
                let ran = lock_fab
                    .run_kernel(prog, &mut mirror.gpu, n, &[], budget)
                    .expect("fault-free kernel");
                lock[k].push(us(t));
                let t = Instant::now();
                ref_fab
                    .run_kernel_reference(prog, &mut pre, n, &[], budget)
                    .expect("fault-free kernel");
                refr[k].push(us(t));
                assert!(
                    mirror.gpu.mem == pre.mem,
                    "lockstep and reference engines disagree on {}",
                    KERNELS[k]
                );
                instr += ran;
                lock_ns += lock[k].last().expect("just pushed") * 1e3;
            }
            mirror.stage_control(&c.frame, dt, i == 0);
            let t = Instant::now();
            cpu_fab
                .run_scalar(&mirror.control, &mut mirror.cpu, mirror.cfg.cpu_budget)
                .expect("fault-free control");
            control.push(us(t));
        }
    }
    let (mut lock_sum, mut ref_sum) = (0.0, 0.0);
    for (k, name) in KERNELS.iter().enumerate() {
        let (l, r) = (median(&lock[k]), median(&refr[k]));
        lock_sum += l;
        ref_sum += r;
        m.insert(format!("fabric.{name}.lockstep_us"), l);
        m.insert(format!("fabric.{name}.reference_us"), r);
    }
    let control_us = median(&control);
    m.insert("fabric.lockstep_speedup".into(), ref_sum / lock_sum);
    m.insert("fabric.control_us".into(), control_us);
    m.insert("fabric.gpu_ns_per_instr".into(), lock_ns / instr.max(1) as f64);
    m.insert("agent.host_us".into(), agent_us - lock_sum - control_us);

    let observe_ns = match detector {
        Some((model, cfg)) if training.iter().any(|s| !s.is_empty()) => {
            let mut per_call = Vec::new();
            for _ in 0..REPS {
                let mut det = OnlineDetector::new(model.clone(), *cfg);
                let n: usize = training.iter().map(Vec::len).sum();
                let t = Instant::now();
                for s in training.iter().flatten() {
                    black_box(det.observe(&s.state, s.div, s.t));
                }
                per_call.push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
            }
            median(&per_call)
        }
        _ => 0.0,
    };
    m.insert("core.observe_ns".into(), observe_ns);
    m
}
