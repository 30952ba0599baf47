//! The kernel probes launch the agent's kernels on an `AgentMirror`; its
//! contexts must hold what the agent's own contexts hold, or the probe
//! times different work. Both process the same frames from a fresh
//! start and must report identical perception and control outputs.

use diverseav_agent::{AgentConfig, SensorimotorAgent};
use diverseav_fabric::{Fabric, Profile};
use diverseav_simworld::{lead_slowdown, Controls, SensorConfig, World, TICK_HZ};
use perfbench::probe::AgentMirror;

#[test]
fn mirror_matches_the_agent_frame_by_frame() {
    let cfg = AgentConfig { actuation_jitter: 0.0, ..AgentConfig::default() };
    let mut agent = SensorimotorAgent::new(cfg, 3);
    let (mut gpu, mut cpu) = (Fabric::new(Profile::Gpu), Fabric::new(Profile::Cpu));
    let mut mirror = AgentMirror::new(cfg);
    let (mut mgpu, mut mcpu) = (Fabric::new(Profile::Gpu), Fabric::new(Profile::Cpu));
    let mut world = World::new(lead_slowdown(), SensorConfig::default(), 5);
    let dt = 1.0 / TICK_HZ;
    for i in 0..40 {
        let frame = world.sense();
        let hint = world.route_hint();
        let controls = agent.step(&frame, hint, dt, &mut gpu, &mut cpu).expect("fault-free");

        mirror.upload(&frame, hint);
        for k in 0..mirror.kernels.len() {
            let (n, budget) = mirror.launch(k);
            mgpu.run_kernel(&mirror.kernels[k], &mut mirror.gpu, n, &[], budget).expect("kernel");
        }
        mirror.stage_control(&frame, dt, i == 0);
        mcpu.run_scalar(&mirror.control, &mut mirror.cpu, cfg.cpu_budget).expect("control");

        let p = agent.perception_debug();
        assert_eq!(
            mirror.perception(),
            [p.distance, p.lat_err_px, p.v_des, p.steer_ff],
            "tick {i}"
        );
        let out = |slot| mirror.cpu.read_f32(slot) as f64;
        use diverseav_agent::layout::cpu as c;
        let quant = |slot| (out(slot) / cfg.actuation_quantum).round() * cfg.actuation_quantum;
        let expect =
            Controls::clamped(quant(c::OUT_THROTTLE), quant(c::OUT_BRAKE), quant(c::OUT_STEER));
        assert_eq!(controls, expect, "tick {i}");
        assert_eq!(gpu.dyn_instr_count(), mgpu.dyn_instr_count(), "tick {i}");
        assert_eq!(cpu.dyn_instr_count(), mcpu.dyn_instr_count(), "tick {i}");
        world.step(controls);
    }
}
