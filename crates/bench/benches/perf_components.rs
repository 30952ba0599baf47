//! Criterion micro-benchmarks of the performance-critical components:
//! fabric interpreter throughput, camera rasterization, LiDAR sweeps, the
//! ADS tick and world stepping. Full agent inference and detector updates
//! are timed by the benchmark of record instead (`perfbench`'s
//! `agent.step_us` and `core.observe_ns` probes).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use diverseav::{Ads, AdsConfig, AgentMode, VehState};
use diverseav_fabric::{Fabric, Profile, ProgramBuilder, Reg};
use diverseav_runtime::{PolicyDriver, SimLoop};
use diverseav_simworld::{
    lead_slowdown, lidar_scan_into, render_camera_into, Controls, Image, RenderScene, SensorConfig,
    World,
};

/// Straight-line float pipeline for raw interpreter throughput.
fn interpreter_throughput(c: &mut Criterion) {
    let mut b = ProgramBuilder::new();
    b.ldimm_f(Reg(0), 1.0001);
    b.ldimm_f(Reg(1), 0.5);
    for _ in 0..200 {
        b.ffma(Reg(2), Reg(0), Reg(1), Reg(2));
        b.fmul(Reg(3), Reg(2), Reg(0));
        b.fadd(Reg(4), Reg(3), Reg(1));
        b.fmax(Reg(5), Reg(4), Reg(2));
        b.fsub(Reg(2), Reg(5), Reg(1));
    }
    b.halt();
    let prog = b.build();
    let n_instr = prog.len() as u64;
    let mut group = c.benchmark_group("fabric");
    group.throughput(Throughput::Elements(n_instr));
    group.bench_function("scalar_interpreter", |bench| {
        let mut fabric = Fabric::new(Profile::Gpu);
        let mut ctx = fabric.new_context(16);
        bench.iter(|| fabric.run_scalar(&prog, &mut ctx, 1 << 20).expect("runs"));
    });
    group.finish();
}

/// Data-parallel kernel launch (the agent's dominant cost shape), through
/// both engines: the lockstep path `run_kernel` dispatches to, and the
/// thread-major reference interpreter it must stay bit-identical to. The
/// pair is the standing measurement of the lockstep speedup.
fn kernel_launch(c: &mut Criterion) {
    let mut b = ProgramBuilder::new();
    b.tid(Reg(0));
    b.ld(Reg(1), Reg(0), 0);
    b.ldimm_f(Reg(2), 1.5);
    b.fmul(Reg(1), Reg(1), Reg(2));
    b.st(Reg(0), Reg(1), 4096);
    b.halt();
    let prog = b.build();
    let mut group = c.benchmark_group("fabric");
    group.throughput(Throughput::Elements(3072 * prog.len() as u64));
    group.bench_function("kernel_3072_threads", |bench| {
        let mut fabric = Fabric::new(Profile::Gpu);
        let mut ctx = fabric.new_context(8192);
        bench.iter(|| fabric.run_kernel(&prog, &mut ctx, 3072, &[], 100).expect("runs"));
    });
    group.bench_function("kernel_3072_threads_scalar_reference", |bench| {
        let mut fabric = Fabric::new(Profile::Gpu);
        let mut ctx = fabric.new_context(8192);
        bench.iter(|| fabric.run_kernel_reference(&prog, &mut ctx, 3072, &[], 100).expect("runs"));
    });
    group.finish();
}

/// One camera render of a populated scene into a reused image (the
/// allocation-free form the campaign hot path uses).
fn camera_render(c: &mut Criterion) {
    let world = World::new(lead_slowdown(), SensorConfig::default(), 7);
    let cfg = SensorConfig::default();
    c.bench_function("sensors/render_camera_64x48", |bench| {
        let mut img = Image::new(0, 0);
        bench.iter(|| {
            let scene = RenderScene {
                track: &world.scenario().track,
                ego: world.ego_state().pose,
                ego_s: world.ego_s(),
                npcs: world.npcs(),
                frame_seed: 1234,
            };
            render_camera_into(&cfg, &scene, 1, &mut img);
            img.data()[0]
        });
    });
}

/// One LiDAR sweep of a populated scene into a reused range buffer (the
/// allocation-free form the campaign hot path uses when LiDAR is enabled).
fn lidar_sweep(c: &mut Criterion) {
    let world = World::new(lead_slowdown(), SensorConfig::default(), 7);
    let cfg = SensorConfig::default();
    c.bench_function("sensors/lidar_scan_180_beams", |bench| {
        let mut ranges = Vec::new();
        bench.iter(|| {
            let scene = RenderScene {
                track: &world.scenario().track,
                ego: world.ego_state().pose,
                ego_s: world.ego_s(),
                npcs: world.npcs(),
                frame_seed: 1234,
            };
            lidar_scan_into(&cfg, &scene, &mut ranges);
            ranges.len()
        });
    });
}

/// One ADS tick in DiverseAV mode (sense excluded).
fn ads_tick(c: &mut Criterion) {
    let mut world = World::new(lead_slowdown(), SensorConfig::default(), 9);
    let frame = world.sense();
    let hint = world.route_hint();
    let state = VehState::from(world.ego_state());
    c.bench_function("ads/diverseav_tick", |bench| {
        let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 2));
        bench.iter(|| ads.tick(&frame, hint, state, 0.1).expect("fault-free"));
    });
}

/// Full world step including sensing (the simulation inner loop), driven
/// through the canonical `SimLoop` tick.
fn world_step(c: &mut Criterion) {
    c.bench_function("world/sense_plus_step", |bench| {
        bench.iter_batched(
            || {
                SimLoop::new(
                    World::new(lead_slowdown(), SensorConfig::default(), 10),
                    PolicyDriver(|_: &World| Controls::default()),
                )
            },
            |mut sim| {
                sim.run_for(1, &mut []);
                sim
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = interpreter_throughput, kernel_launch, camera_render, lidar_sweep, ads_tick, world_step
}
criterion_main!(benches);
