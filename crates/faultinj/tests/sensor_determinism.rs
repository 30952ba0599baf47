//! Determinism gate for the sensor-boundary fault models: every
//! [`SensorFault`] realization must be a pure function of its plan seed —
//! bit-identical across `DIVERSEAV_THREADS` settings and across
//! shard/monolithic execution. The seed-purity invariant is what lets
//! sensor campaigns ride the shard partitioner, the golden cache, and
//! the deterministic merge unchanged.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, merge_artifacts, parse_artifact, run_campaign_cached, run_record, Campaign,
    CampaignScale, FaultModelKind, SensorFault, SensorFaultKind, ShardConfig, ShardSpec,
};
use diverseav_runtime::FrameInjector;
use diverseav_simworld::{Image, ScenarioKind, SensorConfig, SensorFrame};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that mutate `DIVERSEAV_THREADS` (process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 4,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 20.0,
        training_runs: 1,
    }
}

fn sensor_campaign(class: SensorFaultKind) -> Campaign {
    Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Sensor(class),
        mode: AgentMode::RoundRobin,
    }
}

/// A synthetic frame with a deterministic pixel pattern, so corruption
/// deltas are visible against non-trivial content.
fn frame_at(step: u64) -> SensorFrame {
    let mut f = SensorFrame::empty();
    f.step = step;
    f.t = step as f64 / 40.0;
    f.speed = 9.0 + (step % 7) as f32 * 0.25;
    f.imu.yaw_rate = 0.01 * (step % 5) as f32;
    f.gps = [step as f32 * 0.4, 1.5];
    let mut img = Image::new(16, 12);
    for y in 0..12 {
        for x in 0..16 {
            let v = ((x * 13 + y * 29 + step as usize) % 251) as u8;
            img.set_pixel(x, y, [v, v.wrapping_mul(3), v.wrapping_add(40)]);
        }
    }
    f.cameras.push(img);
    f.lidar = Some(vec![5.0; 16]);
    f
}

/// Full-frame equality, down to every pixel byte and scalar bit.
fn frames_identical(a: &SensorFrame, b: &SensorFrame) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    /// For any seed and class, two independent injectors replaying the
    /// same frame stream produce byte-identical corrupted frames — the
    /// realization depends on nothing but `(kind, seed, frame.step)`, so
    /// shard workers and monolithic workers cannot disagree.
    #[test]
    fn realization_is_a_pure_function_of_the_seed(
        seed in any::<u64>(),
        class_ix in 0usize..5,
        ticks in 60u64..120,
    ) {
        let fault = SensorFault { kind: SensorFaultKind::ALL[class_ix], seed };
        let mut a = FrameInjector::new(fault);
        let mut b = FrameInjector::new(fault);
        for step in 0..ticks {
            let mut fa = frame_at(step);
            let mut fb = frame_at(step);
            a.apply(&mut fa);
            b.apply(&mut fb);
            prop_assert!(
                frames_identical(&fa, &fb),
                "{fault} realization diverged at step {step}"
            );
        }
        prop_assert!(a.activated(), "{fault} never corrupted a frame in {ticks} ticks");
        prop_assert_eq!(a.onset_time(), b.onset_time());
    }

    /// Replaying only every other frame (a shard worker that happens to
    /// see a different interleaving of work) still realizes the same
    /// corruption on the frames it does see: no hidden per-injector
    /// stream state.
    #[test]
    fn realization_is_independent_of_interleaving(
        seed in any::<u64>(),
        class_ix in 0usize..5,
    ) {
        let fault = SensorFault { kind: SensorFaultKind::ALL[class_ix], seed };
        let mut dense = FrameInjector::new(fault);
        let mut sparse = FrameInjector::new(fault);
        for step in 0..96u64 {
            let mut fd = frame_at(step);
            dense.apply(&mut fd);
            if step % 2 == 0 {
                let mut fs = frame_at(step);
                sparse.apply(&mut fs);
                prop_assert!(
                    frames_identical(&fd, &fs),
                    "{fault} realization depends on injector history at step {step}"
                );
            }
        }
    }
}

/// Render a campaign's observable payload as shard-run lines (the
/// lossless f64-bit encoding), so comparisons are bit-exact.
fn render_runs(campaign: Campaign) -> Vec<String> {
    let r =
        run_campaign_cached(campaign, &tiny_scale(), None, SensorConfig::default(), false, None);
    let label = campaign.to_string();
    let mut out = Vec::new();
    for (i, g) in r.golden.iter().enumerate() {
        out.push(run_record(&label, "golden", i, g).render_shard_line(0));
    }
    for (i, g) in r.injected.iter().enumerate() {
        out.push(run_record(&label, "injected", i, g).render_shard_line(0));
    }
    out
}

#[test]
fn sensor_campaigns_are_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    for class in [SensorFaultKind::Dropout, SensorFaultKind::NoiseInflation] {
        std::env::set_var("DIVERSEAV_THREADS", "1");
        let single = render_runs(sensor_campaign(class));
        std::env::set_var("DIVERSEAV_THREADS", "4");
        let multi = render_runs(sensor_campaign(class));
        std::env::remove_var("DIVERSEAV_THREADS");
        assert_eq!(single, multi, "{class} campaign varies with DIVERSEAV_THREADS");
        assert!(
            single.iter().any(|l| l.contains("\"model\": \"sensor\"")),
            "campaign actually injected sensor faults"
        );
    }
}

#[test]
fn sharded_and_monolithic_sensor_campaigns_agree_bit_for_bit() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    std::env::remove_var("DIVERSEAV_THREADS");
    let campaign = sensor_campaign(SensorFaultKind::Oscillation);
    let monolithic = render_runs(campaign);

    let dir = std::env::temp_dir().join(format!("sensor_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut artifacts = Vec::new();
    for index in 0..3 {
        let cfg = ShardConfig {
            campaign,
            scale: tiny_scale(),
            sensor: SensorConfig::default(),
            spec: ShardSpec { index, count: 3 },
            batch_size: 2,
            guided: None,
        };
        let path = dir.join(format!("shard{index}.jsonl"));
        execute_shard(&cfg, &path).expect("shard executes");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        artifacts.push(parse_artifact(&text).expect("artifact parses"));
    }
    let merged = merge_artifacts(&artifacts).expect("shards merge");
    assert_eq!(merged.len(), 1);
    let mut from_shards = Vec::new();
    for (i, g) in merged[0].golden.iter().enumerate() {
        assert_eq!((g.kind, g.index), ("golden", i));
        from_shards.push(g.render_shard_line(0));
    }
    for (i, g) in merged[0].injected.iter().enumerate() {
        assert_eq!((g.kind, g.index), ("injected", i));
        from_shards.push(g.render_shard_line(0));
    }
    assert_eq!(monolithic, from_shards, "shard/monolithic sensor runs diverge");
    std::fs::remove_dir_all(&dir).ok();
}
