//! Differential test for the zero-allocation sensing path: for every
//! registered scenario, `World::sense_into` must produce frames
//! bit-identical to the allocating `World::sense`, including when the
//! destination buffer is reused across ticks, scenarios, and sensor
//! configurations (the reuse pattern `SimLoop` relies on).
//!
//! The demand capture `World::capture_into` that `SimLoop` drives must
//! agree with `World::sense` on every camera it renders and on every
//! scalar and LiDAR field, leave the other camera slots empty, and leave
//! the world's noise stream exactly where a full capture would.

use diverseav_runtime::registry;
use diverseav_simworld::{CameraSet, Controls, Image, SensorConfig, SensorFrame, World};

const SETS: [CameraSet; 3] = [CameraSet::NONE, CameraSet::CENTER, CameraSet::ALL];

/// `frame` (captured with `set`) equals the full `expected` frame on
/// every rendered camera and every non-camera field, and its other
/// camera slots are empty.
fn assert_demand_capture(expected: &SensorFrame, frame: &SensorFrame, set: CameraSet, at: &str) {
    assert_eq!(frame.cameras.len(), 3, "three positional camera slots: {at}");
    for c in 0..3 {
        if set.contains(c) {
            assert_eq!(frame.cameras[c], expected.cameras[c], "camera {c} pixels: {at}");
        } else {
            assert_eq!(frame.cameras[c], Image::new(0, 0), "camera {c} must be empty: {at}");
        }
    }
    let mut scalars = frame.clone();
    scalars.cameras.clone_from(&expected.cameras);
    assert_eq!(&scalars, expected, "scalar or LiDAR field mismatch: {at}");
}

#[test]
fn sense_into_is_bit_identical_to_sense_for_all_registered_scenarios() {
    // One buffer shared across every scenario/seed/lidar combination so
    // stale state from a previous (differently shaped) frame would show.
    let mut frame = SensorFrame::empty();
    for entry in registry::entries() {
        for seed in [1u64, 77, 0xC0FFEE] {
            for enable_lidar in [false, true] {
                let cfg = SensorConfig { enable_lidar, ..Default::default() };
                let mut fresh = World::new((entry.build)(), cfg, seed);
                let mut reused = World::new((entry.build)(), cfg, seed);
                for tick in 0..8 {
                    let expected = fresh.sense();
                    reused.sense_into(&mut frame);
                    assert_eq!(
                        expected, frame,
                        "frame mismatch: scenario={} seed={seed} lidar={enable_lidar} tick={tick}",
                        entry.key
                    );
                    // Advance both worlds identically so later frames see
                    // evolved NPC/ego state, not just the spawn scene.
                    let controls = Controls::clamped(0.4, 0.0, 0.02);
                    fresh.step(controls);
                    reused.step(controls);
                }
            }
        }
    }
}

#[test]
fn sense_into_recovers_from_mismatched_buffer_shape() {
    // A buffer previously filled at one camera resolution (with lidar)
    // must be fully reshaped by a world with a different configuration.
    let lidar_cfg =
        SensorConfig { enable_lidar: true, width: 96, height: 64, ..Default::default() };
    let mut donor = World::new(registry::build("ghost-cut-in").expect("builtin"), lidar_cfg, 3);
    let mut frame = SensorFrame::empty();
    donor.sense_into(&mut frame);
    assert!(frame.lidar.is_some());

    let cfg = SensorConfig::default();
    let mut fresh = World::new(registry::build("lead-slowdown").expect("builtin"), cfg, 9);
    let mut reused = World::new(registry::build("lead-slowdown").expect("builtin"), cfg, 9);
    reused.sense_into(&mut frame);
    assert_eq!(fresh.sense(), frame, "reshaped buffer must match a fresh frame exactly");
}

#[test]
fn demand_capture_matches_sense_for_every_camera_set() {
    // One buffer across every scenario/seed/lidar/camera-set combination,
    // so a stale slot from a differently demanded frame would show.
    let mut frame = SensorFrame::empty();
    let controls = Controls::clamped(0.4, 0.0, 0.02);
    for entry in registry::entries() {
        for seed in [1u64, 77, 0xC0FFEE] {
            for enable_lidar in [false, true] {
                let cfg = SensorConfig { enable_lidar, ..Default::default() };
                for set in SETS {
                    let mut fresh = World::new((entry.build)(), cfg, seed);
                    let mut demand = World::new((entry.build)(), cfg, seed);
                    for tick in 0..8 {
                        let expected = fresh.sense();
                        demand.capture_into(&mut frame, set);
                        let at = format!(
                            "scenario={} seed={seed} lidar={enable_lidar} set={set:?} tick={tick}",
                            entry.key
                        );
                        assert_demand_capture(&expected, &frame, set, &at);
                        fresh.step(controls);
                        demand.step(controls);
                    }
                }

                // Mixed sets tick by tick, then a full frame: the noise
                // stream never depends on which cameras were rendered.
                let mut fresh = World::new((entry.build)(), cfg, seed);
                let mut mixed = World::new((entry.build)(), cfg, seed);
                for tick in 0..9 {
                    let set = SETS[(tick * 2 + seed as usize) % 3];
                    let expected = fresh.sense();
                    mixed.capture_into(&mut frame, set);
                    let at = format!("mixed scenario={} seed={seed} tick={tick}", entry.key);
                    assert_demand_capture(&expected, &frame, set, &at);
                    fresh.step(controls);
                    mixed.step(controls);
                }
                mixed.sense_into(&mut frame);
                assert_eq!(
                    fresh.sense(),
                    frame,
                    "full frame after mixed sets: scenario={} seed={seed} lidar={enable_lidar}",
                    entry.key
                );
            }
        }
    }
}
