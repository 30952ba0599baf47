//! Temporal data diversity in one page: render consecutive camera frames,
//! count differing bits per pixel, and project object motion — the
//! property DiverseAV's round-robin distribution exploits (§V-A).
//!
//! ```text
//! cargo run --release --example bit_diversity
//! ```

use diverseav_analysis::{generate_sequence, SynthConfig};
use diverseav_analysis::{matched_shifts, percentile, pixel_bit_diffs, DiversityStats};
use diverseav_runtime::{LoopObserver, PolicyDriver, SimLoop, TickContext};
use diverseav_simworld::{lead_slowdown, CameraSet, Controls, Image, SensorConfig, World};

/// Accumulates per-pixel bit differences between consecutive center-camera
/// frames as they stream through the loop.
#[derive(Default)]
struct FrameDiffs {
    prev: Option<Image>,
    diffs: Vec<u32>,
}

impl LoopObserver for FrameDiffs {
    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        let cam = &ctx.frame.cameras[1];
        if let Some(prev) = &self.prev {
            self.diffs.extend(pixel_bit_diffs(prev, cam));
        }
        self.prev = Some(cam.clone());
    }

    fn cameras(&self) -> CameraSet {
        CameraSet::CENTER
    }
}

fn main() {
    // --- simulator stream at 40 Hz (Fig 5b) ---
    let world = World::new(lead_slowdown(), SensorConfig::default(), 3);
    let driver = PolicyDriver(|_: &World| Controls::clamped(0.2, 0.0, 0.0));
    let mut sim_loop = SimLoop::new(world, driver);
    let mut frame_diffs = FrameDiffs::default();
    sim_loop.run_for(81, &mut [&mut frame_diffs]);
    let sim = DiversityStats::of(&frame_diffs.diffs);
    println!(
        "simulator camera, consecutive 40 Hz frames: median {:.1} bits and p90 {:.1} bits \
         of each 24-bit pixel differ (paper Fig 5b: 5 / 9)",
        sim.p50, sim.p90
    );

    // --- real-world-like 10 Hz stream (Fig 5a analogue) ---
    let seq = generate_sequence(&SynthConfig { n_frames: 30, ..Default::default() });
    let mut kitti_diffs = Vec::new();
    let mut shifts = Vec::new();
    for w in seq.windows(2) {
        kitti_diffs.extend(pixel_bit_diffs(&w[0].camera, &w[1].camera));
        shifts.extend(matched_shifts(&w[0].objects_px, &w[1].objects_px));
    }
    let kitti = DiversityStats::of(&kitti_diffs);
    println!(
        "real-world-like camera, 10 Hz: median {:.1} bits, p90 {:.1} bits (paper Fig 5a: 8 / 13)",
        kitti.p50, kitti.p90
    );
    if !shifts.is_empty() {
        println!(
            "...while tracked object centers shift only {:.1} px at the median — \
             semantically consistent, bit-level diverse.",
            percentile(&shifts, 50.0)
        );
    }

    // --- the paper's single-pixel illustration (Fig 2(2)) ---
    let bits = (95u8 ^ 96u8).count_ones() * 3;
    println!("\nFig 2(2): RGB (95,95,95) → (96,96,96) flips {bits} of 24 bits.");
}
