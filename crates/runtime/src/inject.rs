//! Sensor-boundary fault injection (ROADMAP item 5).
//!
//! The paper's fault model is register bit-flips inside the compute
//! fabric (§II-B), but DiverseAV's detection claim — temporal diversity
//! catches safety-critical divergence early — should hold for *any*
//! corruption that reaches the control loop. Following the
//! component-agnostic argument of "Injecting Hallucinations in
//! Autonomous Vehicles" (PAPERS.md), this module injects faults at the
//! sensor/driver boundary: a [`FrameInjector`] installed on the
//! [`SimLoop`](crate::SimLoop) mutates the reusable `SensorFrame` in
//! place immediately after `World::capture_into`, before the driver ever
//! sees it.
//!
//! Design invariants:
//!
//! * **Seed purity** — every realized fault is a pure function of
//!   `(SensorFault, frame.step)`. No RNG state is carried between
//!   frames; all randomness comes from SplitMix64 hashes of the fault
//!   seed, so shard partitioning, the golden cache, and bit-identical
//!   campaign merges keep working unchanged.
//! * **Zero allocation** — corruption happens in place on the pooled
//!   frame buffers (`Image::data_mut`, the lidar vector), preserving
//!   the allocation-free steady state that `tests/zero_alloc.rs` pins.
//! * **This is the only sanctioned `SensorFrame` mutation site** outside
//!   `simworld` itself — `ci/lint.sh` greps for violations.

use diverseav_simworld::{hash_amp, splitmix64, SensorFrame};

/// Hash two words into a uniform f64 in `[0, 1)`.
#[inline]
fn unit(a: u64, b: u64) -> f64 {
    (splitmix64(a ^ splitmix64(b)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The five sensor-fault classes of the broadened fault model.
///
/// Each class corrupts the channels the agent's perception/control path
/// actually consumes — the center camera, the speedometer, and the IMU
/// yaw rate — plus GPS and LiDAR where present, so the corruption is
/// visible to any downstream consumer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SensorFaultKind {
    /// Intermittent total sensor loss: every other frame from onset is
    /// blanked (black cameras, zero speed/IMU/LiDAR).
    Dropout,
    /// Slow calibration drift: an additive bias on speed, yaw rate, GPS
    /// and camera blueness that grows linearly from onset.
    BiasDrift,
    /// Bursts of extreme out-of-range readings: blocks of frames with
    /// saturated pixels and wild speed/yaw values, alternating with
    /// clean blocks.
    OutlierBurst,
    /// Inflated measurement noise: heavy per-frame pseudo-noise on every
    /// pixel and scalar channel from onset onward.
    NoiseInflation,
    /// Sign-alternating perturbation at the frame rate: `+mag` on even
    /// steps, `-mag` on odd steps, on speed, yaw rate, and blueness.
    Oscillation,
}

impl SensorFaultKind {
    /// All classes, in stable campaign-enumeration order.
    pub const ALL: [SensorFaultKind; 5] = [
        SensorFaultKind::Dropout,
        SensorFaultKind::BiasDrift,
        SensorFaultKind::OutlierBurst,
        SensorFaultKind::NoiseInflation,
        SensorFaultKind::Oscillation,
    ];

    /// Stable kebab-case label (journal artifacts, Table I row names,
    /// CLI `--kind` values as `sensor-<label>`).
    pub fn label(self) -> &'static str {
        match self {
            SensorFaultKind::Dropout => "dropout",
            SensorFaultKind::BiasDrift => "bias-drift",
            SensorFaultKind::OutlierBurst => "outlier-burst",
            SensorFaultKind::NoiseInflation => "noise-inflation",
            SensorFaultKind::Oscillation => "oscillation",
        }
    }

    /// Stable small integer used in campaign plan-seed folding.
    pub fn class_code(self) -> u64 {
        match self {
            SensorFaultKind::Dropout => 0,
            SensorFaultKind::BiasDrift => 1,
            SensorFaultKind::OutlierBurst => 2,
            SensorFaultKind::NoiseInflation => 3,
            SensorFaultKind::Oscillation => 4,
        }
    }

    /// Parse a label produced by [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for SensorFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One planned sensor fault: a class plus the seed that fully determines
/// its realization (onset step, magnitudes, per-frame noise).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SensorFault {
    /// The fault class.
    pub kind: SensorFaultKind,
    /// Realization seed — the *only* source of randomness.
    pub seed: u64,
}

impl SensorFault {
    /// Onset step derived from the seed: `[8, 48)`, early enough that
    /// even short scenarios leave room to observe detection.
    pub fn onset_step(&self) -> u64 {
        8 + splitmix64(self.seed ^ 0x0_5E7) % 40
    }

    /// Class magnitude scale in `[0, 1)` derived from the seed.
    fn magnitude(&self) -> f64 {
        unit(self.seed, 0x4A61)
    }
}

impl std::fmt::Display for SensorFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SENSOR {} seed={:#x}", self.kind, self.seed)
    }
}

/// The injection hook: owns one [`SensorFault`] and mutates frames in
/// place as they pass from the world to the driver.
#[derive(Clone, Debug)]
pub struct FrameInjector {
    fault: SensorFault,
    onset_step: u64,
    activated: bool,
    onset_time: Option<f64>,
}

impl FrameInjector {
    /// Build the injector for one planned fault.
    pub fn new(fault: SensorFault) -> Self {
        let onset_step = fault.onset_step();
        FrameInjector { fault, onset_step, activated: false, onset_time: None }
    }

    /// The fault this injector realizes.
    pub fn fault(&self) -> SensorFault {
        self.fault
    }

    /// Whether at least one frame has been corrupted.
    pub fn activated(&self) -> bool {
        self.activated
    }

    /// Simulation time of the first corrupted frame, if any.
    pub fn onset_time(&self) -> Option<f64> {
        self.onset_time
    }

    /// Corrupt `frame` in place according to the fault class. Pure
    /// function of `(self.fault, frame)`; allocation-free. Camera slots
    /// the loop left empty (0×0, not rendered this tick) are skipped, and
    /// each rendered camera is corrupted independently of the others.
    pub fn apply(&mut self, frame: &mut SensorFrame) {
        if frame.step < self.onset_step {
            return;
        }
        let since = frame.step - self.onset_step;
        let seed = self.fault.seed;
        let mag = self.fault.magnitude();
        let corrupted = match self.fault.kind {
            SensorFaultKind::Dropout => {
                // Period-2 intermittency: under round-robin distribution
                // one agent sees only blanked frames while its peer sees
                // the real world — the starkest possible divergence.
                if since.is_multiple_of(2) {
                    for cam in &mut frame.cameras {
                        cam.data_mut().fill(0);
                    }
                    frame.speed = 0.0;
                    frame.imu.accel = 0.0;
                    frame.imu.yaw_rate = 0.0;
                    if let Some(lidar) = &mut frame.lidar {
                        lidar.fill(0.0);
                    }
                    true
                } else {
                    false
                }
            }
            SensorFaultKind::BiasDrift => {
                // Linear drift per step since onset; rates scale with the
                // seed-drawn magnitude. The one-frame skew between the
                // round-robin agents turns the slope into divergence, so
                // the slope must be steep enough that consecutive frames
                // yield visibly different control outputs (kp = 0.3 per
                // m/s): the detectable window is the ramp between onset
                // and both agents saturating the brake, after which the
                // corruption is pure common mode.
                let steps = (since + 1) as f64;
                let speed_rate = 0.40 + 0.60 * mag; // m/s per step
                let yaw_rate = 0.12 + 0.20 * mag; // rad/s per step
                let px_rate = 2.5 + 3.5 * mag; // blue LSBs per step
                frame.speed += (speed_rate * steps) as f32;
                frame.imu.yaw_rate += (yaw_rate * steps) as f32;
                frame.gps[0] += (0.2 * steps) as f32;
                frame.gps[1] += (0.1 * steps) as f32;
                let blue = (px_rate * steps).min(120.0) as u16;
                for cam in &mut frame.cameras {
                    for px in cam.data_mut().chunks_exact_mut(3) {
                        px[2] = (px[2] as u16 + blue).min(255) as u8;
                    }
                }
                true
            }
            SensorFaultKind::OutlierBurst => {
                // 8-on / 8-off bursts of extreme readings; burst content
                // re-drawn per frame from the seed.
                if (since / 8).is_multiple_of(2) {
                    let h = splitmix64(seed ^ frame.step);
                    frame.speed = if h & 1 == 0 { 60.0 + (20.0 * mag) as f32 } else { -8.0 };
                    frame.imu.yaw_rate = if h & 2 == 0 { 4.0 } else { -4.0 };
                    frame.imu.accel = 30.0;
                    frame.gps[0] += 500.0;
                    // Saturate a hashed horizontal band of every rendered
                    // camera to vehicle-blue: a hallucinated obstacle.
                    for cam in frame.cameras.iter_mut().filter(|c| c.height() > 0) {
                        let h_px = cam.height();
                        let band = (h % h_px as u64) as usize;
                        let lo = band.min(h_px.saturating_sub(8));
                        let w = cam.width();
                        let data = cam.data_mut();
                        for y in lo..(lo + 8).min(h_px) {
                            let row = &mut data[y * w * 3..(y + 1) * w * 3];
                            for px in row.chunks_exact_mut(3) {
                                px[0] = 20;
                                px[1] = 20;
                                px[2] = 255;
                            }
                        }
                    }
                    if let Some(lidar) = &mut frame.lidar {
                        lidar.fill(0.5);
                    }
                    true
                } else {
                    false
                }
            }
            SensorFaultKind::NoiseInflation => {
                // Heavy, per-frame-keyed pseudo-noise on every channel.
                let amp_px = 30.0 + 40.0 * mag;
                let amp_speed = 2.0 + 4.0 * mag;
                let amp_yaw = 0.5 + 1.0 * mag;
                let fkey = splitmix64(seed ^ frame.step.wrapping_mul(0x9E37));
                frame.speed += (amp_speed * hash_amp(fkey, 1)) as f32;
                frame.imu.yaw_rate += (amp_yaw * hash_amp(fkey, 2)) as f32;
                frame.imu.accel += (3.0 * hash_amp(fkey, 3)) as f32;
                frame.gps[0] += (4.0 * hash_amp(fkey, 4)) as f32;
                frame.gps[1] += (4.0 * hash_amp(fkey, 5)) as f32;
                for (c, cam) in frame.cameras.iter_mut().enumerate() {
                    let ckey = fkey ^ ((c as u64) << 48);
                    for (i, px) in cam.data_mut().iter_mut().enumerate() {
                        let n = hash_amp(ckey, i as u64) * amp_px;
                        *px = (*px as f64 + n).clamp(0.0, 255.0) as u8;
                    }
                }
                if let Some(lidar) = &mut frame.lidar {
                    for (i, r) in lidar.iter_mut().enumerate() {
                        *r += (hash_amp(fkey, 0x11DA ^ i as u64) * 2.0) as f32;
                    }
                }
                true
            }
            SensorFaultKind::Oscillation => {
                // ±mag alternating at the frame rate: with round-robin
                // distribution one agent sees only +, the other only −.
                let sign = if since.is_multiple_of(2) { 1.0 } else { -1.0 };
                let d_speed = (3.0 + 5.0 * mag) * sign;
                let d_yaw = (0.6 + 1.0 * mag) * sign;
                frame.speed = (frame.speed + d_speed as f32).max(0.0);
                frame.imu.yaw_rate += d_yaw as f32;
                let d_blue = (40.0 + 50.0 * mag) * sign;
                for cam in &mut frame.cameras {
                    for px in cam.data_mut().chunks_exact_mut(3) {
                        px[2] = (px[2] as f64 + d_blue).clamp(0.0, 255.0) as u8;
                    }
                }
                true
            }
        };
        if corrupted && !self.activated {
            self.activated = true;
            self.onset_time = Some(frame.t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diverseav_simworld::SensorFrame;

    fn frame_at(step: u64) -> SensorFrame {
        let mut f = SensorFrame::empty();
        f.step = step;
        f.t = step as f64 / 40.0;
        f.speed = 10.0;
        f.cameras.push(diverseav_simworld::Image::new(8, 6));
        f
    }

    #[test]
    fn labels_and_codes_are_stable() {
        let labels: Vec<&str> = SensorFaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            ["dropout", "bias-drift", "outlier-burst", "noise-inflation", "oscillation"]
        );
        for (i, k) in SensorFaultKind::ALL.into_iter().enumerate() {
            assert_eq!(k.class_code(), i as u64);
            assert_eq!(SensorFaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(SensorFaultKind::from_label("bogus"), None);
    }

    #[test]
    fn onset_is_seed_pure_and_in_range() {
        for seed in 0..200u64 {
            let f = SensorFault { kind: SensorFaultKind::Dropout, seed };
            let o = f.onset_step();
            assert!((8..48).contains(&o), "onset {o} out of range");
            assert_eq!(o, f.onset_step(), "onset must be deterministic");
        }
    }

    #[test]
    fn no_corruption_before_onset() {
        for kind in SensorFaultKind::ALL {
            let fault = SensorFault { kind, seed: 9 };
            let mut inj = FrameInjector::new(fault);
            let mut frame = frame_at(fault.onset_step() - 1);
            let before = frame.clone();
            inj.apply(&mut frame);
            assert_eq!(frame, before, "{kind} corrupted before onset");
            assert!(!inj.activated());
            assert_eq!(inj.onset_time(), None);
        }
    }

    #[test]
    fn every_class_activates_and_records_onset_time() {
        for kind in SensorFaultKind::ALL {
            let fault = SensorFault { kind, seed: 123 };
            let mut inj = FrameInjector::new(fault);
            let mut mutated = false;
            for step in 0..128 {
                let mut frame = frame_at(step);
                let before = frame.clone();
                inj.apply(&mut frame);
                mutated |= frame != before;
            }
            assert!(mutated, "{kind} never corrupted a frame");
            assert!(inj.activated(), "{kind} never activated");
            let t = inj.onset_time().expect("onset time recorded");
            assert!((t - fault.onset_step() as f64 / 40.0).abs() < 1e-9, "{kind} onset at {t}");
        }
    }

    #[test]
    fn realization_is_bit_identical_across_injectors() {
        for kind in SensorFaultKind::ALL {
            let fault = SensorFault { kind, seed: 777 };
            let mut a = FrameInjector::new(fault);
            let mut b = FrameInjector::new(fault);
            for step in 0..96 {
                let mut fa = frame_at(step);
                let mut fb = frame_at(step);
                a.apply(&mut fa);
                b.apply(&mut fb);
                assert_eq!(fa, fb, "{kind} diverged at step {step}");
            }
        }
    }

    #[test]
    fn oscillation_alternates_polarity_with_frame_parity() {
        let fault = SensorFault { kind: SensorFaultKind::Oscillation, seed: 5 };
        let onset = fault.onset_step();
        let mut inj = FrameInjector::new(fault);
        let mut even = frame_at(onset);
        let mut odd = frame_at(onset + 1);
        inj.apply(&mut even);
        inj.apply(&mut odd);
        assert!(even.speed > 10.0, "even-parity frame biased up");
        assert!(odd.speed < 10.0, "odd-parity frame biased down");
    }

    #[test]
    fn empty_camera_slots_are_skipped_without_changing_activation() {
        // The loop's demand capture leaves unread cameras as 0×0 slots:
        // `[empty, center, empty]` must corrupt the center camera exactly
        // as a full frame does, and activate at the same onset.
        let with_sides = |step, sides: usize| {
            let mut f = frame_at(step);
            f.cameras = vec![
                diverseav_simworld::Image::new(sides, sides),
                diverseav_simworld::Image::new(8, 6),
                diverseav_simworld::Image::new(sides, sides),
            ];
            f
        };
        for kind in SensorFaultKind::ALL {
            let fault = SensorFault { kind, seed: 4242 };
            let mut full = FrameInjector::new(fault);
            let mut sparse = FrameInjector::new(fault);
            for step in 0..96 {
                let mut f = with_sides(step, 8);
                let mut s = with_sides(step, 0);
                full.apply(&mut f);
                sparse.apply(&mut s);
                assert_eq!(s.cameras[1], f.cameras[1], "{kind} center camera at step {step}");
                assert!(s.cameras[0].data().is_empty() && s.cameras[2].data().is_empty());
                f.cameras = s.cameras.clone();
                assert_eq!(s, f, "{kind} scalars at step {step}");
                assert_eq!(sparse.activated(), full.activated(), "{kind} activation");
            }
            assert!(sparse.activated(), "{kind} never activated");
            assert_eq!(sparse.onset_time(), full.onset_time(), "{kind} onset time");
        }
    }

    #[test]
    fn dropout_blanks_alternating_frames() {
        let fault = SensorFault { kind: SensorFaultKind::Dropout, seed: 31 };
        let onset = fault.onset_step();
        let mut inj = FrameInjector::new(fault);
        let mut hit = frame_at(onset);
        let mut skip = frame_at(onset + 1);
        inj.apply(&mut hit);
        inj.apply(&mut skip);
        assert_eq!(hit.speed, 0.0);
        assert!(hit.cameras[0].data().iter().all(|&b| b == 0));
        assert_eq!(skip.speed, 10.0, "odd-parity frames pass clean");
    }
}
