//! The DiverseAV error-detection engine (§III-D of the paper).
//!
//! The detector learns, from fault-free executions of the *long training
//! scenarios*, the maximum rolling-window divergence between the actuation
//! outputs of the two agents for each discretized vehicle state
//! ⟨v, a⟩ (throttle & brake) and ⟨ω, α⟩ (steer). The learned maxima are
//! stored in lookup tables (LUTs); at runtime an alarm is raised when the
//! rolling-window mean divergence exceeds the threshold for the current
//! vehicle state.
//!
//! The same machinery trains the fully-duplicated (FD-ADS, §VI-B) and
//! single-agent temporal-outlier (§VI-C) baselines — only the source of
//! the divergence stream differs (chosen by the ADS mode).

use crate::actuation::{Divergence, VehState};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;

/// Discretization and windowing configuration of the detector.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DetectorConfig {
    /// Rolling-window size in received samples (the paper sweeps 3..=40).
    pub rw: usize,
    /// Speed bin width (m/s).
    pub v_bin: f64,
    /// Acceleration bin width (m/s²).
    pub a_bin: f64,
    /// Yaw-rate bin width (rad/s).
    pub w_bin: f64,
    /// Yaw-acceleration bin width (rad/s²).
    pub alpha_bin: f64,
    /// Multiplier applied to learned thresholds at runtime.
    pub margin: f64,
    /// Absolute threshold floor (guards against empty/zero bins).
    pub floor: f64,
    /// Whether threshold lookups take the max over the 3×3 neighborhood
    /// of state bins (robustness against sparse training coverage).
    /// Disable only for ablation studies.
    pub neighborhood: bool,
    /// Optional trend-aware extension: alarm on a sustained upward slope
    /// of the normalized divergence score before the magnitude threshold
    /// is crossed. `None` (the default) reproduces the paper's
    /// magnitude-only detector bit-for-bit.
    pub trend: Option<TrendConfig>,
}

/// Parameters of the trend-aware alarm path (slow-onset sensor faults such
/// as bias drift cross the magnitude threshold late; their divergence
/// *slope* turns positive much earlier).
///
/// Let `s_t = max_ch sm_t(ch) / threshold(state_t, ch)` be the normalized
/// divergence score (1.0 ≡ the magnitude alarm line) and
/// `d_t = s_t − s_{t−1}` its discrete derivative. The detector maintains
/// `ewma_t = alpha·d_t + (1−alpha)·ewma_{t−1}` and raises the alarm when
/// `ewma_t > slope_threshold` **and** `s_t > arming_floor`. The arming
/// floor keeps benign low-divergence jitter from alarming on slope alone;
/// the magnitude check is evaluated first and unchanged, so the trend path
/// can only make detection earlier, never later.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TrendConfig {
    /// EWMA smoothing factor over the score derivative, in (0, 1].
    pub alpha: f64,
    /// Alarm when the smoothed derivative exceeds this (score units per
    /// observation; at 40 Hz, 0.06 ≈ the score rising a full threshold
    /// in ~0.4 s).
    pub slope_threshold: f64,
    /// The trend alarm only arms once the score itself exceeds this
    /// fraction of the magnitude threshold.
    pub arming_floor: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig { alpha: 0.25, slope_threshold: 0.06, arming_floor: 0.8 }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            rw: 3,
            v_bin: 1.0,
            a_bin: 1.0,
            w_bin: 0.1,
            alpha_bin: 1.0,
            margin: 1.2,
            floor: 0.005,
            neighborhood: true,
            trend: None,
        }
    }
}

impl DetectorConfig {
    /// The configuration with a different rolling-window size.
    pub fn with_rw(mut self, rw: usize) -> Self {
        assert!(rw >= 1, "rolling window must be at least 1");
        self.rw = rw;
        self
    }

    /// The configuration with the trend-aware alarm path enabled.
    pub fn with_trend(mut self, trend: TrendConfig) -> Self {
        assert!(trend.alpha > 0.0 && trend.alpha <= 1.0, "alpha must be in (0, 1]");
        self.trend = Some(trend);
        self
    }

    fn speed_key(&self, s: &VehState) -> (i32, i32) {
        (bin(s.v, self.v_bin, 40), bin(s.a, self.a_bin, 12))
    }

    fn steer_key(&self, s: &VehState) -> (i32, i32) {
        (bin(s.w, self.w_bin, 30), bin(s.alpha, self.alpha_bin, 30))
    }
}

fn bin(x: f64, width: f64, clamp: i32) -> i32 {
    let b = (x / width).floor();
    (b as i32).clamp(-clamp, clamp)
}

/// One observation of the divergence stream: time, vehicle state, and the
/// per-channel divergence between the two reference outputs.
///
/// Used both for training (fault-free long routes) and for offline replay
/// of recorded streams through an [`OnlineDetector`] when sweeping
/// detector parameters.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct TrainSample {
    /// Observation time (s).
    pub t: f64,
    /// Vehicle state at the observation.
    pub state: VehState,
    /// Raw (unsmoothed) divergence.
    pub div: Divergence,
}

/// The learned threshold model: per-state-bin maxima of the rolling-window
/// divergence plus global fallbacks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DetectorModel {
    rw: usize,
    throttle: HashMap<(i32, i32), f64>,
    brake: HashMap<(i32, i32), f64>,
    steer: HashMap<(i32, i32), f64>,
    global: [f64; 3],
}

impl DetectorModel {
    /// Train a model from fault-free runs.
    ///
    /// `runs` holds one sample sequence per training execution. The
    /// rolling-window mean (window `cfg.rw`) is computed within each run,
    /// and the per-bin maximum of the smoothed divergence becomes the
    /// threshold — exactly the paper's training procedure.
    pub fn train(runs: &[Vec<TrainSample>], cfg: &DetectorConfig) -> DetectorModel {
        let mut model = DetectorModel { rw: cfg.rw, ..Default::default() };
        for run in runs {
            let mut window = SmoothedDivergence::new(cfg.rw);
            for sample in run {
                let sm = window.push(sample.div);
                let skey = cfg.speed_key(&sample.state);
                let wkey = cfg.steer_key(&sample.state);
                let up = |m: &mut HashMap<(i32, i32), f64>, k, v: f64| {
                    let e = m.entry(k).or_insert(0.0);
                    if v > *e {
                        *e = v;
                    }
                };
                up(&mut model.throttle, skey, sm.throttle);
                up(&mut model.brake, skey, sm.brake);
                up(&mut model.steer, wkey, sm.steer);
                for (g, v) in model.global.iter_mut().zip([sm.throttle, sm.brake, sm.steer]) {
                    if v > *g {
                        *g = v;
                    }
                }
            }
        }
        model
    }

    /// The rolling-window size the model was trained with.
    pub fn rw(&self) -> usize {
        self.rw
    }

    /// Number of populated (bin, channel) threshold entries.
    pub fn entries(&self) -> usize {
        self.throttle.len() + self.brake.len() + self.steer.len()
    }

    /// Threshold for `channel` (0 = throttle, 1 = brake, 2 = steer) at a
    /// vehicle state.
    ///
    /// The lookup takes the maximum over the 3×3 neighborhood of state
    /// bins: finite training data leaves sparsely-visited bins with
    /// unrealistically tight maxima, and neighboring vehicle states have
    /// near-identical divergence behaviour. Bins with no populated
    /// neighborhood fall back to the global maximum.
    pub fn threshold(&self, state: &VehState, channel: usize, cfg: &DetectorConfig) -> f64 {
        let (lut, key) = match channel {
            0 => (&self.throttle, cfg.speed_key(state)),
            1 => (&self.brake, cfg.speed_key(state)),
            2 => (&self.steer, cfg.steer_key(state)),
            _ => panic!("channel {channel} out of range"),
        };
        let mut raw = f64::NEG_INFINITY;
        let span = if cfg.neighborhood { 1 } else { 0 };
        for di in -span..=span {
            for dj in -span..=span {
                if let Some(&v) = lut.get(&(key.0 + di, key.1 + dj)) {
                    raw = raw.max(v);
                }
            }
        }
        if !raw.is_finite() {
            raw = self.global[channel];
        }
        (raw * cfg.margin).max(cfg.floor)
    }
}

impl fmt::Display for DetectorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "detector model (rw={}, {} bins, global=[{:.3}, {:.3}, {:.3}])",
            self.rw,
            self.entries(),
            self.global[0],
            self.global[1],
            self.global[2]
        )
    }
}

/// Rolling-window mean of a divergence stream.
#[derive(Clone, Debug)]
struct SmoothedDivergence {
    rw: usize,
    buf: VecDeque<Divergence>,
    sum: [f64; 3],
}

impl SmoothedDivergence {
    fn new(rw: usize) -> Self {
        SmoothedDivergence { rw: rw.max(1), buf: VecDeque::new(), sum: [0.0; 3] }
    }

    fn push(&mut self, d: Divergence) -> Divergence {
        self.buf.push_back(d);
        self.sum[0] += d.throttle;
        self.sum[1] += d.brake;
        self.sum[2] += d.steer;
        if self.buf.len() > self.rw {
            let old = self.buf.pop_front().expect("nonempty window");
            self.sum[0] -= old.throttle;
            self.sum[1] -= old.brake;
            self.sum[2] -= old.steer;
        }
        // Zero-padded warm-up: always divide by the full window so early
        // blips are diluted the same way in training and at runtime.
        let n = self.rw as f64;
        Divergence { throttle: self.sum[0] / n, brake: self.sum[1] / n, steer: self.sum[2] / n }
    }
}

/// Per-observation detector telemetry, refreshed on every
/// [`OnlineDetector::observe`] call (including after the alarm has
/// latched) — the flight recorder's view of the detector's internals.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct DetectorTelemetry {
    /// Normalized divergence score: max over channels of smoothed
    /// divergence / threshold. 1.0 is the magnitude alarm line.
    pub score: f64,
    /// EWMA of the score's first difference (0.0 when the trend path is
    /// disabled).
    pub slope: f64,
    /// Whether the trend path was armed on this observation (slope above
    /// threshold with the score past the arming floor).
    pub armed: bool,
}

/// A runtime detector instance: the learned model plus online state.
#[derive(Clone, Debug)]
pub struct OnlineDetector {
    model: DetectorModel,
    cfg: DetectorConfig,
    window: SmoothedDivergence,
    alarm_at: Option<f64>,
    /// Normalized score of the previous observation (trend path).
    prev_score: f64,
    /// EWMA of the score derivative (trend path).
    ewma_slope: f64,
    /// Telemetry of the latest observation.
    last: DetectorTelemetry,
}

impl OnlineDetector {
    /// Instantiate a runtime detector.
    ///
    /// `cfg.rw` should match the window the model was trained with (the
    /// sweep harness trains one model per `rw`).
    pub fn new(model: DetectorModel, cfg: DetectorConfig) -> Self {
        let window = SmoothedDivergence::new(cfg.rw);
        OnlineDetector {
            model,
            cfg,
            window,
            alarm_at: None,
            prev_score: 0.0,
            ewma_slope: 0.0,
            last: DetectorTelemetry::default(),
        }
    }

    /// Feed one divergence observation at time `t`; returns `true` if this
    /// observation raises the alarm (first exceedance only).
    ///
    /// The magnitude check (smoothed divergence above the learned
    /// per-state threshold) is evaluated on every observation exactly as
    /// in the magnitude-only detector. When [`DetectorConfig::trend`] is
    /// set, a second alarm path fires on a sustained positive slope of
    /// the normalized score (see [`TrendConfig`]); the paths are
    /// OR-composed, so the trend path can only move the alarm earlier.
    ///
    /// Every observation — before *and* after the alarm latches —
    /// refreshes [`telemetry`](OnlineDetector::telemetry), so the flight
    /// recorder keeps seeing the score trajectory through the end of the
    /// run. The alarm itself is unaffected: once `alarm_at` is set it
    /// never moves and the counter never fires again.
    pub fn observe(&mut self, state: &VehState, div: Divergence, t: f64) -> bool {
        let sm = self.window.push(div);
        let mut magnitude = false;
        let mut score = 0.0_f64;
        for ch in 0..3 {
            // `threshold` bottoms out at `cfg.floor` > 0, so the
            // normalized score is always finite.
            let th = self.model.threshold(state, ch, &self.cfg);
            if sm.channel(ch) > th {
                magnitude = true;
            }
            score = score.max(sm.channel(ch) / th);
        }
        let trend = match self.cfg.trend {
            Some(tr) => {
                let d = score - self.prev_score;
                self.ewma_slope = tr.alpha * d + (1.0 - tr.alpha) * self.ewma_slope;
                self.prev_score = score;
                self.ewma_slope > tr.slope_threshold && score > tr.arming_floor
            }
            None => false,
        };
        self.last = DetectorTelemetry { score, slope: self.ewma_slope, armed: trend };
        if self.alarm_at.is_some() {
            return false;
        }
        if magnitude || trend {
            self.alarm_at = Some(t);
            return true;
        }
        false
    }

    /// Telemetry of the most recent observation (zeroed before the
    /// first).
    pub fn telemetry(&self) -> DetectorTelemetry {
        self.last
    }

    /// Time the alarm was first raised, if ever.
    pub fn alarm_time(&self) -> Option<f64> {
        self.alarm_at
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The underlying model.
    pub fn model(&self) -> &DetectorModel {
        &self.model
    }

    /// Replay a recorded divergence stream and return the alarm time, if
    /// any — the offline path used when sweeping (td, rw) parameters over
    /// recorded campaigns.
    pub fn replay(
        model: &DetectorModel,
        cfg: DetectorConfig,
        stream: &[TrainSample],
    ) -> Option<f64> {
        let mut det = OnlineDetector::new(model.clone(), cfg);
        for s in stream {
            det.observe(&s.state, s.div, s.t);
        }
        det.alarm_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(v: f64, a: f64) -> VehState {
        VehState { v, a, w: 0.0, alpha: 0.0 }
    }

    fn sample(v: f64, a: f64, d: f64) -> TrainSample {
        TrainSample {
            t: 0.0,
            state: state(v, a),
            div: Divergence { throttle: d, brake: d / 2.0, steer: d / 4.0 },
        }
    }

    #[test]
    fn training_learns_binwise_maxima() {
        let runs = vec![vec![sample(5.0, 0.0, 0.1), sample(5.0, 0.0, 0.3), sample(9.0, 0.0, 0.05)]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        // Bin (5, 0): max 0.3; bin (9, 0): 0.05.
        assert!((model.threshold(&state(5.2, 0.1), 0, &cfg) - 0.3).abs() < 1e-12);
        assert!((model.threshold(&state(9.5, 0.0), 0, &cfg) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn unseen_bins_fall_back_to_global_max() {
        let runs = vec![vec![sample(5.0, 0.0, 0.2)]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        let th = model.threshold(&state(30.0, -5.0), 0, &cfg);
        assert!((th - 0.2).abs() < 1e-12, "global fallback, got {th}");
    }

    #[test]
    fn floor_guards_empty_model() {
        let model = DetectorModel::train(&[], &DetectorConfig::default());
        let cfg = DetectorConfig::default();
        assert_eq!(model.threshold(&state(0.0, 0.0), 0, &cfg), cfg.floor);
    }

    #[test]
    fn rolling_window_smooths_blips() {
        // One large blip inside a window of 4 is averaged down.
        let mut w = SmoothedDivergence::new(4);
        let zero = Divergence::default();
        w.push(zero);
        w.push(zero);
        w.push(zero);
        let sm = w.push(Divergence { throttle: 1.0, brake: 0.0, steer: 0.0 });
        assert!((sm.throttle - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rolling_window_evicts_old_samples() {
        let mut w = SmoothedDivergence::new(2);
        w.push(Divergence { throttle: 1.0, ..Default::default() });
        w.push(Divergence::default());
        let sm = w.push(Divergence::default());
        assert_eq!(sm.throttle, 0.0, "blip evicted after rw samples");
    }

    #[test]
    fn online_detector_alarms_once() {
        let runs = vec![vec![sample(5.0, 0.0, 0.1)]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        let mut det = OnlineDetector::new(model, cfg);
        assert!(!det.observe(
            &state(5.0, 0.0),
            Divergence { throttle: 0.05, ..Default::default() },
            0.1
        ));
        assert!(det.observe(
            &state(5.0, 0.0),
            Divergence { throttle: 0.5, ..Default::default() },
            0.2
        ));
        assert!(!det.observe(
            &state(5.0, 0.0),
            Divergence { throttle: 0.9, ..Default::default() },
            0.3
        ));
        assert_eq!(det.alarm_time(), Some(0.2));
    }

    #[test]
    fn margin_scales_thresholds() {
        let runs = vec![vec![sample(5.0, 0.0, 0.1)]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        let model = DetectorModel::train(&runs, &cfg);
        cfg.margin = 2.0;
        assert!((model.threshold(&state(5.0, 0.0), 0, &cfg) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn steer_channel_uses_yaw_binning() {
        let mut s = VehState { v: 5.0, a: 0.0, w: 0.5, alpha: 0.0 };
        let runs = vec![vec![TrainSample {
            t: 0.0,
            state: s,
            div: Divergence { steer: 0.4, ..Default::default() },
        }]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        assert!((model.threshold(&s, 2, &cfg) - 0.4).abs() < 1e-12);
        // Different yaw bin, same (v, a): falls back to global for steer.
        s.w = -2.0;
        assert!((model.threshold(&s, 2, &cfg) - 0.4).abs() < 1e-12, "global fallback");
    }

    #[test]
    fn training_respects_rolling_window() {
        // Divergence alternates 0 / 0.4; with rw=2 the smoothed max is 0.2.
        let run: Vec<TrainSample> =
            (0..20).map(|i| sample(5.0, 0.0, if i % 2 == 0 { 0.4 } else { 0.0 })).collect();
        let mut cfg = DetectorConfig::default().with_rw(2);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&[run], &cfg);
        let th = model.threshold(&state(5.0, 0.0), 0, &cfg);
        assert!((0.19..=0.21).contains(&th), "smoothed threshold, got {th}");
    }

    #[test]
    fn replay_of_empty_stream_never_alarms() {
        let model = DetectorModel::train(&[], &DetectorConfig::default());
        assert_eq!(OnlineDetector::replay(&model, DetectorConfig::default(), &[]), None);
    }

    #[test]
    fn replay_can_alarm_on_the_first_sample() {
        // An empty model bottoms out at the floor; a large first
        // divergence with rw=1 must alarm immediately — there is no
        // warm-up grace period.
        let cfg = DetectorConfig::default().with_rw(1);
        let model = DetectorModel::train(&[], &cfg);
        let stream = [TrainSample {
            t: 0.0,
            state: state(5.0, 0.0),
            div: Divergence { throttle: 1.0, ..Default::default() },
        }];
        assert_eq!(OnlineDetector::replay(&model, cfg, &stream), Some(0.0));
    }

    #[test]
    fn replay_window_longer_than_stream_keeps_zero_padding() {
        // rw=10 over a 3-sample stream: the window never fills, and the
        // zero-padded mean divides by the full window — 0.1, 0.2, 0.3 —
        // so a floor of 0.25 alarms exactly at the third sample.
        let mut cfg = DetectorConfig::default().with_rw(10);
        cfg.margin = 1.0;
        cfg.floor = 0.25;
        let model = DetectorModel::train(&[], &cfg);
        let stream: Vec<TrainSample> = (0..3)
            .map(|i| TrainSample {
                t: i as f64,
                state: state(5.0, 0.0),
                div: Divergence { throttle: 1.0, ..Default::default() },
            })
            .collect();
        assert_eq!(OnlineDetector::replay(&model, cfg, &stream), Some(2.0));
    }

    #[test]
    fn display_is_informative() {
        let model = DetectorModel::train(&[], &DetectorConfig::default());
        let s = model.to_string();
        assert!(s.contains("rw=3"));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        let _ = DetectorConfig::default().with_rw(0);
    }

    /// A linear ramp of divergence: slow onset, as in sensor bias drift.
    fn ramp(n: usize, step: f64) -> Vec<TrainSample> {
        (0..n)
            .map(|i| TrainSample {
                t: i as f64 * 0.025,
                state: state(5.0, 0.0),
                div: Divergence { throttle: i as f64 * step, ..Default::default() },
            })
            .collect()
    }

    #[test]
    fn trend_path_alarms_before_magnitude_on_a_ramp() {
        let runs = vec![vec![sample(5.0, 0.0, 0.2)]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        // Normalized slope 0.02 / 0.2 = 0.1 per observation: steep enough
        // for the EWMA to clear the default slope threshold while the
        // magnitude path is still below the alarm line.
        let stream = ramp(60, 0.02);
        let magnitude = OnlineDetector::replay(&model, cfg, &stream).expect("magnitude alarms");
        let trend = OnlineDetector::replay(&model, cfg.with_trend(TrendConfig::default()), &stream)
            .expect("trend alarms");
        assert!(trend < magnitude, "trend {trend} must beat magnitude {magnitude}");
    }

    #[test]
    fn trend_disabled_is_bit_identical_to_magnitude_only() {
        let runs = vec![vec![sample(5.0, 0.0, 0.2)]];
        let cfg = DetectorConfig::default().with_rw(1);
        let model = DetectorModel::train(&runs, &cfg);
        let stream = ramp(60, 0.01);
        // `trend: None` is the default — the config carries no trend state
        // and replay matches the historical detector exactly.
        assert_eq!(cfg.trend, None);
        assert_eq!(
            OnlineDetector::replay(&model, cfg, &stream),
            OnlineDetector::replay(&model, DetectorConfig { trend: None, ..cfg }, &stream),
        );
    }

    #[test]
    fn trend_never_alarms_later_than_magnitude() {
        // The magnitude check is evaluated on every observation regardless
        // of the trend state, so OR-composition can only be earlier.
        let runs = vec![vec![sample(5.0, 0.0, 0.1)]];
        let mut cfg = DetectorConfig::default().with_rw(2);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        for (n, step) in [(40, 0.02), (80, 0.005), (30, 0.05)] {
            let stream = ramp(n, step);
            let mag = OnlineDetector::replay(&model, cfg, &stream);
            let tr =
                OnlineDetector::replay(&model, cfg.with_trend(TrendConfig::default()), &stream);
            match (tr, mag) {
                (Some(tr), Some(mag)) => assert!(tr <= mag, "trend {tr} > magnitude {mag}"),
                (None, Some(mag)) => panic!("trend missed an alarm magnitude caught at {mag}"),
                _ => {}
            }
        }
    }

    #[test]
    fn trend_arming_floor_suppresses_low_level_jitter() {
        // Alternating tiny divergence has positive slope half the time but
        // never approaches the threshold: the arming floor must hold the
        // alarm (this is the golden-run false-positive guard).
        let runs = vec![vec![sample(5.0, 0.0, 0.2)]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        let stream: Vec<TrainSample> = (0..200)
            .map(|i| TrainSample {
                t: i as f64 * 0.025,
                state: state(5.0, 0.0),
                div: Divergence {
                    throttle: if i % 2 == 0 { 0.02 } else { 0.0 },
                    ..Default::default()
                },
            })
            .collect();
        let cfg = cfg.with_trend(TrendConfig::default());
        assert_eq!(OnlineDetector::replay(&model, cfg, &stream), None);
    }

    #[test]
    fn telemetry_tracks_every_observation_even_after_the_alarm() {
        let runs = vec![vec![sample(5.0, 0.0, 0.1)]];
        let mut cfg = DetectorConfig::default().with_rw(1);
        cfg.margin = 1.0;
        let model = DetectorModel::train(&runs, &cfg);
        let mut det = OnlineDetector::new(model, cfg.with_trend(TrendConfig::default()));
        assert_eq!(det.telemetry(), DetectorTelemetry::default(), "zeroed before observing");

        assert!(det.observe(
            &state(5.0, 0.0),
            Divergence { throttle: 0.5, ..Default::default() },
            0.1
        ));
        let at_alarm = det.telemetry();
        assert!(at_alarm.score > 1.0, "alarm tick scores past the alarm line");
        assert_eq!(det.alarm_time(), Some(0.1));

        // Post-alarm observations keep refreshing telemetry without
        // moving the latched alarm.
        assert!(!det.observe(&state(5.0, 0.0), Divergence::default(), 0.2));
        assert!(det.telemetry().score < at_alarm.score, "score tracked past the alarm");
        assert_eq!(det.alarm_time(), Some(0.1), "alarm time never moves");
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn trend_alpha_out_of_range_rejected() {
        let _ = DetectorConfig::default()
            .with_trend(TrendConfig { alpha: 0.0, ..TrendConfig::default() });
    }
}
