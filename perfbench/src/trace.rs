//! Spans and per-tick phase samples for the traced run.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! each crate's public functions and kept in memory; the per-layer
//! metrics are summaries of them. Per-tick phase durations come from the
//! `SimLoop` phase hook ([`LoopObserver::wants_phase_timing`]).

use diverseav_runtime::{LoopObserver, LoopPhase, TickContext};
use diverseav_simworld::{Controls, RouteHint, SensorFrame, World};
use std::collections::BTreeMap;
use std::time::Instant;

/// Named span durations (seconds), in recording order per name.
#[derive(Default, Debug)]
pub struct Spans(pub BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(name, t.elapsed().as_secs_f64());
        r
    }

    pub fn add(&mut self, name: &'static str, secs: f64) {
        self.0.entry(name).or_default().push(secs);
    }

    /// Total seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Phase durations of one tick (ns): sense, driver, detect, step.
pub type TickPhases = [u64; 4];

/// A tick captured for the component probes: the frame the driver saw,
/// its route hint, the controls it produced, and the world before
/// stepping.
#[derive(Clone)]
pub struct Captured {
    pub frame: SensorFrame,
    pub hint: RouteHint,
    pub controls: Controls,
    pub world: World,
}

/// Per-run phase recorder attached via `run_experiment_observed`.
pub struct PhaseRecorder {
    pending: TickPhases,
    pub ticks: Vec<TickPhases>,
    /// Nanoseconds spent inside the loop's phases over the run, trapped
    /// ticks included.
    pub in_loop_ns: u64,
    capture_every: Option<usize>,
    seen: usize,
    pub captured: Vec<Captured>,
}

impl PhaseRecorder {
    /// `capture_every`: keep every n-th tick's inputs for the probes.
    pub fn new(capture_every: Option<usize>) -> Self {
        PhaseRecorder {
            pending: [0; 4],
            ticks: Vec::with_capacity(1300),
            in_loop_ns: 0,
            capture_every,
            seen: 0,
            captured: Vec::new(),
        }
    }
}

impl LoopObserver for PhaseRecorder {
    fn wants_phase_timing(&self) -> bool {
        true
    }

    fn on_phase(&mut self, phase: LoopPhase, dur_ns: u64) {
        let i = match phase {
            LoopPhase::Sense => 0,
            LoopPhase::Driver => 1,
            LoopPhase::Detect => 2,
            LoopPhase::Step => 3,
        };
        self.pending[i] = dur_ns;
        self.in_loop_ns += dur_ns;
        // Step always comes last; a trapped tick never reaches it and is
        // left out of the tick samples, as it never completes.
        if i == 3 {
            self.ticks.push(self.pending);
            self.pending = [0; 4];
        }
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        if let Some(n) = self.capture_every {
            if self.seen.is_multiple_of(n) {
                self.captured.push(Captured {
                    frame: ctx.frame.clone(),
                    hint: ctx.hint,
                    controls: ctx.out.controls,
                    world: ctx.world.clone(),
                });
            }
        }
        self.seen += 1;
    }
}

/// Phase samples and span of one traced run.
pub struct RunTrace {
    pub golden: bool,
    pub run_s: f64,
    pub ticks: Vec<TickPhases>,
    pub in_loop_ns: u64,
}

/// Quantile by the nearest-rank method on a sorted copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
