//! The stock training [`LoopObserver`]: the divergence-stream and
//! actuation-trace bookkeeping that used to be copy-pasted into every
//! hand-rolled loop. Tick counting and deadline accounting live in the
//! per-run tick ledger, [`FlightRecorder`](crate::FlightRecorder).

use crate::simloop::{LoopObserver, TickContext};
use diverseav::TrainSample;
use diverseav_simworld::Controls;

/// Records the divergence stream (detector training / offline sweeps)
/// and the actuation + CVIP trace (Fig 2) — exactly what
/// `run_experiment` collects when `collect_training` is set.
pub struct TrainingCollector {
    enabled: bool,
    /// Collected divergence samples, one per tick with a comparison pair.
    pub training: Vec<TrainSample>,
    /// Actuation + CVIP trace: `(t, controls, cvip)` per tick.
    pub actuation: Vec<(f64, Controls, f64)>,
}

impl TrainingCollector {
    /// A collector that records only when `enabled`; `capacity_ticks`
    /// pre-sizes the buffers so steady-state pushes never reallocate.
    pub fn new(enabled: bool, capacity_ticks: usize) -> Self {
        let cap = if enabled { capacity_ticks } else { 0 };
        TrainingCollector {
            enabled,
            training: Vec::with_capacity(cap),
            actuation: Vec::with_capacity(cap),
        }
    }
}

impl LoopObserver for TrainingCollector {
    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        if !self.enabled {
            return;
        }
        if let Some(div) = ctx.out.divergence {
            self.training.push(TrainSample { t: ctx.t, state: ctx.state, div });
        }
        let cvip = ctx.world.cvip().unwrap_or(f64::INFINITY);
        self.actuation.push((ctx.t, ctx.out.controls, cvip));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simloop::SimLoop;
    use diverseav::{Ads, AdsConfig, AgentMode};
    use diverseav_simworld::{lead_slowdown, SensorConfig, World};

    #[test]
    fn training_collector_matches_tick_count() {
        let mut scenario = lead_slowdown();
        scenario.duration = 1.0;
        let world = World::new(scenario, SensorConfig::default(), 31);
        let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 31));
        let mut collector = TrainingCollector::new(true, 64);
        SimLoop::new(world, ads).run_observed(&mut [&mut collector]);
        assert_eq!(collector.actuation.len(), 40, "one actuation sample per tick");
        // Round-robin produces a comparison pair from the second tick on.
        assert_eq!(collector.training.len(), 39);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut scenario = lead_slowdown();
        scenario.duration = 0.5;
        let world = World::new(scenario, SensorConfig::default(), 32);
        let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 32));
        let mut collector = TrainingCollector::new(false, 64);
        SimLoop::new(world, ads).run_observed(&mut [&mut collector]);
        assert!(collector.training.is_empty());
        assert!(collector.actuation.is_empty());
        assert_eq!(collector.training.capacity(), 0, "disabled collector allocates nothing");
    }
}
