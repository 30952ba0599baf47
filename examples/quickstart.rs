//! Quickstart: drive the lead-slowdown scenario with a DiverseAV-enabled
//! ADS on the canonical [`SimLoop`] and watch the two agents' actuation
//! divergence stay bounded.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use diverseav::{Ads, AdsConfig, AgentMode};
use diverseav_runtime::{LoopObserver, SimLoop, Termination, TickContext};
use diverseav_simworld::{Scenario, ScenarioKind, SensorConfig, World};

/// Prints a 1 Hz telemetry line and tracks the peak inter-agent divergence.
struct Telemetry {
    max_div: f64,
    tick: u64,
}

impl LoopObserver for Telemetry {
    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        if let Some(div) = ctx.out.divergence {
            self.max_div = self.max_div.max(div.throttle.max(div.brake).max(div.steer));
        }
        if self.tick.is_multiple_of(40) {
            println!(
                "{:5.1}  {:5.2}  {:6.2}  {:5.2}  {:7.1}  {:.3}",
                ctx.t,
                ctx.world.ego_state().speed,
                ctx.out.controls.throttle,
                ctx.out.controls.brake,
                ctx.world.cvip().unwrap_or(f64::INFINITY),
                ctx.out.divergence.map(|d| d.throttle.max(d.brake)).unwrap_or(0.0),
            );
        }
        self.tick += 1;
    }
}

fn main() {
    // A world: the NHTSA-style lead-slowdown scenario at 40 Hz.
    let scenario = Scenario::of_kind(ScenarioKind::LeadSlowdown);
    let world = World::new(scenario, SensorConfig::default(), 42);

    // A DiverseAV-enabled ADS: two agents time-multiplexed on one
    // processor, sensor frames distributed round-robin.
    let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 42));

    println!("t(s)   speed  throttle brake  CVIP(m)  inter-agent divergence");
    let mut sim = SimLoop::new(world, ads);
    let mut telemetry = Telemetry { max_div: 0.0, tick: 0 };
    let term = sim.run_observed(&mut [&mut telemetry]);
    if term == Termination::Collision {
        println!("collision at t = {:.2} s!", sim.world().time());
    }
    assert!(!term.is_hang_or_crash(), "fault-free run must not trap: {term:?}");

    println!(
        "\nscenario finished: collision = {:?}, min CVIP = {:.2} m, max divergence = {:.3}",
        sim.world().collision_time(),
        sim.world().min_cvip(),
        telemetry.max_div,
    );
    assert!(sim.world().collision_time().is_none(), "fault-free DiverseAV must be safe");
}
