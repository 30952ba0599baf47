//! The sensor data distributor (§III-D): decides which agent(s) receive
//! each sensor frame, and which agent's output drives the vehicle.
//!
//! It is the only place that names a deployment mode: the ADS tick
//! (`crate::ads`) asks it who receives a frame ([`AgentMode::recipients`]),
//! who drives ([`AgentMode::driver`]; the fusion engine's lockstep
//! selection) and at what nominal period ([`AgentMode::frame_period`]).

use std::fmt;
use std::num::NonZeroU32;

/// Agent deployment mode of the ADS.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AgentMode {
    /// One agent receiving every frame (the original ADS and the
    /// temporal-outlier baseline of §VI-C).
    Single,
    /// DiverseAV: two agents time-multiplexed on one processor, frames
    /// distributed round-robin (even steps → agent 0, odd → agent 1).
    RoundRobin,
    /// Fully-duplicated ADS (FD-ADS, §VI-B): two agents on dedicated
    /// processors, both receiving every frame.
    Duplicate,
    /// DiverseAV with partial overlap (paper footnote 5): round-robin,
    /// but every p-th frame goes to *both* agents — the adjustment for
    /// ADSes with lower engineering margins (input-rate reduction below
    /// 50 % at extra compute cost on the shared processor).
    Overlap(NonZeroU32),
}

impl AgentMode {
    /// Number of agent instances this mode deploys.
    pub fn n_agents(self) -> usize {
        match self {
            AgentMode::Single => 1,
            AgentMode::RoundRobin | AgentMode::Duplicate | AgentMode::Overlap(_) => 2,
        }
    }

    /// Number of processor units (GPU+CPU fabric pairs) this mode uses.
    ///
    /// DiverseAV shares a single processor between its two agents — that
    /// sharing is what makes permanent faults affect both agents and what
    /// keeps the compute provisioning equal to the single-agent system.
    pub fn n_units(self) -> usize {
        match self {
            AgentMode::Single | AgentMode::RoundRobin | AgentMode::Overlap(_) => 1,
            AgentMode::Duplicate => 2,
        }
    }

    /// Which agents receive the frame at `step` (index = agent id).
    pub fn recipients(self, step: u64) -> [bool; 2] {
        match self {
            AgentMode::Single => [true, false],
            AgentMode::Duplicate => [true, true],
            AgentMode::Overlap(p) if step.is_multiple_of(u64::from(p.get())) => [true, true],
            AgentMode::RoundRobin | AgentMode::Overlap(_) => {
                if step.is_multiple_of(2) {
                    [true, false]
                } else {
                    [false, true]
                }
            }
        }
    }

    /// The agent whose output actuates the vehicle at `step`: the fusion
    /// engine's lockstep selection, which the paper chooses for the
    /// Sensorimotor agent. In the round-robin modes it is the agent the
    /// frame is scheduled for (`step % 2`), also on an overlap frame that
    /// both agents process; otherwise it is agent 0. The driver always
    /// receives the frame.
    pub fn driver(self, step: u64) -> usize {
        if self.is_round_robin() {
            (step % 2) as usize
        } else {
            0
        }
    }

    /// Nominal ticks between an agent's frames, its control period on
    /// its first frame: 2 in the round-robin modes (each agent nominally
    /// sees every other frame), 1 when agent 0 receives every frame.
    pub fn frame_period(self) -> u64 {
        if self.is_round_robin() {
            2
        } else {
            1
        }
    }

    /// Whether frames are scheduled round-robin between two agents on one
    /// processor (DiverseAV, with or without footnote-5 overlap).
    fn is_round_robin(self) -> bool {
        matches!(self, AgentMode::RoundRobin | AgentMode::Overlap(_))
    }

    /// Parse a label produced by `Display` (the shard CLI's `--mode`
    /// axis): `single`, `diverseav`, `fd` or `diverseav-overlap<p>` with
    /// `p ≥ 1`.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "single" => Some(AgentMode::Single),
            "diverseav" => Some(AgentMode::RoundRobin),
            "fd" => Some(AgentMode::Duplicate),
            _ => {
                let p = s.strip_prefix("diverseav-overlap")?;
                // `parse` alone would accept a leading `+` or `0`; the
                // codec admits only what `Display` writes.
                if !p.starts_with(|c: char| matches!(c, '1'..='9')) {
                    return None;
                }
                p.parse().ok().map(AgentMode::Overlap)
            }
        }
    }
}

/// The paper's name for the mode; the overlap mode appends its period.
impl fmt::Display for AgentMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentMode::Single => f.write_str("single"),
            AgentMode::RoundRobin => f.write_str("diverseav"),
            AgentMode::Duplicate => f.write_str("fd"),
            AgentMode::Overlap(p) => write!(f, "diverseav-overlap{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlap(p: u32) -> AgentMode {
        AgentMode::Overlap(NonZeroU32::new(p).expect("nonzero period"))
    }

    #[test]
    fn round_robin_alternates() {
        assert_eq!(AgentMode::RoundRobin.recipients(0), [true, false]);
        assert_eq!(AgentMode::RoundRobin.recipients(1), [false, true]);
        assert_eq!(AgentMode::RoundRobin.recipients(2), [true, false]);
    }

    #[test]
    fn overlap_sends_every_pth_frame_to_both() {
        let m = overlap(4);
        assert_eq!(m.recipients(0), [true, true]);
        assert_eq!(m.recipients(1), [false, true]);
        assert_eq!(m.recipients(2), [true, false]);
        assert_eq!(m.recipients(3), [false, true]);
        assert_eq!(m.recipients(4), [true, true]);
        // Period 1 sends every frame to both agents.
        assert!((0..4).all(|step| overlap(1).recipients(step) == [true, true]));
    }

    #[test]
    fn duplicate_sends_to_both() {
        for step in 0..4 {
            assert_eq!(AgentMode::Duplicate.recipients(step), [true, true]);
        }
    }

    #[test]
    fn single_sends_to_agent_zero() {
        for step in 0..4 {
            assert_eq!(AgentMode::Single.recipients(step), [true, false]);
        }
    }

    /// Every mode over 64 steps: the driver received the frame, the
    /// round-robin modes drive the scheduled agent, and each agent's
    /// driving steps are `frame_period()` apart.
    #[test]
    fn the_driver_receives_its_frame_at_the_nominal_period() {
        let modes = [AgentMode::Single, AgentMode::RoundRobin, AgentMode::Duplicate]
            .into_iter()
            .chain((1..=5).map(overlap));
        for mode in modes {
            let mut last_drove: [Option<u64>; 2] = [None, None];
            for step in 0..64u64 {
                let d = mode.driver(step);
                assert!(mode.recipients(step)[d], "{mode} step {step}: driver {d} got no frame");
                if matches!(mode, AgentMode::RoundRobin | AgentMode::Overlap(_)) {
                    assert_eq!(
                        d as u64,
                        step % 2,
                        "{mode} step {step}: the scheduled agent drives"
                    );
                }
                if let Some(prev) = last_drove[d] {
                    assert_eq!(step - prev, mode.frame_period(), "{mode} agent {d} at step {step}");
                }
                last_drove[d] = Some(step);
            }
        }
    }

    #[test]
    fn sizing_matches_paper_deployments() {
        assert_eq!(AgentMode::Single.n_agents(), 1);
        assert_eq!(AgentMode::RoundRobin.n_agents(), 2);
        assert_eq!(AgentMode::RoundRobin.n_units(), 1, "shared processor");
        assert_eq!(AgentMode::Duplicate.n_units(), 2, "dedicated processors");
        assert_eq!(overlap(4).n_agents(), 2);
        assert_eq!(overlap(4).n_units(), 1, "overlap shares the one processor");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AgentMode::RoundRobin.to_string(), "diverseav");
        assert_eq!(AgentMode::Duplicate.to_string(), "fd");
        assert_eq!(AgentMode::Single.to_string(), "single");
        assert_eq!(overlap(4).to_string(), "diverseav-overlap4");
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        let modes = [
            AgentMode::Single,
            AgentMode::RoundRobin,
            AgentMode::Duplicate,
            overlap(1),
            overlap(4),
            overlap(u32::MAX),
        ];
        for mode in modes {
            assert_eq!(AgentMode::from_label(&mode.to_string()), Some(mode));
        }
        for bad in [
            "diverseav-overlap0",
            "diverseav-overlap",
            "diverseav-overlap+4",
            "diverseav-overlap04",
            "diverseav-overlap-4",
            "diverseav-overlap4x",
            "diverseav-overlap4294967296",
            "DiverseAV",
            "rr",
            "",
        ] {
            assert_eq!(AgentMode::from_label(bad), None, "{bad:?} must be refused");
        }
    }
}
