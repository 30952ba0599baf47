//! Profiling time-source selection (`DIVERSEAV_PROFILE`).
//!
//! The paper's real-time argument is a 40 Hz (25 ms) control-loop
//! deadline, but the reproduction interprets agent code on a fabric VM,
//! so wall-clock tick times say more about the host than about the
//! modeled AV computer — and they differ between runs, which would break
//! the engine's bit-identical-across-thread-counts artifact contract.
//! Profiling therefore supports two time sources:
//!
//! * [`TimeSource::Modeled`] (default) — per-phase latency is a
//!   deterministic cost model over the tick's *work*: pixels rendered,
//!   lidar rays cast, dynamic fabric instructions executed, NPCs
//!   stepped. Pure function of the run seed ⇒ histograms and
//!   deadline-miss counts are bit-identical for any `DIVERSEAV_THREADS`.
//! * [`TimeSource::Wall`] — real `Instant` timings of each loop phase,
//!   for profiling the reproduction itself. Values vary run to run by
//!   nature; artifacts produced in this mode are excluded from the
//!   determinism contract.
//!
//! The switch is consulted once per run, never per tick. Whatever the
//! source, the per-run tick ledger (`diverseav_runtime::FlightRecorder`)
//! keeps its flight ring and incident classification on the modeled
//! cost; the source selects only what feeds the `tick.*` histograms and
//! `deadline.*` tallies.

/// Where per-phase tick latencies come from.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TimeSource {
    /// Deterministic work-based cost model (default).
    #[default]
    Modeled,
    /// Host wall clock (`Instant`).
    Wall,
}

/// The time source selected by `DIVERSEAV_PROFILE`: `wall` selects
/// wall-clock timing, anything else (including unset) selects the
/// deterministic cost model.
pub fn source() -> TimeSource {
    match std::env::var("DIVERSEAV_PROFILE") {
        Ok(v) if v.trim() == "wall" => TimeSource::Wall,
        _ => TimeSource::Modeled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_deterministic_model() {
        // Other tests in this binary do not touch DIVERSEAV_PROFILE, and
        // the harness leaves it unset.
        assert_eq!(source(), TimeSource::Modeled);
        assert_eq!(TimeSource::default(), TimeSource::Modeled);
    }
}
