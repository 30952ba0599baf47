//! # diverseav-suite
//!
//! Umbrella crate of the DiverseAV reproduction: re-exports every
//! workspace crate under one roof and hosts the cross-crate integration
//! tests (`tests/`) and runnable examples (`examples/`).
//!
//! Start with [`diverseav`] (the paper's contribution) and
//! [`diverseav_simworld`] (the world it drives in); see the repository
//! README for the experiment harness.

#![forbid(unsafe_code)]

pub use diverseav;
pub use diverseav_agent as agent;
pub use diverseav_analysis as analysis;
pub use diverseav_fabric as fabric;
pub use diverseav_faultinj as faultinj;
pub use diverseav_simworld as simworld;
