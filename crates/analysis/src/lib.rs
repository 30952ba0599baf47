//! # diverseav-analysis
//!
//! Statistics, temporal-data-diversity metrics, the synthetic-KITTI
//! generator, and plain-text report rendering for the DiverseAV
//! reproduction's evaluation (§V of the paper).
//!
//! ## Example
//!
//! ```
//! use diverseav_analysis::{pixel_bit_diffs, DiversityStats};
//! use diverseav_simworld::Image;
//!
//! let mut a = Image::new(2, 2);
//! let mut b = Image::new(2, 2);
//! a.set_pixel(0, 0, [95, 95, 95]);
//! b.set_pixel(0, 0, [96, 96, 96]);
//! let stats = DiversityStats::of(&pixel_bit_diffs(&a, &b));
//! assert!(stats.mean > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod diversity;
pub mod fit;
pub mod kitti_synth;
pub mod report;
pub mod stats;

pub use diversity::{float_bit_diffs, matched_shifts, pixel_bit_diffs, DiversityStats};
pub use fit::{estimate_fit, FaultOutcomeRates, FitEstimate};
pub use kitti_synth::{generate_sequence, ground_truth_controls, SynthConfig, SynthFrame};
pub use report::{ascii_cdf, heatmap, Table};
pub use stats::{cdf_points, mean, percentile, Boxplot};
