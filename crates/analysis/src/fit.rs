//! FIT-rate estimation: translate fault-injection statistics into the
//! ISO 26262 language of the paper's introduction.
//!
//! ISO 26262 requires the *residual* FIT rate (failures per 10⁹ device
//! hours that are neither masked, nor platform-detected, nor caught by a
//! safety mechanism) of an ASIL-D SoC to stay below 10 FIT. Following the
//! methodology the paper cites (fault-injection-derived SDC probabilities,
//! validated against beam tests in the paper's reference \[31\]), the residual rate factors as
//!
//! ```text
//! residual = raw_fit · P(safety-SDC | fault) · (1 − detector coverage)
//! ```

/// Outcome probabilities of a fault-injection campaign.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultOutcomeRates {
    /// P(fault is masked / benign).
    pub p_benign: f64,
    /// P(fault hangs or crashes the stack) — platform-detected.
    pub p_hang_crash: f64,
    /// P(fault silently corrupts data *and* causes a safety violation).
    pub p_safety_sdc: f64,
}

impl FaultOutcomeRates {
    /// Derive rates from campaign counts.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or the categories exceed it.
    pub fn from_counts(total: usize, hang_crash: usize, safety_sdc: usize) -> Self {
        assert!(total > 0, "empty campaign");
        assert!(hang_crash + safety_sdc <= total, "categories exceed total");
        FaultOutcomeRates {
            p_benign: (total - hang_crash - safety_sdc) as f64 / total as f64,
            p_hang_crash: hang_crash as f64 / total as f64,
            p_safety_sdc: safety_sdc as f64 / total as f64,
        }
    }

    /// The probabilities must form a distribution.
    pub fn is_consistent(&self) -> bool {
        (self.p_benign + self.p_hang_crash + self.p_safety_sdc - 1.0).abs() < 1e-9
            && self.p_benign >= 0.0
            && self.p_hang_crash >= 0.0
            && self.p_safety_sdc >= 0.0
    }
}

/// A FIT-rate estimate for one compute element under a detector.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FitEstimate {
    /// Raw hardware fault rate of the element (FIT).
    pub raw_fit: f64,
    /// FIT rate of safety-critical SDCs without any detector.
    pub unprotected_sdc_fit: f64,
    /// Residual FIT rate with the detector deployed.
    pub residual_sdc_fit: f64,
    /// FIT rate converted into platform-detected events (availability
    /// cost, not a safety risk).
    pub detected_fit: f64,
}

/// Estimate FIT rates for a compute element.
///
/// * `raw_fit` — the element's raw fault rate (e.g., ~1000 FIT for a
///   large GPU die at sea level).
/// * `rates` — campaign-derived outcome probabilities.
/// * `detector_recall` — fraction of safety-critical SDCs the deployed
///   detector catches (DiverseAV's recall).
pub fn estimate_fit(raw_fit: f64, rates: &FaultOutcomeRates, detector_recall: f64) -> FitEstimate {
    assert!((0.0..=1.0).contains(&detector_recall), "recall out of range");
    assert!(rates.is_consistent(), "inconsistent outcome rates");
    let unprotected = raw_fit * rates.p_safety_sdc;
    FitEstimate {
        raw_fit,
        unprotected_sdc_fit: unprotected,
        residual_sdc_fit: unprotected * (1.0 - detector_recall),
        detected_fit: raw_fit * rates.p_hang_crash + unprotected * detector_recall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> FaultOutcomeRates {
        // 1000 faults: 160 hang/crash, 10 safety SDCs, rest benign.
        FaultOutcomeRates::from_counts(1000, 160, 10)
    }

    #[test]
    fn rates_form_a_distribution() {
        let r = rates();
        assert!(r.is_consistent());
        assert!((r.p_benign - 0.83).abs() < 1e-12);
        assert!((r.p_hang_crash - 0.16).abs() < 1e-12);
        assert!((r.p_safety_sdc - 0.01).abs() < 1e-12);
    }

    #[test]
    fn estimate_scales_with_recall() {
        let e0 = estimate_fit(1000.0, &rates(), 0.0);
        assert!((e0.unprotected_sdc_fit - 10.0).abs() < 1e-9);
        assert_eq!(e0.residual_sdc_fit, e0.unprotected_sdc_fit);
        let e87 = estimate_fit(1000.0, &rates(), 0.87);
        assert!((e87.residual_sdc_fit - 1.3).abs() < 1e-9);
        assert!(e87.detected_fit > e0.detected_fit);
    }

    #[test]
    fn perfect_recall_zeroes_residual() {
        let e = estimate_fit(1000.0, &rates(), 1.0);
        assert_eq!(e.residual_sdc_fit, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty campaign")]
    fn zero_total_panics() {
        let _ = FaultOutcomeRates::from_counts(0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "categories exceed total")]
    fn overflowing_counts_panic() {
        let _ = FaultOutcomeRates::from_counts(5, 4, 2);
    }

    #[test]
    #[should_panic(expected = "recall out of range")]
    fn bad_recall_panics() {
        let _ = estimate_fit(100.0, &rates(), 1.5);
    }
}
