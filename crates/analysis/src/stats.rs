//! Elementary statistics used across the evaluation: percentiles, boxplot
//! summaries, and CDFs.

/// Percentile of a sample (linear interpolation between order statistics).
///
/// # Panics
///
/// Panics if `data` is empty or `p` is outside `[0, 100]`.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn mean(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "mean of empty sample");
    data.iter().sum::<f64>() / data.len() as f64
}

/// Five-number summary for boxplots (Fig 6).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Boxplot {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Boxplot {
    /// Compute the five-number summary.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn of(data: &[f64]) -> Boxplot {
        Boxplot {
            min: percentile(data, 0.0),
            q1: percentile(data, 25.0),
            median: percentile(data, 50.0),
            q3: percentile(data, 75.0),
            max: percentile(data, 100.0),
        }
    }
}

/// Empirical CDF points `(x, F(x))` of a sample, one per observation.
pub fn cdf_points(data: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len() as f64;
    sorted.iter().enumerate().map(|(i, &x)| (x, (i + 1) as f64 / n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 50.0), 3.0);
        assert_eq!(percentile(&data, 100.0), 5.0);
        assert_eq!(percentile(&data, 25.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert!((percentile(&data, 75.0) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&data, 50.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn mean_of_a_sample() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn boxplot_five_numbers() {
        let data: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let b = Boxplot::of(&data);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.max, 9.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let data = [3.0, 1.0, 2.0];
        let cdf = cdf_points(&data);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (3.0, 1.0));
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }
}
