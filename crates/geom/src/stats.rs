//! Descriptive statistics for experiment reporting.
//!
//! Fig. 7 of the paper reports box plots "where boxes indicate the 50%,
//! whiskers the 99% confidence bounds and the dash the median". [`BoxStats`]
//! computes exactly that summary; the rest of the module provides the usual
//! mean/median/quantile helpers used across the evaluation harness.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample standard deviation (n−1 denominator). Returns `None` for fewer
/// than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Quantile with linear interpolation between order statistics
/// (type-7 / the NumPy default). `q` is clamped to `[0, 1]`.
/// Returns `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Quantile on an already-sorted slice (ascending). See [`quantile`].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = pos - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * t
    }
}

/// Median shorthand. Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The five-number summary used by the paper's Fig. 7 box plots:
/// median, central 50 % box (25th/75th percentile) and central 99 %
/// whiskers (0.5th/99.5th percentile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// 0.5th percentile (lower 99 % whisker).
    pub p005: f64,
    /// 25th percentile (lower box edge).
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (upper box edge).
    pub q75: f64,
    /// 99.5th percentile (upper 99 % whisker).
    pub p995: f64,
    /// Number of samples summarized.
    pub n: usize,
}

impl BoxStats {
    /// Computes the summary. Returns `None` for an empty slice.
    pub fn from_samples(xs: &[f64]) -> Option<BoxStats> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in BoxStats input"));
        Some(BoxStats {
            p005: quantile_sorted(&sorted, 0.005),
            q25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q75: quantile_sorted(&sorted, 0.75),
            p995: quantile_sorted(&sorted, 0.995),
            n: xs.len(),
        })
    }
}

impl std::fmt::Display for BoxStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "med {:.2} [box {:.2}..{:.2}, whisk {:.2}..{:.2}, n={}]",
            self.median, self.q25, self.q75, self.p005, self.p995, self.n
        )
    }
}

/// Fraction of entries equal to the most frequent value — the "selection
/// stability" metric of Fig. 8 (time spent in the most prominent sector).
///
/// Returns `None` for an empty slice.
pub fn modal_fraction<T: Eq + std::hash::Hash>(xs: &[T]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut counts = std::collections::HashMap::new();
    for x in xs {
        *counts.entry(x).or_insert(0usize) += 1;
    }
    let max = counts.values().copied().max().unwrap();
    Some(max as f64 / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(std_dev(&[1.0]), None);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((sd - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, 1.0 / 3.0), Some(2.0));
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), Some(5.0));
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -0.5), Some(1.0));
        assert_eq!(quantile(&xs, 1.5), Some(2.0));
    }

    #[test]
    fn box_stats_of_uniform_ramp() {
        let xs: Vec<f64> = (0..=1000).map(|i| i as f64 / 10.0).collect();
        let b = BoxStats::from_samples(&xs).unwrap();
        assert!((b.median - 50.0).abs() < 1e-9);
        assert!((b.q25 - 25.0).abs() < 1e-9);
        assert!((b.q75 - 75.0).abs() < 1e-9);
        assert!((b.p005 - 0.5).abs() < 1e-9);
        assert!((b.p995 - 99.5).abs() < 1e-9);
        assert_eq!(b.n, 1001);
    }

    #[test]
    fn box_stats_empty_is_none() {
        assert!(BoxStats::from_samples(&[]).is_none());
    }

    #[test]
    fn box_stats_single_sample() {
        let b = BoxStats::from_samples(&[3.0]).unwrap();
        assert_eq!(b.median, 3.0);
        assert_eq!(b.p005, 3.0);
        assert_eq!(b.p995, 3.0);
    }

    #[test]
    fn modal_fraction_counts_dominant_value() {
        assert_eq!(modal_fraction::<u8>(&[]), None);
        assert_eq!(modal_fraction(&[1, 1, 1, 2]), Some(0.75));
        assert_eq!(modal_fraction(&[1, 2, 3, 4]), Some(0.25));
        assert_eq!(modal_fraction(&[7; 10]), Some(1.0));
    }
}
