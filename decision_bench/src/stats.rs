//! Order statistics over timing samples.

/// The `q`-quantile of `xs` (nearest rank on a sorted copy); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail percentile reported next to a median: p99 when at least ten
/// samples lie beyond it, otherwise the highest percentile that still has
/// ten samples beyond it (never below the median).
pub fn tail(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    quantile(xs, (1.0 - 10.0 / n).clamp(0.5, 0.99))
}
