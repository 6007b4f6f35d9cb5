//! Order statistics and process metrics.

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Samples strictly above the nearest-rank percentile `q`.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let p = percentile(values, q);
    values.iter().filter(|&&v| v > p).count()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    zkrownn_bench::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
