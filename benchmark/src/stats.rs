//! Order statistics over small sample sets.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The quiet quartile of samples where lower is better: the nearest-rank
/// 25th percentile, i.e. the slowest of the fastest quarter.
pub fn quiet_low(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile's position —
/// printed beside every percentile so a reader sees what it rests on.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_quartile_ignores_the_disturbed_rounds() {
        // Seven undisturbed rounds and five hit by a neighbour: the median
        // moves with the burst, the quiet quartile stays on the plateau.
        let calm = [0.250, 0.251, 0.249, 0.252, 0.250, 0.251, 0.250, 0.252];
        let burst = [
            0.250, 0.251, 0.249, 0.252, 0.250, 0.251, 0.250, 0.31, 0.36, 0.33, 0.40, 0.35,
        ];
        assert_eq!(quiet_low(&calm), 0.250);
        assert_eq!(quiet_low(&burst), 0.250);
        assert!(percentile(&burst, 50.0) > 0.2505);
        assert_eq!(quiet_low(&[3.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
        // 300 samples: p90 sits at rank 270 and leaves 30 beyond it.
        assert_eq!(samples_beyond(300, 90.0), 30);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }
}
