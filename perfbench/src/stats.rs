//! Order statistics used by every workload.

/// Samples a percentile must leave above it before it is reported: a
/// tail figure resting on fewer points is noise, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of `groups` means, group `k` holding samples `k`,
/// `k + groups`, `k + 2 * groups`, …: with samples taken in blocks of
/// `groups` spread over a run, each group spans the whole run.
///
/// # Panics
///
/// Panics when `values` holds fewer than `groups` samples.
pub fn median_of_means(values: &[f64], groups: usize) -> f64 {
    assert!(values.len() >= groups, "fewer samples than groups");
    let means: Vec<f64> = (0..groups)
        .map(|k| {
            let group: Vec<f64> = values[k..].iter().step_by(groups).copied().collect();
            mean(&group)
        })
        .collect();
    median(&means)
}

/// The `p`-th percentile (0 < p < 100) by linear interpolation between
/// closest ranks, or `None` when fewer than [`MIN_TAIL_SAMPLES`]
/// samples lie above it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    let above = values.len() as f64 * (1.0 - p / 100.0);
    if values.is_empty() || above < MIN_TAIL_SAMPLES as f64 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Mean of `values`, 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert!(tail_percentile(&ramp(1000), 99.0).is_some());
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
        assert!(tail_percentile(&ramp(20), 50.0).is_some());
        let p99 = tail_percentile(&ramp(1000), 99.0).unwrap();
        let beyond = ramp(1000).iter().filter(|&&v| v > p99).count();
        assert!(beyond >= MIN_TAIL_SAMPLES, "{beyond} samples beyond p99");
    }

    #[test]
    fn median_and_percentile_agree_on_odd_counts() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn median_of_means_spans_spells_and_drops_an_outlier_group() {
        // Six blocks of six samples; every third block is a slow spell,
        // and one block's first sample is an outlier.
        let mut values = Vec::new();
        for block in 0..6 {
            let level = if block % 3 == 2 { 4.0 } else { 3.0 };
            values.extend([level; 6]);
        }
        values[6] = 50.0;
        // The plain median sits in the fast spell; the estimate is the
        // run's mean without the outlier.
        assert_eq!(median(&values), 3.0);
        let estimate = median_of_means(&values, 6);
        assert!((estimate - 10.0 / 3.0).abs() < 1e-12, "{estimate}");
    }
}
