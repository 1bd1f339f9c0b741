//! Order statistics shared by every workload.

/// The `p`-th percentile (0..=100) of `xs` by linear interpolation
/// between closest ranks. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The median across groups of each group's `p`-th percentile. Groups
/// are the rounds or passes of a run: one slow stretch (a hypervisor
/// pause, a page-fault storm) then moves one group's value instead of the
/// whole figure. Empty groups are skipped.
pub fn median_of_percentiles(groups: &[Vec<f64>], p: f64) -> f64 {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(g, p))
        .collect();
    median(&per_group)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn median_of_percentiles_ignores_one_bad_group() {
        // Five groups of ten samples; group 2 is a stall.
        let groups: Vec<Vec<f64>> = (0..5)
            .map(|g| {
                let base = if g == 2 { 1000.0 } else { 100.0 + g as f64 };
                (0..10).map(|i| base + i as f64).collect()
            })
            .collect();
        // Per-group medians: 104.5, 105.5, 1004.5, 107.5, 108.5.
        assert_eq!(median_of_percentiles(&groups, 50.0), 107.5);
        // Per-group p90s: base + 8.1.
        assert!((median_of_percentiles(&groups, 90.0) - 111.1).abs() < 1e-9);
        // Pooling the samples instead lets the stall reach the p90.
        let pooled: Vec<f64> = groups.concat();
        assert!(percentile(&pooled, 90.0) > 1000.0);
    }

    #[test]
    fn median_of_percentiles_handles_uneven_and_empty_groups() {
        let groups = vec![vec![1.0], vec![], vec![2.0, 4.0], vec![9.0, 1.0, 5.0]];
        // Medians 1, 3, 5 (the empty group is skipped).
        assert_eq!(median_of_percentiles(&groups, 50.0), 3.0);
        assert_eq!(median_of_percentiles(&[], 50.0), 0.0);
        assert_eq!(median_of_percentiles(&[vec![], vec![]], 50.0), 0.0);
    }
}
