//! Basic descriptive statistics used by the regression and metric code.

/// Arithmetic mean of a sample.
///
/// Returns `0.0` for an empty slice so that callers aggregating over possibly
/// empty groups do not have to special-case them.
///
/// # Examples
///
/// ```
/// assert_eq!(dnnperf_linreg::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// Returns `0.0` if either sample is constant or empty.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
///
/// # Examples
///
/// ```
/// let r = dnnperf_linreg::pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: sample length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_of_singleton() {
        assert_eq!(mean(&[7.5]), 7.5);
    }

    #[test]
    fn pearson_perfect_negative() {
        let r = pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]);
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_sample_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pearson_length_mismatch_panics() {
        pearson(&[1.0], &[1.0, 2.0]);
    }
}
