//! One-variable ordinary least squares.
//!
//! All dnnperf performance models are built from [`fit`] (slope + intercept)
//! or [`fit_through_origin`] (slope only, used when the physical model forces
//! the line through zero, e.g. "zero work takes zero time on top of a known
//! launch overhead").

use std::error::Error;
use std::fmt;

/// A fitted line `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Line {
    /// Slope of the line; for time-vs-work fits this is seconds per unit of
    /// work, i.e. the reciprocal of the achieved throughput.
    pub slope: f64,
    /// Intercept of the line; for time-vs-work fits this absorbs fixed
    /// per-invocation overhead.
    pub intercept: f64,
}

impl Line {
    /// Creates a line from its two coefficients.
    ///
    /// # Examples
    ///
    /// ```
    /// let l = dnnperf_linreg::Line::new(2.0, 1.0);
    /// assert_eq!(l.eval(3.0), 7.0);
    /// ```
    pub fn new(slope: f64, intercept: f64) -> Self {
        Line { slope, intercept }
    }

    /// Evaluates the line at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "y = {:.6e} * x + {:.6e}", self.slope, self.intercept)
    }
}

/// The result of a least-squares fit: the [`Line`], its coefficient of
/// determination and the number of samples it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Fitted line.
    pub line: Line,
    /// Coefficient of determination in `[-inf, 1]`; `1.0` is a perfect fit.
    pub r2: f64,
    /// Number of samples used.
    pub n: usize,
}

impl Fit {
    /// Predicts `y` at `x` with the fitted line.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), dnnperf_linreg::FitError> {
    /// let f = dnnperf_linreg::fit(&[0.0, 1.0], &[1.0, 3.0])?;
    /// assert!((f.predict(2.0) - 5.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn predict(&self, x: f64) -> f64 {
        self.line.eval(x)
    }
}

/// Errors produced when a least-squares fit cannot be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two samples were supplied.
    TooFewPoints {
        /// Number of samples that were supplied.
        got: usize,
    },
    /// All `x` values are identical, so the slope is undefined.
    DegenerateX,
    /// The two input slices have different lengths.
    LengthMismatch {
        /// Length of the `x` slice.
        xs: usize,
        /// Length of the `y` slice.
        ys: usize,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewPoints { got } => {
                write!(f, "need at least 2 samples to fit a line, got {got}")
            }
            FitError::DegenerateX => write!(f, "all x values are identical"),
            FitError::LengthMismatch { xs, ys } => {
                write!(f, "sample length mismatch: {xs} x values vs {ys} y values")
            }
        }
    }
}

impl Error for FitError {}

fn check_inputs(xs: &[f64], ys: &[f64]) -> Result<(), FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewPoints { got: xs.len() });
    }
    Ok(())
}

/// Fused single-pass R²: Welford's update accumulates the total sum of
/// squares (shift-invariant, so large raw magnitudes such as FLOP counts
/// near `1e12` do not cancel catastrophically) while the residual sum of
/// squares is folded into the same loop. One sweep over the samples where
/// the old implementation took three.
fn r_squared(xs: &[f64], ys: &[f64], line: Line) -> f64 {
    let mut n = 0.0f64;
    let mut my = 0.0f64;
    let mut ss_tot = 0.0f64;
    let mut ss_res = 0.0f64;
    for (x, y) in xs.iter().zip(ys) {
        n += 1.0;
        let dy = y - my;
        my += dy / n;
        ss_tot += dy * (y - my);
        let e = y - line.eval(*x);
        ss_res += e * e;
    }
    if ss_tot == 0.0 {
        // All y identical: the fit is perfect iff the residuals are zero.
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Fits `y = slope * x + intercept` by ordinary least squares.
///
/// # Errors
///
/// Returns [`FitError::LengthMismatch`] if the slices differ in length,
/// [`FitError::TooFewPoints`] with fewer than two samples, and
/// [`FitError::DegenerateX`] if every `x` is identical.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dnnperf_linreg::FitError> {
/// let f = dnnperf_linreg::fit(&[1.0, 2.0, 3.0], &[3.0, 5.0, 7.0])?;
/// assert!((f.line.slope - 2.0).abs() < 1e-12);
/// assert!((f.line.intercept - 1.0).abs() < 1e-12);
/// assert!((f.r2 - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Fit, FitError> {
    check_inputs(xs, ys)?;
    // Fused single pass with Youngs–Cramer (Welford-style) co-moment
    // updates, routed through the mergeable accumulator so serial fits,
    // worker-split fits and incremental refreshes all share one canonical
    // floating-point sequence (see `accum` for the chunked reduction-tree
    // contract). The updates centre each sample against the running mean,
    // so the accumulation is shift-invariant and avoids the catastrophic
    // cancellation a raw `n·Σxy − Σx·Σy` formulation would suffer on
    // FLOP-scale inputs.
    let mut acc = crate::accum::OlsAccum::new();
    acc.accumulate(xs, ys);
    acc.fit()
}

/// Fits `y = slope * x` (no intercept) by least squares.
///
/// Used when the model demands `f(0) = 0`; the reported `r2` is still computed
/// against the mean of `y` so it remains comparable with [`fit`].
///
/// # Errors
///
/// Returns [`FitError::LengthMismatch`] if the slices differ in length,
/// [`FitError::TooFewPoints`] with fewer than one sample pair, and
/// [`FitError::DegenerateX`] if every `x` is zero.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dnnperf_linreg::FitError> {
/// let f = dnnperf_linreg::fit_through_origin(&[1.0, 2.0], &[2.0, 4.0])?;
/// assert!((f.line.slope - 2.0).abs() < 1e-12);
/// assert_eq!(f.line.intercept, 0.0);
/// # Ok(())
/// # }
/// ```
pub fn fit_through_origin(xs: &[f64], ys: &[f64]) -> Result<Fit, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.is_empty() {
        return Err(FitError::TooFewPoints { got: 0 });
    }
    // Fused single pass: both accumulators advance left-to-right in the
    // same order the old two-loop version used, so the sums (and hence the
    // slope) are bit-identical to the previous implementation.
    let mut sxx = 0.0f64;
    let mut sxy = 0.0f64;
    for (x, y) in xs.iter().zip(ys) {
        sxx += x * x;
        sxy += x * y;
    }
    if sxx == 0.0 {
        return Err(FitError::DegenerateX);
    }
    let line = Line::new(sxy / sxx, 0.0);
    Ok(Fit {
        line,
        r2: r_squared(xs, ys, line),
        n: xs.len(),
    })
}

/// Fits `y = slope * x + intercept` with the intercept constrained to
/// `[0, min(y)]`.
///
/// For time-vs-work data the intercept is a fixed per-invocation overhead:
/// it cannot be negative and cannot exceed the cheapest observed invocation.
/// When plain OLS lands outside that range (typically due to curvature or
/// within-group heterogeneity), the intercept is clamped and the slope
/// refitted through the origin on the shifted data.
///
/// # Errors
///
/// Same conditions as [`fit`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dnnperf_linreg::FitError> {
/// // Plain OLS on this data yields a negative intercept.
/// let f = dnnperf_linreg::fit_bounded_intercept(&[1.0, 2.0, 10.0], &[0.5, 1.5, 11.0])?;
/// assert!(f.line.intercept >= 0.0);
/// # Ok(())
/// # }
/// ```
pub fn fit_bounded_intercept(xs: &[f64], ys: &[f64]) -> Result<Fit, FitError> {
    check_inputs(xs, ys)?;
    let mut acc = crate::accum::OlsAccum::new();
    acc.accumulate(xs, ys);
    crate::accum::fit_bounded_segments(&acc, &[(xs, ys)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.5 * x - 2.0).collect();
        let f = fit(&xs, &ys).unwrap();
        assert!((f.line.slope - 3.5).abs() < 1e-12);
        assert!((f.line.intercept + 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert_eq!(f.n, 20);
    }

    #[test]
    fn too_few_points() {
        assert_eq!(fit(&[1.0], &[1.0]), Err(FitError::TooFewPoints { got: 1 }));
    }

    #[test]
    fn degenerate_x() {
        assert_eq!(fit(&[2.0, 2.0], &[1.0, 3.0]), Err(FitError::DegenerateX));
    }

    #[test]
    fn length_mismatch() {
        assert_eq!(
            fit(&[1.0, 2.0], &[1.0]),
            Err(FitError::LengthMismatch { xs: 2, ys: 1 })
        );
    }

    #[test]
    fn through_origin_matches_expected() {
        // Least squares through origin: slope = sum(xy)/sum(x^2).
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.1, 5.9];
        let f = fit_through_origin(&xs, &ys).unwrap();
        let expected = (2.0 + 8.2 + 17.7) / 14.0;
        assert!((f.line.slope - expected).abs() < 1e-12);
    }

    #[test]
    fn through_origin_all_zero_x_is_degenerate() {
        assert_eq!(
            fit_through_origin(&[0.0, 0.0], &[1.0, 2.0]),
            Err(FitError::DegenerateX)
        );
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        // y = 2x with +-5% deterministic "noise".
        let xs: Vec<f64> = (1..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x * if i % 2 == 0 { 1.05 } else { 0.95 })
            .collect();
        let f = fit(&xs, &ys).unwrap();
        assert!((f.line.slope - 2.0).abs() < 0.1);
        assert!(f.r2 > 0.98, "r2 = {}", f.r2);
    }

    #[test]
    fn constant_y_perfect_fit_r2_is_one() {
        let f = fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.line.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn bounded_intercept_within_range_is_plain_ols() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.5, 2.5, 3.5]; // intercept 0.5, min y 1.5
        let plain = fit(&xs, &ys).unwrap();
        let bounded = fit_bounded_intercept(&xs, &ys).unwrap();
        assert_eq!(plain, bounded);
    }

    #[test]
    fn bounded_intercept_clamps_negative() {
        let xs = [1.0, 2.0, 10.0];
        let ys = [0.5, 1.5, 11.0];
        let f = fit_bounded_intercept(&xs, &ys).unwrap();
        assert_eq!(f.line.intercept, 0.0);
        assert!(f.line.slope > 0.0);
    }

    #[test]
    fn bounded_intercept_never_exceeds_min_y() {
        // Concave data pushes OLS intercepts above the smallest sample.
        let xs = [1.0, 100.0, 10_000.0];
        let ys = [5.0, 20.0, 120.0];
        let f = fit_bounded_intercept(&xs, &ys).unwrap();
        assert!(f.line.intercept <= 5.0, "intercept {}", f.line.intercept);
        assert!(f.line.intercept >= 0.0);
    }

    #[test]
    fn display_formats() {
        let l = Line::new(1.0, 0.5);
        assert!(format!("{l}").contains("* x +"));
        assert!(!format!("{:?}", FitError::DegenerateX).is_empty());
    }
}
