//! Ordinary least squares regression and error metrics.
//!
//! This crate is the statistical substrate of the dnnperf performance models.
//! The paper deliberately avoids "complex statistical approaches, such as PCA
//! and Neural Networks" — everything in the predictor stack reduces to simple
//! one-variable linear regression ([`Fit`]) plus a handful of error metrics
//! ([`metrics`]). Least squares is the only estimator: corrupted
//! measurements are quarantined during collection (`dnnperf_data::hygiene`)
//! rather than down-weighted by the fit.
//!
//! # Examples
//!
//! ```
//! use dnnperf_linreg::fit;
//!
//! # fn main() -> Result<(), dnnperf_linreg::FitError> {
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [2.1, 3.9, 6.0, 8.1];
//! let fit = fit(&xs, &ys)?;
//! assert!((fit.line.slope - 2.0).abs() < 0.1);
//! assert!(fit.r2 > 0.99);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Predictor-side code must degrade gracefully, never crash: a stray
// `unwrap` would turn a recoverable modelling failure into a panic.
// dnnperf-lint's panic-policy pass verifies this attribute stays in place.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accum;
pub mod metrics;
pub mod ols;
pub mod stats;

pub use accum::{fit_bounded_segments, OlsAccum, FIT_CHUNK};
pub use metrics::{mean_abs_rel_error, median, percentile, ratio_curve, SCurvePoint};
pub use ols::{fit, fit_bounded_intercept, fit_through_origin, Fit, FitError, Line};
pub use stats::{mean, pearson};
