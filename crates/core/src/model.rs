//! The common predictor interface (the "simple interface for the
//! performance analytics model" of Figure 10).

use crate::error::PredictError;
use dnnperf_dnn::Network;

/// A trained execution-time predictor for one GPU.
///
/// Implementations take only *static* network structure as input — no
/// execution or profiling is required at prediction time.
pub trait Predictor {
    /// Human-readable model name, e.g. `"KW"`.
    fn name(&self) -> &str;

    /// The GPU this model predicts for.
    fn gpu(&self) -> &str;

    /// Predicts the end-to-end execution time in seconds of one inference
    /// batch of `net` at batch size `batch`.
    ///
    /// # Errors
    ///
    /// Returns a [`PredictError`] when the model cannot cover the network
    /// (unknown layer types with no fallback) or the batch size is zero.
    fn predict_network(&self, net: &Network, batch: usize) -> Result<f64, PredictError>;
}
