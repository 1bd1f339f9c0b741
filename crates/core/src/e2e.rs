//! The End-to-End (E2E) model: one linear regression of batch execution
//! time on total theoretical FLOPs (paper Section 5.2, observation O1).

use crate::error::{PredictError, TrainError};
use crate::model::Predictor;
use dnnperf_data::Dataset;
use dnnperf_dnn::Network;
use dnnperf_linreg::{fit_bounded_intercept, Fit};

/// The simplest paper model: `time = a * total_FLOPs + b`, trained on
/// network-level measurements of one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eModel {
    gpu: String,
    fit: Fit,
}

impl E2eModel {
    /// Trains on the network rows of `gpu` in `dataset`: a least-squares
    /// line whose intercept is bounded to `[0, min time]`
    /// ([`fit_bounded_intercept`]).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NoDataForGpu`] if the dataset has no rows for
    /// `gpu` and [`TrainError::Fit`] if the regression is degenerate.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::E2eModel;
    /// use dnnperf_data::collect::collect;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// # fn main() -> Result<(), dnnperf_core::TrainError> {
    /// let nets = [
    ///     dnnperf_dnn::zoo::resnet::resnet18(),
    ///     dnnperf_dnn::zoo::resnet::resnet34(),
    ///     dnnperf_dnn::zoo::resnet::resnet50(),
    /// ];
    /// let ds = collect(&nets, &[GpuSpec::by_name("V100").unwrap()], &[32]);
    /// let model = E2eModel::train(&ds, "V100")?;
    /// assert!(model.slope_seconds_per_flop() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn train(dataset: &Dataset, gpu: &str) -> Result<Self, TrainError> {
        let rows: Vec<_> = dataset.networks.iter().filter(|r| &*r.gpu == gpu).collect();
        if rows.is_empty() {
            return Err(TrainError::NoDataForGpu {
                gpu: gpu.to_string(),
            });
        }
        let xs: Vec<f64> = rows.iter().map(|r| r.flops as f64).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r.e2e_seconds).collect();
        let fit = fit_bounded_intercept(&xs, &ys).map_err(|source| TrainError::Fit {
            what: format!("E2E model for {gpu}"),
            source,
        })?;
        Ok(E2eModel {
            gpu: gpu.to_string(),
            fit,
        })
    }

    /// The fitted slope in seconds per FLOP (reciprocal of the achieved
    /// end-to-end FLOPS).
    pub fn slope_seconds_per_flop(&self) -> f64 {
        self.fit.line.slope
    }

    /// The underlying regression.
    pub fn fit(&self) -> &Fit {
        &self.fit
    }

    /// Serializes the model to the dnnperf text format (Figure 10's
    /// "distributed to users" step).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        crate::persist::write_header(&mut out, "e2e");
        out.push_str(&format!("gpu {}\n", self.gpu));
        out.push_str("fit ");
        crate::persist::write_fit(&mut out, &self.fit);
        out.push('\n');
        out
    }

    /// Loads a model serialized with [`E2eModel::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::persist::PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, crate::persist::PersistError> {
        let mut cur = crate::persist::Cursor::new(text);
        crate::persist::read_header(&mut cur, "e2e")?;
        let gpu = cur.keyword("gpu")?.to_string();
        let rest = cur.keyword("fit")?;
        let mut parts = rest.split_whitespace();
        let fit = crate::persist::read_fit(&cur, &mut parts)?;
        Ok(E2eModel { gpu, fit })
    }
}

impl Predictor for E2eModel {
    fn name(&self) -> &str {
        "E2E"
    }

    fn gpu(&self) -> &str {
        &self.gpu
    }

    fn predict_network(&self, net: &Network, batch: usize) -> Result<f64, PredictError> {
        crate::error::validate_request(net, batch)?;
        let flops = net.total_flops() as f64 * batch as f64;
        Ok(self.fit.predict(flops).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::GpuSpec;

    fn training_nets() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::resnet::resnet101(),
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg16(),
        ]
    }

    #[test]
    fn unknown_gpu_is_an_error() {
        let ds = collect(
            &training_nets()[..2],
            &[GpuSpec::by_name("A100").unwrap()],
            &[16],
        );
        assert_eq!(
            E2eModel::train(&ds, "H100"),
            Err(TrainError::NoDataForGpu { gpu: "H100".into() })
        );
    }

    #[test]
    fn in_family_interpolation_is_decent() {
        let gpus = [GpuSpec::by_name("A100").unwrap()];
        let nets = training_nets();
        let ds = collect(&nets, &gpus, &[64]);
        let model = E2eModel::train(&ds, "A100").unwrap();
        // Predict a held-out ResNet variant.
        let held_out = dnnperf_dnn::zoo::resnet::resnet77();
        let prof = dnnperf_gpu::Profiler::new(gpus[0].clone());
        let measured = prof.profile(&held_out, 64).unwrap().e2e_seconds;
        let predicted = model.predict_network(&held_out, 64).unwrap();
        let err = (predicted - measured).abs() / measured;
        assert!(err < 0.6, "E2E error {err}");
    }

    #[test]
    fn prediction_scales_with_batch() {
        let ds = collect(
            &training_nets(),
            &[GpuSpec::by_name("A100").unwrap()],
            &[64],
        );
        let model = E2eModel::train(&ds, "A100").unwrap();
        let net = dnnperf_dnn::zoo::resnet::resnet50();
        let t64 = model.predict_network(&net, 64).unwrap();
        let t128 = model.predict_network(&net, 128).unwrap();
        // Not a full 2x: the E2E regression's intercept (which absorbs fixed
        // overheads plus inter-family scatter) does not scale with batch.
        assert!(t128 > 1.2 * t64, "t64 {t64}, t128 {t128}");
    }

    #[test]
    fn zero_batch_rejected() {
        let ds = collect(
            &training_nets(),
            &[GpuSpec::by_name("A100").unwrap()],
            &[16],
        );
        let model = E2eModel::train(&ds, "A100").unwrap();
        assert_eq!(
            model.predict_network(&training_nets()[0], 0),
            Err(PredictError::ZeroBatch)
        );
    }

    #[test]
    fn predictions_are_never_negative() {
        let ds = collect(
            &training_nets(),
            &[GpuSpec::by_name("A100").unwrap()],
            &[64],
        );
        let model = E2eModel::train(&ds, "A100").unwrap();
        // A network with almost no FLOPs.
        let tiny = dnnperf_dnn::zoo::shufflenet::shufflenet_v1(3, 0.25, &[2, 4, 2]);
        assert!(model.predict_network(&tiny, 1).unwrap() >= 0.0);
    }
}
