//! The Layer-Wise (LW) model: one regression per layer type of layer time
//! on layer FLOPs; the predicted network time is the sum over layers
//! (paper Section 5.3, observation O4).

use crate::error::{PredictError, TrainError};
use crate::model::Predictor;
use dnnperf_data::Dataset;
use dnnperf_dnn::flops::layer_flops;
use dnnperf_dnn::Network;
use dnnperf_linreg::{fit_bounded_intercept, mean, Fit, Line};
use std::collections::BTreeMap;

/// Per-layer-type regression of time on FLOPs.
///
/// Layer types whose FLOPs are constant or zero across the training set
/// (copies, concatenations) fall back to a constant model — the mean of
/// their measured times.
#[derive(Debug, Clone, PartialEq)]
pub struct LwModel {
    gpu: String,
    per_type: BTreeMap<String, Fit>,
    /// Fallback over all layers, used for layer types absent from training.
    fallback: Fit,
}

fn constant_fit(ys: &[f64]) -> Fit {
    Fit {
        line: Line::new(0.0, mean(ys)),
        r2: 0.0,
        n: ys.len(),
    }
}

fn fit_or_constant(xs: &[f64], ys: &[f64]) -> Fit {
    match fit_bounded_intercept(xs, ys) {
        Ok(f) if f.line.slope.is_finite() => f,
        _ => constant_fit(ys),
    }
}

impl LwModel {
    /// Trains per-layer-type regressions on the layer rows of `gpu`: each
    /// a least-squares line whose intercept is bounded to `[0, min time]`
    /// ([`fit_bounded_intercept`]).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NoDataForGpu`] if the dataset has no layer rows
    /// for `gpu`.
    pub fn train(dataset: &Dataset, gpu: &str) -> Result<Self, TrainError> {
        let rows: Vec<_> = dataset.layers.iter().filter(|r| &*r.gpu == gpu).collect();
        if rows.is_empty() {
            return Err(TrainError::NoDataForGpu {
                gpu: gpu.to_string(),
            });
        }
        let mut grouped: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for r in &rows {
            let entry = grouped.entry(r.layer_type.to_string()).or_default();
            entry.0.push(r.flops as f64);
            entry.1.push(r.seconds);
        }
        let per_type = grouped
            .into_iter()
            .map(|(tag, (xs, ys))| (tag, fit_or_constant(&xs, &ys)))
            .collect();
        let xs: Vec<f64> = rows.iter().map(|r| r.flops as f64).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r.seconds).collect();
        Ok(LwModel {
            gpu: gpu.to_string(),
            per_type,
            fallback: fit_or_constant(&xs, &ys),
        })
    }

    /// The regression used for a layer type, if it was seen in training.
    pub fn fit_for(&self, tag: &str) -> Option<&Fit> {
        self.per_type.get(tag)
    }

    /// Layer types covered by dedicated regressions.
    pub fn known_types(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.per_type.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Predicts one layer's time from its batch FLOPs and type tag.
    pub fn predict_layer(&self, tag: &str, flops: f64) -> f64 {
        let f = self.per_type.get(tag).unwrap_or(&self.fallback);
        f.predict(flops).max(0.0)
    }

    /// Serializes the model to the dnnperf text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        crate::persist::write_header(&mut out, "lw");
        out.push_str(&format!("gpu {}\n", self.gpu));
        out.push_str("fallback ");
        crate::persist::write_fit(&mut out, &self.fallback);
        out.push('\n');
        let mut tags: Vec<&String> = self.per_type.keys().collect();
        tags.sort();
        out.push_str(&format!("types {}\n", tags.len()));
        for tag in tags {
            out.push_str(&format!("type {tag} "));
            crate::persist::write_fit(&mut out, &self.per_type[tag]);
            out.push('\n');
        }
        out
    }

    /// Loads a model serialized with [`LwModel::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::persist::PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::{field, read_fit, Cursor};
        let mut cur = Cursor::new(text);
        crate::persist::read_header(&mut cur, "lw")?;
        let gpu = cur.keyword("gpu")?.to_string();
        let rest = cur.keyword("fallback")?;
        let mut parts = rest.split_whitespace();
        let fallback = read_fit(&cur, &mut parts)?;
        let rest = cur.keyword("types")?;
        let mut parts = rest.split_whitespace();
        let count: usize = field(&cur, &mut parts, "type count")?;
        let mut per_type = BTreeMap::new();
        for _ in 0..count {
            let rest = cur.keyword("type")?;
            let mut parts = rest.split_whitespace();
            let tag = parts
                .next()
                .ok_or_else(|| cur.parse_err("missing layer type tag"))?
                .to_string();
            let fit = read_fit(&cur, &mut parts)?;
            per_type.insert(tag, fit);
        }
        Ok(LwModel {
            gpu,
            per_type,
            fallback,
        })
    }
}

impl Predictor for LwModel {
    fn name(&self) -> &str {
        "LW"
    }

    fn gpu(&self) -> &str {
        &self.gpu
    }

    fn predict_network(&self, net: &Network, batch: usize) -> Result<f64, PredictError> {
        crate::error::validate_request(net, batch)?;
        let total = net
            .layers()
            .iter()
            .map(|l| self.predict_layer(l.type_tag(), layer_flops(l) as f64 * batch as f64))
            .sum();
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::{GpuSpec, Profiler};

    fn nets() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::densenet::densenet121(),
            dnnperf_dnn::zoo::vgg::vgg13(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        ]
    }

    #[test]
    fn covers_major_layer_types() {
        let ds = collect(&nets(), &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let m = LwModel::train(&ds, "A100").unwrap();
        for tag in ["conv", "bn", "act", "pool", "fc", "add"] {
            assert!(m.fit_for(tag).is_some(), "missing regression for {tag}");
        }
    }

    #[test]
    fn zero_flop_types_get_constant_models() {
        let ds = collect(&nets(), &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let m = LwModel::train(&ds, "A100").unwrap();
        // Concat layers have zero FLOPs; the model must still price them.
        let f = m.fit_for("concat").unwrap();
        assert_eq!(f.line.slope, 0.0);
        assert!(f.line.intercept > 0.0);
    }

    #[test]
    fn lw_beats_nothing_and_is_sane_on_held_out_net() {
        let gpu = GpuSpec::by_name("A100").unwrap();
        let ds = collect(&nets(), std::slice::from_ref(&gpu), &[64]);
        let m = LwModel::train(&ds, "A100").unwrap();
        let held_out = dnnperf_dnn::zoo::resnet::resnet101();
        let measured = Profiler::new(gpu)
            .profile(&held_out, 64)
            .unwrap()
            .e2e_seconds;
        let predicted = m.predict_network(&held_out, 64).unwrap();
        let err = (predicted - measured).abs() / measured;
        assert!(err < 0.5, "LW error {err}");
    }

    #[test]
    fn unknown_type_uses_fallback() {
        let ds = collect(
            &[dnnperf_dnn::zoo::vgg::vgg11()],
            &[GpuSpec::by_name("A100").unwrap()],
            &[16],
        );
        let m = LwModel::train(&ds, "A100").unwrap();
        // VGG training data has no "ln" layers; prediction must still work.
        let t = m.predict_layer("ln", 1e6);
        assert!(t >= 0.0);
    }

    #[test]
    fn no_data_is_an_error() {
        let ds = Dataset::new();
        assert!(matches!(
            LwModel::train(&ds, "A100"),
            Err(TrainError::NoDataForGpu { .. })
        ));
    }
}
