//! The Inter-GPU Kernel-Wise (IGKW) model (paper Section 5.5).
//!
//! Per kernel, the single-GPU regressions have GPU-specific slopes. Guided
//! by O6 (bandwidth efficiency is stable across GPUs), the IGKW model
//! regresses each kernel's slope against the reciprocal of the GPU's
//! theoretical memory bandwidth:
//!
//! ```text
//! slope(kernel, gpu) ~= coef(kernel) / bandwidth(gpu)
//! ```
//!
//! Trained on a few diverse GPUs, it then predicts kernels — and hence whole
//! networks — on GPUs absent from the training set, including hypothetical
//! configurations (Case Study 1).

use crate::classify::{classify_view, Driver, KernelClassification};
use crate::error::{PredictError, TrainError};
use crate::mapping::{drivers, sizes_of, ById, KernelMap};
use dnnperf_data::{Dataset, DatasetView, KernelRow};
use dnnperf_dnn::{Layer, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_linreg::{fit_bounded_intercept, fit_through_origin, mean};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a kernel's regression parameters adapt across GPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KernelTransfer {
    driver: Driver,
    /// `slope = coef / bandwidth_bytes + slope_floor`.
    coef: f64,
    /// Bandwidth-independent slope component: the compute-bound residual
    /// that keeps a kernel from speeding up indefinitely with memory
    /// bandwidth (what bends the Case Study 1 curves flat).
    slope_floor: f64,
    /// Intercept, averaged across training GPUs (launch overhead is
    /// host-dominated and roughly GPU-independent).
    intercept: f64,
}

/// Strategy for adapting slopes across GPUs (the `ablation_igkw` experiment
/// compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMetric {
    /// Slope scales with 1 / memory bandwidth (the paper's choice, O6).
    Bandwidth,
    /// Slope scales with 1 / peak FP32 throughput (the rejected
    /// alternative).
    PeakFlops,
}

fn metric_value(metric: TransferMetric, gpu: &GpuSpec) -> f64 {
    match metric {
        TransferMetric::Bandwidth => gpu.bandwidth_bytes(),
        TransferMetric::PeakFlops => gpu.peak_flops(),
    }
}

/// The Inter-GPU Kernel-Wise model.
#[derive(Debug, Clone, PartialEq)]
pub struct IgkwModel {
    map: KernelMap,
    kernels: BTreeMap<Arc<str>, KernelTransfer>,
    metric: TransferMetric,
    train_gpus: Vec<String>,
    /// The transfer of each kernel id of `map`; `None` for a kernel
    /// without one.
    transfers: ById<Option<KernelTransfer>>,
}

impl IgkwModel {
    /// The one constructor, shared by training and loading, so every model
    /// resolves its transfer table.
    fn assemble(
        map: KernelMap,
        kernels: BTreeMap<Arc<str>, KernelTransfer>,
        metric: TransferMetric,
        train_gpus: Vec<String>,
    ) -> Self {
        let transfers = map.resolve(|k| kernels.get(k).copied());
        IgkwModel {
            map,
            kernels,
            metric,
            train_gpus,
            transfers,
        }
    }

    /// Trains on the measurements of `gpus` (each must be present in the
    /// dataset) using the paper's bandwidth transfer metric.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NoDataForGpu`] if any requested GPU has no
    /// kernel rows, and [`TrainError::NotEnoughSamples`] if no kernel could
    /// be fitted on any GPU.
    pub fn train(dataset: &Dataset, gpus: &[GpuSpec]) -> Result<Self, TrainError> {
        IgkwModel::train_with_options(dataset, gpus, TransferMetric::Bandwidth, true)
    }

    /// Trains with full control over the transfer formulation: the metric
    /// and whether the slope fit may carry a metric-independent floor.
    /// Disabling the floor gives the pure proportionality claim of O6
    /// (`slope ~ 1/metric` through the origin), which is what the
    /// `ablation_igkw` experiment contrasts across metrics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IgkwModel::train`].
    pub fn train_with_options(
        dataset: &Dataset,
        gpus: &[GpuSpec],
        metric: TransferMetric,
        allow_floor: bool,
    ) -> Result<Self, TrainError> {
        // Per GPU: per-kernel classification and fits over a columnar view
        // of the GPU's borrowed rows.
        let mut per_gpu: Vec<(f64, BTreeMap<Arc<str>, KernelClassification>)> = Vec::new();
        let mut map = KernelMap::default();
        for gpu in gpus {
            let rows: Vec<&KernelRow> = dataset
                .kernels
                .iter()
                .filter(|r| *r.gpu == gpu.name)
                .collect();
            if rows.is_empty() {
                return Err(TrainError::NoDataForGpu {
                    gpu: gpu.name.clone(),
                });
            }
            map.merge(KernelMap::from_row_refs(&rows));
            let classes = classify_view(&DatasetView::from_refs(&rows), 1);
            per_gpu.push((metric_value(metric, gpu), classes));
        }

        // For each kernel: pick the driver with the best summed R2 across
        // GPUs, then fit slope * metric = coef through the origin.
        let mut all_kernels: BTreeMap<Arc<str>, ()> = BTreeMap::new();
        for (_, classes) in &per_gpu {
            for k in classes.keys() {
                all_kernels.entry(k.clone()).or_insert(());
            }
        }
        let mut kernels = BTreeMap::new();
        for kernel in all_kernels.into_keys() {
            let mut votes = [0.0f64; 3];
            for (_, classes) in &per_gpu {
                if let Some(c) = classes.get(&kernel) {
                    for (vote, r2) in votes.iter_mut().zip(c.r2) {
                        if r2.is_finite() {
                            *vote += r2.max(0.0);
                        }
                    }
                }
            }
            // `(0..3).max_by(total_cmp)` with the last maximum winning
            // ties, written without the range-is-nonempty `expect`.
            let best = (1..3).fold(0, |b, i| {
                if votes[i].total_cmp(&votes[b]).is_ge() {
                    i
                } else {
                    b
                }
            });
            let driver = Driver::all()[best];

            let mut inv_metric = Vec::new();
            let mut slopes = Vec::new();
            let mut intercepts = Vec::new();
            for (m, classes) in &per_gpu {
                if let Some(c) = classes.get(&kernel) {
                    if let Some(f) = c.fits[driver.index()] {
                        inv_metric.push(1.0 / m);
                        slopes.push(f.line.slope);
                        intercepts.push(f.line.intercept);
                    }
                }
            }
            if slopes.is_empty() {
                continue;
            }
            // slope ~= coef * (1/metric) + floor; the bounded intercept keeps
            // the floor within [0, min slope].
            let origin_fit = || match fit_through_origin(&inv_metric, &slopes) {
                Ok(f) => (f.line.slope.max(0.0), 0.0),
                Err(_) => (0.0, mean(&slopes).max(0.0)),
            };
            let (coef, slope_floor) = if allow_floor {
                match fit_bounded_intercept(&inv_metric, &slopes) {
                    Ok(f) if f.line.slope >= 0.0 => (f.line.slope, f.line.intercept),
                    _ => origin_fit(),
                }
            } else {
                origin_fit()
            };
            kernels.insert(
                kernel,
                KernelTransfer {
                    driver,
                    coef,
                    slope_floor,
                    intercept: mean(&intercepts).max(0.0),
                },
            );
        }
        if kernels.is_empty() {
            return Err(TrainError::NotEnoughSamples {
                what: "IGKW kernel transfers".into(),
                got: 0,
            });
        }
        let train_gpus = gpus.iter().map(|g| g.name.clone()).collect();
        Ok(IgkwModel::assemble(map, kernels, metric, train_gpus))
    }

    /// The GPUs the model was trained on.
    pub fn train_gpus(&self) -> &[String] {
        &self.train_gpus
    }

    /// Serializes the model to the dnnperf text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        crate::persist::write_header(&mut out, "igkw");
        let metric = match self.metric {
            TransferMetric::Bandwidth => "bandwidth",
            TransferMetric::PeakFlops => "peakflops",
        };
        out.push_str(&format!("metric {metric}\n"));
        out.push_str(&format!("traingpus {}\n", self.train_gpus.len()));
        for g in &self.train_gpus {
            out.push_str(&format!("traingpu {g}\n"));
        }
        self.map.write_text(&mut out);
        let mut kernels: Vec<&Arc<str>> = self.kernels.keys().collect();
        kernels.sort();
        out.push_str(&format!("kernels {}\n", kernels.len()));
        for k in kernels {
            let t = &self.kernels[k];
            out.push_str(&format!(
                "kernel {} {} {} {} {}\n",
                k, t.driver, t.coef, t.slope_floor, t.intercept
            ));
        }
        out
    }

    /// Loads a model serialized with [`IgkwModel::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::persist::PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::{field, Cursor};
        let mut cur = Cursor::new(text);
        crate::persist::read_header(&mut cur, "igkw")?;
        let metric = match cur.keyword("metric")? {
            "bandwidth" => TransferMetric::Bandwidth,
            "peakflops" => TransferMetric::PeakFlops,
            other => return Err(cur.parse_err(format!("unknown metric {other:?}"))),
        };
        let rest = cur.keyword("traingpus")?;
        let n_gpus: usize = rest
            .trim()
            .parse()
            .map_err(|_| cur.parse_err(format!("bad GPU count {rest:?}")))?;
        let mut train_gpus = Vec::with_capacity(n_gpus);
        for _ in 0..n_gpus {
            train_gpus.push(cur.keyword("traingpu")?.to_string());
        }
        let map = KernelMap::read_text(&mut cur)?;
        let rest = cur.keyword("kernels")?;
        let mut parts = rest.split_whitespace();
        let n_kernels: usize = field(&cur, &mut parts, "kernel count")?;
        let mut kernels = BTreeMap::new();
        for _ in 0..n_kernels {
            let rest = cur.keyword("kernel")?;
            let mut parts = rest.split_whitespace();
            let name: Arc<str> = Arc::from(
                parts
                    .next()
                    .ok_or_else(|| cur.parse_err("missing kernel symbol"))?,
            );
            let driver: Driver = parts
                .next()
                .ok_or_else(|| cur.parse_err("missing driver"))?
                .parse()
                .map_err(|e| cur.parse_err(format!("{e}")))?;
            let transfer = KernelTransfer {
                driver,
                coef: field(&cur, &mut parts, "coef")?,
                slope_floor: field(&cur, &mut parts, "slope floor")?,
                intercept: field(&cur, &mut parts, "intercept")?,
            };
            kernels.insert(name, transfer);
        }
        Ok(IgkwModel::assemble(map, kernels, metric, train_gpus))
    }

    /// Number of kernels with a transfer model.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Predicts one layer's time on an arbitrary (possibly hypothetical)
    /// GPU. Each term reads its transfer by kernel id.
    pub fn predict_layer(&self, layer: &Layer, batch: usize, gpu: &GpuSpec) -> f64 {
        let sizes = sizes_of(layer);
        let Some(recorded) = self.map.lookup(layer.type_tag(), sizes) else {
            return 0.0;
        };
        let drivers = drivers(sizes, batch);
        let m = metric_value(self.metric, gpu);
        recorded
            .ids()
            .iter()
            .filter_map(|&id| self.transfers.get(id).and_then(Option::as_ref))
            .map(|t| {
                let slope = t.coef / m + t.slope_floor;
                (slope * drivers[t.driver.index()] + t.intercept).max(0.0)
            })
            .sum()
    }

    /// Predicts a network's end-to-end time on an arbitrary GPU.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] for a zero batch size and
    /// [`PredictError::EmptyNetwork`] for a network without layers.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use dnnperf_core::IgkwModel;
    /// use dnnperf_data::collect::{collect, TRAIN_BATCH};
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let nets = dnnperf_dnn::zoo::cnn_zoo();
    /// let train_gpus = [
    ///     GpuSpec::by_name("A100").unwrap(),
    ///     GpuSpec::by_name("A40").unwrap(),
    ///     GpuSpec::by_name("GTX 1080 Ti").unwrap(),
    /// ];
    /// let ds = collect(&nets, &train_gpus, &[TRAIN_BATCH]);
    /// let model = IgkwModel::train(&ds, &train_gpus)?;
    /// // Predict a GPU never measured:
    /// let titan = GpuSpec::by_name("TITAN RTX").unwrap();
    /// let t = model.predict_network_on(&nets[0], 512, &titan)?;
    /// assert!(t > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn predict_network_on(
        &self,
        net: &Network,
        batch: usize,
        gpu: &GpuSpec,
    ) -> Result<f64, PredictError> {
        crate::error::validate_request(net, batch)?;
        Ok(net
            .layers()
            .iter()
            .map(|l| self.predict_layer(l, batch, gpu))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::LayerSignature;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::Profiler;
    use dnnperf_linreg::mean_abs_rel_error;

    fn nets() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::resnet::resnet101(),
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg16(),
            dnnperf_dnn::zoo::densenet::densenet121(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        ]
    }

    fn train_gpus() -> Vec<GpuSpec> {
        ["A100", "A40", "GTX 1080 Ti"]
            .iter()
            .map(|n| GpuSpec::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn predicts_unseen_gpu_reasonably() {
        let ds = collect(&nets(), &train_gpus(), &[64]);
        let model = IgkwModel::train(&ds, &train_gpus()).unwrap();
        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let prof = Profiler::new(titan.clone());
        let mut preds = Vec::new();
        let mut meas = Vec::new();
        for net in nets() {
            preds.push(model.predict_network_on(&net, 64, &titan).unwrap());
            meas.push(prof.profile(&net, 64).unwrap().e2e_seconds);
        }
        let err = mean_abs_rel_error(&preds, &meas);
        assert!(err < 0.35, "IGKW error on unseen GPU: {err}");
    }

    #[test]
    fn bandwidth_metric_beats_flops_metric() {
        // The paper's O6: bandwidth is the right transfer metric.
        let ds = collect(&nets(), &train_gpus(), &[64]);
        let bw = IgkwModel::train(&ds, &train_gpus()).unwrap();
        let fl = IgkwModel::train_with_options(&ds, &train_gpus(), TransferMetric::PeakFlops, true)
            .unwrap();
        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let prof = Profiler::new(titan.clone());
        let (mut bw_p, mut fl_p, mut meas) = (Vec::new(), Vec::new(), Vec::new());
        for net in nets() {
            bw_p.push(bw.predict_network_on(&net, 64, &titan).unwrap());
            fl_p.push(fl.predict_network_on(&net, 64, &titan).unwrap());
            meas.push(prof.profile(&net, 64).unwrap().e2e_seconds);
        }
        let e_bw = mean_abs_rel_error(&bw_p, &meas);
        let e_fl = mean_abs_rel_error(&fl_p, &meas);
        assert!(e_bw < e_fl, "bandwidth {e_bw} vs flops {e_fl}");
    }

    #[test]
    fn higher_bandwidth_predicts_faster_execution() {
        // The mechanism behind Case Study 1's DSE curves.
        let ds = collect(&nets(), &train_gpus(), &[64]);
        let model = IgkwModel::train(&ds, &train_gpus()).unwrap();
        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let net = dnnperf_dnn::zoo::resnet::resnet50();
        let slow = model
            .predict_network_on(&net, 64, &titan.with_bandwidth(200.0))
            .unwrap();
        let fast = model
            .predict_network_on(&net, 64, &titan.with_bandwidth(1400.0))
            .unwrap();
        assert!(slow > 2.0 * fast, "slow {slow}, fast {fast}");
    }

    #[test]
    fn missing_gpu_data_is_an_error() {
        let ds = collect(&nets()[..2], &train_gpus()[..1], &[32]);
        let err = IgkwModel::train(&ds, &train_gpus()).unwrap_err();
        assert!(matches!(err, TrainError::NoDataForGpu { gpu } if gpu == "A40"));
    }

    /// IGKW pricing written the name-keyed way: the mapped kernel list,
    /// then each kernel's transfer from the model's `BTreeMap`.
    fn name_keyed(model: &IgkwModel, layer: &Layer, batch: usize, gpu: &GpuSpec) -> f64 {
        let Some(kernels) = model.map.kernels_for(layer) else {
            return 0.0;
        };
        let n = batch as f64;
        let drivers = [
            layer.input.elems() as f64 * n,
            dnnperf_dnn::flops::layer_flops(layer) as f64 * n,
            layer.output.elems() as f64 * n,
        ];
        let m = metric_value(model.metric, gpu);
        kernels
            .iter()
            .filter_map(|k| model.kernels.get(k))
            .map(|t| {
                ((t.coef / m + t.slope_floor) * drivers[t.driver.index()] + t.intercept).max(0.0)
            })
            .sum()
    }

    #[test]
    fn resolved_pricing_matches_the_name_keyed_reference() {
        use dnnperf_testkit::prelude::*;
        let gpus = &train_gpus()[..2];
        let ds = collect(&nets()[..3], gpus, &[32]);
        let trained = IgkwModel::train(&ds, gpus).unwrap();
        let loaded = IgkwModel::from_text(&trained.to_text()).unwrap();
        // Held-out layers: exact hits and nearest misses.
        let probes: Vec<Layer> = [
            dnnperf_dnn::zoo::densenet::densenet121(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.4, 1.0),
        ]
        .iter()
        .flat_map(|n| n.layers().to_vec())
        .collect();
        let hit = |l: &&Layer| {
            let sig = LayerSignature::of_layer(l);
            trained.map.entries().any(|(s, _)| *s == sig)
        };
        let hits = probes.iter().filter(hit).count();
        assert!(
            hits > 10 && probes.len() - hits > 10,
            "{hits} of {}",
            probes.len()
        );
        let gpus: Vec<GpuSpec> = GpuSpec::all();
        run(
            "intergpu::resolved_pricing_matches_the_name_keyed_reference",
            &(vec(0..probes.len(), 1..20), 1usize..600, 0..gpus.len()),
            |(layers, batch, g)| {
                let gpu = &gpus[g];
                for model in [&trained, &loaded] {
                    for &i in &layers {
                        let layer = &probes[i];
                        prop_assert_eq!(
                            model.predict_layer(layer, batch, gpu).to_bits(),
                            name_keyed(model, layer, batch, gpu).to_bits(),
                            "{layer:?}"
                        );
                    }
                }
            },
        );
    }

    #[test]
    fn single_training_gpu_still_transfers() {
        // With one GPU the through-origin fit has a single point; the model
        // degrades gracefully rather than failing.
        let one = vec![GpuSpec::by_name("A100").unwrap()];
        let ds = collect(&nets(), &one, &[64]);
        let model = IgkwModel::train(&ds, &one).unwrap();
        let v100 = GpuSpec::by_name("V100").unwrap();
        let t = model
            .predict_network_on(&dnnperf_dnn::zoo::resnet::resnet50(), 64, &v100)
            .unwrap();
        assert!(t > 0.0);
    }
}
