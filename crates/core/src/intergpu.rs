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
//!
//! The model does not price layers itself. For a target GPU it is
//! [specialised](IgkwModel::specialise) into a [`KwModel`]: the IGKW
//! mapping table (shared, not copied) and one single-kernel cluster per
//! transfer line, whose slope is evaluated once at that GPU's metric. Every
//! prediction is then the strict KW walk, so one pricing loop,
//! [`KwModel`]'s, serves both models. A kernel without a transfer line has
//! no cluster in the specialised model: it is priced at zero, and the
//! model's [`KwModel::predict_layer_coverage`] names it.

use crate::classify::{classify_view, Driver, KernelClassification};
use crate::cluster::Clustering;
use crate::error::{PredictError, TrainError};
use crate::kernelwise::KwModel;
use crate::mapping::KernelMap;
use crate::model::Predictor;
use dnnperf_data::{Dataset, DatasetView, KernelRow};
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use dnnperf_linreg::{fit_bounded_intercept, fit_through_origin, mean, Fit, Line};
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
    /// Shared with every model specialised from this one.
    map: Arc<KernelMap>,
    kernels: BTreeMap<Arc<str>, KernelTransfer>,
    metric: TransferMetric,
    train_gpus: Vec<String>,
}

impl IgkwModel {
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
        Ok(IgkwModel {
            map: Arc::new(map),
            kernels,
            metric,
            train_gpus: gpus.iter().map(|g| g.name.clone()).collect(),
        })
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
        Ok(IgkwModel {
            map: Arc::new(map),
            kernels,
            metric,
            train_gpus,
        })
    }

    /// Number of kernels with a transfer model.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// The value of the model's transfer metric on `gpu`: all that
    /// [`IgkwModel::specialise`] reads of the spec besides its name.
    pub(crate) fn metric_on(&self, gpu: &GpuSpec) -> f64 {
        metric_value(self.metric, gpu)
    }

    /// The KW model this model prices `gpu` with: named after `gpu`, with
    /// this model's mapping table (shared, not copied), no kernel
    /// classifications, and one single-kernel cluster per transfer line,
    /// in kernel-symbol order, whose line is
    /// `slope = coef / metric(gpu) + slope_floor` and the transfer's
    /// intercept. The clusters carry no fit statistics (`r2` 0, `n` 0):
    /// they were derived, not fitted, on `gpu`.
    ///
    /// Kernels without a transfer line get no cluster, so the specialised
    /// model prices them at zero and its
    /// [`KwModel::predict_layer_coverage`] names them.
    pub fn specialise(&self, gpu: &GpuSpec) -> KwModel {
        let m = self.metric_on(gpu);
        let mut assignment = BTreeMap::new();
        let mut models = Vec::with_capacity(self.kernels.len());
        for (k, t) in &self.kernels {
            assignment.insert(Arc::clone(k), models.len());
            let line = Line::new(t.coef / m + t.slope_floor, t.intercept);
            models.push((
                t.driver,
                Fit {
                    line,
                    r2: 0.0,
                    n: 0,
                },
            ));
        }
        KwModel::assemble(
            gpu.name.clone(),
            Arc::clone(&self.map),
            BTreeMap::new(),
            Clustering::from_parts(assignment, models),
        )
    }

    /// Predicts a network's end-to-end time on an arbitrary GPU: the
    /// strict walk of [`IgkwModel::specialise`]'s model for `gpu`.
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
        self.specialise(gpu).predict_network(net, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelwise::LayerCoverage;
    use crate::mapping::LayerSignature;
    use dnnperf_data::collect::collect;
    use dnnperf_dnn::Layer;
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
    /// then each kernel's transfer from the model's `BTreeMap`, summed from
    /// +0.0 in launch order as KW's loop sums.
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
            .fold(0.0, |s, t| {
                s + ((t.coef / m + t.slope_floor) * drivers[t.driver.index()] + t.intercept)
                    .max(0.0)
            })
    }

    #[test]
    fn specialised_pricing_matches_the_name_keyed_reference() {
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
            "intergpu::specialised_pricing_matches_the_name_keyed_reference",
            &(vec(0..probes.len(), 1..20), 1usize..600, 0..gpus.len()),
            |(layers, batch, g)| {
                let gpu = &gpus[g];
                for model in [&trained, &loaded] {
                    let kw = model.specialise(gpu);
                    for &i in &layers {
                        let layer = &probes[i];
                        prop_assert_eq!(
                            kw.predict_layer(layer, batch).to_bits(),
                            name_keyed(model, layer, batch, gpu).to_bits(),
                            "{layer:?}"
                        );
                    }
                }
            },
        );
    }

    #[test]
    fn specialised_model_names_the_kernels_without_a_transfer_line() {
        // A kernel that is constant on every training GPU gets no transfer
        // line, so unprofiled GPUs price it at zero. The specialised
        // model's coverage account shows the drop; once training gives
        // such kernels a line, this layer is fully covered.
        let dropped = "winograd_fwd_sgemm_t4_ai18";
        let ds = collect(&nets(), &train_gpus(), &[64]);
        let model = IgkwModel::train(&ds, &train_gpus()).unwrap();
        assert!(!model.kernels.contains_key(dropped));
        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let kw = model.specialise(&titan);
        let launches = |l: &&Layer| {
            model
                .map
                .kernels_for(l)
                .is_some_and(|ks| ks.iter().any(|k| &**k == dropped))
        };
        let net = nets()
            .into_iter()
            .find(|n| n.layers().iter().any(|l| launches(&l)));
        let net = net.expect("a test network launches the dropped kernel");
        let layer = net.layers().iter().find(launches).unwrap();
        match kw.predict_layer_coverage(layer, 64) {
            LayerCoverage::Partial { seconds, missing } => {
                assert!(missing.iter().any(|k| &**k == dropped), "{missing:?}");
                // Non-zero, so the reference's +0.0 start cannot differ
                // from the former loop's `.sum()`.
                let today = name_keyed(&model, layer, 64, &titan);
                assert!(today > 0.0);
                assert_eq!(seconds.to_bits(), today.to_bits());
                assert_eq!(kw.predict_layer(layer, 64).to_bits(), today.to_bits());
            }
            other => panic!("expected a partial coverage, got {other:?}"),
        }
    }

    #[test]
    fn specialisation_shares_the_map_and_derives_each_slope_once() {
        let ds = collect(&nets()[..2], &train_gpus(), &[32]);
        let model = IgkwModel::train(&ds, &train_gpus()).unwrap();
        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let kw = model.specialise(&titan);
        assert!(std::ptr::eq(kw.mapping(), &*model.map));
        assert_eq!(kw.gpu(), "TITAN RTX");
        assert!(kw.classifications().is_empty());
        assert_eq!(kw.num_models(), model.num_kernels());
        assert_eq!(kw.num_kernels(), model.num_kernels());
        let m = metric_value(model.metric, &titan);
        for ((k, t), (slot, (driver, fit))) in model
            .kernels
            .iter()
            .zip(kw.clustering().models().iter().enumerate())
        {
            assert_eq!(kw.clustering().cluster_of(k), Some(slot));
            assert_eq!(*driver, t.driver);
            assert_eq!(
                fit.line.slope.to_bits(),
                (t.coef / m + t.slope_floor).to_bits()
            );
            assert_eq!(fit.line.intercept.to_bits(), t.intercept.to_bits());
        }
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
