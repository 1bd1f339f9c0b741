//! The Kernel-Wise (KW) model (paper Section 5.4): the paper's most accurate
//! single-GPU predictor.
//!
//! Training: build the layer-to-kernel mapping table, classify every kernel
//! by its best-R² driver (input / operation / output), cluster kernels with
//! similar linear behaviour, and fit one regression per cluster. Prediction:
//! walk the network's layers, look each up in the mapping table, and sum the
//! per-kernel regressions evaluated at the layer's driver variables.

use crate::classify::{classify_view, Driver, KernelClassification};
use crate::cluster::{cluster_view, Clustering, DEFAULT_SLOPE_TOLERANCE};
use crate::error::{PredictError, TrainError};
use crate::mapping::{drivers, sizes_of, ById, KernelMap, Recorded, SizeKey};
use crate::model::Predictor;
use dnnperf_data::{Dataset, DatasetView};
use dnnperf_dnn::{Layer, Network};
use dnnperf_linreg::Line;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How much of a layer's kernel work the KW model can actually price.
///
/// [`KwModel::predict_layer`] silently treats missing information as zero
/// cost; the coverage-aware variant reports what was missing so callers
/// (the graceful-degradation ladder of [`crate::degrade`]) can substitute a
/// coarser model instead of undershooting.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerCoverage {
    /// Every mapped kernel has a cluster regression; `seconds` is the full
    /// KW prediction.
    Full(f64),
    /// The layer maps to kernels but some lack cluster regressions; the
    /// priced subtotal and the unpriced kernel symbols are reported.
    Partial {
        /// Sum of the regressions that *do* exist.
        seconds: f64,
        /// Kernel symbols with no cluster model.
        missing: Vec<Arc<str>>,
    },
    /// The mapping table has no entry for this layer signature at all.
    Unmapped,
}

impl LayerCoverage {
    /// The priced seconds, whatever the coverage (0.0 when unmapped).
    pub fn seconds(&self) -> f64 {
        match self {
            LayerCoverage::Full(s) | LayerCoverage::Partial { seconds: s, .. } => *s,
            LayerCoverage::Unmapped => 0.0,
        }
    }

    /// Whether the KW model fully covered the layer.
    pub fn is_full(&self) -> bool {
        matches!(self, LayerCoverage::Full(_))
    }
}

/// The Kernel-Wise model for one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct KwModel {
    gpu: String,
    /// Shared, not copied, with the IGKW model a model was specialised
    /// from ([`crate::IgkwModel::specialise`]).
    map: Arc<KernelMap>,
    classes: BTreeMap<Arc<str>, KernelClassification>,
    clustering: Clustering,
    /// The cluster regression of each kernel id of `map`, copied out of
    /// [`Clustering::models`] so a term is one read; `None` for a kernel
    /// without a cluster.
    lines: ById<Option<(Driver, Line)>>,
}

impl KwModel {
    /// The one constructor: training, loading, the ablated model and IGKW
    /// specialisation all pass through it, so every model resolves its
    /// line table.
    pub(crate) fn assemble(
        gpu: String,
        map: Arc<KernelMap>,
        classes: BTreeMap<Arc<str>, KernelClassification>,
        clustering: Clustering,
    ) -> Self {
        let lines = map.resolve(|k| clustering.model_for(k).map(|(d, f)| (d, f.line)));
        KwModel {
            gpu,
            map,
            classes,
            clustering,
            lines,
        }
    }

    /// Trains on the kernel rows of `gpu` with the default clustering
    /// tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NoDataForGpu`] if the dataset has no kernel
    /// rows for `gpu`.
    pub fn train(dataset: &Dataset, gpu: &str) -> Result<Self, TrainError> {
        KwModel::train_with_tolerance(dataset, gpu, DEFAULT_SLOPE_TOLERANCE)
    }

    /// Trains with an explicit clustering slope tolerance (`1.0` disables
    /// merging: one regression per kernel; used by the clustering ablation).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NoDataForGpu`] if the dataset has no kernel
    /// rows for `gpu`.
    pub fn train_with_tolerance(
        dataset: &Dataset,
        gpu: &str,
        slope_tolerance: f64,
    ) -> Result<Self, TrainError> {
        KwModel::train_with_options(dataset, gpu, slope_tolerance, 1)
    }

    /// Trains with an explicit clustering tolerance *and* worker count.
    ///
    /// The kernel rows are snapshotted into one columnar
    /// [`DatasetView`] — SoA driver/target columns plus a sort-by-kernel
    /// group index, built in a single pass with zero row clones — and that
    /// view is shared between classification and clustering. Both stages
    /// decompose their regressions into fixed [`dnnperf_linreg::FIT_CHUNK`]
    /// row chunks whose partial accumulators fan out over up to `threads`
    /// workers on the scheduler's work-stealing pool and fold back in
    /// chunk-index order, so the trained model is byte-identical to the
    /// serial path for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NoDataForGpu`] if the dataset has no kernel
    /// rows for `gpu`.
    pub fn train_with_options(
        dataset: &Dataset,
        gpu: &str,
        slope_tolerance: f64,
        threads: usize,
    ) -> Result<Self, TrainError> {
        // Borrow the GPU's rows instead of cloning them: training only
        // ever reads, and the clone was a measurable share of serial
        // training time.
        let rows: Vec<&dnnperf_data::KernelRow> =
            dataset.kernels.iter().filter(|r| &*r.gpu == gpu).collect();
        if rows.is_empty() {
            return Err(TrainError::NoDataForGpu {
                gpu: gpu.to_string(),
            });
        }
        let map = Arc::new(KernelMap::from_row_refs(&rows));
        // One columnar snapshot feeds both classification and clustering.
        let view = DatasetView::from_refs(&rows);
        let classes = classify_view(&view, threads);
        let clustering = cluster_view(&view, &classes, slope_tolerance, threads);
        Ok(KwModel::assemble(gpu.to_string(), map, classes, clustering))
    }

    /// Number of distinct kernel symbols seen in training (paper: ~182 on
    /// A100).
    pub fn num_kernels(&self) -> usize {
        self.clustering.num_kernels()
    }

    /// Number of regression models after clustering (paper: 83 on A100).
    pub fn num_models(&self) -> usize {
        self.clustering.num_models()
    }

    /// Per-kernel classifications (for the Figure 8 analysis).
    pub fn classifications(&self) -> &BTreeMap<Arc<str>, KernelClassification> {
        &self.classes
    }

    /// The learned layer-to-kernel mapping table.
    pub fn mapping(&self) -> &KernelMap {
        &self.map
    }

    /// The kernel clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Serializes the model to the dnnperf text format: the mapping table,
    /// every kernel classification, and the clustered regressions.
    pub fn to_text(&self) -> String {
        use crate::persist::{write_fit, write_header};
        let mut out = String::new();
        write_header(&mut out, "kw");
        out.push_str(&format!("gpu {}\n", self.gpu));
        self.map.write_text(&mut out);

        let mut kernels: Vec<&Arc<str>> = self.classes.keys().collect();
        kernels.sort();
        out.push_str(&format!("classes {}\n", kernels.len()));
        for k in &kernels {
            let c = &self.classes[*k];
            out.push_str(&format!(
                "class {} {} {} {} {} {}",
                k, c.driver, c.n, c.r2[0], c.r2[1], c.r2[2]
            ));
            for f in &c.fits {
                match f {
                    Some(fit) => {
                        out.push_str(" 1 ");
                        write_fit(&mut out, fit);
                    }
                    None => out.push_str(" 0"),
                }
            }
            out.push('\n');
        }

        let models = self.clustering.models();
        let mut assignments: Vec<(&Arc<str>, usize)> = self.clustering.assignments().collect();
        assignments.sort_by(|a, b| a.0.cmp(b.0));
        out.push_str(&format!(
            "clustering {} {}\n",
            models.len(),
            assignments.len()
        ));
        for (driver, fit) in models {
            out.push_str(&format!("model {driver} "));
            write_fit(&mut out, fit);
            out.push('\n');
        }
        for (k, id) in assignments {
            out.push_str(&format!("assign {k} {id}\n"));
        }
        out
    }

    /// Loads a model serialized with [`KwModel::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::persist::PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::{field, read_fit, read_header, Cursor};
        let mut cur = Cursor::new(text);
        read_header(&mut cur, "kw")?;
        let gpu = cur.keyword("gpu")?.to_string();
        let map = Arc::new(KernelMap::read_text(&mut cur)?);

        let rest = cur.keyword("classes")?;
        let mut parts = rest.split_whitespace();
        let n_classes: usize = field(&cur, &mut parts, "class count")?;
        let mut classes = BTreeMap::new();
        for _ in 0..n_classes {
            let rest = cur.keyword("class")?;
            let mut parts = rest.split_whitespace();
            let kernel: Arc<str> = Arc::from(
                parts
                    .next()
                    .ok_or_else(|| cur.parse_err("missing kernel symbol"))?,
            );
            let driver: Driver = parts
                .next()
                .ok_or_else(|| cur.parse_err("missing driver"))?
                .parse()
                .map_err(|e| cur.parse_err(format!("{e}")))?;
            let n: usize = field(&cur, &mut parts, "sample count")?;
            let r2 = [
                field(&cur, &mut parts, "r2[0]")?,
                field(&cur, &mut parts, "r2[1]")?,
                field(&cur, &mut parts, "r2[2]")?,
            ];
            let mut fits: [Option<dnnperf_linreg::Fit>; 3] = [None, None, None];
            for f in &mut fits {
                let marker: u8 = field(&cur, &mut parts, "fit marker")?;
                if marker == 1 {
                    *f = Some(read_fit(&cur, &mut parts)?);
                }
            }
            classes.insert(
                kernel.clone(),
                crate::classify::KernelClassification {
                    kernel,
                    driver,
                    fits,
                    r2,
                    n,
                },
            );
        }

        let rest = cur.keyword("clustering")?;
        let mut parts = rest.split_whitespace();
        let n_models: usize = field(&cur, &mut parts, "model count")?;
        let n_assign: usize = field(&cur, &mut parts, "assignment count")?;
        let mut models = Vec::with_capacity(n_models);
        for _ in 0..n_models {
            let rest = cur.keyword("model")?;
            let mut parts = rest.split_whitespace();
            let driver: Driver = parts
                .next()
                .ok_or_else(|| cur.parse_err("missing driver"))?
                .parse()
                .map_err(|e| cur.parse_err(format!("{e}")))?;
            models.push((driver, read_fit(&cur, &mut parts)?));
        }
        let mut assignment = BTreeMap::new();
        for _ in 0..n_assign {
            let rest = cur.keyword("assign")?;
            let mut parts = rest.split_whitespace();
            let kernel: Arc<str> = Arc::from(
                parts
                    .next()
                    .ok_or_else(|| cur.parse_err("missing kernel symbol"))?,
            );
            let id: usize = field(&cur, &mut parts, "cluster id")?;
            if id >= models.len() {
                return Err(cur.parse_err(format!("cluster id {id} out of range")));
            }
            assignment.insert(kernel, id);
        }
        let clustering = crate::cluster::Clustering::from_parts(assignment, models);
        Ok(KwModel::assemble(gpu, map, classes, clustering))
    }

    /// Predicts how many kernel launches one inference batch of `net` will
    /// issue (from the learned mapping table). Used by the CPU-overhead
    /// correction of [`crate::overhead`].
    pub fn predict_kernel_count(&self, net: &Network) -> usize {
        net.layers()
            .iter()
            .map(|l| self.map.kernels_for(l).map_or(0, <[Arc<str>]>::len))
            .sum()
    }

    /// Predicts the time of a single layer at `batch`, in seconds.
    ///
    /// Missing coverage (unmapped layers, kernels without cluster models)
    /// silently contributes zero; use [`KwModel::predict_layer_coverage`]
    /// when the caller needs to know what was skipped.
    pub fn predict_layer(&self, layer: &Layer, batch: usize) -> f64 {
        self.price_layer(layer.type_tag(), sizes_of(layer), batch)
            .map_or(0.0, |(_, seconds, _)| seconds)
    }

    /// Predicts the time of a single layer at `batch` and reports how much
    /// of the layer's kernel work was actually priced.
    pub fn predict_layer_coverage(&self, layer: &Layer, batch: usize) -> LayerCoverage {
        self.layer_coverage(layer.type_tag(), sizes_of(layer), batch)
            .0
    }

    /// The one pricing loop. For a layer of type `tag` with per-sample
    /// `sizes`: the recorded entry it maps to, the sum at `batch` of that
    /// entry's cluster regressions in launch order (a kernel without a
    /// cluster contributes nothing), and the number of terms summed.
    /// `None` when the layer type was never recorded. Each term reads its
    /// cluster by kernel id, and nothing is allocated: a strict caller
    /// pays for no coverage account.
    pub(crate) fn price_layer(
        &self,
        tag: &str,
        sizes: SizeKey,
        batch: usize,
    ) -> Option<(&Recorded, f64, usize)> {
        let recorded = self.map.lookup(tag, sizes)?;
        let drivers = drivers(sizes, batch);
        let mut seconds = 0.0;
        let mut terms = 0;
        for &id in recorded.ids() {
            if let Some((driver, line)) = self.line(id) {
                seconds += line.eval(drivers[driver.index()]).max(0.0);
                terms += 1;
            }
        }
        Some((recorded, seconds, terms))
    }

    /// [`KwModel::predict_layer_coverage`] of a layer of type `tag` with
    /// per-sample `sizes`, plus the number of kernel terms it priced
    /// (mapped kernels that have a cluster regression).
    pub(crate) fn layer_coverage(
        &self,
        tag: &str,
        sizes: SizeKey,
        batch: usize,
    ) -> (LayerCoverage, usize) {
        let Some((recorded, seconds, terms)) = self.price_layer(tag, sizes, batch) else {
            // Layer type never recorded: either it launches no kernels
            // (flatten) or it is genuinely outside the training set. The
            // caller decides which via [`LayerCoverage::Unmapped`].
            return (LayerCoverage::Unmapped, 0);
        };
        if terms == recorded.ids().len() {
            return (LayerCoverage::Full(seconds), terms);
        }
        let missing = recorded
            .ids()
            .iter()
            .zip(recorded.kernels())
            .filter(|&(&id, _)| self.line(id).is_none())
            .map(|(_, k)| k.clone())
            .collect();
        (LayerCoverage::Partial { seconds, missing }, terms)
    }

    /// The cluster regression of kernel id `id`, if it has one.
    fn line(&self, id: usize) -> Option<(Driver, Line)> {
        *self.lines.get(id)?
    }
}

impl Predictor for KwModel {
    fn name(&self) -> &str {
        "KW"
    }

    fn gpu(&self) -> &str {
        &self.gpu
    }

    fn predict_network(&self, net: &Network, batch: usize) -> Result<f64, PredictError> {
        crate::error::validate_request(net, batch)?;
        Ok(net
            .layers()
            .iter()
            .map(|l| self.predict_layer(l, batch))
            .sum())
    }
}

/// Classification of a driver for ablation: a degenerate "always FLOPs"
/// variant of the KW model used by the `ablation_driver` experiment. It
/// reuses the mapping table but regresses every kernel on layer FLOPs.
#[derive(Debug, Clone, PartialEq)]
pub struct KwFlopsOnlyModel {
    inner: KwModel,
}

impl KwFlopsOnlyModel {
    /// Trains the ablated model: every kernel forced to operation-driven.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KwModel::train`].
    pub fn train(dataset: &Dataset, gpu: &str) -> Result<Self, TrainError> {
        let rows: Vec<&dnnperf_data::KernelRow> =
            dataset.kernels.iter().filter(|r| &*r.gpu == gpu).collect();
        if rows.is_empty() {
            return Err(TrainError::NoDataForGpu {
                gpu: gpu.to_string(),
            });
        }
        let map = Arc::new(KernelMap::from_row_refs(&rows));
        let view = DatasetView::from_refs(&rows);
        // Force classification to Operation for every kernel.
        let mut classes = classify_view(&view, 1);
        for c in classes.values_mut() {
            if c.fits[Driver::Operation.index()].is_some() {
                c.driver = Driver::Operation;
            }
        }
        let clustering = cluster_view(&view, &classes, DEFAULT_SLOPE_TOLERANCE, 1);
        Ok(KwFlopsOnlyModel {
            inner: KwModel::assemble(gpu.to_string(), map, classes, clustering),
        })
    }
}

impl Predictor for KwFlopsOnlyModel {
    fn name(&self) -> &str {
        "KW-flops-only"
    }

    fn gpu(&self) -> &str {
        self.inner.gpu()
    }

    fn predict_network(&self, net: &Network, batch: usize) -> Result<f64, PredictError> {
        self.inner.predict_network(net, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::{GpuSpec, Profiler};
    use dnnperf_linreg::mean_abs_rel_error;

    fn train_nets() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::resnet::resnet101(),
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg16(),
            dnnperf_dnn::zoo::densenet::densenet121(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
            dnnperf_dnn::zoo::squeezenet::squeezenet(128, 128, 0.125),
        ]
    }

    fn test_nets() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::resnet::resnet77(),
            dnnperf_dnn::zoo::vgg::vgg13(),
            dnnperf_dnn::zoo::densenet::densenet169(),
        ]
    }

    #[test]
    fn kw_is_accurate_on_held_out_networks() {
        let gpu = GpuSpec::by_name("A100").unwrap();
        let ds = collect(&train_nets(), std::slice::from_ref(&gpu), &[64]);
        let model = KwModel::train(&ds, "A100").unwrap();
        let prof = Profiler::new(gpu);
        let mut preds = Vec::new();
        let mut meas = Vec::new();
        for net in test_nets() {
            preds.push(model.predict_network(&net, 64).unwrap());
            meas.push(prof.profile(&net, 64).unwrap().e2e_seconds);
        }
        let err = mean_abs_rel_error(&preds, &meas);
        assert!(err < 0.15, "KW error {err}");
    }

    #[test]
    fn kw_beats_e2e_on_held_out_networks() {
        let gpu = GpuSpec::by_name("A100").unwrap();
        let ds = collect(&train_nets(), std::slice::from_ref(&gpu), &[64]);
        let kw = KwModel::train(&ds, "A100").unwrap();
        let e2e = crate::E2eModel::train(&ds, "A100").unwrap();
        let prof = Profiler::new(gpu);
        let (mut kw_p, mut e2e_p, mut meas) = (Vec::new(), Vec::new(), Vec::new());
        for net in test_nets() {
            kw_p.push(kw.predict_network(&net, 64).unwrap());
            e2e_p.push(e2e.predict_network(&net, 64).unwrap());
            meas.push(prof.profile(&net, 64).unwrap().e2e_seconds);
        }
        assert!(mean_abs_rel_error(&kw_p, &meas) < mean_abs_rel_error(&e2e_p, &meas));
    }

    #[test]
    fn clustering_reduces_model_count() {
        let ds = collect(&train_nets(), &[GpuSpec::by_name("A100").unwrap()], &[64]);
        let merged = KwModel::train(&ds, "A100").unwrap();
        let unmerged = KwModel::train_with_tolerance(&ds, "A100", 1.0).unwrap();
        assert!(merged.num_models() < unmerged.num_models());
        assert_eq!(merged.num_kernels(), unmerged.num_kernels());
    }

    #[test]
    fn batch_extrapolation_works() {
        // Train at one batch size, predict another (the paper's O3-based
        // design: train at BS=512 only).
        let gpu = GpuSpec::by_name("A100").unwrap();
        let ds = collect(&train_nets(), std::slice::from_ref(&gpu), &[128]);
        let model = KwModel::train(&ds, "A100").unwrap();
        let prof = Profiler::new(gpu);
        let net = dnnperf_dnn::zoo::resnet::resnet77();
        let meas = prof.profile(&net, 32).unwrap().e2e_seconds;
        let pred = model.predict_network(&net, 32).unwrap();
        let err = (pred - meas).abs() / meas;
        assert!(err < 0.3, "cross-batch KW error {err}");
    }

    #[test]
    fn flatten_layers_cost_nothing() {
        let ds = collect(&train_nets(), &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let model = KwModel::train(&ds, "A100").unwrap();
        let flat = Layer::apply(
            dnnperf_dnn::LayerKind::Flatten,
            dnnperf_dnn::TensorShape::chw(512, 7, 7),
        )
        .unwrap();
        assert_eq!(model.predict_layer(&flat, 64), 0.0);
    }

    #[test]
    fn parallel_training_matches_serial() {
        let ds = collect(&train_nets(), &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let serial = KwModel::train(&ds, "A100").unwrap();
        for threads in [2, 8] {
            let par =
                KwModel::train_with_options(&ds, "A100", DEFAULT_SLOPE_TOLERANCE, threads).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
            assert_eq!(par.to_text(), serial.to_text(), "threads = {threads}");
        }
    }

    #[test]
    fn no_data_is_an_error() {
        assert!(matches!(
            KwModel::train(&Dataset::new(), "A100"),
            Err(TrainError::NoDataForGpu { .. })
        ));
    }
}
