//! Plan lookup as a simulation oracle: cached ladder answers (with the
//! graceful-degradation notes) plus an inter-GPU fallback, behind one
//! lookup surface an event-driven simulator can consume.
//!
//! The paper's pitch is that a fast analytical predictor can *drive
//! decisions*, not just produce point estimates. The fleet simulator in
//! `dnnperf-simkit` needs exactly one thing from the prediction stack: a
//! service time for "network `n` at batch `b` on GPU `g`". This module
//! packages that as [`PredictionOracle`]:
//!
//! * GPUs with a trained [`Workflow`] are priced by the cached plan
//!   entry ([`crate::CompiledPlan::predict_graceful`]) — bit-identical to
//!   [`Workflow::predict_graceful`], [`Degradation`] notes included, so
//!   the simulator can annotate results whose service times leaned on a
//!   coarser model;
//! * GPUs never profiled fall back to the Inter-GPU Kernel-Wise model,
//!   flagged as [`OracleSource::Igkw`]: the strict walk of the
//!   [`KwModel`] that [`IgkwModel::specialise`] builds for the GPU,
//!   bit-identical to [`IgkwModel::predict_network_on`].
//!
//! Plan lookups go through each suite's own [`Workflow::plan`] cache —
//! the same budgeted, generation-keyed [`SharedPlanCache`](crate::SharedPlanCache)
//! type the prediction server shares — so a warm request costs one
//! lookup and a request is priced at most once per residency.
//!
//! IGKW answers are not cached, but the specialisation is: the oracle
//! builds one specialised model per unprofiled GPU on first use (tens of
//! microseconds, several times the cost of pricing a network) and keeps
//! it until [`PredictionOracle::set_igkw`] installs another IGKW model.
//! The memo is keyed by the spec's name and the bits of its
//! transfer-metric value, so two specs that share a name but differ in
//! bandwidth never share a model.
//!
//! The oracle consumes only public model surfaces — compiled plans and
//! IGKW fits — never `dnnperf_gpu::timing`; the oracle-isolation lint
//! pass enforces that boundary for this module and for every simulator
//! built on it.

use crate::degrade::{Degradation, GracefulPrediction};
use crate::error::PredictError;
use crate::intergpu::IgkwModel;
use crate::kernelwise::KwModel;
use crate::model::Predictor;
use crate::workflow::Workflow;
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use dnnperf_sched::sync::lock_unpoisoned;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Which model family priced an oracle request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleSource {
    /// A compiled plan against a trained single-GPU suite (the ladder's
    /// notes say how much of the time came from coarser rungs).
    CompiledPlan,
    /// The Inter-GPU Kernel-Wise model: the GPU was never profiled.
    Igkw,
}

/// One oracle answer: the predicted seconds, how they were produced, and
/// every degradation note the ladder recorded along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct OraclePrediction {
    /// Predicted service time in seconds.
    pub seconds: f64,
    /// Degradation-ladder notes (empty for full KW coverage and for the
    /// IGKW path, which is priced strictly, without the ladder).
    pub notes: Vec<Degradation>,
    /// The model family that produced the number.
    pub source: OracleSource,
}

impl OraclePrediction {
    /// Whether any part of the prediction leaned on a coarser model (a
    /// ladder fallback, or the whole-GPU IGKW fallback).
    pub fn is_degraded(&self) -> bool {
        !self.notes.is_empty() || self.source == OracleSource::Igkw
    }
}

/// Service-time oracle over trained suites with an inter-GPU fallback.
/// See the module docs for the design.
#[derive(Default)]
pub struct PredictionOracle {
    suites: BTreeMap<String, Arc<Workflow>>,
    igkw: Option<IgkwModel>,
    /// `igkw` specialised to each unprofiled GPU priced so far, keyed by
    /// the spec's name, then by the bits of its transfer-metric value (so
    /// a hit allocates no key).
    specialised: Mutex<BTreeMap<String, BTreeMap<u64, Arc<KwModel>>>>,
}

impl PredictionOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        PredictionOracle::default()
    }

    /// Registers the trained suite for one GPU (keyed by the suite's GPU
    /// name as trained). Replaces any previous suite for that GPU.
    pub fn add_suite(&mut self, suite: Arc<Workflow>) {
        self.suites.insert(suite.kw.gpu().to_string(), suite);
    }

    /// Installs the Inter-GPU Kernel-Wise fallback for GPUs without a
    /// trained suite, dropping every model specialised from the previous
    /// one.
    pub fn set_igkw(&mut self, igkw: IgkwModel) {
        self.igkw = Some(igkw);
        lock_unpoisoned(&self.specialised).clear();
    }

    /// The trained suite registered for `gpu`, if any.
    pub fn suite_for(&self, gpu: &str) -> Option<&Arc<Workflow>> {
        self.suites.get(gpu)
    }

    /// Whether requests on `gpu` can be priced at all (suite or IGKW).
    pub fn covers(&self, gpu: &str) -> bool {
        self.suites.contains_key(gpu) || self.igkw.is_some()
    }

    /// Number of registered per-GPU suites.
    pub fn num_suites(&self) -> usize {
        self.suites.len()
    }

    /// Prices one request on `gpu`: the compiled plan of the GPU's
    /// trained suite when one is registered (bit-identical to
    /// [`Workflow::predict_graceful`], notes included), otherwise the
    /// IGKW fallback.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::NoModelForGpu`] when neither a suite nor
    /// the IGKW fallback covers `gpu`, and propagates validation or
    /// compilation errors from the underlying predictors.
    pub fn predict(
        &self,
        gpu: &GpuSpec,
        net: &Network,
        batch: usize,
    ) -> Result<OraclePrediction, PredictError> {
        if let Some(suite) = self.suites.get(&gpu.name) {
            let plan = suite.plan(net, batch)?;
            let GracefulPrediction { seconds, notes } = plan.predict_graceful();
            return Ok(OraclePrediction {
                seconds,
                notes,
                source: OracleSource::CompiledPlan,
            });
        }
        if let Some(igkw) = &self.igkw {
            let seconds = self.specialised(igkw, gpu).predict_network(net, batch)?;
            return Ok(OraclePrediction {
                seconds,
                notes: Vec::new(),
                source: OracleSource::Igkw,
            });
        }
        Err(PredictError::NoModelForGpu {
            gpu: gpu.name.clone(),
        })
    }

    /// `igkw` specialised to `gpu`, built on the first request for the
    /// spec. The model is taken out of the lock before it prices anything.
    fn specialised(&self, igkw: &IgkwModel, gpu: &GpuSpec) -> Arc<KwModel> {
        let bits = igkw.metric_on(gpu).to_bits();
        let mut memo = lock_unpoisoned(&self.specialised);
        if let Some(model) = memo.get(&gpu.name).and_then(|m| m.get(&bits)) {
            return Arc::clone(model);
        }
        let model = Arc::new(igkw.specialise(gpu));
        let by_metric = memo.entry(gpu.name.clone()).or_default();
        Arc::clone(by_metric.entry(bits).or_insert(model))
    }
}

impl std::fmt::Debug for PredictionOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionOracle")
            .field("suites", &self.suites.keys().collect::<Vec<_>>())
            .field("igkw", &self.igkw.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;

    fn suite(gpu: &str, nets: &[Network]) -> Arc<Workflow> {
        let spec = GpuSpec::by_name(gpu).unwrap();
        let ds = collect(nets, &[spec], &[32]);
        Arc::new(Workflow::train(&ds, gpu).unwrap())
    }

    fn vgg_only() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg13(),
            dnnperf_dnn::zoo::vgg::vgg16(),
        ]
    }

    #[test]
    fn plan_path_is_bit_identical_to_predict_graceful_notes_included() {
        let suite = suite("A100", &vgg_only());
        let mut oracle = PredictionOracle::new();
        oracle.add_suite(Arc::clone(&suite));
        // Out-of-family probe: every ladder rung fires.
        let probe = dnnperf_dnn::zoo::resnet::resnet18();
        let gpu = GpuSpec::by_name("A100").unwrap();
        let got = oracle.predict(&gpu, &probe, 32).unwrap();
        let want = suite.predict_graceful(&probe, 32).unwrap();
        assert_eq!(got.seconds.to_bits(), want.seconds.to_bits());
        assert_eq!(got.notes, want.notes);
        assert_eq!(got.source, OracleSource::CompiledPlan);
        assert!(got.is_degraded());
    }

    #[test]
    fn repeated_requests_share_one_suite_cache_entry() {
        let suite = suite("A100", &vgg_only());
        let mut oracle = PredictionOracle::new();
        oracle.add_suite(Arc::clone(&suite));
        let gpu = GpuSpec::by_name("A100").unwrap();
        let net = dnnperf_dnn::zoo::vgg::vgg16();
        let first = oracle.predict(&gpu, &net, 32).unwrap();
        let hits = suite.plans.stats().hits;
        let second = oracle.predict(&gpu, &net, 32).unwrap();
        assert_eq!(first, second);
        assert_eq!(suite.cached_plans(), 1);
        let stats = suite.plans.stats();
        assert_eq!((stats.hits, stats.compiles), (hits + 1, 1));
    }

    #[test]
    fn unprofiled_gpu_falls_back_to_igkw() {
        let nets = vgg_only();
        let train_gpus = [
            GpuSpec::by_name("A100").unwrap(),
            GpuSpec::by_name("A40").unwrap(),
            GpuSpec::by_name("GTX 1080 Ti").unwrap(),
        ];
        let ds = collect(&nets, &train_gpus, &[32]);
        let igkw = IgkwModel::train(&ds, &train_gpus).unwrap();
        let mut oracle = PredictionOracle::new();
        oracle.add_suite(suite("A100", &nets));
        oracle.set_igkw(igkw.clone());

        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let got = oracle.predict(&titan, &nets[0], 32).unwrap();
        let want = igkw.predict_network_on(&nets[0], 32, &titan).unwrap();
        assert_eq!(got.seconds.to_bits(), want.to_bits());
        assert_eq!(got.source, OracleSource::Igkw);
        assert!(got.is_degraded());
        assert!(got.notes.is_empty());
    }

    fn igkw(nets: &[Network], gpus: &[&str]) -> IgkwModel {
        let specs: Vec<GpuSpec> = gpus.iter().map(|g| GpuSpec::by_name(g).unwrap()).collect();
        IgkwModel::train(&collect(nets, &specs, &[32]), &specs).unwrap()
    }

    /// The oracle's specialised models, in key order.
    fn memo(oracle: &PredictionOracle) -> Vec<Arc<KwModel>> {
        lock_unpoisoned(&oracle.specialised)
            .values()
            .flat_map(|m| m.values().cloned())
            .collect()
    }

    #[test]
    fn unprofiled_gpu_requests_reuse_one_specialised_model() {
        let nets = vgg_only();
        let igkw = igkw(&nets, &["A100", "A40"]);
        let mut oracle = PredictionOracle::new();
        oracle.set_igkw(igkw.clone());
        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let mut first: Option<Arc<KwModel>> = None;
        for net in &nets {
            for batch in [1, 32, 256] {
                let got = oracle.predict(&titan, net, batch).unwrap();
                let want = igkw.predict_network_on(net, batch, &titan).unwrap();
                assert_eq!(got.seconds.to_bits(), want.to_bits());
                let [model] = &memo(&oracle)[..] else {
                    panic!("expected one specialised model");
                };
                let first = first.get_or_insert_with(|| Arc::clone(model));
                assert!(Arc::ptr_eq(first, model));
            }
        }
    }

    #[test]
    fn specs_sharing_a_name_but_not_a_bandwidth_get_their_own_models() {
        let nets = vgg_only();
        let igkw = igkw(&nets, &["A100", "A40"]);
        let mut oracle = PredictionOracle::new();
        oracle.set_igkw(igkw.clone());
        let slow = GpuSpec::by_name("TITAN RTX").unwrap();
        let mut fast = slow.with_bandwidth(2.0 * slow.bandwidth_gbps);
        fast.name = slow.name.clone();
        let mut answers = Vec::new();
        for gpu in [&slow, &fast, &slow, &fast] {
            let got = oracle.predict(gpu, &nets[0], 32).unwrap();
            let want = igkw.predict_network_on(&nets[0], 32, gpu).unwrap();
            assert_eq!(got.seconds.to_bits(), want.to_bits());
            answers.push(got.seconds);
        }
        assert!(answers[1] < answers[0], "{answers:?}");
        assert_eq!(memo(&oracle).len(), 2);
    }

    #[test]
    fn set_igkw_drops_the_old_specialised_models() {
        let nets = vgg_only();
        let (old, new) = (igkw(&nets, &["A100", "A40"]), igkw(&nets, &["V100"]));
        let mut oracle = PredictionOracle::new();
        oracle.set_igkw(old.clone());
        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let before = oracle.predict(&titan, &nets[0], 32).unwrap();
        let old_model = memo(&oracle).pop().unwrap();
        oracle.set_igkw(new.clone());
        assert!(memo(&oracle).is_empty());
        let after = oracle.predict(&titan, &nets[0], 32).unwrap();
        let want = new.predict_network_on(&nets[0], 32, &titan).unwrap();
        assert_eq!(after.seconds.to_bits(), want.to_bits());
        assert_ne!(after.seconds.to_bits(), before.seconds.to_bits());
        let [new_model] = &memo(&oracle)[..] else {
            panic!("expected one specialised model");
        };
        assert!(!Arc::ptr_eq(&old_model, new_model));
    }

    #[test]
    fn uncovered_gpu_is_a_typed_error() {
        let oracle = PredictionOracle::new();
        let gpu = GpuSpec::by_name("A100").unwrap();
        let net = dnnperf_dnn::zoo::resnet::resnet18();
        assert_eq!(
            oracle.predict(&gpu, &net, 8).unwrap_err(),
            PredictError::NoModelForGpu { gpu: "A100".into() }
        );
        assert!(!oracle.covers("A100"));
    }
}
