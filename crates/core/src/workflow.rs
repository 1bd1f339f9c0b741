//! The train-then-predict workflow of the paper's Figure 10: a training
//! dataset goes in, a set of trained analytical models comes out, and new
//! network structures are fed to the models for prediction.

use crate::cluster::DEFAULT_SLOPE_TOLERANCE;
use crate::e2e::E2eModel;
use crate::error::{PredictError, TrainError};
use crate::kernelwise::KwModel;
use crate::layerwise::LwModel;
use crate::model::Predictor;
use crate::plan::CompiledPlan;
use crate::plan_cache::{CacheConfig, SharedPlanCache};
use dnnperf_data::collect::collect_opts;
use dnnperf_data::{CollectOptions, Dataset};
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide generation counter: every training run (and every
/// in-place invalidation) mints a fresh, never-reused suite generation.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Options for model training (the analogue of
/// [`dnnperf_data::CollectOptions`] for the training side of the
/// pipeline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainOptions {
    /// Worker threads for the per-kernel classification fits and the
    /// per-cluster pooled refits. `0` (the default) means "auto": use
    /// [`std::thread::available_parallelism`]. `1` disables threading.
    /// The trained models are byte-identical for every worker count.
    pub threads: usize,
}

impl TrainOptions {
    /// Serial training (the conservative default of [`Workflow::train`]).
    pub fn serial() -> Self {
        TrainOptions { threads: 1 }
    }

    /// Training on `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        TrainOptions { threads }
    }

    /// Options from the environment: `DNNPERF_THREADS` — worker count;
    /// unparsable or zero means auto.
    pub fn from_env() -> Self {
        let threads = std::env::var("DNNPERF_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        TrainOptions { threads }
    }

    /// The worker count after resolving `0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }
}

/// A trained model suite for one GPU: the three single-GPU models of
/// Section 5.
#[derive(Debug)]
pub struct Workflow {
    /// The End-to-End model.
    pub e2e: E2eModel,
    /// The Layer-Wise model.
    pub lw: LwModel,
    /// The Kernel-Wise model.
    pub kw: KwModel,
    /// Plan cache of answered requests, with the default [`CacheConfig`]
    /// budget. Clones snapshot the entries (plans are immutable `Arc`s);
    /// see [`Workflow::invalidate_plans`].
    pub(crate) plans: SharedPlanCache,
    /// Suite generation: a process-unique id minted at train time and
    /// re-minted by [`Workflow::invalidate_plans`]. Plan-cache keys carry
    /// it, so a retrained suite can never serve its predecessor's plans.
    generation: AtomicU64,
}

impl Clone for Workflow {
    fn clone(&self) -> Self {
        Workflow {
            e2e: self.e2e.clone(),
            lw: self.lw.clone(),
            kw: self.kw.clone(),
            // Same models, same generation: the snapshot of the ancestor's
            // compiled plans stays valid and the clone starts warm.
            plans: self.plans.clone(),
            generation: AtomicU64::new(self.generation()),
        }
    }
}

impl Workflow {
    /// Trains all three single-GPU models on one GPU's measurements.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from the individual models.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::{Predictor, Workflow};
    /// use dnnperf_data::collect::collect;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// # fn main() -> Result<(), dnnperf_core::TrainError> {
    /// let nets = [
    ///     dnnperf_dnn::zoo::resnet::resnet18(),
    ///     dnnperf_dnn::zoo::resnet::resnet34(),
    ///     dnnperf_dnn::zoo::vgg::vgg11(),
    /// ];
    /// let ds = collect(&nets, &[GpuSpec::by_name("V100").unwrap()], &[32]);
    /// let suite = Workflow::train(&ds, "V100")?;
    /// let net = dnnperf_dnn::zoo::resnet::resnet50();
    /// let t = suite.kw.predict_network(&net, 32).unwrap();
    /// assert!(t > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn train(dataset: &Dataset, gpu: &str) -> Result<Self, TrainError> {
        Workflow::train_opts(dataset, gpu, &TrainOptions::serial())
    }

    /// Trains the suite with explicit [`TrainOptions`]: the KW model's
    /// per-kernel classification fits and per-cluster pooled refits fan
    /// out over the scheduler's work-stealing pool. The trained suite is
    /// byte-identical to [`Workflow::train`] for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from the individual models.
    pub fn train_opts(
        dataset: &Dataset,
        gpu: &str,
        opts: &TrainOptions,
    ) -> Result<Self, TrainError> {
        let threads = opts.effective_threads();
        Ok(Workflow {
            e2e: E2eModel::train(dataset, gpu)?,
            lw: LwModel::train(dataset, gpu)?,
            kw: KwModel::train_with_options(dataset, gpu, DEFAULT_SLOPE_TOLERANCE, threads)?,
            plans: SharedPlanCache::new(&CacheConfig::default()),
            generation: AtomicU64::new(next_generation()),
        })
    }

    /// The cached answer for `(net, batch)` from the suite's plan cache.
    /// The first request for a key walks the trained models once (see
    /// [`crate::plan`]); repeated requests share that entry.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] or
    /// [`PredictError::EmptyNetwork`] for structurally invalid requests.
    pub fn plan(&self, net: &Network, batch: usize) -> Result<Arc<CompiledPlan>, PredictError> {
        self.plans.get_or_compile(self, net, batch)
    }

    /// Predicts `net`'s end-to-end time with the KW model through the
    /// plan cache: bit-identical to `self.kw.predict_network(net, batch)`,
    /// but a repeated call is a cache lookup instead of a walk over the
    /// layers.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] or
    /// [`PredictError::EmptyNetwork`] for structurally invalid requests.
    pub fn predict(&self, net: &Network, batch: usize) -> Result<f64, PredictError> {
        Ok(self.plan(net, batch)?.predict())
    }

    /// Suite generation: a process-unique id minted at train time. Two
    /// suites from different training runs never share a generation, and
    /// [`Workflow::invalidate_plans`] mints a fresh one, so any plan cache
    /// keyed on `(generation, network fingerprint, batch)` — this suite's
    /// own, or a shared serving cache — structurally cannot return a plan
    /// compiled against retired models.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Drops every cached plan and mints a fresh suite generation. Call
    /// this after mutating the suite's public model fields in place
    /// (retraining produces a fresh [`Workflow`] with its own generation,
    /// so the usual train → serve flow never needs it). The generation
    /// bump also retires this suite's entries in any *shared* plan cache
    /// keyed on the generation without touching other suites' entries.
    pub fn invalidate_plans(&self) {
        self.generation.store(next_generation(), Ordering::Relaxed);
        self.plans.clear();
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// The three models as trait objects, in increasing complexity order.
    pub fn models(&self) -> [&dyn Predictor; 3] {
        [&self.e2e, &self.lw, &self.kw]
    }

    /// Measure-then-train in one step: collects `nets` on `gpu` through the
    /// shared collection engine (work-stealing parallelism, retries and
    /// fault injection, per `opts`) and trains the suite on the result.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from the individual models.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::Workflow;
    /// use dnnperf_data::CollectOptions;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// # fn main() -> Result<(), dnnperf_core::TrainError> {
    /// let nets = [
    ///     dnnperf_dnn::zoo::resnet::resnet18(),
    ///     dnnperf_dnn::zoo::resnet::resnet34(),
    ///     dnnperf_dnn::zoo::vgg::vgg11(),
    /// ];
    /// let gpu = GpuSpec::by_name("V100").unwrap();
    /// let suite = Workflow::collect_and_train(
    ///     &nets,
    ///     &gpu,
    ///     &[32],
    ///     &CollectOptions::with_threads(2),
    /// )?;
    /// assert_eq!(suite.models().len(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn collect_and_train(
        nets: &[Network],
        gpu: &GpuSpec,
        batches: &[usize],
        opts: &CollectOptions,
    ) -> Result<Self, TrainError> {
        let ds = collect_opts(nets, std::slice::from_ref(gpu), batches, opts);
        Workflow::train(&ds, &gpu.name)
    }
}

/// Pairs each test network's prediction with its measured time from the
/// dataset (matching on network name and batch size). Networks missing a
/// measurement or failing prediction are skipped.
pub fn predictions_vs_measurements<P: Predictor + ?Sized>(
    model: &P,
    nets: &[Network],
    batch: usize,
    measured: &Dataset,
) -> Vec<(String, f64, f64)> {
    nets.iter()
        .filter_map(|net| {
            let meas = measured.networks.iter().find(|r| {
                &*r.network == net.name() && r.batch == batch as u32 && &*r.gpu == model.gpu()
            })?;
            let pred = model.predict_network(net, batch).ok()?;
            Some((net.name().to_string(), pred, meas.e2e_seconds))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::GpuSpec;

    #[test]
    fn suite_trains_and_orders_models() {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let suite = Workflow::train(&ds, "A100").unwrap();
        let names: Vec<&str> = suite.models().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["E2E", "LW", "KW"]);
    }

    #[test]
    fn collect_and_train_equals_manual_pipeline() {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let gpu = GpuSpec::by_name("A100").unwrap();
        // Through the engine (parallel, uncached)...
        let engine = Workflow::collect_and_train(
            &nets,
            &gpu,
            &[32],
            &dnnperf_data::CollectOptions::with_threads(3),
        )
        .unwrap();
        // ...matches collect-then-train by hand.
        let ds = collect(&nets, std::slice::from_ref(&gpu), &[32]);
        let manual = Workflow::train(&ds, "A100").unwrap();
        let probe = dnnperf_dnn::zoo::resnet::resnet50();
        for (a, b) in engine.models().iter().zip(manual.models()) {
            assert_eq!(
                a.predict_network(&probe, 32).unwrap(),
                b.predict_network(&probe, 32).unwrap()
            );
        }
    }

    #[test]
    fn predictions_pair_with_measurements() {
        let nets = vec![
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let suite = Workflow::train(&ds, "A100").unwrap();
        let pairs = predictions_vs_measurements(&suite.kw, &nets, 32, &ds);
        assert_eq!(pairs.len(), 3);
        for (_, pred, meas) in pairs {
            assert!(pred > 0.0 && meas > 0.0);
        }
        // Wrong batch size: nothing to pair with.
        assert!(predictions_vs_measurements(&suite.kw, &nets, 999, &ds).is_empty());
    }
}
