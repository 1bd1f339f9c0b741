//! Plan-cache entries: the answer to one `(network, batch)` request.
//!
//! The kernel-wise prediction of a network depends on nothing but the
//! request and the trained models, so for a cache key
//! `(suite generation, network fingerprint, batch)` it never changes. The
//! fingerprint is [`Network::fingerprint`], hashed once when the network
//! is built.
//! [`CompiledPlan::compile`] therefore walks the trained models once —
//! the graceful-degradation ladder of [`crate::degrade`], which prices
//! every layer through [`crate::KwModel::predict_layer_coverage`] — and
//! keeps what that walk found:
//!
//! * the strict KW seconds, bit-identical to
//!   `KwModel::predict_network` ([`crate::Predictor::predict_network`]);
//! * the [`GracefulPrediction`], bit-identical to
//!   [`Workflow::predict_graceful_uncompiled`], notes included;
//! * the number of priced kernel terms.
//!
//! [`CompiledPlan::predict`] and [`CompiledPlan::predict_graceful`] read
//! those fields back, so one entry answers both modes and a miss costs
//! one walk.
//!
//! [`Workflow::predict`](crate::Workflow::predict) and
//! [`Workflow::predict_graceful`](crate::Workflow::predict_graceful) route
//! through the suite's [`SharedPlanCache`](crate::SharedPlanCache).
//! Entries are built only from the public model surfaces (the mapping
//! table, the clustering, the fitted lines) — never from simulator
//! internals.

use crate::degrade::{Degradation, GracefulPrediction};
use crate::error::PredictError;
use crate::workflow::Workflow;
use dnnperf_dnn::Network;
use std::mem::size_of;
use std::sync::Arc;

/// The cached answer for one `(network, batch)` request against a trained
/// [`Workflow`]. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    suite_generation: u64,
    /// Strict KW seconds (uncovered work priced at zero).
    strict: f64,
    graceful: GracefulPrediction,
    terms: usize,
}

impl CompiledPlan {
    /// Answers `net` at `batch` against the suite's trained models with one
    /// walk of the prediction ladder.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] or
    /// [`PredictError::EmptyNetwork`] for structurally invalid requests —
    /// the same validation the uncompiled predictors perform.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::{plan::CompiledPlan, Predictor, Workflow};
    /// use dnnperf_data::collect::collect;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let nets = [
    ///     dnnperf_dnn::zoo::resnet::resnet18(),
    ///     dnnperf_dnn::zoo::resnet::resnet34(),
    ///     dnnperf_dnn::zoo::vgg::vgg11(),
    /// ];
    /// let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
    /// let suite = Workflow::train(&ds, "A100")?;
    /// let net = dnnperf_dnn::zoo::resnet::resnet50();
    /// let plan = CompiledPlan::compile(&suite, &net, 32)?;
    /// assert_eq!(plan.predict(), suite.kw.predict_network(&net, 32)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn compile(suite: &Workflow, net: &Network, batch: usize) -> Result<Self, PredictError> {
        let walk = suite.walk(net, batch)?;
        Ok(CompiledPlan {
            suite_generation: suite.generation(),
            strict: walk.strict,
            graceful: walk.graceful,
            terms: walk.terms,
        })
    }

    /// The end-to-end time in seconds, bit-identical to
    /// `suite.kw.predict_network(net, batch)` for the request the plan was
    /// compiled for.
    pub fn predict(&self) -> f64 {
        self.strict
    }

    /// The graceful-degradation ladder's answer, bit-identical to
    /// [`Workflow::predict_graceful_uncompiled`], notes included.
    pub fn predict_graceful(&self) -> GracefulPrediction {
        self.graceful.clone()
    }

    /// Generation of the [`Workflow`] the plan was compiled against (cache
    /// key part): shared caches that key on it can never serve a plan from
    /// a retired model suite. See [`Workflow::generation`].
    pub fn suite_generation(&self) -> u64 {
        self.suite_generation
    }

    /// Estimated resident size of the plan in bytes: the struct plus its
    /// degradation notes. Memory-budgeted caches use this as the
    /// per-entry charge; it counts lengths rather than capacities so the
    /// figure is deterministic across allocators, and it does not grow
    /// with the network unless the network degrades.
    pub fn approx_bytes(&self) -> usize {
        let notes: usize = self
            .graceful
            .notes
            .iter()
            .map(|note| {
                size_of::<Degradation>()
                    + match note {
                        Degradation::UnmappedLayer { tag, .. }
                        | Degradation::UnknownLayerType { tag, .. } => tag.len(),
                        Degradation::UnclusteredKernels { tag, kernels, .. } => {
                            tag.len()
                                + kernels
                                    .iter()
                                    .map(|k| size_of::<Arc<str>>() + k.len())
                                    .sum::<usize>()
                        }
                    }
            })
            .sum();
        size_of::<CompiledPlan>() + notes
    }

    /// Number of kernel terms the walk priced (mapped kernels with a
    /// cluster regression).
    pub fn num_terms(&self) -> usize {
        self.terms
    }
}

/// The network's structural fingerprint, [`Network::fingerprint`]. Kept
/// as a free function for callers that bind to this path; it reads the
/// stored hash and walks no layers.
pub fn network_fingerprint(net: &Network) -> u64 {
    net.fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Predictor;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::GpuSpec;

    fn suite() -> Workflow {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        Workflow::train(&ds, "A100").unwrap()
    }

    #[test]
    fn compiled_predict_is_bit_identical_to_kw() {
        let suite = suite();
        for net in [
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::vgg::vgg16(),
            dnnperf_dnn::zoo::densenet::densenet121(),
        ] {
            for batch in [1usize, 2, 8, 32] {
                let plan = CompiledPlan::compile(&suite, &net, batch).unwrap();
                let legacy = suite.kw.predict_network(&net, batch).unwrap();
                assert_eq!(
                    plan.predict().to_bits(),
                    legacy.to_bits(),
                    "{} @ {batch}",
                    net.name()
                );
                assert!(plan.num_terms() > 0);
            }
        }
    }

    #[test]
    fn invalid_requests_fail_at_compile() {
        let suite = suite();
        let net = dnnperf_dnn::zoo::resnet::resnet18();
        assert_eq!(
            CompiledPlan::compile(&suite, &net, 0).unwrap_err(),
            PredictError::ZeroBatch
        );
    }

    #[test]
    fn cloned_workflow_first_predict_is_a_cache_hit() {
        let suite = suite();
        let net = dnnperf_dnn::zoo::resnet::resnet50();
        let original = suite.plan(&net, 32).unwrap();
        let clone = suite.clone();
        // The clone starts warm: the entry came over in the snapshot...
        assert_eq!(clone.cached_plans(), 1);
        // ...and its first predict resolves to the *same* compiled plan,
        // not a recompilation.
        let first = clone.plan(&net, 32).unwrap();
        assert!(Arc::ptr_eq(&original, &first));
        assert_eq!(clone.generation(), suite.generation());
        // Independent maps: invalidating the clone leaves the ancestor.
        clone.invalidate_plans();
        assert_eq!(clone.cached_plans(), 0);
        assert_eq!(suite.cached_plans(), 1);
        assert_ne!(clone.generation(), suite.generation());
    }

    #[test]
    fn retraining_mints_a_fresh_generation() {
        let a = suite();
        let b = suite();
        assert_ne!(a.generation(), b.generation());
        // Plans record the generation they were compiled against.
        let net = dnnperf_dnn::zoo::resnet::resnet50();
        let pa = a.plan(&net, 32).unwrap();
        let pb = b.plan(&net, 32).unwrap();
        assert_eq!(pa.suite_generation(), a.generation());
        assert_eq!(pb.suite_generation(), b.generation());
        assert!(pa.approx_bytes() > 0);
    }

    #[test]
    fn cache_compiles_once_and_clears() {
        let suite = Arc::new(suite());
        let net = dnnperf_dnn::zoo::resnet::resnet50();
        // One entry answers the strict mode, the graceful mode and the
        // oracle: the first call walks the models, the rest read it.
        let strict = suite.predict(&net, 32).unwrap();
        let graceful = suite.predict_graceful(&net, 32).unwrap();
        let mut oracle = crate::PredictionOracle::new();
        oracle.add_suite(Arc::clone(&suite));
        let priced = oracle
            .predict(&GpuSpec::by_name("A100").unwrap(), &net, 32)
            .unwrap();
        assert_eq!(suite.plans.stats().compiles, 1);
        assert_eq!(strict, suite.kw.predict_network(&net, 32).unwrap());
        assert_eq!(priced.seconds.to_bits(), graceful.seconds.to_bits());

        let p1 = suite.plan(&net, 32).unwrap();
        let p2 = suite.plan(&net, 32).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(suite.cached_plans(), 1);
        assert_eq!(suite.plans.stats().compiles, 1);
        suite.plan(&net, 64).unwrap();
        assert_eq!(suite.cached_plans(), 2);
        suite.invalidate_plans();
        assert_eq!(suite.cached_plans(), 0);
    }

    #[test]
    fn entry_size_does_not_grow_with_the_network() {
        let suite = suite();
        let small = dnnperf_dnn::zoo::resnet::resnet18();
        let large = dnnperf_dnn::zoo::resnet::resnet152();
        assert!(large.layers().len() > 4 * small.layers().len());
        let a = CompiledPlan::compile(&suite, &small, 32).unwrap();
        let b = CompiledPlan::compile(&suite, &large, 32).unwrap();
        assert!(!a.predict_graceful().is_degraded());
        assert!(!b.predict_graceful().is_degraded());
        assert!(b.num_terms() > a.num_terms());
        assert_eq!(a.approx_bytes(), b.approx_bytes());

        // A degraded entry is charged for its notes.
        let train = [
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg13(),
        ];
        let ds = collect(&train, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let vgg_only = Workflow::train(&ds, "A100").unwrap();
        let degraded = CompiledPlan::compile(&vgg_only, &small, 32).unwrap();
        assert!(degraded.predict_graceful().is_degraded());
        assert!(degraded.approx_bytes() > a.approx_bytes());
    }
}
