//! Graceful degradation: predict every network, telling the caller how.
//!
//! The paper's KW model is the most accurate predictor but also the most
//! demanding: it needs a layer-to-kernel mapping entry and a cluster
//! regression for every kernel a layer launches. Outside its training
//! distribution — a layer type never profiled, a model file missing a
//! cluster assignment — `KwModel::predict_network` silently prices the
//! uncovered work at zero seconds, an undershoot with no warning.
//!
//! [`Workflow::predict_graceful`] replaces the silent zero with a
//! *prediction ladder*: each layer is priced by the most precise model that
//! actually covers it, and every fallback is recorded as a [`Degradation`]
//! note so callers can decide how much to trust the number.
//!
//! The ladder, per layer:
//!
//! 1. **KW, full coverage** — every mapped kernel has a cluster
//!    regression: use the kernel-wise sum (no note).
//! 2. **LW layer-type fit** — the layer is unmapped (or some kernels lack
//!    cluster models) but the LW model trained a dedicated regression for
//!    its type: use it, noting [`Degradation::UnmappedLayer`] or
//!    [`Degradation::UnclusteredKernels`].
//! 3. **E2E slope** — nothing layer-specific is known: price the layer's
//!    FLOPs at the fitted end-to-end seconds-per-FLOP, noting
//!    [`Degradation::UnknownLayerType`].
//!
//! Zero-cost fallbacks (a `flatten` layer priced at 0 by the LW fit, same
//! as KW's "launches no kernels") are not reported: a note means the
//! returned seconds actually depend on a coarser model.

use crate::error::PredictError;
use crate::kernelwise::LayerCoverage;
use crate::mapping::sizes_of;
use crate::workflow::Workflow;
use dnnperf_dnn::Network;
use std::fmt;
use std::sync::Arc;

/// One fallback taken while predicting a network: which layer, why, and
/// how many of the predicted seconds came from the coarser model.
#[derive(Debug, Clone, PartialEq)]
pub enum Degradation {
    /// The KW mapping table has no entry for this layer; the LW layer-type
    /// regression was used instead.
    UnmappedLayer {
        /// Index of the layer in the network.
        layer_index: usize,
        /// The layer type tag.
        tag: String,
        /// Seconds contributed by the LW fallback.
        seconds: f64,
    },
    /// The layer is mapped but some of its kernels have no cluster
    /// regression; the LW layer-type regression priced the whole layer.
    UnclusteredKernels {
        /// Index of the layer in the network.
        layer_index: usize,
        /// The layer type tag.
        tag: String,
        /// The kernel symbols that had no cluster model.
        kernels: Vec<Arc<str>>,
        /// Seconds contributed by the fallback.
        seconds: f64,
    },
    /// Neither the KW mapping nor the LW model knows this layer type; the
    /// layer's FLOPs were priced at the E2E seconds-per-FLOP slope.
    UnknownLayerType {
        /// Index of the layer in the network.
        layer_index: usize,
        /// The layer type tag.
        tag: String,
        /// Seconds contributed by the E2E-slope fallback.
        seconds: f64,
    },
}

impl Degradation {
    /// Index of the layer the note is about.
    pub fn layer_index(&self) -> usize {
        match self {
            Degradation::UnmappedLayer { layer_index, .. }
            | Degradation::UnclusteredKernels { layer_index, .. }
            | Degradation::UnknownLayerType { layer_index, .. } => *layer_index,
        }
    }

    /// Seconds of the prediction that came from the fallback model.
    pub fn seconds(&self) -> f64 {
        match self {
            Degradation::UnmappedLayer { seconds, .. }
            | Degradation::UnclusteredKernels { seconds, .. }
            | Degradation::UnknownLayerType { seconds, .. } => *seconds,
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::UnmappedLayer {
                layer_index,
                tag,
                seconds,
            } => write!(
                f,
                "layer {layer_index} ({tag}): no kernel mapping, \
                 LW layer-type fit contributed {seconds:.3e}s"
            ),
            Degradation::UnclusteredKernels {
                layer_index,
                tag,
                kernels,
                seconds,
            } => write!(
                f,
                "layer {layer_index} ({tag}): {} kernel(s) without cluster \
                 models, LW layer-type fit contributed {seconds:.3e}s",
                kernels.len()
            ),
            Degradation::UnknownLayerType {
                layer_index,
                tag,
                seconds,
            } => write!(
                f,
                "layer {layer_index} ({tag}): layer type unknown to every \
                 model, E2E slope contributed {seconds:.3e}s"
            ),
        }
    }
}

/// A prediction that always succeeds on a structurally valid request, with
/// an account of every fallback taken to produce it.
#[derive(Debug, Clone, PartialEq)]
pub struct GracefulPrediction {
    /// The predicted end-to-end time in seconds.
    pub seconds: f64,
    /// One note per layer that was not fully covered by the KW model.
    pub notes: Vec<Degradation>,
}

impl GracefulPrediction {
    /// Whether any fallback was taken.
    pub fn is_degraded(&self) -> bool {
        !self.notes.is_empty()
    }

    /// Seconds of the prediction contributed by fallback models.
    pub fn degraded_seconds(&self) -> f64 {
        self.notes.iter().map(Degradation::seconds).sum()
    }
}

/// Everything one walk of the trained models learns about a request: the
/// strict KW seconds, the ladder's answer and the number of kernel terms
/// priced. A [`CompiledPlan`](crate::CompiledPlan) is this walk, cached.
pub(crate) struct Walk {
    /// `kw.predict_network(net, batch)`, bit for bit.
    pub(crate) strict: f64,
    /// The graceful-degradation ladder's answer.
    pub(crate) graceful: GracefulPrediction,
    /// Mapped kernels that had a cluster regression.
    pub(crate) terms: usize,
}

impl Workflow {
    /// Predicts `net`'s end-to-end time with the graceful-degradation
    /// ladder (see the module docs): KW where it has coverage, LW per
    /// layer type where it does not, the E2E FLOPs slope as the last rung.
    /// Fallbacks are reported in [`GracefulPrediction::notes`] instead of
    /// silently under-predicting or failing.
    ///
    /// On networks the KW model fully covers this returns exactly
    /// `kw.predict_network(net, batch)` with no notes.
    ///
    /// The answer comes from the suite's plan cache (see [`crate::plan`]):
    /// the first request for a key walks the ladder once and stores the
    /// result, later requests read it back. It is the same value
    /// [`Workflow::predict_graceful_uncompiled`] computes.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] or [`PredictError::EmptyNetwork`]
    /// for structurally invalid requests — the ladder degrades models, not
    /// input validation.
    pub fn predict_graceful(
        &self,
        net: &Network,
        batch: usize,
    ) -> Result<GracefulPrediction, PredictError> {
        Ok(self.plan(net, batch)?.predict_graceful())
    }

    /// The prediction ladder walked on every call, bypassing the plan
    /// cache. [`Workflow::predict_graceful`] caches exactly this walk.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] or [`PredictError::EmptyNetwork`]
    /// for structurally invalid requests.
    pub fn predict_graceful_uncompiled(
        &self,
        net: &Network,
        batch: usize,
    ) -> Result<GracefulPrediction, PredictError> {
        Ok(self.walk(net, batch)?.graceful)
    }

    /// The one implementation of the ladder. Each layer's sizes are taken
    /// once, the layer is priced as
    /// [`crate::KwModel::predict_layer_coverage`] prices it, and the same
    /// pass sums the strict KW seconds (uncovered work at zero).
    pub(crate) fn walk(&self, net: &Network, batch: usize) -> Result<Walk, PredictError> {
        crate::error::validate_request(net, batch)?;
        let mut strict = 0.0;
        let mut total = 0.0;
        let mut terms = 0;
        let mut notes = Vec::new();
        for (li, layer) in net.layers().iter().enumerate() {
            let tag = layer.type_tag();
            let sizes = sizes_of(layer);
            let flops = sizes.1 as f64 * batch as f64;
            let (coverage, priced) = self.kw.layer_coverage(tag, sizes, batch);
            strict += coverage.seconds();
            terms += priced;
            match coverage {
                LayerCoverage::Full(s) => total += s,
                LayerCoverage::Partial { seconds, missing } => {
                    // Rung 2: a dedicated LW fit re-prices the whole layer;
                    // otherwise keep the priced subtotal, floored by the
                    // E2E slope so missing kernels don't read as free.
                    let s = match self.lw.fit_for(tag) {
                        Some(fit) => fit.predict(flops).max(0.0),
                        None => seconds.max(self.e2e.slope_seconds_per_flop() * flops),
                    };
                    total += s;
                    notes.push(Degradation::UnclusteredKernels {
                        layer_index: li,
                        tag: tag.to_string(),
                        kernels: missing,
                        seconds: s,
                    });
                }
                LayerCoverage::Unmapped => match self.lw.fit_for(tag) {
                    Some(fit) => {
                        let s = fit.predict(flops).max(0.0);
                        total += s;
                        if s > 0.0 {
                            notes.push(Degradation::UnmappedLayer {
                                layer_index: li,
                                tag: tag.to_string(),
                                seconds: s,
                            });
                        }
                    }
                    None => {
                        let s = (self.e2e.slope_seconds_per_flop() * flops).max(0.0);
                        total += s;
                        if s > 0.0 {
                            notes.push(Degradation::UnknownLayerType {
                                layer_index: li,
                                tag: tag.to_string(),
                                seconds: s,
                            });
                        }
                    }
                },
            }
        }
        Ok(Walk {
            strict,
            graceful: GracefulPrediction {
                seconds: total,
                notes,
            },
            terms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Predictor;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::{GpuSpec, Profiler};

    fn cnn_mix() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg16(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        ]
    }

    fn suite(nets: &[Network]) -> Workflow {
        let ds = collect(nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        Workflow::train(&ds, "A100").unwrap()
    }

    #[test]
    fn full_coverage_matches_plain_kw_with_no_notes() {
        let nets = cnn_mix();
        let suite = suite(&nets);
        for net in &nets {
            let g = suite.predict_graceful(net, 32).unwrap();
            assert!(
                !g.is_degraded(),
                "{}: unexpected notes {:?}",
                net.name(),
                g.notes
            );
            assert_eq!(g.seconds, suite.kw.predict_network(net, 32).unwrap());
            assert_eq!(g.degraded_seconds(), 0.0);
        }
    }

    #[test]
    fn out_of_family_layers_fall_back_with_notes() {
        // Train on VGG only: no bn, no add. ResNet prediction must
        // degrade (noted), not silently undercount those layers.
        let train = vec![
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg13(),
            dnnperf_dnn::zoo::vgg::vgg16(),
        ];
        let suite = suite(&train);
        let probe = dnnperf_dnn::zoo::resnet::resnet18();
        let g = suite.predict_graceful(&probe, 32).unwrap();
        assert!(g.is_degraded());
        assert!(g.degraded_seconds() > 0.0);
        let tags: Vec<&str> = g
            .notes
            .iter()
            .map(|n| match n {
                Degradation::UnmappedLayer { tag, .. }
                | Degradation::UnclusteredKernels { tag, .. }
                | Degradation::UnknownLayerType { tag, .. } => tag.as_str(),
            })
            .collect();
        assert!(tags.contains(&"bn"), "expected bn fallback, got {tags:?}");
        // Plain KW prices every uncovered layer at zero; the ladder must
        // add something for them and still land in a sane range.
        let kw = suite.kw.predict_network(&probe, 32).unwrap();
        let measured = Profiler::new(GpuSpec::by_name("A100").unwrap())
            .profile(&probe, 32)
            .unwrap()
            .e2e_seconds;
        assert!(g.seconds > kw);
        let err = (g.seconds - measured).abs() / measured;
        assert!(
            err < 0.5,
            "graceful {} vs kw {} vs measured {measured} (err {err})",
            g.seconds,
            kw
        );
    }

    #[test]
    fn flatten_layers_stay_free_and_unnoted() {
        // VGG nets contain a flatten layer: KW maps nothing for it, the LW
        // fit prices it at ~0 — that is full fidelity, not degradation.
        let train = vec![
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg13(),
            dnnperf_dnn::zoo::vgg::vgg16(),
        ];
        let suite = suite(&train);
        let g = suite.predict_graceful(&train[0], 32).unwrap();
        assert!(!g.is_degraded(), "notes: {:?}", g.notes);
    }

    #[test]
    fn compiled_ladder_matches_uncompiled_reference() {
        // Train on VGG only so a ResNet probe hits every fallback rung,
        // then hold the plan path and the reference path together — and
        // the strict value of the same entry to plain KW.
        let train = vec![
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg13(),
            dnnperf_dnn::zoo::vgg::vgg16(),
        ];
        let suite = suite(&train);
        for net in [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::vgg::vgg16(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        ] {
            for batch in [1usize, 8, 32] {
                let fast = suite.predict_graceful(&net, batch).unwrap();
                let slow = suite.predict_graceful_uncompiled(&net, batch).unwrap();
                assert_eq!(
                    fast.seconds.to_bits(),
                    slow.seconds.to_bits(),
                    "{} @ {batch}",
                    net.name()
                );
                assert_eq!(fast.notes, slow.notes);
                assert_eq!(
                    suite.predict(&net, batch).unwrap().to_bits(),
                    suite.kw.predict_network(&net, batch).unwrap().to_bits(),
                    "{} @ {batch}",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn invalid_requests_are_still_typed_errors() {
        let suite = suite(&cnn_mix());
        let net = dnnperf_dnn::zoo::resnet::resnet18();
        assert_eq!(
            suite.predict_graceful(&net, 0),
            Err(PredictError::ZeroBatch)
        );
        let empty = Network::from_parts(
            "Empty",
            dnnperf_dnn::Family::Custom,
            dnnperf_dnn::TensorShape::chw(3, 8, 8),
            vec![],
        );
        assert!(matches!(
            suite.predict_graceful(&empty, 4),
            Err(PredictError::EmptyNetwork { .. })
        ));
    }

    #[test]
    fn unclustered_kernels_are_noted_via_model_surgery() {
        // Persist a KW model, drop one cluster assignment, reload: the
        // affected layers now have kernels without cluster models, which
        // the ladder must re-price and note rather than skip.
        let nets = cnn_mix();
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let mut suite = Workflow::train(&ds, "A100").unwrap();
        let text = suite.kw.to_text();
        let victim = text
            .lines()
            .find(|l| l.starts_with("assign "))
            .expect("kw text has assignments")
            .to_string();
        let n_assign = text.lines().filter(|l| l.starts_with("assign ")).count();
        let pruned: String = text
            .lines()
            .filter(|l| *l != victim.as_str())
            .map(|l| {
                if let Some(rest) = l.strip_prefix("clustering ") {
                    let mut parts = rest.split_whitespace();
                    let models: usize = parts.next().unwrap().parse().unwrap();
                    format!("clustering {} {}\n", models, n_assign - 1)
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        suite.kw = crate::KwModel::from_text(&pruned).unwrap();

        let degraded: Vec<_> = nets
            .iter()
            .filter_map(|n| {
                let g = suite.predict_graceful(n, 32).unwrap();
                g.is_degraded().then_some(g)
            })
            .collect();
        assert!(
            !degraded.is_empty(),
            "dropping a cluster assignment must degrade some prediction"
        );
        assert!(degraded.iter().any(|g| g
            .notes
            .iter()
            .any(|n| matches!(n, Degradation::UnclusteredKernels { .. }))));
        // Every degraded prediction still returns usable, positive time.
        for g in &degraded {
            assert!(g.seconds > 0.0 && g.seconds.is_finite());
        }
    }
}
