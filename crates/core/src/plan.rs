//! Compiled prediction plans: the serving hot path.
//!
//! Predicting one network with the kernel-wise model walks several layers of
//! indirection per request: every layer is hashed into the layer-to-kernel
//! mapping table (an ordered-map probe plus a nearest-signature search),
//! every mapped kernel symbol is looked up in the cluster assignment, and
//! every cluster id is dereferenced into its regression. None of that work
//! depends on anything but the `(network, batch)` pair and the trained
//! models — so a sweep that predicts the same network repeatedly (batch
//! scans, what-if studies, serving) repays it on every single call.
//!
//! [`CompiledPlan::compile`] runs the resolution **once** and lowers the
//! result into a flat structure-of-arrays form:
//!
//! * one dense model table (`slopes[id]`, `intercepts[id]`, one entry per
//!   cluster regression);
//! * one `f64` driver feature per priced kernel term, already scaled by the
//!   batch size (input elements, layer FLOPs or output elements, per the
//!   kernel's classified driver);
//! * one `u32` model index per term;
//! * one compact [`LayerPlan`] per layer recording its term range and how
//!   the graceful-degradation ladder resolved it.
//!
//! [`CompiledPlan::predict`] is then a single sweep over contiguous arrays
//! — multiply, add, clamp, accumulate — with no map probes, no string
//! comparisons and no allocation. The sweep reproduces the legacy
//! [`crate::KwModel::predict_network`] arithmetic *bit for bit*: terms are
//! evaluated as `slope * x + intercept` (no fused multiply-add), clamped at
//! zero per kernel, summed per layer and then across layers in exactly the
//! order the uncompiled path uses. [`CompiledPlan::predict_graceful`]
//! replays the [`crate::degrade`] ladder the same way.
//!
//! [`Workflow::predict`](crate::Workflow::predict) and
//! [`Workflow::predict_graceful`](crate::Workflow::predict_graceful) route
//! through the suite's [`SharedPlanCache`](crate::SharedPlanCache), so
//! repeated predictions never re-dispatch. Plans are built only from the
//! public model surfaces (the mapping table, the clustering, the fitted
//! lines) — never from simulator internals.

use crate::classify::Driver;
use crate::degrade::{Degradation, GracefulPrediction};
use crate::error::PredictError;
use crate::model::Predictor;
use crate::workflow::Workflow;
use dnnperf_dnn::flops::layer_flops;
use dnnperf_dnn::Network;
use std::sync::Arc;

/// How the graceful-degradation ladder resolved one layer at compile time.
#[derive(Debug, Clone, PartialEq)]
enum Resolve {
    /// Full kernel-wise coverage: the layer's time is the sum of its
    /// compiled kernel terms, no note.
    Kw,
    /// Some mapped kernels lack cluster models and the LW model has a
    /// dedicated fit for this layer type: the fit re-prices the whole
    /// layer (noted).
    PartialLw {
        /// LW fit slope for the layer type.
        slope: f64,
        /// LW fit intercept for the layer type.
        intercept: f64,
        /// Kernel symbols without cluster models.
        missing: Vec<Arc<str>>,
    },
    /// Some mapped kernels lack cluster models and no LW fit exists: keep
    /// the priced subtotal, floored by the E2E slope (noted).
    PartialFloor {
        /// Kernel symbols without cluster models.
        missing: Vec<Arc<str>>,
    },
    /// The layer is unmapped but the LW model knows its type (noted when
    /// the fallback contributes time).
    LwFallback {
        /// LW fit slope for the layer type.
        slope: f64,
        /// LW fit intercept for the layer type.
        intercept: f64,
    },
    /// Nothing layer-specific is known: the E2E seconds-per-FLOP slope
    /// prices the layer's FLOPs (noted when it contributes time).
    E2eFallback,
}

/// One layer of a compiled plan: a term range plus the ladder resolution.
#[derive(Debug, Clone, PartialEq)]
struct LayerPlan {
    /// First term index (into `features` / `model_of`).
    start: u32,
    /// One past the last term index.
    end: u32,
    /// Layer FLOPs scaled by the batch size.
    flops: f64,
    /// Layer type tag (for degradation notes).
    tag: Arc<str>,
    /// Graceful-degradation resolution.
    resolve: Resolve,
}

/// A prediction plan compiled for one `(network, batch)` request against a
/// trained [`Workflow`]. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    gpu: String,
    network: String,
    batch: usize,
    fingerprint: u64,
    suite_generation: u64,
    /// Dense model table: slope per cluster regression.
    slopes: Vec<f64>,
    /// Dense model table: intercept per cluster regression.
    intercepts: Vec<f64>,
    /// Per-term driver feature, already scaled by the batch size.
    features: Vec<f64>,
    /// Per-term index into the model table.
    model_of: Vec<u32>,
    layers: Vec<LayerPlan>,
    /// E2E seconds-per-FLOP slope (last ladder rung).
    e2e_slope: f64,
}

impl CompiledPlan {
    /// Compiles a plan for `net` at `batch` against the suite's trained
    /// models: one pass of mapping-table lookups, cluster resolution and
    /// driver-feature extraction, after which [`CompiledPlan::predict`]
    /// never touches a map again.
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
        crate::error::validate_request(net, batch)?;
        let n = batch as f64;
        let clustering = suite.kw.clustering();
        let models = clustering.models();
        let mut slopes = Vec::with_capacity(models.len());
        let mut intercepts = Vec::with_capacity(models.len());
        for (_, f) in models {
            slopes.push(f.line.slope);
            intercepts.push(f.line.intercept);
        }

        let mut features = Vec::new();
        let mut model_of = Vec::new();
        let mut layers = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            let tag = layer.type_tag();
            let in_x = layer.input.elems() as f64 * n;
            let flops = layer_flops(layer) as f64 * n;
            let out_x = layer.output.elems() as f64 * n;
            let start = features.len() as u32;
            let mut missing: Vec<Arc<str>> = Vec::new();
            let mapped = suite.kw.mapping().kernels_for(layer);
            for k in mapped.into_iter().flatten() {
                // Resolve the kernel's cluster once; an out-of-range id
                // (impossible for models built in-process, rejected by the
                // persistence loader) degrades to "missing" rather than
                // panicking.
                match clustering
                    .cluster_of(k)
                    .and_then(|id| models.get(id).map(|(d, _)| (id, *d)))
                {
                    Some((id, driver)) => {
                        let x = match driver {
                            Driver::Input => in_x,
                            Driver::Operation => flops,
                            Driver::Output => out_x,
                        };
                        features.push(x);
                        model_of.push(id as u32);
                    }
                    None => missing.push(k.clone()),
                }
            }
            let end = features.len() as u32;
            let resolve = match mapped {
                Some(_) if missing.is_empty() => Resolve::Kw,
                Some(_) => match suite.lw.fit_for(tag) {
                    Some(f) => Resolve::PartialLw {
                        slope: f.line.slope,
                        intercept: f.line.intercept,
                        missing,
                    },
                    None => Resolve::PartialFloor { missing },
                },
                None => match suite.lw.fit_for(tag) {
                    Some(f) => Resolve::LwFallback {
                        slope: f.line.slope,
                        intercept: f.line.intercept,
                    },
                    None => Resolve::E2eFallback,
                },
            };
            layers.push(LayerPlan {
                start,
                end,
                flops,
                tag: Arc::from(tag),
                resolve,
            });
        }

        Ok(CompiledPlan {
            gpu: suite.kw.gpu().to_string(),
            network: net.name().to_string(),
            batch,
            fingerprint: network_fingerprint(net),
            suite_generation: suite.generation(),
            slopes,
            intercepts,
            features,
            model_of,
            layers,
            e2e_slope: suite.e2e.slope_seconds_per_flop(),
        })
    }

    /// Sum of the layer's compiled kernel terms, in term order: the priced
    /// kernel-wise subtotal, bit-identical to the uncompiled
    /// [`crate::KwModel::predict_layer`].
    fn layer_terms(&self, lp: &LayerPlan) -> f64 {
        let range = lp.start as usize..lp.end as usize;
        let feats = self.features.get(range.clone()).unwrap_or(&[]);
        let ids = self.model_of.get(range).unwrap_or(&[]);
        let mut s = 0.0;
        for (x, id) in feats.iter().zip(ids) {
            let i = *id as usize;
            let slope = self.slopes.get(i).copied().unwrap_or(0.0);
            let intercept = self.intercepts.get(i).copied().unwrap_or(0.0);
            // Deliberately `slope * x + intercept`, not `mul_add`: the
            // legacy path rounds twice and the plan must match it bit for
            // bit.
            s += (slope * x + intercept).max(0.0);
        }
        s
    }

    /// Predicts the end-to-end time in seconds: a fused sweep over the
    /// flat term arrays, bit-identical to
    /// `suite.kw.predict_network(net, batch)` for the request the plan was
    /// compiled for.
    pub fn predict(&self) -> f64 {
        let mut total = 0.0;
        for lp in &self.layers {
            total += self.layer_terms(lp);
        }
        total
    }

    /// Predicts with the graceful-degradation ladder, replaying
    /// [`Workflow::predict_graceful_uncompiled`] bit for bit: KW where the
    /// plan has full coverage, the LW layer-type fit or the E2E slope
    /// where it does not, with one [`Degradation`] note per fallback.
    pub fn predict_graceful(&self) -> GracefulPrediction {
        let mut total = 0.0;
        let mut notes = Vec::new();
        for (li, lp) in self.layers.iter().enumerate() {
            match &lp.resolve {
                Resolve::Kw => total += self.layer_terms(lp),
                Resolve::PartialLw {
                    slope,
                    intercept,
                    missing,
                } => {
                    let s = (slope * lp.flops + intercept).max(0.0);
                    total += s;
                    notes.push(Degradation::UnclusteredKernels {
                        layer_index: li,
                        tag: lp.tag.to_string(),
                        kernels: missing.clone(),
                        seconds: s,
                    });
                }
                Resolve::PartialFloor { missing } => {
                    let s = self.layer_terms(lp).max(self.e2e_slope * lp.flops);
                    total += s;
                    notes.push(Degradation::UnclusteredKernels {
                        layer_index: li,
                        tag: lp.tag.to_string(),
                        kernels: missing.clone(),
                        seconds: s,
                    });
                }
                Resolve::LwFallback { slope, intercept } => {
                    let s = (slope * lp.flops + intercept).max(0.0);
                    total += s;
                    if s > 0.0 {
                        notes.push(Degradation::UnmappedLayer {
                            layer_index: li,
                            tag: lp.tag.to_string(),
                            seconds: s,
                        });
                    }
                }
                Resolve::E2eFallback => {
                    let s = (self.e2e_slope * lp.flops).max(0.0);
                    total += s;
                    if s > 0.0 {
                        notes.push(Degradation::UnknownLayerType {
                            layer_index: li,
                            tag: lp.tag.to_string(),
                            seconds: s,
                        });
                    }
                }
            }
        }
        GracefulPrediction {
            seconds: total,
            notes,
        }
    }

    /// GPU the plan's models were trained on.
    pub fn gpu(&self) -> &str {
        &self.gpu
    }

    /// Network name the plan was compiled for.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Batch size the plan was compiled for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Structural fingerprint of the compiled network (cache key part).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Generation of the [`Workflow`] the plan was compiled against (cache
    /// key part): shared caches that key on it can never serve a plan from
    /// a retired model suite. See [`Workflow::generation`].
    pub fn suite_generation(&self) -> u64 {
        self.suite_generation
    }

    /// Estimated resident size of the plan in bytes (the struct plus its
    /// heap payload). Memory-budgeted caches use this as the per-entry
    /// charge; it deliberately counts lengths rather than capacities so
    /// the figure is deterministic across allocators.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<CompiledPlan>();
        bytes += self.gpu.len() + self.network.len();
        bytes += self.slopes.len() * size_of::<f64>();
        bytes += self.intercepts.len() * size_of::<f64>();
        bytes += self.features.len() * size_of::<f64>();
        bytes += self.model_of.len() * size_of::<u32>();
        bytes += self.layers.len() * size_of::<LayerPlan>();
        for lp in &self.layers {
            bytes += lp.tag.len();
            let missing = match &lp.resolve {
                Resolve::PartialLw { missing, .. } | Resolve::PartialFloor { missing } => {
                    missing.as_slice()
                }
                _ => &[],
            };
            bytes += missing
                .iter()
                .map(|k| std::mem::size_of::<Arc<str>>() + k.len())
                .sum::<usize>();
        }
        bytes
    }

    /// Number of priced kernel terms in the plan (the per-predict work).
    pub fn num_terms(&self) -> usize {
        self.features.len()
    }

    /// Number of layers in the plan.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of entries in the dense model table.
    pub fn num_models(&self) -> usize {
        self.slopes.len()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one u64 field into the running hash with a single
/// multiply-rotate round (xxHash-style) instead of the byte-wise FNV
/// loop: the fingerprint sits on the warm-predict hot path (it is part
/// of every cache lookup), and hashing a few dozen scalar fields per
/// network must stay in the nanoseconds. Sequential, position-dependent
/// mixing keeps field order significant.
fn fnv1a_u64(h: u64, v: u64) -> u64 {
    const M1: u64 = 0x9e37_79b1_85eb_ca87;
    const M2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    (h ^ v.wrapping_mul(M1)).rotate_left(31).wrapping_mul(M2)
}

/// Length-prefixed string hashing: without the prefix, adjacent
/// variable-length fields are ambiguous (`"ab" + "c"` hashes like
/// `"a" + "bc"`), which is exactly the kind of structural near-miss a
/// cache key must distinguish.
fn fnv1a_str(h: u64, s: &str) -> u64 {
    fnv1a(fnv1a_u64(h, s.len() as u64), s.as_bytes())
}

fn fnv1a_shape(h: u64, s: &dnnperf_dnn::TensorShape) -> u64 {
    use dnnperf_dnn::TensorShape;
    match *s {
        TensorShape::FeatureMap { c, h: fh, w } => {
            let x = fnv1a_u64(h, 1);
            let x = fnv1a_u64(x, c as u64);
            let x = fnv1a_u64(x, fh as u64);
            fnv1a_u64(x, w as u64)
        }
        TensorShape::Features { d } => fnv1a_u64(fnv1a_u64(h, 2), d as u64),
        TensorShape::Tokens { len, d } => {
            let x = fnv1a_u64(h, 3);
            let x = fnv1a_u64(x, len as u64);
            fnv1a_u64(x, d as u64)
        }
    }
}

/// Hashes a layer's *full* structural identity: a kind discriminant, every
/// kind parameter, and the complete input/output shape dimensions.
///
/// This is deliberately finer than the four derived values a compiled plan
/// prices today (`tag`, input elems, FLOPs, output elems): hashing only
/// derived quantities invites collisions between genuinely different
/// layers whose derivations happen to coincide — max vs average pooling,
/// a `1x9` vs a `9x1` convolution, ReLU vs ReLU6 — and a cache key must
/// stay collision-free under *every* quantity compilation may ever read,
/// not just the ones it reads today. Over-distinguishing merely costs a
/// recompile; under-distinguishing serves the wrong plan.
fn fnv1a_layer(h: u64, l: &dnnperf_dnn::Layer) -> u64 {
    use dnnperf_dnn::LayerKind;
    let h = match l.kind {
        LayerKind::Conv2d(c) => {
            let x = fnv1a_u64(h, 1);
            let x = fnv1a_u64(x, c.in_ch as u64);
            let x = fnv1a_u64(x, c.out_ch as u64);
            let x = fnv1a_u64(x, c.kh as u64);
            let x = fnv1a_u64(x, c.kw as u64);
            let x = fnv1a_u64(x, c.stride as u64);
            let x = fnv1a_u64(x, c.padding as u64);
            fnv1a_u64(x, c.groups as u64)
        }
        LayerKind::Linear(f) => {
            let x = fnv1a_u64(h, 2);
            let x = fnv1a_u64(x, f.in_features as u64);
            fnv1a_u64(x, f.out_features as u64)
        }
        LayerKind::Pool2d(p) => {
            let x = fnv1a_u64(h, 3);
            let x = fnv1a_u64(x, matches!(p.kind, dnnperf_dnn::PoolKind::Max) as u64);
            let x = fnv1a_u64(x, p.k as u64);
            let x = fnv1a_u64(x, p.stride as u64);
            fnv1a_u64(x, p.padding as u64)
        }
        LayerKind::GlobalAvgPool => fnv1a_u64(h, 4),
        LayerKind::BatchNorm => fnv1a_u64(h, 5),
        LayerKind::LayerNorm => fnv1a_u64(h, 6),
        LayerKind::Activation(f) => {
            use dnnperf_dnn::ActivationFn;
            let tag = match f {
                ActivationFn::Relu => 1u64,
                ActivationFn::Relu6 => 2,
                ActivationFn::Gelu => 3,
                ActivationFn::Sigmoid => 4,
            };
            fnv1a_u64(fnv1a_u64(h, 7), tag)
        }
        LayerKind::Add => fnv1a_u64(h, 8),
        LayerKind::Concat { parts } => fnv1a_u64(fnv1a_u64(h, 9), parts as u64),
        LayerKind::Softmax => fnv1a_u64(h, 10),
        LayerKind::Embedding(e) => {
            let x = fnv1a_u64(h, 11);
            let x = fnv1a_u64(x, e.vocab as u64);
            fnv1a_u64(x, e.dim as u64)
        }
        LayerKind::MatMul(m) => {
            let x = fnv1a_u64(h, 12);
            let x = fnv1a_u64(x, m.heads as u64);
            let x = fnv1a_u64(x, m.m as u64);
            let x = fnv1a_u64(x, m.k as u64);
            fnv1a_u64(x, m.n as u64)
        }
        LayerKind::Flatten => fnv1a_u64(h, 13),
        LayerKind::ChannelShuffle { groups } => fnv1a_u64(fnv1a_u64(h, 14), groups as u64),
    };
    fnv1a_shape(fnv1a_shape(h, &l.input), &l.output)
}

/// FNV-1a fingerprint of a network's predictive structure: its name plus
/// every layer's full structural identity (kind discriminant, all kind
/// parameters, and complete input/output shape dimensions), with
/// length-prefixed fields so record boundaries are unambiguous.
///
/// Two networks built the same way always fingerprint equal (structure,
/// not object identity), and the hash covers a strict superset of
/// everything [`CompiledPlan::compile`] reads — the layer type tag, the
/// driver features (input elems / FLOPs / output elems) and the mapping
/// signature are all derived from the hashed fields — so distinct
/// same-name networks can never alias in a plan cache keyed on it.
pub fn network_fingerprint(net: &Network) -> u64 {
    let mut h = fnv1a_str(FNV_OFFSET, net.name());
    h = fnv1a_u64(h, net.layers().len() as u64);
    for l in net.layers() {
        h = fnv1a_layer(h, l);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn compiled_graceful_is_bit_identical_to_uncompiled() {
        // Train on VGG only so ResNet probes exercise every ladder rung.
        let train = [
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg13(),
        ];
        let ds = collect(&train, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let suite = Workflow::train(&ds, "A100").unwrap();
        let probe = dnnperf_dnn::zoo::resnet::resnet18();
        let plan = CompiledPlan::compile(&suite, &probe, 32).unwrap();
        let fast = plan.predict_graceful();
        let slow = suite.predict_graceful_uncompiled(&probe, 32).unwrap();
        assert_eq!(fast.seconds.to_bits(), slow.seconds.to_bits());
        assert_eq!(fast.notes, slow.notes);
        assert!(fast.is_degraded());
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
    fn fingerprint_tracks_structure_not_identity() {
        let a = dnnperf_dnn::zoo::resnet::resnet18();
        let b = dnnperf_dnn::zoo::resnet::resnet18();
        let c = dnnperf_dnn::zoo::resnet::resnet34();
        assert_eq!(network_fingerprint(&a), network_fingerprint(&b));
        assert_ne!(network_fingerprint(&a), network_fingerprint(&c));

        // Same structure under a different name is a different network.
        let mut renamed = dnnperf_dnn::zoo::resnet::resnet18();
        renamed = dnnperf_dnn::Network::from_parts(
            "NotResNet-18",
            renamed.family(),
            renamed.input_shape(),
            renamed.layers().to_vec(),
        );
        assert_ne!(network_fingerprint(&a), network_fingerprint(&renamed));
    }

    /// Wraps one layer in a single-layer network under a fixed name, so
    /// any fingerprint difference comes from the layer alone.
    fn single(layer: dnnperf_dnn::Layer) -> Network {
        let input = layer.input;
        Network::from_parts("probe", dnnperf_dnn::Family::Vgg, input, vec![layer])
    }

    /// The derived quantities the pre-fix fingerprint hashed per layer.
    fn legacy_fields(net: &Network) -> Vec<(&'static str, u64, u64, u64)> {
        net.layers()
            .iter()
            .map(|l| {
                (
                    l.type_tag(),
                    l.input.elems() as u64,
                    dnnperf_dnn::flops::layer_flops(l),
                    l.output.elems() as u64,
                )
            })
            .collect()
    }

    /// Adversarial near-miss pairs: distinct same-name networks whose
    /// layers agree on every field the old hash covered — type tag, input
    /// elems, FLOPs, output elems — yet differ structurally. Each pair
    /// collided under the old `(tag, in, flops, out)` fingerprint; the
    /// structural fingerprint must split them.
    #[test]
    fn fingerprint_splits_adversarial_near_misses() {
        use dnnperf_dnn::{
            ActivationFn, Conv2d, Layer, LayerKind, MatMul, Pool2d, PoolKind, TensorShape,
        };
        let fm = TensorShape::chw;
        let pairs: Vec<(&str, Network, Network)> = vec![
            (
                "max vs avg pooling",
                single(
                    Layer::apply(
                        LayerKind::Pool2d(Pool2d {
                            kind: PoolKind::Max,
                            k: 2,
                            stride: 2,
                            padding: 0,
                        }),
                        fm(16, 8, 8),
                    )
                    .unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::Pool2d(Pool2d {
                            kind: PoolKind::Avg,
                            k: 2,
                            stride: 2,
                            padding: 0,
                        }),
                        fm(16, 8, 8),
                    )
                    .unwrap(),
                ),
            ),
            (
                "1x9 vs 9x1 convolution",
                single(
                    Layer::apply(
                        LayerKind::Conv2d(Conv2d {
                            in_ch: 8,
                            out_ch: 8,
                            kh: 1,
                            kw: 9,
                            stride: 1,
                            padding: 4,
                            groups: 1,
                        }),
                        fm(8, 9, 9),
                    )
                    .unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::Conv2d(Conv2d {
                            in_ch: 8,
                            out_ch: 8,
                            kh: 9,
                            kw: 1,
                            stride: 1,
                            padding: 4,
                            groups: 1,
                        }),
                        fm(8, 9, 9),
                    )
                    .unwrap(),
                ),
            ),
            (
                "relu vs relu6",
                single(
                    Layer::apply(LayerKind::Activation(ActivationFn::Relu), fm(16, 8, 8)).unwrap(),
                ),
                single(
                    Layer::apply(LayerKind::Activation(ActivationFn::Relu6), fm(16, 8, 8)).unwrap(),
                ),
            ),
            (
                "feature-map vs flat-vector input",
                single(
                    Layer::apply(LayerKind::Activation(ActivationFn::Relu), fm(64, 8, 8)).unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::Activation(ActivationFn::Relu),
                        TensorShape::features(64 * 8 * 8),
                    )
                    .unwrap(),
                ),
            ),
            (
                "channel shuffle group count",
                single(
                    Layer::apply(LayerKind::ChannelShuffle { groups: 2 }, fm(16, 4, 4)).unwrap(),
                ),
                single(
                    Layer::apply(LayerKind::ChannelShuffle { groups: 4 }, fm(16, 4, 4)).unwrap(),
                ),
            ),
            (
                "matmul head split",
                single(
                    Layer::apply(
                        LayerKind::MatMul(MatMul {
                            heads: 2,
                            m: 16,
                            k: 8,
                            n: 8,
                        }),
                        TensorShape::tokens(16, 32),
                    )
                    .unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::MatMul(MatMul {
                            heads: 4,
                            m: 16,
                            k: 8,
                            n: 4,
                        }),
                        TensorShape::tokens(16, 32),
                    )
                    .unwrap(),
                ),
            ),
        ];
        for (what, a, b) in &pairs {
            assert_ne!(a, b, "{what}: pair must be structurally distinct");
            assert_eq!(
                legacy_fields(a),
                legacy_fields(b),
                "{what}: not adversarial — the old hash already split it"
            );
            assert_ne!(
                network_fingerprint(a),
                network_fingerprint(b),
                "{what}: structural fingerprint collision"
            );
        }
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
        let suite = suite();
        let net = dnnperf_dnn::zoo::resnet::resnet50();
        let p1 = suite.plan(&net, 32).unwrap();
        let p2 = suite.plan(&net, 32).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(suite.cached_plans(), 1);
        suite.plan(&net, 64).unwrap();
        assert_eq!(suite.cached_plans(), 2);
        suite.invalidate_plans();
        assert_eq!(suite.cached_plans(), 0);
    }
}
