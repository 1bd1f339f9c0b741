//! Plan-cache entries: the answer to one `(network, batch)` request.
//!
//! The kernel-wise prediction of a network depends on nothing but the
//! request and the trained models, so for a cache key
//! `(suite generation, network fingerprint, batch)` it never changes.
//! [`CompiledPlan::compile`] therefore walks the trained models once —
//! the graceful-degradation ladder of [`crate::degrade`], which prices
//! every layer through [`crate::KwModel::predict_layer_coverage`] — and
//! keeps what that walk found:
//!
//! * the strict KW seconds, bit-identical to
//!   [`crate::KwModel::predict_network`];
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
