//! The [`Network`] container: an ordered list of shape-resolved layers.
//!
//! The IR is a flat execution sequence rather than a general dataflow graph:
//! execution time only depends on *which kernels run with which shapes*, so a
//! linearised schedule (what the PyTorch Profiler trace in the paper's
//! Figure 2 shows) is the right abstraction level. Non-chain edges (residual
//! adds, concatenations, downsample paths) appear as layers with explicitly
//! recorded shapes.

use crate::flops::{layer_bytes, layer_flops, layer_params};
use crate::layer::{ActivationFn, Layer, LayerKind, PoolKind};
use crate::shape::TensorShape;
use std::fmt;

/// The structural family a network belongs to (used for plotting Figure 4 and
/// for zoo bookkeeping; never consulted by the predictors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Residual networks.
    ResNet,
    /// VGG-style plain convolutional stacks.
    Vgg,
    /// Densely connected networks.
    DenseNet,
    /// MobileNetV2-style inverted residual networks.
    MobileNet,
    /// ShuffleNet v1 networks.
    ShuffleNet,
    /// SqueezeNet fire-module networks.
    SqueezeNet,
    /// AlexNet-style early CNNs.
    AlexNet,
    /// GoogLeNet / Inception-style branch-and-concat networks.
    Inception,
    /// Encoder-only text-classification transformers.
    Transformer,
    /// Anything hand-built.
    Custom,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Family::ResNet => "resnet",
            Family::Vgg => "vgg",
            Family::DenseNet => "densenet",
            Family::MobileNet => "mobilenet",
            Family::ShuffleNet => "shufflenet",
            Family::SqueezeNet => "squeezenet",
            Family::AlexNet => "alexnet",
            Family::Inception => "inception",
            Family::Transformer => "transformer",
            Family::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A complete inference workload: named, family-tagged, shape-resolved.
///
/// Immutable once built: [`Network::from_parts`] is the only constructor,
/// so the structural fingerprint it computes stays valid for the value's
/// whole life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    name: String,
    family: Family,
    input: TensorShape,
    layers: Vec<Layer>,
    fingerprint: u64,
}

impl Network {
    /// Assembles a network from parts. Most users should go through
    /// [`crate::NetworkBuilder`] or the [`crate::zoo`] constructors instead.
    pub fn from_parts(
        name: impl Into<String>,
        family: Family,
        input: TensorShape,
        layers: Vec<Layer>,
    ) -> Self {
        let name = name.into();
        let fingerprint = hash_structure(&name, &layers);
        Network {
            name,
            family,
            input,
            layers,
            fingerprint,
        }
    }

    /// Structural fingerprint of the network: its name plus every layer's
    /// full structural identity (kind discriminant, all kind parameters,
    /// and complete input/output shape dimensions), with length-prefixed
    /// fields so record boundaries are unambiguous.
    ///
    /// Two networks built the same way always fingerprint equal
    /// (structure, not object identity), and every quantity a predictor
    /// reads — layer type tag, driver features, mapping signature — is
    /// derived from the hashed fields, so distinct same-name networks
    /// never alias in a cache keyed on it. Hashed once, at construction.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The network's display name, e.g. `"ResNet-50"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The structural family.
    pub fn family(&self) -> Family {
        self.family
    }

    /// The per-sample input shape (e.g. `3x224x224`).
    pub fn input_shape(&self) -> TensorShape {
        self.input
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total theoretical FLOPs per sample (sum over layers).
    ///
    /// # Examples
    ///
    /// ```
    /// let net = dnnperf_dnn::zoo::vgg::vgg16();
    /// assert!(net.total_flops() > 10_000_000_000); // VGG-16 ~ 15.5 GFLOPs
    /// ```
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(layer_flops).sum()
    }

    /// Total theoretical memory traffic per sample in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.layers.iter().map(layer_bytes).sum()
    }

    /// Total learned parameter count.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(layer_params).sum()
    }

    /// Total parameter bytes (FP32), i.e. the model weight footprint.
    pub fn param_bytes(&self) -> u64 {
        self.total_params() * crate::flops::BYTES_PER_ELEM
    }

    /// Peak activation footprint per sample in bytes: the largest
    /// input + output working set over all layers. A coarse but monotone
    /// estimator used for out-of-memory screening.
    pub fn peak_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.input.elems() + l.output.elems()) as u64 * crate::flops::BYTES_PER_ELEM)
            .max()
            .unwrap_or(0)
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
/// loop: every network is hashed when it is built, zoo construction
/// included, so a few dozen scalar fields per layer must cost
/// nanoseconds. Sequential, position-dependent mixing keeps field order
/// significant.
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

fn fnv1a_shape(h: u64, s: &TensorShape) -> u64 {
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
/// This is deliberately finer than the four derived values the predictors
/// price today (`tag`, input elems, FLOPs, output elems): hashing only
/// derived quantities invites collisions between genuinely different
/// layers whose derivations happen to coincide — max vs average pooling,
/// a `1x9` vs a `9x1` convolution, ReLU vs ReLU6 — and a cache key must
/// stay collision-free under *every* quantity a predictor may ever read,
/// not just the ones it reads today. Over-distinguishing merely costs a
/// recompile; under-distinguishing serves the wrong plan.
fn fnv1a_layer(h: u64, l: &Layer) -> u64 {
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
            let x = fnv1a_u64(x, matches!(p.kind, PoolKind::Max) as u64);
            let x = fnv1a_u64(x, p.k as u64);
            let x = fnv1a_u64(x, p.stride as u64);
            fnv1a_u64(x, p.padding as u64)
        }
        LayerKind::GlobalAvgPool => fnv1a_u64(h, 4),
        LayerKind::BatchNorm => fnv1a_u64(h, 5),
        LayerKind::LayerNorm => fnv1a_u64(h, 6),
        LayerKind::Activation(f) => {
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

/// See [`Network::fingerprint`].
fn hash_structure(name: &str, layers: &[Layer]) -> u64 {
    let mut h = fnv1a_str(FNV_OFFSET, name);
    h = fnv1a_u64(h, layers.len() as u64);
    for l in layers {
        h = fnv1a_layer(h, l);
    }
    h
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.2} GFLOPs)",
            self.name,
            self.layers.len(),
            self.total_flops() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, LayerKind};

    fn tiny() -> Network {
        let input = TensorShape::chw(3, 8, 8);
        let l1 = Layer::apply(LayerKind::Conv2d(Conv2d::square(3, 4, 3, 1, 1)), input).unwrap();
        let l2 = Layer::apply(LayerKind::BatchNorm, l1.output).unwrap();
        Network::from_parts("Tiny", Family::Custom, input, vec![l1, l2])
    }

    #[test]
    fn totals_are_sums() {
        let n = tiny();
        let f: u64 = n.layers().iter().map(crate::flops::layer_flops).sum();
        assert_eq!(n.total_flops(), f);
        assert_eq!(n.num_layers(), 2);
    }

    #[test]
    fn peak_activation_positive() {
        assert!(tiny().peak_activation_bytes() > 0);
    }

    #[test]
    fn display_mentions_name_and_layers() {
        let s = tiny().to_string();
        assert!(s.contains("Tiny") && s.contains("2 layers"));
    }

    /// Plan-cache keys are built from fingerprints, so the hash must never
    /// drift: these literals were recorded before the hash moved into
    /// `Network::from_parts`, and any edit to the hash code that changes a
    /// bit fails here.
    #[test]
    fn fingerprints_are_pinned() {
        use crate::zoo::transformer::{text_classifier, TransformerConfig};
        let pinned = [
            (crate::zoo::resnet::resnet50(), 0xb89c_e175_c3b4_6037_u64),
            (crate::zoo::densenet::densenet121(), 0x72a7_4e87_a16c_ef68),
            (crate::zoo::vgg::vgg16(), 0x8b7c_6174_3bae_f91a),
            (
                crate::zoo::shufflenet::shufflenet_v1(3, 1.0, &[4, 8, 4]),
                0x3327_389f_e8e3_2b7f,
            ),
            (
                text_classifier(TransformerConfig::bert_base(128)),
                0x0cec_1883_95c6_45f7,
            ),
        ];
        for (net, want) in pinned {
            assert_eq!(net.fingerprint(), want, "{}", net.name());
        }
    }

    #[test]
    fn fingerprint_tracks_structure_not_identity() {
        let a = crate::zoo::resnet::resnet18();
        let b = crate::zoo::resnet::resnet18();
        let c = crate::zoo::resnet::resnet34();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());

        // Same structure under a different name is a different network.
        let mut renamed = crate::zoo::resnet::resnet18();
        renamed = Network::from_parts(
            "NotResNet-18",
            renamed.family(),
            renamed.input_shape(),
            renamed.layers().to_vec(),
        );
        assert_ne!(a.fingerprint(), renamed.fingerprint());
    }

    /// Wraps one layer in a single-layer network under a fixed name, so
    /// any fingerprint difference comes from the layer alone.
    fn single(layer: Layer) -> Network {
        let input = layer.input;
        Network::from_parts("probe", Family::Vgg, input, vec![layer])
    }

    /// The derived quantities the pre-fix fingerprint hashed per layer.
    fn legacy_fields(net: &Network) -> Vec<(&'static str, u64, u64, u64)> {
        net.layers()
            .iter()
            .map(|l| {
                (
                    l.type_tag(),
                    l.input.elems() as u64,
                    crate::flops::layer_flops(l),
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
        use crate::layer::{MatMul, Pool2d};
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
                a.fingerprint(),
                b.fingerprint(),
                "{what}: structural fingerprint collision"
            );
        }
    }
}
