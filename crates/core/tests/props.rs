//! Property-based tests for the predictor stack's invariants.

use dnnperf_core::{
    classify_kernels, cluster_kernels, KernelMap, KwModel, LayerCoverage, LayerSignature, Predictor,
};
use dnnperf_data::collect::collect;
use dnnperf_data::KernelRow;
use dnnperf_dnn::flops::layer_flops;
use dnnperf_dnn::{ActivationFn, Conv2d, Family, Layer, LayerKind, Network, TensorShape};
use dnnperf_gpu::GpuSpec;
use dnnperf_testkit::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

fn arb_rows() -> impl Gen<Value = Vec<KernelRow>> {
    vec((0usize..6, 1u64..1_000_000, 1e-7..1e-2f64), 8..80).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (k, x, t))| KernelRow {
                network: "n".into(),
                gpu: "g".into(),
                batch: 1,
                layer_index: i as u32,
                layer_type: Arc::from("conv"),
                kernel: Arc::from(format!("kernel_{k}")),
                in_elems: x,
                // Decorrelated from the input size, so driver choice is not
                // an exact R-squared tie decided by float summation order
                // (R-squared is invariant under affine maps of x, so any
                // affinely-related pair of drivers ties exactly).
                flops: (x % 977) * 1000 + 1,
                out_elems: (x % 1231) * 500 + 1,
                seconds: t,
            })
            .collect()
    })
}

/// The body of `classification_is_order_invariant`, shared with the pinned
/// regression cases below (formerly a `proptest-regressions` side-file).
fn check_classification_order_invariant(mut rows: Vec<KernelRow>, seed: u64) {
    let a = classify_kernels(&rows);
    // Deterministic shuffle.
    let n = rows.len();
    for i in 0..n {
        let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
        rows.swap(i, j);
    }
    let b = classify_kernels(&rows);
    prop_assert_eq!(a.len(), b.len());
    for (k, ca) in &a {
        let cb = &b[k];
        if ca.driver != cb.driver {
            // Permissible only for an exact R-squared tie broken by
            // float summation order.
            let ra = ca.r2[ca.driver.index()];
            let rb = cb.r2[cb.driver.index()];
            prop_assert!(
                (ra - rb).abs() < 1e-6,
                "driver flip for {} without a tie",
                k
            );
        }
        // Fits are computed from the same multiset of samples.
        prop_assert_eq!(ca.n, cb.n);
    }
}

props! {
    #[test]
    fn classification_is_order_invariant(rows in arb_rows(), seed in 0u64..100) {
        check_classification_order_invariant(rows, seed);
    }

    #[test]
    fn clustering_is_a_partition(rows in arb_rows(), tol in 1.0..4.0f64) {
        let classes = classify_kernels(&rows);
        let cl = cluster_kernels(&rows, &classes, tol);
        prop_assert_eq!(cl.num_kernels(), classes.len());
        prop_assert!(cl.num_models() >= 1);
        prop_assert!(cl.num_models() <= cl.num_kernels());
        // Every kernel has a model, and every model id is valid.
        for (k, id) in cl.assignments() {
            prop_assert!(id < cl.num_models(), "{k} -> {id}");
            prop_assert!(cl.model_for(k).is_some());
        }
        // Cluster fits never have negative slope.
        for (_, fit) in cl.models() {
            prop_assert!(fit.line.slope >= 0.0);
        }
    }

    #[test]
    fn looser_tolerance_never_increases_model_count(rows in arb_rows()) {
        let classes = classify_kernels(&rows);
        let tight = cluster_kernels(&rows, &classes, 1.01);
        let loose = cluster_kernels(&rows, &classes, 3.0);
        prop_assert!(loose.num_models() <= tight.num_models());
    }

    #[test]
    fn mapping_table_is_total_over_its_sources(rows in arb_rows()) {
        let map = KernelMap::from_rows(&rows);
        prop_assert!(!map.is_empty());
        // Every recorded signature has a nonempty kernel list.
        for (_, kernels) in map.entries() {
            prop_assert!(!kernels.is_empty());
        }
    }
}

/// A regression-case row: mostly-default kernels with a handful of large
/// outliers, exactly as the historical shrinker reported them.
fn regression_row(
    i: u32,
    kernel: &str,
    in_elems: u64,
    flops: u64,
    out_elems: u64,
    seconds: f64,
) -> KernelRow {
    KernelRow {
        network: "n".into(),
        gpu: "g".into(),
        batch: 1,
        layer_index: i,
        layer_type: Arc::from("conv"),
        kernel: Arc::from(kernel),
        in_elems,
        flops,
        out_elems,
        seconds,
    }
}

/// Builds `len` default rows, then applies `(index, kernel, x, flops, out,
/// seconds)` overrides.
fn regression_rows(
    len: u32,
    default: (&str, u64, u64, u64, f64),
    overrides: &[(u32, &str, u64, u64, u64, f64)],
) -> Vec<KernelRow> {
    let (dk, dx, df, do_, dt) = default;
    let mut rows: Vec<KernelRow> = (0..len)
        .map(|i| regression_row(i, dk, dx, df, do_, dt))
        .collect();
    for &(i, k, x, f, o, t) in overrides {
        rows[i as usize] = regression_row(i, k, x, f, o, t);
    }
    rows
}

/// Pinned historical failure of `classification_is_order_invariant` (was
/// `cc 9c36a10e…` in the deleted `props.proptest-regressions` file): 55
/// rows, mostly defaults, a burst of mixed-kernel outliers at the tail,
/// shuffled with seed 15.
#[test]
fn regression_classification_order_invariant_seed_15() {
    let rows = regression_rows(
        55,
        ("kernel_0", 1, 3, 1, 1e-7),
        &[
            (4, "kernel_5", 114131, 342393, 57066, 0.000745717683708324),
            (
                10,
                "kernel_5",
                233386,
                700158,
                116694,
                0.0005036009957526903,
            ),
            (36, "kernel_5", 73814, 221442, 36908, 0.002815348518249823),
            (
                41,
                "kernel_5",
                481536,
                1444608,
                240769,
                0.0013389807761152405,
            ),
            (42, "kernel_0", 403, 1209, 202, 0.004517503318043073),
            (
                43,
                "kernel_0",
                215619,
                646857,
                107810,
                0.0028681425582801207,
            ),
            (44, "kernel_5", 105235, 315705, 52618, 0.0016734938377575806),
            (
                45,
                "kernel_5",
                358687,
                1076061,
                179344,
                0.009330787314073974,
            ),
            (46, "kernel_2", 310054, 930162, 155028, 0.003995596172012164),
            (
                47,
                "kernel_4",
                614512,
                1843536,
                307257,
                0.0017094440317042454,
            ),
            (48, "kernel_1", 196184, 588552, 98093, 0.009484663750074455),
            (
                49,
                "kernel_4",
                275299,
                825897,
                137650,
                0.0016820490708888383,
            ),
            (
                50,
                "kernel_2",
                418310,
                1254930,
                209156,
                0.006956893590377487,
            ),
            (
                51,
                "kernel_0",
                713544,
                2140632,
                356773,
                0.0048810519950939855,
            ),
            (52, "kernel_4", 179418, 538254, 89710, 0.005557167421326461),
            (53, "kernel_0", 190137, 570411, 95069, 0.0049055109778379565),
            (
                54,
                "kernel_1",
                339993,
                1019979,
                169997,
                0.009848118628463657,
            ),
        ],
    );
    check_classification_order_invariant(rows, 15);
}

/// Pinned historical failure of `classification_is_order_invariant` (was
/// `cc c6167932…`): 19 rows with three `kernel_4` outliers, shuffled with
/// seed 50.
#[test]
fn regression_classification_order_invariant_seed_50() {
    let rows = regression_rows(
        19,
        ("kernel_0", 1, 1001, 1, 1e-7),
        &[
            (2, "kernel_4", 160643, 415001, 80322, 0.0010729396375589342),
            (8, "kernel_4", 877539, 193001, 438770, 0.008205588246287076),
            (12, "kernel_4", 549527, 453001, 274764, 0.008375577790437828),
        ],
    );
    check_classification_order_invariant(rows, 50);
}

#[test]
fn kw_prediction_is_monotone_in_batch() {
    // Not a generated property (training is comparatively expensive): predictions must
    // grow with batch size for every probe batch.
    let nets = [
        dnnperf_dnn::zoo::resnet::resnet18(),
        dnnperf_dnn::zoo::resnet::resnet50(),
        dnnperf_dnn::zoo::vgg::vgg11(),
        dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
    ];
    let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[128]);
    let kw = KwModel::train(&ds, "A100").unwrap();
    let net = dnnperf_dnn::zoo::resnet::resnet34();
    let mut last = 0.0;
    for bs in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        let t = kw.predict_network(&net, bs).unwrap();
        assert!(
            t >= last,
            "prediction decreased at batch {bs}: {last} -> {t}"
        );
        last = t;
    }
}

/// The reference for [`KernelMap::kernels_for`], written the direct way:
/// an exact `BTreeMap` keyed by the whole signature, and a `min_by` over
/// the tag's insertion-ordered candidates that takes every logarithm again
/// at each comparison.
#[derive(Default)]
struct ReferenceMap {
    exact: BTreeMap<LayerSignature, Vec<Arc<str>>>,
    by_tag: BTreeMap<Arc<str>, Vec<LayerSignature>>,
}

impl ReferenceMap {
    fn insert(&mut self, sig: LayerSignature, kernels: Vec<Arc<str>>) {
        if !self.exact.contains_key(&sig) {
            self.by_tag
                .entry(sig.tag.clone())
                .or_default()
                .push(sig.clone());
            self.exact.insert(sig, kernels);
        }
    }

    fn merge(&mut self, other: ReferenceMap) {
        for (sig, kernels) in other.exact {
            self.insert(sig, kernels);
        }
    }

    fn kernels_for(&self, layer: &Layer) -> Option<&[Arc<str>]> {
        let sig = LayerSignature::of_layer(layer);
        if let Some(k) = self.exact.get(&sig) {
            return Some(k);
        }
        let nearest = self
            .by_tag
            .get(&sig.tag)?
            .iter()
            .min_by(|a, b| distance(&sig, a).total_cmp(&distance(&sig, b)))?;
        self.exact.get(nearest).map(Vec::as_slice)
    }
}

/// The reference map's squared log-space distance.
fn distance(a: &LayerSignature, b: &LayerSignature) -> f64 {
    fn d(a: u64, b: u64) -> f64 {
        let la = ((a + 1) as f64).ln();
        let lb = ((b + 1) as f64).ln();
        (la - lb) * (la - lb)
    }
    d(a.in_per, b.in_per) + d(a.flops_per, b.flops_per) + d(a.out_per, b.out_per)
}

/// A size spread over six decades, from a small pool so that recorded
/// signatures repeat and distances tie.
fn arb_size() -> impl Gen<Value = u64> {
    (1u64..6, 0u32..3).prop_map(|(x, e)| x * 1000u64.pow(e))
}

/// A recorded signature; `pool` is a tag no query layer has.
fn arb_sig() -> impl Gen<Value = LayerSignature> {
    (
        select(vec!["act", "bn", "conv", "pool"]),
        arb_size(),
        arb_size(),
        arb_size(),
    )
        .prop_map(|(tag, in_per, flops_per, out_per)| LayerSignature {
            tag: Arc::from(tag),
            in_per,
            flops_per,
            out_per,
        })
}

/// A query layer: ReLU, batch norm, convolution, or a global average pool
/// (`gap`, a tag no recorded signature has).
fn arb_layer() -> impl Gen<Value = Layer> {
    (0usize..4, arb_size(), 1usize..6, 1usize..6).prop_map(|(kind, size, a, b)| {
        let n = size as usize;
        let (kind, input) = match kind {
            0 => (
                LayerKind::Activation(ActivationFn::Relu),
                TensorShape::features(n),
            ),
            1 => (LayerKind::BatchNorm, TensorShape::chw(n, a, b)),
            2 => (
                LayerKind::Conv2d(Conv2d::square(a, b, 3, 1, 1)),
                TensorShape::chw(a, b + 2, n % 7 + 1),
            ),
            _ => (LayerKind::GlobalAvgPool, TensorShape::chw(a, b, n % 5 + 1)),
        };
        Layer::apply(kind, input).unwrap()
    })
}

/// Interleaves the recorded signatures with the signatures of the queries
/// flagged in `hits` (so those queries hit exactly), each with a kernel
/// list of its own.
fn insertion_order(
    sigs: &[LayerSignature],
    queries: &[Layer],
    hits: &[bool],
) -> Vec<(LayerSignature, Vec<Arc<str>>)> {
    let mut order = Vec::new();
    for i in 0..sigs.len().max(queries.len()) {
        order.extend(sigs.get(i).cloned());
        if hits.get(i) == Some(&true) {
            order.extend(queries.get(i).map(LayerSignature::of_layer));
        }
    }
    order
        .into_iter()
        .enumerate()
        .map(|(i, sig)| (sig, vec![Arc::from(format!("k{i}"))]))
        .collect()
}

fn build(entries: &[(LayerSignature, Vec<Arc<str>>)]) -> (KernelMap, ReferenceMap) {
    let (mut map, mut reference) = (KernelMap::default(), ReferenceMap::default());
    for (sig, kernels) in entries {
        map.insert(sig.clone(), kernels.clone());
        reference.insert(sig.clone(), kernels.clone());
    }
    (map, reference)
}

props! {
    #[test]
    fn kernel_map_lookup_matches_the_reference(
        sigs in vec(arb_sig(), 0..60),
        queries in vec(arb_layer(), 1..30),
        hits in vec(any_bool(), 30),
    ) {
        let (map, reference) = build(&insertion_order(&sigs, &queries, &hits));
        prop_assert_eq!(map.len(), reference.exact.len());
        for layer in &queries {
            prop_assert_eq!(map.kernels_for(layer), reference.kernels_for(layer), "{layer:?}");
        }
    }

    #[test]
    fn merged_kernel_map_lookup_matches_the_reference(
        left in vec(arb_sig(), 0..40),
        right in vec(arb_sig(), 0..40),
        queries in vec(arb_layer(), 1..30),
        hits in vec(any_bool(), 30),
    ) {
        // The right-hand map is inserted into the left in signature order,
        // which decides ties among the candidates it adds.
        let entries = insertion_order(&right, &queries, &hits);
        let (mut map, mut reference) = build(&insertion_order(&left, &[], &[]));
        let (other_map, other_reference) = build(&entries);
        map.merge(other_map);
        reference.merge(other_reference);
        prop_assert_eq!(map.len(), reference.exact.len());
        for layer in &queries {
            prop_assert_eq!(map.kernels_for(layer), reference.kernels_for(layer), "{layer:?}");
        }
    }

    #[test]
    fn nearest_ties_go_to_the_first_recorded_signature(
        size in arb_size(),
        other in arb_size(),
        rotation in 0usize..3,
        decoys in vec(arb_sig(), 0..20),
    ) {
        // A ReLU's signature is (x, x, x), so moving any one coordinate to
        // the same `other` value gives three candidates at bit-equal
        // distances from it.
        if size != other {
            let layer = Layer::apply(
                LayerKind::Activation(ActivationFn::Relu),
                TensorShape::features(size as usize),
            )
            .unwrap();
            let sig = |s: [u64; 3]| LayerSignature {
                tag: Arc::from("act"),
                in_per: s[0],
                flops_per: s[1],
                out_per: s[2],
            };
            let mut tied = vec![
                sig([other, size, size]),
                sig([size, other, size]),
                sig([size, size, other]),
            ];
            tied.rotate_left(rotation);
            let query = LayerSignature::of_layer(&layer);
            let tie = distance(&query, &tied[0]);
            for t in &tied {
                prop_assert_eq!(distance(&query, t).to_bits(), tie.to_bits());
            }
            // Decoys come after the tied three, so they win only by being
            // strictly nearer.
            let decoys: Vec<LayerSignature> = decoys.into_iter().filter(|d| *d != query).collect();
            let nearer_decoy = decoys
                .iter()
                .any(|d| d.tag == query.tag && distance(&query, d) < tie);
            tied.extend(decoys);
            let (map, reference) = build(&insertion_order(&tied, &[], &[]));
            let got = map.kernels_for(&layer);
            prop_assert_eq!(got, reference.kernels_for(&layer));
            if !nearer_decoy {
                let first: &[Arc<str>] = &[Arc::from("k0")];
                prop_assert_eq!(got, Some(first));
            }
        }
    }
}

/// A ReLU over `size` features: its signature is `(size, size, size)`.
fn relu(size: u64) -> Layer {
    Layer::apply(
        LayerKind::Activation(ActivationFn::Relu),
        TensorShape::features(size as usize),
    )
    .unwrap()
}

/// An `act` signature.
fn act([in_per, flops_per, out_per]: [u64; 3]) -> LayerSignature {
    LayerSignature {
        tag: Arc::from("act"),
        in_per,
        flops_per,
        out_per,
    }
}

/// Builds the map and the reference from `entries`, the first `split` of
/// them inserted directly and the rest merged in from a second map.
fn build_merged(
    entries: &[(LayerSignature, Vec<Arc<str>>)],
    split: usize,
) -> (KernelMap, ReferenceMap) {
    let (left, right) = entries.split_at(split.min(entries.len()));
    let (mut map, mut reference) = build(left);
    let (other_map, other_reference) = build(right);
    map.merge(other_map);
    reference.merge(other_reference);
    (map, reference)
}

props! {
    #[test]
    fn misses_among_candidates_sharing_the_pruned_coordinate_match_the_reference(
        flops in arb_size(),
        sharing in vec((arb_size(), arb_size()), 1..40),
        decoys in vec(arb_sig(), 0..20),
        sizes in vec(arb_size(), 1..8),
        split in 0usize..60,
    ) {
        // Every `act` candidate but the decoys has the queries' flops
        // coordinate, so the pruned search can skip none of them, and the
        // small size pool makes exact distance ties common.
        let mut sigs: Vec<LayerSignature> = sharing
            .iter()
            .map(|&(in_per, out_per)| act([in_per, flops, out_per]))
            .collect();
        sigs.extend(decoys);
        let queries: Vec<Layer> = sizes.iter().map(|&s| relu(s)).chain([relu(flops)]).collect();
        let entries = insertion_order(&sigs, &[], &[]);
        for (map, reference) in [build(&entries), build_merged(&entries, split)] {
            prop_assert_eq!(map.len(), reference.exact.len());
            for layer in &queries {
                prop_assert_eq!(map.kernels_for(layer), reference.kernels_for(layer), "{layer:?}");
            }
        }
    }

    #[test]
    fn ties_recorded_out_of_coordinate_order_match_the_reference(
        size in arb_size(),
        other in arb_size(),
        order in 0usize..6,
        sharing in vec(arb_size(), 0..10),
        split in 0usize..4,
    ) {
        // The three tied candidates sit at bit-equal distances from the
        // query; the one that moved its flops coordinate is the only one
        // off the query's flops coordinate, and every order of the three
        // records it first, second or last.
        if size != other {
            let mut tied = vec![
                act([other, size, size]),
                act([size, other, size]),
                act([size, size, other]),
            ];
            tied.rotate_left(order % 3);
            if order >= 3 {
                tied.reverse();
            }
            // More candidates on the query's flops coordinate, farther away.
            let layer = relu(size);
            let query = LayerSignature::of_layer(&layer);
            let tie = distance(&query, &tied[0]);
            tied.extend(
                sharing
                    .into_iter()
                    .map(|s| act([s, size, s]))
                    .filter(|s| distance(&query, s) > tie),
            );
            let entries = insertion_order(&tied, &[], &[]);
            let (map, reference) = build(&entries);
            let first: &[Arc<str>] = &[Arc::from("k0")];
            prop_assert_eq!(map.kernels_for(&layer), Some(first));
            prop_assert_eq!(map.kernels_for(&layer), reference.kernels_for(&layer));
            // Merged in, the tied three are inserted in signature order.
            let (map, reference) = build_merged(&entries, split);
            prop_assert_eq!(map.kernels_for(&layer), reference.kernels_for(&layer));
        }
    }
}

/// A KW model trained on a few zoo networks, and its reloaded copy (whose
/// kernel ids follow file order instead of row order).
struct TrainedKw {
    trained: KwModel,
    loaded: KwModel,
    /// Layers of held-out networks: exact hits and nearest misses.
    probes: Vec<Layer>,
}

fn trained_kw() -> &'static TrainedKw {
    static KW: OnceLock<TrainedKw> = OnceLock::new();
    KW.get_or_init(|| {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let trained = KwModel::train(&ds, "A100").unwrap();
        let loaded = KwModel::from_text(&trained.to_text()).unwrap();
        let probes = [
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.4, 1.0),
        ]
        .iter()
        .flat_map(|n| n.layers().to_vec())
        .collect();
        TrainedKw {
            trained,
            loaded,
            probes,
        }
    })
}

/// KW pricing written the name-keyed way: the mapped kernel list, then
/// each kernel's cluster by [`Clustering::model_for`](dnnperf_core::Clustering::model_for).
fn kw_reference(kw: &KwModel, layer: &Layer, batch: usize) -> LayerCoverage {
    let Some(kernels) = kw.mapping().kernels_for(layer) else {
        return LayerCoverage::Unmapped;
    };
    let n = batch as f64;
    let drivers = [
        layer.input.elems() as f64 * n,
        layer_flops(layer) as f64 * n,
        layer.output.elems() as f64 * n,
    ];
    let mut seconds = 0.0;
    let mut missing = Vec::new();
    for k in kernels {
        match kw.clustering().model_for(k) {
            Some((driver, fit)) => seconds += fit.predict(drivers[driver.index()]).max(0.0),
            None => missing.push(k.clone()),
        }
    }
    if missing.is_empty() {
        LayerCoverage::Full(seconds)
    } else {
        LayerCoverage::Partial { seconds, missing }
    }
}

#[test]
fn kw_probe_layers_include_hits_and_misses() {
    let kw = trained_kw();
    let recorded: Vec<&LayerSignature> = kw.trained.mapping().entries().map(|(s, _)| s).collect();
    let mapped = |l: &&Layer| kw.trained.mapping().kernels_for(l).is_some();
    let (hits, misses): (Vec<&Layer>, Vec<&Layer>) = kw
        .probes
        .iter()
        .filter(mapped)
        .partition(|l| recorded.contains(&&LayerSignature::of_layer(l)));
    assert!(
        hits.len() > 10 && misses.len() > 10,
        "{} hits, {} misses",
        hits.len(),
        misses.len()
    );
}

props! {
    #[test]
    fn resolved_kw_pricing_matches_the_name_keyed_reference(
        layers in vec(
            (any_bool(), arb_layer(), 0usize..10_000)
                .prop_map(|(zoo, random, i)| {
                    let probes = &trained_kw().probes;
                    if zoo { probes[i % probes.len()].clone() } else { random }
                }),
            1..20,
        ),
        batch in 1usize..600,
    ) {
        let kw = trained_kw();
        for model in [&kw.trained, &kw.loaded] {
            let mut reference = Vec::new();
            for layer in &layers {
                let want = kw_reference(model, layer, batch);
                let got = model.predict_layer_coverage(layer, batch);
                prop_assert_eq!(got.seconds().to_bits(), want.seconds().to_bits(), "{layer:?}");
                prop_assert_eq!(&got, &want, "{layer:?}");
                prop_assert_eq!(model.predict_layer(layer, batch).to_bits(), want.seconds().to_bits());
                reference.push(want.seconds());
            }
            let net = Network::from_parts("probe", Family::ResNet, layers[0].input, layers.clone());
            let walked = model.predict_network(&net, batch).unwrap();
            prop_assert_eq!(walked.to_bits(), reference.iter().sum::<f64>().to_bits());
        }
    }
}
