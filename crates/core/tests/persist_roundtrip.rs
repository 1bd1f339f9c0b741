//! Persistence integration tests: every trained model round-trips through
//! the text format exactly, and malformed inputs fail cleanly (no panics).

use dnnperf_core::{
    E2eModel, IgkwModel, KernelMap, KwModel, LayerSignature, LwModel, PersistError, Predictor,
};
use dnnperf_data::collect::collect;
use dnnperf_data::Dataset;
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use std::collections::BTreeSet;

fn dataset() -> Dataset {
    let nets = [
        dnnperf_dnn::zoo::resnet::resnet18(),
        dnnperf_dnn::zoo::resnet::resnet50(),
        dnnperf_dnn::zoo::vgg::vgg11(),
        dnnperf_dnn::zoo::densenet::densenet121(),
        dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
    ];
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    collect(&nets, &gpus, &[32])
}

/// A network outside [`dataset`] whose layers reach the nearest-signature
/// fallback of `map` (the training set's signatures are the same on every
/// GPU, so one GPU's map stands for all of them).
fn off_table_net(map: &KernelMap) -> Network {
    let net = dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.4, 1.0);
    let recorded: BTreeSet<&LayerSignature> = map.entries().map(|(sig, _)| sig).collect();
    let tags: BTreeSet<&str> = recorded.iter().map(|sig| &*sig.tag).collect();
    let misses = net
        .layers()
        .iter()
        .map(LayerSignature::of_layer)
        .filter(|sig| tags.contains(&*sig.tag) && !recorded.contains(sig))
        .count();
    assert!(misses > 10, "only {misses} layers miss the table");
    net
}

#[test]
fn e2e_round_trips_exactly() {
    let ds = dataset();
    let m = E2eModel::train(&ds, "A100").unwrap();
    assert_eq!(E2eModel::from_text(&m.to_text()).unwrap(), m);
}

#[test]
fn lw_round_trips_exactly() {
    let ds = dataset();
    let m = LwModel::train(&ds, "A100").unwrap();
    assert_eq!(LwModel::from_text(&m.to_text()).unwrap(), m);
}

#[test]
fn kw_round_trips_exactly_and_predicts_identically() {
    let ds = dataset();
    let m = KwModel::train(&ds, "A100").unwrap();
    let text = m.to_text();
    let back = KwModel::from_text(&text).unwrap();
    assert_eq!(back, m);
    let net = dnnperf_dnn::zoo::resnet::resnet34();
    assert_eq!(
        m.predict_network(&net, 64).unwrap(),
        back.predict_network(&net, 64).unwrap()
    );
    // Off the table: the loaded map rebuilds its candidates in file order,
    // the trained one in row order, and both must pick the same neighbour.
    let off = off_table_net(m.mapping());
    for batch in [1, 16, 256] {
        assert_eq!(
            m.predict_network(&off, batch).unwrap().to_bits(),
            back.predict_network(&off, batch).unwrap().to_bits(),
            "batch {batch}"
        );
    }
    // Serialization is deterministic.
    assert_eq!(text, back.to_text());
}

#[test]
fn igkw_round_trips_exactly_and_predicts_identically() {
    let ds = dataset();
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    let m = IgkwModel::train(&ds, &gpus).unwrap();
    let back = IgkwModel::from_text(&m.to_text()).unwrap();
    assert_eq!(back, m);
    let titan = GpuSpec::by_name("TITAN RTX").unwrap();
    let net = dnnperf_dnn::zoo::resnet::resnet34();
    assert_eq!(
        m.predict_network_on(&net, 64, &titan).unwrap(),
        back.predict_network_on(&net, 64, &titan).unwrap()
    );
    // The IGKW map merges the per-GPU maps, so its candidates come in
    // signature order per GPU; the loaded copy's come in file order.
    let off = off_table_net(KwModel::train(&ds, "A100").unwrap().mapping());
    for batch in [1, 16, 256] {
        assert_eq!(
            m.predict_network_on(&off, batch, &titan).unwrap().to_bits(),
            back.predict_network_on(&off, batch, &titan)
                .unwrap()
                .to_bits(),
            "batch {batch}"
        );
    }
}

#[test]
fn gpu_names_with_spaces_survive() {
    let nets = [dnnperf_dnn::zoo::resnet::resnet18()];
    let gpus = [GpuSpec::by_name("GTX 1080 Ti").unwrap()];
    let ds = collect(&nets, &gpus, &[16, 32]);
    let m = E2eModel::train(&ds, "GTX 1080 Ti").unwrap();
    let back = E2eModel::from_text(&m.to_text()).unwrap();
    assert_eq!(back.gpu(), "GTX 1080 Ti");
}

#[test]
fn wrong_kind_is_rejected() {
    let ds = dataset();
    let e2e = E2eModel::train(&ds, "A100").unwrap();
    let err = KwModel::from_text(&e2e.to_text()).unwrap_err();
    assert!(
        matches!(err, PersistError::WrongKind { expected: "kw", .. }),
        "{err}"
    );
}

#[test]
fn malformed_inputs_error_instead_of_panicking() {
    for text in [
        "",
        "garbage",
        "dnnperf-model v1 kw\n",
        "dnnperf-model v1 kw\ngpu A100\nmap not_a_number\n",
        "dnnperf-model v999 e2e\n",
        "dnnperf-model v1 e2e\ngpu A100\nfit 1.0 2.0\n", // too few fit fields
        "dnnperf-model v1 lw\ngpu A100\nfallback 1 2 3 4\ntypes 5\n", // truncated
        "dnnperf-model v1 igkw\nmetric warp_speed\n",
    ] {
        assert!(E2eModel::from_text(text).is_err() || text.contains(" e2e"));
        assert!(KwModel::from_text(text).is_err());
        assert!(LwModel::from_text(text).is_err() || text.contains(" lw"));
        assert!(IgkwModel::from_text(text).is_err());
    }
    // And the genuinely truncated variants error for their own kind too.
    assert!(E2eModel::from_text("dnnperf-model v1 e2e\ngpu A100\nfit 1.0 2.0\n").is_err());
    assert!(
        LwModel::from_text("dnnperf-model v1 lw\ngpu A100\nfallback 1 2 3 4\ntypes 5\n").is_err()
    );
}

#[test]
fn model_files_are_human_readable() {
    let ds = dataset();
    let m = KwModel::train(&ds, "A100").unwrap();
    let text = m.to_text();
    assert!(text.starts_with("dnnperf-model v1 kw\n"));
    assert!(text.contains("gpu A100"));
    assert!(text.contains("map "));
    assert!(text.contains("clustering "));
    // Every line is valid UTF-8 ASCII-ish text with a keyword.
    for line in text.lines() {
        assert!(line.split_whitespace().next().is_some());
    }
}
