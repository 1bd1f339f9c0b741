//! Prediction and training latency of the performance models.
//!
//! The paper's pitch is that predictions cost microseconds; this bench pins
//! that down per model, plus the one-off training cost. Runs under the
//! std-only [`dnnperf_bench::timer`] (no external harness).

use dnnperf_bench::timer::bench;
use dnnperf_core::{E2eModel, IgkwModel, KwModel, LwModel, Predictor};
use dnnperf_data::collect::collect;
use dnnperf_data::Dataset;
use dnnperf_gpu::GpuSpec;
use std::hint::black_box;

fn training_dataset() -> Dataset {
    let nets: Vec<_> = dnnperf_dnn::zoo::cnn_zoo()
        .into_iter()
        .step_by(10)
        .collect();
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("A40").unwrap(),
        GpuSpec::by_name("GTX 1080 Ti").unwrap(),
    ];
    collect(&nets, &gpus, &[128])
}

fn main() {
    let ds = training_dataset();
    let net = dnnperf_dnn::zoo::resnet::resnet50();
    let e2e = E2eModel::train(&ds, "A100").unwrap();
    let lw = LwModel::train(&ds, "A100").unwrap();
    let kw = KwModel::train(&ds, "A100").unwrap();
    let gpus: Vec<GpuSpec> = ["A100", "A40", "GTX 1080 Ti"]
        .iter()
        .map(|n| GpuSpec::by_name(n).unwrap())
        .collect();
    let igkw = IgkwModel::train(&ds, &gpus).unwrap();
    let titan = GpuSpec::by_name("TITAN RTX").unwrap();

    bench("predict_resnet50/e2e", 10, 100, || {
        e2e.predict_network(black_box(&net), 256).unwrap()
    });
    bench("predict_resnet50/lw", 10, 100, || {
        lw.predict_network(black_box(&net), 256).unwrap()
    });
    bench("predict_resnet50/kw", 10, 100, || {
        kw.predict_network(black_box(&net), 256).unwrap()
    });
    // IGKW prices an unseen GPU by specialising once and then walking the
    // specialised KW model; the two costs are timed apart.
    bench("igkw/specialise_unseen_gpu", 10, 100, || {
        igkw.specialise(black_box(&titan))
    });
    let specialised = igkw.specialise(&titan);
    bench("predict_resnet50/igkw_unseen_gpu", 10, 100, || {
        specialised.predict_network(black_box(&net), 256).unwrap()
    });

    bench("train/e2e", 2, 10, || {
        E2eModel::train(black_box(&ds), "A100").unwrap()
    });
    bench("train/lw", 2, 10, || {
        LwModel::train(black_box(&ds), "A100").unwrap()
    });
    bench("train/kw", 2, 10, || {
        KwModel::train(black_box(&ds), "A100").unwrap()
    });
}
