//! Determinism conformance suite for the collection engine.
//!
//! The work-stealing engine promises that parallelism is a pure
//! performance feature: whatever the thread count and whatever the
//! stealing interleaving, the resulting [`Dataset`] is **equal** to the one
//! the serial reference path produces. These properties pin that contract across
//! randomized zoo subsets, GPU sets, batch lists and thread counts
//! (including more threads than grid points).

use dnnperf::data::collect::{collect, collect_opts, collect_parallel, evaluation_gpus};
use dnnperf::data::{CollectOptions, Dataset};
use dnnperf::dnn::{zoo, Network};
use dnnperf::gpu::GpuSpec;
use dnnperf_testkit::prelude::*;

/// Small, cheap-to-profile networks so the property runs stay fast.
fn net_pool() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
        zoo::squeezenet::squeezenet(128, 128, 0.25),
    ]
}

/// Picks a non-empty, duplicate-free subset by index.
fn pick<T: Clone>(pool: &[T], indices: &[usize]) -> Vec<T> {
    let mut seen = vec![false; pool.len()];
    let mut out = Vec::new();
    for &i in indices {
        let i = i % pool.len();
        if !seen[i] {
            seen[i] = true;
            out.push(pool[i].clone());
        }
    }
    out
}

fn grid(
    net_idx: &[usize],
    gpu_idx: &[usize],
    batches: &[usize],
) -> (Vec<Network>, Vec<GpuSpec>, Vec<usize>) {
    (
        pick(&net_pool(), net_idx),
        pick(&evaluation_gpus(), gpu_idx),
        batches.to_vec(),
    )
}

props! {
    /// The tentpole contract: work-stealing collection at any worker count
    /// reproduces the serial dataset exactly — same rows, same order, same
    /// bits. Thread counts run past the grid size on purpose (threads >
    /// jobs leaves some workers with empty deques from the start).
    #[test]
    fn parallel_collection_matches_serial(
        net_idx in vec(0usize..4, 1..=3),
        gpu_idx in vec(0usize..5, 1..=2),
        batches in vec(select(vec![1usize, 2, 4, 8]), 1..=2),
        threads in 1usize..33,
    ) {
        let (nets, gpus, batches) = grid(&net_idx, &gpu_idx, &batches);
        let serial = collect(&nets, &gpus, &batches);
        let parallel = collect_parallel(&nets, &gpus, &batches, threads);
        prop_assert_eq!(serial, parallel);
    }
}

/// Degenerate grids: empty inputs must behave identically on both paths
/// (and not panic with workers outnumbering a zero-job grid).
#[test]
fn empty_grids_match_serial() {
    let nets = net_pool();
    let gpus = evaluation_gpus();
    let empty_nets: &[Network] = &[];
    let empty_gpus: &[GpuSpec] = &[];
    let empty_batches: &[usize] = &[];
    for threads in [1usize, 4, 16] {
        assert_eq!(
            collect(empty_nets, &gpus, &[4]),
            collect_parallel(empty_nets, &gpus, &[4], threads)
        );
        assert_eq!(
            collect(&nets[..1], empty_gpus, &[4]),
            collect_parallel(&nets[..1], empty_gpus, &[4], threads)
        );
        assert_eq!(
            collect(&nets[..1], &gpus[..1], empty_batches),
            collect_parallel(&nets[..1], &gpus[..1], empty_batches, threads)
        );
    }
    assert_eq!(collect(empty_nets, &gpus, &[4]), Dataset::default());
}

/// `threads = 0` means "auto": the engine must still match serial output.
#[test]
fn auto_thread_count_matches_serial() {
    let nets = net_pool();
    let gpus = evaluation_gpus();
    let serial = collect(&nets[..2], &gpus[..2], &[2, 4]);
    let auto = collect_opts(
        &nets[..2],
        &gpus[..2],
        &[2, 4],
        &CollectOptions {
            threads: 0,
            ..CollectOptions::default()
        },
    );
    assert_eq!(serial, auto);
}

/// The serving-path contract: a [`CompiledPlan`] is a pure performance
/// feature. For every network × batch in the grid, the cached answer must
/// reproduce the legacy recompute-every-call predictors **bit for bit** —
/// the plain KW sum and the graceful-degradation ladder alike.
#[test]
fn compiled_plans_match_legacy_predictors_bit_for_bit() {
    use dnnperf::dnn::zoo;
    use dnnperf::model::plan::CompiledPlan;
    use dnnperf::model::{Predictor, Workflow};

    let train = [
        zoo::resnet::resnet18(),
        zoo::resnet::resnet34(),
        zoo::vgg::vgg11(),
        zoo::mobilenet::mobilenet_v2(1.0, 1.0),
    ];
    let gpu = GpuSpec::by_name("A100").unwrap();
    let ds = collect(&train, std::slice::from_ref(&gpu), &[32]);
    let suite = Workflow::train(&ds, "A100").unwrap();

    let probes = [
        zoo::resnet::resnet50(),
        zoo::vgg::vgg16(),
        zoo::densenet::densenet121(),
        zoo::squeezenet::squeezenet(128, 128, 0.25),
    ];
    for net in &probes {
        for batch in [1usize, 2, 4, 8, 32] {
            let legacy = suite.kw.predict_network(net, batch).unwrap();
            // One-shot compile and the cached Workflow::predict path.
            let plan = CompiledPlan::compile(&suite, net, batch).unwrap();
            assert_eq!(
                plan.predict().to_bits(),
                legacy.to_bits(),
                "{} @ {batch}: compiled plan diverged from KW",
                net.name()
            );
            assert_eq!(
                suite.predict(net, batch).unwrap().to_bits(),
                legacy.to_bits(),
                "{} @ {batch}: cached predict diverged from KW",
                net.name()
            );
            // The graceful ladder, cached vs reference.
            let fast = suite.predict_graceful(net, batch).unwrap();
            let slow = suite.predict_graceful_uncompiled(net, batch).unwrap();
            assert_eq!(fast.seconds.to_bits(), slow.seconds.to_bits());
            assert_eq!(fast.notes, slow.notes);
        }
    }
    // Every (probe, batch) pair landed in the plan cache exactly once.
    assert_eq!(suite.cached_plans(), probes.len() * 5);
}

/// The training-path contract: fanning the per-kernel classification fits
/// and per-cluster pooled refits over the work-stealing pool must yield a
/// model suite **byte-identical** to serial training at every thread
/// count, including thread counts past the kernel count.
#[test]
fn parallel_training_is_byte_identical_across_thread_counts() {
    use dnnperf::dnn::zoo;
    use dnnperf::model::{Predictor, TrainOptions, Workflow};

    let train = [
        zoo::resnet::resnet18(),
        zoo::resnet::resnet34(),
        zoo::vgg::vgg11(),
        zoo::mobilenet::mobilenet_v2(1.0, 1.0),
    ];
    let gpu = GpuSpec::by_name("A100").unwrap();
    let ds = collect(&train, std::slice::from_ref(&gpu), &[32]);
    let serial = Workflow::train_opts(&ds, "A100", &TrainOptions::serial()).unwrap();
    assert_eq!(
        serial.kw.to_text(),
        Workflow::train(&ds, "A100").unwrap().kw.to_text()
    );

    let probe = zoo::resnet::resnet50();
    for threads in [1usize, 2, 3, 8, 32] {
        let par = Workflow::train_opts(&ds, "A100", &TrainOptions::with_threads(threads)).unwrap();
        assert_eq!(par.kw, serial.kw, "threads = {threads}");
        assert_eq!(
            par.kw.to_text().into_bytes(),
            serial.kw.to_text().into_bytes(),
            "threads = {threads}: persisted KW models differ"
        );
        assert_eq!(
            par.kw.predict_network(&probe, 32).unwrap().to_bits(),
            serial.kw.predict_network(&probe, 32).unwrap().to_bits(),
            "threads = {threads}"
        );
    }
    // `threads: 0` (auto) resolves to the machine's parallelism and must
    // stay on the same bytes.
    let auto = Workflow::train_opts(&ds, "A100", &TrainOptions::default()).unwrap();
    assert_eq!(auto.kw, serial.kw);
}

/// Sub-chunk determinism: when one kernel group (and one pooled cluster)
/// spans several `FIT_CHUNK` row chunks, the chunked partial accumulators
/// split across workers — and must still fold back to the serial bytes at
/// every thread count. The zoo grids above never put >1024 rows behind a
/// single kernel, so this pins the contract on a synthetic dataset that
/// does.
#[test]
fn training_on_chunk_spanning_groups_is_byte_identical() {
    use dnnperf::linreg::FIT_CHUNK;
    use dnnperf::model::{classify_view, cluster_view};
    use std::sync::Arc;

    let mut rows = Vec::new();
    for (kernel, slope) in [
        ("gemm_big", 2.5e-9),
        ("gemm_close", 2.6e-9),
        ("tiny", 4.0e-9),
    ] {
        // Two kernels with FIT_CHUNK+∆ rows each (their pooled cluster
        // spans ~3 chunks), one small kernel that fits in a chunk.
        let n = if kernel == "tiny" {
            64
        } else {
            FIT_CHUNK + 321
        };
        for i in 1..=n as u64 {
            rows.push(dnnperf::data::KernelRow {
                network: Arc::from("synthetic"),
                gpu: Arc::from("A100"),
                batch: 1,
                layer_index: 0,
                layer_type: Arc::from("conv"),
                kernel: Arc::from(kernel),
                in_elems: 1,
                flops: i * 1000,
                out_elems: 1,
                seconds: slope * (i * 1000) as f64 + 1.0e-6 * ((i % 7) as f64),
            });
        }
    }
    let refs: Vec<&dnnperf::data::KernelRow> = rows.iter().collect();
    let view = dnnperf::data::DatasetView::from_refs(&refs);
    assert!(view.num_rows() > 2 * FIT_CHUNK);

    let serial_classes = classify_view(&view, 1);
    let serial_clusters = cluster_view(&view, &serial_classes, 1.08, 1);
    assert_eq!(
        serial_clusters.cluster_of("gemm_big"),
        serial_clusters.cluster_of("gemm_close"),
        "close slopes must pool into one chunk-spanning cluster"
    );
    for threads in [2usize, 3, 8, 32] {
        let classes = classify_view(&view, threads);
        assert_eq!(classes, serial_classes, "classify threads = {threads}");
        assert_eq!(
            cluster_view(&view, &classes, 1.08, threads),
            serial_clusters,
            "cluster threads = {threads}"
        );
    }
}
