//! PERF: hot-path microbenchmarks with a regression gate.
//!
//! Measures the four stages of the serving and training hot paths —
//! full-grid dataset collection, model training (serial vs pooled), plan
//! compilation, and cold/warm/legacy prediction sweeps — with the in-tree
//! timer (untimed warmup, median-of-k summaries). Three derived figures
//! anchor the regression gate:
//!
//! * **warm-predict ns/kernel** — the serving hot path: median sweep time
//!   (one plan-cache lookup per request) divided by the number of kernel
//!   terms the cached answers priced;
//! * **warm-vs-legacy speedup** — warm sweep vs the uncompiled
//!   `KwModel::predict_network` on identical requests (machine-relative,
//!   so the gate travels across hardware);
//! * **cold-walk ns/layer** — the uncompiled sweep divided by the number
//!   of layers it walks: one kernel-map lookup and the layer's regressions
//!   per layer, with no cache in front;
//! * **cold-sweep checksum** — an FNV-1a hash of the bits of every strict
//!   and graceful answer of the uncompiled sweep, whose held-out networks
//!   include signatures the kernel map must answer by nearest fallback. It
//!   pins the walk's answers, not its speed;
//! * **train speedup at 8 threads** — pooled vs serial KW training. The
//!   training pool clamps its worker count to the machine's cores, so on
//!   a box with fewer than [`MIN_CORES_FOR_SPEEDUP_GATE`] cores the figure
//!   is printed as `unmeasured (N cores)`; the JSON keeps the ratio next
//!   to `cores`.
//!
//! A second mode, `--train-scaling`, sweeps KW training over worker counts
//! {1, 2, 4, 8} on an enlarged multi-network grid (BENCH_9.json). Before
//! timing anything it retrains at every thread count and hard-aborts unless
//! the serialized models are **byte-identical** — the mergeable-accumulator
//! determinism contract is a correctness gate, not a statistic. The report
//! records the machine's cores so the scaling figures are interpretable:
//! the speedup gate only binds on boxes with at least
//! [`MIN_CORES_FOR_SPEEDUP_GATE`] cores; below that the gate falls back to
//! a serial ns/row throughput floor.
//!
//! Flags:
//!
//! * `--smoke` — reduced warmup/iteration counts for CI;
//! * `--train-scaling` — run the training scaling sweep instead of the
//!   serving microbenchmarks;
//! * `--out PATH` — write the results as one JSON document (BENCH_5.json,
//!   or BENCH_9.json with `--train-scaling`);
//! * `--check PATH` — validate the baseline, re-measure, then gate against
//!   it row by row (see [`serving_table`] and [`scaling_table`]): the sweep
//!   counts and the cold-sweep checksum must match exactly, warm-predict ns/kernel and cold-walk
//!   ns/layer may not regress by more than 2x, and the warm-vs-legacy
//!   speedup may not fall below 5x. With `--train-scaling`: the grid's
//!   row and kernel-group counts must match exactly, and the 8-thread
//!   train speedup must be at least 2x (cores permitting) or else serial
//!   training ns/row may not regress by more than 2x.

use dnnperf_bench::report::{self, Bound, Cores, Flags, Row, Table};
use dnnperf_bench::timer::{bench, BenchResult};
use dnnperf_core::plan::CompiledPlan;
use dnnperf_core::{Predictor, TrainOptions, Workflow};
use dnnperf_data::collect::collect;
use dnnperf_data::DatasetView;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;

/// Maximum tolerated regression of warm-predict ns/kernel vs the baseline.
const MAX_NS_PER_KERNEL_REGRESSION: f64 = 2.0;
/// Maximum tolerated regression of cold-walk ns/layer vs the baseline.
const MAX_NS_PER_LAYER_REGRESSION: f64 = 2.0;
/// Minimum tolerated warm-vs-legacy speedup.
const MIN_WARM_SPEEDUP: f64 = 5.0;
/// Minimum tolerated 8-thread training speedup — only enforced on machines
/// with at least [`MIN_CORES_FOR_SPEEDUP_GATE`] cores.
const MIN_TRAIN_SPEEDUP_THREADS8: f64 = 2.0;
/// Cores below which the train-scaling gate cannot expect parallel speedup
/// and falls back to the serial ns/row throughput floor.
const MIN_CORES_FOR_SPEEDUP_GATE: usize = 4;
/// Maximum tolerated regression of serial training ns/row vs the baseline.
const MAX_TRAIN_NS_PER_ROW_REGRESSION: f64 = 2.0;
/// Worker counts the training scaling sweep measures.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// A pooled-training speedup at `threads` workers as printed: the ratio,
/// or `unmeasured (N cores)` when the box has fewer cores than the
/// workers (up to [`MIN_CORES_FOR_SPEEDUP_GATE`]), where a ratio would
/// time oversubscription rather than parallelism.
fn speedup_text(speedup: f64, threads: usize, cores: usize) -> String {
    if cores >= threads.min(MIN_CORES_FOR_SPEEDUP_GATE) {
        format!("{speedup:.2}x")
    } else {
        format!(
            "unmeasured ({cores} core{})",
            if cores == 1 { "" } else { "s" }
        )
    }
}

fn train_nets() -> Vec<Network> {
    vec![
        zoo::resnet::resnet18(),
        zoo::resnet::resnet34(),
        zoo::resnet::resnet50(),
        zoo::vgg::vgg11(),
        zoo::vgg::vgg16(),
        zoo::densenet::densenet121(),
        zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        zoo::squeezenet::squeezenet(128, 128, 0.125),
    ]
}

/// The prediction sweep: held-out networks across a batch scan — the
/// repeated-request pattern the plan cache exists for.
fn sweep_pairs() -> Vec<(Network, usize)> {
    let probes = [
        zoo::resnet::resnet77(),
        zoo::resnet::resnet101(),
        zoo::vgg::vgg13(),
        zoo::densenet::densenet169(),
        zoo::mobilenet::mobilenet_v2(1.4, 1.0),
    ];
    let mut pairs = Vec::new();
    for net in probes {
        for batch in [1usize, 8, 32, 64] {
            pairs.push((net.clone(), batch));
        }
    }
    pairs
}

struct Report {
    cores: usize,
    sweep_pairs: usize,
    sweep_kernel_terms: usize,
    sweep_layers: usize,
    warm_ns_per_kernel: f64,
    cold_walk_ns_per_layer: f64,
    cold_sweep_checksum: u64,
    warm_vs_legacy_speedup: f64,
    train_speedup_threads8: f64,
    entries: Vec<BenchResult>,
}

/// BENCH_5. The sweep counts are pinned because ns/kernel and ns/layer
/// compare only over the same work, and the checksum because a faster walk
/// must give the same answers.
fn serving_table() -> Table<Report> {
    type R = Row<Report>;
    Table::new(
        "dnnperf-bench-5",
        vec![
            R::int("cores", |r| r.cores as u64),
            R::int("sweep_pairs", |r| r.sweep_pairs as u64).gate(Bound::Exact),
            R::int("sweep_kernel_terms", |r| r.sweep_kernel_terms as u64).gate(Bound::Exact),
            R::int("sweep_layers", |r| r.sweep_layers as u64).gate(Bound::Exact),
            R::fixed("warm_predict_ns_per_kernel", 3, |r| r.warm_ns_per_kernel)
                .gate(Bound::AtMostTimes(MAX_NS_PER_KERNEL_REGRESSION)),
            R::fixed("cold_walk_ns_per_layer", 3, |r| r.cold_walk_ns_per_layer)
                .gate(Bound::AtMostTimes(MAX_NS_PER_LAYER_REGRESSION)),
            R::int("cold_sweep_checksum", |r| r.cold_sweep_checksum).gate(Bound::Exact),
            R::fixed("warm_vs_legacy_speedup", 2, |r| r.warm_vs_legacy_speedup)
                .gate(Bound::Floor(MIN_WARM_SPEEDUP)),
            R::fixed("train_speedup_threads8", 2, |r| r.train_speedup_threads8),
        ],
    )
}

/// FNV-1a over the bits of the strict and graceful answer of every sweep
/// pair, walked uncompiled. Shifted down to 53 bits, so the JSON number
/// holds it exactly.
fn sweep_checksum(suite: &Workflow, pairs: &[(Network, usize)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (net, batch) in pairs {
        let strict = suite.kw.predict_network(net, *batch).expect("predict");
        let graceful = suite
            .predict_graceful_uncompiled(net, *batch)
            .expect("predict")
            .seconds;
        for byte in [strict, graceful]
            .iter()
            .flat_map(|s| s.to_bits().to_le_bytes())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash >> 11
}

fn run(smoke: bool) -> Report {
    // (warmup, iters) per stage; collection and training are orders of
    // magnitude slower than prediction, so they get fewer iterations.
    let (slow_w, slow_i, fast_w, fast_i) = if smoke { (1, 3, 2, 9) } else { (2, 9, 5, 41) };

    let gpu = GpuSpec::by_name("A100").expect("A100 spec");
    let nets = train_nets();
    // A multi-batch grid: every kernel symbol accumulates rows from each
    // (network, batch) point, so the per-kernel classification fits carry
    // real work for the training pool to split.
    let batches = [8usize, 16, 32, 64];
    let mut entries = Vec::new();

    entries.push(bench("collect/full_grid", slow_w, slow_i, || {
        collect(&nets, std::slice::from_ref(&gpu), &batches)
    }));
    let ds = collect(&nets, std::slice::from_ref(&gpu), &batches);

    let t1 = bench("train/threads1", slow_w, slow_i, || {
        Workflow::train_opts(&ds, "A100", &TrainOptions::serial()).expect("train")
    });
    let t8 = bench("train/threads8", slow_w, slow_i, || {
        Workflow::train_opts(&ds, "A100", &TrainOptions::with_threads(8)).expect("train")
    });

    let suite = Workflow::train(&ds, "A100").expect("train");
    let pairs = sweep_pairs();
    let sweep_kernel_terms: usize = pairs
        .iter()
        .map(|(n, b)| suite.plan(n, *b).expect("plan").num_terms())
        .sum();
    let sweep_layers: usize = pairs.iter().map(|(n, _)| n.layers().len()).sum();
    let cold_sweep_checksum = sweep_checksum(&suite, &pairs);
    suite.invalidate_plans();

    let (net0, batch0) = (&pairs[0].0, pairs[0].1);
    entries.push(bench("plan/compile", fast_w, fast_i, || {
        CompiledPlan::compile(&suite, net0, batch0).expect("compile")
    }));

    entries.push(bench("predict/cold_sweep", fast_w, fast_i, || {
        pairs
            .iter()
            .map(|(n, b)| {
                CompiledPlan::compile(&suite, n, *b)
                    .expect("compile")
                    .predict()
            })
            .sum::<f64>()
    }));
    let warm = bench("predict/warm_sweep", fast_w, fast_i, || {
        pairs
            .iter()
            .map(|(n, b)| suite.predict(n, *b).expect("predict"))
            .sum::<f64>()
    });
    let legacy = bench("predict/legacy_sweep", fast_w, fast_i, || {
        pairs
            .iter()
            .map(|(n, b)| suite.kw.predict_network(n, *b).expect("predict"))
            .sum::<f64>()
    });

    let warm_ns_per_kernel = warm.median_ns / sweep_kernel_terms as f64;
    let cold_walk_ns_per_layer = legacy.median_ns / sweep_layers as f64;
    let warm_vs_legacy_speedup = legacy.median_ns / warm.median_ns;
    let train_speedup_threads8 = t1.median_ns / t8.median_ns;
    entries.insert(1, t1);
    entries.insert(2, t8);
    entries.push(warm);
    entries.push(legacy);

    Report {
        cores: report::cores(),
        sweep_pairs: pairs.len(),
        sweep_kernel_terms,
        sweep_layers,
        warm_ns_per_kernel,
        cold_walk_ns_per_layer,
        cold_sweep_checksum,
        warm_vs_legacy_speedup,
        train_speedup_threads8,
        entries,
    }
}

/// The enlarged training grid for the scaling sweep: enough networks and
/// batch points that the per-kernel row counts give the chunked
/// accumulators real work to split across workers.
fn scaling_nets() -> Vec<Network> {
    let mut nets = train_nets();
    nets.extend([
        zoo::resnet::resnet77(),
        zoo::resnet::resnet101(),
        zoo::vgg::vgg13(),
        zoo::densenet::densenet169(),
    ]);
    nets
}

struct ScalingReport {
    cores: usize,
    train_rows: usize,
    kernel_groups: usize,
    ns_per_row_threads1: f64,
    speedups: [f64; 4],
    entries: Vec<BenchResult>,
}

/// BENCH_9. The grid counts are pinned because ns/row compares only over
/// the same rows. Below [`MIN_CORES_FOR_SPEEDUP_GATE`] cores no parallel
/// speedup can exist, so serial throughput is gated instead, and training
/// perf cannot silently rot on small boxes.
fn scaling_table() -> Table<ScalingReport> {
    type R = Row<ScalingReport>;
    Table::new(
        "dnnperf-bench-9",
        vec![
            R::int("cores", |r| r.cores as u64),
            R::int("train_rows", |r| r.train_rows as u64).gate(Bound::Exact),
            R::int("kernel_groups", |r| r.kernel_groups as u64).gate(Bound::Exact),
            R::fixed("train_ns_per_row_threads1", 3, |r| r.ns_per_row_threads1).gate_on(
                Cores::Below(MIN_CORES_FOR_SPEEDUP_GATE),
                Bound::AtMostTimes(MAX_TRAIN_NS_PER_ROW_REGRESSION),
            ),
            R::fixed("train_speedup_threads1", 2, |r| r.speedups[0]),
            R::fixed("train_speedup_threads2", 2, |r| r.speedups[1]),
            R::fixed("train_speedup_threads4", 2, |r| r.speedups[2]),
            R::fixed("train_speedup_threads8", 2, |r| r.speedups[3]).gate_on(
                Cores::AtLeast(MIN_CORES_FOR_SPEEDUP_GATE),
                Bound::Floor(MIN_TRAIN_SPEEDUP_THREADS8),
            ),
        ],
    )
}

fn run_train_scaling(smoke: bool) -> ScalingReport {
    let (warm, iters) = if smoke { (1, 5) } else { (2, 15) };

    let gpu = GpuSpec::by_name("A100").expect("A100 spec");
    let nets = scaling_nets();
    let batches = [4usize, 8, 16, 32, 64];
    let ds = collect(&nets, std::slice::from_ref(&gpu), &batches);
    let rows: Vec<&dnnperf_data::KernelRow> = ds.kernels.iter().collect();
    let view = DatasetView::from_refs(&rows);
    let train_rows = view.num_rows();
    let kernel_groups = view.num_groups();

    // Byte-identity first: the whole point of the canonical FIT_CHUNK
    // reduction tree is that thread count never changes the model. Abort
    // before timing anything if it does.
    let reference = Workflow::train_opts(&ds, "A100", &TrainOptions::serial())
        .expect("train")
        .kw
        .to_text();
    let auto = TrainOptions::from_env();
    let candidates = SCALING_THREADS
        .iter()
        .map(|&t| (format!("threads{t}"), TrainOptions::with_threads(t)))
        .chain([(format!("auto({})", auto.effective_threads()), auto.clone())]);
    for (label, opts) in candidates {
        let text = Workflow::train_opts(&ds, "A100", &opts)
            .expect("train")
            .kw
            .to_text();
        if text != reference {
            eprintln!(
                "ABORT: training at {label} produced a model that differs \
                 from the serial reference — determinism contract violated"
            );
            std::process::exit(1);
        }
    }

    let entries: Vec<BenchResult> = SCALING_THREADS
        .iter()
        .map(|&t| {
            let opts = TrainOptions::with_threads(t);
            bench(
                match t {
                    1 => "train/threads1",
                    2 => "train/threads2",
                    4 => "train/threads4",
                    _ => "train/threads8",
                },
                warm,
                iters,
                || Workflow::train_opts(&ds, "A100", &opts).expect("train"),
            )
        })
        .collect();

    let t1_ns = entries[0].median_ns;
    let speedups = [
        1.0,
        t1_ns / entries[1].median_ns,
        t1_ns / entries[2].median_ns,
        t1_ns / entries[3].median_ns,
    ];

    ScalingReport {
        cores: report::cores(),
        train_rows,
        kernel_groups,
        ns_per_row_threads1: t1_ns / train_rows.max(1) as f64,
        speedups,
        entries,
    }
}

fn main_train_scaling(flags: &Flags) {
    let table = scaling_table();
    let baseline = table.baseline(flags);
    dnnperf_bench::banner("PERF", "training scaling sweep (mergeable accumulators)");
    let report = run_train_scaling(flags.smoke);
    println!();
    println!(
        "train grid: {} rows, {} kernel groups, {} core{}  \
         (serial {:.0} ns/row)",
        report.train_rows,
        report.kernel_groups,
        report.cores,
        if report.cores == 1 { "" } else { "s" },
        report.ns_per_row_threads1
    );
    for (&t, s) in SCALING_THREADS.iter().zip(report.speedups) {
        println!("  threads {t}: {}", speedup_text(s, t, report.cores));
    }
    println!("byte-identity: OK at every thread count");
    table.publish(flags, &report, &report.entries, baseline);
}

fn main() {
    let flags = Flags::parse("perf", &["--train-scaling"]);
    if flags.switch("--train-scaling") {
        main_train_scaling(&flags);
        return;
    }
    let table = serving_table();
    let baseline = table.baseline(&flags);
    dnnperf_bench::banner(
        "PERF",
        "cached-answer serving and pooled-training microbenchmarks",
    );

    let report = run(flags.smoke);
    println!();
    println!(
        "warm predict: {:.1} ns/kernel over {} terms ({} sweep pairs)",
        report.warm_ns_per_kernel, report.sweep_kernel_terms, report.sweep_pairs
    );
    println!(
        "cold walk: {:.1} ns/layer over {} layers (checksum {})",
        report.cold_walk_ns_per_layer, report.sweep_layers, report.cold_sweep_checksum
    );
    println!(
        "warm vs legacy speedup: {:.2}x   train speedup (8 threads): {}",
        report.warm_vs_legacy_speedup,
        speedup_text(report.train_speedup_threads8, 8, report.cores)
    );
    table.publish(&flags, &report, &report.entries, baseline);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(table: &str) -> String {
        let path = format!("{}/../../{table}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("committed baseline")
    }

    #[test]
    fn committed_baselines_carry_every_gated_key() {
        serving_table()
            .validate("BENCH_5.json", committed("BENCH_5.json"))
            .expect("BENCH_5");
        scaling_table()
            .validate("BENCH_9.json", committed("BENCH_9.json"))
            .expect("BENCH_9");
    }

    #[test]
    fn bench9_gates_speedup_on_big_boxes_and_serial_ns_per_row_below() {
        let table = scaling_table();
        let baseline = table
            .validate("BENCH_9.json", committed("BENCH_9.json"))
            .expect("BENCH_9");
        let run = |ns_per_row_threads1: f64, speedup8: f64| ScalingReport {
            cores: 0,
            train_rows: 14_495,
            kernel_groups: 70,
            ns_per_row_threads1,
            speedups: [1.0, 1.0, 1.0, speedup8],
            entries: Vec::new(),
        };
        // The committed serial figure is a few hundred ns/row.
        let (slow, fast) = (1e6, 1.0);
        for cores in [1, 2, 3] {
            let fails = table
                .check(&run(slow, 8.0), &baseline, cores)
                .expect_err("serial ns/row binds below 4 cores");
            assert_eq!(fails.len(), 1);
            assert!(fails[0].contains("train_ns_per_row_threads1"), "{fails:?}");
            table
                .check(&run(fast, 0.5), &baseline, cores)
                .expect("speedup does not bind below 4 cores");
        }
        for cores in [4, 64] {
            let fails = table
                .check(&run(fast, 1.99), &baseline, cores)
                .expect_err("speedup binds at 4+ cores");
            assert_eq!(fails.len(), 1);
            assert!(fails[0].contains("train_speedup_threads8"), "{fails:?}");
            table
                .check(&run(slow, 2.0), &baseline, cores)
                .expect("serial ns/row does not bind at 4+ cores");
        }
        let fails = table
            .check(
                &ScalingReport {
                    train_rows: 14_496,
                    ..run(fast, 2.0)
                },
                &baseline,
                1,
            )
            .expect_err("the grid is pinned");
        assert!(fails[0].contains("train_rows = 14496"), "{fails:?}");
    }
}
