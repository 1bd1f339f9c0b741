//! `offline-train`: the paper's own pipeline, pass after pass. Each pass
//! profiles the 646-network CNN zoo on the five evaluation GPUs at the
//! training batch size, splits the networks into train and test sets,
//! trains a model suite per GPU and measures the held-out KW error.
//! No serving code runs.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{explained_share, Tracer};
use crate::{
    cores, median_setup, now, overhead_pct, secs, set_all, set_collect, write_spans, zoo, Opts,
};
use dnnperf_core::cluster::DEFAULT_SLOPE_TOLERANCE;
use dnnperf_core::workflow::predictions_vs_measurements;
use dnnperf_core::{
    classify_view, cluster_view, E2eModel, KwModel, LwModel, TrainOptions, Workflow,
};
use dnnperf_data::collect::{collect_report_opts, evaluation_gpus, TRAIN_BATCH};
use dnnperf_data::split::split_dataset;
use dnnperf_data::{CollectOptions, CollectReport, Dataset, DatasetView, KernelRow};
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use dnnperf_linreg::mean_abs_rel_error;
use std::collections::BTreeSet;

/// The canonical train/test split of every experiment.
const SPLIT_SEED: u64 = 2023;
/// The GPU whose held-out KW error the workload checks.
const CHECKED_GPU: &str = "A100";
/// A100 held-out KW mean absolute relative error of the full pipeline,
/// in percent. The pipeline is deterministic, so any other value means
/// its output changed.
const REFERENCE_KW_ERROR_PCT: f64 = 7.008_541_656_671_882;
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// What a user has in hand before the first pass: the zoo and the GPUs.
struct Inputs {
    zoo: Vec<Network>,
    gpus: Vec<GpuSpec>,
    /// Order the suites are trained in: the seed rotates it. Models do not
    /// depend on it, so every seed must give the same models and error.
    train_order: Vec<usize>,
    /// Index of [`CHECKED_GPU`] in `gpus`.
    checked: usize,
}

fn setup(opts: &Opts) -> Inputs {
    let zoo = zoo(opts.smoke);
    let gpus = evaluation_gpus();
    let mut train_order: Vec<usize> = (0..gpus.len()).collect();
    train_order.rotate_left((opts.seed % gpus.len() as u64) as usize);
    let checked = gpus
        .iter()
        .position(|g| g.name == CHECKED_GPU)
        .expect("A100 is an evaluation GPU");
    Inputs {
        zoo,
        gpus,
        train_order,
        checked,
    }
}

struct PassOut {
    seconds: f64,
    rows: usize,
    collect: CollectReport,
    /// Held-out KW error per GPU (percent), in `Inputs::gpus` order.
    errors: Vec<f64>,
    suites: Vec<Workflow>,
    train: Dataset,
}

fn pass(inp: &Inputs, id: u64, tr: &mut Tracer) -> PassOut {
    let threads = cores();
    let t = now();
    let out = tr.span("pass", id, |tr| {
        let (ds, collect) = tr.span("collect", id, |_| {
            collect_report_opts(
                &inp.zoo,
                &inp.gpus,
                &[TRAIN_BATCH],
                &CollectOptions::with_threads(threads),
            )
        });
        let (train, test) = tr.span("split", id, |_| split_dataset(&ds, SPLIT_SEED));
        let mut trained: Vec<(usize, Workflow)> = inp
            .train_order
            .iter()
            .map(|&g| {
                let suite = tr.span("train", id, |_| {
                    Workflow::train_opts(
                        &train,
                        &inp.gpus[g].name,
                        &TrainOptions::with_threads(threads),
                    )
                    .expect("every evaluation GPU has training rows")
                });
                (g, suite)
            })
            .collect();
        trained.sort_by_key(|(g, _)| *g);
        let suites: Vec<Workflow> = trained.into_iter().map(|(_, s)| s).collect();
        let errors = tr.span("eval", id, |_| {
            let names: BTreeSet<String> = test.network_names().into_iter().collect();
            let test_nets: Vec<Network> = inp
                .zoo
                .iter()
                .filter(|n| names.contains(n.name()))
                .cloned()
                .collect();
            suites
                .iter()
                .map(|s| {
                    let pairs = predictions_vs_measurements(&s.kw, &test_nets, TRAIN_BATCH, &test);
                    let (pred, meas): (Vec<f64>, Vec<f64>) =
                        pairs.into_iter().map(|(_, p, m)| (p, m)).unzip();
                    mean_abs_rel_error(&pred, &meas) * 100.0
                })
                .collect()
        });
        let rows = ds.kernels.len();
        // Freeing the collected rows is part of a pass too.
        tr.span("free", id, |_| drop((ds, test)));
        PassOut {
            seconds: 0.0,
            rows,
            collect,
            errors,
            suites,
            train,
        }
    });
    PassOut {
        seconds: secs(t),
        ..out
    }
}

/// Pass timings of one measured run, plus the last pass for the probe.
struct Passes {
    seconds: Vec<f64>,
    rows: usize,
    last: PassOut,
}

/// Runs passes until `budget` seconds have gone by (at least
/// `min_passes`), checking every pass's models and error against the
/// first pass and the reference.
fn run_passes(
    inp: &Inputs,
    opts: &Opts,
    budget: f64,
    min_passes: usize,
    tr: &mut Tracer,
    report: &mut Report,
) -> Passes {
    let start = now();
    let mut seconds = Vec::new();
    let mut first: Option<(Vec<String>, Vec<u64>)> = None;
    let mut id = 0;
    loop {
        let out = pass(inp, id, tr);
        id += 1;
        report.attempt(1);
        seconds.push(out.seconds);
        let texts: Vec<String> = out.suites.iter().map(|s| s.kw.to_text()).collect();
        let error_bits: Vec<u64> = out.errors.iter().map(|e| e.to_bits()).collect();
        match &first {
            None => first = Some((texts, error_bits)),
            Some((t0, e0)) => {
                if *t0 != texts {
                    report.fail(1, "a pass trained different KW models than the first pass");
                } else if *e0 != error_bits {
                    report.fail(
                        1,
                        "a pass measured a different KW error than the first pass",
                    );
                }
            }
        }
        let error = out.errors[inp.checked];
        let off_reference = (error / REFERENCE_KW_ERROR_PCT - 1.0).abs() > REFERENCE_TOLERANCE;
        if !opts.smoke && off_reference {
            report.fail(
                1,
                format!(
                    "A100 held-out KW error is {error}%, the pipeline gives \
                     {REFERENCE_KW_ERROR_PCT}%"
                ),
            );
        }
        if seconds.len() >= min_passes && secs(start) >= budget {
            return Passes {
                seconds,
                rows: out.rows,
                last: out,
            };
        }
    }
}

/// Times each stage of KW training and the LW and E2E trainers on their
/// own, on the last pass's training set, and checks that the models they
/// train equal the pass's.
fn probe(inp: &Inputs, last: &PassOut, report: &mut Report) -> Vec<(&'static str, f64)> {
    let threads = cores();
    let mut spent = [0.0f64; 6];
    for (g, gpu) in inp.gpus.iter().enumerate() {
        let rows: Vec<&KernelRow> = last
            .train
            .kernels
            .iter()
            .filter(|r| *r.gpu == gpu.name)
            .collect();
        let t = now();
        let view = DatasetView::from_refs(&rows);
        spent[0] += secs(t);
        let t = now();
        let classes = classify_view(&view, threads);
        spent[1] += secs(t);
        let t = now();
        std::hint::black_box(cluster_view(
            &view,
            &classes,
            DEFAULT_SLOPE_TOLERANCE,
            threads,
        ));
        spent[2] += secs(t);
        let t = now();
        let kw =
            KwModel::train_with_options(&last.train, &gpu.name, DEFAULT_SLOPE_TOLERANCE, threads);
        spent[3] += secs(t);
        let t = now();
        let lw = LwModel::train(&last.train, &gpu.name);
        spent[4] += secs(t);
        let t = now();
        let e2e = E2eModel::train(&last.train, &gpu.name);
        spent[5] += secs(t);
        report.attempt(1);
        let suite = &last.suites[g];
        let same = kw.as_ref().is_ok_and(|kw| *kw == suite.kw)
            && lw.is_ok_and(|lw| lw.to_text() == suite.lw.to_text())
            && e2e.is_ok_and(|e| e.to_text() == suite.e2e.to_text());
        if !same {
            report.fail(
                1,
                "probe: a trainer run on its own disagrees with the suite",
            );
        }
    }
    vec![
        ("view.build_s", spent[0]),
        ("classify.s", spent[1]),
        ("cluster.s", spent[2]),
        ("kw.train_s", spent[3]),
        ("lw.train_s", spent[4]),
        ("e2e.train_s", spent[5]),
    ]
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let (inp, setup_s) = median_setup(|| setup(opts));
    if !opts.trace {
        let p = run_passes(
            &inp,
            opts,
            opts.seconds,
            3,
            &mut Tracer::new(false),
            &mut report,
        );
        let pass_s = median(&p.seconds);
        eprintln!(
            "offline-train: {} passes of {} kernel rows, median {pass_s:.3} s",
            p.seconds.len(),
            p.rows
        );
        set_all(
            &mut report,
            &[
                ("setup_s", setup_s),
                ("p50_us", pass_s * 1e6),
                ("p90_us", percentile(&p.seconds, 90.0) * 1e6),
                ("throughput_per_s", p.rows as f64 / pass_s),
            ],
        );
        return report;
    }

    let untraced = run_passes(
        &inp,
        opts,
        opts.seconds / 2.0,
        1,
        &mut Tracer::new(false),
        &mut report,
    );
    let mut tr = Tracer::new(true);
    let p = run_passes(&inp, opts, opts.seconds / 2.0, 1, &mut tr, &mut report);
    let stages = probe(&inp, &p.last, &mut report);
    write_spans(opts, &tr);
    let collect_s = median(&tr.seconds_of("collect"));
    let suite = &p.last.suites[inp.checked];
    set_all(&mut report, &stages);
    set_collect(&mut report, collect_s, p.rows, &p.last.collect);
    set_all(
        &mut report,
        &[
            ("split.s", median(&tr.seconds_of("split"))),
            ("eval.s", median(&tr.seconds_of("eval"))),
            ("kw.models", suite.kw.num_models() as f64),
            ("kw.kernels", suite.kw.num_kernels() as f64),
            ("kw.error_pct", p.last.errors[inp.checked]),
            (
                "trace.overhead_pct",
                overhead_pct(median(&untraced.seconds), median(&p.seconds)),
            ),
            (
                "trace.explained_pct",
                explained_share(tr.spans(), "pass") * 100.0,
            ),
        ],
    );
    report
}
