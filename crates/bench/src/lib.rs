//! Shared support for the dnnperf experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). This library holds the pieces
//! they share: dataset construction, the canonical train/test split,
//! measurement shortcuts, plain-text table/S-curve printers, and the one
//! report and gate format of the committed `BENCH_*.json` files
//! ([`report`]).

#![warn(missing_docs)]

pub mod report;
pub mod timer;

pub use report::json_number;

use dnnperf_data::collect::{collect_report_opts, collect_training_report_opts, TRAIN_BATCH};
use dnnperf_data::{split::split_dataset, CollectOptions, CollectReport, Dataset};
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::{FaultPlan, GpuSpec, Profiler};
use std::collections::BTreeSet;
use std::time::Instant;

/// The random seed of the canonical train/test split used by every
/// experiment (the paper re-randomises per run; we fix it so results are
/// reproducible).
pub const SPLIT_SEED: u64 = 2023;

/// Percentage points of the S-curve X axis in Figures 11-14.
pub const S_CURVE_PERCENTS: [f64; 7] = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0];

/// Prints the experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// The collection engine options every experiment binary uses:
/// environment overrides (`DNNPERF_THREADS`, `DNNPERF_FAULT_RATE`,
/// `DNNPERF_FAULT_SEED`, `DNNPERF_RETRIES`) plus the command-line flags
/// `--threads N`, `--retries N`, `--fault-rate F` and `--fault-seed S`
/// (also accepted in `--flag=value` form), with the command line winning.
///
/// `--fault-rate` in `(0, 1]` arms the deterministic transient-only fault
/// plan (and the ingest outlier screen); `--fault-rate 0` disarms a plan
/// armed via the environment. `--fault-seed` picks the fault universe.
pub fn collect_options() -> CollectOptions {
    collect_options_from(std::env::args().skip(1), CollectOptions::from_env())
}

/// [`collect_options`] with explicit arguments and base — testable and
/// reusable by the `all` driver when forwarding flags.
pub fn collect_options_from(
    args: impl IntoIterator<Item = String>,
    base: CollectOptions,
) -> CollectOptions {
    let mut opts = base;
    let mut fault_rate: Option<f64> = None;
    let mut fault_seed: Option<u64> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| -> Option<String> {
            if arg == flag {
                args.next()
            } else {
                arg.strip_prefix(flag)
                    .and_then(|rest| rest.strip_prefix('='))
                    .map(str::to_string)
            }
        };
        if let Some(v) = value_of("--threads") {
            if let Ok(v) = v.parse() {
                opts.threads = v;
            }
        } else if let Some(v) = value_of("--retries") {
            if let Ok(v) = v.parse() {
                opts.retries = v;
            }
        } else if let Some(v) = value_of("--fault-rate") {
            if let Ok(v) = v.parse() {
                fault_rate = Some(v);
            }
        } else if let Some(v) = value_of("--fault-seed") {
            if let Ok(v) = v.parse() {
                fault_seed = Some(v);
            }
        }
    }
    // Resolve the fault plan last: rate and seed flags may arrive in any
    // order and must compose with an environment-armed base plan.
    match fault_rate {
        Some(rate) if rate > 0.0 => {
            let seed = fault_seed
                .or(opts.fault.as_ref().map(|p| p.seed))
                .unwrap_or(0xFA17);
            opts = opts.faulty(FaultPlan::transient_only(seed, rate.min(1.0)));
        }
        Some(_) => {
            // An explicit zero/negative rate disarms faults entirely.
            opts.fault = None;
            opts.screen_outliers = false;
        }
        None => {
            if let (Some(seed), Some(plan)) = (fault_seed, opts.fault.as_mut()) {
                plan.seed = seed;
            }
        }
    }
    opts
}

fn report_collection(
    what: &str,
    nets: usize,
    gpus: usize,
    batches: &[usize],
    ds: &Dataset,
    report: &CollectReport,
    t: Instant,
) {
    eprintln!(
        "[collect] {what}: {nets} nets x {gpus} gpus x {batches:?}: {} kernel rows | {}",
        ds.kernels.len(),
        report.summary(t.elapsed().as_secs_f64())
    );
}

/// Collects a dataset with a progress + resilience summary line, through
/// the shared engine: work-stealing parallelism across the whole
/// `(gpu, network, batch)` grid and bounded retries with backoff around
/// every grid point.
pub fn collect_verbose(nets: &[Network], gpus: &[GpuSpec], batches: &[usize]) -> Dataset {
    let t = Instant::now();
    let (ds, report) = collect_report_opts(nets, gpus, batches, &collect_options());
    report_collection(
        "inference",
        nets.len(),
        gpus.len(),
        batches,
        &ds,
        &report,
        t,
    );
    ds
}

/// [`collect_verbose`] for training-step measurements: same engine, same
/// parallelism.
pub fn collect_training_verbose(nets: &[Network], gpus: &[GpuSpec], batches: &[usize]) -> Dataset {
    let t = Instant::now();
    let (ds, report) = collect_training_report_opts(nets, gpus, batches, &collect_options());
    report_collection("training", nets.len(), gpus.len(), batches, &ds, &report, t);
    ds
}

/// The full 646-CNN zoo.
pub fn cnn_zoo() -> Vec<Network> {
    zoo::cnn_zoo()
}

/// The paper's training batch size.
pub fn train_batch() -> usize {
    TRAIN_BATCH
}

/// The canonical (train, test) split of a dataset.
pub fn standard_split(ds: &Dataset) -> (Dataset, Dataset) {
    split_dataset(ds, SPLIT_SEED)
}

/// The networks (from `pool`) whose names appear in `ds`.
pub fn networks_in(pool: &[Network], ds: &Dataset) -> Vec<Network> {
    let names: BTreeSet<String> = ds.network_names().into_iter().collect();
    pool.iter()
        .filter(|n| names.contains(n.name()))
        .cloned()
        .collect()
}

/// Looks up a Table 1 GPU.
///
/// # Panics
///
/// Panics on an unknown name (experiments only use Table 1 GPUs).
pub fn gpu(name: &str) -> GpuSpec {
    GpuSpec::by_name(name).unwrap_or_else(|| panic!("unknown GPU {name}"))
}

/// Measures one network on one GPU (ground truth via the profiler).
///
/// # Panics
///
/// Panics if the run does not fit in GPU memory; experiment configurations
/// are chosen to fit.
pub fn measure(gpu: &GpuSpec, net: &Network, batch: usize) -> f64 {
    Profiler::new(gpu.clone())
        .profile(net, batch)
        .unwrap_or_else(|e| panic!("measurement failed: {e}"))
        .e2e_seconds
}

/// Formats seconds as engineering-friendly milliseconds.
pub fn ms(seconds: f64) -> String {
    format!("{:.3} ms", seconds * 1e3)
}

/// Prints an S-curve (sorted predicted/measured ratios at the canonical
/// percentage points) plus the paper's average error metric.
pub fn print_s_curve(predicted: &[f64], measured: &[f64]) {
    let curve = dnnperf_linreg::ratio_curve(predicted, measured, &S_CURVE_PERCENTS);
    println!("{:>10} | {:>12}", "percent", "pred/meas");
    println!("{:->10}-+-{:->12}", "", "");
    for p in curve {
        println!("{:>9.0}% | {:>12.3}", p.percent, p.ratio);
    }
    let err = dnnperf_linreg::mean_abs_rel_error(predicted, measured);
    println!("average error: {:.3} ({:.1}%)", err, err * 100.0);
}

/// Case Study 1 support: trains an IGKW model on four diverse GPUs, then
/// sweeps the predicted time of `net` on a TITAN RTX with modified memory
/// bandwidth (200-1400 GB/s), printing the curve and the knee where the
/// marginal gain of another 100 GB/s drops below 5%.
pub fn bandwidth_sweep(net: &Network, batch: usize) {
    let train_gpus: Vec<GpuSpec> = ["A100", "A40", "GTX 1080 Ti", "V100"]
        .iter()
        .map(|n| gpu(n))
        .collect();
    let nets: Vec<_> = cnn_zoo().into_iter().step_by(3).collect();
    let ds = collect_verbose(&nets, &train_gpus, &[128]);
    let model = dnnperf_core::IgkwModel::train(&ds, &train_gpus).expect("train IGKW");

    let titan = gpu("TITAN RTX");
    let mut t = TextTable::new(&["bandwidth (GB/s)", "predicted time", "note"]);
    let mut curve = Vec::new();
    for bw in (200..=1400).step_by(100) {
        let g = titan.with_bandwidth(bw as f64);
        let pred = model.predict_network_on(net, batch, &g).expect("predict");
        curve.push((bw, pred));
        let note = if bw == 700 {
            "~ native TITAN RTX (672 GB/s)"
        } else {
            ""
        };
        t.row(&cells![bw, ms(pred), note]);
    }
    t.print();

    let knee = curve
        .windows(2)
        .find(|w| (w[0].1 - w[1].1) / w[1].1 < 0.05)
        .map(|w| w[0].0);
    match knee {
        Some(bw) => println!("\ndiminishing returns beyond ~{bw} GB/s"),
        None => println!("\nno knee found in the swept range"),
    }
}

/// A minimal fixed-width text table printer.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "table row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("{}", parts.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Convenience macro: builds a fixed-size `[String; N]` row from display
/// values (borrow it to pass as `&[String]`).
#[macro_export]
macro_rules! cells {
    ($($v:expr),+ $(,)?) => {
        [$(format!("{}", $v)),+]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&cells!["1", "2"]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&cells!["only one"]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(0.001), "1.000 ms");
    }

    #[test]
    fn gpu_lookup_works() {
        assert_eq!(gpu("A100").name, "A100");
    }

    #[test]
    fn cli_flags_override_collect_options() {
        let base = CollectOptions::serial();
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = collect_options_from(args(&["--threads", "7"]), base.clone());
        assert_eq!(o.threads, 7);
        let o = collect_options_from(args(&["--threads=3"]), base.clone());
        assert_eq!(o.threads, 3);
        // Unknown flags and malformed values leave the base untouched.
        let o = collect_options_from(args(&["--verbose", "--threads", "lots"]), base.clone());
        assert_eq!(o, base);
    }

    #[test]
    fn fault_flags_arm_and_disarm_plans() {
        let base = CollectOptions::serial();
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();

        // Rate alone arms a transient-only plan (default seed) and the
        // outlier screen.
        let o = collect_options_from(args(&["--fault-rate", "0.2"]), base.clone());
        let plan = o.fault.expect("plan armed");
        assert_eq!((plan.seed, plan.rate), (0xFA17, 0.2));
        assert!(plan.kinds.transient && !plan.kinds.panic);
        assert!(o.screen_outliers);

        // Seed + rate compose in either order.
        for v in [
            &["--fault-seed=9", "--fault-rate=0.5"][..],
            &["--fault-rate=0.5", "--fault-seed=9"][..],
        ] {
            let o = collect_options_from(args(v), base.clone());
            let plan = o.fault.expect("plan armed");
            assert_eq!((plan.seed, plan.rate), (9, 0.5));
        }

        // Seed alone re-seeds an environment-armed base plan.
        let armed = base.clone().faulty(FaultPlan::transient_only(1, 0.3));
        let o = collect_options_from(args(&["--fault-seed", "7"]), armed.clone());
        assert_eq!(o.fault.expect("still armed").seed, 7);

        // An explicit zero rate disarms it.
        let o = collect_options_from(args(&["--fault-rate", "0"]), armed);
        assert!(o.fault.is_none() && !o.screen_outliers);

        // Retries flag.
        let o = collect_options_from(args(&["--retries=5"]), base.clone());
        assert_eq!(o.retries, 5);

        // Rates above 1 clamp.
        let o = collect_options_from(args(&["--fault-rate", "3.0"]), base);
        assert_eq!(o.fault.expect("plan armed").rate, 1.0);
    }

    #[test]
    fn networks_in_filters_by_dataset() {
        let pool = vec![zoo::resnet::resnet18(), zoo::resnet::resnet34()];
        let ds = dnnperf_data::collect::collect(&pool[..1], &[gpu("A100")], &[8]);
        let filtered = networks_in(&pool, &ds);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].name(), "ResNet-18");
    }
}
