//! The dnnperf benchmark: four workloads that drive the library's layers
//! through their public API and report end-to-end metrics (untraced run)
//! or per-layer metrics (traced run). See `README.md` next to this crate
//! for the metric table and the reasons behind each workload.

pub mod gen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod train;
pub mod whatif;

use dnnperf_sched::{Clock, SystemClock};
use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// Worker threads for collection and training: the machine's cores.
/// Oversubscribing a small machine makes training slower, not faster.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("gen.lag_p99_us", "us"),
    ("gen.sent", "count"),
    ("gen.received", "count"),
    ("tcp.rtt_p50_us", "us"),
    ("protocol.encode_p50_ns", "ns"),
    ("protocol.decode_p50_ns", "ns"),
    ("protocol.reply_p50_ns", "ns"),
    ("server.submit_wait_p50_us", "us"),
    ("server.handoff_p50_us", "us"),
    ("server.admitted", "count"),
    ("server.completed", "count"),
    ("server.shed", "count"),
    ("server.update_suite_p50_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.compiles", "count"),
    ("cache.evictions", "count"),
    ("cache.purged", "count"),
    ("cache.entries", "count"),
    ("cache.bytes", "bytes"),
    ("cache.get_hit_p50_ns", "ns"),
    ("cache.get_miss_p50_us", "us"),
    ("plan.fingerprint_p50_ns", "ns"),
    ("plan.compile_p50_us", "us"),
    ("plan.predict_p50_ns", "ns"),
    ("plan.terms_mean", "count"),
    ("plan.resident", "count"),
    ("oracle.predict_cold_p50_us", "us"),
    ("oracle.predictions_per_s", "1/s"),
    ("igkw.predict_p50_us", "us"),
    ("collect.s", "s"),
    ("collect.rows", "count"),
    ("collect.points_ok", "count"),
    ("collect.oom_skipped", "count"),
    ("collect.ns_per_row", "ns"),
    ("split.s", "s"),
    ("view.build_s", "s"),
    ("classify.s", "s"),
    ("cluster.s", "s"),
    ("kw.train_s", "s"),
    ("lw.train_s", "s"),
    ("e2e.train_s", "s"),
    ("kw.models", "count"),
    ("kw.kernels", "count"),
    ("kw.error_pct", "%"),
    ("eval.s", "s"),
    ("fleet.simulate_s", "s"),
    ("fleet.pricing_s", "s"),
    ("fleet.offered", "count"),
    ("fleet.completed", "count"),
    ("fleet.rejected", "count"),
    ("fleet.utilization", "ratio"),
    ("fleet.sim_requests_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.explained_pct", "%"),
    ("trace.rtt_explained_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeChurn,
    OfflineTrain,
    WhatIf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeChurn,
        Workload::OfflineTrain,
        Workload::WhatIf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
            Workload::OfflineTrain => "offline-train",
            Workload::WhatIf => "whatif",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phases of the run last in total.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub out: Option<PathBuf>,
}

impl Opts {
    pub fn spans_path(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_out/{}-seed{}.spans.tsv",
                self.workload.name(),
                self.seed
            ))
        })
    }
}

/// Runs the workload `opts` names and returns its report, holding
/// exactly the end-to-end metrics (untraced) or the per-layer metrics
/// (traced).
pub fn run(opts: &Opts) -> Report {
    let mut report = match opts.workload {
        Workload::ServeHot | Workload::ServeChurn => serve::run(opts),
        Workload::OfflineTrain => train::run(opts),
        Workload::WhatIf => whatif::run(opts),
    };
    if opts.trace {
        for (name, unit) in PER_LAYER {
            if report.get(name).is_none() {
                report.set(name, 0.0, unit);
            }
        }
        report.select(&PER_LAYER.map(|(n, _)| n));
    } else {
        report.set("peak_rss_mb", peak_rss_mb(), "MB");
        report.select(&END_TO_END.map(|(n, _)| n));
        if report.metrics.len() != END_TO_END.len() {
            report.fail(1, "an end-to-end metric was not measured");
        }
        let bad: Vec<String> = report
            .metrics
            .iter()
            .filter(|m| !(m.value.is_finite() && m.value > 0.0))
            .map(|m| format!("{} is {} (must be positive)", m.name, m.value))
            .collect();
        for b in bad {
            report.fail(1, b);
        }
    }
    report
}

/// Runs a set-up several times, dropping each result before the next
/// starts, and returns the last result with the median set-up seconds.
/// Set-ups repeat at least [`MIN_SETUPS`] times, and more (up to
/// [`MAX_SETUPS`]) while they have taken under [`SETUP_BUDGET_S`] in all,
/// so that a set-up of a few milliseconds still yields a steady median.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut took = Vec::new();
    let mut kept = None;
    while took.len() < MIN_SETUPS
        || (took.len() < MAX_SETUPS && took.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let t = now();
        kept = Some(setup());
        took.push(secs(t));
    }
    let kept = kept.expect("set-up ran at least once");
    (kept, stats::median(&took))
}

pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_BUDGET_S: f64 = 0.5;

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The unit a metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(&END_TO_END)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Sets each named figure on `report` with its unit.
pub fn set_all(report: &mut Report, figures: &[(&str, f64)]) {
    for &(name, value) in figures {
        report.set(name, value, unit_of(name));
    }
}

/// The CNN zoo every workload runs on: all 646 networks, or every 40th
/// for the smoke test.
pub fn zoo(smoke: bool) -> Vec<dnnperf_dnn::Network> {
    let nets = dnnperf_dnn::zoo::cnn_zoo();
    if smoke {
        nets.into_iter().step_by(40).collect()
    } else {
        nets
    }
}

/// Sets the `collect.*` figures of one collection run.
pub fn set_collect(
    report: &mut Report,
    seconds: f64,
    rows: usize,
    collected: &dnnperf_data::CollectReport,
) {
    set_all(
        report,
        &[
            ("collect.s", seconds),
            ("collect.rows", rows as f64),
            ("collect.points_ok", collected.ok as f64),
            ("collect.oom_skipped", collected.oom_skipped as f64),
            ("collect.ns_per_row", seconds * 1e9 / rows.max(1) as f64),
        ],
    );
}

/// Writes a traced run's spans where `opts` says.
pub fn write_spans(opts: &Opts, tr: &trace::Tracer) {
    let path = opts.spans_path();
    match trace::write_tsv(&path, tr.spans()) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// A reading of the library's monotonic clock (time since a process-wide
/// epoch). Every timing in the benchmark is a difference of two readings.
pub fn now() -> Duration {
    SystemClock.now()
}

/// Seconds since the reading `t`.
pub fn secs(t: Duration) -> f64 {
    now().saturating_sub(t).as_secs_f64()
}

/// Relative change of a traced figure against the untraced one, in %.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}
