//! Dataset collection: profiling the zoo across GPUs and batch sizes.
//!
//! All collection — serial, parallel, inference, training — runs through
//! one *grid engine*: the `(gpu, network, batch)` cartesian grid is
//! enumerated in serial order, each grid point is profiled independently
//! (fanned out over `dnnperf-sched`'s work-stealing pool when more than
//! one thread is requested), and the per-point rows are stitched back in
//! grid order. The resulting [`Dataset`] is therefore **byte-identical**
//! regardless of thread count — a property the determinism conformance
//! suite (`tests/determinism.rs`) pins down.
//!
//! Every collection is profiled afresh. The simulator profiles the full
//! 646-network zoo on five GPUs in well under a second, which is faster
//! than reading the resulting rows back from disk would be.

use crate::dataset::Dataset;
use crate::hygiene;
use crate::record::{KernelRow, LayerRow, NetworkRow};
use dnnperf_dnn::Network;
use dnnperf_gpu::hashrng::hash_with;
use dnnperf_gpu::{FaultPlan, FaultyProfiler, GpuSpec, ProfileError, Profiler, TimingModel, Trace};
use dnnperf_sched::retry::{
    retry_with_backoff, Backoff, Clock, RetryClass, RetryPolicy, SystemClock,
};
use std::sync::Arc;

/// Converts one profiler trace into dataset rows.
pub fn trace_rows(trace: &Trace, net: &Network) -> (NetworkRow, Vec<LayerRow>, Vec<KernelRow>) {
    let network: Arc<str> = Arc::from(trace.network.as_str());
    let gpu: Arc<str> = Arc::from(trace.gpu.as_str());
    let batch = trace.batch as u32;
    let mut layers = Vec::with_capacity(trace.layers.len());
    let mut kernels = Vec::new();
    for l in &trace.layers {
        let layer_type: Arc<str> = Arc::from(l.type_tag);
        layers.push(LayerRow {
            network: network.clone(),
            gpu: gpu.clone(),
            batch,
            layer_index: l.layer_index as u32,
            layer_type: layer_type.clone(),
            flops: l.flops,
            in_elems: l.in_elems,
            out_elems: l.out_elems,
            seconds: l.seconds(),
        });
        for k in &l.kernels {
            kernels.push(KernelRow {
                network: network.clone(),
                gpu: gpu.clone(),
                batch,
                layer_index: l.layer_index as u32,
                layer_type: layer_type.clone(),
                kernel: Arc::from(k.name.as_str()),
                in_elems: l.in_elems,
                flops: l.flops,
                out_elems: l.out_elems,
                seconds: k.seconds,
            });
        }
    }
    let row = NetworkRow {
        network,
        family: Arc::from(trace.family.as_str()),
        gpu,
        batch,
        flops: trace.total_flops(),
        bytes: net.total_bytes() * trace.batch as u64,
        e2e_seconds: trace.e2e_seconds,
        gpu_seconds: trace.gpu_seconds(),
        kernel_count: trace.kernel_count() as u32,
    };
    (row, layers, kernels)
}

/// What a collection run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMode {
    /// Forward inference batches (the paper's main dataset).
    Inference,
    /// Training steps: forward + backward + optimizer update.
    Training,
}

/// Default bounded retries per grid point. Matches the default
/// [`FaultPlan::max_faulty_attempts`], so a transient-only fault plan can
/// always be retried through to its guaranteed-clean attempt.
pub const DEFAULT_RETRIES: u32 = 3;

/// Shared knobs of the collection engine, threaded from the experiment
/// binaries (and `DNNPERF_*` environment overrides) down to every
/// collection call.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectOptions {
    /// Worker threads for the profiling grid. `0` means "auto": use
    /// [`std::thread::available_parallelism`]. `1` disables threading.
    pub threads: usize,
    /// Bounded retries per grid point for transient failures, corrupted
    /// measurements and straggler attempts. Irrelevant without a fault
    /// plan: the clean simulator never fails transiently.
    pub retries: u32,
    /// Deterministic fault plan for fault-injection experiments; `None`
    /// (the default) profiles on the clean simulator.
    pub fault: Option<FaultPlan>,
    /// MAD-based outlier quarantine at ingest (see
    /// [`crate::hygiene::quarantine_scale_outliers`]). Enabled by the
    /// fault builders; clean data passes the screen byte-identically.
    pub screen_outliers: bool,
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions {
            threads: 0,
            retries: DEFAULT_RETRIES,
            fault: None,
            screen_outliers: false,
        }
    }
}

impl CollectOptions {
    /// Serial collection (the engine's conservative default).
    pub fn serial() -> Self {
        CollectOptions {
            threads: 1,
            ..CollectOptions::default()
        }
    }

    /// Collection on `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        CollectOptions {
            threads,
            ..CollectOptions::default()
        }
    }

    /// Options from the environment:
    ///
    /// * `DNNPERF_THREADS` — worker count; unparsable or zero means auto;
    /// * `DNNPERF_FAULT_RATE` — per-attempt fault probability; any value
    ///   in `(0, 1]` arms a transient-only fault plan (and the outlier
    ///   screen);
    /// * `DNNPERF_FAULT_SEED` — fault-universe seed (default `0xFA17`);
    /// * `DNNPERF_RETRIES` — bounded retries per grid point (default 3).
    pub fn from_env() -> Self {
        let threads = std::env::var("DNNPERF_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let retries = std::env::var("DNNPERF_RETRIES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(DEFAULT_RETRIES);
        let rate = std::env::var("DNNPERF_FAULT_RATE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        let fault = (rate > 0.0).then(|| {
            let seed = std::env::var("DNNPERF_FAULT_SEED")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0xFA17);
            FaultPlan::transient_only(seed, rate.min(1.0))
        });
        CollectOptions {
            threads,
            retries,
            screen_outliers: fault.is_some(),
            fault,
        }
    }

    /// Returns a copy measuring through `plan`'s fault universe, with the
    /// outlier screen armed (corrupted measurements that survive retries
    /// must not reach training).
    pub fn faulty(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self.screen_outliers = true;
        self
    }

    /// Returns a copy with the per-point retry budget set to `retries`.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The concrete worker count (resolves `0` to the machine's available
    /// parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }
}

/// Structured outcome accounting of one collection run: what profiled
/// cleanly, what was retried or re-dispatched, what was quarantined, and
/// what was lost. One poisoned grid point shows up here instead of killing
/// the campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollectReport {
    /// Grid points that yielded usable rows.
    pub ok: u64,
    /// Grid points skipped because the run does not fit in device memory
    /// (the paper's fail-to-execute cleaning).
    pub oom_skipped: u64,
    /// Grid points rejected at the profile boundary (zero batch, empty
    /// network).
    pub invalid_requests: u64,
    /// Total retry attempts performed across all grid points.
    pub retried: u64,
    /// Grid points that failed at least once but eventually succeeded.
    pub recovered: u64,
    /// Attempts discarded and re-dispatched for exceeding the straggler
    /// threshold.
    pub stragglers: u64,
    /// Attempts rejected for invalid times (NaN/Inf/non-positive).
    pub corrupt_measurements: u64,
    /// Experiments removed by the MAD-based outlier quarantine.
    pub quarantined: u64,
    /// Grid points whose job panicked (isolated; only that point is lost).
    pub panicked: u64,
    /// Grid points with no usable measurement after the retry budget
    /// (includes panicked points).
    pub dropped: u64,
}

impl CollectReport {
    /// Whether every grid point produced its measurement without faults,
    /// retries or losses.
    pub fn is_clean(&self) -> bool {
        self.retried == 0
            && self.recovered == 0
            && self.stragglers == 0
            && self.corrupt_measurements == 0
            && self.quarantined == 0
            && self.panicked == 0
            && self.dropped == 0
            && self.invalid_requests == 0
    }

    /// The one-line per-run summary experiments print: every counter and
    /// the run's wall time.
    pub fn summary(&self, wall_seconds: f64) -> String {
        format!(
            "collect: {} ok, {} oom-skipped, {} invalid, {} retried, {} recovered, {} stragglers, {} corrupt-meas, {} quarantined, {} panicked, {} dropped | {:.2}s wall",
            self.ok,
            self.oom_skipped,
            self.invalid_requests,
            self.retried,
            self.recovered,
            self.stragglers,
            self.corrupt_measurements,
            self.quarantined,
            self.panicked,
            self.dropped,
            wall_seconds
        )
    }
}

/// One grid point's usable rows.
type GridRows = (NetworkRow, Vec<LayerRow>, Vec<KernelRow>);

/// How one grid point ended.
enum PointOutcome {
    /// A usable measurement.
    Rows(Box<GridRows>),
    /// Skipped: does not fit in device memory (the paper's cleaning of
    /// fail-to-execute experiments).
    OomSkipped,
    /// Rejected at the profile boundary (zero batch / empty network).
    InvalidRequest,
    /// No usable measurement within the retry budget.
    Dropped,
}

/// Per-point resilience counters, folded into the [`CollectReport`].
#[derive(Default)]
struct PointStats {
    retried: u64,
    recovered: u64,
    stragglers: u64,
    corrupt: u64,
}

/// Profiles one `(gpu, network, batch)` grid point on the clean simulator
/// — the zero-overhead fast path taken when no fault plan is armed.
fn profile_point(
    gpu: &GpuSpec,
    net: &Network,
    batch: usize,
    timing: &TimingModel,
    mode: CollectMode,
) -> PointOutcome {
    let profiler = Profiler::with_timing(gpu.clone(), timing.clone());
    let result = match mode {
        CollectMode::Inference => profiler.profile(net, batch),
        CollectMode::Training => profiler.profile_training(net, batch),
    };
    match result {
        Ok(trace) => PointOutcome::Rows(Box::new(trace_rows(&trace, net))),
        Err(ProfileError::OutOfMemory { .. }) => PointOutcome::OomSkipped,
        Err(ProfileError::ZeroBatch { .. } | ProfileError::EmptyNetwork { .. }) => {
            PointOutcome::InvalidRequest
        }
        // The clean simulator never fails transiently; if it ever does,
        // losing the point (not the campaign) is the right degradation.
        Err(ProfileError::Transient { .. }) => PointOutcome::Dropped,
    }
}

/// How one profiling attempt failed (drives the retry classification).
enum AttemptError {
    Oom,
    Invalid,
    Transient,
    /// A replicate was unwholesome (NaN/Inf/non-positive time): nothing
    /// usable came out of the attempt.
    Corrupt,
    /// The two replicates disagreed byte-for-byte: a silent (finite)
    /// corruption was detected statistically. The first replicate is
    /// carried so an exhausted retry budget can still ingest it — the
    /// scale-outlier screen quarantines whatever damage survives.
    Disagree(Box<Trace>),
    /// The attempt succeeded but exceeded the straggler threshold; the
    /// trace is carried so the run can still be accepted when the retry
    /// budget runs out (a slow valid measurement beats no measurement).
    Slow(Box<Trace>),
}

/// Profiles one grid point through a fault plan with bounded retries,
/// exponential backoff, straggler re-dispatch and measurement validity
/// screening.
///
/// Every attempt takes **two replicate measurements** (fault-stream
/// indices `2k` and `2k + 1` for retry attempt `k`) and accepts only when
/// they agree byte-for-byte. Validity screening catches NaN/Inf/negative
/// corruption per trace; replicate agreement catches the *silent* finite
/// corruptions (scale outliers) that no per-trace check can see. The
/// profiler is deterministic, so clean replicates always agree — any
/// disagreement proves one replicate is damaged and the attempt retries
/// on a fresh fault draw.
/// The fault-handling context of one resilient grid point: the fault
/// universe, the retry budget and the (injectable) clock elapsed-time
/// decisions are measured on.
struct Resilience<'a> {
    plan: &'a FaultPlan,
    retries: u32,
    clock: &'a dyn Clock,
}

fn profile_point_resilient(
    gpu: &GpuSpec,
    net: &Network,
    batch: usize,
    timing: &TimingModel,
    mode: CollectMode,
    res: &Resilience<'_>,
) -> (PointOutcome, PointStats) {
    let Resilience {
        plan,
        retries,
        clock,
    } = *res;
    let mut st = PointStats::default();
    let profiler = Profiler::with_timing(gpu.clone(), timing.clone());
    let faulty = FaultyProfiler::new(profiler, plan.clone());
    // An attempt slower than this is discarded and re-dispatched while
    // retries remain. Injected stragglers sleep the full delay, clean
    // simulated profiles finish in microseconds, so 60% of the delay
    // separates the two without false positives.
    let straggler_limit = plan.straggler_delay.mul_f64(0.6);
    let policy = RetryPolicy {
        max_retries: retries,
        backoff: Backoff::fast(
            plan.seed ^ hash_with(net.name(), batch as u64) ^ hash_with(&gpu.name, 0x0B0FF),
        ),
    };
    let outcome = retry_with_backoff(
        &policy,
        clock,
        |e: &AttemptError| match e {
            // The workload itself is infeasible or malformed: no retry
            // can change that.
            AttemptError::Oom | AttemptError::Invalid => RetryClass::Permanent,
            AttemptError::Transient
            | AttemptError::Corrupt
            | AttemptError::Disagree(_)
            | AttemptError::Slow(_) => RetryClass::Retriable,
        },
        |attempt| {
            // Elapsed time here is *result-affecting* (it decides straggler
            // re-dispatch), so it must come through the injectable [`Clock`]
            // — never from a bare `Instant::now()` (the determinism-hygiene
            // lint pins this down). Tests drive it with a fake clock.
            let t0 = clock.now();
            let run = |sub: u32| -> Result<Trace, AttemptError> {
                let result = match mode {
                    CollectMode::Inference => faulty.profile_attempt(net, batch, 2 * attempt + sub),
                    CollectMode::Training => {
                        faulty.profile_training_attempt(net, batch, 2 * attempt + sub)
                    }
                };
                match result {
                    Ok(trace) => Ok(trace),
                    Err(ProfileError::Transient { .. }) => Err(AttemptError::Transient),
                    Err(ProfileError::OutOfMemory { .. }) => Err(AttemptError::Oom),
                    Err(ProfileError::ZeroBatch { .. } | ProfileError::EmptyNetwork { .. }) => {
                        Err(AttemptError::Invalid)
                    }
                }
            };
            let first = run(0)?;
            let second = run(1)?;
            if !hygiene::trace_is_wholesome(&first) || !hygiene::trace_is_wholesome(&second) {
                // NaN/Inf/non-positive times: detectable per trace, so
                // reject at the boundary and retry.
                st.corrupt += 1;
                Err(AttemptError::Corrupt)
            } else if first != second {
                // Both replicates are individually plausible but they
                // disagree: a silent corruption (scale outlier) hit one of
                // them. Detected statistically, retried like any corrupt
                // measurement.
                st.corrupt += 1;
                Err(AttemptError::Disagree(Box::new(first)))
            } else if clock.now().saturating_sub(t0) >= straggler_limit {
                st.stragglers += 1;
                Err(AttemptError::Slow(Box::new(first)))
            } else {
                Ok(first)
            }
        },
    );
    st.retried += u64::from(outcome.retries());
    let recovered = outcome.attempts > 1;
    match outcome.result {
        Ok(trace) => {
            st.recovered += u64::from(recovered);
            (PointOutcome::Rows(Box::new(trace_rows(&trace, net))), st)
        }
        // Every retry straggled, but the measurement itself is valid (an
        // injected straggler delays, it does not damage — and the
        // replicates agreed, so the trace is verified clean): accept the
        // last trace rather than losing the point.
        Err(AttemptError::Slow(trace)) => {
            st.recovered += u64::from(recovered);
            (PointOutcome::Rows(Box::new(trace_rows(&trace, net))), st)
        }
        // The budget ran out with the replicates still disagreeing: ingest
        // the first replicate anyway — it is finite and plausible, and the
        // scale-outlier screen downstream quarantines it if it carries the
        // damage. Better a quarantinable row than a silently lost point.
        Err(AttemptError::Disagree(trace)) => {
            (PointOutcome::Rows(Box::new(trace_rows(&trace, net))), st)
        }
        Err(AttemptError::Oom) => (PointOutcome::OomSkipped, st),
        Err(AttemptError::Invalid) => (PointOutcome::InvalidRequest, st),
        Err(AttemptError::Transient | AttemptError::Corrupt) => (PointOutcome::Dropped, st),
    }
}

/// Runs the full profiling grid on work-stealing workers with per-job
/// panic isolation, stitching rows back in serial `(gpu, network, batch)`
/// order and folding per-point accounting into a [`CollectReport`].
fn run_grid(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    timing: &TimingModel,
    mode: CollectMode,
    opts: &CollectOptions,
) -> (Dataset, CollectReport) {
    let threads = opts.effective_threads();
    assert!(threads > 0, "need at least one worker thread");
    let per_gpu = nets.len() * batches.len();
    let jobs = gpus.len() * per_gpu;
    let mut ds = Dataset::new();
    let mut report = CollectReport::default();
    if jobs == 0 {
        return (ds, report);
    }
    let point = |i: usize| -> (PointOutcome, PointStats) {
        let gpu = &gpus[i / per_gpu];
        let rest = i % per_gpu;
        let net = &nets[rest / batches.len()];
        let batch = batches[rest % batches.len()];
        match &opts.fault {
            None => (
                profile_point(gpu, net, batch, timing, mode),
                PointStats::default(),
            ),
            Some(plan) => profile_point_resilient(
                gpu,
                net,
                batch,
                timing,
                mode,
                &Resilience {
                    plan,
                    retries: opts.retries,
                    clock: &SystemClock,
                },
            ),
        }
    };
    // Every job is individually catch_unwind-isolated: one poisoned grid
    // point loses that point only, never the campaign.
    for result in dnnperf_sched::run_indexed_catching(jobs, threads, point) {
        match result {
            Ok((outcome, st)) => {
                report.retried += st.retried;
                report.recovered += st.recovered;
                report.stragglers += st.stragglers;
                report.corrupt_measurements += st.corrupt;
                match outcome {
                    PointOutcome::Rows(rows) => {
                        let (n, l, k) = *rows;
                        report.ok += 1;
                        ds.networks.push(n);
                        ds.layers.extend(l);
                        ds.kernels.extend(k);
                    }
                    PointOutcome::OomSkipped => report.oom_skipped += 1,
                    PointOutcome::InvalidRequest => report.invalid_requests += 1,
                    PointOutcome::Dropped => report.dropped += 1,
                }
            }
            Err(panic) => {
                report.panicked += 1;
                report.dropped += 1;
                eprintln!(
                    "[collect] grid point {} panicked (isolated): {}",
                    panic.index,
                    panic.message()
                );
            }
        }
    }
    (ds, report)
}

/// The full engine: resilient parallel grid profiling, then outlier
/// quarantine.
///
/// This is the single path every public collection entry point funnels
/// through; it returns the dataset plus the run's structured
/// [`CollectReport`].
pub fn collect_engine(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    timing: &TimingModel,
    mode: CollectMode,
    opts: &CollectOptions,
) -> (Dataset, CollectReport) {
    let (mut ds, mut report) = run_grid(nets, gpus, batches, timing, mode, opts);
    if opts.screen_outliers {
        // Silent ×k outliers that survived per-trace screening are only
        // visible statistically; quarantine them instead of training on
        // them.
        report.quarantined = hygiene::quarantine_scale_outliers(&mut ds);
    }
    (ds, report)
}

/// Profiles every network on every GPU at every batch size, skipping
/// out-of-memory combinations (the paper's dataset cleaning).
///
/// # Examples
///
/// ```
/// use dnnperf_data::collect::collect;
/// use dnnperf_gpu::GpuSpec;
///
/// let nets = [dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0)];
/// let gpus = [GpuSpec::by_name("V100").unwrap()];
/// let ds = collect(&nets, &gpus, &[8, 32]);
/// assert_eq!(ds.networks.len(), 2);
/// ```
pub fn collect(nets: &[Network], gpus: &[GpuSpec], batches: &[usize]) -> Dataset {
    collect_with(nets, gpus, batches, &TimingModel::new())
}

/// Like [`collect`], but measuring under an explicit ground-truth timing
/// model. Robustness tests use this to show the predictors work in
/// alternative measurement universes, not just the canonical seed.
pub fn collect_with(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    timing: &TimingModel,
) -> Dataset {
    collect_engine(
        nets,
        gpus,
        batches,
        timing,
        CollectMode::Inference,
        &CollectOptions::serial(),
    )
    .0
}

/// Collection with full engine options (threads + retries + faults).
pub fn collect_opts(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    opts: &CollectOptions,
) -> Dataset {
    collect_report_opts(nets, gpus, batches, opts).0
}

/// Like [`collect_opts`], but also returning the run's structured
/// [`CollectReport`].
pub fn collect_report_opts(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    opts: &CollectOptions,
) -> (Dataset, CollectReport) {
    collect_engine(
        nets,
        gpus,
        batches,
        &TimingModel::new(),
        CollectMode::Inference,
        opts,
    )
}

/// Like [`collect`], but profiling on `threads` work-stealing worker
/// threads over the whole `(gpu, network, batch)` grid.
///
/// Row order (and therefore the resulting dataset) is **identical** to the
/// serial [`collect`]: grid points carry their serial index through the
/// pool and are stitched back in index order, preserving the
/// per-experiment row contiguity that [`Dataset::dedup`] and the mapping
/// table rely on. The conformance suite asserts `collect_parallel(..) ==
/// collect(..)` across randomized grids and thread counts.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn collect_parallel(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    threads: usize,
) -> Dataset {
    assert!(threads > 0, "need at least one worker thread");
    collect_opts(nets, gpus, batches, &CollectOptions::with_threads(threads))
}

/// The GPUs the paper's single-GPU models are trained and evaluated on
/// (Section 5.4): A100, A40, GTX 1080 Ti, TITAN RTX, V100.
pub fn evaluation_gpus() -> Vec<GpuSpec> {
    ["A100", "A40", "GTX 1080 Ti", "TITAN RTX", "V100"]
        .iter()
        .map(|n| match GpuSpec::by_name(n) {
            Some(g) => g,
            None => unreachable!("{n} is in the Table 1 catalogue"),
        })
        .collect()
}

/// The paper's training batch size (GPUs fully utilised).
pub const TRAIN_BATCH: usize = 512;

/// Like [`collect`], but measuring *training steps* (forward + backward +
/// optimizer update) instead of inference batches — the paper's future-work
/// extension. Out-of-memory combinations are skipped; training keeps all
/// activations alive, so feasible batch sizes are smaller than for
/// inference.
pub fn collect_training(nets: &[Network], gpus: &[GpuSpec], batches: &[usize]) -> Dataset {
    collect_training_opts(nets, gpus, batches, &CollectOptions::serial())
}

/// [`collect_training`] with full engine options: training collection gets
/// the same work-stealing parallelism, retries and fault injection as
/// inference collection.
pub fn collect_training_opts(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    opts: &CollectOptions,
) -> Dataset {
    collect_training_report_opts(nets, gpus, batches, opts).0
}

/// Like [`collect_training_opts`], but also returning the run's structured
/// [`CollectReport`].
pub fn collect_training_report_opts(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    opts: &CollectOptions,
) -> (Dataset, CollectReport) {
    collect_engine(
        nets,
        gpus,
        batches,
        &TimingModel::new(),
        CollectMode::Training,
        opts,
    )
}

/// Collects the paper's main dataset: the full 646-network CNN zoo at the
/// training batch size on the five evaluation GPUs.
///
/// Honors the `DNNPERF_*` engine overrides (see
/// [`CollectOptions::from_env`]) and prints the per-run summary line to
/// stderr.
pub fn collect_main_cnn_dataset() -> Dataset {
    collect_main_cnn_dataset_opts(&CollectOptions::from_env())
}

/// [`collect_main_cnn_dataset`] with explicit engine options.
pub fn collect_main_cnn_dataset_opts(opts: &CollectOptions) -> Dataset {
    // Wall time here only feeds the stderr summary line (never the
    // dataset), but it still goes through the sanctioned clock so this
    // module stays free of bare `Instant::now()`.
    let clock = SystemClock;
    let t = clock.now();
    let nets = dnnperf_dnn::zoo::cnn_zoo();
    let (ds, report) = collect_report_opts(&nets, &evaluation_gpus(), &[TRAIN_BATCH], opts);
    eprintln!(
        "[collect] main CNN dataset: {} kernel rows | {}",
        ds.kernels.len(),
        report.summary(clock.now().saturating_sub(t).as_secs_f64())
    );
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_dnn::zoo;

    #[test]
    fn oom_runs_are_skipped() {
        let nets = [zoo::vgg::vgg16()];
        let gpus = [GpuSpec::by_name("Quadro P620").unwrap()];
        let ds = collect(&nets, &gpus, &[512]);
        assert!(ds.is_empty());
    }

    #[test]
    fn rows_are_consistent() {
        let nets = [zoo::resnet::resnet18()];
        let gpus = [GpuSpec::by_name("A100").unwrap()];
        let ds = collect(&nets, &gpus, &[32]);
        assert_eq!(ds.networks.len(), 1);
        let n = &ds.networks[0];
        assert_eq!(ds.kernels.len(), n.kernel_count as usize);
        assert_eq!(ds.layers.len(), zoo::resnet::resnet18().num_layers());
        // Layer seconds sum to the network GPU time.
        let layer_sum: f64 = ds.layers.iter().map(|l| l.seconds).sum();
        assert!((layer_sum - n.gpu_seconds).abs() < 1e-9);
        // E2E includes sync overhead on top of GPU time.
        assert!(n.e2e_seconds > n.gpu_seconds);
        // Kernel rows carry the owning layer's driver variables.
        let k0 = &ds.kernels[0];
        let l0 = ds
            .layers
            .iter()
            .find(|l| l.layer_index == k0.layer_index)
            .unwrap();
        assert_eq!(k0.in_elems, l0.in_elems);
        assert_eq!(k0.flops, l0.flops);
    }

    #[test]
    fn multiple_gpus_and_batches_multiply_rows() {
        let nets = [zoo::mobilenet::mobilenet_v2(0.5, 1.0)];
        let gpus = [
            GpuSpec::by_name("A100").unwrap(),
            GpuSpec::by_name("V100").unwrap(),
        ];
        let ds = collect(&nets, &gpus, &[8, 16, 32]);
        assert_eq!(ds.networks.len(), 6);
        assert_eq!(ds.gpu_names().len(), 2);
    }

    #[test]
    fn parallel_collection_matches_serial_exactly() {
        let nets: Vec<_> = (1..9)
            .map(|w| zoo::mobilenet::mobilenet_v2(w as f64 * 0.2, 1.0))
            .collect();
        let gpus = [
            GpuSpec::by_name("A100").unwrap(),
            GpuSpec::by_name("V100").unwrap(),
        ];
        let serial = collect(&nets, &gpus, &[8, 16]);
        for threads in [1, 3, 8, 32] {
            let parallel = collect_parallel(&nets, &gpus, &[8, 16], threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn training_collection_matches_modes() {
        // The folded grid runner must reproduce the direct profiler calls.
        let nets = [zoo::mobilenet::mobilenet_v2(0.5, 1.0)];
        let gpu = GpuSpec::by_name("A100").unwrap();
        let ds = collect_training(&nets, std::slice::from_ref(&gpu), &[16]);
        assert_eq!(ds.networks.len(), 1);
        let trace = Profiler::new(gpu.clone())
            .profile_training(&nets[0], 16)
            .unwrap();
        assert_eq!(ds.networks[0].e2e_seconds, trace.e2e_seconds);
        // Training parallelism is serial-identical too.
        let par = collect_training_opts(
            &nets,
            std::slice::from_ref(&gpu),
            &[16],
            &CollectOptions::with_threads(4),
        );
        assert_eq!(ds, par);
    }

    #[test]
    fn summary_names_every_counter_and_the_wall_time() {
        let report = CollectReport {
            ok: 11,
            oom_skipped: 12,
            invalid_requests: 13,
            retried: 14,
            recovered: 15,
            stragglers: 16,
            corrupt_measurements: 17,
            quarantined: 18,
            panicked: 19,
            dropped: 20,
        };
        assert_eq!(
            report.summary(0.4251),
            "collect: 11 ok, 12 oom-skipped, 13 invalid, 14 retried, 15 recovered, \
             16 stragglers, 17 corrupt-meas, 18 quarantined, 19 panicked, 20 dropped | 0.43s wall"
        );
    }

    #[test]
    fn evaluation_gpus_match_paper() {
        let names: Vec<String> = evaluation_gpus().iter().map(|g| g.name.clone()).collect();
        assert_eq!(names, ["A100", "A40", "GTX 1080 Ti", "TITAN RTX", "V100"]);
    }
}
