//! Measurement hygiene: validity screening and statistical outlier
//! quarantine at dataset ingest.
//!
//! Real profiling streams contain two kinds of damage the paper's cleaning
//! step must handle before training:
//!
//! * **Invalid measurements** — NaN/Inf/zero/negative times. These are
//!   detectable per-trace, so collection rejects them at the profile
//!   boundary ([`trace_is_wholesome`]) and retries; a dataset loaded from
//!   an external source is re-screened with [`dataset_is_wholesome`].
//! * **Silent outliers** — finite, positive, but wildly wrong (a kernel
//!   measured ×40 slow because a co-located job stole the SMs). These are
//!   only detectable *statistically*, by comparing against replicate
//!   measurements of **identical** work — never merely similar work:
//!   [`quarantine_scale_outliers`] groups kernel rows that share the same
//!   GPU, kernel, batch *and* work descriptors (FLOPs, element counts), so
//!   every member of a group measures the exact same computation. A row
//!   that sits absurdly far from its group's median time marks the whole
//!   owning experiment for removal (the paper trains on experiments, so a
//!   partly-poisoned experiment is not worth keeping).
//!
//! Quarantine is conservative by construction: the threshold has an
//! absolute floor (×8 in either direction), so the natural spread of clean
//! data — which the hidden timing model's noise keeps well under ×2 —
//! never trips it. Clean datasets therefore pass through **byte-identical**,
//! which the fault-injection conformance suite relies on.

use crate::dataset::Dataset;
use dnnperf_gpu::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Experiment identity: one `(network, gpu, batch)` run.
type ExperimentKey = (Arc<str>, Arc<str>, u32);

/// Work identity of a kernel row: `(gpu, kernel, batch, flops, in_elems,
/// out_elems)`. Rows sharing a work key measured the exact same
/// computation, so their times are comparable replicates.
type WorkKey = (Arc<str>, Arc<str>, u32, u64, u64, u64);

fn work_key(r: &crate::KernelRow) -> WorkKey {
    (
        r.gpu.clone(),
        r.kernel.clone(),
        r.batch,
        r.flops,
        r.in_elems,
        r.out_elems,
    )
}

/// Whether a single measured time is usable for training.
pub fn time_is_valid(seconds: f64) -> bool {
    seconds.is_finite() && seconds > 0.0
}

/// Whether every time in `trace` (per-kernel and end-to-end) is finite and
/// strictly positive. Collection rejects non-wholesome traces at the
/// profile boundary and retries them like transient failures.
pub fn trace_is_wholesome(trace: &Trace) -> bool {
    time_is_valid(trace.e2e_seconds)
        && trace
            .layers
            .iter()
            .flat_map(|l| &l.kernels)
            .all(|k| time_is_valid(k.seconds))
}

/// Whether every time in `ds` (network, layer and kernel rows) is finite
/// and positive. Used to re-screen datasets that did not come straight
/// from the profiler (external CSVs).
///
/// Layer rows are the one exception to strict positivity: a layer's time
/// is the sum of its kernel times, and layers that launch no kernels
/// (`flatten` view changes) legitimately measure exactly zero. Kernel and
/// network times must still be strictly positive.
pub fn dataset_is_wholesome(ds: &Dataset) -> bool {
    ds.networks
        .iter()
        .all(|r| time_is_valid(r.e2e_seconds) && time_is_valid(r.gpu_seconds))
        && ds
            .layers
            .iter()
            .all(|r| r.seconds.is_finite() && r.seconds >= 0.0)
        && ds.kernels.iter().all(|r| time_is_valid(r.seconds))
}

/// MAD → sigma consistency factor for the Gaussian.
const MAD_SIGMA: f64 = 1.4826;

/// Outlier threshold in robust sigmas.
const MAD_K: f64 = 8.0;

/// Absolute floor on the log-space threshold: a point is only an outlier
/// if it is at least ×8 away from its group median, whatever the spread.
/// This keeps tight clean groups (MAD near zero) from flagging ordinary
/// measurement noise.
fn threshold_floor() -> f64 {
    8f64.ln()
}

fn median_of(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Quarantines experiments containing scale-outlier kernel times, removing
/// all of their rows from `ds`; returns the number of experiments removed.
///
/// Kernel rows are grouped by `(gpu, kernel name, batch, flops, in_elems,
/// out_elems)` — replicate measurements of the *identical* computation on
/// the same hardware, across networks and repeated blocks within a
/// network. Grouping on the full work signature is what makes the screen
/// safe: merely-similar work (same kernel, different layer shape) can
/// legitimately differ by far more than the threshold, but identical work
/// only varies by measurement noise. Within a group, each row is scored in
/// log space as `ln(seconds)`. A row is an outlier when it sits more than
/// `max(8 robust sigmas, ln 8)` from the group median; its whole owning
/// experiment is dropped, mirroring the paper's removal of
/// fail-to-execute experiments.
pub fn quarantine_scale_outliers(ds: &mut Dataset) -> u64 {
    // Group scores by the full work identity: only rows measuring the
    // exact same computation are comparable.
    let mut groups: BTreeMap<WorkKey, Vec<f64>> = BTreeMap::new();
    for r in &ds.kernels {
        groups.entry(work_key(r)).or_default().push(r.seconds.ln());
    }
    let centers: BTreeMap<WorkKey, (f64, f64)> = groups
        .into_iter()
        .filter(|(_, xs)| xs.len() >= 3) // need replicates to judge
        .map(|(k, xs)| {
            let med = median_of(xs.clone());
            let mad = median_of(xs.iter().map(|x| (x - med).abs()).collect());
            let thr = (MAD_K * MAD_SIGMA * mad).max(threshold_floor());
            (k, (med, thr))
        })
        .collect();

    let mut bad: BTreeSet<ExperimentKey> = BTreeSet::new();
    for r in &ds.kernels {
        let Some(&(med, thr)) = centers.get(&work_key(r)) else {
            continue;
        };
        let x = r.seconds.ln();
        if (x - med).abs() > thr {
            bad.insert((r.network.clone(), r.gpu.clone(), r.batch));
        }
    }
    if bad.is_empty() {
        return 0;
    }
    let removed = bad.len() as u64;
    ds.networks
        .retain(|r| !bad.contains(&(r.network.clone(), r.gpu.clone(), r.batch)));
    ds.layers
        .retain(|r| !bad.contains(&(r.network.clone(), r.gpu.clone(), r.batch)));
    ds.kernels
        .retain(|r| !bad.contains(&(r.network.clone(), r.gpu.clone(), r.batch)));
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect;
    use dnnperf_dnn::zoo;
    use dnnperf_gpu::GpuSpec;

    fn nets() -> Vec<dnnperf_dnn::Network> {
        (1..6)
            .map(|w| zoo::mobilenet::mobilenet_v2(w as f64 * 0.25, 1.0))
            .collect()
    }

    fn small() -> Dataset {
        collect(&nets(), &[GpuSpec::by_name("A100").unwrap()], &[16, 32])
    }

    #[test]
    fn clean_collections_are_wholesome_and_unquarantined() {
        let mut ds = small();
        assert!(dataset_is_wholesome(&ds));
        let before = ds.clone();
        assert_eq!(quarantine_scale_outliers(&mut ds), 0);
        assert_eq!(ds, before, "clean data must pass through untouched");
    }

    #[test]
    fn invalid_times_fail_wholesomeness() {
        let mut ds = small();
        assert!(dataset_is_wholesome(&ds));
        let orig = ds.kernels[0].seconds;
        for bad in [f64::NAN, f64::INFINITY, -1e-6, 0.0] {
            ds.kernels[0].seconds = bad;
            assert!(!dataset_is_wholesome(&ds), "{bad} accepted");
        }
        ds.kernels[0].seconds = orig;
        assert!(dataset_is_wholesome(&ds));
    }

    #[test]
    fn kernel_free_layers_do_not_fail_wholesomeness() {
        // VGG nets contain a flatten layer that launches no kernels: its
        // layer row measures exactly zero seconds, which is legitimate.
        let mut ds = collect(
            &[zoo::vgg::vgg11()],
            &[GpuSpec::by_name("A100").unwrap()],
            &[8],
        );
        assert!(ds.layers.iter().any(|r| r.seconds == 0.0));
        assert!(dataset_is_wholesome(&ds));
        // But a *negative* or non-finite layer time is still damage.
        ds.layers[0].seconds = -1e-9;
        assert!(!dataset_is_wholesome(&ds));
        ds.layers[0].seconds = f64::NAN;
        assert!(!dataset_is_wholesome(&ds));
    }

    /// Index of a kernel row that belongs to an identical-work group with
    /// at least three replicates (so the screen is allowed to judge it).
    fn judged_row(ds: &Dataset) -> usize {
        let mut counts: BTreeMap<WorkKey, usize> = BTreeMap::new();
        for r in &ds.kernels {
            *counts.entry(work_key(r)).or_default() += 1;
        }
        ds.kernels
            .iter()
            .position(|r| counts[&work_key(r)] >= 3)
            .expect("dataset must contain a replicated identical-work group")
    }

    #[test]
    fn scale_outlier_quarantines_its_whole_experiment() {
        let mut ds = small();
        let idx = judged_row(&ds);
        let victim = (
            ds.kernels[idx].network.clone(),
            ds.kernels[idx].gpu.clone(),
            ds.kernels[idx].batch,
        );
        ds.kernels[idx].seconds *= 40.0;
        let n_before = ds.networks.len();
        let removed = quarantine_scale_outliers(&mut ds);
        assert_eq!(removed, 1);
        assert_eq!(ds.networks.len(), n_before - 1);
        assert!(
            !ds.kernels
                .iter()
                .any(|r| (r.network.clone(), r.gpu.clone(), r.batch) == victim),
            "all rows of the poisoned experiment must go"
        );
        // The survivors are untouched and still wholesome.
        assert!(dataset_is_wholesome(&ds));
    }

    #[test]
    fn downscale_outliers_are_caught_too() {
        let mut ds = small();
        let idx = judged_row(&ds);
        ds.kernels[idx].seconds *= 0.025;
        assert_eq!(quarantine_scale_outliers(&mut ds), 1);
    }

    #[test]
    fn small_groups_are_never_judged() {
        // A dataset with a single experiment has no replicates: even a
        // wild time cannot be judged an outlier.
        let mut ds = collect(
            &[zoo::resnet::resnet18()],
            &[GpuSpec::by_name("V100").unwrap()],
            &[8],
        );
        // Most groups have < 3 members here (one network, one batch), so
        // scaling a single kernel should usually survive; assert only that
        // quarantine never removes more experiments than exist and stays
        // deterministic.
        let removed = quarantine_scale_outliers(&mut ds);
        assert!(removed <= 1);
    }

    #[test]
    fn wholesome_trace_screen_matches_row_screen() {
        let p = dnnperf_gpu::Profiler::new(GpuSpec::by_name("A100").unwrap());
        let t = p.profile(&zoo::resnet::resnet18(), 8).unwrap();
        assert!(trace_is_wholesome(&t));
        let mut bad = t.clone();
        bad.layers[0].kernels[0].seconds = f64::NAN;
        assert!(!trace_is_wholesome(&bad));
        let mut bad2 = t.clone();
        bad2.e2e_seconds = -1.0;
        assert!(!trace_is_wholesome(&bad2));
    }
}
