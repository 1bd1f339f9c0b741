//! Kernel clustering: kernels with similar linear behaviour share one
//! regression.
//!
//! The paper: "to avoid creating a linear regression model for every kernel,
//! we combine kernels that demonstrate similar linear relationships and only
//! build one model for these kernels. In total, on A100, for 182 kernels
//! recorded, we built 83 linear regression models."
//!
//! Clustering is greedy over slope ratio within each driver class; each
//! cluster's final regression is refitted on the pooled samples of its
//! member kernels.

use crate::classify::{Driver, KernelClassification};
use dnnperf_data::{DatasetView, KernelRow};
use dnnperf_linreg::{fit_bounded_segments, Fit, Line, OlsAccum, FIT_CHUNK};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default slope-ratio tolerance for merging two kernels into one cluster.
pub const DEFAULT_SLOPE_TOLERANCE: f64 = 1.08;

/// The result of clustering: an assignment of kernel symbols to clusters
/// and one (driver, regression) per cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    assignment: BTreeMap<Arc<str>, usize>,
    models: Vec<(Driver, Fit)>,
}

impl Clustering {
    /// The model used for a kernel symbol.
    pub fn model_for(&self, kernel: &str) -> Option<(Driver, &Fit)> {
        let id = *self.assignment.get(kernel)?;
        let (d, f) = self.models.get(id)?;
        Some((*d, f))
    }

    /// Cluster id of a kernel symbol.
    pub fn cluster_of(&self, kernel: &str) -> Option<usize> {
        self.assignment.get(kernel).copied()
    }

    /// Number of regression models (clusters).
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Number of kernel symbols covered.
    pub fn num_kernels(&self) -> usize {
        self.assignment.len()
    }

    /// All cluster models in id order.
    pub fn models(&self) -> &[(Driver, Fit)] {
        &self.models
    }

    /// Iterates over (kernel symbol, cluster id) assignments (unordered).
    pub fn assignments(&self) -> impl Iterator<Item = (&Arc<str>, usize)> {
        self.assignment.iter().map(|(k, &id)| (k, id))
    }

    /// Rebuilds a clustering from its parts (persistence).
    pub(crate) fn from_parts(
        assignment: BTreeMap<Arc<str>, usize>,
        models: Vec<(Driver, Fit)>,
    ) -> Self {
        debug_assert!(assignment.values().all(|&id| id < models.len()));
        Clustering { assignment, models }
    }
}

/// Clusters classified kernels whose slopes agree within `slope_tolerance`
/// (ratio), per driver class, and refits each cluster on pooled samples.
///
/// # Panics
///
/// Panics if `slope_tolerance < 1.0`.
///
/// # Examples
///
/// ```
/// use dnnperf_core::{classify_kernels, cluster_kernels};
/// use dnnperf_data::collect::collect;
/// use dnnperf_gpu::GpuSpec;
///
/// let nets = [dnnperf_dnn::zoo::resnet::resnet50()];
/// let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
/// let classes = classify_kernels(&ds.kernels);
/// let clustering = cluster_kernels(&ds.kernels, &classes, 1.35);
/// assert!(clustering.num_models() <= clustering.num_kernels());
/// ```
pub fn cluster_kernels(
    rows: &[KernelRow],
    classes: &BTreeMap<Arc<str>, KernelClassification>,
    slope_tolerance: f64,
) -> Clustering {
    let refs: Vec<&KernelRow> = rows.iter().collect();
    cluster_view(&DatasetView::from_refs(&refs), classes, slope_tolerance, 1)
}

/// Clusters classified kernels over a columnar [`DatasetView`] on up to
/// `threads` workers — the training hot path.
///
/// The greedy membership sweep is a single ordered pass over the
/// classified kernels and stays serial: per driver class, kernels sorted by
/// slope join the current cluster while their slope stays within
/// `slope_tolerance` of its first member's. The pooled refits then run
/// in two worker-count-independent phases: the *virtual concatenation* of
/// each cluster's member rows is cut into sub-chunks of exactly
/// [`FIT_CHUNK`] rows (chunk boundaries cross member-group boundaries
/// freely, so the reduction shape depends only on total row count), one
/// accumulator job runs per `(cluster, chunk)`, and the partials fold back
/// per cluster in chunk-index order. Finalisation — and the rare
/// clamped-intercept second pass, which re-sweeps the member segments
/// serially in member order — then runs in parallel across clusters. Both
/// phases key their floating-point reduction shape on [`FIT_CHUNK`] alone,
/// so the result is byte-identical at every thread count.
///
/// # Panics
///
/// Panics if `slope_tolerance < 1.0`.
pub fn cluster_view(
    view: &DatasetView,
    classes: &BTreeMap<Arc<str>, KernelClassification>,
    slope_tolerance: f64,
    threads: usize,
) -> Clustering {
    assert!(slope_tolerance >= 1.0, "slope tolerance must be >= 1");

    // Greedy membership sweep; members are recorded as view group
    // indices.
    let mut assignment = BTreeMap::new();
    let mut clusters: Vec<(Driver, Vec<usize>)> = Vec::new();
    for driver in Driver::all() {
        let mut members: Vec<(&Arc<str>, f64)> = classes
            .iter()
            .filter(|(k, c)| c.driver == driver && view.group_index(k).is_some())
            .map(|(k, c)| (k, c.chosen_fit().line.slope))
            .collect();
        members.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)));

        let mut i = 0;
        while i < members.len() {
            let mut j = i + 1;
            let base = members[i].1;
            while j < members.len() && slopes_close(base, members[j].1, slope_tolerance) {
                j += 1;
            }
            let id = clusters.len();
            let mut groups = Vec::with_capacity(j - i);
            for (k, _) in &members[i..j] {
                assignment.insert((*k).clone(), id);
                if let Some(g) = view.group_index(k) {
                    groups.push(g);
                }
            }
            clusters.push((driver, groups));
            i = j;
        }
    }

    // Phase 1: per-(cluster, chunk) accumulator jobs over the virtual
    // concatenation of each cluster's member rows, folded per cluster in
    // chunk-index order.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    for (c, (_, groups)) in clusters.iter().enumerate() {
        let total: usize = groups
            .iter()
            .map(|&g| view.group(g).map_or(0, |gv| gv.seconds.len()))
            .sum();
        let mut start = 0;
        while start < total {
            let end = (start + FIT_CHUNK).min(total);
            jobs.push((c, start, end));
            start = end;
        }
    }
    let accs: Vec<OlsAccum> = crate::par::reduce_indexed(
        jobs.len(),
        threads,
        |ji| {
            let (c, lo, hi) = jobs[ji];
            let (driver, groups) = &clusters[c];
            let mut chunk = OlsAccum::new();
            // Walk the member segments with a running concatenation offset
            // and push the sub-slice each one contributes to [lo, hi).
            let mut pos = 0usize;
            for &g in groups {
                let Some(gv) = view.group(g) else { continue };
                let len = gv.seconds.len();
                let seg_lo = lo.saturating_sub(pos).min(len);
                let seg_hi = hi.saturating_sub(pos).min(len);
                if seg_lo < seg_hi {
                    chunk.push_all(
                        &gv.drivers[driver.index()][seg_lo..seg_hi],
                        &gv.seconds[seg_lo..seg_hi],
                    );
                }
                pos += len;
                if pos >= hi {
                    break;
                }
            }
            (c, chunk)
        },
        vec![OlsAccum::new(); clusters.len()],
        |mut accs, (c, chunk): (usize, OlsAccum)| {
            if let Some(acc) = accs.get_mut(c) {
                acc.merge(&chunk);
            }
            accs
        },
    );

    // Phase 2: finalise each cluster in parallel, fits stitched back in
    // cluster-id order.
    let ids: Vec<usize> = (0..clusters.len()).collect();
    let models: Vec<(Driver, Fit)> = crate::par::map_ref(&ids, threads, |&c| {
        let (driver, groups) = &clusters[c];
        let segments: Vec<(&[f64], &[f64])> = groups
            .iter()
            .filter_map(|&g| view.group(g))
            .map(|gv| (gv.drivers[driver.index()], gv.seconds))
            .collect();
        let fit = match accs.get(c).map(|acc| fit_bounded_segments(acc, &segments)) {
            Some(Ok(f)) if f.line.slope >= 0.0 => f,
            _ => {
                // Constant fallback: mean of the pooled targets, summed as
                // one running left-to-right sweep in segment order — the
                // same floating-point sequence `mean` would run on the
                // concatenated targets.
                let mut sum = 0.0f64;
                let mut n = 0usize;
                for (_, ys) in &segments {
                    for y in *ys {
                        sum += y;
                    }
                    n += ys.len();
                }
                let m = if n == 0 { 0.0 } else { sum / n as f64 };
                Fit {
                    line: Line::new(0.0, m),
                    r2: 0.0,
                    n,
                }
            }
        };
        (*driver, fit)
    });
    Clustering { assignment, models }
}

fn slopes_close(a: f64, b: f64, tolerance: f64) -> bool {
    if a <= 0.0 || b <= 0.0 {
        // Constant (zero-slope) kernels cluster together.
        return a <= 0.0 && b <= 0.0;
    }
    let ratio = if a > b { a / b } else { b / a };
    ratio <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_kernels;

    fn row(kernel: &str, x: u64, seconds: f64) -> KernelRow {
        KernelRow {
            network: "n".into(),
            gpu: "g".into(),
            batch: 1,
            layer_index: 0,
            layer_type: Arc::from("conv"),
            kernel: kernel.into(),
            in_elems: 1,
            flops: x,
            out_elems: 1,
            seconds,
        }
    }

    fn synthetic(slopes: &[(&str, f64)]) -> Vec<KernelRow> {
        let mut rows = Vec::new();
        for (name, slope) in slopes {
            for i in 1..30u64 {
                rows.push(row(name, i * 100, slope * (i * 100) as f64 + 1.0));
            }
        }
        rows
    }

    #[test]
    fn similar_slopes_merge_dissimilar_do_not() {
        let rows = synthetic(&[("a", 1.0), ("b", 1.1), ("c", 10.0)]);
        let classes = classify_kernels(&rows);
        let cl = cluster_kernels(&rows, &classes, 1.35);
        assert_eq!(cl.num_kernels(), 3);
        assert_eq!(cl.num_models(), 2);
        assert_eq!(cl.cluster_of("a"), cl.cluster_of("b"));
        assert_ne!(cl.cluster_of("a"), cl.cluster_of("c"));
    }

    #[test]
    fn pooled_refit_is_between_member_slopes() {
        let rows = synthetic(&[("a", 1.0), ("b", 1.2)]);
        let classes = classify_kernels(&rows);
        let cl = cluster_kernels(&rows, &classes, 1.35);
        let (_, f) = cl.model_for("a").unwrap();
        assert!(
            f.line.slope > 0.99 && f.line.slope < 1.21,
            "{}",
            f.line.slope
        );
    }

    #[test]
    fn different_drivers_never_merge() {
        let mut rows = Vec::new();
        // "in_k" follows input, "op_k" follows flops, identical slopes.
        for i in 1..30u64 {
            rows.push(KernelRow {
                in_elems: i * 100,
                flops: (i * 37) % 900 + 1,
                out_elems: 1,
                seconds: (i * 100) as f64,
                ..row("in_k", 1, 0.0)
            });
            rows.push(KernelRow {
                in_elems: (i * 37) % 900 + 1,
                flops: i * 100,
                out_elems: 1,
                seconds: (i * 100) as f64,
                ..row("op_k", 1, 0.0)
            });
        }
        let classes = classify_kernels(&rows);
        let cl = cluster_kernels(&rows, &classes, 100.0);
        assert_ne!(cl.cluster_of("in_k"), cl.cluster_of("op_k"));
    }

    #[test]
    fn clustering_reduces_models_on_real_trace() {
        use dnnperf_data::collect::collect;
        use dnnperf_gpu::GpuSpec;
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet50(),
            dnnperf_dnn::zoo::densenet::densenet121(),
            dnnperf_dnn::zoo::vgg::vgg16(),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[64]);
        let classes = classify_kernels(&ds.kernels);
        let cl = cluster_kernels(&ds.kernels, &classes, DEFAULT_SLOPE_TOLERANCE);
        assert!(cl.num_models() < cl.num_kernels());
        assert!(cl.num_models() > 3);
    }

    #[test]
    #[should_panic(expected = "slope tolerance")]
    fn tolerance_below_one_panics() {
        cluster_kernels(&[], &BTreeMap::new(), 0.5);
    }

    #[test]
    fn parallel_refits_match_serial_exactly() {
        let rows = synthetic(&[("a", 1.0), ("b", 1.1), ("c", 10.0), ("d", 0.2), ("e", 0.21)]);
        let classes = classify_kernels(&rows);
        let serial = cluster_kernels(&rows, &classes, 1.35);
        let refs: Vec<&KernelRow> = rows.iter().collect();
        let view = dnnperf_data::DatasetView::from_refs(&refs);
        for threads in [2, 3, 8] {
            assert_eq!(
                cluster_view(&view, &classes, 1.35, threads),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn view_path_splits_big_clusters_into_subchunks_deterministically() {
        // Enough rows per kernel that the pooled virtual concatenation
        // spans several FIT_CHUNK boundaries, exercising the sub-chunk
        // segment walk at every thread count.
        let mut rows = Vec::new();
        for (name, slope) in [("a", 1.0f64), ("b", 1.05)] {
            for i in 1..1500u64 {
                rows.push(row(name, i * 10, slope * (i * 10) as f64 + 0.5));
            }
        }
        let classes = classify_kernels(&rows);
        let refs: Vec<&KernelRow> = rows.iter().collect();
        let view = dnnperf_data::DatasetView::from_refs(&refs);
        let serial = cluster_view(&view, &classes, 1.35, 1);
        assert_eq!(serial.num_models(), 1, "similar slopes must pool");
        assert_eq!(serial, cluster_kernels(&rows, &classes, 1.35));
        for threads in [2, 3, 8, 32] {
            assert_eq!(
                cluster_view(&view, &classes, 1.35, threads),
                serial,
                "threads = {threads}"
            );
        }
    }
}
