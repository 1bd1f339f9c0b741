//! Automatic kernel classification (observation O5).
//!
//! For every kernel symbol, three candidate regressions are fitted against
//! the owning layer's input size (`N*C*H*W`), operation count (FLOPs) and
//! output size. The kernel is classified into the group whose regression has
//! the highest R² — exactly the paper's automated procedure: "our algorithm
//! can build linear regression for all three groups and compare the quality
//! of the linear regression (the R² value)".

use dnnperf_data::{DatasetView, GroupView, KernelRow};
use dnnperf_linreg::{fit_bounded_segments, mean, Fit, Line, OlsAccum, FIT_CHUNK};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The driver variable a kernel's execution time follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Driver {
    /// Input-driven (pre-processing kernels): time ~ input `N*C*H*W`.
    Input,
    /// Operation-driven (main kernels): time ~ layer FLOPs.
    Operation,
    /// Output-driven (post-processing kernels): time ~ output `N*C*H*W`.
    Output,
}

impl Driver {
    /// Index into a `[input, operation, output]` array.
    pub fn index(self) -> usize {
        match self {
            Driver::Input => 0,
            Driver::Operation => 1,
            Driver::Output => 2,
        }
    }

    /// All drivers in canonical order.
    pub fn all() -> [Driver; 3] {
        [Driver::Input, Driver::Operation, Driver::Output]
    }
}

impl fmt::Display for Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Driver::Input => "input",
            Driver::Operation => "operation",
            Driver::Output => "output",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing a [`Driver`] from its display name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDriverError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseDriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown driver {:?}", self.input)
    }
}

impl std::error::Error for ParseDriverError {}

impl std::str::FromStr for Driver {
    type Err = ParseDriverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "input" => Ok(Driver::Input),
            "operation" => Ok(Driver::Operation),
            "output" => Ok(Driver::Output),
            other => Err(ParseDriverError {
                input: other.to_string(),
            }),
        }
    }
}

/// The classification result for one kernel symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelClassification {
    /// Kernel symbol.
    pub kernel: Arc<str>,
    /// Chosen driver (highest R²).
    pub driver: Driver,
    /// Regression against each driver, in `[input, operation, output]`
    /// order; `None` where the regression was degenerate.
    pub fits: [Option<Fit>; 3],
    /// R² against each driver (`f64::NEG_INFINITY` where degenerate).
    pub r2: [f64; 3],
    /// Number of samples.
    pub n: usize,
}

impl KernelClassification {
    /// The regression for the chosen driver; a constant (mean) model when
    /// every candidate regression was degenerate.
    pub fn chosen_fit(&self) -> Fit {
        self.fits[self.driver.index()].unwrap_or(Fit {
            line: Line::new(0.0, 0.0),
            r2: 0.0,
            n: self.n,
        })
    }
}

fn constant_classification(kernel: Arc<str>, ys: &[f64]) -> KernelClassification {
    let c = Fit {
        line: Line::new(0.0, mean(ys)),
        r2: 0.0,
        n: ys.len(),
    };
    KernelClassification {
        kernel,
        driver: Driver::Operation,
        fits: [None, Some(c), None],
        r2: [f64::NEG_INFINITY; 3],
        n: ys.len(),
    }
}

/// Classifies every kernel symbol in `rows`.
///
/// # Examples
///
/// ```
/// use dnnperf_core::classify_kernels;
/// use dnnperf_data::collect::collect;
/// use dnnperf_gpu::GpuSpec;
///
/// let nets = [dnnperf_dnn::zoo::resnet::resnet18(), dnnperf_dnn::zoo::resnet::resnet34()];
/// let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
/// let classes = classify_kernels(&ds.kernels);
/// assert!(!classes.is_empty());
/// ```
pub fn classify_kernels(rows: &[KernelRow]) -> BTreeMap<Arc<str>, KernelClassification> {
    let refs: Vec<&KernelRow> = rows.iter().collect();
    classify_view(&DatasetView::from_refs(&refs), 1)
}

/// Finalises one group's three candidate regressions from its accumulated
/// chunk partials. A candidate is admitted only with a non-negative slope
/// (a negative one is physically meaningless for a time-vs-work relation)
/// and an R² better than the plain mean; the last maximum wins ties, and a
/// group with no admissible candidate gets a constant (mean) model.
fn classify_group(gv: &GroupView<'_>, accs: &[OlsAccum; 3]) -> KernelClassification {
    let ys = gv.seconds;
    let mut fits: [Option<Fit>; 3] = [None, None, None];
    let mut r2 = [f64::NEG_INFINITY; 3];
    for (i, (acc, xs)) in accs.iter().zip(gv.drivers).enumerate() {
        if let Ok(f) = fit_bounded_segments(acc, &[(xs, ys)]) {
            if f.line.slope >= 0.0 && f.r2 > 0.0 {
                r2[i] = f.r2;
                fits[i] = Some(f);
            }
        }
    }
    // Equivalent to `(0..3).max_by(total_cmp)` (last maximum wins on
    // ties) without the range-is-nonempty `expect`.
    let best = (1..3).fold(0, |b, i| {
        if r2[i].total_cmp(&r2[b]).is_ge() {
            i
        } else {
            b
        }
    });
    if r2[best] == f64::NEG_INFINITY {
        return constant_classification(gv.kernel.clone(), ys);
    }
    KernelClassification {
        kernel: gv.kernel.clone(),
        driver: Driver::all()[best],
        fits,
        r2,
        n: ys.len(),
    }
}

/// Classifies every kernel group of a columnar [`DatasetView`] on up to
/// `threads` workers — the training hot path.
///
/// Work is decomposed in two worker-count-independent phases. First, every
/// group is cut into sub-chunks of exactly [`FIT_CHUNK`] rows and one
/// three-driver accumulator job is run per `(group, chunk)`; the partials
/// fold back per group in chunk-index order. Large groups therefore split
/// across workers instead of serialising behind one thread when there are
/// fewer groups than workers. Second, each group's accumulators are
/// finalised (and the rare clamped-intercept refits re-swept) in parallel
/// across groups. Both phases key their floating-point reduction shape on
/// [`FIT_CHUNK`] alone, so the result is byte-identical to the serial path
/// at every thread count.
pub fn classify_view(
    view: &DatasetView,
    threads: usize,
) -> BTreeMap<Arc<str>, KernelClassification> {
    // (group, chunk-start, chunk-end) jobs in (group, chunk) order.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    for g in 0..view.num_groups() {
        let n = view.group(g).map_or(0, |gv| gv.seconds.len());
        let mut start = 0;
        while start < n {
            let end = (start + FIT_CHUNK).min(n);
            jobs.push((g, start, end));
            start = end;
        }
    }
    let accs: Vec<[OlsAccum; 3]> = crate::par::reduce_indexed(
        jobs.len(),
        threads,
        |j| {
            let (g, start, end) = jobs[j];
            let mut part = [OlsAccum::new(); 3];
            if let Some(gv) = view.group(g) {
                for (acc, xs) in part.iter_mut().zip(gv.drivers) {
                    acc.push_all(&xs[start..end], &gv.seconds[start..end]);
                }
            }
            (g, part)
        },
        vec![[OlsAccum::new(); 3]; view.num_groups()],
        |mut accs, (g, part): (usize, [OlsAccum; 3])| {
            if let Some(slot) = accs.get_mut(g) {
                for (acc, p) in slot.iter_mut().zip(part) {
                    acc.merge(&p);
                }
            }
            accs
        },
    );
    let group_ids: Vec<usize> = (0..view.num_groups()).collect();
    crate::par::map_ref(&group_ids, threads, |&g| {
        match (view.group(g), accs.get(g)) {
            (Some(gv), Some(acc)) => {
                let c = classify_group(&gv, acc);
                (gv.kernel.clone(), c)
            }
            // Unreachable for a well-formed view; classify the empty group
            // as a constant so the signature stays total.
            _ => {
                let kernel: Arc<str> = Arc::from("");
                (kernel.clone(), constant_classification(kernel, &[]))
            }
        }
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: &str, in_e: u64, flops: u64, out_e: u64, seconds: f64) -> KernelRow {
        KernelRow {
            network: "n".into(),
            gpu: "g".into(),
            batch: 1,
            layer_index: 0,
            layer_type: Arc::from("conv"),
            kernel: kernel.into(),
            in_elems: in_e,
            flops,
            out_elems: out_e,
            seconds,
        }
    }

    #[test]
    fn input_driven_kernel_is_detected() {
        // Time follows input exactly; flops and output are decorrelated.
        let rows: Vec<KernelRow> = (1..40u64)
            .map(|i| {
                row(
                    "im2col",
                    i * 100,
                    (i * 37) % 900 + 1,
                    (i * 61) % 700 + 1,
                    i as f64,
                )
            })
            .collect();
        let c = &classify_kernels(&rows)["im2col"];
        assert_eq!(c.driver, Driver::Input);
        assert!(c.r2[0] > 0.99);
        assert!(c.r2[0] > c.r2[1] && c.r2[0] > c.r2[2]);
    }

    #[test]
    fn operation_driven_kernel_is_detected() {
        let rows: Vec<KernelRow> = (1..40u64)
            .map(|i| {
                row(
                    "gemm",
                    (i * 53) % 800 + 1,
                    i * 1000,
                    (i * 31) % 600 + 1,
                    i as f64,
                )
            })
            .collect();
        let c = &classify_kernels(&rows)["gemm"];
        assert_eq!(c.driver, Driver::Operation);
    }

    #[test]
    fn output_driven_kernel_is_detected() {
        let rows: Vec<KernelRow> = (1..40u64)
            .map(|i| {
                row(
                    "bias",
                    (i * 53) % 800 + 1,
                    (i * 37) % 900 + 1,
                    i * 10,
                    i as f64,
                )
            })
            .collect();
        let c = &classify_kernels(&rows)["bias"];
        assert_eq!(c.driver, Driver::Output);
    }

    #[test]
    fn degenerate_samples_get_constant_model() {
        let rows = [row("k", 5, 5, 5, 2.0)];
        let c = &classify_kernels(&rows)["k"];
        let f = c.chosen_fit();
        assert_eq!(f.line.slope, 0.0);
        assert_eq!(f.line.intercept, 2.0);
    }

    #[test]
    fn negative_slopes_are_rejected() {
        // Time DECREASES with input: nonsense for a work-time relation.
        let rows: Vec<KernelRow> = (1..20u64)
            .map(|i| row("weird", i * 100, 7, 7, (30 - i) as f64))
            .collect();
        let c = &classify_kernels(&rows)["weird"];
        // Input fit would be perfect but negative; must not be chosen.
        assert!(c.fits[0].is_none());
    }

    #[test]
    fn classify_kernels_covers_all_symbols() {
        let mut rows = Vec::new();
        for i in 1..20u64 {
            rows.push(row("a", i, 1, 1, i as f64));
            rows.push(row("b", 1, i, 1, i as f64 * 2.0));
        }
        let classes = classify_kernels(&rows);
        assert_eq!(classes.len(), 2);
        assert!(classes.contains_key("a" as &str));
    }

    #[test]
    fn parallel_classification_matches_serial_exactly() {
        let mut rows = Vec::new();
        for k in 0..17u64 {
            for i in 1..25u64 {
                rows.push(row(
                    &format!("k{k}"),
                    i * (k + 1),
                    (i * 37 + k) % 900 + 1,
                    (i * 61 + k) % 700 + 1,
                    (i * (k + 2)) as f64,
                ));
            }
        }
        let serial = classify_kernels(&rows);
        let refs: Vec<&KernelRow> = rows.iter().collect();
        let view = DatasetView::from_refs(&refs);
        for threads in [2, 3, 8] {
            assert_eq!(classify_view(&view, threads), serial, "threads = {threads}");
        }
    }
}
