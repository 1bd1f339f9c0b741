//! A std-only micro-benchmark timer replacing criterion.
//!
//! Each measurement runs `warmup` untimed iterations, then times `iters`
//! iterations individually with [`std::time::Instant`] and reports the
//! median, p10 and p90 per-iteration latency (robust summaries; means are
//! meaningless under scheduler noise). Results are printed as a
//! human-readable line *and* as one JSON object per line on stdout, so runs
//! can be diffed or collected by scripts without a harness dependency.

use std::hint::black_box;
use std::time::Instant;

/// One benchmark measurement summary (per-iteration nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Measurement name (`group/function` by convention).
    pub name: String,
    /// Timed iterations contributing to the percentiles.
    pub iters: u32,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// 10th-percentile per-iteration time in nanoseconds.
    pub p10_ns: f64,
    /// 90th-percentile per-iteration time in nanoseconds.
    pub p90_ns: f64,
}

impl BenchResult {
    /// The result as one JSON object on a single line.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"iters\":{},\"median_ns\":{:.1},\"p10_ns\":{:.1},\"p90_ns\":{:.1}}}",
            self.name.replace('\\', "\\\\").replace('"', "\\\""),
            self.iters,
            self.median_ns,
            self.p10_ns,
            self.p90_ns
        )
    }
}

fn engineering(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Times `f` (`warmup` untimed + `iters` timed runs) and returns the
/// summary without printing.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn measure<T>(name: &str, warmup: u32, iters: u32, mut f: impl FnMut() -> T) -> BenchResult {
    assert!(
        iters > 0,
        "benchmark {name}: need at least one timed iteration"
    );
    for _ in 0..warmup {
        black_box(f());
    }
    // No pre-sort: `dnnperf_linreg::percentile` selects each order
    // statistic on its own scratch copy (quickselect), so handing it the
    // raw sample order is both correct and cheaper than sorting here.
    let samples_ns: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    BenchResult {
        name: name.to_string(),
        iters,
        median_ns: dnnperf_linreg::percentile(&samples_ns, 50.0),
        p10_ns: dnnperf_linreg::percentile(&samples_ns, 10.0),
        p90_ns: dnnperf_linreg::percentile(&samples_ns, 90.0),
    }
}

/// [`measure`]s and reports: a human-readable line plus a JSON line on
/// stdout.
pub fn bench<T>(name: &str, warmup: u32, iters: u32, f: impl FnMut() -> T) -> BenchResult {
    let r = measure(name, warmup, iters, f);
    println!(
        "{:<40} median {:>12}   p10 {:>12}   p90 {:>12}   ({} iters)",
        r.name,
        engineering(r.median_ns),
        engineering(r.p10_ns),
        engineering(r.p90_ns),
        r.iters
    );
    println!("{}", r.json_line());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_ordered_percentiles() {
        let mut n = 0u64;
        let r = measure("timer::spin", 2, 16, || {
            n = n.wrapping_add(1);
            std::hint::black_box((0..100u64).sum::<u64>())
        });
        assert!(n >= 18, "warmup + timed iterations must all run");
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
        assert!(r.median_ns >= 0.0);
    }

    #[test]
    fn json_line_is_wellformed_and_escaped() {
        let r = BenchResult {
            name: "a\"b".into(),
            iters: 4,
            median_ns: 1.5,
            p10_ns: 1.0,
            p90_ns: 2.0,
        };
        let j = r.json_line();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\""));
        assert!(j.contains("\"iters\":4"));
    }

    #[test]
    fn engineering_units() {
        assert_eq!(engineering(500.0), "500 ns");
        assert_eq!(engineering(1500.0), "1.50 us");
        assert_eq!(engineering(2.5e6), "2.50 ms");
        assert_eq!(engineering(3.2e9), "3.20 s");
    }
}
