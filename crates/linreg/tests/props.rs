//! Property-based tests for the regression and metric primitives.

use dnnperf_linreg::{
    fit, fit_bounded_intercept, fit_through_origin, mean_abs_rel_error, percentile, ratio_curve,
    OlsAccum, FIT_CHUNK,
};
use dnnperf_testkit::prelude::*;

fn finite_xs() -> impl Gen<Value = Vec<f64>> {
    vec(-1e6..1e6f64, 3..40).prop_filter("xs must not be constant", |xs| {
        xs.iter().any(|x| (x - xs[0]).abs() > 1e-6)
    })
}

props! {
    #[test]
    fn fit_recovers_exact_lines(xs in finite_xs(), slope in -100.0..100.0f64, intercept in -100.0..100.0f64) {
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let f = fit(&xs, &ys).unwrap();
        let scale = slope.abs().max(1.0);
        prop_assert!((f.line.slope - slope).abs() < 1e-6 * scale, "slope {} vs {}", f.line.slope, slope);
        prop_assert!(f.r2 > 1.0 - 1e-6);
    }

    #[test]
    fn fit_residuals_beat_any_other_line(xs in finite_xs(), noise in vec(-1.0..1.0f64, 40), d_slope in -0.5..0.5f64, d_int in -5.0..5.0f64) {
        let ys: Vec<f64> = xs.iter().zip(&noise).map(|(x, n)| 2.0 * x + n).collect();
        let f = fit(&xs, &ys).unwrap();
        let sse = |s: f64, i: f64| -> f64 {
            xs.iter().zip(&ys).map(|(x, y)| (y - s * x - i).powi(2)).sum()
        };
        let best = sse(f.line.slope, f.line.intercept);
        let other = sse(f.line.slope + d_slope, f.line.intercept + d_int);
        prop_assert!(best <= other + 1e-6 * best.max(1.0));
    }

    #[test]
    fn bounded_intercept_invariant(xs in finite_xs(), ys_raw in vec(0.001..1e4f64, 3..40)) {
        let n = xs.len().min(ys_raw.len());
        if n < 3 { return; }
        let (xs, ys) = (&xs[..n], &ys_raw[..n]);
        if let Ok(f) = fit_bounded_intercept(xs, ys) {
            let min_y = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(f.line.intercept >= 0.0);
            prop_assert!(f.line.intercept <= min_y + 1e-9);
        }
    }

    #[test]
    fn through_origin_has_zero_intercept(xs in finite_xs(), k in 0.01..100.0f64) {
        let ys: Vec<f64> = xs.iter().map(|x| k * x).collect();
        let f = fit_through_origin(&xs, &ys).unwrap();
        prop_assert_eq!(f.line.intercept, 0.0);
        prop_assert!((f.line.slope - k).abs() < 1e-6 * k);
    }

    #[test]
    fn percentile_is_bounded_and_monotone(mut xs in vec(-1e9..1e9f64, 1..100), p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        xs.sort_by(|a, b| a.total_cmp(b));
        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        let v1 = percentile(&xs, p1);
        let v2 = percentile(&xs, p2);
        prop_assert!(v1 >= lo && v1 <= hi);
        if p1 <= p2 {
            prop_assert!(v1 <= v2 + 1e-12);
        }
    }

    #[test]
    fn percentile_quickselect_matches_sort_based(xs in vec(-1e9..1e9f64, 1..120), p in 0.0..100.0f64) {
        // Reference: the pre-quickselect implementation — full sort under
        // total_cmp, then linear interpolation between the two ranks.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let expect = if lo == hi {
            sorted[lo]
        } else {
            let w = rank - lo as f64;
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        };
        let got = percentile(&xs, p);
        prop_assert_eq!(got.to_bits(), expect.to_bits(), "p={} got={} expect={}", p, got, expect);
    }

    #[test]
    fn percentile_quickselect_handles_duplicates_and_nan(base in vec(-10.0..10.0f64, 2..40), dup_every in 1..5usize, p in 0.0..100.0f64) {
        // Heavy duplication plus an injected NaN stresses the all-equal
        // partition path; the result must still match the sorted reference.
        let mut xs: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, v)| if i % dup_every == 0 { base[0] } else { *v })
            .collect();
        xs.push(f64::NAN);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let expect = if lo == hi {
            sorted[lo]
        } else {
            let w = rank - lo as f64;
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        };
        prop_assert_eq!(percentile(&xs, p).to_bits(), expect.to_bits());
    }

    #[test]
    fn fused_fit_matches_two_pass_reference(xs in finite_xs(), noise in vec(-1.0..1.0f64, 40), slope in -50.0..50.0f64, intercept in -10.0..10.0f64) {
        // Reference: textbook two-pass OLS (means, then centred moments).
        let ys: Vec<f64> = xs.iter().zip(&noise).map(|(x, n)| slope * x + intercept + n).collect();
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let mx = xs.iter().sum::<f64>() / n as f64;
        let my = ys.iter().sum::<f64>() / n as f64;
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let ref_slope = sxy / sxx;
        let ref_int = my - ref_slope * mx;
        let f = fit(xs, ys).unwrap();
        let scale = ref_slope.abs().max(1.0);
        prop_assert!((f.line.slope - ref_slope).abs() < 1e-9 * scale, "slope {} vs {}", f.line.slope, ref_slope);
        prop_assert!((f.line.intercept - ref_int).abs() < 1e-6 * ref_int.abs().max(1.0));
    }

    #[test]
    fn mare_is_scale_invariant(pred in vec(0.1..1e3f64, 1..30), scale in 0.1..100.0f64) {
        let meas: Vec<f64> = pred.iter().map(|p| p * 1.1).collect();
        let a = mean_abs_rel_error(&pred, &meas);
        let scaled_p: Vec<f64> = pred.iter().map(|p| p * scale).collect();
        let scaled_m: Vec<f64> = meas.iter().map(|m| m * scale).collect();
        let b = mean_abs_rel_error(&scaled_p, &scaled_m);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn ratio_curve_is_sorted(pred in vec(0.1..1e3f64, 2..50)) {
        let meas = vec![1.0; pred.len()];
        let pts = ratio_curve(&pred, &meas, &[0.0, 25.0, 50.0, 75.0, 100.0]);
        for w in pts.windows(2) {
            prop_assert!(w[0].ratio <= w[1].ratio + 1e-12);
        }
    }

    #[test]
    fn accum_merge_is_associative_in_value(xs in finite_xs(), noise in vec(-1.0..1.0f64, 40), c1 in 1..20usize, c2 in 1..20usize) {
        // Floating-point merging is not bit-associative, but the *value*
        // must not depend on the association: ((a+b)+c) and (a+(b+c)) agree
        // to relative tolerance and to exact sample counts.
        let ys: Vec<f64> = xs.iter().zip(&noise).map(|(x, n)| 3.0 * x + 1.0 + n).collect();
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let cut1 = 1 + c1 % (n - 1);
        let cut2 = cut1 + c2 % (n - cut1);
        let part = |lo: usize, hi: usize| {
            let mut a = OlsAccum::new();
            a.push_all(&xs[lo..hi], &ys[lo..hi]);
            a
        };
        let (a, b, c) = (part(0, cut1), part(cut1, cut2), part(cut2, n));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.min_y().to_bits(), right.min_y().to_bits());
        if let (Ok(fl), Ok(fr)) = (left.fit(), right.fit()) {
            let scale = fl.line.slope.abs().max(1.0);
            prop_assert!((fl.line.slope - fr.line.slope).abs() < 1e-9 * scale);
            prop_assert!((fl.line.intercept - fr.line.intercept).abs() < 1e-6 * fl.line.intercept.abs().max(1.0));
        }
    }

    #[test]
    fn accumulate_segments_is_cut_invariant_bitwise(len in 2..2600usize, seed in 0..1_000_000u64, c1 in 0..2600usize, c2 in 0..2600usize) {
        // The virtual concatenation places chunk boundaries by global row
        // index, so *any* segmentation of the same rows yields the exact
        // same accumulator state — across FIT_CHUNK boundaries included.
        let xs: Vec<f64> = (0..len).map(|i| ((i as u64 * 2654435761 + seed) % 10007) as f64 + 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.75 * x + 0.5).collect();
        let mut flat = OlsAccum::new();
        flat.accumulate(&xs, &ys);
        let (mut a, mut b) = (c1 % (len + 1), c2 % (len + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let mut split = OlsAccum::new();
        split.accumulate_segments([
            (&xs[..a], &ys[..a]),
            (&xs[a..b], &ys[a..b]),
            (&xs[b..], &ys[b..]),
        ]);
        prop_assert_eq!(split, flat);
    }

    #[test]
    fn worker_partials_reproduce_serial_accumulate_bitwise(len in 1..3100usize, seed in 0..1_000_000u64) {
        // The parallel contract: chunk accumulators computed independently
        // (any worker could own any chunk) and folded in chunk-index order
        // are bit-identical to the serial accumulate — and, within one
        // chunk, to the historical plain serial sweep.
        let xs: Vec<f64> = (0..len).map(|i| ((i as u64 * 48271 + seed) % 9973) as f64 * 0.5 + 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.3 * x + 7.0).collect();
        let mut serial = OlsAccum::new();
        serial.accumulate(&xs, &ys);
        let partials: Vec<OlsAccum> = xs
            .chunks(FIT_CHUNK)
            .zip(ys.chunks(FIT_CHUNK))
            .map(|(cx, cy)| {
                let mut p = OlsAccum::new();
                p.push_all(cx, cy);
                p
            })
            .collect();
        let mut folded = OlsAccum::new();
        for p in &partials {
            folded.merge(p);
        }
        prop_assert_eq!(folded, serial);
        if (2..=FIT_CHUNK).contains(&len) {
            let f = fit(&xs, &ys).unwrap();
            prop_assert_eq!(folded.fit().unwrap(), f);
        }
    }
}
