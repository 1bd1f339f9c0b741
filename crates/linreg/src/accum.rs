//! The mergeable Youngs–Cramer accumulator behind every least-squares fit.
//!
//! [`crate::fit`] sweeps its samples once with Welford-style centred-moment
//! updates. That single pass is exactly a left fold, and this module turns
//! the fold state into a first-class value: an [`OlsAccum`] can absorb
//! samples one at a time ([`OlsAccum::push`]) or absorb another accumulator
//! wholesale ([`OlsAccum::merge`], Chan et al.'s pairwise update). Partial
//! accumulators computed over disjoint sample ranges therefore compose into
//! the same regression a serial sweep would produce — which is what lets
//! model training split one fit across worker threads.
//!
//! # Determinism contract
//!
//! Floating-point merging is *not* bit-associative: `merge(merge(a, b), c)`
//! and `merge(a, merge(b, c))` may differ in the last ulp. Bit-identical
//! results across thread counts therefore come from a canonical reduction
//! tree, not from merge order freedom:
//!
//! * samples are cut into chunks of exactly [`FIT_CHUNK`] rows, in sample
//!   order — the chunk boundaries depend only on the sample count, never on
//!   how many workers participate;
//! * each chunk is accumulated serially by [`OlsAccum::push_all`];
//! * chunk accumulators are folded left-to-right in chunk-index order.
//!
//! [`OlsAccum::accumulate`] and [`OlsAccum::accumulate_segments`] implement
//! that decomposition serially; a parallel caller reproduces it by computing
//! chunk accumulators on any workers it likes and merging them in chunk
//! order. Both sides produce bit-identical fits because they execute the
//! same floating-point operations in the same order. With a single chunk
//! (`n <= FIT_CHUNK`) the result is additionally bit-identical to the plain
//! serial sweep [`crate::fit`] has always performed.

use crate::ols::{Fit, FitError, Line};

/// Fixed row-chunk size for the canonical reduction tree.
///
/// Every chunked accumulation in the workspace — serial or parallel — cuts
/// its input at multiples of this many rows, so the floating-point reduction
/// shape is a function of the sample count alone. Changing this value
/// changes fitted coefficients in the last ulp for `n > FIT_CHUNK`; it is a
/// model-output-affecting constant, not a tuning knob.
pub const FIT_CHUNK: usize = 1024;

/// Mergeable single-pass state of a one-variable OLS fit.
///
/// Holds the sample count, running means of `x` and `y`, centred second
/// moments `m2x`/`m2y`, the co-moment `cxy`, and the minimum observed `y`
/// (needed by the bounded-intercept fits). All updates are shift-invariant,
/// so FLOP-scale magnitudes do not cancel catastrophically.
///
/// # Examples
///
/// ```
/// use dnnperf_linreg::OlsAccum;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [3.0, 5.0, 7.0, 9.0];
/// let mut left = OlsAccum::new();
/// left.push_all(&xs[..2], &ys[..2]);
/// let mut right = OlsAccum::new();
/// right.push_all(&xs[2..], &ys[2..]);
/// left.merge(&right);
/// let fit = left.fit().unwrap();
/// assert!((fit.line.slope - 2.0).abs() < 1e-12);
/// assert!((fit.line.intercept - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsAccum {
    /// Sample count as a float (the Welford divisor).
    n: f64,
    /// Sample count as an integer (reported in [`Fit::n`]).
    count: usize,
    mx: f64,
    my: f64,
    m2x: f64,
    m2y: f64,
    cxy: f64,
    min_y: f64,
}

impl Default for OlsAccum {
    fn default() -> Self {
        OlsAccum::new()
    }
}

impl OlsAccum {
    /// An empty accumulator (zero samples).
    pub fn new() -> Self {
        OlsAccum {
            n: 0.0,
            count: 0,
            mx: 0.0,
            my: 0.0,
            m2x: 0.0,
            m2y: 0.0,
            cxy: 0.0,
            min_y: f64::INFINITY,
        }
    }

    /// Number of samples absorbed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Minimum `y` observed so far; `+inf` when empty.
    pub fn min_y(&self) -> f64 {
        self.min_y
    }

    /// Absorbs one `(x, y)` sample.
    ///
    /// The update sequence is the exact Youngs–Cramer sweep [`crate::fit`]
    /// performs, so pushing a slice element-by-element reproduces the serial
    /// fit bit-for-bit.
    pub fn push(&mut self, x: f64, y: f64) {
        self.count += 1;
        self.n += 1.0;
        let dx = x - self.mx;
        let dy = y - self.my;
        self.mx += dx / self.n;
        self.my += dy / self.n;
        self.m2x += dx * (x - self.mx);
        self.m2y += dy * (y - self.my);
        self.cxy += dx * (y - self.my);
        self.min_y = self.min_y.min(y);
    }

    /// Absorbs paired samples by straight serial pushes — **no** internal
    /// chunking. This is the building block parallel callers use to compute
    /// one canonical chunk; for whole inputs use [`OlsAccum::accumulate`].
    ///
    /// Extra elements of the longer slice are ignored (callers validate
    /// lengths; see [`crate::fit`]).
    pub fn push_all(&mut self, xs: &[f64], ys: &[f64]) {
        for (x, y) in xs.iter().zip(ys) {
            self.push(*x, *y);
        }
    }

    /// Merges another accumulator into this one (Chan et al. pairwise
    /// update for means, centred moments and the co-moment).
    ///
    /// Merging is exact in expectation but not bit-associative; see the
    /// module docs for the canonical chunk discipline that yields
    /// bit-identical results across thread counts.
    pub fn merge(&mut self, other: &OlsAccum) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n;
        let n2 = other.n;
        let n = n1 + n2;
        let dx = other.mx - self.mx;
        let dy = other.my - self.my;
        let f = n1 * n2 / n;
        self.m2x += other.m2x + dx * dx * f;
        self.m2y += other.m2y + dy * dy * f;
        self.cxy += other.cxy + dx * dy * f;
        self.mx += dx * n2 / n;
        self.my += dy * n2 / n;
        self.n = n;
        self.count += other.count;
        self.min_y = self.min_y.min(other.min_y);
    }

    /// Absorbs paired slices through the canonical reduction tree: rows are
    /// cut at multiples of [`FIT_CHUNK`], each chunk is accumulated
    /// serially, and the chunk accumulators are merged in index order.
    ///
    /// Call this on a fresh accumulator — chunk boundaries restart at the
    /// call, so appending to a non-empty accumulator produces a different
    /// (still deterministic) reduction shape.
    pub fn accumulate(&mut self, xs: &[f64], ys: &[f64]) {
        for (cx, cy) in xs.chunks(FIT_CHUNK).zip(ys.chunks(FIT_CHUNK)) {
            let mut chunk = OlsAccum::new();
            chunk.push_all(cx, cy);
            self.merge(&chunk);
        }
    }

    /// Like [`OlsAccum::accumulate`] but over a *virtual concatenation* of
    /// `(xs, ys)` segments: chunk boundaries fall at multiples of
    /// [`FIT_CHUNK`] rows of the concatenation, crossing segment boundaries
    /// freely. Pooled fits over per-kernel row ranges use this so the
    /// reduction shape depends only on the total row count.
    pub fn accumulate_segments<'a, I>(&mut self, segments: I)
    where
        I: IntoIterator<Item = (&'a [f64], &'a [f64])>,
    {
        let mut chunk = OlsAccum::new();
        for (xs, ys) in segments {
            for (x, y) in xs.iter().zip(ys) {
                chunk.push(*x, *y);
                if chunk.count == FIT_CHUNK {
                    self.merge(&chunk);
                    chunk = OlsAccum::new();
                }
            }
        }
        if chunk.count > 0 {
            self.merge(&chunk);
        }
    }

    /// Finalises the accumulated state into a [`Fit`].
    ///
    /// # Errors
    ///
    /// [`FitError::TooFewPoints`] with fewer than two samples;
    /// [`FitError::DegenerateX`] if every `x` was identical (identical xs
    /// pin `mx` after the first sample, so `m2x` is exactly zero — in every
    /// chunk, and the merge's `dx` terms are zero too).
    pub fn fit(&self) -> Result<Fit, FitError> {
        if self.count < 2 {
            return Err(FitError::TooFewPoints { got: self.count });
        }
        if self.m2x == 0.0 {
            return Err(FitError::DegenerateX);
        }
        let slope = self.cxy / self.m2x;
        let line = Line::new(slope, self.my - slope * self.mx);
        // ss_res = m2y − slope·cxy exactly for the OLS line; `max(0.0)`
        // guards the tiny negatives floating point produces on near-perfect
        // fits. Constant ys give m2y = cxy = 0: a perfect constant fit.
        let r2 = if self.m2y == 0.0 {
            1.0
        } else {
            1.0 - (self.m2y - slope * self.cxy).max(0.0) / self.m2y
        };
        Ok(Fit {
            line,
            r2,
            n: self.count,
        })
    }
}

/// Bounded-intercept finalisation over segmented samples: the segment-level
/// counterpart of [`crate::fit_bounded_intercept`], taking the already
/// accumulated state plus the segments it came from (needed only when the
/// intercept must be clamped and the slope refitted).
///
/// The clamp refit and its R² are straight serial passes in segment order —
/// identical floating-point sequences to the historical concatenated-slice
/// implementation at any sample count.
///
/// # Errors
///
/// Same conditions as [`crate::fit`].
pub fn fit_bounded_segments(
    acc: &OlsAccum,
    segments: &[(&[f64], &[f64])],
) -> Result<Fit, FitError> {
    let f = acc.fit()?;
    // Not `acc.min_y().max(0.0)`: a measured time of −0.0 (the empty sum
    // of a kernel-less layer) would then clamp to a zero whose sign
    // depends on how `f64::max` is lowered, and the serialized intercept
    // would differ between debug and release builds.
    let min_y = if acc.min_y() > 0.0 { acc.min_y() } else { 0.0 };
    if f.line.intercept >= 0.0 && f.line.intercept <= min_y {
        return Ok(f);
    }
    let b = f.line.intercept.clamp(0.0, min_y);
    // Refit through the origin on the shifted data without materialising
    // the shifted vector: the through-origin slope is Σx(y−b) / Σx².
    let mut sxx = 0.0f64;
    let mut sxy = 0.0f64;
    for (xs, ys) in segments {
        for (x, y) in xs.iter().zip(*ys) {
            sxx += x * x;
            sxy += x * (y - b);
        }
    }
    if sxx == 0.0 {
        return Err(FitError::DegenerateX);
    }
    let slope = (sxy / sxx).max(0.0);
    let line = Line::new(slope, b);
    Ok(Fit {
        line,
        r2: r_squared_segments(segments, line),
        n: acc.count(),
    })
}

/// Fused single-pass R² over segmented samples (Welford total sum of
/// squares + residual sum of squares in one sweep), visiting rows in
/// segment order — the same sequence the concatenated-slice
/// `ols::r_squared` has always executed.
fn r_squared_segments(segments: &[(&[f64], &[f64])], line: Line) -> f64 {
    let mut n = 0.0f64;
    let mut my = 0.0f64;
    let mut ss_tot = 0.0f64;
    let mut ss_res = 0.0f64;
    for (xs, ys) in segments {
        for (x, y) in xs.iter().zip(*ys) {
            n += 1.0;
            let dy = y - my;
            my += dy / n;
            ss_tot += dy * (y - my);
            let e = y - line.eval(*x);
            ss_res += e * e;
        }
    }
    if ss_tot == 0.0 {
        // All y identical: the fit is perfect iff the residuals are zero.
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ols::fit;

    #[test]
    fn empty_accum_reports_too_few() {
        assert_eq!(
            OlsAccum::new().fit(),
            Err(FitError::TooFewPoints { got: 0 })
        );
    }

    #[test]
    fn push_matches_serial_fit_bitwise() {
        let xs: Vec<f64> = (0..200).map(|i| 1.0 + (i % 17) as f64 * 3.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x + 0.75).collect();
        let mut acc = OlsAccum::new();
        acc.push_all(&xs, &ys);
        assert_eq!(acc.fit().unwrap(), fit(&xs, &ys).unwrap());
    }

    #[test]
    fn merge_of_splits_recovers_the_line() {
        let xs: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.5 * x + 10.0).collect();
        for split in [1, 7, 250, 499] {
            let mut a = OlsAccum::new();
            a.push_all(&xs[..split], &ys[..split]);
            let mut b = OlsAccum::new();
            b.push_all(&xs[split..], &ys[split..]);
            a.merge(&b);
            let f = a.fit().unwrap();
            assert!((f.line.slope + 0.5).abs() < 1e-9, "split {split}");
            assert!((f.line.intercept - 10.0).abs() < 1e-7, "split {split}");
            assert_eq!(f.n, 500);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OlsAccum::new();
        a.push_all(&[1.0, 2.0, 3.0], &[1.0, 4.0, 9.0]);
        let before = a;
        a.merge(&OlsAccum::new());
        assert_eq!(a, before);
        let mut e = OlsAccum::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn degenerate_x_survives_merging() {
        let mut a = OlsAccum::new();
        a.push_all(&[2.0, 2.0], &[1.0, 3.0]);
        let mut b = OlsAccum::new();
        b.push_all(&[2.0, 2.0], &[5.0, 7.0]);
        a.merge(&b);
        assert_eq!(a.fit(), Err(FitError::DegenerateX));
    }

    #[test]
    fn accumulate_single_chunk_is_bit_identical_to_fit() {
        let xs: Vec<f64> = (0..FIT_CHUNK)
            .map(|i| (i as f64).sin() * 50.0 + 60.0)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.25 * x + 3.0).collect();
        let mut acc = OlsAccum::new();
        acc.accumulate(&xs, &ys);
        assert_eq!(acc.fit().unwrap(), fit(&xs, &ys).unwrap());
    }

    #[test]
    fn segments_match_concatenation_chunking() {
        // The virtual concatenation must place chunk boundaries by global
        // row index, so splitting the same rows into arbitrary segments
        // changes nothing.
        let xs: Vec<f64> = (0..3000).map(|i| (i % 97) as f64 + 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x + 2.0).collect();
        let mut whole = OlsAccum::new();
        whole.accumulate_segments([(&xs[..], &ys[..])]);
        let mut flat = OlsAccum::new();
        flat.accumulate(&xs, &ys);
        assert_eq!(whole, flat);
        for cut in [1usize, 512, 1024, 1500, 2999] {
            let mut split = OlsAccum::new();
            split.accumulate_segments([(&xs[..cut], &ys[..cut]), (&xs[cut..], &ys[cut..])]);
            assert_eq!(split, whole, "cut {cut}");
        }
    }

    #[test]
    fn bounded_segments_matches_bounded_slice() {
        let xs = [1.0, 2.0, 10.0];
        let ys = [0.5, 1.5, 11.0];
        let mut acc = OlsAccum::new();
        acc.accumulate(&xs, &ys);
        let seg = fit_bounded_segments(&acc, &[(&xs, &ys)]).unwrap();
        let flat = crate::fit_bounded_intercept(&xs, &ys).unwrap();
        assert_eq!(seg, flat);
        assert_eq!(seg.line.intercept, 0.0);
    }

    #[test]
    fn bounded_intercept_clamps_to_positive_zero_below_negative_zero_times() {
        // OLS puts the intercept above the smallest time, −0.0, so it is
        // clamped to that floor, which must come out as +0.0 in every build.
        let xs = [1.0, 100.0, 10_000.0];
        let ys = [-0.0, 20.0, 120.0];
        let mut acc = OlsAccum::new();
        acc.accumulate(&xs, &ys);
        assert!(acc.fit().unwrap().line.intercept > 0.0);
        let f = fit_bounded_segments(&acc, &[(&xs, &ys)]).unwrap();
        assert_eq!(f.line.intercept.to_bits(), 0.0f64.to_bits());
    }
}
