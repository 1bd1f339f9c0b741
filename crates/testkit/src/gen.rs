//! Generator combinators for the property-testing harness.
//!
//! A [`Gen`] produces values from a stream of 64-bit *choices* drawn from a
//! [`Source`]. In record mode the choices come from the seeded SplitMix64
//! stream ([`crate::hashrng::Rng`]) and are journaled; in replay mode they
//! come from a (possibly mutated) journal, which is what makes greedy input
//! shrinking work for *every* combinator — including `map`, `filter` and
//! `filter_map`, which are otherwise impossible to shrink through.
//!
//! All numeric generators map a raw draw to a value **monotonically** (via
//! the multiply-shift reduction), so minimizing a recorded choice minimizes
//! the generated value and the shrinker's per-position binary search finds
//! exact boundary inputs.

use crate::hashrng::{self, Rng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// How many times a `filter`/`filter_map` retries before the whole case is
/// discarded.
const FILTER_RETRIES: usize = 100;

/// The choice stream generators draw from.
#[derive(Debug)]
pub struct Source {
    rng: Rng,
    replay: Option<Vec<u64>>,
    pos: usize,
    recorded: Vec<u64>,
}

impl Source {
    /// A recording source backed by fresh entropy from `seed`.
    pub fn record(seed: u64) -> Self {
        Source {
            rng: Rng::new(seed),
            replay: None,
            pos: 0,
            recorded: Vec::new(),
        }
    }

    /// A replaying source: draws come from `choices`; once exhausted, every
    /// further draw is `0` (the minimal choice).
    pub fn replay(choices: Vec<u64>) -> Self {
        Source {
            rng: Rng::new(0),
            replay: Some(choices),
            pos: 0,
            recorded: Vec::new(),
        }
    }

    /// The next 64-bit choice.
    pub fn draw(&mut self) -> u64 {
        let v = match &self.replay {
            Some(buf) => buf.get(self.pos).copied().unwrap_or(0),
            None => self.rng.next_u64(),
        };
        self.pos += 1;
        self.recorded.push(v);
        v
    }

    /// The journal of every choice drawn so far.
    pub fn into_recorded(self) -> Vec<u64> {
        self.recorded
    }
}

/// Monotone reduction of a 64-bit draw onto `[0, n)`.
pub(crate) fn scaled(draw: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((draw as u128 * n as u128) >> 64) as u64
}

/// A generator of test-case values.
///
/// `generate` returns `None` when a filter rejected the case; the runner
/// resamples (record mode) or abandons the shrink candidate (replay mode).
pub trait Gen {
    /// The type of generated values.
    type Value: Debug;

    /// Produces one value from the choice stream.
    fn generate(&self, src: &mut Source) -> Option<Self::Value>;

    /// Transforms generated values, keeping proptest's name (`map` would
    /// collide with `Iterator::map` on range generators).
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (proptest's `prop_filter`).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        desc: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            desc,
            pred,
        }
    }

    /// Maps and filters in one step (proptest's `prop_filter_map`).
    fn prop_filter_map<U: Debug, F: Fn(Self::Value) -> Option<U>>(
        self,
        desc: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            desc,
            f,
        }
    }
}

macro_rules! int_range_gen {
    ($($t:ty),+) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn generate(&self, src: &mut Source) -> Option<$t> {
                assert!(self.start < self.end, "empty range generator");
                let span = (self.end - self.start) as u64;
                Some(self.start + scaled(src.draw(), span) as $t)
            }
        }
    )+};
}

int_range_gen!(usize, u32, u64);

impl Gen for Range<f64> {
    type Value = f64;
    fn generate(&self, src: &mut Source) -> Option<f64> {
        assert!(self.start < self.end, "empty range generator");
        Some(hashrng::uniform(src.draw(), self.start, self.end))
    }
}

/// Inclusive size bounds for collection generators.
pub trait SizeRange {
    /// `(min, max)`, both inclusive.
    fn bounds(&self) -> (usize, usize);
}

impl SizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty size range");
        (self.start, self.end - 1)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty size range");
        (*self.start(), *self.end())
    }
}

impl SizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

/// A vector generator; see [`vec()`].
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    min: usize,
    max: usize,
}

/// Generates a `Vec` whose length is drawn from `sizes` and whose elements
/// come from `elem` (proptest's `prop::collection::vec`).
pub fn vec<G: Gen>(elem: G, sizes: impl SizeRange) -> VecGen<G> {
    let (min, max) = sizes.bounds();
    VecGen { elem, min, max }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, src: &mut Source) -> Option<Vec<G::Value>> {
        let span = (self.max - self.min + 1) as u64;
        let len = self.min + scaled(src.draw(), span) as usize;
        (0..len).map(|_| self.elem.generate(src)).collect()
    }
}

/// A one-of-these-values generator; see [`select`].
#[derive(Debug, Clone)]
pub struct Select<T> {
    options: Vec<T>,
}

/// Picks one of the given options (proptest's `prop::sample::select`).
/// Shrinks toward earlier options.
pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
    assert!(!options.is_empty(), "select: no options");
    Select { options }
}

impl<T: Clone + Debug> Gen for Select<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> Option<T> {
        let i = scaled(src.draw(), self.options.len() as u64) as usize;
        Some(self.options[i].clone())
    }
}

/// A boolean generator; see [`any_bool`].
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

/// Either boolean, shrinking toward `false` (proptest's `bool::ANY`).
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Gen for AnyBool {
    type Value = bool;
    fn generate(&self, src: &mut Source) -> Option<bool> {
        Some(scaled(src.draw(), 2) == 1)
    }
}

/// A random-string generator; see [`string_class`].
#[derive(Debug, Clone)]
pub struct StringClass {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

/// Generates strings over a regex-style character class (the body of a
/// `[...]`, e.g. `"A-Za-z0-9_"` or `" -~"`), with length drawn from
/// `sizes`. Replaces proptest's regex string strategies for the classes the
/// suites use. `\` escapes the next character; a trailing `-` is literal.
pub fn string_class(class: &str, sizes: impl SizeRange) -> StringClass {
    let raw: Vec<char> = class.chars().collect();
    let mut chars = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let c = if raw[i] == '\\' {
            i += 1;
            raw[i]
        } else {
            raw[i]
        };
        if raw.get(i + 1) == Some(&'-') && i + 2 < raw.len() {
            let hi = raw[i + 2];
            assert!(c <= hi, "string_class: inverted range {c}-{hi}");
            for u in (c as u32)..=(hi as u32) {
                chars.extend(char::from_u32(u));
            }
            i += 3;
        } else {
            chars.push(c);
            i += 1;
        }
    }
    assert!(!chars.is_empty(), "string_class: empty class");
    let (min, max) = sizes.bounds();
    StringClass { chars, min, max }
}

impl Gen for StringClass {
    type Value = String;
    fn generate(&self, src: &mut Source) -> Option<String> {
        let span = (self.max - self.min + 1) as u64;
        let len = self.min + scaled(src.draw(), span) as usize;
        let n = self.chars.len() as u64;
        Some(
            (0..len)
                .map(|_| self.chars[scaled(src.draw(), n) as usize])
                .collect(),
        )
    }
}

/// The result of [`Gen::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, U: Debug, F: Fn(G::Value) -> U> Gen for Map<G, F> {
    type Value = U;
    fn generate(&self, src: &mut Source) -> Option<U> {
        self.inner.generate(src).map(&self.f)
    }
}

/// The result of [`Gen::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<G, F> {
    inner: G,
    #[allow(dead_code)] // Documentation for humans reading the test source.
    desc: &'static str,
    pred: F,
}

impl<G: Gen, F: Fn(&G::Value) -> bool> Gen for Filter<G, F> {
    type Value = G::Value;
    fn generate(&self, src: &mut Source) -> Option<G::Value> {
        for _ in 0..FILTER_RETRIES {
            if let Some(v) = self.inner.generate(src) {
                if (self.pred)(&v) {
                    return Some(v);
                }
            }
        }
        None
    }
}

/// The result of [`Gen::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<G, F> {
    inner: G,
    #[allow(dead_code)] // Documentation for humans reading the test source.
    desc: &'static str,
    f: F,
}

impl<G: Gen, U: Debug, F: Fn(G::Value) -> Option<U>> Gen for FilterMap<G, F> {
    type Value = U;
    fn generate(&self, src: &mut Source) -> Option<U> {
        for _ in 0..FILTER_RETRIES {
            if let Some(v) = self.inner.generate(src) {
                if let Some(u) = (self.f)(v) {
                    return Some(u);
                }
            }
        }
        None
    }
}

macro_rules! tuple_gen {
    ($($g:ident . $v:ident),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, src: &mut Source) -> Option<Self::Value> {
                let ($($v,)+) = self;
                Some(($(
                    match $v.generate(src) {
                        Some(x) => x,
                        None => return None,
                    },
                )+))
            }
        }
    };
}

tuple_gen!(A.a);
tuple_gen!(A.a, B.b);
tuple_gen!(A.a, B.b, C.c);
tuple_gen!(A.a, B.b, C.c, D.d);
tuple_gen!(A.a, B.b, C.c, D.d, E.e);
tuple_gen!(A.a, B.b, C.c, D.d, E.e, F.f);
tuple_gen!(A.a, B.b, C.c, D.d, E.e, F.f, G.g);
tuple_gen!(A.a, B.b, C.c, D.d, E.e, F.f, G.g, H.h);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<G: Gen>(g: &G, seed: u64) -> G::Value {
        g.generate(&mut Source::record(seed))
            .expect("generation succeeds")
    }

    #[test]
    fn ranges_stay_in_bounds() {
        for seed in 0..500 {
            let u = sample(&(3usize..9), seed);
            assert!((3..9).contains(&u));
            let x = sample(&(1u64..1_000_000), seed);
            assert!((1..1_000_000).contains(&x));
            let f = sample(&(1e-7..1e-2f64), seed);
            assert!((1e-7..1e-2).contains(&f));
        }
    }

    #[test]
    fn zero_draw_is_range_minimum() {
        let mut src = Source::replay(vec![]);
        assert_eq!((5usize..100).generate(&mut src).unwrap(), 5);
        assert_eq!((2.0..3.0f64).generate(&mut src).unwrap(), 2.0);
        assert!(!any_bool().generate(&mut src).unwrap());
    }

    #[test]
    fn int_mapping_is_monotone_in_the_draw() {
        let g = 10u64..1000;
        let mut last = 0;
        for draw in (0..64).map(|i| u64::MAX / 64 * i) {
            let mut src = Source::replay(vec![draw]);
            let v = g.generate(&mut src).unwrap();
            assert!(v >= last, "monotone mapping violated");
            last = v;
        }
    }

    #[test]
    fn vec_respects_size_bounds() {
        for seed in 0..200 {
            let v = sample(&vec(0u64..10, 2..7), seed);
            assert!((2..7).contains(&v.len()));
            let w = sample(&vec(0u64..10, 4..=4), seed);
            assert_eq!(w.len(), 4);
        }
    }

    #[test]
    fn select_only_picks_options() {
        let opts = [1usize, 3, 5, 7];
        for seed in 0..100 {
            assert!(opts.contains(&sample(&select(opts.to_vec()), seed)));
        }
    }

    #[test]
    fn string_class_parses_ranges_escapes_and_trailing_dash() {
        let g = string_class("A-Za-z0-9_.\\[\\]-", 1..=24);
        assert_eq!(g.chars.len(), 26 + 26 + 10 + 5);
        assert!(g.chars.contains(&'['));
        assert!(g.chars.contains(&']'));
        assert!(g.chars.contains(&'-'));
        assert!(g.chars.contains(&'.'));
        for seed in 0..100 {
            let s = sample(&g, seed);
            assert!((1..=24).contains(&s.len()));
            assert!(s.chars().all(|c| g.chars.contains(&c)));
        }
        // Printable ASCII.
        let junk = string_class(" -~", 0..=80);
        assert_eq!(junk.chars.len(), 95);
    }

    #[test]
    fn map_filter_and_tuples_compose() {
        let g = (0usize..10, 0usize..10)
            .prop_map(|(a, b)| a * 10 + b)
            .prop_filter("must be even", |v| v % 2 == 0);
        for seed in 0..100 {
            let v = sample(&g, seed);
            assert_eq!(v % 2, 0);
            assert!(v < 100);
        }
    }

    #[test]
    fn filter_gives_up_instead_of_spinning() {
        let g = (0usize..10).prop_filter("impossible", |_| false);
        assert!(g.generate(&mut Source::record(1)).is_none());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vec((0usize..100, 0.0..1.0f64), 0..10);
        assert_eq!(
            format!("{:?}", sample(&g, 9)),
            format!("{:?}", sample(&g, 9))
        );
    }
}
