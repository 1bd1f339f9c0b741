//! One report and gate format for the committed `BENCH_*.json` baselines.
//!
//! A gated bench bin declares its report as one [`Table`]: an ordered
//! list of [`Row`]s, each a key, a number [`Format`], a function reading
//! the value from the bin's measurement, and an optional gate: a
//! [`Bound`], binding on the core counts [`Cores`] admits. The
//! same table writes the `--out` document and checks a run against a
//! `--check` baseline, so a bin spells each key once and a new gate is a
//! new row, not new checking code.
//!
//! The baseline is read and validated (its `"schema"` and every gated key)
//! before anything is measured; a failed gate names the key, the value and
//! the bound, and exits 1 after every row has been evaluated.

use crate::timer::BenchResult;

/// Extracts the number following `"key":` from a flat JSON document (the
/// committed `BENCH_*.json` baselines the gated bins `--check` against).
///
/// ```
/// let doc = "{\n  \"p99_us\": 130.5,\n  \"errors\": 0\n}";
/// assert_eq!(dnnperf_bench::json_number(doc, "p99_us"), Some(130.5));
/// assert_eq!(dnnperf_bench::json_number(doc, "errors"), Some(0.0));
/// assert_eq!(dnnperf_bench::json_number(doc, "missing"), None);
/// ```
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    raw_value(doc, key)?.parse().ok()
}

/// The trimmed text after `"key":` (a string keeps its quotes), up to
/// the next `,`, `}` or newline.
fn raw_value<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = &doc[at..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The machine's core count, as reports record it and gates condition on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// How a row's value is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// An integer count.
    Int,
    /// `{:.N}`.
    Fixed(usize),
    /// `{:.Ne}`.
    Exp(usize),
}

impl Format {
    fn render(self, value: f64) -> String {
        match self {
            Format::Int => format!("{value:.0}"),
            Format::Fixed(n) => format!("{value:.n$}"),
            Format::Exp(n) => format!("{value:.n$e}"),
        }
    }
}

/// What a gated value must satisfy. The first four kinds compare against
/// the baseline's value for the same key; the last two are absolute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Equal to the baseline.
    Exact,
    /// `|value - baseline| <= rel * |baseline| + abs`.
    Within {
        /// Tolerance relative to the baseline's magnitude.
        rel: f64,
        /// Absolute tolerance added to the relative one.
        abs: f64,
    },
    /// At most this multiple of the baseline.
    AtMostTimes(f64),
    /// At least this multiple of the baseline.
    AtLeastTimes(f64),
    /// At least this value, whatever the baseline.
    Floor(f64),
    /// At most this value, whatever the baseline.
    Ceiling(f64),
}

impl Bound {
    /// `Err` with the bound spelled out when `value` breaks it. A NaN
    /// value breaks every bound.
    fn check(self, value: f64, base: f64) -> Result<(), String> {
        let (ok, bound) = match self {
            Bound::Exact => (value == base, format!("baseline {base} exactly")),
            Bound::Within { rel, abs } => {
                let tol = rel * base.abs() + abs;
                (
                    (value - base).abs() <= tol,
                    format!("baseline {base} ± {tol:e}"),
                )
            }
            Bound::AtMostTimes(k) => {
                let limit = base * k;
                (
                    value <= limit,
                    format!("at most {limit} ({k} x baseline {base})"),
                )
            }
            Bound::AtLeastTimes(f) => {
                let floor = base * f;
                (
                    value >= floor,
                    format!("at least {floor} ({f} x baseline {base})"),
                )
            }
            Bound::Floor(x) => (value >= x, format!("at least {x}")),
            Bound::Ceiling(x) => (value <= x, format!("at most {x}")),
        };
        if ok {
            Ok(())
        } else {
            Err(bound)
        }
    }
}

/// The core counts on which a gate binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cores {
    /// Every machine.
    Any,
    /// Machines with at least this many cores.
    AtLeast(usize),
    /// Machines with fewer than this many cores.
    Below(usize),
}

impl Cores {
    fn admits(self, cores: usize) -> bool {
        match self {
            Cores::Any => true,
            Cores::AtLeast(n) => cores >= n,
            Cores::Below(n) => cores < n,
        }
    }
}

/// One report row over a measurement of type `M`.
pub struct Row<M> {
    key: String,
    format: Format,
    value: Box<dyn Fn(&M) -> f64>,
    gate: Option<(Cores, Bound)>,
}

impl<M> Row<M> {
    /// An ungated integer row.
    pub fn int(key: impl Into<String>, value: impl Fn(&M) -> u64 + 'static) -> Self {
        Row::new(key, Format::Int, move |m| value(m) as f64)
    }

    /// An ungated `{:.N}` row.
    pub fn fixed(
        key: impl Into<String>,
        decimals: usize,
        value: impl Fn(&M) -> f64 + 'static,
    ) -> Self {
        Row::new(key, Format::Fixed(decimals), value)
    }

    /// An ungated row in any `format`.
    pub fn new(
        key: impl Into<String>,
        format: Format,
        value: impl Fn(&M) -> f64 + 'static,
    ) -> Self {
        Row {
            key: key.into(),
            format,
            value: Box::new(value),
            gate: None,
        }
    }

    /// Gates the row on every machine.
    pub fn gate(self, bound: Bound) -> Self {
        self.gate_on(Cores::Any, bound)
    }

    /// Gates the row only on machines whose core count `cores` admits.
    pub fn gate_on(mut self, cores: Cores, bound: Bound) -> Self {
        self.gate = Some((cores, bound));
        self
    }
}

/// A committed baseline, read and validated against a [`Table`].
#[derive(Debug)]
pub struct Baseline {
    path: String,
    doc: String,
}

/// A bin's whole report: its schema and its rows, in output order.
pub struct Table<M> {
    schema: &'static str,
    rows: Vec<Row<M>>,
}

impl<M> Table<M> {
    /// A table writing `"schema": schema` ahead of `rows`.
    pub fn new(schema: &'static str, rows: Vec<Row<M>>) -> Self {
        Table { schema, rows }
    }

    /// The JSON document: schema, profile, every row in order, then the
    /// timer `entries` (omitted when empty).
    pub fn render(&self, profile: &str, m: &M, entries: &[BenchResult]) -> String {
        let mut fields = vec![
            format!("\"schema\": \"{}\"", self.schema),
            format!("\"profile\": \"{profile}\""),
        ];
        for row in &self.rows {
            fields.push(format!(
                "\"{}\": {}",
                row.key,
                row.format.render((row.value)(m))
            ));
        }
        if !entries.is_empty() {
            let lines: Vec<String> = entries
                .iter()
                .map(|e| format!("    {}", e.json_line()))
                .collect();
            fields.push(format!("\"entries\": [\n{}\n  ]", lines.join(",\n")));
        }
        format!("{{\n  {}\n}}\n", fields.join(",\n  "))
    }

    /// The baseline `doc` read from `path`, if it carries this table's
    /// schema and a number for every gated key.
    pub fn validate(&self, path: &str, doc: String) -> Result<Baseline, String> {
        let want = format!("\"{}\"", self.schema);
        match raw_value(&doc, "schema") {
            Some(got) if got == want => {}
            got => {
                let got = got.unwrap_or("(missing)");
                return Err(format!("{path}: schema {got} is not {want}"));
            }
        }
        let missing: Vec<&str> = self
            .rows
            .iter()
            .filter(|r| r.gate.is_some() && json_number(&doc, &r.key).is_none())
            .map(|r| r.key.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!("{path}: no gated key {}", missing.join(", ")));
        }
        Ok(Baseline {
            path: path.to_string(),
            doc,
        })
    }

    /// Reads the baseline at `path` and [`validate`](Self::validate)s it.
    pub fn load(&self, path: &str) -> Result<Baseline, String> {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        self.validate(path, doc)
    }

    /// Evaluates every gate that binds at `cores` against the baseline:
    /// `Ok` with the one-line summary, or `Err` with one `GATE FAIL` line
    /// per failed row.
    pub fn check(&self, m: &M, baseline: &Baseline, cores: usize) -> Result<String, Vec<String>> {
        let (mut checked, mut skipped, mut failures) = (0, 0, Vec::new());
        for row in &self.rows {
            let Some((binds, bound)) = row.gate else {
                continue;
            };
            if !binds.admits(cores) {
                skipped += 1;
                continue;
            }
            checked += 1;
            let value = (row.value)(m);
            let Some(base) = json_number(&baseline.doc, &row.key) else {
                failures.push(format!("GATE FAIL: no {} in {}", row.key, baseline.path));
                continue;
            };
            if let Err(bound) = bound.check(value, base) {
                failures.push(format!("GATE FAIL: {} = {value}, bound {bound}", row.key));
            }
        }
        if failures.is_empty() {
            Ok(format!(
                "gate OK: {checked} of {} gated rows bind at {cores} cores, all within bounds of {}",
                checked + skipped,
                baseline.path
            ))
        } else {
            Err(failures)
        }
    }

    /// `--check`: loads the baseline before anything is measured, or
    /// exits 1 with a one-line error.
    pub fn baseline(&self, flags: &Flags) -> Option<Baseline> {
        let path = flags.check.as_deref()?;
        match self.load(path) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("{} --check: {e}", flags.bin);
                std::process::exit(1);
            }
        }
    }

    /// `--out` and `--check` after the measurement: writes the document,
    /// then gates against `baseline` on this machine's core count, exiting
    /// 1 if any row failed.
    pub fn publish(
        &self,
        flags: &Flags,
        m: &M,
        entries: &[BenchResult],
        baseline: Option<Baseline>,
    ) {
        if let Some(path) = &flags.out {
            if let Err(e) = std::fs::write(path, self.render(flags.profile(), m, entries)) {
                eprintln!("{} --out: cannot write {path}: {e}", flags.bin);
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
        if let Some(baseline) = baseline {
            match self.check(m, &baseline, cores()) {
                Ok(summary) => println!("{summary}"),
                Err(failures) => {
                    for line in failures {
                        eprintln!("{line}");
                    }
                    std::process::exit(1);
                }
            }
        }
    }
}

/// The command line every gated bin shares: `--smoke`, `--out PATH`,
/// `--check PATH` (each value also as `--flag=PATH`) and the bin's own
/// switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flags {
    bin: &'static str,
    /// Reduced counts for CI.
    pub smoke: bool,
    /// Where to write the report.
    pub out: Option<String>,
    /// The baseline to gate against.
    pub check: Option<String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses the process arguments, exiting 2 on an unknown flag or a
    /// missing value.
    pub fn parse(bin: &'static str, switches: &[&str]) -> Flags {
        Flags::from_args(bin, switches, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        })
    }

    /// [`parse`](Self::parse) over explicit arguments.
    pub fn from_args(
        bin: &'static str,
        switches: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            bin,
            smoke: false,
            out: None,
            check: None,
            switches: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, v)) => (name, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let slot = match name {
                "--out" => &mut flags.out,
                "--check" => &mut flags.check,
                "--smoke" if inline.is_none() => {
                    flags.smoke = true;
                    continue;
                }
                s if inline.is_none() && switches.contains(&s) => {
                    flags.switches.push(arg.clone());
                    continue;
                }
                _ => return Err(format!("unknown flag {arg}")),
            };
            *slot = Some(
                inline
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{name} needs a path"))?,
            );
        }
        Ok(flags)
    }

    /// Whether the bin's own `switch` was given.
    pub fn switch(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// `"smoke"` or `"full"`, as the report records it.
    pub fn profile(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement with one field per format under test.
    struct M {
        count: u64,
        ratio: f64,
        sum: f64,
    }

    fn table(gate: Bound) -> Table<M> {
        type R = Row<M>;
        Table::new(
            "dnnperf-bench-test",
            vec![
                R::int("count", |m| m.count),
                R::fixed("ratio", 3, |m| m.ratio).gate(gate),
                R::new("sum", Format::Exp(12), |m| m.sum),
            ],
        )
    }

    fn baseline(t: &Table<M>, doc: &str) -> Baseline {
        t.validate("base.json", doc.to_string())
            .expect("valid baseline")
    }

    const BASE: &str = "{\n  \"schema\": \"dnnperf-bench-test\",\n  \"ratio\": 2.000\n}\n";

    fn verdict(gate: Bound, ratio: f64) -> Result<String, Vec<String>> {
        let t = table(gate);
        let m = M {
            count: 1,
            ratio,
            sum: 0.0,
        };
        t.check(&m, &baseline(&t, BASE), 1)
    }

    #[test]
    fn every_bound_kind_passes_just_inside_and_fails_just_outside() {
        let cases = [
            (Bound::Exact, 2.0, 2.0 + 1e-12),
            (
                Bound::Within {
                    rel: 0.25,
                    abs: 0.5,
                },
                3.0,
                3.0 + 1e-9,
            ),
            (
                Bound::Within {
                    rel: 0.25,
                    abs: 0.5,
                },
                1.0,
                1.0 - 1e-9,
            ),
            (Bound::AtMostTimes(2.0), 4.0, 4.0 + 1e-9),
            (Bound::AtLeastTimes(0.5), 1.0, 1.0 - 1e-9),
            (Bound::Floor(5.0), 5.0, 5.0 - 1e-9),
            (Bound::Ceiling(0.0), 0.0, 1.0),
        ];
        for (bound, inside, outside) in cases {
            assert!(verdict(bound, inside).is_ok(), "{bound:?} at {inside}");
            let fails = verdict(bound, outside).expect_err("outside the bound");
            assert_eq!(fails.len(), 1, "{bound:?}");
            assert!(
                fails[0].starts_with(&format!("GATE FAIL: ratio = {outside}, bound ")),
                "{}",
                fails[0]
            );
            assert!(verdict(bound, f64::NAN).is_err(), "{bound:?} passed NaN");
        }
    }

    #[test]
    fn core_conditions_pick_which_gates_bind() {
        let t = Table::new(
            "dnnperf-bench-test",
            vec![
                Row::fixed("ratio", 3, |m: &M| m.ratio)
                    .gate_on(Cores::Below(4), Bound::AtMostTimes(2.0)),
                Row::fixed("sum", 3, |m: &M| m.sum).gate_on(Cores::AtLeast(4), Bound::Floor(2.0)),
            ],
        );
        let doc = "{\n  \"schema\": \"dnnperf-bench-test\",\n  \"ratio\": 2.0,\n  \"sum\": 9\n}";
        let b = baseline(&t, doc);
        // Slow serial figure, no speedup: each branch sees only its own row.
        let m = M {
            count: 0,
            ratio: 5.0,
            sum: 1.0,
        };
        let low = t.check(&m, &b, 2).expect_err("ratio binds below 4 cores");
        assert_eq!(low.len(), 1);
        assert!(low[0].contains("ratio = 5"), "{low:?}");
        let high = t.check(&m, &b, 4).expect_err("sum binds at 4 cores");
        assert_eq!(high.len(), 1);
        assert!(high[0].contains("sum = 1"), "{high:?}");
        let ok = t
            .check(
                &M {
                    ratio: 4.0,
                    sum: 2.0,
                    ..m
                },
                &b,
                3,
            )
            .expect("passes");
        assert!(ok.contains("1 of 2 gated rows bind at 3 cores"), "{ok}");
    }

    #[test]
    fn every_failing_row_is_reported() {
        let t = Table::new(
            "dnnperf-bench-test",
            vec![
                Row::int("count", |m: &M| m.count).gate(Bound::Exact),
                Row::fixed("ratio", 3, |m: &M| m.ratio).gate(Bound::Exact),
            ],
        );
        let doc = "{\"schema\": \"dnnperf-bench-test\", \"count\": 7, \"ratio\": 1.5}";
        let m = M {
            count: 8,
            ratio: 1.25,
            sum: 0.0,
        };
        let fails = t.check(&m, &baseline(&t, doc), 1).expect_err("both differ");
        assert_eq!(fails.len(), 2);
        assert!(fails[0].contains("count = 8") && fails[0].contains("baseline 7"));
        assert!(fails[1].contains("ratio = 1.25") && fails[1].contains("baseline 1.5"));
    }

    #[test]
    fn rendered_values_read_back_through_json_number() {
        let t = table(Bound::Exact);
        let m = M {
            count: 21_837_190,
            ratio: 175.58,
            sum: 1.457547244165,
        };
        let doc = t.render("smoke", &m, &[]);
        assert_eq!(
            doc,
            "{\n  \"schema\": \"dnnperf-bench-test\",\n  \"profile\": \"smoke\",\n  \
             \"count\": 21837190,\n  \"ratio\": 175.580,\n  \"sum\": 1.457547244165e0\n}\n"
        );
        assert_eq!(json_number(&doc, "count"), Some(21_837_190.0));
        assert_eq!(json_number(&doc, "ratio"), Some(175.58));
        assert_eq!(json_number(&doc, "sum"), Some(1.457547244165));
        for (format, value, text) in [
            (Format::Int, 0.0, "0"),
            (Format::Fixed(1), 130_491.84, "130491.8"),
            (Format::Fixed(6), 0.966_101_7, "0.966102"),
            (Format::Exp(12), 1.457547244165, "1.457547244165e0"),
            (Format::Exp(3), 2.5e-7, "2.500e-7"),
        ] {
            let rendered = format.render(value);
            assert_eq!(rendered, text);
            let doc = format!("{{\n  \"k\": {rendered}\n}}");
            assert_eq!(json_number(&doc, "k"), text.parse().ok(), "{text}");
        }
    }

    #[test]
    fn entries_close_the_document() {
        let t = table(Bound::Exact);
        let m = M {
            count: 1,
            ratio: 1.0,
            sum: 1.0,
        };
        let e = BenchResult {
            name: "a/b".into(),
            iters: 3,
            median_ns: 2.0,
            p10_ns: 1.0,
            p90_ns: 3.0,
        };
        let doc = t.render("full", &m, &[e.clone(), e.clone()]);
        let tail = format!(
            "\"sum\": 1.000000000000e0,\n  \"entries\": [\n    {0},\n    {0}\n  ]\n}}\n",
            e.json_line()
        );
        assert!(doc.ends_with(&tail), "{doc}");
    }

    #[test]
    fn a_wrong_schema_is_rejected() {
        let t = table(Bound::Exact);
        let doc = BASE.replace("dnnperf-bench-test", "dnnperf-bench-5");
        let e = t.validate("b.json", doc).expect_err("wrong schema");
        assert_eq!(
            e,
            "b.json: schema \"dnnperf-bench-5\" is not \"dnnperf-bench-test\""
        );
        let e = t
            .validate("b.json", "{\"ratio\": 2}".into())
            .expect_err("no schema");
        assert!(e.contains("schema (missing)"), "{e}");
    }

    #[test]
    fn a_missing_gated_key_is_rejected() {
        let t = table(Bound::Exact);
        // Ungated keys may be absent; the gated one may not.
        let e = t
            .validate("b.json", "{\"schema\": \"dnnperf-bench-test\"}".into())
            .expect_err("no ratio");
        assert_eq!(e, "b.json: no gated key ratio");
    }

    #[test]
    fn a_missing_file_is_rejected() {
        let e = table(Bound::Exact)
            .load("no/such/BENCH.json")
            .expect_err("missing file");
        assert!(e.starts_with("cannot read no/such/BENCH.json: "), "{e}");
    }

    #[test]
    fn flags_take_both_value_forms_and_reject_the_rest() {
        let parse =
            |v: &[&str]| Flags::from_args("t", &["--extra"], v.iter().map(|s| s.to_string()));
        let f = parse(&["--smoke", "--out", "a.json", "--check=b.json", "--extra"]).expect("valid");
        assert!(f.smoke && f.switch("--extra") && !f.switch("--other"));
        assert_eq!(f.profile(), "smoke");
        assert_eq!(
            (f.out.as_deref(), f.check.as_deref()),
            (Some("a.json"), Some("b.json"))
        );
        let f = parse(&["--out=x=y", "--check", "c"]).expect("valid");
        assert_eq!(
            (f.out.as_deref(), f.check.as_deref()),
            (Some("x=y"), Some("c"))
        );
        assert_eq!(f.profile(), "full");
        assert_eq!(
            parse(&["--deadline-ms", "5"]).expect_err("unknown"),
            "unknown flag --deadline-ms"
        );
        assert_eq!(
            parse(&["--smoke=1"]).expect_err("unknown"),
            "unknown flag --smoke=1"
        );
        assert_eq!(
            parse(&["--extra=1"]).expect_err("unknown"),
            "unknown flag --extra=1"
        );
        assert_eq!(
            parse(&["--check"]).expect_err("no value"),
            "--check needs a path"
        );
    }
}
