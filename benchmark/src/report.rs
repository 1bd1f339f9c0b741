//! The result of one run: named metrics with units, plus failure
//! accounting, written as the one-line JSON object the benchmark prints
//! last. A small JSON reader checks the format in tests and lets the
//! smoke test read `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Operations attempted: requests, passes, predictions, checks.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, missing replies and
    /// output mismatches.
    pub failed: u64,
    /// A description of each kind of failure seen.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        let metric = Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = metric,
            None => self.metrics.push(metric),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failed check: `failed` of the attempted operations did
    /// not produce a correct result.
    pub fn fail(&mut self, failed: u64, what: impl Into<String>) {
        self.failed += failed;
        let what = what.into();
        if !self.problems.contains(&what) {
            self.problems.push(what);
        }
    }

    /// Adds another report's accounting (not its metrics).
    pub fn absorb_counts(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in &other.problems {
            if !self.problems.contains(p) {
                self.problems.push(p.clone());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Keeps only the named metrics, in the given order.
    pub fn select(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for name in names {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                kept.push(m.clone());
            }
        }
        self.metrics = kept;
    }

    /// The one-line result object:
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest decimal that reads back as the same
            // f64: every measured digit, no padding.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses [`Report::to_json`] output.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = Json::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or(format!("missing {k}"));
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or(format!("{k} is not a whole number"))
        };
        let mut report = Report {
            attempted: count("attempted")?,
            failed: count("failed")?,
            ..Report::default()
        };
        let Json::Object(metrics) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => report.set(name, v, u),
                _ => return Err(format!("metric {name} needs a value and a unit")),
            }
        }
        if field("correct")? != &Json::Bool(report.failed == 0) {
            report.problems.push("reported as incorrect".into());
        }
        Ok(report)
    }
}

/// A parsed JSON value (objects keep sorted keys; order is not needed).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Object(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if m.insert(k.clone(), v).is_some() {
                return Err(format!("duplicate key {k}"));
            }
            self.ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Array(v));
        }
        loop {
            v.push(self.value()?);
            self.ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(s).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.at + 1).copied();
                    s.push(match esc {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    });
                    self.at += 2;
                }
                Some(&c) => {
                    s.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Number)
            .ok_or(format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_keeps_every_digit() {
        let mut r = Report::default();
        r.attempt(1234);
        r.set("p50_us", 104.123_456_789_012_34, "us");
        r.set("setup_s", 0.812_7, "s");
        r.set("cache.hits", 150_000.0, "count");
        r.set("tiny", 1.5e-9, "s");
        let text = r.to_json();
        assert!(text.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0"));
        let back = Report::from_json(&text).unwrap();
        assert_eq!(back.attempted, 1234);
        assert_eq!(back.failed, 0);
        assert!(back.problems.is_empty());
        for m in &r.metrics {
            assert_eq!(back.get(&m.name).map(f64::to_bits), Some(m.value.to_bits()));
        }
    }

    #[test]
    fn failures_make_the_report_incorrect() {
        let mut r = Report::default();
        r.attempt(10);
        r.fail(2, "reply mismatch");
        r.fail(1, "reply mismatch");
        assert_eq!((r.failed, r.problems.len()), (3, 1));
        assert!(!r.correct());
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.failed, 3);
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn select_keeps_the_named_metrics_in_order() {
        let mut r = Report::default();
        r.set("a", 1.0, "s");
        r.set("b", 2.0, "s");
        r.set("a", 3.0, "s");
        r.select(&["b", "a", "missing"]);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(r.get("a"), Some(3.0));
    }

    #[test]
    fn parser_reads_nested_documents_and_rejects_garbage() {
        let doc =
            Json::parse(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": null, "d": false}}"#).unwrap();
        let a = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\"y"));
        assert_eq!(
            doc.get("b").and_then(|b| b.get("d")),
            Some(&Json::Bool(false))
        );
        for bad in [
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} x",
            "{\"a\": 1, \"a\": 2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
