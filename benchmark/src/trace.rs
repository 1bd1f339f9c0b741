//! In-memory spans recorded around the calls the benchmark makes into
//! each layer. Spans of one request or pass share an id; they are kept in
//! memory during the run and written out when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Request or pass id shared by every span of that unit of work.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When off, [`Tracer::span`] only runs the
/// closure, so untraced runs pay nothing but a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer with the same switch, for another thread.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span open on this tracer.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = ns(crate::now());
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = ns(crate::now());
        out
    }

    /// Records a finished span with explicit bounds, such as a request
    /// timed from when it was due rather than when it was sent.
    pub fn record(&mut self, name: &'static str, id: u64, start: Duration, end: Duration) {
        if self.on {
            let span = Span {
                name,
                id,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: self.open.last().copied(),
            };
            self.spans.push(span);
        }
    }

    /// Appends another thread's spans.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Parents every top-level span that is not itself a `root` span to
    /// the `root` span with the same id: ties together spans of one
    /// request that were recorded on different threads.
    pub fn link_to_roots(&mut self, root: &str) {
        let roots: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.parent.is_none())
            .map(|(i, s)| (s.id, i))
            .collect();
        for s in &mut self.spans {
            if s.parent.is_none() && s.name != root {
                s.parent = roots.get(&s.id).copied();
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }
}

/// A clock reading in whole nanoseconds.
fn ns(t: Duration) -> u64 {
    u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn children_of(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut children = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    children
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    children_of(spans)
        .into_iter()
        .zip(spans)
        .map(|(kids, s)| s.ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Share (0..=1) of the time of all top-level `root` spans that their
/// children cover: how much of a request or pass the stage spans explain.
pub fn explained_share(spans: &[Span], root: &str) -> f64 {
    let children = children_of(spans);
    let (mut whole, mut explained) = (0u64, 0u64);
    for (s, kids) in spans.iter().zip(children) {
        if s.name == root && s.parent.is_none() {
            whole += s.ns();
            explained += covered(kids, s.start_ns, s.end_ns);
        }
    }
    if whole == 0 {
        0.0
    } else {
        explained as f64 / whole as f64
    }
}

/// Per span name: count, total and self time, largest self time first.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let mut by_name: HashMap<&'static str, (usize, u64, u64)> = HashMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns();
        e.2 += own;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, own))| (n, c, t, own))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// Writes the spans as tab-separated values, followed by the per-name
/// self-time summary as `#`-prefixed lines.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tid\tname\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "# name\tcount\ttotal_ms\tself_ms")?;
    for (name, count, total, own) in summary(spans) {
        writeln!(
            out,
            "# {name}\t{count}\t{:.3}\t{:.3}",
            total as f64 * 1e-6,
            own as f64 * 1e-6
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            id,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 0, 100, None),
            // Overlapping children (recorded on two threads) count once.
            span("a", 0, 10, 40, Some(0)),
            span("b", 0, 30, 50, Some(0)),
            // A child reaching past its parent is clipped.
            span("c", 0, 90, 120, Some(0)),
            // A grandchild only reduces its own parent.
            span("d", 0, 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 30, 8]);
        assert!((explained_share(&spans, "pass") - 0.5).abs() < 1e-12);
        let rows = summary(&spans);
        assert_eq!(rows[0], ("pass", 1, 100, 50));
    }

    #[test]
    fn nested_spans_link_and_merge_across_threads() {
        let mut main = Tracer::new(true);
        main.span("pass", 7, |t| {
            t.span("stage", 7, |t| t.span("inner", 7, |_| ()));
        });
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));

        let mut other = Tracer::new(true);
        other.span("tcp.write", 9, |_| ());
        let mut recv = Tracer::new(true);
        recv.record("request", 9, Duration::ZERO, crate::now());
        main.merge(other);
        main.merge(recv);
        main.link_to_roots("request");
        let spans = main.spans();
        assert_eq!(spans[3].name, "tcp.write");
        assert_eq!(spans[3].parent, Some(4));
        // Spans of other ids are left alone.
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, |t| t.span("y", 0, |_| 5));
        t.record("z", 0, crate::now(), crate::now());
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
