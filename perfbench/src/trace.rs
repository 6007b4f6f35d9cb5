//! The benchmark's span recorder.
//!
//! Spans are recorded around calls into the program's public functions, not
//! inside the program: a span has a name, a start and end (nanoseconds
//! since the recorder's origin), the index of its parent span and the id of
//! the operation it belongs to. Spans stay in memory; [`Trace::write_tsv`]
//! writes them out once the run is over.
//!
//! A span's *self time* is its duration minus the part of it that its child
//! spans cover. An operation's *unattributed* time is the part of its root
//! span that no leaf span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Operation id of the traced setup replay.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation id that subsequent spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// A span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Records an interval that has already been measured, as a child of
    /// the currently open span.
    pub fn interval(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Ends recording.
    pub fn finish(self) -> Trace {
        assert!(self.open.is_empty(), "recorder finished with open spans");
        Trace { spans: self.spans }
    }
}

/// The spans of a finished recording.
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// Per operation, the summed self time (ms) of the spans of each name.
    pub fn self_ms_by_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let children = self.children();
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = union_ns(children[i].iter().map(|&c| &self.spans[c]), s);
            let self_ns = s.dur_ns().saturating_sub(covered);
            *out.entry(s.op).or_default().entry(s.name).or_default() += self_ns as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of the root spans named `name`, in recording order.
    pub fn root_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The share of the root spans named `root` that no leaf span covers,
    /// summed over those roots.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let children = self.children();
        let mut total = 0u64;
        let mut uncovered = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() || s.name != root {
                continue;
            }
            let mut leaves = Vec::new();
            let mut stack = children[i].clone();
            while let Some(j) = stack.pop() {
                if children[j].is_empty() {
                    leaves.push(j);
                } else {
                    stack.extend_from_slice(&children[j]);
                }
            }
            let covered = union_ns(leaves.iter().map(|&l| &self.spans[l]), s);
            total += s.dur_ns();
            uncovered += s.dur_ns().saturating_sub(covered);
        }
        if total == 0 {
            return 0.0;
        }
        uncovered as f64 / total as f64
    }

    /// Writes every span as one tab-separated line:
    /// `op name start_ns end_ns parent` (parent `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let op = if s.op == SETUP_OP {
                "setup".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{op}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `within` covered by the union of `spans`.
fn union_ns<'a>(spans: impl Iterator<Item = &'a Span>, within: &Span) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .map(|s| (s.start_ns.max(within.start_ns), s.end_ns.min(within.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cursor = 0;
    for (a, b) in iv {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let trace = Trace {
            spans: vec![
                span("root", None, 0, 100),
                span("a", Some(0), 10, 40),
                span("b", Some(0), 30, 60),
                span("c", Some(2), 30, 50),
            ],
        };
        let by_op = trace.self_ms_by_op();
        let ms = &by_op[&0];
        // children a ∪ b cover [10, 60)
        assert_eq!(ms["root"], 50.0 / 1e6);
        assert_eq!(ms["b"], 10.0 / 1e6);
        // leaves a and c cover [10, 50) of the root's 100 ns
        assert_eq!(trace.unattributed_frac("root"), 0.6);
    }
}
