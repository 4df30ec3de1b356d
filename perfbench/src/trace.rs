//! The benchmark's span recorder: spans around calls into the library and
//! the daemon, kept in memory and written out when the run ends.
//!
//! The program itself carries no instrumentation; every span here is
//! opened and closed by the benchmark around a public call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in seconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation (analysis, sample or request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Nested spans of one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span inside the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (indices re-based, origins shared).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one tab-separated line per span, with its self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_s = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_s\tend_s\tself_s")?;
        for (i, (s, own)) in self.spans.iter().zip(&self_s).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}",
                s.op, s.name, s.start, s.end, own
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0), // overlaps `a` on [3, 4)
            span("a.inner", Some(1), 1.5, 3.5),
            span("c", Some(0), 8.0, 9.0),
        ];
        let own = self_times(&spans);
        // root: 10 − |[1,6) ∪ [8,9)| = 10 − 6; grandchildren do not count.
        assert_eq!(own, vec![4.0, 1.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn children_are_clamped_to_the_parent_interval() {
        let spans = vec![
            span("root", None, 0.0, 2.0),
            span("late", Some(0), 1.5, 3.0),
        ];
        assert_eq!(self_times(&spans), vec![1.5, 1.5]);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin);
        let root = rec.enter("root", 7);
        rec.scope("child", 7, || ());
        rec.exit(root);
        let mut other = Recorder::new(origin);
        let r2 = other.enter("root", 8);
        other.scope("child", 8, || ());
        other.exit(r2);
        rec.absorb(other);
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(self_times(rec.spans()).iter().all(|&t| t >= 0.0));
        let children = rec.spans().iter().filter(|s| s.name == "child").count();
        assert_eq!(children, 2);
    }
}
