//! Spans of the traced run, kept in memory until the run ends.

use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer's
/// origin, the span that caused it, and the request it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// The request new spans are recorded under.
    pub request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        // Stamp last, so the bookkeeping above is outside the span.
        self.spans[id].start = self.now();
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end = end;
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            children[p].push((s.start.clamp(lo, hi), s.end.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the first child: only 30..40 is new coverage.
            span(20, 40, Some(0)),
            span(50, 60, Some(0)),
            // A grandchild counts against its parent, not the root.
            span(52, 58, Some(3)),
            // A child reaching past its parent is clipped to it.
            span(90, 120, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 10 - 10, 20, 20, 4, 6, 30]
        );
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new();
        t.request = 7;
        let root = t.enter("request");
        let v = t.time("leaf", || 41 + 1);
        t.exit(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 7);
        let selfs = self_times(&t.spans);
        assert_eq!(selfs[1], t.spans[1].ns());
        assert_eq!(selfs[0], t.spans[0].ns() - t.spans[1].ns());
    }
}
