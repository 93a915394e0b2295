//! In-memory spans recorded around calls into each layer.
//!
//! A span is a named interval with a parent and a request id. Spans are
//! kept in memory for the whole run and written out as JSON lines when
//! it ends. A layer's self time is its spans' duration minus the part
//! covered by their child spans ([`self_times`]).
//!
//! Calls too frequent to record one by one (protocol callbacks inside a
//! simulation run) are timed by the caller and added as one aggregate
//! child span per parent with [`Tracer::record`]; its `calls` field says
//! how many calls it stands for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.run_until`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (trial, step or wire request) this span belongs to.
    pub request: u64,
    /// How many calls the span covers (1 unless it is an aggregate).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adds a finished span measured on this tracer's epoch.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let start = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            request,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Marks span `id` as standing for `calls` calls.
    pub fn set_calls(&mut self, id: usize, calls: u64) {
        self.spans[id].calls = calls;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a finished aggregate span of `calls` calls totalling
    /// `total_ns`, as a child of `parent`. It is laid out from the
    /// parent's start; only its duration carries meaning.
    pub fn record(&mut self, name: &'static str, parent: usize, total_ns: u64, calls: u64) {
        let (start, request) = (self.spans[parent].start_ns, self.spans[parent].request);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + total_ns,
            parent: Some(parent),
            request,
            calls,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Calls covered (aggregate spans count their `calls`).
    pub calls: u64,
    /// Summed span duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct children.
    pub self_ns: u64,
}

/// Totals and self time per span name over a whole recorded list
/// (parents are indices into it). Children are assumed to nest inside
/// their parent, so a parent's self time is its duration minus the sum
/// of its direct children's durations (clamped at zero).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.calls += span.calls;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // trial [0,100) > run [10,90) > {cb [20,30), cb [40,70)}, and
        // grandchild [45,50) under the second callback.
        let spans = vec![
            span("trial", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("cb", 20, 30, Some(1)),
            span("cb", 40, 70, Some(1)),
            span("inner", 45, 50, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["trial"].self_ns, 20);
        assert_eq!(t["run"].total_ns, 80);
        assert_eq!(t["run"].self_ns, 40);
        assert_eq!(t["cb"].calls, 2);
        assert_eq!(t["cb"].total_ns, 40);
        assert_eq!(t["cb"].self_ns, 35);
        assert_eq!(t["inner"].self_ns, 5);
        // Self times partition the root's duration.
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn aggregate_children_count_their_calls() {
        let mut tracer = Tracer::new();
        let run = tracer.open("run", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(run);
        let run_ns = tracer.spans()[run].duration_ns();
        tracer.record("cb", run, run_ns / 4, 1000);
        let t = self_times(tracer.spans());
        assert_eq!(t["cb"].calls, 1000);
        assert_eq!(t["run"].self_ns, run_ns - run_ns / 4);
        assert_eq!(tracer.spans()[1].request, 7);
    }

    #[test]
    fn spans_nest_through_the_open_stack() {
        let mut tracer = Tracer::new();
        let outer = tracer.open("outer", 1);
        let sum = tracer.span("inner", 2, || (1..=10u64).sum::<u64>());
        assert_eq!(sum, 55);
        tracer.close(outer);
        tracer.span("sibling", 3, || ());
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 2);
        assert_eq!(spans[2].parent, None);
    }
}
