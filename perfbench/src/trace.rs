//! In-memory span recorder for traced runs.
//!
//! A span is a named interval with the span that caused it and the round
//! it belongs to. Spans stay in memory while the workload runs and are
//! written out as JSON lines when it ends. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `bandit.score`.
    pub name: &'static str,
    /// Round (or arrival) the span belongs to.
    pub round: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. `begin`/`end` nest through a stack, so a span begun
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A recorder shared between the benchmark loop and the policy probe.
pub type SharedTrace = Arc<Mutex<Trace>>;

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A shared empty trace.
    pub fn shared(epoch: Instant) -> SharedTrace {
        Arc::new(Mutex::new(Trace::new(epoch)))
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, round: u64) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            round,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already finished span with an explicit parent.
    pub fn record(
        &mut self,
        name: &'static str,
        round: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        let span = Span {
            name,
            round,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        id
    }

    /// Appends another trace's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the first `limit` spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Mean microseconds per round spent in spans named `name`: their self
/// time, or their full duration.
pub fn per_round_us(
    totals: &BTreeMap<&'static str, NameTotals>,
    name: &str,
    self_time: bool,
    rounds: u64,
) -> f64 {
    totals.get(name).map_or(0.0, |t| {
        (if self_time { t.self_ns } else { t.total_ns }) as f64 / 1e3 / rounds.max(1) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            round: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("score", 10, 40, Some(0)),
            span("oracle", 50, 60, Some(0)),
            span("kernel", 15, 35, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two parallel children overlap on [30, 40); a third overhangs
        // the parent's end and only its inside part counts.
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 20, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn begin_end_nests_and_totals_by_name() {
        let mut t = Trace::new(Instant::now());
        let outer = t.begin("sim.propose", 7);
        let inner = t.begin("bandit.score", 7);
        t.end(inner);
        let dangling = t.begin("bandit.oracle", 7);
        let _ = dangling;
        // Closing the outer span closes the one left open inside it.
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].end_ns <= spans[0].end_ns);
        let totals = totals_by_name(spans);
        assert_eq!(totals["sim.propose"].count, 1);
        let outer_total = totals["sim.propose"];
        assert_eq!(
            outer_total.self_ns + spans[1].dur_ns() + spans[2].dur_ns(),
            outer_total.total_ns
        );
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch);
        a.record("x", 0, epoch, epoch, None);
        let mut b = Trace::new(epoch);
        let p = b.record("round", 1, epoch, epoch, None);
        b.record("rpc", 1, epoch, epoch, Some(p));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
