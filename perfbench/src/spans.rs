//! The traced run's span journal: spans the benchmark records around its
//! own calls into each layer, kept in memory during the run and written
//! out when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.rpc`.
    pub name: &'static str,
    /// Start, ns since the journal's origin.
    pub start_ns: u64,
    /// End, ns since the journal's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (spans of one request share it).
    pub request: u64,
    /// True when the interval's length was reported by the program and
    /// its position inferred (the server's latency sits at the end of
    /// the client's call), not observed.
    pub derived: bool,
}

/// In-memory span store.
pub struct Journal {
    origin: Instant,
    spans: Vec<Span>,
}

impl Journal {
    /// An empty journal whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Journal {
        Journal {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an observed span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            derived: false,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span of known length `dur_ns` ending at `end`.
    pub fn record_derived(
        &mut self,
        name: &'static str,
        end: Instant,
        dur_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let end_ns = self.ns(end);
        let span = Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent,
            request,
            derived: true,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets span `index`'s interval; for a parent recorded before its
    /// children.
    pub fn stretch(&mut self, index: usize, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[index];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    }

    /// Self time of every span in ns, in recording order: its duration
    /// minus the part of its interval its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                let covered = covered_ns(s.start_ns, s.end_ns, kids);
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times in ms, grouped by span name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            out.entry(span.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Writes the journal as JSON lines: one span per line with its
    /// index, name, start, end, parent, request id and self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"self_ns\":{own},\"derived\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.derived
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_clips_and_merges() {
        assert_eq!(
            covered_ns(10, 100, &mut [(20, 40), (30, 50), (90, 120)]),
            30 + 10
        );
        assert_eq!(covered_ns(10, 100, &mut [(0, 5)]), 0);
        assert_eq!(covered_ns(10, 100, &mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut j = Journal::new(t0);
        let root = j.record("bench.request", at(0), at(40), None, 7);
        let rpc = j.record("service.rpc", at(5), at(40), Some(root), 7);
        j.record_derived("orchestration.server", at(38), 30_000_000, Some(rpc), 7);
        let st = j.self_times_ms();
        assert_eq!(st["bench.request"], vec![5.0]);
        assert_eq!(st["service.rpc"], vec![5.0]);
        assert_eq!(st["orchestration.server"], vec![30.0]);
        assert!(j.spans[2].derived && j.spans[2].start_ns == 8_000_000);
    }
}
