//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and a parent. Spans of one simulated
//! run share a `tree` number, so each run is one span tree. Spans stay in
//! memory while the benchmark runs and are written out once at the end.
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover (children may run in parallel on the sweep
//! workers, so their intervals are merged before subtracting).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one [`Spans`] recorder.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Layer-qualified name, such as `core.jvm_run`.
    pub name: String,
    /// The simulated run this span belongs to, if it belongs to one.
    pub tree: Option<u32>,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in host nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next: AtomicU32,
    closed: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            next: AtomicU32::new(0),
            closed: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        tree: Option<u32>,
        name: &str,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                parent,
                name: name.to_owned(),
                tree,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every closed span, ordered by id.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self
            .closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self.snapshot();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns() - covered;
        }
        out
    }

    /// The spans as one JSON document (`{"spans":[...]}`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let tree = s.tree.map_or("null".to_owned(), |t| t.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"tree\":{tree},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_not_double_counted() {
        let mut iv = vec![(10, 30), (20, 40), (50, 60), (55, 58)];
        assert_eq!(covered_ns(&mut iv, 0, 100), 40);
        let mut clipped = vec![(0, 30)];
        assert_eq!(covered_ns(&mut clipped, 10, 20), 10);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new();
        spans.span(None, None, "outer", |outer| {
            spans.span(Some(outer), Some(0), "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let totals = spans.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(spans.to_json().contains("\"tree\":0"));
    }
}
