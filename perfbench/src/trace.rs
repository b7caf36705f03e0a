//! In-memory span recording around the calls the workloads make
//! into the simulator's crates.
//!
//! A span is named `<crate>.<call>`; the crate prefix is the layer its
//! self time is charged to. Spans are kept in memory for the whole pass
//! and read once at its end. With tracing off a span is a direct call: no
//! clock read, no allocation.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span, passed to callees that open child spans on
/// other threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// Unique within the pass.
    pub id: u32,
    /// The span that made this call, if any.
    pub parent: Option<u32>,
    /// Index of the workload cell the call belongs to.
    pub cell: u32,
    /// Start and end, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// See [`Span::start_ns`].
    pub end_ns: u64,
    /// Work the call did (pages, faults, accesses, PTEs), for per-unit
    /// costs; 1 for calls without a natural unit.
    pub units: u64,
}

impl Span {
    /// The layer (crate) the span's self time belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one pass.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    cell: AtomicU32,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            cell: AtomicU32::new(0),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag the following spans with workload cell `cell`.
    pub fn set_cell(&self, cell: usize) {
        self.cell.store(cell as u32, Ordering::Relaxed);
    }

    /// Run `f` as a top-level span; `units` reads the work count off the
    /// call's result.
    pub fn span<R>(
        &self,
        name: &'static str,
        units: impl FnOnce(&R) -> u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.record(name, None, units, f)
    }

    /// Run `f` as a child of `parent` (which may be open on another
    /// thread).
    pub fn child<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        units: impl FnOnce(&R) -> u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.record(name, Some(parent.0), units, f)
    }

    fn record<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        units: impl FnOnce(&R) -> u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on {
            return f(SpanId(0));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = self.cell.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(SpanId(id));
        let end_ns = self.now_ns();
        let span = Span {
            name,
            id,
            parent,
            cell,
            start_ns,
            end_ns,
            units: units(&r),
        };
        self.spans
            .lock()
            .expect("a span recorder thread panicked")
            .push(span);
        r
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a span recorder thread panicked")
    }
}

/// Measured host cost of one empty span (two clock reads, an id, a
/// locked push), in ns: the median per-span cost over `batches` batches
/// of 1,000 spans.
pub fn empty_span_ns(batches: usize) -> f64 {
    const PER_BATCH: usize = 1_000;
    let per_span: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Tracer::new(true);
            let start = Instant::now();
            for _ in 0..PER_BATCH {
                t.span("empty", |_| 1, |_| ());
            }
            start.elapsed().as_nanos() as f64 / PER_BATCH as f64
        })
        .collect();
    crate::stats::median(&per_span)
}

/// Total length covered by the union of half-open intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span (index-aligned with `spans`): its duration
/// minus the part of it that the union of its children covers. Children
/// may overlap one another — the tenant builds of two shard workers run
/// at once under one `run_sharded` span — so they are merged, not summed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            s.dur() - union_len(&mut kids)
        })
        .collect()
}

/// Share of `[from, to)` that no top-level span covers: workload code
/// between calls (plans, checks) plus whatever the spans miss.
pub fn uncovered_share(spans: &[Span], from: u64, to: u64) -> f64 {
    if to <= from {
        return 0.0;
    }
    let mut top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns.max(from), s.end_ns.min(to)))
        .filter(|(a, b)| a < b)
        .collect();
    1.0 - union_len(&mut top) as f64 / (to - from) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "machine.run_sharded",
            id,
            parent,
            cell: 0,
            start_ns,
            end_ns,
            units: 1,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(&mut [(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        // A run_sharded span [0, 100) with two workers building tenants
        // at once: [10, 40) and [20, 50) overlap, [60, 70) stands alone,
        // and [90, 120) runs past the parent's end.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 60, 70),
            span(5, Some(1), 90, 120),
        ];
        let st = self_times(&spans);
        // Children cover [10, 50) + [60, 70) + [90, 100) = 60 ns.
        assert_eq!(st[0], 40);
        assert_eq!(&st[1..], &[30, 30, 10, 30]);
    }

    #[test]
    fn uncovered_share_counts_top_level_gaps_only() {
        let spans = vec![
            span(1, None, 0, 30),
            span(2, Some(1), 5, 25),
            span(3, None, 50, 80),
        ];
        // [0, 100): top-level spans cover 60 ns.
        assert!((uncovered_share(&spans, 0, 100) - 0.4).abs() < 1e-12);
        assert!((uncovered_share(&spans, 50, 80)).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("kernel.munmap", |_| 1, |_| 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_across_threads() {
        let t = Tracer::new(true);
        t.set_cell(3);
        t.span(
            "machine.run_sharded",
            |_| 1,
            |id| {
                std::thread::scope(|s| {
                    s.spawn(|| t.child("rt.build_tenant", id, |_| 2, |_| ()));
                });
            },
        );
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "rt.build_tenant").unwrap();
        let parent = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(child.parent, Some(parent.id));
        assert_eq!((child.cell, child.units, child.layer()), (3, 2, "rt"));
    }
}
