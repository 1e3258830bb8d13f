//! Deterministic, sim-clock-aware observability primitives.
//!
//! The paper evaluates its protocol through *distributions* — rekey
//! delivery latency, hop counts, recovery overhead under loss (§5) — not
//! just totals. This crate is the workspace's shared measurement layer:
//!
//! * [`Registry`] — a zero-dependency metrics registry handing out cheap
//!   clonable handles: [`Counter`] and [`Histogram`];
//! * [`Histogram`] — log₂-scaled buckets with linear sub-buckets per
//!   octave (≤ 12.5 % relative bucket width), O(1) `record`, and
//!   interpolated p50/p95/p99 in the snapshot;
//! * [`SpanRecord`] — lightweight tracing spans in a bounded ring buffer
//!   (drop-oldest, with a dropped count), timestamped by the *caller* —
//!   sim-clock microseconds in this workspace, never wall clock — so
//!   identically seeded runs record identical spans;
//! * [`RegistrySnapshot`] — an `Eq` point-in-time copy of everything in
//!   sorted maps, so two identically seeded runs snapshot equal; the
//!   [`json`] writer renders such data byte for byte deterministically
//!   (sorted keys, integer-first formatting).
//!
//! Nothing here reads `Instant::now()` or any other ambient clock: all
//! times come in as plain `u64`s from the discrete-event schedule, which
//! is what keeps seeded runs reproducible.
//!
//! # Example
//!
//! ```
//! use rekey_metrics::Registry;
//!
//! let registry = Registry::new();
//! let delivered = registry.counter("delivered");
//! let latency = registry.histogram("latency_us");
//! delivered.add(1);
//! latency.record(1500);
//! latency.record(950);
//! registry.span("interval", 0, 1500, 1);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["delivered"], 1);
//! assert_eq!(snap.histograms["latency_us"].count, 2);
//! assert_eq!(snap, registry.snapshot(), "snapshots are deterministic");
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

pub mod histogram;
pub mod json;

pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram};

/// One recorded tracing span: a named interval of simulated time plus one
/// free `detail` word (an interval number, an epoch, a batch size — the
/// span taxonomy documents the meaning per name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (static: spans are recorded on hot paths).
    pub name: &'static str,
    /// Start of the span (caller-provided clock, µs in this workspace).
    pub start: u64,
    /// End of the span (same clock; `start <= end` by convention).
    pub end: u64,
    /// One free word of context, keyed by the span name.
    pub detail: u64,
}

/// The bounded span ring: keeps the most recent `capacity` spans
/// (drop-oldest, with a dropped count). A [`Registry`] owns one; code that
/// records spans off the registry's thread keeps a ring of its own and
/// folds it in at snapshot time with [`RegistrySnapshot::merge_spans`].
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    spans: std::collections::VecDeque<SpanRecord>,
    dropped: u64,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanLog {
    /// An empty ring keeping at most `capacity` spans.
    pub(crate) fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            capacity,
            spans: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// Records one span, evicting the oldest when the ring is full.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, detail: u64) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(SpanRecord {
            name,
            start,
            end,
            detail,
        });
    }
}

#[derive(Debug)]
struct Inner {
    counters: BTreeMap<&'static str, Rc<Cell<u64>>>,
    gauges: BTreeMap<&'static str, Rc<Cell<u64>>>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: SpanLog,
}

/// A monotonically increasing counter handle. Cloning shares the value;
/// reads and writes are single `Cell` operations.
#[derive(Debug, Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    #[cfg(test)]
    pub(crate) fn get(&self) -> u64 {
        self.0.get()
    }
}

/// The default span ring capacity of [`Registry::new`].
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 512;

/// A registry of named metrics. Cloning is cheap and shares the
/// underlying store, so one registry can be threaded through every layer
/// of a simulation; the intended use is single-threaded (the workspace's
/// discrete-event runtime), hence `Rc` rather than atomics.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry keeping at most 512 spans (drop-oldest).
    pub fn new() -> Registry {
        Registry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An empty registry keeping at most `capacity` spans (drop-oldest).
    pub(crate) fn with_span_capacity(capacity: usize) -> Registry {
        Registry {
            inner: Rc::new(RefCell::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
                spans: SpanLog::with_capacity(capacity),
            })),
        }
    }

    /// The counter named `name`, created at zero on first use. Handles
    /// for the same name share one value.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(Rc::clone(
            self.inner
                .borrow_mut()
                .counters
                .entry(name)
                .or_insert_with(|| Rc::new(Cell::new(0))),
        ))
    }

    /// The gauge named `name`, created at zero on first use.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(Rc::clone(
            self.inner
                .borrow_mut()
                .gauges
                .entry(name)
                .or_insert_with(|| Rc::new(Cell::new(0))),
        ))
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name)
            .or_default()
            .clone()
    }

    /// Records a tracing span into the bounded ring buffer. `start` and
    /// `end` are on the caller's clock (simulated microseconds in this
    /// workspace); `detail` is one free word keyed by the span name.
    pub fn span(&self, name: &'static str, start: u64, end: u64, detail: u64) {
        self.inner
            .borrow_mut()
            .spans
            .record(name, start, end, detail);
    }

    /// Spans dropped from the ring so far.
    #[cfg(test)]
    pub(crate) fn spans_dropped(&self) -> u64 {
        self.inner.borrow().spans.dropped
    }

    /// A point-in-time copy of every metric and the span ring.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.borrow();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
            spans: inner.spans.spans.iter().copied().collect(),
            spans_dropped: inner.spans.dropped,
        }
    }
}

/// A point-in-time copy of a [`Registry`]: plain integers and sorted
/// maps, so two snapshots from identically seeded runs compare (and
/// serialize) identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// The span ring at snapshot time, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped from the ring before the snapshot.
    pub spans_dropped: u64,
}

impl RegistrySnapshot {
    /// Folds a span ring recorded beside the registry into this snapshot,
    /// as if both had been one ring of `ring`'s capacity: spans are
    /// ordered by end time (ties keep the snapshot's spans first, so the
    /// result depends only on the order of the `merge_spans` calls), the
    /// newest `capacity` are kept, and everything either side evicted is
    /// counted as dropped.
    pub fn merge_spans(&mut self, ring: &SpanLog) {
        self.spans.extend(ring.spans.iter().copied());
        self.spans_dropped += ring.dropped;
        self.spans.sort_by_key(|span| span.end);
        let excess = self.spans.len().saturating_sub(ring.capacity);
        self.spans.drain(..excess);
        self.spans_dropped += excess as u64;
    }

    /// Serializes the snapshot as pretty-printed JSON with sorted keys.
    /// The output is a pure function of the snapshot — identically seeded
    /// runs emit byte-identical documents.
    #[cfg(test)]
    pub(crate) fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.begin_object();
        w.begin_named_object("counters");
        for (k, v) in &self.counters {
            w.field_u64(k, *v);
        }
        w.end_object();
        w.begin_named_object("gauges");
        for (k, v) in &self.gauges {
            w.field_u64(k, *v);
        }
        w.end_object();
        w.begin_named_object("histograms");
        for (k, h) in &self.histograms {
            w.begin_named_object(k);
            h.write_fields(&mut w);
            w.end_object();
        }
        w.end_object();
        w.begin_named_array("spans");
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", s.name);
            w.field_u64("start", s.start);
            w.field_u64("end", s.end);
            w.field_u64("detail", s.detail);
            w.end_object();
        }
        w.end_array();
        w.field_u64("spans_dropped", self.spans_dropped);
        w.end_object();
        w.finish()
    }
}

/// A last-value (or running-max) gauge handle. Cloning shares the value.
/// Only the tests set gauges; the snapshot still carries the (empty) map.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Gauge(Rc<Cell<u64>>);

#[cfg(test)]
impl Gauge {
    /// Overwrites the value.
    pub(crate) fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Keeps the running maximum of every observed value.
    pub(crate) fn record_max(&self, v: u64) {
        if v > self.0.get() {
            self.0.set(v);
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_value() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.add(1);
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(registry.snapshot().counters["hits"], 5);
    }

    #[test]
    fn gauge_tracks_running_max() {
        let registry = Registry::new();
        let g = registry.gauge("depth");
        g.record_max(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn span_ring_drops_oldest_and_counts() {
        let registry = Registry::with_span_capacity(2);
        registry.span("a", 0, 1, 0);
        registry.span("b", 1, 2, 0);
        registry.span("c", 2, 3, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "b");
        assert_eq!(snap.spans[1].name, "c");
        assert_eq!(snap.spans_dropped, 1);
        assert_eq!(registry.spans_dropped(), 1);
    }

    #[test]
    fn merged_rings_read_like_one_ring() {
        let registry = Registry::with_span_capacity(3);
        registry.span("interval", 0, 10, 1);
        registry.span("interval", 10, 20, 2);
        let mut ring = SpanLog::with_capacity(3);
        for (end, detail) in [(5, 1), (10, 1), (15, 2), (25, 2)] {
            ring.record("apply", 0, end, detail);
        }
        let mut snap = registry.snapshot();
        snap.merge_spans(&ring);
        // Ring kept ends 10/15/25 (1 dropped); union by end is
        // interval@10, apply@10, apply@15, interval@20, apply@25 — the
        // registry's span wins the tie — of which the newest three stay.
        let kept: Vec<_> = snap.spans.iter().map(|s| (s.name, s.end)).collect();
        assert_eq!(kept, [("apply", 15), ("interval", 20), ("apply", 25)]);
        assert_eq!(snap.spans_dropped, 1 + 2);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let registry = Registry::with_span_capacity(0);
        registry.span("a", 0, 1, 0);
        let snap = registry.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.spans_dropped, 1);
    }

    #[test]
    fn snapshots_are_eq_and_json_is_deterministic() {
        let build = || {
            let registry = Registry::new();
            registry.counter("z_last").add(3);
            registry.counter("a_first").add(1);
            registry.gauge("peak").record_max(9);
            let h = registry.histogram("lat");
            for v in [5u64, 90, 90, 1000] {
                h.record(v);
            }
            registry.span("apply", 10, 25, 2);
            registry.snapshot()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        // Keys come out sorted regardless of creation order.
        let json = a.to_json();
        assert!(json.find("a_first").unwrap() < json.find("z_last").unwrap());
    }

    #[test]
    fn registry_clones_share_the_store() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.counter("x").add(1);
        assert_eq!(registry.counter("x").get(), 1);
    }
}
