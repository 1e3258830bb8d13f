//! Deterministic, sim-clock-aware observability primitives.
//!
//! The paper evaluates its protocol through *distributions* — rekey
//! delivery latency, hop counts, recovery overhead under loss (§5) — not
//! just totals. This crate is the workspace's shared measurement layer:
//!
//! * [`LocalHistogram`] — log₂-scaled buckets with linear sub-buckets per
//!   octave (≤ 12.5 % relative bucket width), O(1) `record`, and an `Eq`
//!   [`HistogramSnapshot`] with interpolated p50/p95/p99. It is plain
//!   data: each executor lane records into its own and the lanes are
//!   merged afterwards, in any order, with the same result;
//! * [`SpanLog`] — lightweight tracing spans ([`SpanRecord`]) in a bounded
//!   ring buffer (drop-oldest, with a dropped count), timestamped by the
//!   *caller* — sim-clock microseconds in this workspace, never wall
//!   clock — so identically seeded runs record identical spans;
//!   [`merge_spans`] folds the rings of several lanes into one tail;
//! * [`json`] — a writer that renders such data byte for byte
//!   deterministically (sorted keys, integer-first formatting).
//!
//! Nothing here reads `Instant::now()` or any other ambient clock: all
//! times come in as plain `u64`s from the discrete-event schedule, which
//! is what keeps seeded runs reproducible.
//!
//! # Example
//!
//! ```
//! use rekey_metrics::{merge_spans, LocalHistogram, SpanLog};
//!
//! let mut latency = LocalHistogram::new();
//! latency.record(1500);
//! latency.record(950);
//! assert_eq!(latency.snapshot().count, 2);
//!
//! let (mut server, mut member) = (SpanLog::default(), SpanLog::default());
//! server.record("interval", 0, 1500, 1);
//! member.record("apply", 200, 900, 1);
//! let (spans, dropped) = merge_spans([&server, &member]);
//! let names: Vec<_> = spans.iter().map(|s| s.name).collect();
//! assert_eq!((names, dropped), (vec!["apply", "interval"], 0));
//! ```

use std::collections::VecDeque;

pub mod histogram;
pub mod json;

pub use histogram::{HistogramSnapshot, LocalHistogram};

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
/// (drop-oldest, with a dropped count). Each executor lane keeps one;
/// [`merge_spans`] folds them into one tail at snapshot time.
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    spans: VecDeque<SpanRecord>,
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
            spans: VecDeque::new(),
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

/// The default span ring capacity.
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 512;

/// Folds the span rings of several lanes into one tail, as if every span
/// had been recorded into one ring of the last ring's capacity. The rings
/// are folded in the order given: each fold orders the spans by end time,
/// then start time, name and detail (so spans that end together come out
/// in one order whichever ring held them), keeps the newest `capacity`,
/// and counts everything either side evicted as dropped. Returns the tail,
/// oldest first, and the dropped count.
pub fn merge_spans<'a>(rings: impl IntoIterator<Item = &'a SpanLog>) -> (Vec<SpanRecord>, u64) {
    let (mut spans, mut dropped) = (Vec::new(), 0);
    for ring in rings {
        spans.extend(ring.spans.iter().copied());
        dropped += ring.dropped;
        spans.sort_by_key(|s: &SpanRecord| (s.end, s.start, s.name, s.detail));
        let excess = spans.len().saturating_sub(ring.capacity);
        spans.drain(..excess);
        dropped += excess as u64;
    }
    (spans, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ring_drops_oldest_and_counts() {
        let mut ring = SpanLog::with_capacity(2);
        ring.record("a", 0, 1, 0);
        ring.record("b", 1, 2, 0);
        ring.record("c", 2, 3, 0);
        let (spans, dropped) = merge_spans([&ring]);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn merged_rings_read_like_one_ring() {
        let mut server = SpanLog::with_capacity(3);
        server.record("interval", 0, 10, 1);
        server.record("interval", 10, 20, 2);
        let mut member = SpanLog::with_capacity(3);
        for (end, detail) in [(5, 1), (10, 1), (15, 2), (25, 2)] {
            member.record("apply", 0, end, detail);
        }
        let (spans, dropped) = merge_spans([&server, &member]);
        // The member ring kept ends 10/15/25 (1 dropped); the union by end
        // is apply@10, interval@10, apply@15, interval@20, apply@25 — a
        // tie goes by start, then name — of which the newest three stay.
        let kept: Vec<_> = spans.iter().map(|s| (s.name, s.end)).collect();
        assert_eq!(kept, [("apply", 15), ("interval", 20), ("apply", 25)]);
        assert_eq!(dropped, 1 + 2);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = SpanLog::with_capacity(0);
        ring.record("a", 0, 1, 0);
        let (spans, dropped) = merge_spans([&ring]);
        assert!(spans.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn merging_is_a_function_of_the_rings() {
        let build = || {
            let mut ring = SpanLog::default();
            ring.record("apply", 10, 25, 2);
            ring.record("recovery", 12, 20, 2);
            ring
        };
        let (a, b) = (build(), build());
        assert_eq!(merge_spans([&a, &b]), merge_spans([&a, &b]));
        let (spans, _) = merge_spans([&a]);
        assert_eq!(spans[0].name, "recovery", "ordered by end time");
    }
}
