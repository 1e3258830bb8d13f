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
//!   ring buffer per span name (drop-oldest, with a dropped count), so
//!   frequent spans never evict rare ones, timestamped by the
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

use std::cmp::Reverse;
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

/// The bounded span rings: keep the most recent `capacity` spans of each
/// name (drop-oldest, with a dropped count), so a name recorded once per
/// failover survives one recorded once per member and interval. Each
/// executor lane keeps one log; [`merge_spans`] folds them into one tail
/// at snapshot time.
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    /// One ring per name, in the order the names first appeared.
    rings: Vec<(&'static str, VecDeque<SpanRecord>)>,
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
            rings: Vec::new(),
            dropped: 0,
        }
    }

    /// Records one span, evicting the oldest of its name when that name's
    /// ring is full.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, detail: u64) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        let at = match self.rings.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.rings.push((name, VecDeque::new()));
                self.rings.len() - 1
            }
        };
        let ring = &mut self.rings[at].1;
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped += 1;
        }
        ring.push_back(SpanRecord {
            name,
            start,
            end,
            detail,
        });
    }
}

/// The default span ring capacity, per name.
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 512;

/// Folds the span logs of several lanes into one tail, as if every span
/// had been recorded into one log of the last log's capacity. The logs
/// are folded in the order given: each fold keeps the newest `capacity`
/// spans of each name, newest by end time, then start time and detail,
/// and counts everything either side evicted as dropped. Returns the
/// tail ordered by end time, then start time, name and detail (so spans
/// that end together come out in one order whichever log held them),
/// and the dropped count.
pub fn merge_spans<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> (Vec<SpanRecord>, u64) {
    let (mut spans, mut dropped) = (Vec::new(), 0);
    for log in logs {
        spans.extend(log.rings.iter().flat_map(|(_, ring)| ring.iter().copied()));
        dropped += log.dropped;
        // Each name's spans newest first, so its excess is its tail.
        spans.sort_by_key(|s: &SpanRecord| (s.name, Reverse((s.end, s.start, s.detail))));
        let before = spans.len();
        let (mut name, mut kept) = ("", 0);
        spans.retain(|s| {
            if s.name != name {
                (name, kept) = (s.name, 0);
            }
            kept += 1;
            kept <= log.capacity
        });
        dropped += (before - spans.len()) as u64;
    }
    spans.sort_by_key(|s| (s.end, s.start, s.name, s.detail));
    (spans, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ring_drops_oldest_of_its_name_and_counts() {
        let mut ring = SpanLog::with_capacity(2);
        ring.record("b", 0, 1, 0);
        ring.record("a", 1, 2, 1);
        ring.record("a", 2, 3, 2);
        ring.record("a", 3, 4, 3);
        let (spans, dropped) = merge_spans([&ring]);
        let kept: Vec<_> = spans.iter().map(|s| (s.name, s.detail)).collect();
        assert_eq!(kept, [("b", 0), ("a", 2), ("a", 3)]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn merged_rings_read_like_one_ring() {
        let mut server = SpanLog::with_capacity(3);
        server.record("interval", 0, 10, 1);
        server.record("interval", 10, 20, 2);
        let (mut member, mut other) = (SpanLog::with_capacity(3), SpanLog::with_capacity(3));
        for (end, detail) in [(5, 1), (10, 1), (15, 2), (25, 2)] {
            member.record("apply", 0, end, detail);
        }
        other.record("apply", 0, 12, 1);
        let (spans, dropped) = merge_spans([&server, &member, &other]);
        // The member ring kept ends 10/15/25 (1 dropped); of the applies
        // at 10, 12, 15 and 25 the newest three stay, and no apply evicts
        // an interval. The union by end is interval@10, apply@12,
        // apply@15, interval@20, apply@25 — a tie would go by start, then
        // name.
        let kept: Vec<_> = spans.iter().map(|s| (s.name, s.end)).collect();
        assert_eq!(
            kept,
            [
                ("interval", 10),
                ("apply", 12),
                ("apply", 15),
                ("interval", 20),
                ("apply", 25)
            ]
        );
        assert_eq!(dropped, 1 + 1);
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
