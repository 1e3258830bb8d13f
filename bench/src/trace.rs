//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records name, layer, start, end, the span that caused it
//! (`parent`), the repetition and the rekey interval it belongs to (the
//! trace id: all spans of one interval share it). Spans are kept in
//! memory and written out once, when the workload ends. A layer's *self
//! time* is its spans' duration minus the part their child spans cover.
//!
//! With tracing off every method is a no-op that reads no clock, so the
//! end-to-end run pays nothing for the instrumentation points.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate (or `bench` / `driver`) the time is charged to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    pub rep: u32,
    /// Rekey interval (0 for setup / finish / verify / probes).
    pub interval: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; close it with [`Tracer::exit`].
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    #[cfg(test)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between repetitions (a traced run keeps
    /// some repetitions untraced to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool, rep: u32) {
        assert!(self.stack.is_empty(), "toggle tracing between spans");
        self.enabled = enabled;
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, layer: &'static str, interval: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
            interval,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// A leaf span around one call.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        interval: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.enter(name, layer, interval);
        let result = f();
        self.exit(open);
        result
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its children's durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Self time per layer and per span name, summed over the spans that
    /// sit under a span called `root` (that span included).
    pub fn self_time_table(&self, root: &str) -> Vec<SelfTimeRow> {
        let own = self.self_times_ns();
        let mut under_root = vec![false; self.spans.len()];
        let mut rows: BTreeMap<(&'static str, &'static str), SelfTimeRow> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            // Parents precede children in the list.
            under_root[i] = span.name == root || span.parent.is_some_and(|p| under_root[p]);
            if !under_root[i] {
                continue;
            }
            let row = rows.entry((span.layer, span.name)).or_insert(SelfTimeRow {
                layer: span.layer,
                name: span.name,
                spans: 0,
                self_ns: 0,
            });
            row.spans += 1;
            row.self_ns += own[i];
        }
        rows.into_values().collect()
    }

    /// Checks the nesting invariants: children lie within their parent and
    /// share its repetition, self times are non-negative, and every span
    /// under an `interval` span carries that interval's trace id.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        let mut child_sum = vec![0u64; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", span.name));
            }
            let Some(p) = span.parent else { continue };
            let parent = &self.spans[p];
            if p >= i || span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {}",
                    span.name, parent.name
                ));
            }
            if span.rep != parent.rep {
                return Err(format!("span {i} ({}) changes repetition", span.name));
            }
            if parent.interval != 0 && span.interval != parent.interval {
                return Err(format!(
                    "span {i} ({}) has trace id {} under interval {}",
                    span.name, span.interval, parent.interval
                ));
            }
            child_sum[p] += span.dur_ns();
        }
        for (i, span) in self.spans.iter().enumerate() {
            if child_sum[i] > span.dur_ns() {
                return Err(format!("span {i} ({}) has negative self time", span.name));
            }
        }
        Ok(())
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"workload\":\"{workload}\",\
                 \"rep\":{},\"interval\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.layer, s.rep, s.interval, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    pub layer: &'static str,
    pub name: &'static str,
    pub spans: usize,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("interval", "bench", 1);
        assert_eq!(t.call("leaf", "rekey-id", 1, || 7), 7);
        t.exit(open);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("interval", "bench", 3);
        t.call("a", "rekey-id", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.call("b", "rekey-table", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(root);
        t.check_nesting().unwrap();
        let own = t.self_times_ns();
        let spans = t.spans();
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        let total: u64 = t
            .self_time_table("interval")
            .iter()
            .map(|r| r.self_ns)
            .sum();
        assert_eq!(total, spans[0].dur_ns(), "self times partition the root");
        assert!(
            spans.iter().all(|s| s.interval == 3),
            "one trace id per interval"
        );
    }

    #[test]
    fn nesting_check_catches_a_foreign_trace_id() {
        let mut t = Tracer::new(true);
        let root = t.enter("interval", "bench", 1);
        t.call("leaf", "rekey-id", 2, || ());
        t.exit(root);
        assert!(t.check_nesting().unwrap_err().contains("trace id"));
    }
}
