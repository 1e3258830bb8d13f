//! A minimal deterministic JSON writer.
//!
//! The workspace has no serialization dependency by design; every JSON
//! document (bench reports, metrics snapshots) is emitted through this
//! writer so the formatting — two-space indent, one field per line, no
//! trailing whitespace — is identical everywhere and byte-stable across
//! identically seeded runs.

/// A pretty-printing JSON writer. Push objects/arrays and fields in
/// order; commas and indentation are managed for you.
///
/// # Example
///
/// ```
/// use rekey_metrics::json::Writer;
///
/// let mut w = Writer::new();
/// w.begin_object();
/// w.field_str("bench", "demo");
/// w.begin_named_array("results");
/// w.begin_object();
/// w.field_u64("members", 64);
/// w.end_object();
/// w.end_array();
/// w.end_object();
/// let json = w.finish();
/// assert!(json.starts_with("{\n  \"bench\": \"demo\","));
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// One entry per open container: whether it already has an item.
    stack: Vec<bool>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Starts an item slot: comma-separates from the previous sibling and
    /// indents (no-op at the document root).
    fn item(&mut self) {
        if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
            self.newline_indent();
        }
    }

    fn key(&mut self, key: &str) {
        self.item();
        self.out.push('"');
        escape_into(key, &mut self.out);
        self.out.push_str("\": ");
    }

    /// Opens `{` as an array element or the document root.
    pub fn begin_object(&mut self) {
        self.item();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Opens `"key": {`.
    pub fn begin_named_object(&mut self, key: &str) {
        self.key(key);
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        let had_items = self.stack.pop().expect("no open object");
        if had_items {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Opens `"key": [`.
    pub fn begin_named_array(&mut self, key: &str) {
        self.key(key);
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        let had_items = self.stack.pop().expect("no open array");
        if had_items {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Writes `"key": <v>`.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.out.push_str(&v.to_string());
    }

    /// Writes `"key": <v>` for a usize.
    pub fn field_usize(&mut self, key: &str, v: usize) {
        self.field_u64(key, v as u64);
    }

    /// Writes `"key": <v>` with fixed `decimals` digits. Fixed-point
    /// formatting of a deterministic float is itself deterministic.
    pub(crate) fn field_f64(&mut self, key: &str, v: f64, decimals: usize) {
        self.key(key);
        self.out.push_str(&format!("{v:.decimals$}"));
    }

    /// Writes `"key": "<v>"` with JSON escaping.
    pub fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.out.push('"');
        escape_into(v, &mut self.out);
        self.out.push('"');
    }

    /// Finishes the document.
    ///
    /// # Panics
    ///
    /// Panics if any object or array is still open.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        let mut out = self.out;
        out.push('\n');
        out
    }
}

/// Escapes `s` into `out` per JSON string rules.
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `true` iff `json` contains a field named `key` (at any nesting depth).
/// This is the loud-failure check the bench bins run against their own
/// output: a schema key that vanishes from the emitter is caught at
/// generation time instead of silently disappearing from the committed
/// baseline.
pub fn has_key(json: &str, key: &str) -> bool {
    let needle = format!("\"{key}\":");
    json.contains(&needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_round_trips_shape() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("name", "a\"b");
        w.begin_named_array("xs");
        w.begin_object();
        w.field_u64("v", 1);
        w.end_object();
        w.begin_object();
        w.field_u64("v", 2);
        w.end_object();
        w.end_array();
        w.field_f64("mean", 1.5, 2);
        w.end_object();
        let json = w.finish();
        assert_eq!(
            json,
            "{\n  \"name\": \"a\\\"b\",\n  \"xs\": [\n    {\n      \"v\": 1\n    },\n    {\n      \"v\": 2\n    }\n  ],\n  \"mean\": 1.50\n}\n"
        );
    }

    #[test]
    fn empty_containers_close_inline() {
        let mut w = Writer::new();
        w.begin_object();
        w.begin_named_array("xs");
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"xs\": []\n}\n");
    }

    #[test]
    fn has_key_finds_fields() {
        let doc = "{\n  \"nacks\": 3\n}\n";
        assert!(has_key(doc, "nacks"));
        assert!(!has_key(doc, "nack"));
    }

    #[test]
    #[should_panic(expected = "unclosed JSON container")]
    fn finish_rejects_unclosed_containers() {
        let mut w = Writer::new();
        w.begin_object();
        let _ = w.finish();
    }
}
