//! Loud validation of the [`rekey_proto::MetricsSnapshot`] JSON schema.
//!
//! Downstream tooling greps snapshot documents by key. The soak tests and
//! `bench_runtime` call [`validate_snapshot`] on every snapshot they
//! take, so a renamed or dropped counter fails the run immediately
//! instead of silently shipping a document with holes.

use rekey_metrics::json::has_key;

/// Every key a `MetricsSnapshot::to_json` document must contain —
/// counters, histogram series, and the span block. Keep in sync with
/// `MetricsSnapshot`; removing a key here loosens the artifact contract
/// and should be a deliberate, reviewed change.
pub const SNAPSHOT_REQUIRED_KEYS: &[&str] = &[
    // counters
    "intervals",
    "members",
    "joins",
    "departures",
    "failures_detected",
    "forward_copies",
    "copies_lost",
    "dead_letters",
    "suppressed",
    "nacks",
    "recovery_encryptions",
    "pings",
    "evictions",
    "retransmissions",
    "max_retry_attempts",
    "resyncs",
    "rejoins",
    "rehabilitations",
    "restarts",
    "checkpoints",
    "delivered",
    "welcomes",
    "leave_acks",
    "tree_encryptions",
    "tombstone_hits",
    "partition_cuts",
    "fault_loss_drops",
    "elections",
    "promotions",
    "lost_mutations",
    "repl_lag_peak",
    "peak_queue_depth",
    // histogram series
    "apply_delay_us",
    "batch_size",
    "split_payload",
    "forward_fanout",
    "recovery_size",
    // span block
    "spans",
    "spans_dropped",
];

/// Checks a snapshot JSON document against [`SNAPSHOT_REQUIRED_KEYS`].
///
/// # Panics
///
/// Panics listing every promised key absent from `json`.
pub fn validate_snapshot(json: &str) {
    let missing: Vec<&str> = SNAPSHOT_REQUIRED_KEYS
        .iter()
        .copied()
        .filter(|key| !has_key(json, key))
        .collect();
    assert!(
        missing.is_empty(),
        "snapshot JSON is missing promised keys: {missing:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys inside the `counters` and `histograms` objects of a
    /// snapshot document (two levels deep: the series names, not a
    /// histogram's fields) that [`SNAPSHOT_REQUIRED_KEYS`] does not promise.
    fn unpromised_series(json: &str) -> Vec<&str> {
        let (mut depth, mut at, mut unpromised) = (0, 0, Vec::new());
        while let Some(c) = json[at..].chars().next() {
            at += c.len_utf8();
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                '"' => {
                    let end = at + json[at..].find('"').expect("closed string");
                    let key = &json[at..end];
                    at = end + 1;
                    let is_key = json[at..].starts_with(':');
                    if is_key && depth == 2 && !SNAPSHOT_REQUIRED_KEYS.contains(&key) {
                        unpromised.push(key);
                    }
                }
                _ => {}
            }
        }
        unpromised
    }

    /// The contract holds both ways: the document has every promised key,
    /// and every series in its counters and histograms objects is
    /// promised, so a series added to the snapshot without a reviewed
    /// change to [`SNAPSHOT_REQUIRED_KEYS`] fails here.
    #[test]
    fn default_snapshot_satisfies_the_promised_schema() {
        let json = rekey_proto::MetricsSnapshot::default().to_json();
        validate_snapshot(&json);
        assert_eq!(unpromised_series(&json), Vec::<&str>::new());
        let added = json.replacen("\"nacks\"", "\"nack_kinds\": 0,\n    \"nacks\"", 1);
        assert_eq!(unpromised_series(&added), ["nack_kinds"]);
        let added = json.replacen("\"batch_size\"", "\"hops\": {},\n    \"batch_size\"", 1);
        assert_eq!(unpromised_series(&added), ["hops"]);
    }

    #[test]
    #[should_panic(expected = "missing promised keys")]
    fn missing_keys_are_reported_loudly() {
        validate_snapshot("{\"intervals\": 3}");
    }
}
