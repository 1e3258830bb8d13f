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

    #[test]
    fn default_snapshot_satisfies_the_promised_schema() {
        validate_snapshot(&rekey_proto::MetricsSnapshot::default().to_json());
    }

    #[test]
    #[should_panic(expected = "missing promised keys")]
    fn missing_keys_are_reported_loudly() {
        validate_snapshot("{\"intervals\": 3}");
    }
}
