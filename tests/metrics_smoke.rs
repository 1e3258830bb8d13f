//! Metrics smoke: a 200-member churn soak under 2% copy loss must produce
//! a `MetricsSnapshot` whose JSON export satisfies the promised schema
//! (every counter, histogram series, and the span block present) and
//! whose core series carry real data — histograms with samples, spans in
//! the ring, fault counters consistent with the run.
//!
//! Ignored by default — `scripts/ci.sh` runs it in release mode:
//! `cargo test --release --test metrics_smoke -- --ignored`.

use group_rekeying::id::IdSpec;
use group_rekeying::metrics::json::has_key;
use group_rekeying::net::{MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::{ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
use group_rekeying::sim::seeded_rng;
use rekey_bench::schema::{validate_snapshot, SNAPSHOT_REQUIRED_KEYS};

const SEC: u64 = 1_000_000;
const MEMBERS: u64 = 200;

#[test]
#[ignore = "soak-sized: 200 nodes × ~20 intervals; ci.sh runs it in release"]
fn soak_snapshot_satisfies_schema_and_carries_data() {
    // Hosts are not recycled after a departure, so the substrate needs a
    // slot for every lifetime join (200 initial + 10 churn) plus the server.
    let params = PlanetLabParams {
        continent_hosts: vec![90, 65, 45, 30],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(0x5A0E));
    assert!(net.host_count() > MEMBERS as usize + 11);

    let spec = IdSpec::new(4, 8).unwrap();
    let config = GroupConfig::for_spec(&spec).k(3).seed(0x5A0E5);
    let runtime_config = RuntimeConfig::builder().loss(0.02).seed(0x5A0E).build();
    let mut rt = ShardedGroupRuntime::new(config, runtime_config, net);

    let mut trace: Vec<ChurnEvent> = (0..MEMBERS)
        .map(|i| ChurnEvent::join(SEC + i * 40_000))
        .collect();
    for i in 0..10u64 {
        trace.push(ChurnEvent::leave(
            40 * SEC + i * 12 * SEC,
            (i as usize * 17) % 190,
        ));
        trace.push(ChurnEvent::join(42 * SEC + i * 12 * SEC));
    }
    rt.run_trace(&trace);
    rt.finish(201 * SEC);

    let snapshot = rt.snapshot();
    let json = snapshot.to_json();

    // Schema: every promised key is present — validate both through the
    // loud helper and key by key, so a failure names the exact hole.
    validate_snapshot(&json);
    for key in SNAPSHOT_REQUIRED_KEYS {
        assert!(has_key(&json, key), "snapshot JSON lost the {key:?} key");
    }

    // The series carry real data, not just schema-shaped zeros.
    assert!(snapshot.intervals >= 20, "got {}", snapshot.intervals);
    assert_eq!(snapshot.joins, MEMBERS + 10);
    assert_eq!(snapshot.departures, 10);
    assert!(snapshot.copies_lost > 0, "2% loss must fire");
    assert!(snapshot.tree_encryptions > 0);
    assert!(snapshot.welcomes >= MEMBERS);
    assert!(snapshot.peak_queue_depth > 0);
    assert_eq!(
        snapshot.partition_cuts, 0,
        "no fault plan, so no partition cuts"
    );

    let h = &snapshot.apply_delay_us;
    assert!(h.count > 0, "apply delays were recorded");
    assert!(h.min <= h.p50() && h.p50() <= h.p95() && h.p95() <= h.max);
    assert!(snapshot.batch_size.count >= snapshot.intervals / 2);
    assert!(snapshot.split_payload.count > 0);
    assert!(snapshot.forward_fanout.count > 0);
    assert!(
        snapshot.recovery_size.count > 0,
        "loss must trigger unicast recovery"
    );

    // Spans: the bounded ring holds the newest spans and reports drops.
    assert!(!snapshot.spans.is_empty());
    assert!(
        snapshot.spans.iter().any(|s| s.name == "interval"),
        "server interval spans present"
    );
    assert!(
        snapshot.spans.iter().any(|s| s.name == "apply"),
        "member apply spans present"
    );
    assert!(snapshot.spans.iter().all(|s| s.start <= s.end));
}
