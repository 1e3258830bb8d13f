//! Chaos soak: a ~1000-member group survives a compound fault scenario —
//! a three-way network partition healed mid-run, Gilbert–Elliott burst
//! loss plus jitter-induced reordering on the rekey overlay throughout,
//! and a key-server kill/respawn — and still finishes with every live
//! member's local table K-consistent and every live member holding the
//! final group key (verified end to end by opening data sealed under it).
//!
//! The partition is the harshest fault: two of the three cells lose the
//! server for longer than a heartbeat period, so the connected cell
//! wrongfully departs them all. The run only passes if the self-healing
//! machinery walks every victim through `NotMember` → rejoin and the
//! group converges back to full strength, with no retry counter ever
//! escaping its configured cap.
//!
//! Ignored by default — `scripts/ci.sh` runs it in release mode:
//! `cargo test --release --test chaos_soak -- --ignored`.

use group_rekeying::id::IdSpec;
use group_rekeying::net::{MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::{modulo_cells, SERVER_NODE};
use group_rekeying::proto::{ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
use group_rekeying::sim::{seeded_rng, FaultPlan, GilbertElliott};

const SEC: u64 = 1_000_000;
const MEMBERS: usize = 1002;

#[test]
#[ignore = "large: ~1k nodes under partition + burst loss + server restart; ci.sh runs it in release"]
fn thousand_member_group_survives_partition_burst_loss_and_server_restart() {
    let params = PlanetLabParams {
        continent_hosts: vec![500, 300, 200, 150],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(0xC4A0));
    assert!(net.host_count() > MEMBERS);

    let spec = IdSpec::new(5, 8).unwrap();
    let config = GroupConfig::for_spec(&spec).k(4).seed(0xC4A05);
    let runtime_config = RuntimeConfig::builder().seed(0xC4A0).build();
    let retry_cap = runtime_config.retry_cap();

    // The fault plan, all windows in one composable schedule:
    //  * burst loss (~5% mean, bursty) and 30 ms jitter on every rekey
    //    copy for the whole run — jitter exceeds many substrate one-way
    //    delays, so copies genuinely reorder;
    //  * a three-way partition from 60 s to 78 s; only cell 0 keeps the
    //    server, so roughly two thirds of the group is wrongfully
    //    departed and must rejoin after the heal;
    //  * the server killed at 150 s and respawned (from its checkpoint
    //    journal, with an epoch bump) at 165 s.
    let plan = FaultPlan::new()
        .burst_loss(GilbertElliott::moderate())
        .jitter(30_000)
        .partition(modulo_cells(MEMBERS, 3), 60 * SEC, 78 * SEC)
        .outage(SERVER_NODE, 150 * SEC, 165 * SEC);

    let mut rt = ShardedGroupRuntime::new(config, runtime_config, net).with_faults(plan);

    // All members join over the first two intervals; no voluntary churn —
    // every departure in this run is a wrongful, fault-induced one.
    let trace: Vec<ChurnEvent> = (0..MEMBERS as u64)
        .map(|i| ChurnEvent::join(SEC + i * 17_000))
        .collect();
    let handles = rt.run_trace(&trace);
    // Quiet tail after the restart so every rejoin, resync, and NACK
    // recovery completes before shutdown.
    rt.finish(250 * SEC);

    let report = rt.snapshot();

    // The partition wrongfully departed a large fraction of the group and
    // every victim healed by rejoining: joins balance departures exactly,
    // and the group is back at full strength.
    assert!(
        report.failures_detected > MEMBERS as u64 / 3,
        "the partition must wrongfully depart the cut-off cells (got {})",
        report.failures_detected
    );
    assert_eq!(
        report.departures, report.failures_detected,
        "no voluntary leaves in this trace"
    );
    assert_eq!(
        report.rejoins, report.departures,
        "every wrongful departure must heal by rejoin"
    );
    assert_eq!(report.joins, MEMBERS as u64 + report.rejoins);
    assert_eq!(rt.group().len(), MEMBERS);

    // The server died once and resumed from its journal with a new epoch;
    // the epoch bump forced a group-wide resync.
    assert_eq!(report.restarts, 1);
    assert_eq!(rt.server_epoch(), 1);
    assert!(report.checkpoints > 0);
    assert!(report.suppressed > 0, "the outage swallowed deliveries");
    assert!(
        report.resyncs >= MEMBERS as u64,
        "the epoch bump must resync the whole group (got {})",
        report.resyncs
    );

    // Burst loss fired and was repaired by NACK/unicast recovery, and no
    // retry loop ever escaped its exponential-backoff cap. The fault
    // attribution counters split the drops by cause.
    assert!(report.copies_lost > 0, "burst loss must fire");
    assert!(report.partition_cuts > 0, "the partition must cut messages");
    assert!(report.fault_loss_drops > 0, "burst loss must drop copies");
    assert!(report.nacks > 0, "lost copies must be NACKed");
    assert!(report.recovery_encryptions > 0, "NACKs must be answered");
    assert!(
        report.max_retry_attempts <= retry_cap,
        "retry counter escaped its cap: {} > {}",
        report.max_retry_attempts,
        retry_cap
    );

    // K-consistency of every live member's local table.
    rt.check_consistency()
        .expect("local tables are K-consistent after the chaos soak");

    // Every live member holds the final group key and can use it.
    let server_interval = rt.server().interval();
    let group_key = rt
        .server()
        .tree()
        .group_key()
        .expect("non-empty group has a key")
        .clone();
    let mut rng = seeded_rng(0xDA7A);
    for handle in handles {
        let agent = rt
            .agent(handle)
            .unwrap_or_else(|| panic!("member {handle} lost its agent"));
        assert_eq!(
            agent.interval(),
            server_interval,
            "member {handle} lags the server"
        );
        assert_eq!(
            agent.group_key(),
            Some(&group_key),
            "member {handle} holds a stale group key"
        );
        let sealed = agent.seal_data(b"chaos payload", &mut rng).unwrap();
        assert_eq!(agent.open_data(&sealed).unwrap(), b"chaos payload");
    }
}
