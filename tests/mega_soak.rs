//! Mega soaks: 65 536 members on the simulated executor
//! ([`ShardedGroupRuntime`]), dealt in one bootstrap pass and spread over
//! 8 shards.
//!
//! * The plain one sustains two churned rekey intervals under 1% copy
//!   loss — the CI-sized thumbnail of `bench_runtime`'s 65k/262k/1M mega
//!   sweep. Exercises the bootstrap dealing pass (one O(N·D·B)
//!   construction instead of 65k protocol joins), the window-barrier
//!   cross-shard exchange, NACK/unicast recovery under loss, and the
//!   deterministic snapshot merge.
//! * The chaos one runs the compound fault scenario of `chaos_soak` and
//!   `failover_soak` — which the single-queue executor capped at ~1k
//!   members — at the same 65k: three key-server replicas, burst loss on
//!   every rekey copy, a three-way partition that heals, and the primary
//!   killed mid-interval.
//!
//! Ignored by default — `scripts/ci.sh` runs them in release mode:
//! `cargo test --release --test mega_soak -- --ignored`.

use group_rekeying::proto::{member_node_with_replicas, replica_node};
use group_rekeying::proto::{RuntimeConfig, ShardedGroupRuntime};
use group_rekeying::sim::{FaultPlan, GilbertElliott, NodeId};
use rekey_bench::mega_runtime_fixture;
use rekey_bench::schema::validate_snapshot;

const SEC: u64 = 1_000_000;
const MEMBERS: usize = 65_536;

#[test]
#[ignore = "soak-sized: 65k members × 2 churned intervals; ci.sh runs it in release"]
fn sharded_65k_soak_stays_current_under_loss() {
    let (net, group, leaves, finish, window) = mega_runtime_fixture(MEMBERS);
    let runtime_config = RuntimeConfig::builder().loss(0.01).seed(0x6E6A).build();
    let mut rt = ShardedGroupRuntime::bootstrapped(group, runtime_config, net, MEMBERS, 8, window)
        .expect("65k members fit the 16^5 ID space");
    assert_eq!(rt.member_count(), MEMBERS);
    assert_eq!(
        rt.server().interval(),
        1,
        "bootstrap welcomes at interval 1"
    );

    for &(at, handle) in &leaves {
        rt.leave_at(at, handle);
    }
    rt.finish(finish);

    let report = rt.snapshot();
    validate_snapshot(&report.to_json());
    assert_eq!(report.welcomes, MEMBERS as u64);
    assert_eq!(report.departures, leaves.len() as u64);
    assert_eq!(report.members, MEMBERS - leaves.len());
    assert_eq!(report.leave_acks, leaves.len() as u64);
    assert!(report.intervals >= 2, "got {} intervals", report.intervals);
    assert!(report.copies_lost > 0, "the 1% loss stream never drew");
    assert_eq!(report.checkpoints, 0, "the mega runtime journals nothing");
    assert_eq!(report.pings, 0, "heartbeats are disarmed at mega scale");
    // Every member applies every interval (recovery fills the loss holes),
    // so the apply histogram carries at least members × intervals samples
    // minus the churned-out leavers.
    assert!(
        report.apply_delay_us.count >= (MEMBERS as u64 - leaves.len() as u64) * report.intervals,
        "apply count {} too small for {} intervals",
        report.apply_delay_us.count,
        report.intervals
    );

    // Spot-check survivor agents across the whole handle range: current
    // interval, current group key.
    let server_interval = rt.server().interval();
    let group_key = rt
        .server()
        .tree()
        .group_key()
        .expect("group is non-empty")
        .clone();
    let leavers: Vec<usize> = leaves.iter().map(|&(_, h)| h).collect();
    let mut checked = 0;
    for handle in (0..MEMBERS).step_by(1009) {
        if leavers.contains(&handle) {
            continue;
        }
        let agent = rt.agent(handle).expect("survivor was welcomed");
        assert_eq!(agent.interval(), server_interval, "member {handle} lags");
        assert_eq!(
            agent.group_key(),
            Some(&group_key),
            "member {handle} holds a stale group key"
        );
        checked += 1;
    }
    assert!(checked >= 60, "spot check covered only {checked} members");
    for &handle in &leavers {
        assert!(rt.agent(handle).is_none(), "leaver {handle} kept its agent");
    }
}

/// Chaos and failover at mega scale: 65 536 dealt members, 3 replicas,
/// Gilbert–Elliott burst loss throughout, a three-way partition (only
/// cell 0 keeps the replicas) from 12 s to 27 s — across the 20 s rekey
/// boundary — and the primary killed mid-interval at 45 s, revived at
/// 95 s, long after a follower took over. Voluntary leaves straddle all
/// of it. The run must finish K-consistent with every survivor on the
/// acting primary's group key.
#[test]
#[ignore = "soak-sized: 65k members, 3 replicas, partition + burst loss + primary kill; ci.sh runs it in release"]
fn sharded_65k_survives_partition_burst_loss_and_primary_kill() {
    const REPLICAS: usize = 3;
    let (net, group, _, _, window) = mega_runtime_fixture(MEMBERS);
    let runtime_config = RuntimeConfig::builder()
        .replicas(REPLICAS)
        .seed(0x6E6AC)
        .build();
    let retry_cap = runtime_config.retry_cap();

    let mut cells: Vec<Vec<NodeId>> = vec![Vec::new(); 3];
    cells[0].extend((0..REPLICAS).map(replica_node));
    for handle in 0..MEMBERS {
        cells[handle % 3].push(member_node_with_replicas(handle, REPLICAS));
    }
    let plan = FaultPlan::new()
        .burst_loss(GilbertElliott::moderate())
        .partition(cells, 12 * SEC, 27 * SEC)
        .outage(replica_node(0), 45 * SEC, 95 * SEC);

    let mut rt = ShardedGroupRuntime::bootstrapped(group, runtime_config, net, MEMBERS, 8, window)
        .expect("65k members fit the 16^5 ID space")
        .with_faults(plan);

    // Leaves before, inside and after each fault window; handles spread
    // over all three partition cells.
    let leaves: [(u64, usize); 8] = [
        (3 * SEC, MEMBERS / 7),
        (14 * SEC, MEMBERS / 3 + 1),
        (22 * SEC, MEMBERS / 2 + 2),
        (33 * SEC, MEMBERS / 5),
        (44 * SEC, MEMBERS / 11 + 2),
        (52 * SEC, MEMBERS - 9),
        (88 * SEC, MEMBERS / 2 - 3),
        (104 * SEC, MEMBERS - 2),
    ];
    for &(at, handle) in &leaves {
        rt.leave_at(at, handle);
    }
    rt.finish(150 * SEC + 3);

    let report = rt.snapshot();
    validate_snapshot(&report.to_json());
    assert!(report.promotions >= 1, "a follower must be promoted");
    assert!(report.elections >= 1, "the kill must trigger an election");
    assert_eq!(report.restarts, 1, "the ex-primary rejoins once");
    assert!(rt.server_epoch() >= 1, "promotion bumps the epoch");
    assert!(
        report.resyncs >= (MEMBERS - leaves.len()) as u64,
        "the epoch bump must resync the whole group (got {})",
        report.resyncs
    );
    assert!(report.suppressed > 0, "the outage swallowed deliveries");
    assert!(report.partition_cuts > 0, "the partition must cut messages");
    assert!(report.fault_loss_drops > 0, "burst loss must drop copies");
    assert!(report.nacks > 0, "lost copies must be NACKed");
    assert!(report.checkpoints > 0, "a replicated session journals");
    assert!(
        report.max_retry_attempts <= retry_cap,
        "retry counter escaped its cap: {} > {}",
        report.max_retry_attempts,
        retry_cap
    );
    // Dealt members are not heartbeated until the failover resync starts
    // their probes, so the partition departs nobody. A leaver that retires
    // while the primary is down goes silent before any replica hears of
    // it, and its neighbors may report it first — either way every leaver
    // departs exactly once and nobody else does.
    assert!(report.failures_detected <= leaves.len() as u64);
    assert_eq!(report.rejoins, 0, "nobody was wrongfully departed");
    assert_eq!(report.departures, leaves.len() as u64);
    assert_eq!(report.members, MEMBERS - leaves.len());

    rt.check_consistency()
        .expect("tables K-consistent after the mega chaos soak");
    let server_interval = rt.server().interval();
    let group_key = rt
        .server()
        .tree()
        .group_key()
        .expect("group is non-empty")
        .clone();
    let leavers: Vec<usize> = leaves.iter().map(|&(_, h)| h).collect();
    for handle in 0..MEMBERS {
        let Some(agent) = rt.agent(handle) else {
            assert!(leavers.contains(&handle), "member {handle} lost its agent");
            continue;
        };
        assert_eq!(agent.interval(), server_interval, "member {handle} lags");
        assert_eq!(
            agent.group_key(),
            Some(&group_key),
            "member {handle} holds a stale group key"
        );
    }
}
