//! Failover soak: the replicated key server survives losing its primary.
//!
//! The runtime is built with `replicas = 3`: node 0 (the initial
//! primary) streams every membership mutation and interval boundary to
//! the follower replicas as replication-log entries, and the followers
//! replay them against identically seeded state machines — so at any
//! moment a follower's key tree is a prefix of the primary's history.
//! When a `FaultPlan` outage kills the primary, the followers detect the
//! heartbeat silence, elect the most-caught-up one, and the winner bumps
//! the server epoch and re-announces; members re-anchor on the promoted
//! primary through the existing epoch-bumped resync path plus
//! server-address rotation in their retry machinery.
//!
//! Three layers of verification:
//!  * a fast deterministic scenario — election, single promotion, the
//!    revived ex-primary rejoining as a follower, and byte-identical
//!    metrics across identically seeded runs;
//!  * a 1000-member chaos soak (ignored by default; `scripts/ci.sh`
//!    runs it in release) — the primary dies mid-interval under
//!    Gilbert–Elliott burst loss and concurrent join/leave churn, and
//!    the group still reaches a K-consistent finish with every live
//!    member holding the final group key;
//!  * a sim-vs-socket equivalence — a real-UDP session that loses its
//!    primary mid-run must end with exactly the roster and key tree of
//!    a never-faulted single-replica simulation, proving failover is
//!    invisible in the key material.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use group_rekeying::id::IdSpec;
use group_rekeying::net::{GridNetwork, MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::SERVER_NODE;
use group_rekeying::proto::{
    ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime, UdpGroupDriver,
};
use group_rekeying::sim::{seeded_rng, FaultPlan, GilbertElliott};

const SEC: u64 = 1_000_000;

/// The UDP equivalence test below races wall-clock socket deadlines,
/// while the sim soaks are CPU-bound; parallel test threads would starve
/// the socket pump of real time. One test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs the fast failover scenario and returns the runtime for
/// inspection: 48 members, primary killed mid-interval, revived later.
fn fast_failover_run() -> ShardedGroupRuntime<GridNetwork> {
    const MEMBERS: usize = 48;
    let net = GridNetwork::new(MEMBERS + 8, 1_000, 100);
    let spec = IdSpec::new(3, 4).unwrap();
    let group = GroupConfig::for_spec(&spec).k(2).seed(0xFA11);
    let config = RuntimeConfig::builder()
        .rekey_period(2 * SEC)
        .nack_grace(SEC / 2)
        .heartbeat_period(1 << 40)
        .retry_base(SEC / 4)
        .replicas(3)
        .seed(0xFA110)
        .build();

    // Kill the primary at 5 s — mid-way through the third rekey interval
    // (boundaries at 2/4/6 s) — and revive it at 13 s, well after a
    // follower has been promoted.
    let plan = FaultPlan::new().outage(SERVER_NODE, 5 * SEC, 13 * SEC);
    let mut rt = ShardedGroupRuntime::new(group, config, net).with_faults(plan);

    let mut trace: Vec<ChurnEvent> = (0..MEMBERS as u64)
        .map(|i| ChurnEvent::join(100_000 + i * 20_000))
        .collect();
    // Two voluntary leaves before the kill (replicated while the old
    // primary is alive) and one after (applied by the promoted one).
    trace.push(ChurnEvent::leave(3_200_000, 7));
    trace.push(ChurnEvent::leave(3_300_000, 19));
    trace.push(ChurnEvent::leave(16 * SEC, 31));
    rt.run_trace(&trace);
    rt.finish(60 * SEC);
    rt
}

/// One election, one promotion, the ex-primary back as a follower, and
/// every member current on the promoted primary's key tree.
#[test]
fn sim_failover_promotes_a_follower_and_recovers() {
    let _serial = serial();
    let rt = fast_failover_run();
    let report = rt.snapshot();

    assert_eq!(report.promotions, 1, "exactly one follower promoted");
    assert!(report.elections >= 1, "the outage must trigger an election");
    assert_eq!(report.restarts, 1, "the revived ex-primary rejoins once");
    assert_eq!(
        rt.server_epoch(),
        1,
        "promotion bumps the epoch exactly once"
    );
    assert!(
        report.resyncs > 0,
        "the epoch bump must resync members onto the new primary"
    );
    assert_eq!(report.departures, 3, "three voluntary leaves");
    assert_eq!(rt.group().len(), 48 - 3);
    assert_eq!(
        report.lost_mutations, 0,
        "no mutation raced the kill window"
    );

    rt.check_consistency()
        .expect("tables K-consistent after failover");
    let server_interval = rt.server().interval();
    let group_key = rt.server().tree().group_key().expect("non-empty group");
    for handle in 0..rt.member_count() {
        let Some(agent) = rt.agent(handle) else {
            assert!(
                matches!(handle, 7 | 19 | 31),
                "member {handle} lost its agent"
            );
            continue;
        };
        assert_eq!(agent.interval(), server_interval, "member {handle} lags");
        assert_eq!(
            agent.group_key(),
            Some(group_key),
            "member {handle} holds a stale key"
        );
    }
}

/// Identically seeded failover runs produce byte-identical metrics
/// snapshots — elections, promotions, and replication lag included.
#[test]
fn failover_runs_are_deterministic() {
    let _serial = serial();
    let a = fast_failover_run().snapshot().to_json();
    let b = fast_failover_run().snapshot().to_json();
    assert_eq!(a, b, "identical seeds must replay bit for bit");
}

/// Each interval's batch rekey is counted once, by the replica that
/// issued it as primary. A session whose primary dies for good between
/// two leaves counts as many key-wrap encryptions as a never-faulted
/// single replica, and ends with the same group key — the promoted
/// primary's rekey of the second leave included.
#[test]
fn a_promoted_primary_counts_the_rekeys_it_issues() {
    let _serial = serial();
    const KILL: u64 = 307_471; // mid-way through the third interval
    let run = |replicas: usize, plan: FaultPlan| {
        let window = udp_net().min_one_way();
        let mut rt = ShardedGroupRuntime::bootstrapped(
            udp_group(),
            udp_config(replicas),
            udp_net(),
            UDP_MEMBERS,
            4,
            window,
        )
        .expect("sharded bootstrap")
        .with_faults(plan);
        rt.leave_at(0, 4);
        rt.run_until(KILL);
        rt.leave_at(0, 17);
        rt.run_until(KILL + 40 * UDP_PERIOD);
        rt.finish(KILL + 60 * UDP_PERIOD);
        let key = rt.server().tree().group_key().cloned();
        (rt.snapshot(), key)
    };
    let (single, single_key) = run(1, FaultPlan::new());
    let dies = FaultPlan::new().outage(SERVER_NODE, KILL, 10_000 * SEC);
    let (replicated, replicated_key) = run(3, dies);
    assert_eq!(replicated.promotions, 1, "a follower took over");
    assert!(single.tree_encryptions > 0, "the leaves were rekeyed");
    assert_eq!(
        replicated.tree_encryptions, single.tree_encryptions,
        "every issued rekey counted once"
    );
    assert_eq!(replicated_key, single_key, "same final group key");
}

/// The 1000-member chaos version: burst loss and jitter on the overlay
/// for the whole run, join/leave churn overlapping the kill window, the
/// primary killed mid-interval and revived a minute later. The group
/// must still converge: follower promoted, every victim healed, all
/// tables K-consistent, and every live member sealing under the final
/// group key.
#[test]
#[ignore = "large: ~1k nodes, replicated server, burst loss + churn + failover; ci.sh runs it in release"]
fn thousand_member_failover_under_burst_loss_and_churn() {
    let _serial = serial();
    const MEMBERS: usize = 1000;
    let params = PlanetLabParams {
        continent_hosts: vec![500, 300, 200, 150],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(0xFA115));
    assert!(net.host_count() > MEMBERS);

    let spec = IdSpec::new(5, 8).unwrap();
    let group = GroupConfig::for_spec(&spec).k(4).seed(0xFA1150);
    let config = RuntimeConfig::builder().replicas(3).seed(0xFA115).build();
    let retry_cap = config.retry_cap();

    // Burst loss on every rekey copy throughout; the primary dies at
    // 95 s — mid-interval (boundaries every 10 s) and mid-churn — and
    // comes back at 160 s, long after a follower took over.
    let plan = FaultPlan::new()
        .burst_loss(GilbertElliott::moderate())
        .jitter(30_000)
        .outage(SERVER_NODE, 95 * SEC, 160 * SEC);
    let mut rt = ShardedGroupRuntime::new(group, config, net).with_faults(plan);

    let mut trace: Vec<ChurnEvent> = (0..MEMBERS as u64)
        .map(|i| ChurnEvent::join(SEC + i * 17_000))
        .collect();
    // Voluntary churn straddling the kill: leaves shortly before the
    // outage (replicated), inside it (retried onto the promoted
    // follower), and after the revival.
    for (i, at) in [80u64, 90, 94, 96, 100, 110, 130, 170].iter().enumerate() {
        trace.push(ChurnEvent::leave(at * SEC, i * 71 + 3));
    }
    let handles = rt.run_trace(&trace);
    rt.finish(260 * SEC);

    let report = rt.snapshot();
    assert!(report.promotions >= 1, "a follower must be promoted");
    assert!(report.elections >= 1, "the kill must trigger an election");
    assert!(report.restarts >= 1, "the ex-primary must rejoin");
    assert!(rt.server_epoch() >= 1, "promotion bumps the epoch");
    assert!(
        report.resyncs > 0,
        "epoch-bumped resync is the recovery path"
    );
    assert!(report.fault_loss_drops > 0, "burst loss must fire");
    assert!(report.nacks > 0, "lost copies must be NACKed");
    assert!(
        report.max_retry_attempts <= retry_cap,
        "retry counter escaped its cap: {} > {}",
        report.max_retry_attempts,
        retry_cap
    );

    // Roster accounting: every wrongful departure healed by a rejoin,
    // so the group holds exactly the never-departed joiners.
    assert_eq!(
        rt.group().len() as u64,
        MEMBERS as u64 - 8 + report.rejoins.saturating_sub(report.failures_detected),
        "roster must balance voluntary leaves and healed departures"
    );

    rt.check_consistency()
        .expect("tables K-consistent after the failover soak");
    let server_interval = rt.server().interval();
    let group_key = rt
        .server()
        .tree()
        .group_key()
        .expect("non-empty group has a key")
        .clone();
    let mut rng = seeded_rng(0xFA11_DA7A);
    let mut live = 0usize;
    for handle in handles {
        let Some(agent) = rt.agent(handle) else {
            continue; // voluntarily departed
        };
        live += 1;
        assert_eq!(
            agent.interval(),
            server_interval,
            "member {handle} lags the promoted primary"
        );
        assert_eq!(
            agent.group_key(),
            Some(&group_key),
            "member {handle} holds a stale group key"
        );
        let sealed = agent.seal_data(b"failover payload", &mut rng).unwrap();
        assert_eq!(agent.open_data(&sealed).unwrap(), b"failover payload");
    }
    assert_eq!(live, rt.group().len(), "agents match the oracle roster");
}

const UDP_MEMBERS: usize = 24;
const UDP_PERIOD: u64 = 150_000; // 150 ms real time per interval

fn udp_net() -> GridNetwork {
    GridNetwork::new(UDP_MEMBERS + 1, 1_000, 100)
}

fn udp_group() -> GroupConfig {
    GroupConfig::for_spec(&IdSpec::new(3, 4).unwrap())
        .k(2)
        .seed(11)
}

fn udp_config(replicas: usize) -> RuntimeConfig {
    RuntimeConfig::builder()
        .rekey_period(UDP_PERIOD)
        .nack_grace(UDP_PERIOD / 4)
        .heartbeat_period(1 << 40)
        .retry_base(UDP_PERIOD / 8)
        .replicas(replicas)
        .seed(5)
        .build()
}

/// Failover over real loopback UDP, pinned against a never-faulted
/// single-replica simulation: after the primary's socket goes dark and a
/// follower is promoted over real packets, the session must end with
/// exactly the baseline's roster and key tree — same members, same
/// group key, same per-member path keys. Deterministic replication makes
/// the promoted follower's state a replay of the primary's, and empty
/// beacon intervals draw no keys, so failover cannot perturb the
/// key-material stream.
#[test]
fn socket_failover_matches_single_replica_sim() {
    let _serial = serial();
    let window = udp_net().min_one_way();
    let mut sim = ShardedGroupRuntime::bootstrapped(
        udp_group(),
        udp_config(1),
        udp_net(),
        UDP_MEMBERS,
        4,
        window,
    )
    .expect("sharded bootstrap");
    let mut udp =
        UdpGroupDriver::bootstrapped(udp_group(), udp_config(3), udp_net(), UDP_MEMBERS, 4)
            .expect("udp bootstrap");

    // Baseline: two leaves, three intervals, no faults. A leave at time 0
    // is clamped to the present, and `finish(0)` shuts down from where
    // the session stands — panicking if its flush does not converge.
    sim.leave_at(0, 4);
    assert!(sim.run_to_interval(2), "sim interval 2");
    sim.leave_at(0, 17);
    assert!(sim.run_to_interval(3), "sim interval 3");
    sim.finish(0);
    sim.check_consistency().expect("sim tables K-consistent");

    // Same churn over UDP, but the primary dies between the leaves.
    udp.leave(4);
    assert!(
        udp.run_to_interval(2, Duration::from_secs(30)),
        "udp interval 2"
    );
    // Let the replication stream settle so the followers have applied
    // interval 2 before the kill (each call pumps at least one beat).
    for _ in 0..5 {
        udp.run_to_interval(2, Duration::from_millis(60));
    }
    udp.kill_server(0);
    udp.leave(17);
    // Give the election, promotion, re-anchor, and the retried leave a
    // few post-failover intervals to land.
    assert!(
        udp.run_to_interval(5, Duration::from_secs(60)),
        "udp never resumed intervals after the kill"
    );
    // The retried leave must land on the promoted primary before the
    // flush: pump until the roster shrinks (bounded, ~10 s worst case).
    for _ in 0..100 {
        if udp.group().len() == UDP_MEMBERS - 2 {
            break;
        }
        udp.run_to_interval(u64::MAX, Duration::from_millis(100));
    }
    assert_eq!(
        udp.group().len(),
        UDP_MEMBERS - 2,
        "the post-kill leave never reached the promoted primary"
    );
    let converged = udp.finish(Duration::from_secs(60));
    assert!(
        converged,
        "udp flush did not converge; still open: {:?}",
        udp.not_converged()
    );
    udp.check_consistency().expect("udp tables K-consistent");

    assert_ne!(
        udp.primary_replica(),
        0,
        "a follower must be acting primary"
    );
    let report = udp.snapshot();
    assert!(report.promotions >= 1, "promotion must be counted");
    assert!(report.elections >= 1, "election must be counted");

    let (a, b) = (sim.server(), udp.server());
    // Identical rosters: same user IDs on the same hosts in the same
    // order (all joined_at stamps are bootstrap-time zero on both).
    assert_eq!(a.group().members(), b.group().members(), "rosters diverge");
    // Identical key trees, key for key.
    let gk = a.tree().group_key().expect("non-empty group");
    assert_eq!(Some(gk), b.tree().group_key(), "group keys diverge");
    for m in a.group().members() {
        let ka: Vec<_> = a.tree().user_path_keys(&m.id).collect();
        let kb: Vec<_> = b.tree().user_path_keys(&m.id).collect();
        assert_eq!(ka, kb, "path keys diverge for {:?}", m.id);
    }
    // Every survivor on both sides holds the shared group key.
    for h in 0..UDP_MEMBERS {
        match (sim.agent(h), udp.agent(h)) {
            (Some(x), Some(y)) => {
                let (promotions, elections) = (report.promotions, report.elections);
                assert_eq!(
                    x.group_key(),
                    Some(gk),
                    "sim member {h} is stale (udp: {promotions} promotions, {elections} elections)"
                );
                assert_eq!(
                    y.group_key(),
                    Some(gk),
                    "udp member {h} is stale ({promotions} promotions, {elections} elections)"
                );
            }
            (None, None) => assert!(h == 4 || h == 17, "unexpected departure {h}"),
            (x, y) => panic!(
                "member {h} liveness diverges: sim {} udp {}",
                x.is_some(),
                y.is_some()
            ),
        }
    }
}
