//! Runtime soak: N ≥ 1024 members on one event-driven clock, sustained
//! through a join/leave/crash churn trace over ≥ 50 rekey intervals with
//! 2% independent per-copy loss on the overlay rekey transport. The run
//! must end with the surviving members' *local* neighbor tables
//! K-consistent and every surviving member holding the current group key
//! (verified end to end by opening data sealed under it).
//!
//! Ignored by default — `scripts/ci.sh` runs it in release mode:
//! `cargo test --release --test runtime_soak -- --ignored`.
//!
//! Beside it runs a small socket session that calls `finish` right after
//! its last churn, with no quiet intervals in between.

use std::time::Duration;

use group_rekeying::id::IdSpec;
use group_rekeying::net::{GridNetwork, MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::{
    ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime, UdpGroupDriver,
};
use group_rekeying::sim::seeded_rng;

const SEC: u64 = 1_000_000;

/// 64 members over loopback UDP churn four members out and four in per
/// interval for four intervals, and four more each way just before
/// `finish`, which is called with the last joins and leaves still in
/// flight. It must converge, and every live member must hold the
/// server's group key.
#[test]
fn socket_finish_right_after_churn_converges() {
    const MEMBERS: usize = 64;
    const PERIOD: u64 = 150_000; // 150 ms real time per interval
    let group = GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
        .k(2)
        .seed(11);
    let config = RuntimeConfig::builder()
        .rekey_period(PERIOD)
        .nack_grace(PERIOD / 4)
        .heartbeat_period(1 << 40)
        .retry_base(PERIOD / 8)
        .seed(5)
        .build();
    let net = GridNetwork::new(MEMBERS + 32, 1_000, 100);
    let mut rt =
        UdpGroupDriver::bootstrapped(group, config, net, MEMBERS, 2).expect("udp bootstrap");
    let mut leavers = (0..MEMBERS).step_by(3);
    for target in 2..=6 {
        for leaver in leavers.by_ref().take(4) {
            rt.leave(leaver);
            rt.join();
        }
        if target < 6 {
            assert!(
                rt.run_to_interval(target, Duration::from_secs(30)),
                "interval {target}"
            );
        }
    }
    let converged = rt.finish(Duration::from_secs(30));
    assert!(converged, "finish gave up: {:?}", rt.not_converged());
    rt.check_consistency().expect("tables K-consistent");
    let group_key = rt.server().tree().group_key().expect("non-empty group");
    let mut live = 0;
    for handle in 0..rt.member_count() {
        if let Some(agent) = rt.agent(handle) {
            live += 1;
            assert_eq!(agent.group_key(), Some(group_key), "member {handle} stale");
        }
    }
    assert_eq!(live, rt.group().len(), "agents match the roster");
    assert_eq!(live, MEMBERS, "20 leaves and 20 joins");
}

#[test]
#[ignore = "large: ~1k nodes × 50+ intervals; ci.sh runs it in release"]
fn thousand_member_churn_soak_stays_consistent() {
    // A PlanetLab-style substrate with room for 1100 member hosts plus
    // the server: four continents as in the paper's matrix, scaled up.
    let params = PlanetLabParams {
        continent_hosts: vec![500, 300, 200, 150],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(0x50AC));
    assert!(net.host_count() >= 1101);

    let spec = IdSpec::new(5, 8).unwrap();
    let config = GroupConfig::for_spec(&spec).k(4).seed(0xC0FFEE);
    let runtime_config = RuntimeConfig::builder().loss(0.02).seed(0x50AC).build();
    let mut rt = ShardedGroupRuntime::new(config, runtime_config, net);

    // 1056 joins spread over the first two intervals (~19 s), then mixed
    // churn through the middle of the run: 40 voluntary leaves, 16 silent
    // crashes, and 8 late joins. The tail of the trace is quiet so every
    // crash is detected and every repair completes before shutdown.
    let mut trace: Vec<ChurnEvent> = (0..1056)
        .map(|i| ChurnEvent::join(SEC + i * 17_000))
        .collect();
    for i in 0..40u64 {
        trace.push(ChurnEvent::leave(
            60 * SEC + i * 9 * SEC,
            (i as usize * 23) % 1000,
        ));
    }
    for i in 0..16u64 {
        trace.push(ChurnEvent::crash(
            80 * SEC + i * 20 * SEC,
            1000 + i as usize,
        ));
    }
    for i in 0..8u64 {
        trace.push(ChurnEvent::join(100 * SEC + i * 30 * SEC));
    }
    rt.run_trace(&trace);
    // ≥ 50 rekey intervals at the default 10 s period; the last crash is
    // at 380 s, leaving > 2 heartbeat periods of quiet tail.
    rt.finish(521 * SEC);

    let report = rt.snapshot();
    assert!(
        report.intervals >= 50,
        "soak must span ≥ 50 intervals, got {}",
        report.intervals
    );
    assert_eq!(report.joins, 1064);
    assert_eq!(
        report.failures_detected, 16,
        "every silent crash must be detected by heartbeats"
    );
    assert_eq!(report.departures, 40 + 16);
    assert_eq!(rt.group().len(), 1064 - 56);
    assert!(rt.group().len() >= 1000, "group stays at four digits");
    assert!(report.copies_lost > 0, "2% loss must fire");
    assert!(report.nacks > 0, "lost copies must be NACKed");
    assert!(
        report.recovery_encryptions > 0,
        "NACKs must be answered with unicast recovery"
    );
    assert!(report.dead_letters > 0, "crashed nodes absorbed traffic");

    // Survivors' local tables are K-consistent for the final membership.
    rt.check_consistency()
        .expect("local tables are K-consistent after the soak");

    // Every surviving member holds the current group key: its agent is at
    // the server's interval and opens data sealed under the final key.
    let server_interval = rt.server().interval();
    let group_key = rt
        .server()
        .tree()
        .group_key()
        .expect("non-empty group has a key")
        .clone();
    let mut rng = seeded_rng(0xDA7A);
    let departed: std::collections::BTreeSet<usize> = (0..40usize)
        .map(|i| (i * 23) % 1000)
        .chain(1000..1016)
        .collect();
    let mut survivors = 0;
    for handle in 0..rt.member_count() {
        if departed.contains(&handle) {
            continue;
        }
        let agent = rt
            .agent(handle)
            .unwrap_or_else(|| panic!("surviving member {handle} lost its agent"));
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
        let sealed = agent.seal_data(b"soak payload", &mut rng).unwrap();
        assert_eq!(agent.open_data(&sealed).unwrap(), b"soak payload");
        survivors += 1;
    }
    assert_eq!(survivors, 1064 - 56);
}
