//! Sim-vs-socket equivalence: the same churn trace pushed through the
//! deterministic sharded simulation and through the real-socket UDP
//! driver must end in the same place — identical membership roster,
//! identical server key tree (exact key material, version for version),
//! every survivor holding the current group key, and K-consistent
//! tables on both sides.
//!
//! This works because key material never touches the clock: the
//! server's key RNG is seeded by `GroupConfig::seed`, and with the same
//! bootstrap roster and one identical leave per rekey interval, both
//! engines draw the same keys in the same order. Tree equality is
//! therefore an exact check, not a statistical one — real UDP jitter
//! may reorder packets and trigger NACK recovery, but recovery only
//! retransmits existing key material and cannot perturb the draw
//! sequence.

use std::time::Duration;

use rekey_id::IdSpec;
use rekey_net::GridNetwork;
use rekey_proto::{GroupConfig, RuntimeConfig, ShardedGroupRuntime, UdpGroupDriver};

const MEMBERS: usize = 24;
/// 150 ms per rekey interval: sim time for the sharded engine, real
/// wall-clock for the socket driver.
const PERIOD: u64 = 150_000;

fn net() -> GridNetwork {
    GridNetwork::new(MEMBERS + 1, 1_000, 100)
}

fn group() -> GroupConfig {
    GroupConfig::for_spec(&IdSpec::new(3, 4).unwrap())
        .k(2)
        .seed(11)
}

fn config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .rekey_period(PERIOD)
        .nack_grace(PERIOD / 4)
        .heartbeat_period(1 << 40)
        .retry_base(PERIOD / 8)
        .seed(5)
        .build()
}

/// The shared churn trace on the simulator: one leave per interval keeps
/// the per-interval batch a single-element set, so batch application
/// order — the one thing real packet arrival could perturb — cannot
/// differ between engines. A leave at time 0 is clamped to the present,
/// and `finish(0)` shuts down from where the session stands, panicking if
/// its flush does not converge.
fn drive_sim(rt: &mut ShardedGroupRuntime<GridNetwork>) {
    rt.leave_at(0, 4);
    assert!(rt.run_to_interval(2), "interval 2 stalled");
    rt.leave_at(0, 17);
    assert!(rt.run_to_interval(3), "interval 3 stalled");
    rt.finish(0);
    rt.check_consistency()
        .expect("tables K-consistent after finish");
}

/// The same churn trace over real sockets, with a 60-second patience
/// budget per advance — generous for loopback.
fn drive_udp(rt: &mut UdpGroupDriver<GridNetwork>) {
    const PATIENCE: Duration = Duration::from_secs(60);
    rt.leave(4);
    assert!(rt.run_to_interval(2, PATIENCE), "interval 2 stalled");
    rt.leave(17);
    assert!(rt.run_to_interval(3, PATIENCE), "interval 3 stalled");
    assert!(rt.finish(PATIENCE), "flush failed to converge");
    rt.check_consistency()
        .expect("tables K-consistent after finish");
}

#[test]
fn sim_and_socket_drivers_agree() {
    let window = net().min_one_way();
    let mut sim = ShardedGroupRuntime::bootstrapped(group(), config(), net(), MEMBERS, 4, window)
        .expect("sharded bootstrap");
    let mut udp =
        UdpGroupDriver::bootstrapped(group(), config(), net(), MEMBERS, 4).expect("udp bootstrap");

    drive_sim(&mut sim);
    drive_udp(&mut udp);

    let (a, b) = (sim.server(), udp.server());
    assert_eq!(a.interval(), b.interval(), "interval counts diverge");

    // Identical rosters: same user IDs on the same hosts, in the same
    // join order. (joined_at is compared too — both engines deal the
    // bootstrap at their respective time zero.)
    assert_eq!(a.group().members(), b.group().members(), "rosters diverge");

    // Identical key trees: for every member, the full u-node-to-root
    // key path matches key for key. Together with the shared roster
    // this pins every live node of both trees.
    let gk = a.tree().group_key().expect("non-empty group");
    assert_eq!(Some(gk), b.tree().group_key(), "group keys diverge");
    for m in a.group().members() {
        let ka: Vec<_> = a.tree().user_path_keys(&m.id).collect();
        let kb: Vec<_> = b.tree().user_path_keys(&m.id).collect();
        assert_eq!(ka, kb, "path keys diverge for {:?}", m.id);
    }

    // Per-member agreement: the same handles departed, and every
    // survivor in both engines holds the (shared) current group key.
    assert_eq!(sim.member_count(), udp.member_count());
    for h in 0..sim.member_count() {
        match (sim.agent(h), udp.agent(h)) {
            (Some(x), Some(y)) => {
                assert_eq!(x.group_key(), Some(gk), "sim member {h} is stale");
                assert_eq!(y.group_key(), Some(gk), "udp member {h} is stale");
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
