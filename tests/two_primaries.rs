//! ROADMAP item 1's two reproductions: at most one primary per epoch.
//!
//! Each case runs the shape of `failover_soak`'s
//! `a_promoted_primary_counts_the_rekeys_it_issues` with three replicas,
//! a jittered overlay and one seed: the primary dies for good mid-way
//! through an interval, the followers elect a successor, and the session
//! must end with every live member holding the acting primary's group
//! key, and with no more promotions than epochs. On these two seeds the
//! election, which takes no votes, promotes two followers into epoch 1,
//! and members end at the server's interval under the other primary's
//! group key. The tests stay ignored until the election is fixed; they
//! live in their own binary because `scripts/ci.sh` runs `failover_soak`
//! with `--ignored`.

use group_rekeying::id::IdSpec;
use group_rekeying::net::GridNetwork;
use group_rekeying::proto::SERVER_NODE;
use group_rekeying::proto::{GroupConfig, RuntimeConfig, ShardedGroupRuntime};
use group_rekeying::sim::FaultPlan;

const SEC: u64 = 1_000_000;
const MEMBERS: usize = 24;
const PERIOD: u64 = 150_000;

/// The session of runtime seed `seed` whose primary dies at `kill` µs,
/// checked for stale members and for two primaries in one epoch.
fn one_primary_per_epoch(seed: u64, kill: u64) {
    let net = GridNetwork::new(MEMBERS + 1, 1_000, 100);
    let window = net.min_one_way();
    let group = GroupConfig::for_spec(&IdSpec::new(3, 4).unwrap())
        .k(2)
        .seed(11);
    let config = RuntimeConfig::builder()
        .rekey_period(PERIOD)
        .nack_grace(PERIOD / 4)
        .heartbeat_period(1 << 40)
        .retry_base(PERIOD / 8)
        .replicas(3)
        .seed(seed)
        .build();
    let plan = FaultPlan::new()
        .outage(SERVER_NODE, kill, 10_000 * SEC)
        .jitter(60_000);
    let mut rt = ShardedGroupRuntime::bootstrapped(group, config, net, MEMBERS, 4, window)
        .expect("sharded bootstrap")
        .with_faults(plan);
    rt.leave_at(0, 4);
    rt.run_until(kill);
    rt.leave_at(0, 17);
    rt.run_until(kill + 40 * PERIOD);
    rt.finish(kill + 60 * PERIOD);

    let key = rt.server().tree().group_key().cloned();
    let stale: Vec<usize> = (0..rt.member_count())
        .filter(|&handle| {
            rt.agent(handle)
                .is_some_and(|agent| agent.group_key() != key.as_ref())
        })
        .collect();
    let snapshot = rt.snapshot();
    let (promotions, epoch) = (snapshot.promotions, rt.server_epoch());
    // Each promotion as (epoch, µs), from its span.
    let promoted: Vec<(u64, u64)> = (snapshot.spans.iter())
        .filter(|span| span.name == "promotion")
        .map(|span| (span.detail, span.end))
        .collect();
    assert!(
        stale.is_empty() && promotions <= epoch,
        "{promotions} promotions into epoch {epoch} (epoch, µs: {promoted:?}); \
         server interval {}; members holding another group key: {stale:?}",
        rt.server().interval()
    );
}

#[test]
#[ignore = "fails until ROADMAP item 1: two promotions into epoch 1"]
fn seed_14246286_promotes_one_primary_per_epoch() {
    one_primary_per_epoch(14_246_286, 307_471);
}

#[test]
#[ignore = "fails until ROADMAP item 1: two promotions into epoch 1"]
fn seed_1955998_promotes_one_primary_per_epoch() {
    one_primary_per_epoch(1_955_998, 368_063);
}
