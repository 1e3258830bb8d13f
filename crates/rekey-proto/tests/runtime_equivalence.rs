//! One implementation, two drivers: the event-driven [`ShardedGroupRuntime`] and
//! the synchronous [`GroupServer`] facade must execute the *same* protocol.
//! On a churn-free trace (joins only, no loss, no crashes) with the same
//! [`GroupConfig`], both drivers must end with identical membership,
//! identical key trees, and identical per-member path keys — and the
//! runtime's member agents must agree with the synchronous agents fed by
//! the oracle delivery.

use rekey_id::{IdSpec, UserId};
use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use rekey_proto::{
    ChurnEvent, GroupConfig, GroupServer, RuntimeConfig, ShardedGroupRuntime, UserAgent,
};
use rekey_sim::seeded_rng;

const SEC: u64 = 1_000_000;

fn small_net() -> MatrixNetwork {
    let mut rng = seeded_rng(0xE0);
    MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng)
}

fn config() -> GroupConfig {
    GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
        .k(2)
        .seed(99)
}

/// Joins grouped per rekey interval: hosts 0..6 join during interval 1,
/// hosts 6..10 during interval 2, and two intervals run empty. The trace
/// spaces joins ≥ 500 ms apart so overlay delays cannot reorder their
/// arrival at the server relative to the synchronous call order.
#[test]
fn runtime_and_synchronous_driver_build_identical_key_trees() {
    // Event-driven run.
    let mut rt = ShardedGroupRuntime::new(config(), RuntimeConfig::default(), small_net());
    let trace: Vec<ChurnEvent> = (0..6)
        .map(|i| ChurnEvent::join(SEC + i * 800_000))
        .chain((0..4).map(|i| ChurnEvent::join(11 * SEC + i * 800_000)))
        .collect();
    rt.run_trace(&trace);
    rt.finish(41 * SEC); // ticks at 10, 20, 30, 40 s
    assert_eq!(rt.server().interval(), 4);

    // Synchronous run: same config, same network, same join grouping.
    // Each interval's outcome is delivered over the oracle transport
    // immediately, mirroring what the runtime multicasts per tick.
    let net = small_net();
    let mut server = config().build(HostId(net.host_count() - 1));
    let mut agents: Vec<UserAgent> = Vec::new();
    let deliver_interval = |server: &GroupServer,
                            agents: &mut Vec<UserAgent>,
                            outcome: &rekey_proto::IntervalOutcome| {
        for welcome in &outcome.welcomes {
            agents.push(UserAgent::from_welcome(welcome.clone()));
        }
        let delivery = server.deliver(&net, outcome);
        for agent in agents.iter_mut() {
            if agent.interval() < outcome.interval {
                let i = server
                    .group()
                    .index_of(agent.id())
                    .expect("agent is a member");
                agent.handle_rekey(outcome.interval, delivery.member(i));
            }
        }
    };
    for h in 0..6 {
        server
            .request_join(HostId(h), &net, SEC + h as u64)
            .unwrap();
    }
    for _ in 0..4 {
        let outcome = server.end_interval();
        deliver_interval(&server, &mut agents, &outcome);
        if server.interval() == 1 {
            for h in 6..10 {
                server
                    .request_join(HostId(h), &net, 11 * SEC + h as u64)
                    .unwrap();
            }
        }
    }
    assert_eq!(server.interval(), rt.server().interval());

    // Same membership: IDs and hosts match exactly.
    let sync_members: Vec<(UserId, HostId)> = server
        .group()
        .members()
        .iter()
        .map(|m| (m.id, m.host))
        .collect();
    let rt_members: Vec<(UserId, HostId)> = rt
        .group()
        .members()
        .iter()
        .map(|m| (m.id, m.host))
        .collect();
    assert_eq!(sync_members, rt_members, "drivers assigned different IDs");

    // Same key tree: group key and every member's path keys agree.
    assert_eq!(
        server.tree().group_key(),
        rt.server().tree().group_key(),
        "drivers derived different group keys"
    );
    for (id, _) in &sync_members {
        assert_eq!(
            server
                .tree()
                .user_path_keys(id)
                .cloned()
                .collect::<Vec<_>>(),
            rt.server()
                .tree()
                .user_path_keys(id)
                .cloned()
                .collect::<Vec<_>>(),
            "path keys diverge for {id}"
        );
    }

    // The runtime's agents ended at the same state the synchronous
    // delivery produced: welcome + per-interval related sets.
    for agent in &agents {
        let handle = agent_handle(&rt, agent.id());
        let rt_agent = rt.agent(handle).expect("runtime member was welcomed");
        assert_eq!(rt_agent.interval(), agent.interval());
        assert_eq!(
            rt_agent.group_key(),
            agent.group_key(),
            "agent key state diverges for {}",
            agent.id()
        );
    }
}

/// Maps a member ID back to its runtime join handle via the oracle.
fn agent_handle(rt: &ShardedGroupRuntime<MatrixNetwork>, id: &UserId) -> usize {
    let host = rt
        .group()
        .members()
        .iter()
        .find(|m| &m.id == id)
        .expect("member is in the oracle")
        .host;
    host.0
}
