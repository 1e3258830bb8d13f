#![cfg(test)]
//! Property tests for the T-mesh correctness results (§2.3):
//!
//! * Theorem 1 — with 1-consistent tables and no loss, every member except
//!   the sender receives exactly one copy;
//! * Lemma 1 — a member at forwarding level `i` and all its downstream
//!   users share the first `i` ID digits;
//! * Definition 4 — every user is at a unique forwarding level.

use crate::{Source, TmeshGroup};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rekey_id::{IdSpec, UserId};
use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use rekey_table::{Member, PrimaryPolicy};

fn build_group(
    spec: &IdSpec,
    id_indices: &[u64],
    k: usize,
    seed: u64,
) -> (TmeshGroup, MatrixNetwork) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
    let mut seen = std::collections::BTreeSet::new();
    let members: Vec<Member> = id_indices
        .iter()
        .filter(|&&idx| seen.insert(idx % spec.id_space()))
        .enumerate()
        .map(|(i, &idx)| Member {
            id: UserId::from_index(spec, idx % spec.id_space()),
            host: HostId(i % (net.host_count() - 1)),
            joined_at: i as u64,
        })
        .collect();
    let server_host = HostId(net.host_count() - 1);
    let group = TmeshGroup::build(
        spec,
        members,
        server_host,
        &net,
        k,
        PrimaryPolicy::SmallestRtt,
    );
    (group, net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn theorem1_server_multicast_delivers_exactly_once(
        id_indices in vec(0u64..64, 1..24),
        k in 1usize..4,
        seed in 0u64..1000,
    ) {
        let spec = IdSpec::new(3, 4).unwrap();
        let (group, net) = build_group(&spec, &id_indices, k, seed);
        let outcome = group.multicast(&net, Source::Server);
        prop_assert!(outcome.exactly_once().is_ok());
    }

    #[test]
    fn theorem1_user_multicast_delivers_exactly_once(
        id_indices in vec(0u64..64, 2..24),
        sender_pick in 0usize..100,
        seed in 0u64..1000,
    ) {
        let spec = IdSpec::new(3, 4).unwrap();
        let (group, net) = build_group(&spec, &id_indices, 2, seed);
        let sender = sender_pick % group.members().len();
        let outcome = group.multicast(&net, Source::User(sender));
        prop_assert!(outcome.exactly_once().is_ok());
    }

    #[test]
    fn lemma1_transmissions_preserve_prefixes(
        id_indices in vec(0u64..256, 2..32),
        sender_pick in 0usize..100,
        seed in 0u64..1000,
    ) {
        let spec = IdSpec::new(4, 4).unwrap();
        let (group, net) = build_group(&spec, &id_indices, 2, seed);
        let n = group.members().len();
        let sender = sender_pick % (n + 1);
        let source = if sender == n { Source::Server } else { Source::User(sender) };
        let outcome = group.multicast(&net, source);
        prop_assert!(outcome.exactly_once().is_ok());

        for t in outcome.transmissions() {
            // forward_level is the row plus one; with `row = forward_level-1`:
            let row = t.forward_level - 1;
            let to_id = &group.members()[t.to].id;
            match t.from {
                Source::Server => {
                    prop_assert_eq!(t.forward_level, 1);
                }
                Source::User(f) => {
                    let from_id = &group.members()[f].id;
                    // Receiver shares the first `row` digits with the
                    // transmitter and differs at digit `row` — i.e. it lies
                    // in the transmitter's (row, j)-ID subtree.
                    prop_assert!(from_id.common_prefix_len(to_id) == row,
                        "common prefix of {} and {} must be exactly {}", from_id, to_id, row);
                    // The transmitter's own forwarding level is ≤ row
                    // (Fig. 2, line 6), unless it is the data sender.
                    if !matches!(outcome.source(), Source::User(s) if s == f) {
                        let lvl = outcome.first_delivery(f).unwrap().forward_level;
                        prop_assert!(lvl <= row);
                    }
                }
            }
        }
    }

    /// Lemma 1 corollary: each receiver's forwarding level equals one plus
    /// the common-prefix length with its parent, so levels strictly increase
    /// along every tree path (each member has a unique forwarding level,
    /// Definition 4).
    #[test]
    fn forwarding_levels_increase_downstream(
        id_indices in vec(0u64..64, 2..20),
        seed in 0u64..1000,
    ) {
        let spec = IdSpec::new(3, 4).unwrap();
        let (group, net) = build_group(&spec, &id_indices, 1, seed);
        let outcome = group.multicast(&net, Source::Server);
        for (i, _) in group.members().iter().enumerate() {
            let d = outcome.first_delivery(i).unwrap();
            if let Source::User(parent) = d.from {
                let pd = outcome.first_delivery(parent).unwrap();
                prop_assert!(d.forward_level > pd.forward_level);
            } else {
                prop_assert_eq!(d.forward_level, 1);
            }
        }
    }
}

/// Deterministic regression: the Fig. 1/Fig. 3 five-user example. The
/// multicast tree of Fig. 3 has the server reaching one user per level-1
/// subtree, which then fan out within their subtrees.
#[test]
fn fig3_example_topology() {
    let spec = IdSpec::new(2, 4).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
    let ids = [[0u16, 0], [0, 1], [2, 0], [2, 1], [2, 2]];
    let members: Vec<Member> = ids
        .iter()
        .enumerate()
        .map(|(i, d)| Member {
            id: UserId::new(&spec, d.to_vec()).unwrap(),
            host: HostId(i),
            joined_at: i as u64,
        })
        .collect();
    let group = TmeshGroup::build(
        &spec,
        members,
        HostId(10),
        &net,
        4,
        PrimaryPolicy::SmallestRtt,
    );
    let outcome = group.multicast(&net, Source::Server);
    assert!(outcome.exactly_once().is_ok());
    // The server sends exactly two copies: one into subtree [0], one into [2].
    assert_eq!(outcome.server_sent(), 2);
    // Exactly one member of each level-1 subtree is at forwarding level 1.
    let levels: Vec<usize> = (0..5)
        .map(|i| outcome.first_delivery(i).unwrap().forward_level)
        .collect();
    let level1 = levels.iter().filter(|&&l| l == 1).count();
    assert_eq!(level1, 2);
    // Total transmissions equal the number of members (a tree).
    assert_eq!(outcome.transmissions().len(), 5);
}

/// The application-layer delay of each member equals the sum of one-way
/// delays along its overlay path (the simulator adds no other latency).
#[test]
fn delays_are_path_sums() {
    let spec = IdSpec::new(2, 4).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
    let ids = [[0u16, 0], [0, 1], [1, 0], [3, 2]];
    let members: Vec<Member> = ids
        .iter()
        .enumerate()
        .map(|(i, d)| Member {
            id: UserId::new(&spec, d.to_vec()).unwrap(),
            host: HostId(i),
            joined_at: 0,
        })
        .collect();
    let group = TmeshGroup::build(
        &spec,
        members,
        HostId(12),
        &net,
        4,
        PrimaryPolicy::SmallestRtt,
    );
    let outcome = group.multicast(&net, Source::Server);
    for i in 0..4 {
        let d = outcome.first_delivery(i).unwrap();
        let parent_host = group.host_of(d.from);
        let hop = net.one_way(parent_host, group.members()[i].host);
        let parent_arrival = match d.from {
            Source::Server => 0,
            Source::User(p) => outcome.first_delivery(p).unwrap().arrival,
        };
        assert_eq!(d.arrival, parent_arrival + hop);
    }
}

/// §2.3 fail-over: with K ≥ 2 and a minority of crashed members, every
/// surviving member still receives exactly one copy — forwarders route
/// around failed primaries using backup neighbors from the same entries.
#[test]
fn failure_recovery_reaches_all_survivors() {
    let spec = IdSpec::new(3, 4).unwrap();
    let indices: Vec<u64> = (0..40).map(|i| i * 13 % 64).collect();
    let (group, net) = build_group(&spec, &indices, 4, 77);
    let n = group.members().len();
    assert!(n >= 20, "need a reasonably sized group");

    // Fail ~20% of members (never the implicit sender — the server).
    let failed: Vec<usize> = (0..n).filter(|i| i % 5 == 2).collect();
    let outcome = group.multicast_with_failures(&net, Source::Server, &failed);
    for i in 0..n {
        let copies = outcome.deliveries(i).len();
        if failed.contains(&i) {
            assert_eq!(copies, 0, "failed member {i} must receive nothing");
        } else {
            assert_eq!(copies, 1, "survivor {i} must receive exactly one copy");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under arbitrary failure sets, no survivor ever receives a duplicate
    /// copy, and failed members receive nothing (safety half of the
    /// fail-over; liveness needs enough live neighbors per entry and is
    /// covered by the deterministic test above).
    #[test]
    fn failures_never_cause_duplicates(
        id_indices in vec(0u64..64, 4..24),
        fail_mask in vec(proptest::bool::weighted(0.3), 24),
        k in 1usize..4,
        seed in 0u64..500,
    ) {
        let spec = IdSpec::new(3, 4).unwrap();
        let (group, net) = build_group(&spec, &id_indices, k, seed);
        let n = group.members().len();
        let failed: Vec<usize> =
            (0..n).filter(|&i| *fail_mask.get(i).unwrap_or(&false)).collect();
        prop_assume!(failed.len() < n); // keep at least one survivor
        let outcome = group.multicast_with_failures(&net, Source::Server, &failed);
        for i in 0..n {
            let copies = outcome.deliveries(i).len();
            if failed.contains(&i) {
                prop_assert_eq!(copies, 0);
            } else {
                prop_assert!(copies <= 1, "duplicate at survivor {}", i);
            }
        }
    }
}
