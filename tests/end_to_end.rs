//! Cross-crate end-to-end tests: full system pipeline — topology, ID
//! assignment, neighbor tables, key trees, T-mesh transport with splitting,
//! and real decryption — exercised together over many churn intervals on a
//! router-level (GT-ITM-style) substrate.

use std::collections::HashMap;

use group_rekeying::id::{IdSpec, UserId};
use group_rekeying::keytree::{ClusteredKeyTree, KeyRing, ModifiedKeyTree, RekeyArena};
use group_rekeying::net::gtitm::{generate, GtItmParams};
use group_rekeying::net::{HostId, RoutedNetwork};
use group_rekeying::proto::{
    cluster_rekey_transport, tmesh_rekey_transport, AssignParams, Group, TransportOptions,
};
use group_rekeying::table::PrimaryPolicy;
use group_rekeying::tmesh::Source;
use rand::{Rng, SeedableRng};

type Rng12 = rand_chacha::ChaCha12Rng;

struct System {
    net: RoutedNetwork,
    group: Group,
    tree: ModifiedKeyTree,
    rings: HashMap<UserId, KeyRing>,
    rng: Rng12,
    next_host: usize,
    clock: u64,
}

fn boot(users: usize, capacity: usize, seed: u64, policy: PrimaryPolicy) -> System {
    let mut rng = Rng12::seed_from_u64(seed);
    let spec = IdSpec::new(4, 16).unwrap();
    let topo = generate(&GtItmParams::small(), &mut rng);
    let net = RoutedNetwork::random_attachment(topo.into_graph(), capacity + 1, &mut rng);
    let server = HostId(capacity);
    let mut group = Group::new(&spec, server, 3, policy, AssignParams::for_depth(4));
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut sys = System {
        net,
        group: group.clone(),
        tree: tree.clone(),
        rings: HashMap::new(),
        rng,
        next_host: 0,
        clock: 0,
    };
    let mut arena = RekeyArena::new();
    for _ in 0..users {
        let id = group
            .join(HostId(sys.next_host), &sys.net, sys.clock)
            .unwrap()
            .id;
        sys.next_host += 1;
        sys.clock += 1;
        tree.batch_rekey(&[id], &[], &mut sys.rng, &mut arena)
            .unwrap();
    }
    for m in group.members() {
        sys.rings
            .insert(m.id, KeyRing::new(m.id, tree.user_path_keys(&m.id)));
    }
    sys.group = group;
    sys.tree = tree;
    sys
}

fn churn_interval(sys: &mut System, joins_n: usize, leaves_n: usize) -> (Vec<UserId>, Vec<UserId>) {
    let mut leaves = Vec::new();
    for _ in 0..leaves_n.min(sys.group.len().saturating_sub(1)) {
        let pick = sys.rng.gen_range(0..sys.group.len());
        let id = sys.group.members()[pick].id;
        sys.group.leave(&id, &sys.net).unwrap();
        sys.rings.remove(&id);
        leaves.push(id);
    }
    let mut joins = Vec::new();
    for _ in 0..joins_n {
        sys.clock += 1;
        let id = sys
            .group
            .join(HostId(sys.next_host), &sys.net, sys.clock)
            .unwrap()
            .id;
        sys.next_host += 1;
        joins.push(id);
    }
    (joins, leaves)
}

/// The full pipeline stays correct over ten churn intervals: K-consistent
/// tables, exactly-once multicast, split delivery, and every member able to
/// decrypt exactly up to the server's key state.
#[test]
fn ten_interval_full_pipeline() {
    let mut sys = boot(40, 120, 0xE2E, PrimaryPolicy::SmallestRtt);
    let mut arena = RekeyArena::new();
    for interval in 0..10 {
        let (joins, leaves) = churn_interval(&mut sys, 4, 4);
        let rekey = sys
            .tree
            .batch_rekey(&joins, &leaves, &mut sys.rng, &mut arena)
            .unwrap();
        for id in &joins {
            sys.rings
                .insert(*id, KeyRing::new(*id, sys.tree.user_path_keys(id)));
        }
        sys.group.check().expect("K-consistency after churn");

        let mesh = sys.group.tmesh();
        mesh.multicast(&sys.net, Source::Server)
            .exactly_once()
            .expect("Theorem 1");
        let report = tmesh_rekey_transport(
            &mesh,
            &sys.net,
            rekey.encryptions(),
            TransportOptions::split().with_detail(),
        );
        let received = report.received_sets.as_ref().unwrap();
        for (i, member) in mesh.members().iter().enumerate() {
            let ring = sys.rings.get_mut(&member.id).unwrap();
            ring.absorb(received[i].iter().map(|&e| &rekey.encryptions()[e]));
            assert!(
                ring.matches_path(sys.group.spec(), sys.tree.user_path_keys(&member.id)),
                "interval {interval}: {} lacks the current key set",
                member.id
            );
        }
    }
}

/// Data multicast works from every member over the same tables, and link
/// stress is bounded by the member count (each overlay hop crosses a
/// physical link at most once per transmission).
#[test]
fn data_transport_from_every_member() {
    let sys = boot(24, 30, 0xDA7A, PrimaryPolicy::SmallestRtt);
    let mesh = sys.group.tmesh();
    for sender in 0..sys.group.len() {
        let outcome = mesh.multicast(&sys.net, Source::User(sender));
        outcome
            .exactly_once()
            .unwrap_or_else(|m| panic!("sender {sender}: member {m} wrong"));
        let load = mesh
            .link_load(&sys.net, &outcome)
            .expect("routed substrate");
        assert!(load.max() <= sys.group.len() as u64);
    }
}

/// Cluster-heuristic transport delivers the new group key to every member
/// even though only leaders see the multicast rekey message.
#[test]
fn cluster_transport_reaches_every_member() {
    let mut sys = boot(36, 100, 0xC105, PrimaryPolicy::EarliestJoinAtBottom);
    // Mirror membership into a clustered tree, respecting join order.
    let spec = *sys.group.spec();
    let mut cluster = ClusteredKeyTree::new(&spec);
    let mut ordered: Vec<(u64, UserId)> = sys
        .group
        .members()
        .iter()
        .map(|m| (m.joined_at, m.id))
        .collect();
    ordered.sort();
    let ordered: Vec<UserId> = ordered.into_iter().map(|(_, u)| u).collect();
    let mut arena = RekeyArena::new();
    cluster
        .batch_rekey(&ordered, &[], &mut sys.rng, &mut arena)
        .unwrap();

    let (joins, leaves) = churn_interval(&mut sys, 5, 5);
    let out = cluster
        .batch_rekey(&joins, &leaves, &mut sys.rng, &mut arena)
        .unwrap();
    let members = sys.group.members().to_vec();
    let mesh = sys.group.tmesh();
    let is_leader = |i: usize| cluster.is_leader(&members[i].id);
    let cluster_of = |i: usize| -> Vec<usize> {
        let prefix = members[i].id.prefix(spec.depth() - 1);
        members
            .iter()
            .enumerate()
            .filter(|(_, m)| prefix.is_prefix_of_id(&m.id))
            .map(|(k, _)| k)
            .collect()
    };
    for split in [false, true] {
        let report = cluster_rekey_transport(
            &mesh,
            &sys.net,
            out.rekey().encryptions(),
            TransportOptions {
                split,
                detail: false,
            },
            &is_leader,
            &cluster_of,
        );
        for (i, member) in members.iter().enumerate() {
            assert!(
                report.received[i] > 0 || out.rekey().cost() == 0,
                "split={split}: member {} received nothing",
                member.id
            );
        }
        // Non-leaders receive only the pairwise group key (1 encryption)
        // unless they relayed for their leader.
        let non_leader_max = members
            .iter()
            .enumerate()
            .filter(|(i, _)| !is_leader(*i) && report.forwarded[*i] == 0)
            .map(|(i, _)| report.received[i])
            .max()
            .unwrap_or(0);
        assert_eq!(non_leader_max, 1, "split={split}");
    }
}

/// The random-ID ablation (§2.6): with random instead of topology-aware
/// IDs, splitting still works but the multicast paths get slower and the
/// shared encryptions travel farther — total received encryptions grow.
#[test]
fn random_ids_degrade_split_efficiency() {
    let mut rng = Rng12::seed_from_u64(0xAB1A);
    let spec = IdSpec::new(4, 16).unwrap();
    let topo = generate(&GtItmParams::small(), &mut rng);
    let net = RoutedNetwork::random_attachment(topo.into_graph(), 49, &mut rng);
    let server = HostId(48);

    // Topology-aware group…
    let mut aware = Group::new(
        &spec,
        server,
        3,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(4),
    );
    for h in 0..40 {
        aware.join(HostId(h), &net, h as u64).unwrap();
    }
    // …and a random-ID group over the same hosts.
    let mut random = Group::new(
        &spec,
        server,
        3,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(4),
    );
    let mut used = std::collections::HashSet::new();
    for h in 0..40 {
        let id = loop {
            let candidate = UserId::from_index(&spec, rng.gen_range(0..spec.id_space()));
            if used.insert(candidate) {
                break candidate;
            }
        };
        random.join_with_id(id, HostId(h), &net, h as u64);
    }

    // §2.6's argument is about *network-level* duplication: with random
    // IDs, users sharing an encryption sit in random regions, so each
    // delivered encryption crosses more physical links. Measure physical
    // hops per delivered encryption.
    let mut hops_per_delivery = [0f64; 2];
    for (g, slot) in [(&aware, 0), (&random, 1)] {
        let ids: Vec<UserId> = g.members().iter().map(|m| m.id).collect();
        let mut tree = ModifiedKeyTree::new(&spec);
        let mut arena = RekeyArena::new();
        tree.batch_rekey(&ids, &[], &mut rng, &mut arena).unwrap();
        let out = tree
            .batch_rekey(&[], &ids[..8], &mut rng, &mut arena)
            .unwrap();
        let mesh = g.tmesh();
        let report =
            tmesh_rekey_transport(&mesh, &net, out.encryptions(), TransportOptions::split());
        let received: u64 = report.received.iter().sum();
        let link_total = report.link_load.as_ref().expect("routed substrate").total();
        hops_per_delivery[slot] = link_total as f64 / received.max(1) as f64;
    }
    assert!(
        hops_per_delivery[0] < hops_per_delivery[1],
        "topology-aware IDs must move encryptions over fewer physical hops: {:.2} vs {:.2}",
        hops_per_delivery[0],
        hops_per_delivery[1]
    );
}
