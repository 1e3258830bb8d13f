//! Qualitative checks of the seven rekey transport protocols (Table 2):
//! the orderings the paper's Fig. 13 demonstrates must hold at test scale.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use group_rekeying::id::{IdSpec, UserId};
use group_rekeying::keytree::{ClusteredKeyTree, ModifiedKeyTree, OriginalKeyTree, RekeyArena};
use group_rekeying::net::gtitm::{generate, GtItmParams};
use group_rekeying::net::{HostId, RoutedNetwork};
use group_rekeying::nice::{NiceHierarchy, NiceParams};
use group_rekeying::proto::{
    cluster_rekey_transport, ipmc_rekey_transport, nice_rekey_transport, tmesh_rekey_transport,
    AssignParams, BandwidthReport, Group, TransportOptions,
};
use group_rekeying::table::{oracle, PrimaryPolicy};
use group_rekeying::tmesh::TmeshGroup;
use rand::{Rng, SeedableRng};

/// The seven rekey transport protocols compared in Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RekeyProtocol {
    /// Original key tree over NICE, no splitting (paper `P0`).
    P0,
    /// Original key tree over NICE with splitting (paper `P0′`).
    P0Split,
    /// Modified key tree over T-mesh, no splitting (paper `P1`).
    P1,
    /// Modified key tree over T-mesh with splitting (paper `P2`).
    P1Split,
    /// Modified tree + cluster heuristic over T-mesh, no splitting
    /// (paper `P3`).
    P1Cluster,
    /// Modified tree + cluster heuristic over T-mesh with splitting
    /// (paper `P4`).
    P1ClusterSplit,
    /// Original key tree over DVMRP-style IP multicast (paper `P_m`).
    IpMulticast,
}

impl RekeyProtocol {
    /// All seven protocols, in Table 2 order.
    const ALL: [RekeyProtocol; 7] = [
        RekeyProtocol::P0,
        RekeyProtocol::P0Split,
        RekeyProtocol::P1,
        RekeyProtocol::P1Split,
        RekeyProtocol::P1Cluster,
        RekeyProtocol::P1ClusterSplit,
        RekeyProtocol::IpMulticast,
    ];
}

struct Matrix {
    reports: HashMap<RekeyProtocol, BandwidthReport>,
    modified_cost: usize,
    original_cost: usize,
    members: usize,
}

/// Builds a small group, churns it once and runs all seven protocols.
fn run_matrix(seed: u64, users: usize, churn: usize) -> Matrix {
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    let spec = IdSpec::new(4, 16).unwrap();
    let topo = generate(&GtItmParams::small(), &mut rng);
    let net = RoutedNetwork::random_attachment(topo.into_graph(), users + churn + 1, &mut rng);
    let server = HostId(users + churn);
    let mut group = Group::new(
        &spec,
        server,
        3,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(4),
    );
    for h in 0..users {
        group.join(HostId(h), &net, h as u64).unwrap();
    }
    let base_ids: Vec<UserId> = group.members().iter().map(|m| m.id).collect();

    let mut modified = ModifiedKeyTree::new(&spec);
    let mut modified_arena = RekeyArena::new();
    modified
        .batch_rekey(&base_ids, &[], &mut rng, &mut modified_arena)
        .unwrap();
    let mut original = OriginalKeyTree::balanced(4, &base_ids);
    let mut cluster_tree = ClusteredKeyTree::new(&spec);
    let mut cluster_arena = RekeyArena::new();
    cluster_tree
        .batch_rekey(&base_ids, &[], &mut rng, &mut cluster_arena)
        .unwrap();

    // Churn interval.
    let mut leaves = Vec::new();
    for _ in 0..churn {
        let pick = rng.gen_range(0..group.len());
        let id = group.members()[pick].id;
        group.leave(&id, &net).unwrap();
        leaves.push(id);
    }
    let mut joins = Vec::new();
    for j in 0..churn {
        joins.push(
            group
                .join(HostId(users + j), &net, 10_000 + j as u64)
                .unwrap()
                .id,
        );
    }
    let out_modified = modified
        .batch_rekey(&joins, &leaves, &mut rng, &mut modified_arena)
        .unwrap();
    let out_original = original.batch_rekey(&joins, &leaves);
    let out_cluster = cluster_tree
        .batch_rekey(&joins, &leaves, &mut rng, &mut cluster_arena)
        .unwrap();

    let members = group.members().to_vec();
    let hosts: Vec<HostId> = members.iter().map(|m| m.host).collect();
    let mesh = group.tmesh();
    let cluster_tables = oracle::build_all_tables(
        &spec,
        &members,
        &net,
        3,
        PrimaryPolicy::EarliestJoinAtBottom,
    );
    let cluster_mesh = TmeshGroup::from_tables(
        &spec,
        members.clone(),
        cluster_tables.into_iter().map(Arc::new).collect(),
        Arc::new(oracle::build_server_table(&spec, &members, server, &net, 3)),
        server,
    );
    let is_leader = |i: usize| cluster_tree.is_leader(&members[i].id);
    let cluster_of = |i: usize| -> Vec<usize> {
        let prefix = members[i].id.prefix(spec.depth() - 1);
        members
            .iter()
            .enumerate()
            .filter(|(_, m)| prefix.is_prefix_of_id(&m.id))
            .map(|(k, _)| k)
            .collect()
    };
    let mut nice = NiceHierarchy::new(NiceParams::default());
    for &h in &hosts {
        nice.join(h, &net);
    }
    let needs: HashMap<HostId, HashSet<usize>> = members
        .iter()
        .map(|m| {
            let path: HashSet<usize> = original.user_path(&m.id).into_iter().map(|n| n.0).collect();
            let needed = out_original
                .encryptions
                .iter()
                .enumerate()
                .filter(|(_, e)| path.contains(&e.encrypting.0))
                .map(|(i, _)| i)
                .collect();
            (m.host, needed)
        })
        .collect();

    let mut reports = HashMap::new();
    reports.insert(
        RekeyProtocol::P0,
        nice_rekey_transport(
            &nice,
            &net,
            server,
            &hosts,
            &needs,
            out_original.cost(),
            false,
        ),
    );
    reports.insert(
        RekeyProtocol::P0Split,
        nice_rekey_transport(
            &nice,
            &net,
            server,
            &hosts,
            &needs,
            out_original.cost(),
            true,
        ),
    );
    reports.insert(
        RekeyProtocol::P1,
        tmesh_rekey_transport(
            &mesh,
            &net,
            out_modified.encryptions(),
            TransportOptions::flood(),
        ),
    );
    reports.insert(
        RekeyProtocol::P1Split,
        tmesh_rekey_transport(
            &mesh,
            &net,
            out_modified.encryptions(),
            TransportOptions::split(),
        ),
    );
    reports.insert(
        RekeyProtocol::P1Cluster,
        cluster_rekey_transport(
            &cluster_mesh,
            &net,
            out_cluster.rekey().encryptions(),
            TransportOptions::flood(),
            &is_leader,
            &cluster_of,
        ),
    );
    reports.insert(
        RekeyProtocol::P1ClusterSplit,
        cluster_rekey_transport(
            &cluster_mesh,
            &net,
            out_cluster.rekey().encryptions(),
            TransportOptions::split(),
            &is_leader,
            &cluster_of,
        ),
    );
    reports.insert(
        RekeyProtocol::IpMulticast,
        ipmc_rekey_transport(&net, server, &hosts, out_original.cost()),
    );
    Matrix {
        reports,
        modified_cost: out_modified.cost(),
        original_cost: out_original.cost(),
        members: members.len(),
    }
}

#[test]
fn all_protocols_produce_reports_for_every_member() {
    let m = run_matrix(1, 48, 12);
    assert!(m.modified_cost > 0 && m.original_cost > 0);
    for p in RekeyProtocol::ALL {
        let r = &m.reports[&p];
        assert_eq!(r.received.len(), m.members, "{p:?}");
        assert_eq!(r.forwarded.len(), m.members, "{p:?}");
        assert!(r.link_load.is_some(), "{p:?} runs on a routed substrate");
    }
}

#[test]
fn splitting_dominates_non_splitting_per_user() {
    let m = run_matrix(3, 48, 12);
    for (with, without) in [
        (RekeyProtocol::P0Split, RekeyProtocol::P0),
        (RekeyProtocol::P1Split, RekeyProtocol::P1),
        (RekeyProtocol::P1ClusterSplit, RekeyProtocol::P1Cluster),
    ] {
        let rs = &m.reports[&with];
        let rn = &m.reports[&without];
        for i in 0..m.members {
            assert!(
                rs.received[i] <= rn.received[i],
                "{with:?} vs {without:?} at member {i}"
            );
            assert!(
                rs.forwarded[i] <= rn.forwarded[i],
                "{with:?} vs {without:?} at member {i}"
            );
        }
        let ls = rs.link_load.as_ref().unwrap().total();
        let ln = rn.link_load.as_ref().unwrap().total();
        assert!(
            ls < ln,
            "{with:?} total link load {ls} must undercut {without:?} {ln}"
        );
    }
}

#[test]
fn tmesh_splitting_beats_nice_splitting_at_the_top() {
    let m = run_matrix(3, 120, 30);
    // The paper: "it is more effective to perform message splitting in P2
    // and P4 (using T-mesh) than in P0′ (using NICE), especially for the
    // most loaded users and links." The two schemes deliver different
    // messages (modified vs original tree), so compare the most-loaded
    // user's forwarding normalised by message size.
    let p2 = &m.reports[&RekeyProtocol::P1Split];
    let p0s = &m.reports[&RekeyProtocol::P0Split];
    let max_fwd_p2 = p2.forwarded.iter().max().copied().unwrap() as f64 / m.modified_cost as f64;
    let max_fwd_p0s = p0s.forwarded.iter().max().copied().unwrap() as f64 / m.original_cost as f64;
    assert!(
        max_fwd_p2 < max_fwd_p0s,
        "most-loaded T-mesh user ({max_fwd_p2:.2} messages) must undercut NICE's ({max_fwd_p0s:.2})"
    );
}

#[test]
fn ip_multicast_has_no_user_forwarding_and_unit_link_stress() {
    let m = run_matrix(4, 40, 10);
    let r = &m.reports[&RekeyProtocol::IpMulticast];
    assert!(r.forwarded.iter().all(|&f| f == 0));
    assert!(r.received.iter().all(|&x| x == m.original_cost as u64));
    assert_eq!(r.link_load.as_ref().unwrap().max(), m.original_cost as u64);
}

#[test]
fn no_split_floods_full_message_to_everyone() {
    let m = run_matrix(5, 40, 10);
    let p1 = &m.reports[&RekeyProtocol::P1];
    assert!(p1.received.iter().all(|&x| x == m.modified_cost as u64));
    let p0 = &m.reports[&RekeyProtocol::P0];
    assert!(p0.received.iter().all(|&x| x == m.original_cost as u64));
}
