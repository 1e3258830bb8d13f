#![cfg(test)]
//! Property tests pinning the indexed transport core to the paper's naive
//! formulation.
//!
//! The rewritten transports resolve each hop's payload by contiguous-range
//! extraction from a sorted [`SplitIndex`] (Theorem 2: the related set of a
//! prefix is one descendant block plus its ancestor chain). The original
//! implementations — an `is_related` scan per hop, a subset vector per
//! edge — are preserved verbatim in [`super::reference`] as
//! the oracle. These properties assert exact agreement between the two
//! across random ID spaces, memberships, and batch rekeys.

use std::collections::BTreeSet;

use super::reference;
use crate::{
    cluster_rekey_transport, tmesh_rekey_transport, AssignParams, Group, SplitIndex,
    TransportOptions,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rekey_id::{IdPrefix, IdSpec, UserId};
use rekey_keytree::{ModifiedKeyTree, RekeyArena};
use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use rekey_table::PrimaryPolicy;

fn net(seed: u64) -> MatrixNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng)
}

/// Builds a group plus key tree from a churn script: every entry joins a
/// fresh host, and entries divisible by three also evict a member chosen
/// by the entry value, so the final membership and the rekeyed batch both
/// vary with the script.
fn churned_group(
    spec: &IdSpec,
    script: &[u8],
    seed: u64,
) -> (
    MatrixNetwork,
    Group,
    ModifiedKeyTree,
    Vec<rekey_crypto::Encryption>,
) {
    let network = net(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut group = Group::new(
        spec,
        HostId(network.host_count() - 1),
        2,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(spec.depth()),
    );
    let mut tree = ModifiedKeyTree::new(spec);
    let mut next_host = 0usize;
    let mut joins: Vec<UserId> = Vec::new();
    let mut leaves: Vec<UserId> = Vec::new();
    for (t, &b) in script.iter().enumerate() {
        if next_host < network.host_count() - 1 {
            if let Ok(out) = group.join(HostId(next_host), &network, t as u64) {
                joins.push(out.id);
                next_host += 1;
            }
        }
        if b % 3 == 0 && group.len() > 1 {
            let victim = group.members()[usize::from(b) % group.len()].id;
            group.leave(&victim, &network).unwrap();
            if let Some(pos) = joins.iter().position(|j| j == &victim) {
                // Joined and left within the batch: cancels.
                joins.remove(pos);
            } else {
                leaves.push(victim);
            }
        }
    }
    let mut arena = RekeyArena::new();
    let mut out = tree
        .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
        .unwrap();
    let encryptions = out.take_encryptions();
    (network, group, tree, encryptions)
}

fn received_sets(report: &crate::BandwidthReport) -> Vec<BTreeSet<usize>> {
    report
        .received_sets
        .as_ref()
        .expect("detail requested")
        .iter()
        .map(|s| s.iter().copied().collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The indexed T-mesh transport delivers exactly the same encryption
    /// set to every member as the paper's per-hop scan, and accounts the
    /// same bandwidth — for both splitting and flooding, across random ID
    /// spaces, memberships, and rekey batches.
    #[test]
    fn indexed_tmesh_transport_matches_reference(
        depth in 2usize..5,
        base in 2u16..7,
        script in vec(any::<u8>(), 1..32),
        seed in 0u64..50,
    ) {
        let spec = IdSpec::new(depth, base).unwrap();
        let (network, group, _tree, encryptions) = churned_group(&spec, &script, seed);
        prop_assume!(!group.is_empty());
        let mesh = group.tmesh();
        for options in [TransportOptions::split(), TransportOptions::flood()] {
            let detailed = options.with_detail();
            let indexed = tmesh_rekey_transport(&mesh, &network, &encryptions, detailed);
            let naive = reference::tmesh_rekey_transport(&mesh, &network, &encryptions, detailed);
            prop_assert_eq!(&indexed.received, &naive.received, "split={}", options.split);
            prop_assert_eq!(&indexed.forwarded, &naive.forwarded, "split={}", options.split);
            // Exact per-member SET equality: the indexed extraction emits
            // indices in sorted-by-ID order, not message order, so compare
            // as sets.
            prop_assert_eq!(
                received_sets(&indexed),
                received_sets(&naive),
                "split={}",
                options.split
            );
        }
    }

    /// Same agreement for the cluster transport (Appendix B heuristic):
    /// gated multicast copies plus the leaders' pairwise unicasts.
    #[test]
    fn indexed_cluster_transport_matches_reference(
        depth in 2usize..4,
        base in 2u16..6,
        script in vec(any::<u8>(), 1..24),
        seed in 0u64..50,
    ) {
        let spec = IdSpec::new(depth, base).unwrap();
        let (network, group, _tree, encryptions) = churned_group(&spec, &script, seed);
        prop_assume!(!group.is_empty());
        let mesh = group.tmesh();
        let member_count = mesh.members().len();
        let leader_prefixes: Vec<IdPrefix> =
            mesh.members().iter().map(|m| m.id.prefix(spec.depth() - 1)).collect();
        let is_leader = |i: usize| {
            leader_prefixes
                .iter()
                .position(|p| *p == leader_prefixes[i])
                .expect("own prefix present")
                == i
        };
        let cluster_of = |i: usize| -> Vec<usize> {
            (0..member_count).filter(|&j| leader_prefixes[j] == leader_prefixes[i]).collect()
        };
        for options in [TransportOptions::split(), TransportOptions::flood()] {
            let indexed = cluster_rekey_transport(
                &mesh, &network, &encryptions, options, &is_leader, &cluster_of,
            );
            let naive = reference::cluster_rekey_transport(
                &mesh, &network, &encryptions, options, &is_leader, &cluster_of,
            );
            prop_assert_eq!(&indexed.received, &naive.received, "split={}", options.split);
            prop_assert_eq!(&indexed.forwarded, &naive.forwarded, "split={}", options.split);
        }
    }

    /// The split index answers arbitrary prefix queries with exactly the
    /// `is_related` filter's set, on random multisets of encryption IDs.
    #[test]
    fn split_index_matches_is_related_scan(
        depth in 1usize..5,
        base in 2u16..8,
        picks in vec(any::<u32>(), 0..48),
        query in any::<u32>(),
    ) {
        let spec = IdSpec::new(depth, base).unwrap();
        // Decode each u32 into a prefix of arbitrary length <= depth.
        let decode = |mut v: u32| -> IdPrefix {
            let len = (v as usize % depth) + 1;
            let mut digits = Vec::with_capacity(len);
            for _ in 0..len {
                digits.push((v % u32::from(base)) as u16);
                v /= u32::from(base);
            }
            IdPrefix::new(&spec, digits).unwrap()
        };
        let ids: Vec<IdPrefix> = picks.iter().map(|&v| decode(v)).collect();
        let index = SplitIndex::from_ids(&ids);
        let w = decode(query);
        let expected: BTreeSet<usize> =
            (0..ids.len()).filter(|&e| ids[e].is_related(&w)).collect();
        let got: BTreeSet<usize> = index.indices(w.digits()).collect();
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(index.count(w.digits()), expected.len());
    }
}
