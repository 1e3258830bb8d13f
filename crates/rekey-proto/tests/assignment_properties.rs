//! Property tests for the ID assignment protocol (§3.1) and the group's
//! table maintenance, under arbitrary host placements and churn scripts.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rekey_id::{IdSpec, UserId};
use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use rekey_proto::{AssignParams, Group, GroupError};
use rekey_table::PrimaryPolicy;

fn net(seed: u64) -> MatrixNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever hosts join in whatever order: IDs stay unique, the ID tree
    /// mirrors membership, every ID has exactly D digits in range, and the
    /// tables stay K-consistent.
    #[test]
    fn joins_always_yield_unique_valid_ids(
        hosts in vec(0usize..200, 1..28),
        k in 1usize..4,
        seed in 0u64..100,
    ) {
        let network = net(seed);
        let spec = IdSpec::new(4, 16).unwrap();
        let mut group = Group::new(
            &spec,
            HostId(network.host_count() - 1),
            k,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(4),
        );
        let mut used_hosts = std::collections::HashSet::new();
        for (t, &h) in hosts.iter().enumerate() {
            let h = h % (network.host_count() - 1);
            if !used_hosts.insert(h) {
                continue; // one member per host in this test
            }
            let out = group.join(HostId(h), &network, t as u64).unwrap();
            prop_assert_eq!(out.id.depth(), 4);
        }
        let mut ids: Vec<UserId> = group.members().iter().map(|m| m.id).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "IDs must be unique");
        prop_assert_eq!(group.id_tree().user_count(), n);
        group.check().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// Interleaved joins and leaves never break K-consistency, and leaving
    /// a non-member always errors instead of corrupting state.
    #[test]
    fn interleaved_churn_preserves_consistency(
        script in vec(any::<u8>(), 1..40),
        seed in 0u64..100,
    ) {
        let network = net(seed);
        let spec = IdSpec::new(3, 8).unwrap();
        let mut group = Group::new(
            &spec,
            HostId(network.host_count() - 1),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(3),
        );
        let mut next_host = 0usize;
        for (t, &b) in script.iter().enumerate() {
            if b % 3 != 0 || group.is_empty() {
                if next_host < network.host_count() - 1 {
                    group.join(HostId(next_host), &network, t as u64).unwrap();
                    next_host += 1;
                }
            } else {
                let pick = usize::from(b) % group.len();
                let id = group.members()[pick].id;
                group.leave(&id, &network).unwrap();
                // A second leave of the same ID must fail cleanly.
                prop_assert_eq!(
                    group.leave(&id, &network),
                    Err(GroupError::NotMember(id))
                );
            }
            group.check().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
    }

    /// Centralized (GNP) assignment also yields unique IDs and consistent
    /// tables, for any landmark count.
    #[test]
    fn centralized_assignment_matches_invariants(
        joins in 2usize..20,
        landmarks in 1usize..24,
        seed in 0u64..100,
    ) {
        let network = net(seed);
        let spec = IdSpec::new(3, 8).unwrap();
        let coords = rekey_net::CoordinateSystem::spread(network.host_count() - 1, landmarks);
        let mut group = Group::new(
            &spec,
            HostId(network.host_count() - 1),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(3),
        );
        for h in 0..joins {
            let out = group.join_centralized(HostId(h), &network, &coords, h as u64).unwrap();
            prop_assert_eq!(out.stats.queries, 0, "centralized joins query nobody");
        }
        let mut ids: Vec<UserId> = group.members().iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), joins);
        group.check().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}
