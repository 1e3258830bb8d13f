//! Global-knowledge ("oracle") construction of consistent neighbor tables.
//!
//! The paper relies on the Silk join protocol [15, 12] to build consistent
//! tables in a distributed fashion; its simulations simplify the protocol
//! "to improve simulation efficiency" (§4). We do the same: the oracle
//! builder constructs, from global membership and the RTT model, exactly the
//! tables a converged Silk run would produce — every `(i, j)`-entry holds
//! the `min(K, m)` members of the `(i, j)`-ID subtree closest to the owner.
//! K-consistency of the result is guaranteed by construction and checked by
//! [`crate::check_consistency`] in tests.
//!
//! The protocol-level runs meet this builder from the other side: in
//! `rekey-proto`'s runtime, joiners run the §3.1 probe as messages, the key
//! server's `Group` maintains every table and pushes each change, and the
//! tables members end up holding are checked against [`build_all_tables`]
//! record for record.

use rekey_id::IdSpec;
use rekey_net::{HostId, Network};

use crate::entry::{Member, NeighborRecord};
use crate::server::ServerTable;
use crate::table::{NeighborTable, PrimaryPolicy};

/// Builds the neighbor table of one member from global membership.
///
/// `members` must not contain duplicate IDs; the owner may or may not be in
/// the list (it is skipped).
pub fn build_table(
    spec: &IdSpec,
    owner: &Member,
    members: &[Member],
    net: &impl Network,
    k: usize,
    policy: PrimaryPolicy,
) -> NeighborTable {
    let mut table = NeighborTable::new(spec, owner.id, k, policy);
    // `TableEntry::insert` keeps the K smallest-RTT records per entry, so a
    // single pass suffices.
    for m in members {
        if m.id == owner.id {
            continue;
        }
        let rtt = net.rtt(owner.host, m.host);
        table.insert(NeighborRecord { member: *m, rtt });
    }
    table
}

/// Builds every member's neighbor table from global membership.
pub fn build_all_tables(
    spec: &IdSpec,
    members: &[Member],
    net: &impl Network,
    k: usize,
    policy: PrimaryPolicy,
) -> Vec<NeighborTable> {
    members
        .iter()
        .map(|owner| build_table(spec, owner, members, net, k, policy))
        .collect()
}

/// Builds the key server's single-row table: per `(0, j)`-entry, the `K`
/// members with digit `j` closest to the server (§2.2).
pub fn build_server_table(
    spec: &IdSpec,
    members: &[Member],
    server_host: HostId,
    net: &impl Network,
    k: usize,
) -> ServerTable {
    let mut table = ServerTable::new(spec, k);
    for m in members {
        let rtt = net.rtt(server_host, m.host);
        table.insert(NeighborRecord { member: *m, rtt });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_consistency;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rekey_id::UserId;
    use rekey_net::{MatrixNetwork, PlanetLabParams};

    fn random_members(spec: &IdSpec, n: usize, hosts: usize, rng: &mut impl Rng) -> Vec<Member> {
        let mut members = Vec::new();
        let mut used = std::collections::HashSet::new();
        while members.len() < n {
            let id = UserId::from_index(spec, rng.gen_range(0..spec.id_space()));
            if used.insert(id) {
                members.push(Member {
                    id,
                    host: HostId(members.len() % hosts),
                    joined_at: members.len() as u64,
                });
            }
        }
        members
    }

    #[test]
    fn oracle_tables_are_k_consistent() {
        let spec = IdSpec::new(3, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        for k in [1, 2, 4] {
            let members = random_members(&spec, 12, net.host_count(), &mut rng);
            let tables = build_all_tables(&spec, &members, &net, k, PrimaryPolicy::SmallestRtt);
            check_consistency(&spec, &members, &tables, k).expect("oracle tables consistent");
        }
    }

    #[test]
    fn entries_hold_closest_neighbors() {
        let spec = IdSpec::new(2, 4).unwrap();
        // Hand-built RTTs: host 0 is owner; hosts 1..=3 carry IDs in the
        // same (0,1)-subtree with RTTs 30, 10, 20.
        let rtt = vec![
            vec![0, 30, 10, 20],
            vec![30, 0, 5, 5],
            vec![10, 5, 0, 5],
            vec![20, 5, 5, 0],
        ];
        let net = MatrixNetwork::from_matrix(rtt, vec![0; 4]);
        let ids = [[0u16, 0], [1, 0], [1, 1], [1, 2]];
        let members: Vec<Member> = ids
            .iter()
            .enumerate()
            .map(|(i, d)| Member {
                id: UserId::new(&spec, d.to_vec()).unwrap(),
                host: HostId(i),
                joined_at: 0,
            })
            .collect();
        let t = build_table(
            &spec,
            &members[0],
            &members,
            &net,
            2,
            PrimaryPolicy::SmallestRtt,
        );
        let entry = t.entry(0, 1);
        assert_eq!(entry.len(), 2);
        assert_eq!(t.primary(0, 1).unwrap().member.host, HostId(2)); // rtt 10
        assert!(!entry.contains(&members[1].id)); // rtt 30 evicted
    }

    #[test]
    fn server_table_covers_all_populated_digits() {
        let spec = IdSpec::new(2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let members = random_members(&spec, 10, net.host_count() - 1, &mut rng);
        let server_host = HostId(net.host_count() - 1);
        let st = build_server_table(&spec, &members, server_host, &net, 4);
        let mut digits: Vec<u16> = members.iter().map(|m| m.id.digit(0)).collect();
        digits.sort_unstable();
        digits.dedup();
        let present: Vec<u16> = st.primaries().map(|(j, _)| j).collect();
        assert_eq!(present, digits);
    }
}
