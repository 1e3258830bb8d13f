//! Group membership lifecycle: joins with topology-aware ID assignment,
//! leaves, and incremental neighbor-table maintenance.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use rekey_id::{IdSpec, IdTree, UserId, MAX_DEPTH};
use rekey_net::{HostId, Micros, Network};
use rekey_table::{
    check_consistency, ConsistencyViolation, Member, NeighborRecord, NeighborTable, PrimaryPolicy,
    ServerTable,
};
use rekey_tmesh::TmeshGroup;

use crate::assign::{
    centralized_digits, probe_digits, server_complete, AssignParams, AssignStats, GroupView,
};

/// Errors produced by group lifecycle operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GroupError {
    /// The ID space is exhausted — no unique ID can be assigned.
    IdSpaceFull,
    /// A leave named a user that is not in the group.
    NotMember(UserId),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::IdSpaceFull => write!(f, "user ID space is exhausted"),
            GroupError::NotMember(u) => write!(f, "user {u} is not a group member"),
        }
    }
}

impl std::error::Error for GroupError {}

/// The result of one join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOutcome {
    /// The assigned user ID.
    pub id: UserId,
    /// Message-cost statistics of the assignment protocol.
    pub stats: AssignStats,
}

/// A secure group: the key server plus its members, with every member's
/// neighbor table maintained under churn (the simplified-Silk model the
/// paper's simulations use, §4).
///
/// `Group` owns membership, ID assignment and tables; key management lives
/// in `rekey_keytree` and is driven by the caller (see the protocol
/// harnesses and examples).
#[derive(Debug, Clone)]
pub struct Group {
    spec: IdSpec,
    k: usize,
    policy: PrimaryPolicy,
    assign: AssignParams,
    server_host: HostId,
    members: Vec<Member>,
    tables: Vec<NeighborTable>,
    server_table: ServerTable,
    id_tree: IdTree,
    index: HashMap<UserId, usize>,
    /// Joins and leaves applied so far: the version clock of the tables.
    mutations: u64,
    /// Per member, in join order: the mutation count at which its table
    /// last changed.
    versions: Vec<u64>,
    /// Join-order indices of the existing members whose tables the latest
    /// join or leave changed.
    changed: Vec<usize>,
}

impl Group {
    /// Creates an empty group.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        spec: &IdSpec,
        server_host: HostId,
        k: usize,
        policy: PrimaryPolicy,
        assign: AssignParams,
    ) -> Group {
        Group {
            spec: *spec,
            k,
            policy,
            assign,
            server_host,
            members: Vec::new(),
            tables: Vec::new(),
            server_table: ServerTable::new(spec, k),
            id_tree: IdTree::new(spec),
            index: HashMap::new(),
            mutations: 0,
            versions: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// The ID-space specification.
    pub fn spec(&self) -> &IdSpec {
        &self.spec
    }

    /// Current members, in join order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The key server's host.
    pub fn server_host(&self) -> HostId {
        self.server_host
    }

    /// The member with the given ID, if present.
    pub fn member(&self, id: &UserId) -> Option<&Member> {
        self.index.get(id).map(|&i| &self.members[i])
    }

    /// The ID tree of the current membership.
    pub fn id_tree(&self) -> &IdTree {
        &self.id_tree
    }

    /// The neighbor table of the member at index `i`.
    pub fn table(&self, i: usize) -> &NeighborTable {
        &self.tables[i]
    }

    /// The join-order index of the member with the given ID.
    pub fn index_of(&self, id: &UserId) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// The key server's neighbor table.
    pub fn server_table(&self) -> &ServerTable {
        &self.server_table
    }

    /// Per-entry capacity `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Joins and leaves applied so far (a dealt group starts at 0).
    pub(crate) fn mutations(&self) -> u64 {
        self.mutations
    }

    /// The mutation count at which the table of the member at index `i`
    /// last changed: the version a member holding that table is at.
    pub(crate) fn table_version(&self, i: usize) -> u64 {
        self.versions[i]
    }

    /// Indices of the members whose existing tables the latest join or
    /// leave changed (a joiner's own new table is not among them).
    pub(crate) fn changed_tables(&self) -> &[usize] {
        &self.changed
    }

    /// Joins `host`: runs the ID assignment protocol of §3.1 against the
    /// current membership, then installs the new member into every table.
    ///
    /// The first join receives the all-zero ID, as in §3.1: "If u is the
    /// first join in the group, the key server assigns its user ID as D
    /// digits of 0".
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when no unique ID exists.
    pub fn join(
        &mut self,
        host: HostId,
        net: &impl Network,
        now: Micros,
    ) -> Result<JoinOutcome, GroupError> {
        let (id, stats) = if self.members.is_empty() {
            (UserId::from_index(&self.spec, 0), AssignStats::default())
        } else {
            // The key server hands the joiner the record of an existing
            // user; we use the member with the smallest RTT the server
            // knows of deterministically — any member works, the protocol
            // corrects from there. We pick by host index for determinism.
            let seed = (host.0) % self.members.len();
            let index = &self.index;
            let index_of = move |id: &UserId| index[id];
            let view = GroupView {
                spec: &self.spec,
                members: &self.members,
                tables: &self.tables,
                index_of: &index_of,
            };
            let (digits, stats) = probe_digits(&view, &self.assign, host, seed, net);
            let id = server_complete(&self.spec, &self.id_tree, &digits)
                .ok_or(GroupError::IdSpaceFull)?;
            (id, stats)
        };
        self.insert_member(
            Member {
                id,
                host,
                joined_at: now,
            },
            net,
        );
        Ok(JoinOutcome { id, stats })
    }

    /// Joins `host` using **centralized** ID assignment over network
    /// coordinates (§5's GNP extension): the joiner probes only the
    /// landmarks of `coords`; the server — which stores every member's
    /// coordinate — determines the digits by computing over RTT estimates.
    ///
    /// `AssignStats::probes` counts the landmark probes;
    /// `AssignStats::queries` is 0 (no user is queried).
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when no unique ID exists.
    pub fn join_centralized(
        &mut self,
        host: HostId,
        net: &impl Network,
        coords: &rekey_net::CoordinateSystem,
        now: Micros,
    ) -> Result<JoinOutcome, GroupError> {
        let (id, stats) = if self.members.is_empty() {
            (UserId::from_index(&self.spec, 0), AssignStats::default())
        } else {
            let joiner_coord = coords.measure(host, net);
            let estimate = |h: HostId| {
                // The server holds each member's coordinate (measured when
                // the member joined); estimation is a local computation.
                joiner_coord.estimate_rtt(&coords.measure(h, net))
            };
            let (digits, _) =
                centralized_digits(&self.spec, &self.assign, &self.members, &estimate);
            let id = server_complete(&self.spec, &self.id_tree, &digits)
                .ok_or(GroupError::IdSpaceFull)?;
            let stats = AssignStats {
                queries: 0,
                probes: coords.probe_cost() as u64,
                digits_probed: digits.len(),
            };
            (id, stats)
        };
        self.insert_member(
            Member {
                id,
                host,
                joined_at: now,
            },
            net,
        );
        Ok(JoinOutcome { id, stats })
    }

    /// Adds a member with a caller-chosen ID (for tests and ablations, e.g.
    /// the random-ID ablation of §2.6).
    ///
    /// # Panics
    ///
    /// Panics if the ID is already taken.
    pub fn join_with_id(&mut self, id: UserId, host: HostId, net: &impl Network, now: Micros) {
        assert!(!self.index.contains_key(&id), "ID {id} already taken");
        self.insert_member(
            Member {
                id,
                host,
                joined_at: now,
            },
            net,
        );
    }

    /// Constructs a fully populated group in one shot — the million-member
    /// bootstrap path.
    ///
    /// [`Group::join`] costs O(N) table inserts per join (every existing
    /// member learns the newcomer), so building a large group by repeated
    /// joins is O(N²). `bootstrap` instead deals IDs directly and builds
    /// each table from a per-prefix directory, which is
    /// O(N · D · B) overall — a 1M-member group in seconds instead of days.
    ///
    /// Member `i` receives the ID whose digits are the base-B
    /// representation of `i` **least-significant digit first** (digit 0 is
    /// `i mod B`), so consecutive indices are dealt round-robin across the
    /// level-1 subtrees and the ID tree stays balanced at every level.
    /// This trades the paper's topology-aware assignment (§3.1) for
    /// construction speed; churn after bootstrap goes through the regular
    /// incremental paths.
    ///
    /// Tables are K-consistent by construction (each `(i, j)` entry takes
    /// the first `min(K, m)` members of the `(i, j)` subtree in deal
    /// order); [`Group::check`] verifies this in tests.
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when `hosts.len()` exceeds the ID space.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn bootstrap(
        spec: &IdSpec,
        server_host: HostId,
        k: usize,
        policy: PrimaryPolicy,
        assign: AssignParams,
        hosts: &[HostId],
        net: &impl Network,
    ) -> Result<Group, GroupError> {
        assert!(k > 0, "neighbor-table redundancy K must be at least 1");
        let n = hosts.len() as u64;
        if n > spec.id_space() {
            return Err(GroupError::IdSpaceFull);
        }
        let depth = spec.depth();
        let base = u64::from(spec.base());
        let members: Vec<Member> = hosts
            .iter()
            .enumerate()
            .map(|(i, &host)| {
                let mut digits = [0u16; MAX_DEPTH];
                let mut rest = i as u64;
                for d in &mut digits[..depth] {
                    *d = (rest % base) as u16;
                    rest /= base;
                }
                Member {
                    id: UserId::from_digits(spec, &digits[..depth]).expect("digits below base"),
                    host,
                    joined_at: 0,
                }
            })
            .collect();

        // Dealing is arithmetic, so the directory of "members under a
        // prefix" is too: a prefix of `l` digits read as a base-B number
        // (digit 0 least significant) is the index of the first member
        // dealt under it, and the others follow every `B^l` indices.
        let first_k_under = |first: u64, stride: u64| {
            (first..n)
                .step_by(stride as usize)
                .take(k)
                .map(|c| &members[c as usize])
        };

        let mut tables = Vec::with_capacity(members.len());
        for m in &members {
            let mut table = NeighborTable::new(spec, m.id, k, policy);
            // `own`: first member under `m`'s level-`row` prefix; `stride`
            // is `B^row`, saturated once no second member can follow.
            let (mut own, mut stride) = (0u64, 1u64);
            for row in 0..depth {
                let below = stride.saturating_mul(base);
                for j in (0..spec.base()).filter(|&j| j != m.id.digit(row)) {
                    let first = own.saturating_add(u64::from(j).saturating_mul(stride));
                    if first >= n {
                        break; // higher columns start later still
                    }
                    // Everyone under `(row, j)` differs from the owner at
                    // digit `row`, so the owner is never its own neighbor.
                    for cand in first_k_under(first, below) {
                        table.insert(NeighborRecord {
                            member: *cand,
                            rtt: net.rtt(m.host, cand.host),
                        });
                    }
                }
                own += u64::from(m.id.digit(row)) * stride;
                stride = below;
            }
            tables.push(table);
        }

        let mut server_table = ServerTable::new(spec, k);
        for j in 0..base.min(n) {
            for cand in first_k_under(j, base) {
                server_table.insert(NeighborRecord {
                    member: *cand,
                    rtt: net.rtt(server_host, cand.host),
                });
            }
        }

        let id_tree = IdTree::from_users(spec, members.iter().map(|m| m.id));
        let index = members.iter().enumerate().map(|(i, m)| (m.id, i)).collect();
        Ok(Group {
            spec: *spec,
            k,
            policy,
            assign,
            server_host,
            versions: vec![0; members.len()],
            members,
            tables,
            server_table,
            id_tree,
            index,
            mutations: 0,
            changed: Vec::new(),
        })
    }

    fn insert_member(&mut self, member: Member, net: &impl Network) {
        // Build the newcomer's table and insert it into everyone else's.
        let table = rekey_table::oracle::build_table(
            &self.spec,
            &member,
            &self.members,
            net,
            self.k,
            self.policy,
        );
        self.mutations += 1;
        self.changed.clear();
        for (i, existing) in self.members.iter().enumerate() {
            let rtt = net.rtt(existing.host, member.host);
            if self.tables[i].insert(NeighborRecord { member, rtt }) {
                self.versions[i] = self.mutations;
                self.changed.push(i);
            }
        }
        self.server_table.insert(NeighborRecord {
            member,
            rtt: net.rtt(self.server_host, member.host),
        });
        self.id_tree.insert(&member.id);
        self.index.insert(member.id, self.members.len());
        self.members.push(member);
        self.tables.push(table);
        self.versions.push(self.mutations);
    }

    /// Removes a member and repairs every table that referenced it, keeping
    /// K-consistency (Definition 3).
    ///
    /// # Errors
    ///
    /// [`GroupError::NotMember`] if `id` is not in the group.
    pub fn leave(&mut self, id: &UserId, net: &impl Network) -> Result<Member, GroupError> {
        let idx = self.index.remove(id).ok_or(GroupError::NotMember(*id))?;
        let departed = self.members.remove(idx);
        self.tables.remove(idx);
        self.versions.remove(idx);
        self.mutations += 1;
        self.changed.clear();
        for at in self.index.values_mut() {
            if *at > idx {
                *at -= 1;
            }
        }
        self.id_tree.remove(id);
        self.server_table.remove(id);
        // Remove from all tables, refilling entries from global knowledge
        // (the role Silk's failure-recovery protocol plays in the paper).
        //
        // An owner that stored the departed member in row `r` refills from
        // the subtree under `id.prefix(r + 1)`, whoever the owner is, and
        // those subtrees nest. So the departed member's level-1 subtree is
        // resolved once, in ascending-ID order, and row `r`'s candidates
        // are the contiguous run of it under `id.prefix(r + 1)`.
        let level1: Vec<Member> = self
            .id_tree
            .users_in_subtree(&id.prefix(1))
            .map(|u| self.members[self.index[&u]])
            .collect();
        let runs: Vec<Range<usize>> = (1..=self.spec.depth())
            .map(|len| {
                let root = id.prefix(len);
                let start = level1.partition_point(|m| root.subtree_cmp(m.id.digits()).is_lt());
                let len = level1[start..].partition_point(|m| root.is_prefix_of_id(&m.id));
                start..start + len
            })
            .collect();
        let k = self.k;
        for (i, (owner, table)) in self.members.iter().zip(&mut self.tables).enumerate() {
            if !table.remove(id) {
                continue;
            }
            self.versions[i] = self.mutations;
            self.changed.push(i);
            let (row, col) = table.slot_for(id).expect("stored, so not the owner");
            // Once the entry is full again only a strictly closer
            // candidate can still enter it; the rest are not offered.
            let mut worst = None;
            for cand in &level1[runs[row].clone()] {
                let rtt = net.rtt(owner.host, cand.host);
                if worst.is_some_and(|w| rtt >= w) {
                    continue;
                }
                table.insert(NeighborRecord { member: *cand, rtt });
                let entry = table.entry(row, col);
                worst = entry.iter().nth(k - 1).map(|r| r.rtt);
            }
        }
        // Refill the server entry for the departed user's digit.
        for member in level1 {
            let rtt = net.rtt(self.server_host, member.host);
            self.server_table.insert(NeighborRecord { member, rtt });
        }
        Ok(departed)
    }

    /// Checks K-consistency of all current tables (Definition 3).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check(&self) -> Result<(), ConsistencyViolation> {
        check_consistency(&self.spec, &self.members, &self.tables, self.k)
    }

    /// Snapshots the group as a [`TmeshGroup`] ready to run multicast
    /// sessions.
    pub fn tmesh(&self) -> TmeshGroup {
        TmeshGroup::from_tables(
            &self.spec,
            self.members.clone(),
            self.tables.iter().cloned().map(Rc::new).collect(),
            Rc::new(self.server_table.clone()),
            self.server_host,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rekey_net::{MatrixNetwork, PlanetLabParams};

    fn setup(n: usize, seed: u64) -> (Group, MatrixNetwork) {
        let spec = IdSpec::new(3, 4).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let mut group = Group::new(
            &spec,
            HostId(net.host_count() - 1),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(3),
        );
        for h in 0..n {
            group.join(HostId(h), &net, h as u64).unwrap();
        }
        (group, net)
    }

    #[test]
    fn first_join_gets_all_zero_id() {
        let (group, _) = setup(1, 1);
        assert_eq!(group.members()[0].id.digits(), &[0, 0, 0]);
    }

    #[test]
    fn joins_yield_unique_ids_and_consistent_tables() {
        let (group, _) = setup(14, 2);
        assert_eq!(group.len(), 14);
        let mut ids: Vec<_> = group.members().iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 14, "IDs must be unique");
        group.check().expect("K-consistent after joins");
    }

    #[test]
    fn leaves_repair_tables() {
        let (mut group, net) = setup(14, 3);
        let victims: Vec<UserId> = group.members().iter().step_by(3).map(|m| m.id).collect();
        for v in &victims {
            group.leave(v, &net).unwrap();
            group.check().expect("K-consistent after each leave");
        }
        assert_eq!(group.len(), 14 - victims.len());
        let missing = victims[0];
        assert_eq!(
            group.leave(&missing, &net),
            Err(GroupError::NotMember(missing))
        );
    }

    #[test]
    fn colocated_hosts_share_subtrees() {
        // Two hosts on the same site should end up sharing a long prefix
        // when thresholds allow.
        let spec = IdSpec::new(3, 4).unwrap();
        let rtt = vec![
            vec![0, 1, 500_000, 500_000],
            vec![1, 0, 500_000, 500_000],
            vec![500_000, 500_000, 0, 1],
            vec![500_000, 500_000, 1, 0],
        ];
        let net = MatrixNetwork::from_matrix(rtt, vec![0; 4]);
        let mut group = Group::new(
            &spec,
            HostId(3),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams {
                p: 10,
                f_percentile: 80,
                thresholds: vec![150_000, 30_000],
            },
        );
        group.join(HostId(0), &net, 0).unwrap();
        group.join(HostId(2), &net, 1).unwrap();
        group.join(HostId(1), &net, 2).unwrap();
        let id0 = &group.members()[0].id;
        let id1 = &group.member(&group.members()[2].id.clone()).unwrap().id;
        let id2 = &group.members()[1].id;
        // Host 1 is 1 µs from host 0 → same level-2 subtree (2 shared digits).
        assert_eq!(id0.common_prefix_len(id1), 2, "{id0} vs {id1}");
        // Host 2 is 500 ms away → different level-1 subtree.
        assert_eq!(id0.common_prefix_len(id2), 0, "{id0} vs {id2}");
    }

    #[test]
    fn bootstrap_matches_incremental_invariants() {
        let spec = IdSpec::new(3, 4).unwrap();
        let net = rekey_net::GridNetwork::new(40, 1_000, 100);
        let hosts: Vec<HostId> = (0..39).map(HostId).collect();
        let group = Group::bootstrap(
            &spec,
            HostId(39),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(3),
            &hosts,
            &net,
        )
        .unwrap();
        assert_eq!(group.len(), 39);
        group.check().expect("bootstrap tables are K-consistent");
        // IDs are dealt least-significant digit first: consecutive indices
        // land in distinct level-1 subtrees.
        assert_eq!(group.members()[0].id.digits(), &[0, 0, 0]);
        assert_eq!(group.members()[1].id.digits(), &[1, 0, 0]);
        assert_eq!(group.members()[4].id.digits(), &[0, 1, 0]);
        // Unique IDs, index agrees, server table covers every level-1 digit
        // that has members.
        let mut ids: Vec<_> = group.members().iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 39);
        for (i, m) in group.members().iter().enumerate() {
            assert_eq!(group.index_of(&m.id), Some(i));
        }
        assert_eq!(group.id_tree().user_count(), 39);
        // Churn after bootstrap goes through the incremental paths.
        let mut group = group;
        let victim = group.members()[7].id;
        group.leave(&victim, &net).unwrap();
        group
            .check()
            .expect("K-consistent after post-bootstrap leave");
        group.join(HostId(39), &net, 1).unwrap();
        group
            .check()
            .expect("K-consistent after post-bootstrap join");
    }

    #[test]
    fn bootstrap_rejects_overfull_id_space() {
        let spec = IdSpec::new(2, 2).unwrap(); // 4 IDs
        let net = rekey_net::GridNetwork::new(6, 1_000, 100);
        let hosts: Vec<HostId> = (0..5).map(HostId).collect();
        let err = Group::bootstrap(
            &spec,
            HostId(5),
            1,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(2),
            &hosts,
            &net,
        )
        .unwrap_err();
        assert_eq!(err, GroupError::IdSpaceFull);
    }

    #[test]
    fn tmesh_snapshot_multicasts_exactly_once() {
        let (group, net) = setup(12, 4);
        let mesh = group.tmesh();
        let outcome = mesh.multicast(&net, rekey_tmesh::Source::Server);
        assert!(outcome.exactly_once().is_ok());
    }

    #[test]
    fn join_stats_track_messages() {
        let (mut group, net) = setup(10, 5);
        let out = group.join(HostId(12), &net, 99).unwrap();
        assert!(out.stats.queries > 0);
        assert!(out.stats.probes > 0);
    }
}
