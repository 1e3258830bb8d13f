//! The cluster rekeying heuristic (§4.2 and Appendix B).
//!
//! All users belonging to the same level-`(D−1)` ID subtree form a *bottom
//! cluster*; the member with the earliest joining time is its **leader**.
//! Only leaders have u-nodes in the (modified) key tree, so "a non-leader
//! user's join or leave does not incur group rekeying" — it only costs the
//! leader one pairwise-encrypted unicast of the group key per rekey
//! interval. A leader's join (first member of a new cluster) or leave
//! triggers ordinary group rekeying; on a leader's leave the
//! earliest-joined surviving member takes over.

use std::collections::BTreeMap;

use rand::Rng;
use rekey_id::{IdPrefix, IdSpec, UserId};

use crate::batch::{RekeyArena, RekeyBatch};
use crate::modified::{KeyTreeError, ModifiedKeyTree};

/// One bottom cluster: its members in joining order (the leader is the
/// front).
#[derive(Debug, Clone, Default)]
struct Cluster {
    /// `(join_seq, user)` pairs, kept sorted by `join_seq`.
    members: Vec<(u64, UserId)>,
}

impl Cluster {
    fn leader(&self) -> Option<&UserId> {
        self.members.first().map(|(_, u)| u)
    }

    fn contains(&self, user: &UserId) -> bool {
        self.members.iter().any(|(_, u)| u == user)
    }
}

/// The outcome of one rekey interval under the cluster heuristic,
/// borrowing the caller's [`RekeyArena`] like the [`RekeyBatch`] it wraps.
#[non_exhaustive]
#[derive(Debug, PartialEq)]
pub struct ClusterRekeyBatch<'a> {
    rekey: RekeyBatch<'a>,
    leader_unicasts: u64,
}

impl<'a> ClusterRekeyBatch<'a> {
    /// Rekey cost of the multicast message (the Fig. 12(c) metric; leader
    /// unicasts are *not* part of the rekey message).
    pub fn cost(&self) -> usize {
        self.rekey.cost()
    }

    /// The multicast rekey message produced by the (leader-only) key tree.
    pub fn rekey(&self) -> &RekeyBatch<'a> {
        &self.rekey
    }
}

/// A modified key tree operated under the cluster rekeying heuristic.
///
/// ```
/// use rand::SeedableRng;
/// use rekey_id::{IdSpec, UserId};
/// use rekey_keytree::{ClusteredKeyTree, RekeyArena};
///
/// let spec = IdSpec::new(3, 4)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut tree = ClusteredKeyTree::new(&spec);
/// let mut arena = RekeyArena::new();
/// let leader = UserId::new(&spec, vec![1, 2, 0])?;
/// let follower = UserId::new(&spec, vec![1, 2, 3])?; // same bottom cluster
/// tree.batch_rekey(&[leader.clone()], &[], &mut rng, &mut arena).unwrap();
/// let out = tree.batch_rekey(&[follower], &[], &mut rng, &mut arena).unwrap();
/// // A non-leader join incurs no group rekeying at all.
/// assert_eq!(out.cost(), 0);
/// assert!(tree.is_leader(&leader));
/// # Ok::<(), rekey_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusteredKeyTree {
    spec: IdSpec,
    tree: ModifiedKeyTree,
    clusters: BTreeMap<IdPrefix, Cluster>,
    join_seq: u64,
}

impl ClusteredKeyTree {
    /// Creates an empty clustered tree.
    pub fn new(spec: &IdSpec) -> ClusteredKeyTree {
        ClusteredKeyTree {
            spec: *spec,
            tree: ModifiedKeyTree::new(spec),
            clusters: BTreeMap::new(),
            join_seq: 0,
        }
    }

    /// The underlying (leader-only) key tree.
    pub fn tree(&self) -> &ModifiedKeyTree {
        &self.tree
    }

    /// Total number of users across all clusters.
    #[cfg(test)]
    pub(crate) fn user_count(&self) -> usize {
        self.clusters.values().map(|c| c.members.len()).sum()
    }

    /// `true` iff `user` is in the group.
    pub(crate) fn contains_user(&self, user: &UserId) -> bool {
        self.cluster_id(user)
            .map(|c| self.clusters[&c].contains(user))
            .unwrap_or(false)
    }

    /// The cluster (level-`(D−1)` subtree) ID `user` belongs to, if that
    /// cluster exists.
    fn cluster_id(&self, user: &UserId) -> Option<IdPrefix> {
        let id = user.prefix(self.spec.depth() - 1);
        self.clusters.contains_key(&id).then_some(id)
    }

    /// The leader of `user`'s cluster, if the cluster exists.
    pub(crate) fn leader_of(&self, user: &UserId) -> Option<&UserId> {
        let id = user.prefix(self.spec.depth() - 1);
        self.clusters.get(&id).and_then(|c| c.leader())
    }

    /// `true` iff `user` currently leads its cluster.
    pub fn is_leader(&self, user: &UserId) -> bool {
        self.leader_of(user) == Some(user)
    }

    /// Processes one rekey interval of `joins` and `leaves` under the
    /// heuristic. Leadership is recomputed per cluster (earliest-joined
    /// surviving member); only the net change of the *leader set* reaches
    /// the key tree.
    ///
    /// # Errors
    ///
    /// Rejects joins of current members, leaves of non-members and
    /// duplicate requests, leaving the state unchanged.
    pub fn batch_rekey<'a, R: Rng + ?Sized>(
        &mut self,
        joins: &[UserId],
        leaves: &[UserId],
        rng: &mut R,
        arena: &'a mut RekeyArena,
    ) -> Result<ClusterRekeyBatch<'a>, KeyTreeError> {
        // Validate against current membership. A join may reuse the ID of a
        // user leaving in the same batch (the slot is vacated first).
        let mut joining = std::collections::BTreeSet::new();
        for u in joins {
            if !joining.insert(*u) {
                return Err(KeyTreeError::DuplicateRequest(*u));
            }
        }
        let mut left = std::collections::BTreeSet::new();
        for u in leaves {
            if !left.insert(*u) {
                return Err(KeyTreeError::DuplicateRequest(*u));
            }
            if !self.contains_user(u) {
                return Err(KeyTreeError::NotMember(*u));
            }
        }
        for u in &joining {
            if self.contains_user(u) && !left.contains(u) {
                return Err(KeyTreeError::AlreadyMember(*u));
            }
        }

        let old_leaders: std::collections::BTreeSet<UserId> = self
            .clusters
            .values()
            .filter_map(|c| c.leader().cloned())
            .collect();

        // Apply membership changes: leaves first so a reused ID lands in a
        // vacated slot.
        for u in leaves {
            let id = u.prefix(self.spec.depth() - 1);
            let cluster = self.clusters.get_mut(&id).expect("validated membership");
            cluster.members.retain(|(_, m)| m != u);
            if cluster.members.is_empty() {
                self.clusters.remove(&id);
            }
        }
        for u in joins {
            let id = u.prefix(self.spec.depth() - 1);
            let cluster = self.clusters.entry(id).or_default();
            cluster.members.push((self.join_seq, *u));
            self.join_seq += 1;
        }

        let new_leaders: std::collections::BTreeSet<UserId> = self
            .clusters
            .values()
            .filter_map(|c| c.leader().cloned())
            .collect();

        // A leader ID present on both sides still churns when the *person*
        // left and a new user re-acquired the ID in this batch.
        let tree_joins: Vec<UserId> = new_leaders
            .iter()
            .filter(|u| !old_leaders.contains(*u) || left.contains(*u))
            .cloned()
            .collect();
        let tree_leaves: Vec<UserId> = old_leaders
            .iter()
            .filter(|u| !new_leaders.contains(*u) || left.contains(*u))
            .cloned()
            .collect();
        let rekey = self
            .tree
            .batch_rekey(&tree_joins, &tree_leaves, rng, arena)
            .expect("leader churn derived from validated membership");

        // After a group-key change every leader refreshes its non-leader
        // members over pairwise keys.
        let leader_unicasts = if rekey.cost() > 0 {
            self.clusters
                .values()
                .map(|c| (c.members.len() - 1) as u64)
                .sum()
        } else {
            0
        };
        Ok(ClusterRekeyBatch {
            rekey,
            leader_unicasts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> IdSpec {
        IdSpec::new(3, 4).unwrap() // clusters are level-2 subtrees
    }

    fn uid(d: [u16; 3]) -> UserId {
        UserId::new(&spec(), d.to_vec()).unwrap()
    }

    #[test]
    fn first_member_becomes_leader_and_rekeys() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut arena = RekeyArena::new();
        let mut ct = ClusteredKeyTree::new(&spec());
        let out = ct
            .batch_rekey(&[uid([0, 0, 0])], &[], &mut rng, &mut arena)
            .unwrap();
        assert!(ct.is_leader(&uid([0, 0, 0])));
        assert_eq!(ct.tree().user_count(), 1);
        // Group-oriented rekeying wraps each new path key under its single
        // child's key: D encryptions for a first join.
        assert_eq!(out.cost(), 3);
        assert_eq!(out.leader_unicasts, 0);
    }

    #[test]
    fn non_leader_churn_is_free() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut arena = RekeyArena::new();
        let mut ct = ClusteredKeyTree::new(&spec());
        ct.batch_rekey(&[uid([0, 0, 0]), uid([2, 1, 0])], &[], &mut rng, &mut arena)
            .unwrap();
        // Same cluster as [0,0,0]:
        let out = ct
            .batch_rekey(&[uid([0, 0, 1]), uid([0, 0, 2])], &[], &mut rng, &mut arena)
            .unwrap();
        assert_eq!(out.cost(), 0, "non-leader joins incur no group rekeying");
        assert_eq!(ct.user_count(), 4);
        assert_eq!(ct.tree().user_count(), 2, "only leaders have u-nodes");
        let out = ct
            .batch_rekey(&[], &[uid([0, 0, 2])], &mut rng, &mut arena)
            .unwrap();
        assert_eq!(out.cost(), 0, "non-leader leaves incur no group rekeying");
        assert_eq!(out.leader_unicasts, 0);
    }

    #[test]
    fn leader_leave_hands_over_and_rekeys() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut arena = RekeyArena::new();
        let mut ct = ClusteredKeyTree::new(&spec());
        ct.batch_rekey(
            &[uid([0, 0, 0]), uid([0, 0, 1]), uid([2, 0, 0])],
            &[],
            &mut rng,
            &mut arena,
        )
        .unwrap();
        assert!(ct.is_leader(&uid([0, 0, 0])));
        let out = ct
            .batch_rekey(&[], &[uid([0, 0, 0])], &mut rng, &mut arena)
            .unwrap();
        // Earliest-joined survivor takes over.
        assert!(ct.is_leader(&uid([0, 0, 1])));
        assert!(out.cost() > 0, "leader leave incurs group rekeying");
        assert_eq!(ct.tree().user_count(), 2);
        // One non-leader-free cluster and one singleton: 0 unicasts… both
        // clusters are singletons now.
        assert_eq!(out.leader_unicasts, 0);
    }

    #[test]
    fn leader_unicasts_counted_per_interval() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut arena = RekeyArena::new();
        let mut ct = ClusteredKeyTree::new(&spec());
        ct.batch_rekey(
            &[
                uid([0, 0, 0]),
                uid([0, 0, 1]),
                uid([0, 0, 2]),
                uid([2, 0, 0]),
            ],
            &[],
            &mut rng,
            &mut arena,
        )
        .unwrap();
        // Leader of [2,0] leaves: group key changes; leader of [0,0] must
        // refresh its 2 non-leader members.
        let out = ct
            .batch_rekey(&[], &[uid([2, 0, 0])], &mut rng, &mut arena)
            .unwrap();
        assert!(out.cost() > 0);
        assert_eq!(out.leader_unicasts, 2);
    }

    #[test]
    fn cluster_emptying_removes_tree_leaf() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut arena = RekeyArena::new();
        let mut ct = ClusteredKeyTree::new(&spec());
        ct.batch_rekey(
            &[uid([0, 0, 0]), uid([0, 0, 1]), uid([3, 3, 3])],
            &[],
            &mut rng,
            &mut arena,
        )
        .unwrap();
        let out = ct
            .batch_rekey(&[], &[uid([0, 0, 0]), uid([0, 0, 1])], &mut rng, &mut arena)
            .unwrap();
        assert!(out.cost() > 0);
        assert_eq!(ct.tree().user_count(), 1);
        assert_eq!(ct.user_count(), 1);
        assert!(!ct.contains_user(&uid([0, 0, 0])));
    }

    #[test]
    fn validation_mirrors_key_tree() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut arena = RekeyArena::new();
        let mut ct = ClusteredKeyTree::new(&spec());
        ct.batch_rekey(&[uid([0, 0, 0])], &[], &mut rng, &mut arena)
            .unwrap();
        assert_eq!(
            ct.batch_rekey(&[uid([0, 0, 0])], &[], &mut rng, &mut arena),
            Err(KeyTreeError::AlreadyMember(uid([0, 0, 0])))
        );
        assert_eq!(
            ct.batch_rekey(&[], &[uid([1, 1, 1])], &mut rng, &mut arena),
            Err(KeyTreeError::NotMember(uid([1, 1, 1])))
        );
    }

    /// Leader join + leader leave of the *same cluster* in one batch must
    /// net out correctly (the new member takes over the cluster leaf).
    #[test]
    fn same_batch_handover() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut arena = RekeyArena::new();
        let mut ct = ClusteredKeyTree::new(&spec());
        ct.batch_rekey(&[uid([0, 0, 0]), uid([1, 0, 0])], &[], &mut rng, &mut arena)
            .unwrap();
        let out = ct
            .batch_rekey(&[uid([0, 0, 3])], &[uid([0, 0, 0])], &mut rng, &mut arena)
            .unwrap();
        assert!(ct.is_leader(&uid([0, 0, 3])));
        assert!(out.cost() > 0);
        assert_eq!(ct.tree().user_count(), 2);
    }
}
