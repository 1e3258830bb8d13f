//! K-consistency checking (Definition 3).

use std::collections::HashMap;
use std::fmt;

use rekey_id::{IdSpec, IdTree, UserId};

use crate::entry::Member;
use crate::table::NeighborTable;

/// A violation of Definition 3 found by [`check_consistency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyViolation {
    /// An `(i, j)`-entry with `j == owner.ID[i]` is non-empty.
    OwnColumnNotEmpty {
        /// Table owner.
        owner: UserId,
        /// Row index.
        i: usize,
        /// Column digit.
        j: u16,
    },
    /// An entry holds fewer than `min(K, m)` neighbors.
    TooFewNeighbors {
        /// Table owner.
        owner: UserId,
        /// Row index.
        i: usize,
        /// Column digit.
        j: u16,
        /// Neighbors stored.
        stored: usize,
        /// `min(K, m)` required by Definition 3.
        required: usize,
    },
    /// An entry holds a member that is not in the owner's `(i, j)`-ID
    /// subtree (or is not in the group at all).
    ForeignNeighbor {
        /// Table owner.
        owner: UserId,
        /// Row index.
        i: usize,
        /// Column digit.
        j: u16,
        /// The offending neighbor ID.
        neighbor: UserId,
    },
}

impl fmt::Display for ConsistencyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyViolation::OwnColumnNotEmpty { owner, i, j } => {
                write!(f, "table of {owner}: entry ({i},{j}) must be empty")
            }
            ConsistencyViolation::TooFewNeighbors {
                owner,
                i,
                j,
                stored,
                required,
            } => write!(
                f,
                "table of {owner}: entry ({i},{j}) stores {stored} neighbors, needs {required}"
            ),
            ConsistencyViolation::ForeignNeighbor {
                owner,
                i,
                j,
                neighbor,
            } => write!(
                f,
                "table of {owner}: entry ({i},{j}) holds {neighbor} from the wrong subtree"
            ),
        }
    }
}

impl std::error::Error for ConsistencyViolation {}

/// Checks that `tables` are K-consistent for the group `members`
/// (Definition 3): for every user `u` and entry `(i, j)`,
///
/// 1. if `j == u.ID[i]` the entry is empty, and
/// 2. otherwise the entry contains `min(K, m)` `(i, j)`-neighbors, where
///    `m` is the population of `u`'s `(i, j)`-ID subtree —
///
/// and additionally that every stored neighbor really belongs to the
/// owner's `(i, j)`-ID subtree and the current membership.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_consistency<'a>(
    spec: &IdSpec,
    members: &[Member],
    tables: impl IntoIterator<Item = &'a NeighborTable>,
    k: usize,
) -> Result<(), ConsistencyViolation> {
    let tree = IdTree::from_users(spec, members.iter().map(|m| m.id));
    let in_group: HashMap<&UserId, ()> = members.iter().map(|m| (&m.id, ())).collect();
    for table in tables {
        let owner = table.owner();
        for i in 0..spec.depth() {
            for j in 0..spec.base() {
                let entry = table.entry(i, j);
                if j == owner.digit(i) {
                    if !entry.is_empty() {
                        return Err(ConsistencyViolation::OwnColumnNotEmpty {
                            owner: *owner,
                            i,
                            j,
                        });
                    }
                    continue;
                }
                let subtree_root = owner.prefix(i).child(j);
                for record in entry.iter() {
                    let id = &record.member.id;
                    if !subtree_root.is_prefix_of_id(id) || !in_group.contains_key(id) {
                        return Err(ConsistencyViolation::ForeignNeighbor {
                            owner: *owner,
                            i,
                            j,
                            neighbor: *id,
                        });
                    }
                }
                let m = tree.node(&subtree_root).map_or(0, |n| n.user_count());
                let required = k.min(m);
                if entry.len() < required {
                    return Err(ConsistencyViolation::TooFewNeighbors {
                        owner: *owner,
                        i,
                        j,
                        stored: entry.len(),
                        required,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::NeighborRecord;
    use crate::table::PrimaryPolicy;
    use rekey_net::HostId;

    fn spec() -> IdSpec {
        IdSpec::new(2, 3).unwrap()
    }

    fn member(digits: [u16; 2], host: usize) -> Member {
        Member {
            id: UserId::new(&spec(), digits.to_vec()).unwrap(),
            host: HostId(host),
            joined_at: 0,
        }
    }

    fn rec(m: &Member, rtt: u64) -> NeighborRecord {
        NeighborRecord { member: *m, rtt }
    }

    #[test]
    fn accepts_consistent_tables() {
        let s = spec();
        let a = member([0, 0], 0);
        let b = member([1, 0], 1);
        let mut ta = NeighborTable::new(&s, a.id, 2, PrimaryPolicy::SmallestRtt);
        ta.insert(rec(&b, 10));
        let mut tb = NeighborTable::new(&s, b.id, 2, PrimaryPolicy::SmallestRtt);
        tb.insert(rec(&a, 10));
        let members = vec![a, b];
        check_consistency(&s, &members, &[ta, tb], 2).unwrap();
    }

    #[test]
    fn detects_missing_neighbor() {
        let s = spec();
        let a = member([0, 0], 0);
        let b = member([1, 0], 1);
        let ta = NeighborTable::new(&s, a.id, 2, PrimaryPolicy::SmallestRtt);
        let mut tb = NeighborTable::new(&s, b.id, 2, PrimaryPolicy::SmallestRtt);
        tb.insert(rec(&a, 10));
        let members = vec![a, b];
        let err = check_consistency(&s, &members, &[ta, tb], 2).unwrap_err();
        assert!(matches!(
            err,
            ConsistencyViolation::TooFewNeighbors { i: 0, j: 1, .. }
        ));
        assert!(err.to_string().contains("needs 1"));
    }

    #[test]
    fn detects_departed_neighbor() {
        let s = spec();
        let a = member([0, 0], 0);
        let b = member([1, 0], 1);
        let ghost = member([2, 0], 2);
        let mut ta = NeighborTable::new(&s, a.id, 2, PrimaryPolicy::SmallestRtt);
        ta.insert(rec(&b, 10));
        ta.insert(rec(&ghost, 10));
        let mut tb = NeighborTable::new(&s, b.id, 2, PrimaryPolicy::SmallestRtt);
        tb.insert(rec(&a, 10));
        let members = vec![a, b]; // ghost is not a member
        let err = check_consistency(&s, &members, &[ta, tb], 2).unwrap_err();
        assert!(matches!(err, ConsistencyViolation::ForeignNeighbor { .. }));
    }

    #[test]
    fn one_consistency_weaker_than_k() {
        let s = spec();
        // Three members share subtree [2]; a's entry (0,2) holds only one.
        let a = member([0, 0], 0);
        let b = member([2, 0], 1);
        let c = member([2, 1], 2);
        let mut ta = NeighborTable::new(&s, a.id, 4, PrimaryPolicy::SmallestRtt);
        ta.insert(rec(&b, 10));
        let mut tb = NeighborTable::new(&s, b.id, 4, PrimaryPolicy::SmallestRtt);
        tb.insert(rec(&a, 10));
        tb.insert(rec(&c, 10));
        let mut tc = NeighborTable::new(&s, c.id, 4, PrimaryPolicy::SmallestRtt);
        tc.insert(rec(&a, 10));
        tc.insert(rec(&b, 10));
        let members = vec![a, b, c];
        let tables = vec![ta, tb, tc];
        // 1-consistent…
        check_consistency(&s, &members, &tables, 1).unwrap();
        // …but not 2-consistent.
        assert!(check_consistency(&s, &members, &tables, 2).is_err());
    }
}
