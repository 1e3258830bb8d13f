//! Per-user neighbor tables (`D` rows × `B` entries).

use rekey_id::{IdSpec, UserId};

use crate::entry::{Entries, NeighborRecord, TableEntry};

/// How a table entry's *primary* neighbor is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrimaryPolicy {
    /// Smallest RTT (the paper's default, §2.2).
    #[default]
    SmallestRtt,
    /// Smallest RTT everywhere except the `(D − 2)`th row, where the
    /// earliest-joined neighbor is primary so that rekey messages reach
    /// bottom-cluster *leaders* (cluster rekeying heuristic, Appendix B
    /// footnote 8).
    EarliestJoinAtBottom,
}

/// A user's neighbor table: `D` rows of `B` entries supporting hypercube
/// routing (§2.2).
///
/// The `(i, j)`-entry contains up to `K` neighbors drawn from the owner's
/// `(i, j)`-ID subtree; the entry with `j == owner.ID[i]` is structurally
/// empty (those members live in deeper rows).
///
/// ```
/// use rekey_id::{IdSpec, UserId};
/// use rekey_net::HostId;
/// use rekey_table::{Member, NeighborRecord, NeighborTable, PrimaryPolicy};
///
/// let spec = IdSpec::new(2, 4)?;
/// let owner = UserId::new(&spec, vec![1, 0])?;
/// let mut table = NeighborTable::new(&spec, owner, 4, PrimaryPolicy::SmallestRtt);
/// let peer = Member { id: UserId::new(&spec, vec![3, 2])?, host: HostId(9), joined_at: 0 };
/// table.insert(NeighborRecord { member: peer.clone(), rtt: 12_000 });
/// // The peer differs at digit 0 with value 3 ⇒ it lives in entry (0, 3).
/// assert_eq!(table.slot_for(&peer.id), Some((0, 3)));
/// assert_eq!(table.neighbor_count(), 1);
/// # Ok::<(), rekey_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NeighborTable {
    spec: IdSpec,
    owner: UserId,
    k: usize,
    policy: PrimaryPolicy,
    /// Only the non-empty entries are stored, so row enumeration
    /// ([`Self::primaries_in_row`], and through it the rekey transports'
    /// `FORWARD` loops) is O(neighbors) per member, not O(D·B).
    entries: Entries,
}

impl NeighborTable {
    /// Creates an empty table for `owner`, with per-entry capacity `k` (the
    /// paper's `K`; `K = 4` in the simulations).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `owner` does not match `spec`.
    pub fn new(spec: &IdSpec, owner: UserId, k: usize, policy: PrimaryPolicy) -> NeighborTable {
        assert!(k > 0, "entry capacity K must be positive");
        assert_eq!(
            owner.depth(),
            spec.depth(),
            "owner ID must match the spec depth"
        );
        NeighborTable {
            spec: *spec,
            owner,
            k,
            policy,
            entries: Entries::default(),
        }
    }

    /// The owner's user ID.
    pub fn owner(&self) -> &UserId {
        &self.owner
    }

    /// The ID-space specification.
    pub fn spec(&self) -> &IdSpec {
        &self.spec
    }

    /// Per-entry capacity `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The primary-selection policy (wire codecs rebuild tables from it).
    pub fn policy(&self) -> PrimaryPolicy {
        self.policy
    }

    /// The `(i, j)`-entry.
    ///
    /// # Panics
    ///
    /// Panics if `i >= D` or `j >= B`.
    pub fn entry(&self, i: usize, j: u16) -> TableEntry<'_> {
        assert!(i < self.spec.depth() && j < self.spec.base());
        self.entries.entry(i, j)
    }

    /// The row/column of the owner's table where `id` belongs:
    /// `(c, id[c])` with `c` the length of the longest common prefix of
    /// owner and `id`. Returns `None` for the owner itself.
    pub fn slot_for(&self, id: &UserId) -> Option<(usize, u16)> {
        let c = self.owner.common_prefix_len(id);
        if c == self.spec.depth() {
            None
        } else {
            Some((c, id.digit(c)))
        }
    }

    /// Inserts a neighbor into its unique `(i, j)`-entry. Returns `true` if
    /// the record was stored (it may be rejected when the entry is full of
    /// closer neighbors, or when the record is the owner or a duplicate).
    pub fn insert(&mut self, record: NeighborRecord) -> bool {
        match self.slot_for(&record.member.id) {
            None => false,
            Some((i, j)) => self.entries.insert(i, j, record, self.k),
        }
    }

    /// Removes a neighbor wherever it is stored; returns `true` if present.
    pub fn remove(&mut self, id: &UserId) -> bool {
        match self.slot_for(id) {
            None => false,
            Some((i, j)) => self.entries.remove(i, j, id),
        }
    }

    /// The primary `(i, j)`-neighbor under this table's
    /// [`PrimaryPolicy`].
    #[cfg(test)]
    pub(crate) fn primary(&self, i: usize, j: u16) -> Option<&NeighborRecord> {
        self.primary_of(i, self.entry(i, j))
    }

    fn primary_of<'a>(&self, i: usize, entry: TableEntry<'a>) -> Option<&'a NeighborRecord> {
        match self.policy {
            PrimaryPolicy::SmallestRtt => entry.primary(),
            PrimaryPolicy::EarliestJoinAtBottom => {
                if self.spec.depth() >= 2 && i == self.spec.depth() - 2 {
                    entry.earliest_joined()
                } else {
                    entry.primary()
                }
            }
        }
    }

    /// Iterates over the primary neighbors of row `i` (all `j`), in
    /// increasing `j` order.
    pub fn primaries_in_row(&self, i: usize) -> impl Iterator<Item = (u16, &NeighborRecord)> + '_ {
        self.entries_in_row(i)
            .filter_map(move |(j, entry)| self.primary_of(i, entry).map(|r| (j, r)))
    }

    /// Iterates over the non-empty entries of row `i` in increasing `j`
    /// order, without probing all `B` columns. Forwarding fail-over (§2.3)
    /// uses this to scan each `(i, j)` bucket for the first live neighbor.
    pub fn entries_in_row(&self, i: usize) -> impl Iterator<Item = (u16, TableEntry<'_>)> + '_ {
        self.entries.row(i)
    }

    /// Makes room, exactly, for `entries` more non-empty entries holding
    /// `records` more records in all.
    pub fn reserve(&mut self, entries: usize, records: usize) {
        self.entries.reserve(entries, records);
    }

    /// Iterates over every stored neighbor record, in (row, column, RTT)
    /// order.
    pub fn iter_all(&self) -> std::slice::Iter<'_, NeighborRecord> {
        self.entries.iter_all()
    }

    /// Total number of stored neighbor records.
    pub fn neighbor_count(&self) -> usize {
        self.iter_all().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_net::HostId;

    use crate::entry::Member;

    fn spec() -> IdSpec {
        IdSpec::new(3, 4).unwrap()
    }

    fn uid(digits: [u16; 3]) -> UserId {
        UserId::new(&spec(), digits.to_vec()).unwrap()
    }

    fn rec(digits: [u16; 3], rtt: u64, joined_at: u64) -> NeighborRecord {
        NeighborRecord {
            member: Member {
                id: uid(digits),
                host: HostId(0),
                joined_at,
            },
            rtt,
        }
    }

    #[test]
    fn slots_follow_common_prefix() {
        let t = NeighborTable::new(&spec(), uid([1, 2, 3]), 4, PrimaryPolicy::SmallestRtt);
        assert_eq!(t.slot_for(&uid([0, 0, 0])), Some((0, 0)));
        assert_eq!(t.slot_for(&uid([1, 0, 0])), Some((1, 0)));
        assert_eq!(t.slot_for(&uid([1, 2, 0])), Some((2, 0)));
        assert_eq!(t.slot_for(&uid([1, 2, 3])), None);
    }

    #[test]
    fn insert_places_and_rejects_owner() {
        let mut t = NeighborTable::new(&spec(), uid([1, 2, 3]), 4, PrimaryPolicy::SmallestRtt);
        assert!(t.insert(rec([3, 0, 0], 10, 0)));
        assert!(t.insert(rec([3, 1, 0], 5, 0)));
        assert!(
            !t.insert(rec([1, 2, 3], 1, 0)),
            "owner may not be its own neighbor"
        );
        assert_eq!(t.entry(0, 3).len(), 2);
        assert_eq!(t.primary(0, 3).unwrap().rtt, 5);
        assert_eq!(t.neighbor_count(), 2);
    }

    #[test]
    fn own_digit_column_stays_empty() {
        let mut t = NeighborTable::new(&spec(), uid([1, 2, 3]), 4, PrimaryPolicy::SmallestRtt);
        // A member sharing digit 0 goes to row 1, not to entry (0, 1).
        assert!(t.insert(rec([1, 0, 0], 10, 0)));
        assert!(t.entry(0, 1).is_empty());
        assert_eq!(t.entry(1, 0).len(), 1);
    }

    #[test]
    fn remove_round_trips() {
        let mut t = NeighborTable::new(&spec(), uid([1, 2, 3]), 4, PrimaryPolicy::SmallestRtt);
        t.insert(rec([2, 2, 2], 9, 0));
        assert!(t.remove(&uid([2, 2, 2])));
        assert!(!t.remove(&uid([2, 2, 2])));
        assert_eq!(t.neighbor_count(), 0);
    }

    #[test]
    fn bottom_row_policy_prefers_earliest_join() {
        let mut t = NeighborTable::new(
            &spec(),
            uid([1, 2, 3]),
            4,
            PrimaryPolicy::EarliestJoinAtBottom,
        );
        // Row D-2 == 1 for D == 3.
        t.insert(rec([1, 0, 0], 5, 500));
        t.insert(rec([1, 0, 1], 50, 100));
        assert_eq!(t.primary(1, 0).unwrap().member.joined_at, 100);
        // Other rows keep RTT order.
        t.insert(rec([2, 0, 0], 50, 100));
        t.insert(rec([2, 0, 1], 5, 500));
        assert_eq!(t.primary(0, 2).unwrap().rtt, 5);
    }

    #[test]
    fn primaries_in_row_skips_empty_entries() {
        let mut t = NeighborTable::new(&spec(), uid([1, 2, 3]), 4, PrimaryPolicy::SmallestRtt);
        t.insert(rec([0, 0, 0], 10, 0));
        t.insert(rec([3, 0, 0], 20, 0));
        let row0: Vec<u16> = t.primaries_in_row(0).map(|(j, _)| j).collect();
        assert_eq!(row0, vec![0, 3]);
    }

    /// The occupancy index must agree with a brute-force scan of all
    /// `B` columns: same columns, sorted, none empty.
    fn assert_occupancy_consistent(t: &NeighborTable) {
        for i in 0..t.spec().depth() {
            let indexed: Vec<u16> = t.entries_in_row(i).map(|(j, _)| j).collect();
            let brute: Vec<u16> = (0..t.spec().base())
                .filter(|&j| !t.entry(i, j).is_empty())
                .collect();
            assert_eq!(indexed, brute, "row {i} occupancy index diverged");
            assert!(indexed.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            for (_, e) in t.entries_in_row(i) {
                assert!(!e.is_empty(), "row {i} indexes an empty entry");
            }
        }
    }

    #[test]
    fn removal_keeps_occupancy_index() {
        let mut t = NeighborTable::new(&spec(), uid([1, 2, 3]), 2, PrimaryPolicy::SmallestRtt);
        t.insert(rec([0, 0, 0], 10, 0));
        t.insert(rec([0, 1, 0], 20, 0));
        t.insert(rec([3, 0, 0], 30, 0));
        t.insert(rec([1, 0, 0], 40, 0));
        t.insert(rec([1, 2, 0], 50, 0));
        assert_occupancy_consistent(&t);

        // Remove everything slower than 25: empties entry (0, 3) but only
        // thins entry (0, 0).
        let gone: Vec<UserId> = (t.iter_all().filter(|r| r.rtt > 25))
            .map(|r| r.member.id)
            .collect();
        assert!(gone.iter().all(|id| t.remove(id)));
        assert_eq!(t.neighbor_count(), 2);
        assert_occupancy_consistent(&t);
        let row0: Vec<u16> = t.entries_in_row(0).map(|(j, _)| j).collect();
        assert_eq!(row0, vec![0], "entry (0,3) must leave the index");

        // Refill an emptied slot: the column re-enters the index in order.
        assert!(t.insert(rec([3, 1, 0], 5, 0)));
        assert_occupancy_consistent(&t);
    }

    #[test]
    fn eviction_via_remove_churn_keeps_occupancy_index() {
        let mut t = NeighborTable::new(&spec(), uid([0, 0, 0]), 2, PrimaryPolicy::SmallestRtt);
        let peers = [
            [1, 0, 0],
            [1, 1, 0],
            [2, 0, 0],
            [3, 0, 0],
            [0, 1, 0],
            [0, 2, 0],
            [0, 0, 1],
            [0, 0, 3],
        ];
        for (n, p) in peers.iter().enumerate() {
            t.insert(rec(*p, 10 + n as u64, 0));
            assert_occupancy_consistent(&t);
        }
        for p in peers.iter().step_by(2) {
            assert!(t.remove(&uid(*p)));
            assert_occupancy_consistent(&t);
        }
        // Re-insert into partially emptied rows.
        t.insert(rec([2, 2, 2], 1, 0));
        t.insert(rec([0, 0, 1], 2, 0));
        assert_occupancy_consistent(&t);
    }
}
