//! The key server's single-row neighbor table.

use rekey_id::IdSpec;

use crate::entry::{Entries, NeighborRecord, TableEntry};

/// The key server's neighbor table (§2.2): a single row of `B` entries.
///
/// "Among all the users whose IDs have the prefix `[j]`, the key server
/// chooses the `K` (or all, if the total number of such users is less than
/// `K`) users who have the smallest RTTs to the key server as its
/// `(0, j)`-neighbors."
#[derive(Debug, Clone)]
pub struct ServerTable {
    spec: IdSpec,
    k: usize,
    entries: Entries,
}

impl ServerTable {
    /// Creates an empty server table with per-entry capacity `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(spec: &IdSpec, k: usize) -> ServerTable {
        assert!(k > 0, "entry capacity K must be positive");
        ServerTable {
            spec: *spec,
            k,
            entries: Entries::default(),
        }
    }

    /// The ID-space specification.
    pub fn spec(&self) -> &IdSpec {
        &self.spec
    }

    /// The `(0, j)`-entry.
    ///
    /// # Panics
    ///
    /// Panics if `j >= B`.
    pub fn entry(&self, j: u16) -> TableEntry<'_> {
        assert!(j < self.spec.base());
        self.entries.entry(0, j)
    }

    /// Inserts a user record; its entry is determined by the user's 0th
    /// digit. `record.rtt` must be the RTT between the user and the key
    /// server.
    pub fn insert(&mut self, record: NeighborRecord) -> bool {
        let j = record.member.id.digit(0);
        self.entries.insert(0, j, record, self.k)
    }

    /// Removes a user wherever stored; returns `true` if present.
    pub fn remove(&mut self, id: &rekey_id::UserId) -> bool {
        self.entries.remove(0, id.digit(0), id)
    }

    /// The primary `(0, j)`-neighbor (smallest RTT to the server).
    #[cfg(test)]
    pub(crate) fn primary(&self, j: u16) -> Option<&NeighborRecord> {
        self.entry(j).primary()
    }

    /// Iterates over `(j, primary)` for all non-empty entries.
    pub fn primaries(&self) -> impl Iterator<Item = (u16, &NeighborRecord)> + '_ {
        self.entries
            .row(0)
            .filter_map(|(j, entry)| entry.primary().map(|r| (j, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Member;
    use rekey_id::UserId;
    use rekey_net::HostId;

    fn spec() -> IdSpec {
        IdSpec::new(2, 4).unwrap()
    }

    fn rec(digits: [u16; 2], rtt: u64) -> NeighborRecord {
        NeighborRecord {
            member: Member {
                id: UserId::new(&spec(), digits.to_vec()).unwrap(),
                host: HostId(0),
                joined_at: 0,
            },
            rtt,
        }
    }

    #[test]
    fn routes_by_zeroth_digit() {
        let mut t = ServerTable::new(&spec(), 2);
        assert!(t.insert(rec([0, 1], 10)));
        assert!(t.insert(rec([3, 1], 20)));
        assert_eq!(t.entry(0).len(), 1);
        assert_eq!(t.entry(3).len(), 1);
        assert!(t.entry(1).is_empty());
        assert_eq!(t.primaries().count(), 2);
    }

    #[test]
    fn keeps_k_closest() {
        let mut t = ServerTable::new(&spec(), 2);
        t.insert(rec([0, 0], 30));
        t.insert(rec([0, 1], 10));
        t.insert(rec([0, 2], 20));
        assert_eq!(t.entry(0).len(), 2);
        assert_eq!(t.primary(0).unwrap().rtt, 10);
        assert!(!t.entry(0).contains(&rec([0, 0], 0).member.id));
    }

    #[test]
    fn remove_by_id() {
        let mut t = ServerTable::new(&spec(), 2);
        t.insert(rec([2, 2], 5));
        assert!(t.remove(&rec([2, 2], 0).member.id));
        assert!(t.entry(2).is_empty());
    }
}
