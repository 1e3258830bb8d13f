//! Neighbor records and single table entries.

use std::ops::Range;

use rekey_id::{UserId, MAX_DEPTH};
use rekey_net::{HostId, Micros};

/// A group member as seen by the table layer: its ID, its network host, and
/// the time the key server assigned its ID (the paper's *joining time*,
/// Appendix B, used by the cluster rekeying heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// The member's user ID.
    pub id: UserId,
    /// The member's network host.
    pub host: HostId,
    /// Joining time per the key server's clock, microseconds.
    pub joined_at: Micros,
}

/// One neighbor stored in a table entry: a member's *user record* plus the
/// performance measure the paper prescribes for rekey transport — "the RTT
/// between the neighbor and the owner of the table" (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborRecord {
    /// The neighbor's user record.
    pub member: Member,
    /// RTT between this neighbor and the table owner, microseconds.
    pub rtt: Micros,
}

/// A single `(i, j)`-entry: up to `K` neighbors of the owner's `(i, j)`-ID
/// subtree, "arranged in increasing order of their RTTs" (§2.2) — a view
/// into its table's record storage.
///
/// The first neighbor is the entry's **primary** neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEntry<'a> {
    neighbors: &'a [NeighborRecord],
}

impl<'a> TableEntry<'a> {
    /// The primary neighbor: the stored record with the smallest RTT.
    pub fn primary(&self) -> Option<&'a NeighborRecord> {
        self.neighbors.first()
    }

    /// The stored neighbor with the earliest joining time (used as primary
    /// at row `D − 2` under the cluster rekeying heuristic, Appendix B).
    pub(crate) fn earliest_joined(&self) -> Option<&'a NeighborRecord> {
        self.neighbors
            .iter()
            .min_by_key(|n| (n.member.joined_at, n.member.id))
    }

    /// Number of stored neighbors.
    pub(crate) fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// `true` iff no neighbors are stored.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Iterates over neighbors in increasing RTT order.
    pub fn iter(&self) -> std::slice::Iter<'a, NeighborRecord> {
        self.neighbors.iter()
    }

    /// `true` iff a neighbor with this ID is stored.
    #[cfg(test)]
    pub(crate) fn contains(&self, id: &UserId) -> bool {
        self.neighbors.iter().any(|n| &n.member.id == id)
    }
}

/// One non-empty entry of an [`Entries`] store: its column, and where its
/// records end in the record vector (they start where the previous slot's
/// end).
#[derive(Debug, Clone, Copy)]
struct Slot {
    col: u16,
    end: u32,
}

/// The entries of one table, stored flat: a sorted index of the non-empty
/// `(row, col)` slots plus one vector holding every entry's records back to
/// back, in slot order and RTT order within a slot. A table therefore owns
/// two heap allocations however large `D · B` is.
#[derive(Debug, Clone, Default)]
pub(crate) struct Entries {
    /// Row `i`'s slots are `slots[row_start[i]..row_start[i + 1]]`, in
    /// increasing column order.
    row_start: [u32; MAX_DEPTH + 1],
    slots: Vec<Slot>,
    records: Vec<NeighborRecord>,
}

impl Entries {
    /// The index of slot `(row, col)`, or where it would be inserted.
    fn find(&self, row: usize, col: u16) -> Result<usize, usize> {
        let first = self.row_start[row] as usize;
        self.slots[first..self.row_start[row + 1] as usize]
            .binary_search_by_key(&col, |s| s.col)
            .map(|at| first + at)
            .map_err(|at| first + at)
    }

    /// Where slot `s`'s records lie in `records`.
    fn span(&self, s: usize) -> Range<usize> {
        let start = s.checked_sub(1).map_or(0, |p| self.slots[p].end);
        start as usize..self.slots[s].end as usize
    }

    /// The `(row, col)`-entry; empty if it holds no records.
    pub(crate) fn entry(&self, row: usize, col: u16) -> TableEntry<'_> {
        let neighbors = self
            .find(row, col)
            .map_or(&[][..], |s| &self.records[self.span(s)]);
        TableEntry { neighbors }
    }

    /// Row `row`'s non-empty entries in increasing column order.
    pub(crate) fn row(&self, row: usize) -> impl Iterator<Item = (u16, TableEntry<'_>)> + '_ {
        (self.row_start[row] as usize..self.row_start[row + 1] as usize).map(|s| {
            let neighbors = &self.records[self.span(s)];
            (self.slots[s].col, TableEntry { neighbors })
        })
    }

    /// Reserves exactly `slots` more slots and `records` more records.
    pub(crate) fn reserve(&mut self, slots: usize, records: usize) {
        self.slots.reserve_exact(slots);
        self.records.reserve_exact(records);
    }

    /// Every record, in (row, column, RTT) order.
    pub(crate) fn iter_all(&self) -> std::slice::Iter<'_, NeighborRecord> {
        self.records.iter()
    }

    /// Inserts a neighbor into the `(row, col)`-entry keeping RTT order,
    /// evicting the worst neighbor if the entry already holds `capacity`
    /// records. Returns `false` (and leaves the entry unchanged) if the
    /// neighbor is already present or if it would rank below a full entry's
    /// worst record. Equal RTTs keep insertion order.
    pub(crate) fn insert(
        &mut self,
        row: usize,
        col: u16,
        record: NeighborRecord,
        capacity: usize,
    ) -> bool {
        let s = self.find(row, col).unwrap_or_else(|s| {
            // A new slot, empty for a moment: `capacity > 0`, so the
            // record below is always stored in it.
            let end = s.checked_sub(1).map_or(0, |p| self.slots[p].end);
            self.slots.insert(s, Slot { col, end });
            self.row_start[row + 1..].iter_mut().for_each(|r| *r += 1);
            s
        });
        let Range { start, end } = self.span(s);
        let entry = &mut self.records[start..end];
        if entry.iter().any(|n| n.member.id == record.member.id) {
            return false;
        }
        let pos = entry.partition_point(|n| n.rtt <= record.rtt);
        if pos >= capacity {
            return false;
        }
        if entry.len() == capacity {
            // Full: everything from `pos` moves down one, the worst drops out.
            entry[pos..].rotate_right(1);
            entry[pos] = record;
        } else {
            self.records.insert(start + pos, record);
            self.slots[s..].iter_mut().for_each(|slot| slot.end += 1);
        }
        true
    }

    /// Removes the neighbor with the given ID from the `(row, col)`-entry;
    /// returns `true` if it was present.
    pub(crate) fn remove(&mut self, row: usize, col: u16, id: &UserId) -> bool {
        let Ok(s) = self.find(row, col) else {
            return false;
        };
        let span = self.span(s);
        let Some(pos) = self.records[span.clone()]
            .iter()
            .position(|n| &n.member.id == id)
        else {
            return false;
        };
        self.records.remove(span.start + pos);
        self.slots[s..].iter_mut().for_each(|slot| slot.end -= 1);
        if span.len() == 1 {
            self.slots.remove(s);
            self.row_start[row + 1..].iter_mut().for_each(|r| *r -= 1);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::IdSpec;

    /// A store driven as one entry, the `(0, 0)` one.
    struct Entry(Entries);

    impl Entry {
        fn new() -> Entry {
            Entry(Entries::default())
        }

        fn insert(&mut self, record: NeighborRecord, capacity: usize) -> bool {
            self.0.insert(0, 0, record, capacity)
        }

        fn remove(&mut self, id: &UserId) -> bool {
            self.0.remove(0, 0, id)
        }

        fn view(&self) -> TableEntry<'_> {
            self.0.entry(0, 0)
        }
    }

    fn rec(digit: u16, rtt: Micros, joined_at: Micros) -> NeighborRecord {
        let spec = IdSpec::new(2, 8).unwrap();
        NeighborRecord {
            member: Member {
                id: UserId::new(&spec, vec![digit, 0]).unwrap(),
                host: HostId(digit as usize),
                joined_at,
            },
            rtt,
        }
    }

    #[test]
    fn keeps_rtt_order_and_capacity() {
        let mut e = Entry::new();
        assert!(e.insert(rec(1, 30, 0), 2));
        assert!(e.insert(rec(2, 10, 0), 2));
        assert_eq!(e.view().primary().unwrap().rtt, 10);
        // Full entry: a better record evicts the worst…
        assert!(e.insert(rec(3, 20, 0), 2));
        assert_eq!(e.view().len(), 2);
        assert!(!e.view().contains(&rec(1, 0, 0).member.id));
        // …and a worse record is rejected.
        assert!(!e.insert(rec(4, 99, 0), 2));
        assert_eq!(e.view().len(), 2);
    }

    #[test]
    fn rejects_duplicates() {
        let mut e = Entry::new();
        assert!(e.insert(rec(1, 30, 0), 4));
        assert!(!e.insert(rec(1, 20, 0), 4));
        assert_eq!(e.view().len(), 1);
    }

    #[test]
    fn remove_works() {
        let mut e = Entry::new();
        e.insert(rec(1, 30, 0), 4);
        e.insert(rec(2, 10, 0), 4);
        assert!(e.remove(&rec(1, 0, 0).member.id));
        assert!(!e.remove(&rec(1, 0, 0).member.id));
        assert_eq!(e.view().primary().unwrap().member.host, HostId(2));
    }

    #[test]
    fn earliest_joined_ignores_rtt() {
        let mut e = Entry::new();
        e.insert(rec(1, 5, 900), 4);
        e.insert(rec(2, 50, 100), 4);
        assert_eq!(e.view().primary().unwrap().member.joined_at, 900);
        assert_eq!(e.view().earliest_joined().unwrap().member.joined_at, 100);
    }

    #[test]
    fn a_reserved_store_fills_without_spare_capacity() {
        let mut store = Entries::default();
        store.reserve(2, 3);
        for (col, record) in [(0, rec(1, 30, 0)), (0, rec(2, 10, 0)), (5, rec(3, 20, 0))] {
            assert!(store.insert(0, col, record, 2));
        }
        assert_eq!((store.slots.capacity(), store.records.capacity()), (2, 3));
    }

    #[test]
    fn ties_insert_stably() {
        let mut e = Entry::new();
        e.insert(rec(1, 10, 0), 4);
        e.insert(rec(2, 10, 0), 4);
        // Equal RTT: first inserted stays primary.
        assert_eq!(e.view().primary().unwrap().member.host, HostId(1));
    }
}
