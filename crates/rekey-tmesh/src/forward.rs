//! The `FORWARD` routine of Fig. 2: who sends what to whom.
//!
//! Every multicast message carries a `forward_level` field. The sender is at
//! forwarding level 0; a user receiving a message with `forward_level = i`
//! is at forwarding level `i`. The routine is:
//!
//! ```text
//! FORWARD(msg):
//!   level ← msg.forward_level
//!   if level = D then return
//!   if the caller is the key server then            // level = 0
//!     msg.forward_level ← level + 1
//!     send a copy of msg to each (0, j)-primary neighbor, 0 ≤ j < B
//!   else for i ← level to D − 1 do
//!     msg.forward_level ← i + 1
//!     send a copy of msg to each (i, j)-primary neighbor, 0 ≤ j < B
//! ```
//!
//! These functions are pure table lookups; the event-driven session driver
//! (`TmeshGroup::multicast`) schedules the actual sends.

use rekey_table::{NeighborRecord, NeighborTable, ServerTable};

/// One outgoing copy produced by `FORWARD`: the receiving neighbor, the row
/// `s` it was taken from (it is the `(s, j)`-primary neighbor of the caller)
/// and the `forward_level` value (`s + 1`) stamped on the copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop<'a> {
    /// Row of the caller's table the neighbor was taken from.
    pub row: usize,
    /// Column (digit) of the entry.
    pub column: u16,
    /// The receiving primary neighbor.
    pub neighbor: &'a NeighborRecord,
    /// `forward_level` carried by the copy: `row + 1`.
    pub forward_level: usize,
}

impl Hop<'_> {
    /// The `(s, j)`-ID-subtree prefix this hop serves.
    ///
    /// The receiving neighbor is the caller's `(row, column)`-primary, so
    /// its level-`row + 1` prefix names exactly the subtree the copy is
    /// responsible for: every member that can receive the message through
    /// this hop lies under that prefix (Theorem 2). This is the split key
    /// for `REKEY-MESSAGE-SPLIT` (Fig. 5).
    pub fn prefix(&self) -> rekey_id::IdPrefix {
        self.neighbor.member.id.prefix(self.row + 1)
    }
}

/// Next hops for the key server starting a multicast (lines 3–5 of Fig. 2):
/// one copy per `(0, j)`-primary neighbor, with `forward_level = 1`.
pub fn server_next_hops(table: &ServerTable) -> Vec<Hop<'_>> {
    table
        .primaries()
        .map(|(j, neighbor)| Hop {
            row: 0,
            column: j,
            neighbor,
            forward_level: 1,
        })
        .collect()
}

/// Like [`server_next_hops`], but skipping failed neighbors: per entry, the
/// first neighbor for which `alive` returns `true` receives the copy (the
/// §2.3 fail-over: "it can simply forward messages to another neighbor in
/// the same table entry as the failed or congested neighbor"). An entry
/// whose neighbors are all down produces no hop.
pub(crate) fn server_next_hops_with<'t>(
    table: &'t ServerTable,
    alive: &dyn Fn(&rekey_id::UserId) -> bool,
) -> Vec<Hop<'t>> {
    (0..table.spec().base())
        .filter_map(|j| {
            table
                .entry(j)
                .iter()
                .find(|r| alive(&r.member.id))
                .map(|neighbor| Hop {
                    row: 0,
                    column: j,
                    neighbor,
                    forward_level: 1,
                })
        })
        .collect()
}

/// Next hops for a user at forwarding `level` (lines 2 and 6–9 of Fig. 2):
/// for every row `i ∈ [level, D)`, one copy per `(i, j)`-primary neighbor,
/// with `forward_level = i + 1`. A user at level `D` forwards nothing.
pub fn user_next_hops(table: &NeighborTable, level: usize) -> Vec<Hop<'_>> {
    let depth = table.spec().depth();
    if level >= depth {
        return Vec::new();
    }
    let mut hops = Vec::new();
    for row in level..depth {
        for (column, neighbor) in table.primaries_in_row(row) {
            hops.push(Hop {
                row,
                column,
                neighbor,
                forward_level: row + 1,
            });
        }
    }
    hops
}

/// Like [`user_next_hops`], but skipping failed neighbors (§2.3 fail-over):
/// per entry, the first live neighbor in RTT order receives the copy, so a
/// stale record (a silently crashed primary not yet evicted) falls back to
/// the next neighbor in the same `(i, j)` bucket. Walks the table's
/// row-occupancy index, so the cost is O(stored neighbors) rather than
/// O(D·B). Note: fail-over ranks by RTT regardless of the table's
/// [`rekey_table::PrimaryPolicy`]; combine with the cluster heuristic's
/// leader-primary policy only when leaders are known to be alive.
pub fn user_next_hops_with<'t>(
    table: &'t NeighborTable,
    level: usize,
    alive: &dyn Fn(&rekey_id::UserId) -> bool,
) -> Vec<Hop<'t>> {
    let depth = table.spec().depth();
    if level >= depth {
        return Vec::new();
    }
    let mut hops = Vec::new();
    for row in level..depth {
        for (column, entry) in table.entries_in_row(row) {
            if let Some(neighbor) = entry.iter().find(|r| alive(&r.member.id)) {
                hops.push(Hop {
                    row,
                    column,
                    neighbor,
                    forward_level: row + 1,
                });
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::{IdSpec, UserId};
    use rekey_net::HostId;
    use rekey_table::{Member, PrimaryPolicy};

    fn spec() -> IdSpec {
        IdSpec::new(2, 4).unwrap()
    }

    fn member(digits: [u16; 2], host: usize) -> Member {
        Member {
            id: UserId::new(&spec(), digits.to_vec()).unwrap(),
            host: HostId(host),
            joined_at: 0,
        }
    }

    fn rec(m: &Member, rtt: u64) -> rekey_table::NeighborRecord {
        rekey_table::NeighborRecord { member: *m, rtt }
    }

    #[test]
    fn server_sends_one_copy_per_populated_digit() {
        let mut st = ServerTable::new(&spec(), 2);
        let a = member([0, 0], 0);
        let b = member([0, 1], 1);
        let c = member([2, 0], 2);
        st.insert(rec(&a, 10));
        st.insert(rec(&b, 5));
        st.insert(rec(&c, 7));
        let hops = server_next_hops(&st);
        assert_eq!(hops.len(), 2);
        assert!(hops.iter().all(|h| h.forward_level == 1 && h.row == 0));
        // Primary of column 0 is b (smaller RTT).
        assert_eq!(hops[0].neighbor.member.id, b.id);
        assert_eq!(hops[1].neighbor.member.id, c.id);
    }

    #[test]
    fn user_forwards_rows_from_level_down() {
        let owner = member([0, 0], 0);
        let sibling = member([0, 1], 1);
        let far = member([2, 0], 2);
        let mut t = NeighborTable::new(&spec(), owner.id, 2, PrimaryPolicy::SmallestRtt);
        t.insert(rec(&sibling, 4));
        t.insert(rec(&far, 9));
        // At level 0 (data sender) the user covers both rows.
        let hops = user_next_hops(&t, 0);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].row, 0);
        assert_eq!(hops[0].forward_level, 1);
        assert_eq!(hops[0].neighbor.member.id, far.id);
        assert_eq!(hops[1].row, 1);
        assert_eq!(hops[1].forward_level, 2);
        // At level 1 only row 1 remains.
        let hops = user_next_hops(&t, 1);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].neighbor.member.id, sibling.id);
        // At level D the user forwards nothing (line 2 of Fig. 2).
        assert!(user_next_hops(&t, 2).is_empty());
    }

    #[test]
    fn failover_falls_back_within_the_same_bucket() {
        let owner = member([0, 0], 0);
        let near = member([2, 1], 1); // (0, 2) bucket, rtt 3 → primary
        let backup = member([2, 3], 2); // (0, 2) bucket, rtt 8
        let sibling = member([0, 1], 3); // (1, 1) bucket
        let mut t = NeighborTable::new(&spec(), owner.id, 2, PrimaryPolicy::SmallestRtt);
        t.insert(rec(&near, 3));
        t.insert(rec(&backup, 8));
        t.insert(rec(&sibling, 5));

        // All alive: the bucket primary carries the copy.
        let hops = user_next_hops_with(&t, 0, &|_| true);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].neighbor.member.id, near.id);

        // The primary is a stale record (crashed, not yet evicted): the
        // copy falls back to the next neighbor in the same (0, 2) bucket.
        let dead = near.id;
        let hops = user_next_hops_with(&t, 0, &move |id| *id != dead);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].row, 0);
        assert_eq!(hops[0].column, 2);
        assert_eq!(hops[0].neighbor.member.id, backup.id);

        // Whole bucket down: the entry produces no hop, others unaffected.
        let (d1, d2) = (near.id, backup.id);
        let hops = user_next_hops_with(&t, 0, &move |id| *id != d1 && *id != d2);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].neighbor.member.id, sibling.id);

        // Occupancy-index walk agrees with the plain primary walk when
        // everyone is alive.
        let plain: Vec<_> = user_next_hops(&t, 0)
            .into_iter()
            .map(|h| (h.row, h.column, h.neighbor.member.id))
            .collect();
        let with: Vec<_> = user_next_hops_with(&t, 0, &|_| true)
            .into_iter()
            .map(|h| (h.row, h.column, h.neighbor.member.id))
            .collect();
        assert_eq!(plain, with);
    }

    #[test]
    fn hop_prefix_names_the_served_subtree() {
        let owner = member([0, 0], 0);
        let sibling = member([0, 1], 1);
        let far = member([2, 0], 2);
        let mut t = NeighborTable::new(&spec(), owner.id, 2, PrimaryPolicy::SmallestRtt);
        t.insert(rec(&sibling, 4));
        t.insert(rec(&far, 9));
        for hop in user_next_hops(&t, 0) {
            let prefix = hop.prefix();
            assert_eq!(prefix.len(), hop.row + 1);
            assert!(prefix.is_prefix_of_id(&hop.neighbor.member.id));
            // Row s hops stay inside the owner's level-s subtree and differ
            // from the owner at digit s (that is what makes it an (s, j)
            // neighbor).
            assert_eq!(prefix.digits()[..hop.row], owner.id.digits()[..hop.row]);
            assert_eq!(prefix.digits()[hop.row], hop.column);
            assert_ne!(prefix.digits()[hop.row], owner.id.digits()[hop.row]);
        }
    }
}
