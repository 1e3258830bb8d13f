//! Helpers for wiring [`rekey_sim::FaultPlan`] chaos scenarios to the
//! group runtime's node numbering.
//!
//! The [`crate::runtime::ShardedGroupRuntime`] maps protocol actors onto
//! simulator [`NodeId`]s with a fixed scheme: the key server is node `0`
//! ([`SERVER_NODE`]) and member *handle* `i` — the `i`-th member dealt in
//! or spawned by a [`crate::ChurnEvent::join`] — is node `i + 1`
//! (with `replicas` server replicas the block grows to nodes
//! `0..replicas`, see [`member_node_with_replicas`]). Fault plans are expressed in `NodeId`s, so a
//! test that wants to "partition members 3 and 7 away from the server" or
//! "kill the server at t=24s" needs this mapping; keeping it in one place
//! stops every chaos test from re-deriving the `+1` offset.
//!
//! [`modulo_cells`] builds the common soak-test shape — an `n`-way
//! partition of the member population with the server pinned to cell 0 —
//! so that exactly the cells' members lose contact with the server (and
//! each other) while the plan is active.

use rekey_net::HostId;
use rekey_sim::NodeId;

use crate::RuntimeConfig;

/// The key server's simulator node. The runtime always spawns the server
/// first, at node `0`.
pub const SERVER_NODE: NodeId = NodeId(0);

/// The simulator node hosting member `handle` (the index returned by
/// [`crate::runtime::ShardedGroupRuntime::run_trace`] for its join event).
pub(crate) fn member_node(handle: usize) -> NodeId {
    NodeId(handle + 1)
}

/// The simulator node of server replica `r` in a runtime built with
/// `replicas` server replicas ([`crate::RuntimeConfig`]'s `replicas`
/// knob): replicas occupy nodes `0..replicas`, replica 0 being the
/// initial primary ([`SERVER_NODE`]).
pub fn replica_node(replica: usize) -> NodeId {
    NodeId(replica)
}

/// The simulator node hosting member `handle` in a runtime with
/// `replicas` server replicas: members are offset past the whole replica
/// block. With `replicas == 1` this is node `handle + 1`.
pub fn member_node_with_replicas(handle: usize, replicas: usize) -> NodeId {
    let config = RuntimeConfig::builder().replicas(replicas.max(1)).build();
    config.member_node(HostId(handle))
}

/// Splits member handles `0..members` into `cells` partition cells by
/// handle modulo `cells`, with the key server riding in cell 0. Feed the
/// result to [`rekey_sim::FaultPlan::partition`] for an `cells`-way split
/// where only cell 0 keeps the server.
///
/// # Panics
///
/// Panics if `cells` is zero.
pub fn modulo_cells(members: usize, cells: usize) -> Vec<Vec<NodeId>> {
    assert!(cells > 0, "a partition needs at least one cell");
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); cells];
    out[0].push(SERVER_NODE);
    for handle in 0..members {
        out[handle % cells].push(member_node(handle));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_nodes_are_offset_past_the_server() {
        assert_eq!(SERVER_NODE, NodeId(0));
        assert_eq!(member_node(0), NodeId(1));
        assert_eq!(member_node(9), NodeId(10));
    }

    #[test]
    fn replica_mapping_offsets_members_past_the_replica_block() {
        assert_eq!(replica_node(0), SERVER_NODE);
        assert_eq!(replica_node(2), NodeId(2));
        assert_eq!(member_node_with_replicas(0, 3), NodeId(3));
        assert_eq!(member_node_with_replicas(5, 3), NodeId(8));
        // One replica degenerates to the single-server mapping.
        assert_eq!(member_node_with_replicas(4, 1), member_node(4));
    }

    #[test]
    fn modulo_cells_pins_the_server_to_cell_zero() {
        let cells = modulo_cells(7, 3);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0][0], SERVER_NODE);
        // Handles 0,3,6 join the server; 1,4 and 2,5 form the cut-off cells.
        assert_eq!(
            cells[0],
            vec![SERVER_NODE, member_node(0), member_node(3), member_node(6)]
        );
        assert_eq!(cells[1], vec![member_node(1), member_node(4)]);
        assert_eq!(cells[2], vec![member_node(2), member_node(5)]);
        // Every member lands in exactly one cell.
        let total: usize = cells.iter().map(Vec::len).sum();
        assert_eq!(total, 7 + 1);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_panic() {
        modulo_cells(4, 0);
    }
}
