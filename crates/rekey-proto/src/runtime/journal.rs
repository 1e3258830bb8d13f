//! What a key-server replica keeps to recover: the replication log's
//! entries and the checkpoint it rolls back to.
//!
//! The paper's key server is a single point of failure; a deployment would
//! journal its state so a respawned process resumes rekeying instead of
//! orphaning the group. The runtime models exactly that: at every interval
//! boundary — in the step that multicasts the interval, so no member can
//! ever be ahead of it — each replica's `RtServer::apply` records a
//! [`Checkpoint`] holding the complete [`GroupServer`] (membership, key
//! tree, RNG position, and the group's mutation count with every table's
//! version), and the per-interval message history that answers NACKs. The
//! checkpoint is a field of the replica. A restart restores it, bumps the
//! server *epoch*, and re-announces itself with an immediate interval;
//! members that adopted tables the rollback discarded detect the epoch
//! change and resync.
//!
//! Membership mutations between the last checkpoint and a crash are lost
//! by design (as they would be with a real write-behind journal): the
//! affected members re-request — a joiner whose admission rolled back is
//! told `NotMember` and rejoins, a leaver is only acknowledged *after* the
//! checkpoint that contains its departure, so an unacknowledged leaver
//! keeps retransmitting and departs again.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::GroupServer;

use super::core::ReplOp;
use super::IntervalMessage;

/// Intervals of rekey history a checkpoint (and the live server) retains
/// for unicast NACK recovery. A member that falls further behind than
/// this window has already escalated past the NACK retry cap to a full
/// resync, so older `Arc<IntervalMessage>`s are dead weight — pruning to
/// the window bounds checkpoint memory regardless of session length.
pub(crate) const HISTORY_WINDOW: usize = 64;

/// One replicated mutation of the key server's state: the unit the
/// primary streams to follower replicas (`RtMsg::ReplEntry`) and the
/// unit a follower replays against its own [`GroupServer`]. Replication
/// is deterministic state-machine replication — followers re-execute the
/// op, they do not receive state — so an entry carries the *inputs* of
/// the mutation, never its outputs.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// Position in the primary's op log (first entry is 1). Acks and
    /// elections compare these watermarks.
    pub idx: u64,
    /// Server epoch the op was appended under.
    pub epoch: u64,
    /// The mutation itself.
    pub op: ReplOp,
}

/// One interval's durable server state.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// The complete server state machine at the interval boundary — its
    /// `Group` carries the mutation count a restarted server resumes
    /// from.
    pub server: GroupServer,
    /// The replication-log watermark covered by this checkpoint; a
    /// restarted replica resumes acknowledging from here.
    pub log_idx: u64,
    /// The per-interval rekey messages kept for unicast NACK recovery.
    /// Shared by reference with the live history, so a checkpoint costs no
    /// payload copies; like it, at most [`HISTORY_WINDOW`] intervals.
    pub history: BTreeMap<u64, Arc<IntervalMessage>>,
}
