//! The key server's crash journal: one checkpoint per completed rekey
//! interval.
//!
//! The paper's key server is a single point of failure; a deployment would
//! journal its state so a respawned process resumes rekeying instead of
//! orphaning the group. This module models exactly that: at the end of
//! every interval — *after* the rekey multicast, so no member can ever be
//! ahead of the journal — the runtime records a [`Checkpoint`] holding the
//! complete [`GroupServer`] (membership, key tree, RNG position, and the
//! group's mutation count with every table's version), and the
//! per-interval message history that answers NACKs. A restart restores the
//! latest checkpoint, bumps the server *epoch*, and re-announces itself
//! with an immediate interval; members that adopted tables the rollback
//! discarded detect the epoch change and resync.
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
    /// payload copies. Bounded to [`HISTORY_WINDOW`] intervals at
    /// [`Journal::record`] time.
    pub history: BTreeMap<u64, Arc<IntervalMessage>>,
}

/// The journal itself: the latest checkpoint plus a count of how many were
/// ever recorded (each new checkpoint supersedes the previous — recovery
/// only ever needs the most recent interval boundary).
#[derive(Debug, Default, Clone)]
pub struct Journal {
    latest: Option<Checkpoint>,
    recorded: u64,
    disabled: bool,
}

impl Journal {
    /// An empty journal (no checkpoint yet — a restart before the first
    /// interval keeps the live state).
    pub(crate) fn new() -> Journal {
        Journal::default()
    }

    /// A journal that records nothing. A checkpoint clones the complete
    /// server state — membership, every neighbor table, the key tree —
    /// which is O(N) memory and time per interval; runtimes that model no
    /// server crashes (a dealt group on one unfaulted replica) opt out.
    pub(crate) fn disabled() -> Journal {
        Journal {
            latest: None,
            recorded: 0,
            disabled: true,
        }
    }

    /// `false` for [`Journal::disabled`] journals. Callers check this
    /// *before* building a [`Checkpoint`], so a disabled journal also
    /// skips the state clone, not just its storage.
    pub(crate) fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Records `checkpoint`, superseding any previous one. A disabled
    /// journal drops it. The checkpoint's NACK history is pruned to the
    /// last [`HISTORY_WINDOW`] intervals so journal memory stays bounded
    /// no matter how long the session runs.
    pub(crate) fn record(&mut self, mut checkpoint: Checkpoint) {
        if self.disabled {
            return;
        }
        while checkpoint.history.len() > HISTORY_WINDOW {
            checkpoint.history.pop_first();
        }
        self.recorded += 1;
        self.latest = Some(checkpoint);
    }

    /// The most recent checkpoint, if any was recorded.
    #[cfg(test)]
    pub(crate) fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }

    /// Checkpoints recorded over the journal's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Clones the latest checkpoint for a restart; the journal itself is
    /// untouched, so repeated restarts restore the same state.
    pub(crate) fn restore(&self) -> Option<Checkpoint> {
        self.latest.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
    use rekey_sim::seeded_rng;

    fn server_with_members(n: usize) -> (MatrixNetwork, GroupServer) {
        let mut rng = seeded_rng(0x10AD);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let mut server = crate::GroupConfig::for_spec(&rekey_id::IdSpec::new(3, 8).unwrap())
            .k(2)
            .seed(3)
            .build(HostId(net.host_count() - 1));
        for h in 0..n {
            server.request_join(HostId(h), &net, h as u64).unwrap();
        }
        server.end_interval();
        (net, server)
    }

    #[test]
    fn empty_journal_restores_nothing() {
        let journal = Journal::new();
        assert!(journal.latest().is_none());
        assert!(journal.restore().is_none());
        assert_eq!(journal.recorded(), 0);
    }

    #[test]
    fn restore_is_an_independent_snapshot() {
        let (net, server) = server_with_members(5);
        let mut journal = Journal::new();
        journal.record(Checkpoint {
            server: server.clone(),
            log_idx: 5,
            history: BTreeMap::new(),
        });
        assert_eq!(journal.recorded(), 1);

        // Mutate a restored copy: the journal's checkpoint is unaffected,
        // so a second restart sees the same state again.
        let mut restored = journal.restore().unwrap();
        assert_eq!(restored.server.group().mutations(), 5);
        assert_eq!(restored.server.interval(), server.interval());
        let victim = restored.server.group().members()[0].id;
        restored.server.request_leave(&victim, &net).unwrap();
        restored.server.end_interval();
        assert_eq!(journal.latest().unwrap().server.group().len(), 5);
        assert_eq!(
            journal.latest().unwrap().server.interval(),
            server.interval()
        );
    }

    #[test]
    fn newer_checkpoints_supersede_older_ones() {
        let (_, server) = server_with_members(4);
        let mut journal = Journal::new();
        journal.record(Checkpoint {
            server: server.clone(),
            log_idx: 4,
            history: BTreeMap::new(),
        });
        journal.record(Checkpoint {
            server,
            log_idx: 9,
            history: BTreeMap::new(),
        });
        assert_eq!(journal.recorded(), 2);
        assert_eq!(journal.latest().unwrap().log_idx, 9);
    }

    /// The restored key tree reproduces the same group key: a member that
    /// was current at the checkpoint stays current across a restart.
    #[test]
    fn restored_tree_preserves_the_group_key() {
        let (_, server) = server_with_members(6);
        let key = server.tree().group_key().cloned();
        let mut journal = Journal::new();
        journal.record(Checkpoint {
            server,
            log_idx: 6,
            history: BTreeMap::new(),
        });
        let restored = journal.restore().unwrap();
        assert_eq!(restored.server.tree().group_key().cloned(), key);
    }

    /// `record` prunes the NACK history to [`HISTORY_WINDOW`] intervals:
    /// a checkpoint stuffed with an unbounded history comes back bounded,
    /// keeping the *newest* window.
    #[test]
    fn record_bounds_the_checkpoint_history() {
        let (_, server) = server_with_members(3);
        let mut history = BTreeMap::new();
        for interval in 1..=(HISTORY_WINDOW as u64 * 3) {
            history.insert(
                interval,
                Arc::new(IntervalMessage {
                    interval,
                    epoch: 0,
                    sent_at: interval * 1_000,
                    seq: interval,
                    encryptions: Vec::new(),
                    index: crate::SplitIndex::build(&[]),
                }),
            );
        }
        let mut journal = Journal::new();
        journal.record(Checkpoint {
            server,
            log_idx: 1,
            history,
        });
        let kept = &journal.latest().unwrap().history;
        assert_eq!(kept.len(), HISTORY_WINDOW);
        assert_eq!(
            *kept.keys().next().unwrap(),
            HISTORY_WINDOW as u64 * 2 + 1,
            "the oldest intervals are the ones pruned"
        );
        assert_eq!(*kept.keys().last().unwrap(), HISTORY_WINDOW as u64 * 3);
    }

    /// Back-to-back restores from the same checkpoint are byte-for-byte
    /// the same state: a double failure (restore, crash again before the
    /// next checkpoint) replays from the identical snapshot, group key
    /// included.
    #[test]
    fn repeated_restores_replay_the_same_checkpoint() {
        let (net, server) = server_with_members(6);
        let key = server.tree().group_key().cloned();
        let mut journal = Journal::new();
        journal.record(Checkpoint {
            server,
            log_idx: 6,
            history: BTreeMap::new(),
        });

        // First restore: mutate it past the checkpoint (the mutations a
        // second crash would lose), then restore again.
        let mut first = journal.restore().unwrap();
        let victim = first.server.group().members()[0].id;
        first.server.request_leave(&victim, &net).unwrap();
        first.server.end_interval();

        let second = journal.restore().unwrap();
        assert_eq!(second.server.group().mutations(), 6);
        assert_eq!(second.log_idx, 6);
        assert_eq!(second.server.group().len(), 6);
        assert_eq!(second.server.tree().group_key().cloned(), key);
        assert_eq!(
            second.server.interval(),
            journal.latest().unwrap().server.interval()
        );
    }
}
