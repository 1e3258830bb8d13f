//! The sans-I/O protocol core: server and member state machines.
//!
//! Everything in this module is pure protocol logic. The state machines
//! ([`RtServer`], [`RtMember`]) take one [`Event`] at a time — a decoded
//! [`RtMsg`] a peer sent, or an [`RtLocal`] of the node's own — and write
//! what they want done into an [`Outbox`] as [`Effect`]s, with no
//! knowledge of the clock, the scheduler, or the wire. Drivers own all of
//! that:
//!
//! * [`ShardedGroupRuntime`](super::shard::ShardedGroupRuntime) runs the
//!   machines inside the deterministic discrete-event simulator;
//! * [`UdpGroupDriver`](super::socket::UdpGroupDriver) runs the same
//!   machines over real `std::net::UdpSocket` endpoints and OS threads,
//!   encoding every [`RtMsg`] through the versioned wire codec in
//!   [`wire`](super::wire).
//!
//! The two inputs are distinct types on purpose: the network controls
//! which [`RtMsg`]s arrive, only the node and its driver can raise an
//! [`RtLocal`], and the codec has no tag for one — a peer cannot fire
//! another node's timer or issue its driver's commands.
//!
//! The machines hold nothing but their own protocol state, so a node is a
//! value: it can be cloned mid-stream and fed the same events as the
//! original, with the same effects. Everything else reaches `handle` as
//! an argument. The [`Outbox`] is the driver's lane context: the clock,
//! the knobs, the §3.1 parameters, the access RTTs, whether the driver is
//! draining for shutdown, and the lane's metric [`Sinks`]. The key server
//! also borrows the driver's network for the calls that consult it. What
//! the drivers would otherwise each spell out — how a replica or a
//! pre-welcomed member starts, which timers bring a replica set up, which
//! replica is acting primary — lives here too, once.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use rand::Rng;
use rekey_crypto::Encryption;
use rekey_id::{IdPrefix, UserId};
use rekey_metrics::{LocalHistogram, SpanLog};
use rekey_net::{HostId, Micros, Network};
use rekey_sim::{node_rng, NodeId, SimTime};
use rekey_table::{Member, NeighborRecord, NeighborTable};
use rekey_tmesh::forward::{server_next_hops, user_next_hops_with};

use crate::assign::{AssignParams, Probe};
use crate::group::lists;
use crate::transport::{PrefixBuf, SplitIndex};
use crate::{Group, GroupServer, UserAgent, WelcomePacket};

use super::{journal, RuntimeConfig};

/// One input to a state machine: the sans-I/O input boundary.
#[derive(Debug)]
pub(crate) enum Event {
    /// A message `from` sent over the network — the only kind of event a
    /// peer (or anyone who can reach the socket) controls.
    Net { from: NodeId, msg: RtMsg },
    /// One of the node's own timers firing, or a command of its driver.
    Local(RtLocal),
}

/// One thing a state machine wants done.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Emit `msg` toward node `to` (subject to the driver's delivery
    /// model).
    Send { to: NodeId, msg: RtMsg },
    /// Raise `event` at this node after `delay` µs (timers are immune to
    /// loss — they model local alarms, not packets).
    Timer { delay: SimTime, event: RtLocal },
}

/// What handling one [`Event`] produced — the sans-I/O output boundary —
/// and the context of the lane it ran in. Each executor lane (a simulator
/// shard, the coordinator, a socket worker) owns one and hands it to
/// every `handle` it runs. The driver sets `now` and `me` per event and
/// drains `effects` — one vector, in emission order, because the
/// simulator's FIFO tie-break makes that order behaviour. Metric records
/// are plain writes into the lane's [`Sinks`], in the order the lane
/// handles its events.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// The driver's clock in µs: virtual time under the simulator,
    /// monotonic wall-clock µs under the socket driver.
    pub(crate) now: SimTime,
    /// The node the current event is delivered to.
    pub(crate) me: NodeId,
    /// The effects of the current event.
    pub(crate) effects: Vec<Effect>,
    /// Set by the driver once it began its shutdown drain, before the
    /// drain's first event: machines stop re-arming timers and fire their
    /// retries inline instead.
    pub(crate) draining: bool,
    /// What the lane's nodes record.
    pub(crate) sinks: Sinks,
    knobs: Knobs,
    /// The §3.1 parameters a joiner probes with.
    assign: Arc<AssignParams>,
    /// Each member host's access-link RTT `h(u, gw_u)` (§3.1.2), which its
    /// `Pong`s carry; empty where the driver models no access links.
    access: Arc<[Micros]>,
}

impl Outbox {
    /// An empty outbox for a lane of the runtime `knobs` describe; the
    /// driver sets `now` and `me` per event.
    pub(crate) fn new(knobs: Knobs, assign: Arc<AssignParams>, access: Arc<[Micros]>) -> Outbox {
        Outbox {
            now: 0,
            me: SERVER,
            effects: Vec::new(),
            draining: false,
            sinks: Sinks::default(),
            knobs,
            assign,
            access,
        }
    }

    /// The timing/retry knobs.
    pub(crate) fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// The access-link RTT of member node `node`'s host.
    fn access_rtt(&self, node: NodeId) -> Micros {
        let host = node.0.checked_sub(self.knobs.replicas);
        host.and_then(|h| self.access.get(h)).copied().unwrap_or(0)
    }

    /// Records one span ending now.
    fn span(&mut self, name: &'static str, start: SimTime, detail: u64) {
        self.sinks.spans.record(name, start, self.now, detail);
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn self_id(&self) -> NodeId {
        self.me
    }

    pub(crate) fn send(&mut self, to: NodeId, msg: RtMsg) {
        self.effects.push(Effect::Send { to, msg });
    }

    pub(crate) fn timer(&mut self, delay: SimTime, event: RtLocal) {
        self.effects.push(Effect::Timer { delay, event });
    }
}

/// The key server's node id: always node 0. With `replicas > 1` this is
/// the *initial primary*; replicas occupy nodes `0..replicas` and members
/// are offset past the whole block (see [`Knobs::replicas`]).
pub(crate) const SERVER: NodeId = NodeId(0);

/// One interval's rekey message as multicast over the overlay: the
/// encryptions plus the split index that addresses them (Fig. 5). Shared
/// by reference between all in-flight copies — forwarding a copy costs no
/// payload clone.
pub struct IntervalMessage {
    /// The interval this message keys.
    pub interval: u64,
    /// The server epoch that produced it (bumped on every restart).
    pub epoch: u64,
    /// When the server multicast it (recovery latency accounting).
    pub sent_at: SimTime,
    /// The server's membership-mutation count at multicast time. Encoded
    /// for the record; members do not read it — each learns its own
    /// table's version from `Recover` and `ServerPong`.
    pub seq: u64,
    /// The batch rekey encryptions.
    pub encryptions: Vec<Encryption>,
    /// Split index over the encryption IDs.
    pub index: SplitIndex,
}

impl std::fmt::Debug for IntervalMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntervalMessage")
            .field("interval", &self.interval)
            .field("epoch", &self.epoch)
            .field("sent_at", &self.sent_at)
            .field("encryptions", &self.encryptions.len())
            .finish_non_exhaustive()
    }
}

/// One replicated key-server mutation, as streamed from the primary to
/// its follower replicas inside [`RtMsg::ReplEntry`]. Replication is
/// deterministic state-machine replication: a follower *re-executes* the
/// op against its own [`GroupServer`] (same seed, same op order — so the
/// same RNG stream and the same keys). The one outcome an op carries is
/// a join's ID: the §3.1 probe that chose it ran at the joiner (or, on the
/// socket driver, against the primary's RTT model), not at the follower.
#[derive(Debug, Clone)]
pub enum ReplOp {
    /// The admission of `host` under `id`, which the follower admits
    /// through the same step-4 completion — `at` is the primary's clock
    /// at admission, so replayed `joined_at` stamps are identical.
    Join {
        /// The joiner's host.
        host: HostId,
        /// The primary's admission time.
        at: Micros,
        /// The ID the primary admitted the joiner under.
        id: UserId,
    },
    /// `request_leave(id)` — voluntary leave or detected failure alike.
    Leave {
        /// The departing member.
        id: UserId,
    },
    /// `end_interval()` — one batch rekey boundary. Followers mirror the
    /// interval history entry (for post-promotion NACK recovery) and cut
    /// a checkpoint at this watermark.
    Interval {
        /// The primary's multicast time for the interval message.
        sent_at: SimTime,
    },
}

/// The protocol messages: exactly what one node may send another, and
/// all the wire codec has a tag for. See the
/// [runtime module docs](super) for the taxonomy.
#[derive(Debug, Clone)]
pub enum RtMsg {
    /// Joiner → server: admit me; retransmitted with backoff until
    /// `JoinSeed` or `JoinAccepted`.
    JoinRequest,
    /// Server → joiner, on the simulated driver: the record of an existing
    /// member to start the §3.1 ID probe from.
    JoinSeed {
        /// The bootstrap member record.
        seed: Member,
    },
    /// Joiner → member: §3.1 step 1, asking for the records the member's
    /// table holds under `target`.
    Query {
        /// The target ID prefix.
        target: IdPrefix,
    },
    /// Member → joiner: the answer to a `Query`.
    QueryReply {
        /// The query's target prefix.
        target: IdPrefix,
        /// The member's table records under `target`.
        records: Vec<NeighborRecord>,
    },
    /// Joiner → server: §3.1 step 4, the digits the joiner's probe
    /// determined, which the server completes to a unique ID;
    /// retransmitted with backoff until `JoinAccepted`.
    JoinDigits {
        /// The probed digits, as a prefix of the joiner's ID.
        digits: IdPrefix,
    },
    /// Server → joiner: admission into the overlay with a ready table.
    JoinAccepted {
        /// The new member's record.
        member: Member,
        /// The joiner's neighbor table at admission time.
        table: Arc<NeighborTable>,
        /// Server epoch of the snapshot.
        epoch: u64,
        /// The table's version (see [`RtMsg::Table`]).
        seq: u64,
    },
    /// Server → joiner at interval end: the key material.
    Welcome {
        /// Path keys and interval.
        welcome: WelcomePacket,
        /// Server epoch issuing the keys.
        epoch: u64,
        /// When the next interval ends, anchoring the NACK check timer.
        next_interval_at: SimTime,
    },
    /// Server → a member whose neighbor table a join or leave just changed
    /// (§3.2 repair, computed once by the server's `Group`): the new table.
    Table {
        /// The receiver's neighbor table as the server now holds it.
        table: Arc<NeighborTable>,
        /// Server epoch of the mutation.
        epoch: u64,
        /// The table's version: the server's mutation count when it last
        /// changed. A member adopts only a version above the one it holds.
        seq: u64,
    },
    /// Leaver → server: retire me; retransmitted with backoff until
    /// `LeaveAck`.
    LeaveRequest,
    /// Server → leaver, once the departure has reached the journal.
    LeaveAck,
    /// Member → server: a neighbor stopped answering pings. Re-sent every
    /// beat until a pushed table drops the suspect, so a lost notice
    /// (server outage, partition) only delays detection.
    FailureNotice {
        /// The suspect.
        failed: UserId,
    },
    /// One overlay copy of an interval's rekey message (lossy).
    Forward {
        /// `forward_level` of Fig. 2 at the receiver.
        level: usize,
        /// The `(i, j)`-subtree prefix this copy serves (split key).
        prefix: PrefixBuf,
        /// The shared interval message.
        message: Arc<IntervalMessage>,
    },
    /// Member → server: interval missing past its deadline.
    Nack {
        /// The missing interval.
        interval: u64,
        /// The sender's own id, for the server to verify.
        id: UserId,
    },
    /// Server → member: the member's related set for a NACKed interval.
    Recover {
        /// The recovered interval.
        interval: u64,
        /// Exactly the requester's related encryptions (Lemma 3).
        encryptions: Vec<Encryption>,
        /// When the interval was originally multicast (latency
        /// accounting).
        sent_at: SimTime,
        /// The recipient's table version at the server (lost-push
        /// detector; the shutdown flush sends one to every member).
        seq: u64,
    },
    /// Member → neighbor: heartbeat probe; also a joiner's §3.1 step-2
    /// RTT probe.
    Ping {
        /// Correlation token.
        token: u64,
    },
    /// Neighbor → member: the reply to a `Ping`.
    Pong {
        /// Correlation token.
        token: u64,
        /// The responder's access-link RTT `h(w, gw_w)` (§3.1.2), which a
        /// joiner subtracts from the round trip it timed.
        access_rtt: Micros,
    },
    /// Member → server: heartbeat liveness/membership probe.
    ServerPing {
        /// The prober's own id, for the server to verify.
        id: UserId,
    },
    /// Server → member: the prober is a member in good standing. Carries
    /// the member's evidence triple.
    ServerPong {
        /// Current server epoch.
        epoch: u64,
        /// The prober's table version at the server.
        seq: u64,
        /// Latest completed interval.
        interval: u64,
    },
    /// Server → node: the probed or requested id is not (or no longer) a
    /// member under this server. The node rejoins from scratch.
    NotMember {
        /// The id the server disowns.
        id: UserId,
    },
    /// Member → server: request a full state snapshot (table behind the
    /// server's, epoch change, or NACK retries exhausted).
    ResyncRequest {
        /// The requester's id, for the server to verify.
        id: UserId,
    },
    /// Server → member: a full state snapshot — record, table, and
    /// current path keys.
    Resync {
        /// The member's record.
        member: Member,
        /// The member's neighbor table as the server computes it.
        table: Arc<NeighborTable>,
        /// Current path keys and interval.
        welcome: WelcomePacket,
        /// Server epoch of the snapshot.
        epoch: u64,
        /// The table's version (see [`RtMsg::Table`]).
        seq: u64,
        /// When the next interval ends, re-anchoring the check timer.
        next_interval_at: SimTime,
    },
    /// Primary → follower: one replication-log entry. Streamed on append
    /// and re-sent from the follower's acknowledged watermark on every
    /// replication tick, so losses and outages self-heal.
    ReplEntry {
        /// Log position (first entry is 1).
        idx: u64,
        /// Server epoch the op was appended under.
        epoch: u64,
        /// The mutation to replay.
        op: ReplOp,
    },
    /// Follower → primary: contiguous replay progress.
    ReplAck {
        /// The acknowledging replica's index.
        replica: usize,
        /// Highest contiguously applied log index.
        idx: u64,
    },
    /// Primary → follower: liveness beacon plus the log shape. Followers
    /// answer with a `ReplAck` so the primary learns their watermark even
    /// when no new entry flows.
    ReplHeartbeat {
        /// The sender's server epoch.
        epoch: u64,
        /// The head of the sender's log (last appended index).
        idx: u64,
        /// The sender's replica index.
        replica: usize,
        /// Oldest log index the sender can still resend; a follower
        /// behind `floor` can never catch up incrementally.
        floor: u64,
    },
    /// Follower → replicas: the primary looks dead, stand for election.
    /// Carries the candidate's replay watermark; the most-caught-up
    /// candidate (ties broken toward the lowest replica index) wins.
    Candidacy {
        /// The candidate's server epoch.
        epoch: u64,
        /// The candidate's applied log watermark.
        idx: u64,
        /// The candidate's replica index.
        replica: usize,
    },
}

/// What only the node itself or its driver can raise at it: its timers
/// and the driver's commands. Never encoded, never decoded. Every timer
/// carries the generation of the chain that armed it, so a restart or a
/// role change cancels a stale chain by bumping the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RtLocal {
    /// Server timer: end the current rekey interval.
    IntervalTick { gen: u64 },
    /// Member timer: ping neighbors, evict the unresponsive.
    HeartbeatTick { gen: u64 },
    /// Member timer: NACK intervals still missing past their deadline.
    IntervalCheck { gen: u64 },
    /// Member timer: fire due retry entries.
    RetryTick { gen: u64 },
    /// Primary timer: resend unacknowledged log entries and heartbeat the
    /// followers.
    ReplTick { gen: u64 },
    /// Follower timer: check primary liveness, start an election on
    /// silence.
    ReplCheck { gen: u64 },
    /// Follower timer: the election's candidacy window closed — promote
    /// the winner.
    ElectionTick { gen: u64 },
    /// Driver → unjoined node: send a `JoinRequest` and keep retrying.
    Join,
    /// Driver → member: send a `LeaveRequest` and retire.
    Leave,
    /// Driver's `finish` → primary: process pending membership work now
    /// and push every member its latest related set.
    Flush,
    /// Driver → node whose outage window ended: the process comes back up
    /// and re-arms its timers (the server additionally restores its
    /// journal and bumps its epoch).
    Restart,
}

/// Copyable timing/retry knobs shared by every node of one runtime.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Knobs {
    pub(crate) rekey_period: SimTime,
    pub(crate) heartbeat_period: SimTime,
    pub(crate) nack_grace: SimTime,
    pub(crate) retry_base: SimTime,
    pub(crate) retry_cap: u32,
    pub(crate) seed: u64,
    /// Server replicas: nodes `0..replicas` run [`RtServer`]s (node 0 is
    /// the initial primary), members are offset past the block. `1`
    /// reproduces the historical single-server runtime bit for bit.
    pub(crate) replicas: usize,
}

impl Knobs {
    pub(crate) fn of_config(config: &RuntimeConfig) -> Knobs {
        Knobs {
            rekey_period: config.rekey_period,
            heartbeat_period: config.heartbeat_period,
            nack_grace: config.nack_grace,
            retry_base: config.retry_base,
            retry_cap: config.retry_cap,
            seed: config.seed,
            replicas: config.replicas,
        }
    }

    /// Exponential backoff: `retry_base << attempts`, with the exponent
    /// saturated at the retry cap.
    fn backoff(&self, attempts: u32) -> SimTime {
        self.retry_base << attempts.min(self.retry_cap)
    }

    /// Replication stream period: entries are resent and heartbeats sent
    /// twice per rekey interval, so a follower is never more than half an
    /// interval behind a live primary.
    pub(crate) fn repl_period(&self) -> SimTime {
        (self.rekey_period / 2).max(1)
    }

    /// The node hosting `host`'s member, offset past the replica block.
    fn member_node(&self, host: HostId) -> NodeId {
        NodeId(host.0 + self.replicas)
    }

    /// The member host behind node `node`.
    fn member_host(&self, node: NodeId) -> HostId {
        debug_assert!(
            node.0 >= self.replicas,
            "server replicas have no member host"
        );
        HostId(node.0 - self.replicas)
    }

    /// Follower liveness-check period.
    pub(crate) fn repl_check_period(&self) -> SimTime {
        self.rekey_period.max(1)
    }

    /// Primary silence past this threshold starts an election: two full
    /// rekey periods, i.e. at least four missed replication heartbeats.
    pub(crate) fn primary_silence(&self) -> SimTime {
        2 * self.rekey_period
    }
}

/// What the nodes of one lane record: five histograms and a span ring.
/// Histogram inserts commute, so lanes merge in any order; span rings are
/// merged by end time, ties in lane order, so the merged tail is a
/// function of (seed, lane layout) and never of thread timing.
#[derive(Debug, Default)]
pub(crate) struct Sinks {
    /// µs from each interval's multicast to its application by a member.
    pub(crate) apply_delay_us: LocalHistogram,
    /// Membership mutations folded into each batch rekey.
    pub(crate) batch_size: LocalHistogram,
    /// Encryptions carried per split `Forward` copy received.
    pub(crate) split_payload: LocalHistogram,
    /// Copies sent per forwarding step (server seeds + member duty).
    pub(crate) forward_fanout: LocalHistogram,
    /// Encryptions per unicast `Recover` reply.
    pub(crate) recovery_size: LocalHistogram,
    /// The server's `interval`/`restart`/`election`/`promotion` spans and
    /// the members' `apply`/`recovery` spans.
    pub(crate) spans: SpanLog,
}

/// Server-side counters of one runtime session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ServerStats {
    /// Completed rekey intervals.
    pub intervals: u64,
    /// Joins admitted.
    pub joins: u64,
    /// Departures processed (leaves + detected failures).
    pub departures: u64,
    /// Departures that arrived as failure notices.
    pub failures_detected: u64,
    /// `Forward` copies seeded by the server.
    pub forward_copies: u64,
    /// NACKs received.
    pub nacks: u64,
    /// Encryptions re-sent via unicast recovery.
    pub recovery_encryptions: u64,
    /// Welcome packets issued.
    pub welcomes: u64,
    /// Full state snapshots served (`Resync` replies).
    pub resyncs: u64,
    /// Server restarts (journal restores + epoch bumps).
    pub restarts: u64,
    /// Checkpoints written to the journal.
    pub checkpoints: u64,
    /// Leave acknowledgements sent (each after a covering checkpoint).
    pub leave_acks: u64,
    /// Elections this replica started after primary silence.
    pub elections: u64,
    /// Times this replica promoted itself to primary.
    pub promotions: u64,
    /// Mutations known lost across restarts and promotions: ops past the
    /// restored checkpoint (single-replica restart) or past the promoted
    /// follower's replay watermark (failover). The affected members
    /// re-request through the normal `NotMember`/leave-retry paths.
    pub lost_mutations: u64,
    /// Peak replication lag (log head minus the slowest known follower
    /// watermark) observed at any replication tick.
    pub repl_lag_peak: u64,
    /// Key-wrap encryptions of the batch rekeys this replica issued.
    pub tree_encryptions: u64,
    /// Retired key versions those batch rekeys resumed.
    pub tombstone_hits: u64,
}

impl ServerStats {
    /// The replica set's counters as one logical server's. Each mutation
    /// is counted once, by whichever replica was primary when it was
    /// applied (followers replay without stats), so the sum stitches the
    /// tallies of the old and new primaries across a failover; with one
    /// replica it is that replica's stats.
    pub(crate) fn sum<'a>(replicas: impl IntoIterator<Item = &'a ServerStats>) -> ServerStats {
        let mut sum = ServerStats::default();
        for s in replicas {
            sum.intervals += s.intervals;
            sum.joins += s.joins;
            sum.departures += s.departures;
            sum.failures_detected += s.failures_detected;
            sum.forward_copies += s.forward_copies;
            sum.nacks += s.nacks;
            sum.recovery_encryptions += s.recovery_encryptions;
            sum.welcomes += s.welcomes;
            sum.resyncs += s.resyncs;
            sum.restarts += s.restarts;
            sum.checkpoints += s.checkpoints;
            sum.leave_acks += s.leave_acks;
            sum.elections += s.elections;
            sum.promotions += s.promotions;
            sum.lost_mutations += s.lost_mutations;
            sum.repl_lag_peak = sum.repl_lag_peak.max(s.repl_lag_peak);
            sum.tree_encryptions += s.tree_encryptions;
            sum.tombstone_hits += s.tombstone_hits;
        }
        sum
    }
}

/// A server replica's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplRole {
    /// Serves members, appends to the log, streams to followers.
    Primary,
    /// Replays the primary's log; ignores member-facing traffic.
    Follower,
}

/// A follower's in-flight election.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ElectionState {
    /// Best watermark seen among candidacies (our own included).
    best_idx: u64,
    /// The replica holding `best_idx` (lowest index wins ties).
    best_replica: usize,
}

/// Entries the primary keeps for resending to lagging followers. Far
/// beyond any lag a live session produces; a follower behind the pruned
/// floor is declared divergent rather than silently skipped.
const LOG_KEEP: usize = 4096;

/// Entries resent per follower per replication tick.
const REPL_BATCH: usize = 64;

/// Per-replica replication state of one [`RtServer`].
#[derive(Debug, Clone)]
pub(crate) struct Replication {
    pub(crate) role: ReplRole,
    /// This replica's index (`0..Knobs::replicas`; also its node id).
    pub(crate) replica: usize,
    /// `false` once replay diverged (an op failed to re-execute, or the
    /// primary's log floor passed our watermark): the replica stops
    /// participating until its next `Restart` rolls it back to a
    /// checkpoint.
    pub(crate) active: bool,
    /// Stale-chain guard shared by `ReplTick`/`ReplCheck`/`ElectionTick`;
    /// bumped on every role change.
    pub(crate) gen: u64,
    /// The tail of the op log (primary: appended; follower: applied),
    /// kept for resending. Contiguous, ending at `next_idx - 1`.
    pub(crate) log: VecDeque<journal::Entry>,
    /// Next log index to append (first entry gets 1).
    pub(crate) next_idx: u64,
    /// Primary: per-replica acknowledged watermarks; `u64::MAX` means
    /// unknown (no ack yet — resends wait for the first ack so a freshly
    /// promoted primary never floods a replica it knows nothing about).
    pub(crate) acked: Vec<u64>,
    /// Follower: highest contiguously applied log index.
    pub(crate) applied_idx: u64,
    /// Follower: out-of-order entries awaiting their predecessors.
    pub(crate) entry_buf: BTreeMap<u64, journal::Entry>,
    /// Follower: highest log head the primary has advertised; the gap to
    /// `applied_idx` is what a promotion would lose.
    pub(crate) primary_idx_seen: u64,
    /// Follower: when the primary was last heard (entry or heartbeat).
    pub(crate) last_primary_at: SimTime,
    /// Follower: the election in progress, if any.
    pub(crate) election: Option<ElectionState>,
}

impl Replication {
    pub(crate) fn new(replica: usize, replicas: usize) -> Replication {
        let mut acked = vec![u64::MAX; replicas.max(1)];
        acked[replica] = 0;
        Replication {
            role: if replica == 0 {
                ReplRole::Primary
            } else {
                ReplRole::Follower
            },
            replica,
            active: true,
            gen: 0,
            log: VecDeque::new(),
            next_idx: 1,
            acked,
            applied_idx: 0,
            entry_buf: BTreeMap::new(),
            primary_idx_seen: 0,
            last_primary_at: 0,
            election: None,
        }
    }

    /// Oldest log index still held (`next_idx` when the log is empty).
    fn floor(&self) -> u64 {
        self.next_idx - self.log.len() as u64
    }
}

/// One key-server replica: the primary or a follower (see [`Replication`]).
#[derive(Clone)]
pub(crate) struct RtServer {
    pub(crate) server: GroupServer,
    /// Bumped on every restart; members resync when they observe a bump.
    pub(crate) epoch: u64,
    /// Stale-timer guard for `IntervalTick`; bumped on restart.
    pub(crate) tick_gen: u64,
    /// When the current interval ends (anchors member check timers).
    pub(crate) next_interval_at: SimTime,
    /// When the previous rekey round ran (start anchor of the next
    /// "interval" span, so span durations show round spacing).
    pub(crate) last_round_at: SimTime,
    /// Interval messages kept for unicast recovery.
    pub(crate) history: BTreeMap<u64, Arc<IntervalMessage>>,
    /// The crash journal: one checkpoint per completed interval.
    pub(crate) journal: journal::Journal,
    /// Leavers to acknowledge once the next checkpoint covers their
    /// departure (an acknowledged leave must never roll back).
    pub(crate) pending_leave_acks: Vec<NodeId>,
    /// Replication role, log, and election state.
    pub(crate) repl: Replication,
    /// Whether a joiner runs its §3.1 probe itself, from the `JoinSeed`
    /// this server sends. The driver decides: the simulator's delays model
    /// the substrate; the socket driver's datagrams travel at loopback
    /// speed, so its servers probe their RTT model with `Group::join`.
    seeds_joiners: bool,
    pub(crate) stats: ServerStats,
}

/// The replica currently acting as primary among `replicas` (index,
/// state machine — a driver that can kill replicas passes the live ones):
/// the active primary with the highest epoch, the lowest index on a tie
/// (a just-stepped-down ex-primary is inactive, so split-brain windows
/// resolve to the winner). Falls back to replica 0 mid-election.
pub(crate) fn acting_primary<'a>(
    replicas: impl IntoIterator<Item = (usize, &'a RtServer)>,
) -> usize {
    let mut best: Option<(u64, usize)> = None;
    for (replica, server) in replicas {
        if server.repl.role == ReplRole::Primary
            && server.repl.active
            && best.is_none_or(|(epoch, _)| server.epoch > epoch)
        {
            best = Some((server.epoch, replica));
        }
    }
    best.map_or(0, |(_, replica)| replica)
}

/// The timers that bring a replica set up, as `(node, due, alarm)` in
/// arming order: the initial primary's first interval tick, and with
/// more than one replica its replication stream tick plus each follower's
/// liveness check — staggered by replica index so elections never fire
/// in lockstep.
pub(crate) fn boot_timers(knobs: &Knobs) -> Vec<(NodeId, SimTime, RtLocal)> {
    let mut timers = vec![(SERVER, knobs.rekey_period, RtLocal::IntervalTick { gen: 0 })];
    if knobs.replicas > 1 {
        timers.push((SERVER, knobs.repl_period(), RtLocal::ReplTick { gen: 0 }));
        for replica in 1..knobs.replicas {
            timers.push((
                NodeId(replica),
                knobs.rekey_period + replica as SimTime * knobs.retry_base,
                RtLocal::ReplCheck { gen: 0 },
            ));
        }
    }
    timers
}

impl RtServer {
    /// Replica `replica` of the set `knobs` describe, about to start its
    /// first interval over the group state `server`.
    pub(crate) fn new(
        knobs: &Knobs,
        server: GroupServer,
        replica: usize,
        journal: journal::Journal,
        seeds_joiners: bool,
    ) -> RtServer {
        RtServer {
            server,
            epoch: 0,
            tick_gen: 0,
            next_interval_at: knobs.rekey_period,
            last_round_at: 0,
            history: BTreeMap::new(),
            journal,
            pending_leave_acks: Vec::new(),
            repl: Replication::new(replica, knobs.replicas),
            seeds_joiners,
            stats: ServerStats::default(),
        }
    }

    /// What a shutdown flush still has to clear: queued joins, queued
    /// leaves, and the member handles whose `LeaveAck` is still owed.
    pub(crate) fn flush_backlog(&self, knobs: &Knobs) -> (usize, usize, Vec<usize>) {
        let (joins, leaves) = self.server.pending();
        let owed = self
            .pending_leave_acks
            .iter()
            .map(|&node| knobs.member_host(node).0)
            .collect();
        (joins, leaves, owed)
    }

    /// Feeds the replica one event; its effects land in `ctx`. `net` is
    /// the substrate model a join or leave consults.
    pub(crate) fn handle<NET: Network>(&mut self, ctx: &mut Outbox, net: &NET, event: Event) {
        match event {
            Event::Net { from, msg } => self.receive(ctx, net, from, msg),
            Event::Local(local) => self.on_local(ctx, local),
        }
    }

    /// One of this replica's own timers, or a command of its driver.
    fn on_local(&mut self, ctx: &mut Outbox, local: RtLocal) {
        // A restart revives even a divergent replica (it rolls back to
        // its checkpoint); everything else requires an active one.
        if local == RtLocal::Restart {
            return self.restart(ctx);
        }
        if !self.repl.active {
            return;
        }
        let primary = self.repl.role == ReplRole::Primary;
        match local {
            RtLocal::ReplTick { gen } if gen == self.repl.gen && primary => self.repl_tick(ctx),
            RtLocal::ReplCheck { gen } if gen == self.repl.gen && !primary => self.repl_check(ctx),
            RtLocal::ElectionTick { gen } if gen == self.repl.gen && !primary => {
                self.election_tick(ctx);
            }
            RtLocal::IntervalTick { gen } if gen == self.tick_gen && primary => {
                self.end_interval(ctx);
            }
            RtLocal::Flush if primary => self.flush(ctx),
            _ => {}
        }
    }

    /// A message `from` sent over the network.
    fn receive<NET: Network>(&mut self, ctx: &mut Outbox, net: &NET, from: NodeId, msg: RtMsg) {
        if !self.repl.active {
            return;
        }
        match msg {
            RtMsg::ReplEntry { idx, epoch, op } => {
                self.on_repl_entry(ctx, net, from, journal::Entry { idx, epoch, op });
                return;
            }
            RtMsg::ReplAck { replica, idx } => {
                self.on_repl_ack(replica, idx);
                return;
            }
            RtMsg::ReplHeartbeat {
                epoch,
                idx,
                replica,
                floor,
            } => {
                self.on_repl_heartbeat(ctx, from, epoch, idx, replica, floor);
                return;
            }
            RtMsg::Candidacy {
                epoch,
                idx,
                replica,
            } => {
                self.on_candidacy(ctx, from, epoch, idx, replica);
                return;
            }
            _ => {}
        }
        // Member-facing traffic is the primary's alone: a follower stays
        // silent and the member's retry/rotation machinery finds the
        // primary within a replica block's worth of attempts.
        if self.repl.role != ReplRole::Primary {
            return;
        }
        match msg {
            RtMsg::JoinRequest => self.on_join_request(ctx, net, from),
            RtMsg::JoinDigits { digits } => self.admit(ctx, net, from, Some(digits)),
            RtMsg::LeaveRequest => {
                let host = ctx.knobs().member_host(from);
                let id = self.member_by_host(host).map(|m| m.id);
                if let Some(id) = id {
                    self.depart(ctx, net, id);
                }
                // Ack — even for an unknown host (the member's retransmit
                // after its departure was checkpointed but the ack lost) —
                // rides the next checkpoint, never earlier.
                if !self.pending_leave_acks.contains(&from) {
                    self.pending_leave_acks.push(from);
                }
            }
            RtMsg::FailureNotice { failed } => {
                // Ignore accusations from non-members: a wrongfully
                // departed member behind a healed partition would
                // otherwise depart half the group with its stale
                // suspicions before its own `NotMember` lands.
                if self.member_by_host(ctx.knobs().member_host(from)).is_none() {
                    return;
                }
                if self.server.group().member(&failed).is_some() {
                    self.stats.failures_detected += 1;
                    self.depart(ctx, net, failed);
                }
                // Already departed: the accuser's repaired table is
                // already on its way (or its `Recover`/`ServerPong`
                // version will expose a lost push); nothing to do.
            }
            RtMsg::Nack { interval, id } => {
                self.stats.nacks += 1;
                let message = self.history.get(&interval);
                let Some(message) = message.filter(|_| self.verified(ctx, &id, from)) else {
                    // Unknown member or rolled-back interval: the prober's
                    // heartbeat will sort it out (`NotMember` / epoch).
                    return;
                };
                let seq = self.table_version(&id);
                recover(ctx, &mut self.stats, from, (interval, message), &id, seq);
            }
            RtMsg::ServerPing { id } => {
                if self.verified(ctx, &id, from) {
                    ctx.send(
                        from,
                        RtMsg::ServerPong {
                            epoch: self.epoch,
                            seq: self.table_version(&id),
                            interval: self.server.interval(),
                        },
                    );
                } else {
                    ctx.send(from, RtMsg::NotMember { id });
                }
            }
            RtMsg::ResyncRequest { id } => {
                if !self.verified(ctx, &id, from) {
                    ctx.send(from, RtMsg::NotMember { id });
                    return;
                }
                // A member admitted during the *current* interval is in
                // the roster but not yet keyed — its first welcome rides
                // the next interval boundary and supersedes any snapshot
                // we could build now. Stay silent; the member's resync
                // retry re-asks with backoff until the welcome lands.
                let Some(welcome) = self.server.refresh_welcome(&id) else {
                    return;
                };
                self.stats.resyncs += 1;
                let (member, table, seq) = self.snapshot_of(&id);
                ctx.send(
                    from,
                    RtMsg::Resync {
                        member,
                        table,
                        welcome,
                        epoch: self.epoch,
                        seq,
                        next_interval_at: self.next_interval_at,
                    },
                );
            }
            _ => {}
        }
    }

    /// The version of member `id`'s table: the group's mutation count
    /// when it last changed.
    fn table_version(&self, id: &UserId) -> u64 {
        let group = self.server.group();
        group.table_version(group.index_of(id).expect("a member has an index"))
    }

    /// Member `id`'s record, its table and that table's version — what
    /// `JoinAccepted` and `Resync` carry.
    fn snapshot_of(&self, id: &UserId) -> (Member, Arc<NeighborTable>, u64) {
        let group = self.server.group();
        let idx = group.index_of(id).expect("a member has an index");
        let table = Arc::clone(group.table(idx));
        (group.members()[idx], table, group.table_version(idx))
    }

    fn member_by_host(&self, host: HostId) -> Option<&Member> {
        self.server
            .group()
            .members()
            .iter()
            .find(|m| m.host == host)
    }

    /// `true` iff `id` is a member AND the claim comes from its host.
    fn verified(&self, ctx: &Outbox, id: &UserId, from: NodeId) -> bool {
        self.server
            .group()
            .member(id)
            .is_some_and(|m| m.host == ctx.knobs().member_host(from))
    }

    fn end_interval(&mut self, ctx: &mut Outbox) {
        if ctx.draining {
            return;
        }
        self.rekey_round(ctx);
        ctx.timer(
            ctx.knobs().rekey_period,
            RtLocal::IntervalTick { gen: self.tick_gen },
        );
    }

    /// Ends one interval: welcomes, multicast, checkpoint, leave acks.
    /// The batch rekey is counted here, by the replica that issues it as
    /// primary, never by a follower replaying it.
    fn rekey_round(&mut self, ctx: &mut Outbox) {
        self.append_op(ctx, ReplOp::Interval { sent_at: ctx.now() });
        let mut outcome = self.server.end_interval();
        let encryptions = outcome.take_encryptions();
        self.stats.intervals += 1;
        self.stats.tree_encryptions += encryptions.len() as u64;
        self.stats.tombstone_hits += outcome.tombstone_hits;
        let batch = outcome.welcomes.len() + outcome.departed.len();
        ctx.sinks.batch_size.record(batch as u64);
        self.next_interval_at = ctx.now() + ctx.knobs().rekey_period;
        for welcome in outcome.welcomes {
            self.stats.welcomes += 1;
            let host = self
                .server
                .group()
                .member(&welcome.id)
                .expect("welcomed member is in the group")
                .host;
            ctx.send(
                ctx.knobs().member_node(host),
                RtMsg::Welcome {
                    welcome,
                    epoch: self.epoch,
                    next_interval_at: self.next_interval_at,
                },
            );
        }
        let message = Arc::new(IntervalMessage {
            interval: outcome.interval,
            epoch: self.epoch,
            sent_at: ctx.now(),
            seq: self.server.group().mutations(),
            index: SplitIndex::build(&encryptions),
            encryptions,
        });
        self.history.insert(outcome.interval, Arc::clone(&message));
        while self.history.len() > journal::HISTORY_WINDOW {
            self.history.pop_first();
        }
        // Empty intervals still multicast: members advance their interval
        // counter from the (empty) related set, keeping NACK checks quiet.
        let mut fanout = 0u64;
        for hop in server_next_hops(self.server.group().server_table()) {
            self.stats.forward_copies += 1;
            fanout += 1;
            ctx.send(
                ctx.knobs().member_node(hop.neighbor.member.host),
                RtMsg::Forward {
                    level: hop.forward_level,
                    prefix: PrefixBuf::of_hop(&hop),
                    message: Arc::clone(&message),
                },
            );
        }
        ctx.sinks.forward_fanout.record(fanout);
        ctx.span("interval", self.last_round_at, outcome.interval);
        self.last_round_at = ctx.now();
        self.checkpoint(ctx);
    }

    /// Records the interval-boundary checkpoint — *after* the multicast,
    /// so no member is ever ahead of the journal — then releases the
    /// leave acks it covers.
    fn checkpoint(&mut self, ctx: &mut Outbox) {
        // Guard *before* building the checkpoint: cloning the server is
        // O(members) per interval, which a disabled journal (an unfaulted
        // mega runtime) must never pay.
        if self.journal.is_enabled() {
            self.journal.record(journal::Checkpoint {
                server: self.server.clone(),
                log_idx: self.repl.next_idx - 1,
                history: self.history.clone(),
            });
            self.stats.checkpoints += 1;
        }
        for node in std::mem::take(&mut self.pending_leave_acks) {
            self.stats.leave_acks += 1;
            ctx.send(node, RtMsg::LeaveAck);
        }
    }

    /// Shutdown flush: fold any pending membership work into an interval,
    /// then push every member its latest related set so the final
    /// interval is discoverable even if every multicast copy was lost.
    fn flush(&mut self, ctx: &mut Outbox) {
        let (joins, leaves) = self.server.pending();
        if joins > 0 || leaves > 0 {
            self.rekey_round(ctx);
        }
        if let Some((&interval, message)) = self.history.iter().next_back() {
            let group = self.server.group();
            for (idx, &Member { id, host, .. }) in group.members().iter().enumerate() {
                let to = ctx.knobs().member_node(host);
                let seq = group.table_version(idx);
                recover(ctx, &mut self.stats, to, (interval, message), &id, seq);
            }
        }
        self.checkpoint(ctx);
    }

    /// The server process respawns at the end of an outage window.
    ///
    /// Single replica: restore the latest checkpoint (mid-interval
    /// mutations since then are lost by design — the affected members
    /// re-request), bump the epoch, and re-announce with an immediate
    /// interval. With replicas, the revived process instead rejoins as a
    /// *follower*: the acting primary (possibly a promoted peer) streams
    /// it forward from its checkpoint watermark, and if no primary is
    /// alive its own liveness check escalates to an election.
    fn restart(&mut self, ctx: &mut Outbox) {
        if ctx.knobs().replicas > 1 {
            return self.restart_replica(ctx);
        }
        self.stats.restarts += 1;
        self.epoch += 1;
        ctx.span("restart", ctx.now(), self.epoch);
        self.tick_gen += 1;
        self.pending_leave_acks.clear();
        if let Some(cp) = self.journal.restore() {
            self.stats.lost_mutations +=
                self.server.group().mutations() - cp.server.group().mutations();
            self.server = cp.server;
            self.history = cp.history;
        }
        // The immediate interval is the restart beacon: its `Forward`
        // copies carry the new epoch, and every member that sees it (or
        // the next `ServerPong`) resyncs.
        self.end_interval(ctx);
    }

    /// Multi-replica restart: roll back to the checkpoint, come up as a
    /// follower. No epoch bump and no beacon — only a *promotion* speaks
    /// to members, so a revived ex-primary cannot split-brain the group.
    fn restart_replica(&mut self, ctx: &mut Outbox) {
        self.stats.restarts += 1;
        ctx.span("restart", ctx.now(), self.epoch);
        self.tick_gen += 1;
        self.repl.gen += 1;
        self.pending_leave_acks.clear();
        self.repl.role = ReplRole::Follower;
        self.repl.active = true;
        self.repl.entry_buf.clear();
        self.repl.election = None;
        if let Some(cp) = self.journal.restore() {
            self.server = cp.server;
            self.history = cp.history;
            self.repl.applied_idx = cp.log_idx;
            self.repl.log.retain(|e| e.idx <= cp.log_idx);
            self.repl.next_idx = cp.log_idx + 1;
        }
        // No checkpoint (first-interval crash): keep the live state, as
        // the single-replica path does.
        self.repl.primary_idx_seen = self.repl.applied_idx;
        self.repl.last_primary_at = ctx.now();
        ctx.timer(
            ctx.knobs().repl_check_period(),
            RtLocal::ReplCheck { gen: self.repl.gen },
        );
    }

    /// A `JoinRequest`: a newcomer to a non-empty group is sent the record
    /// to start its probe from, or, unless this server seeds joiners,
    /// admitted at once.
    fn on_join_request<NET: Network>(&mut self, ctx: &mut Outbox, net: &NET, from: NodeId) {
        let host = ctx.knobs().member_host(from);
        if self.seeds_joiners && self.member_by_host(host).is_none() {
            if let Some(seed) = self.server.group().seed_for(host) {
                return ctx.send(from, RtMsg::JoinSeed { seed });
            }
        }
        self.admit(ctx, net, from, None);
    }

    /// Admits the node `from` under the `digits` its probe determined, or,
    /// without them, probes for it with `Group::join`.
    fn admit<NET: Network>(
        &mut self,
        ctx: &mut Outbox,
        net: &NET,
        from: NodeId,
        digits: Option<IdPrefix>,
    ) {
        let host = ctx.knobs().member_host(from);
        let id = match self.member_by_host(host) {
            // Retransmitted join (the original accept was lost): resend
            // the current snapshot without a new mutation.
            Some(member) => member.id,
            None => {
                let at = ctx.now();
                let id = match digits {
                    Some(digits) => self.server.admit_join(host, digits.digits(), net, at),
                    None => self.server.request_join(host, net, at),
                }
                .expect("ID space sized for the churn trace");
                self.stats.joins += 1;
                self.append_op(ctx, ReplOp::Join { host, at, id });
                self.push_tables(ctx);
                id
            }
        };
        let (member, table, seq) = self.snapshot_of(&id);
        ctx.send(
            from,
            RtMsg::JoinAccepted {
                member,
                table,
                epoch: self.epoch,
                seq,
            },
        );
    }

    fn depart<NET: Network>(&mut self, ctx: &mut Outbox, net: &NET, id: UserId) {
        self.server
            .request_leave(&id, net)
            .expect("departing member is in the group");
        self.stats.departures += 1;
        self.append_op(ctx, ReplOp::Leave { id });
        self.push_tables(ctx);
    }

    /// Sends each member whose table the latest join or leave changed its
    /// new table — `Group` computed the repair; nobody else is told.
    fn push_tables(&self, ctx: &mut Outbox) {
        let group = self.server.group();
        for &idx in group.changed_tables() {
            ctx.send(
                ctx.knobs().member_node(group.members()[idx].host),
                RtMsg::Table {
                    table: Arc::clone(group.table(idx)),
                    epoch: self.epoch,
                    seq: group.table_version(idx),
                },
            );
        }
    }

    // ---- replication: primary side -------------------------------------

    /// Appends one mutation op to the replication log and streams it to
    /// every other replica. A no-op with a single replica, keeping the
    /// single-server runtime byte-identical to its pre-replication behavior.
    fn append_op(&mut self, ctx: &mut Outbox, op: ReplOp) {
        let replicas = ctx.knobs().replicas;
        if replicas <= 1 {
            return;
        }
        let entry = journal::Entry {
            idx: self.repl.next_idx,
            epoch: self.epoch,
            op,
        };
        for r in 0..replicas {
            if r == self.repl.replica {
                continue;
            }
            ctx.send(
                NodeId(r),
                RtMsg::ReplEntry {
                    idx: entry.idx,
                    epoch: entry.epoch,
                    op: entry.op.clone(),
                },
            );
        }
        self.repl.log.push_back(entry);
        while self.repl.log.len() > LOG_KEEP {
            self.repl.log.pop_front();
        }
        let idx = self.repl.next_idx;
        self.repl.next_idx += 1;
        self.repl.acked[self.repl.replica] = idx;
        // Kept in lockstep with the log head so an ex-primary's `Restart`
        // and divergence checks work uniformly across roles.
        self.repl.applied_idx = idx;
    }

    /// Periodic replication tick (primary): heartbeat every peer replica
    /// and resend the log tail past each acknowledged watermark. Lost
    /// entries and lost acks both heal here — the stream needs no
    /// per-entry retry state, just this bounded resend loop.
    fn repl_tick(&mut self, ctx: &mut Outbox) {
        let replicas = ctx.knobs().replicas;
        let head = self.repl.next_idx - 1;
        let floor = self.repl.floor();
        for r in 0..replicas {
            if r == self.repl.replica {
                continue;
            }
            ctx.send(
                NodeId(r),
                RtMsg::ReplHeartbeat {
                    epoch: self.epoch,
                    idx: head,
                    replica: self.repl.replica,
                    floor,
                },
            );
            let acked = self.repl.acked[r];
            if acked == u64::MAX || acked >= head {
                continue;
            }
            self.stats.repl_lag_peak = self.stats.repl_lag_peak.max(head - acked);
            let from_idx = (acked + 1).max(floor);
            let to_idx = head.min(acked + REPL_BATCH as u64);
            for idx in from_idx..=to_idx {
                let entry = &self.repl.log[(idx - floor) as usize];
                ctx.send(
                    NodeId(r),
                    RtMsg::ReplEntry {
                        idx: entry.idx,
                        epoch: entry.epoch,
                        op: entry.op.clone(),
                    },
                );
            }
        }
        if !ctx.draining {
            ctx.timer(
                ctx.knobs().repl_period(),
                RtLocal::ReplTick { gen: self.repl.gen },
            );
        }
    }

    /// An ack from follower `replica`: advance its known watermark.
    fn on_repl_ack(&mut self, replica: usize, idx: u64) {
        if self.repl.role != ReplRole::Primary || replica >= self.repl.acked.len() {
            return;
        }
        let slot = &mut self.repl.acked[replica];
        if *slot == u64::MAX || idx > *slot {
            *slot = idx;
        }
    }

    // ---- replication: follower side ------------------------------------

    /// A streamed log entry: buffer, drain contiguously, replay, ack the
    /// applied watermark back to the sender.
    fn on_repl_entry<NET: Network>(
        &mut self,
        ctx: &mut Outbox,
        net: &NET,
        from: NodeId,
        entry: journal::Entry,
    ) {
        if self.repl.role != ReplRole::Follower {
            return;
        }
        self.repl.last_primary_at = ctx.now();
        self.repl.election = None;
        self.epoch = self.epoch.max(entry.epoch);
        self.repl.primary_idx_seen = self.repl.primary_idx_seen.max(entry.idx);
        if entry.idx > self.repl.applied_idx {
            self.repl.entry_buf.insert(entry.idx, entry);
        }
        while let Some(entry) = self.repl.entry_buf.remove(&(self.repl.applied_idx + 1)) {
            if !self.apply_entry(ctx.knobs(), net, &entry) {
                // Replay diverged: freeze until the next `Restart` rolls
                // this replica back to its checkpoint.
                self.repl.active = false;
                return;
            }
            self.repl.applied_idx = entry.idx;
            self.repl.next_idx = entry.idx + 1;
            self.repl.log.push_back(entry);
            while self.repl.log.len() > LOG_KEEP {
                self.repl.log.pop_front();
            }
        }
        ctx.send(
            from,
            RtMsg::ReplAck {
                replica: self.repl.replica,
                idx: self.repl.applied_idx,
            },
        );
    }

    /// Replays one op against this follower's own state machine; `false`
    /// on divergence. Deterministic replication: the follower re-executes
    /// the same inputs against the same seeded state, so its tree, RNG
    /// stream, and history converge on the primary's — without member
    /// traffic and without stats (each mutation is counted once, by the
    /// primary, so summed snapshots match a single-replica run).
    fn apply_entry<NET: Network>(
        &mut self,
        knobs: &Knobs,
        net: &NET,
        entry: &journal::Entry,
    ) -> bool {
        match &entry.op {
            ReplOp::Join { host, at, id } => {
                let admitted = self.server.admit_join(*host, id.digits(), net, *at);
                if admitted != Ok(*id) {
                    return false;
                }
            }
            ReplOp::Leave { id } => {
                if self.server.request_leave(id, net).is_err() {
                    return false;
                }
            }
            ReplOp::Interval { sent_at } => {
                let mut outcome = self.server.end_interval();
                let message = Arc::new(IntervalMessage {
                    interval: outcome.interval,
                    epoch: entry.epoch,
                    sent_at: *sent_at,
                    seq: self.server.group().mutations(),
                    index: SplitIndex::build(outcome.encryptions()),
                    encryptions: outcome.take_encryptions(),
                });
                self.history.insert(outcome.interval, message);
                while self.history.len() > journal::HISTORY_WINDOW {
                    self.history.pop_first();
                }
                self.next_interval_at = *sent_at + knobs.rekey_period;
                // The follower checkpoints at the same boundaries the
                // primary does, so a restarted follower resumes from an
                // interval-aligned log watermark.
                if self.journal.is_enabled() {
                    self.journal.record(journal::Checkpoint {
                        server: self.server.clone(),
                        log_idx: entry.idx,
                        history: self.history.clone(),
                    });
                }
            }
        }
        true
    }

    /// A primary heartbeat. Followers refresh liveness, cancel any
    /// election, and ack their watermark (which is also what bootstraps
    /// catch-up resends after a promotion). A *primary* receiving one has
    /// found a peer primary — split brain — and the higher epoch (lower
    /// replica on ties) wins; the loser steps down dead.
    fn on_repl_heartbeat(
        &mut self,
        ctx: &mut Outbox,
        from: NodeId,
        epoch: u64,
        idx: u64,
        replica: usize,
        floor: u64,
    ) {
        if self.repl.role == ReplRole::Primary {
            if epoch > self.epoch || (epoch == self.epoch && replica < self.repl.replica) {
                self.step_down(epoch);
            }
            return;
        }
        // A heartbeat from a newer primary while we hold ops past its
        // head: our (ex-primary) history diverged from the group's —
        // freeze rather than ack a watermark we cannot honor.
        if epoch > self.epoch && self.repl.applied_idx > idx {
            self.repl.active = false;
            return;
        }
        self.repl.last_primary_at = ctx.now();
        self.epoch = self.epoch.max(epoch);
        self.repl.primary_idx_seen = self.repl.primary_idx_seen.max(idx);
        self.repl.election = None;
        // The primary pruned past our watermark: the entries we need are
        // gone for good — diverged.
        if floor > self.repl.applied_idx + 1 && idx > self.repl.applied_idx {
            self.repl.active = false;
            return;
        }
        ctx.send(
            from,
            RtMsg::ReplAck {
                replica: self.repl.replica,
                idx: self.repl.applied_idx,
            },
        );
    }

    /// Primary loses a split-brain resolution: adopt the winner's epoch
    /// and freeze. Its unreplicated ops may contradict the winner's log,
    /// so only a `Restart` rollback to a checkpoint may revive it (as a
    /// follower).
    fn step_down(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
        self.repl.role = ReplRole::Follower;
        self.repl.gen += 1;
        self.tick_gen += 1;
        self.repl.active = false;
    }

    // ---- replication: elections ----------------------------------------

    /// A peer's election candidacy: a live primary vetoes it with a
    /// heartbeat; a follower joins the election (if the primary looks
    /// dead from here too) and folds the peer's watermark into its tally.
    fn on_candidacy(
        &mut self,
        ctx: &mut Outbox,
        from: NodeId,
        epoch: u64,
        idx: u64,
        replica: usize,
    ) {
        self.epoch = self.epoch.max(epoch);
        if self.repl.role == ReplRole::Primary {
            ctx.send(
                from,
                RtMsg::ReplHeartbeat {
                    epoch: self.epoch,
                    idx: self.repl.next_idx - 1,
                    replica: self.repl.replica,
                    floor: self.repl.floor(),
                },
            );
            return;
        }
        if self.repl.election.is_none() {
            // A fresh heartbeat vetoes the peer's suspicion from here.
            if ctx.now().saturating_sub(self.repl.last_primary_at)
                <= ctx.knobs().repl_check_period()
            {
                return;
            }
            self.start_election(ctx);
        }
        let election = self.repl.election.as_mut().expect("election in progress");
        if idx > election.best_idx || (idx == election.best_idx && replica < election.best_replica)
        {
            election.best_idx = idx;
            election.best_replica = replica;
        }
    }

    /// Follower liveness check: a silent primary starts an election,
    /// otherwise the check re-arms itself.
    fn repl_check(&mut self, ctx: &mut Outbox) {
        if ctx.draining {
            return;
        }
        let silent =
            ctx.now().saturating_sub(self.repl.last_primary_at) > ctx.knobs().primary_silence();
        if silent && self.repl.election.is_none() {
            self.start_election(ctx);
            return;
        }
        ctx.timer(
            ctx.knobs().repl_check_period(),
            RtLocal::ReplCheck { gen: self.repl.gen },
        );
    }

    /// Primary declared dead: announce our replay watermark, collect
    /// peers' candidacies for a NACK-grace window, then resolve. Bumping
    /// `gen` here kills the pending liveness-check chain; resolution
    /// re-arms it under the new gen.
    fn start_election(&mut self, ctx: &mut Outbox) {
        self.stats.elections += 1;
        self.repl.gen += 1;
        ctx.span("election", ctx.now(), self.epoch);
        self.repl.election = Some(ElectionState {
            best_idx: self.repl.applied_idx,
            best_replica: self.repl.replica,
        });
        for r in 0..ctx.knobs().replicas {
            if r == self.repl.replica {
                continue;
            }
            ctx.send(
                NodeId(r),
                RtMsg::Candidacy {
                    epoch: self.epoch,
                    idx: self.repl.applied_idx,
                    replica: self.repl.replica,
                },
            );
        }
        ctx.timer(
            ctx.knobs().nack_grace,
            RtLocal::ElectionTick { gen: self.repl.gen },
        );
    }

    /// Election grace expired: the best watermark seen wins, lowest
    /// replica index breaking ties — every voter that saw the same
    /// candidacies computes the same winner.
    fn election_tick(&mut self, ctx: &mut Outbox) {
        let Some(election) = self.repl.election.take() else {
            // A heartbeat cancelled the election mid-grace.
            ctx.timer(
                ctx.knobs().repl_check_period(),
                RtLocal::ReplCheck { gen: self.repl.gen },
            );
            return;
        };
        if election.best_replica == self.repl.replica {
            self.promote(ctx);
            return;
        }
        // A peer won: give it a fresh silence budget to announce itself.
        self.repl.last_primary_at = ctx.now();
        ctx.timer(
            ctx.knobs().repl_check_period(),
            RtLocal::ReplCheck { gen: self.repl.gen },
        );
    }

    /// This replica won the election: become primary, bump the epoch, and
    /// re-announce with an immediate interval — the same epoch-bumped
    /// resync path members already traverse for single-replica restarts.
    /// The gap between the dead primary's advertised head and our replay
    /// watermark is recorded as lost mutations; the affected members
    /// re-request via `NotMember` rejoins and leave retransmissions.
    fn promote(&mut self, ctx: &mut Outbox) {
        self.stats.promotions += 1;
        self.stats.lost_mutations += self
            .repl
            .primary_idx_seen
            .saturating_sub(self.repl.applied_idx);
        self.epoch += 1;
        ctx.span("promotion", ctx.now(), self.epoch);
        self.repl.role = ReplRole::Primary;
        self.repl.gen += 1;
        self.tick_gen += 1;
        self.repl.entry_buf.clear();
        self.repl.election = None;
        self.pending_leave_acks.clear();
        // The follower's log holds exactly its applied prefix, so the new
        // log head is the replay watermark. Peer watermarks start unknown
        // and are re-learned from their heartbeat acks.
        self.repl.next_idx = self.repl.applied_idx + 1;
        let replicas = ctx.knobs().replicas;
        self.repl.acked = vec![u64::MAX; replicas.max(1)];
        self.repl.acked[self.repl.replica] = self.repl.applied_idx;
        // No split-index reset: replay was contiguous to this point —
        // unlike a restart there is no rollback to discard.
        self.end_interval(ctx);
        ctx.timer(
            ctx.knobs().repl_period(),
            RtLocal::ReplTick { gen: self.repl.gen },
        );
    }
}

/// Member-side counters of one runtime session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemberStats {
    /// `Forward` copies received.
    pub copies_received: u64,
    /// `Forward` copies sent onward.
    pub copies_forwarded: u64,
    /// Sum of copy payload sizes received (encryptions per split copy).
    pub payload_encryptions: u64,
    /// NACKs sent.
    pub nacks_sent: u64,
    /// Encryptions obtained via unicast recovery.
    pub recovered_encryptions: u64,
    /// Heartbeat pings sent.
    pub pings_sent: u64,
    /// Neighbors evicted after unanswered pings.
    pub evictions: u64,
    /// Control retransmissions (join/leave/NACK/resync retries).
    pub retransmissions: u64,
    /// Highest attempt count any retry entry reached (≤ the configured
    /// cap by construction).
    pub max_retry_attempts: u32,
    /// Full snapshots applied (`Resync` messages accepted).
    pub resyncs: u64,
    /// Times this node rejoined after the server disowned it.
    pub rejoins: u64,
    /// Evicted neighbors reinstated after answering a probation probe.
    pub rehabilitations: u64,
    /// Rekey intervals applied to the key agent.
    pub intervals_applied: u64,
    /// Summed µs from each interval's multicast to its local application
    /// (recovery latency numerator; divide by `intervals_applied`).
    pub apply_delay_total: u64,
    /// The last join's §3.1 step-1 queries (re-sends excluded).
    pub join_queries: u32,
    /// The last join's §3.1 step-2 pings (re-sends excluded).
    pub join_pings: u32,
    /// ID digits the last join's probe determined.
    pub digits_probed: u32,
    /// µs from the last join's `JoinSeed` to its `JoinAccepted` (0 for a
    /// join that got no seed).
    pub join_elapsed: SimTime,
}

/// A joining node's §3.1 state, from its `JoinSeed` to its
/// `JoinAccepted`.
#[derive(Clone)]
struct Joiner {
    /// Steps 1–3.
    probe: Probe,
    /// Set once the probe decided: the digits, re-sent until accepted.
    digits: Option<IdPrefix>,
    /// Gateway RTT estimates (§3.1.2) from ping/pong round trips, kept
    /// across digits.
    rtt: BTreeMap<UserId, Micros>,
    /// Queries in flight: the queried member and the target.
    queries: Vec<(Member, IdPrefix)>,
    /// Pings in flight: token → the pinged member and the send time.
    pings: BTreeMap<u64, (Member, SimTime)>,
    /// When the `JoinSeed` arrived.
    started_at: SimTime,
}

/// A buffered rekey payload for one interval, applied strictly in order.
#[derive(Clone)]
pub(crate) enum PendingPayload {
    /// A multicast copy (the member's related set is a subset, Lemma 3).
    Mesh(Arc<IntervalMessage>),
    /// A unicast recovery reply (already exactly the related set).
    Unicast {
        encryptions: Vec<Encryption>,
        sent_at: SimTime,
    },
}

/// What a retry entry is waiting for. Each kind exists at most once per
/// member (`Nack` once per interval), so the retry map stays tiny.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Retrying {
    /// `JoinRequest` unacknowledged (no `JoinAccepted` yet).
    Join,
    /// `LeaveRequest` unacknowledged (no `LeaveAck` yet).
    Leave,
    /// A full snapshot is needed (table behind the server's, epoch bump,
    /// NACK cap exhausted, or a `Welcome` that never arrived).
    Resync,
    /// An interval missing past its deadline.
    Nack(u64),
}

/// One retry entry: how often it fired and when it next fires.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryState {
    pub(crate) attempts: u32,
    pub(crate) due: SimTime,
}

/// Sends `to` the `Recover` of `interval`: the encryptions of its
/// `message` related to member `id` (Lemma 3), and `id`'s table version.
fn recover(
    ctx: &mut Outbox,
    stats: &mut ServerStats,
    to: NodeId,
    (interval, message): (u64, &IntervalMessage),
    id: &UserId,
    seq: u64,
) {
    let encryptions: Vec<Encryption> = (message.index.indices(id.digits()))
        .map(|e| message.encryptions[e].clone())
        .collect();
    stats.recovery_encryptions += encryptions.len() as u64;
    ctx.sinks.recovery_size.record(encryptions.len() as u64);
    let msg = RtMsg::Recover {
        interval,
        encryptions,
        sent_at: message.sent_at,
        seq,
    };
    ctx.send(to, msg);
}

/// One member node: joining, admitted, or departed.
#[derive(Clone)]
pub(crate) struct RtMember {
    pub(crate) member: Option<Member>,
    /// Shared with the server's `Group` until a suspect leaves or returns.
    pub(crate) table: Option<Arc<NeighborTable>>,
    pub(crate) agent: Option<UserAgent>,
    /// Last server epoch observed; any bump forces a resync.
    pub(crate) epoch: u64,
    /// The server's version of the table held (its mutation count when
    /// that table last changed), in `epoch`.
    pub(crate) table_seq: u64,
    /// Highest version of our table the server has reported (`Recover`,
    /// `ServerPong`); running ahead of `table_seq` means a `Table` push
    /// was lost — real sockets hit this when a kernel buffer overflows.
    pub(crate) seq_hint: u64,
    /// Set when an epoch bump invalidated `table_seq`; only a snapshot
    /// clears it (a pushed table alone cannot prove freshness).
    pub(crate) sync_stale: bool,
    /// This node asked to join and was not yet accepted.
    pub(crate) join_requested: bool,
    /// The node's probe while it joins on a `JoinSeed`; boxed, since a
    /// member holds it only while joining.
    joiner: Option<Box<Joiner>>,
    /// A leave was asked while the node's join was in flight: the node
    /// leaves once `JoinAccepted` lands.
    leave_asked: bool,
    /// This node asked to leave and was not yet acknowledged.
    pub(crate) leave_pending: bool,
    pub(crate) departed: bool,
    /// Out-of-order rekey payloads, drained from `agent.interval + 1`.
    pub(crate) pending: BTreeMap<u64, PendingPayload>,
    /// Highest interval the server provably completed (from `Forward`,
    /// `Welcome`, `Recover`, `Resync`, `ServerPong`): the member never
    /// NACKs beyond its evidence, so it stays quiet through a server
    /// outage instead of flooding a dead server.
    pub(crate) server_interval_seen: u64,
    /// Highest interval whose copy this member has already forwarded.
    pub(crate) last_forwarded: u64,
    /// Evicted neighbors on probation: kept out of every table we adopt
    /// and routed around, probed each beat, reinstated on a Pong, and
    /// dropped once a table from the server no longer lists them.
    pub(crate) suspects: BTreeMap<UserId, NeighborRecord>,
    /// Outstanding heartbeat pings: token → target.
    pub(crate) outstanding: BTreeMap<u64, (HostId, UserId)>,
    pub(crate) next_token: u64,
    /// Stale-chain guard for `HeartbeatTick`.
    pub(crate) heartbeat_gen: u64,
    pub(crate) heartbeat_running: bool,
    /// Stale-chain guard for `IntervalCheck`.
    pub(crate) check_gen: u64,
    /// Stale-chain guard for `RetryTick`.
    pub(crate) retry_gen: u64,
    /// Live retry entries, fired by `RetryTick` at their due times.
    pub(crate) retries: BTreeMap<Retrying, RetryState>,
    /// Largest multicast-to-arrival delay observed on `Forward` copies
    /// since the last `IntervalCheck` rotation (adaptive NACK pipeline
    /// estimate, numerator of the current window).
    pub(crate) delay_seen: SimTime,
    /// The previous rotation window's largest observed delay.
    pub(crate) delay_seen_prev: SimTime,
    /// When the next rekey interval is expected to end (from the last
    /// `Welcome`/`Resync`, advanced each `IntervalCheck` firing).
    pub(crate) next_boundary: SimTime,
    /// The interval that ends at `next_boundary`: once the boundary
    /// passes, this interval exists even if no evidence of it arrived.
    pub(crate) expected_interval: u64,
    /// Intervals already NACKed during shutdown (the drain sends
    /// immediately instead of arming timers; this dedups).
    pub(crate) shutdown_nacked: BTreeSet<u64>,
    /// The server replica this member currently talks to. Starts at the
    /// initial primary (node 0) and follows the replies: any message from
    /// a replica node re-anchors it, and server silence (an unanswered
    /// `ServerPing`, or a control retry with no progress) rotates it
    /// round-robin through the replica block until a live primary
    /// answers.
    pub(crate) server_node: NodeId,
    /// Set when a `ServerPing` goes out, cleared by any server reply; if
    /// still set at the next heartbeat, the server is silent and the
    /// member rotates `server_node` before pinging again.
    pub(crate) server_ping_outstanding: bool,
    pub(crate) stats: MemberStats,
}

impl RtMember {
    pub(crate) fn new() -> RtMember {
        RtMember {
            member: None,
            table: None,
            agent: None,
            epoch: 0,
            table_seq: 0,
            seq_hint: 0,
            sync_stale: false,
            join_requested: false,
            joiner: None,
            leave_asked: false,
            leave_pending: false,
            departed: false,
            pending: BTreeMap::new(),
            server_interval_seen: 0,
            last_forwarded: 0,
            suspects: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            next_token: 0,
            heartbeat_gen: 0,
            heartbeat_running: false,
            check_gen: 0,
            retry_gen: 0,
            retries: BTreeMap::new(),
            delay_seen: 0,
            delay_seen_prev: 0,
            next_boundary: 0,
            expected_interval: 0,
            shutdown_nacked: BTreeSet::new(),
            server_node: SERVER,
            server_ping_outstanding: false,
            stats: MemberStats::default(),
        }
    }

    /// Member `index` of a group dealt by [`crate::GroupConfig::bootstrap`]
    /// (whose welcomes come back in member order): admitted with the
    /// dealt table and welcomed at interval 1 before the session starts,
    /// expecting interval 2 to close at the first rekey boundary. Returns
    /// the member and the timer that mirrors `arm_check` after a
    /// `Welcome`. Its heartbeat is *not* started: per-neighbor probing is
    /// O(N·K·D) events per period at bootstrap scale.
    pub(crate) fn welcomed(
        knobs: &Knobs,
        group: &Group,
        index: usize,
        welcome: WelcomePacket,
    ) -> (RtMember, (SimTime, RtLocal)) {
        let record = group.members()[index];
        debug_assert_eq!(record.id, welcome.id);
        let mut member = RtMember::new();
        member.member = Some(record);
        member.table = Some(Arc::clone(group.table(index)));
        member.server_interval_seen = welcome.interval;
        member.agent = Some(UserAgent::from_welcome(welcome));
        member.check_gen = 1;
        member.next_boundary = knobs.rekey_period;
        member.expected_interval = 2;
        let first_check = knobs.rekey_period + knobs.nack_grace;
        (member, (first_check, RtLocal::IntervalCheck { gen: 1 }))
    }

    /// `true` once this member has applied rekey interval `target`, or
    /// has departed and is owed nothing more. A member mid-join (no agent
    /// yet) has not.
    pub(crate) fn has_applied(&self, target: u64) -> bool {
        self.departed || self.agent.as_ref().is_some_and(|a| a.interval() >= target)
    }

    /// `true` while this admitted member's membership view is provably
    /// behind the server's: an epoch bump's snapshot is still owed, or the
    /// server reported a newer version of its table than it holds (a lost
    /// `Table` push). A resync clears both.
    pub(crate) fn is_stale(&self) -> bool {
        !self.departed
            && self.member.is_some()
            && (self.sync_stale || self.seq_hint > self.table_seq)
    }

    /// Rotates to the next server replica (round-robin). Called when the
    /// current one stays silent; a single-replica config never rotates.
    fn rotate_server(&mut self, ctx: &Outbox) {
        let replicas = ctx.knobs().replicas;
        if replicas > 1 {
            self.server_node = NodeId((self.server_node.0 + 1) % replicas);
        }
    }

    /// Grace before NACKing a missing interval, adapted to the overlay
    /// pipeline this member actually observes: 1.5× the largest
    /// multicast-to-arrival delay of the last two check windows plus a
    /// small margin, clamped to `[100 ms, nack_grace]`. A member that has
    /// seen no copy yet (or none recently) falls back to the configured
    /// grace, so cold starts and outages stay conservative.
    fn adaptive_grace(&self, ctx: &Outbox) -> SimTime {
        let seen = self.delay_seen.max(self.delay_seen_prev);
        let grace = ctx.knobs().nack_grace;
        if seen == 0 {
            return grace;
        }
        // The 100 ms floor only applies when the configured grace allows
        // it (real-socket configs run much tighter periods).
        (seen + seen / 2 + 50_000).clamp(grace.min(100_000), grace)
    }

    /// Feeds the member one event; its effects land in `ctx`.
    pub(crate) fn handle(&mut self, ctx: &mut Outbox, event: Event) {
        match event {
            Event::Net { from, msg } => self.receive(ctx, from, msg),
            Event::Local(local) => self.on_local(ctx, local),
        }
    }

    /// One of this node's own timers, or a command of its driver.
    fn on_local(&mut self, ctx: &mut Outbox, local: RtLocal) {
        if self.departed && !matches!(local, RtLocal::RetryTick { .. } | RtLocal::Restart) {
            return;
        }
        match local {
            RtLocal::Join if self.member.is_none() && !self.join_requested => {
                self.join_requested = true;
                ctx.send(self.server_node, RtMsg::JoinRequest);
                self.arm(ctx, Retrying::Join, ctx.now() + ctx.knobs().retry_base);
            }
            RtLocal::Leave if self.member.is_some() && !self.leave_pending => self.leave(ctx),
            RtLocal::Leave if self.join_requested && self.member.is_none() => {
                self.leave_asked = true;
            }
            RtLocal::IntervalCheck { gen } if gen == self.check_gen => self.interval_check(ctx),
            RtLocal::RetryTick { gen } if gen == self.retry_gen => {
                self.fire_due_retries(ctx);
                self.schedule_retry_tick(ctx);
            }
            RtLocal::HeartbeatTick { gen } if gen == self.heartbeat_gen => self.heartbeat(ctx),
            RtLocal::Restart => {
                // Our outage window ended: every timer chain died with the
                // suppressed deliveries, and any pong that was in flight
                // is gone — forget outstanding probes so we do not evict
                // healthy neighbors for our own downtime.
                self.outstanding.clear();
                self.schedule_retry_tick(ctx);
                if self.leave_pending {
                    self.arm(ctx, Retrying::Leave, ctx.now());
                } else if self.member.is_some() {
                    self.arm(ctx, Retrying::Resync, ctx.now());
                    self.heartbeat_running = false;
                    self.start_heartbeat(ctx);
                } else if self.join_requested {
                    self.arm(ctx, Retrying::Join, ctx.now());
                }
            }
            _ => {}
        }
    }

    /// A message `from` sent over the network.
    fn receive(&mut self, ctx: &mut Outbox, from: NodeId, msg: RtMsg) {
        // Any traffic from a replica node is server-originated (members
        // all live past the replica block): adopt the sender as our
        // server. After a failover this re-anchors every member on the
        // promoted primary the moment its beacon interval (or any reply)
        // arrives.
        if from.0 < ctx.knobs().replicas {
            self.server_node = from;
            self.server_ping_outstanding = false;
        }
        if self.departed && !matches!(msg, RtMsg::LeaveAck) {
            return;
        }
        match msg {
            RtMsg::JoinAccepted {
                member,
                table,
                epoch,
                seq,
            } => {
                // Duplicate or jitter-reordered stale accept: ignore.
                if self.member.is_some() && epoch == self.epoch && seq <= self.table_seq {
                    return;
                }
                self.epoch = self.epoch.max(epoch);
                self.member = Some(member);
                self.adopt_table(table, seq);
                self.sync_stale = false;
                self.retries.remove(&Retrying::Join);
                if let Some(joiner) = self.joiner.take() {
                    self.stats.join_elapsed = ctx.now() - joiner.started_at;
                }
                if std::mem::take(&mut self.leave_asked) {
                    return self.leave(ctx);
                }
                // Welcome safety net: if the key material never arrives
                // (lost to an outage window), fetch a snapshot instead.
                self.arm(
                    ctx,
                    Retrying::Resync,
                    ctx.now() + 2 * ctx.knobs().rekey_period + ctx.knobs().nack_grace,
                );
                self.start_heartbeat(ctx);
            }
            RtMsg::JoinSeed { seed }
                if self.join_requested && self.member.is_none() && self.joiner.is_none() =>
            {
                self.joiner = Some(Box::new(Joiner {
                    probe: Probe::new(seed),
                    digits: None,
                    rtt: BTreeMap::new(),
                    queries: Vec::new(),
                    pings: BTreeMap::new(),
                    started_at: ctx.now(),
                }));
                self.join_progress(ctx);
                self.advance_join(ctx);
            }
            RtMsg::Query { target } => {
                let records = (self.table.iter())
                    .flat_map(|t| t.iter_all())
                    .filter(|r| target.is_prefix_of_id(&r.member.id))
                    .copied()
                    .collect();
                ctx.send(from, RtMsg::QueryReply { target, records });
            }
            RtMsg::QueryReply {
                target,
                mut records,
            } => {
                let replicas = ctx.knobs().replicas;
                let Some(joiner) = self.joiner.as_deref_mut() else {
                    return;
                };
                // Only the first reply to a query in flight counts.
                let asked =
                    |(m, t): &(Member, IdPrefix)| m.host.0 + replicas == from.0 && *t == target;
                let Some(at) = joiner.queries.iter().position(asked) else {
                    return;
                };
                joiner.queries.remove(at);
                records.retain(|r| target.is_prefix_of_id(&r.member.id));
                joiner.probe.answer(&target, &records);
                self.join_progress(ctx);
                self.advance_join(ctx);
            }
            RtMsg::Welcome {
                welcome,
                epoch,
                next_interval_at,
            } => {
                if epoch < self.epoch || self.member.is_none() {
                    return;
                }
                self.note_epoch(ctx, epoch);
                let interval = welcome.interval;
                self.agent = Some(UserAgent::from_welcome(welcome));
                self.server_interval_seen = self.server_interval_seen.max(interval);
                self.pending.retain(|&i, _| i > interval);
                if !self.sync_stale {
                    self.retries.remove(&Retrying::Resync);
                }
                self.drain_payloads(ctx);
                self.arm_check(ctx, next_interval_at);
            }
            RtMsg::Table { table, epoch, seq } => {
                self.note_epoch(ctx, epoch);
                if epoch == self.epoch && self.member.is_some() && seq > self.table_seq {
                    self.adopt_table(table, seq);
                }
            }
            RtMsg::LeaveAck => {
                self.leave_pending = false;
                self.retries.remove(&Retrying::Leave);
            }
            RtMsg::Forward {
                level,
                prefix,
                message,
            } => {
                self.stats.copies_received += 1;
                self.delay_seen = self
                    .delay_seen
                    .max(ctx.now().saturating_sub(message.sent_at));
                let split_size = message.index.related_ranges(prefix.as_slice()).total() as u64;
                self.stats.payload_encryptions += split_size;
                ctx.sinks.split_payload.record(split_size);
                self.note_epoch(ctx, message.epoch);
                self.server_interval_seen = self.server_interval_seen.max(message.interval);
                self.follow_server_clock(ctx, message.interval, message.sent_at);
                // Forward duty: once per interval, rows `level..D` of the
                // table (Fig. 2), routing around suspects (§2.3).
                if message.interval > self.last_forwarded {
                    if let Some(table) = &self.table {
                        self.last_forwarded = message.interval;
                        let suspects = &self.suspects;
                        let mut fanout = 0u64;
                        for hop in
                            user_next_hops_with(table, level, &|id| !suspects.contains_key(id))
                        {
                            self.stats.copies_forwarded += 1;
                            fanout += 1;
                            ctx.send(
                                NodeId(hop.neighbor.member.host.0 + ctx.knobs().replicas),
                                RtMsg::Forward {
                                    level: hop.forward_level,
                                    prefix: PrefixBuf::of_hop(&hop),
                                    message: Arc::clone(&message),
                                },
                            );
                        }
                        ctx.sinks.forward_fanout.record(fanout);
                    }
                }
                // Key state: any copy addressed to us carries our full
                // related set (Lemma 3 / Corollary 1), so one per interval
                // suffices. Buffer pre-welcome copies; Welcome prunes.
                let needed = self
                    .agent
                    .as_ref()
                    .is_none_or(|a| message.interval > a.interval());
                if needed {
                    self.pending
                        .entry(message.interval)
                        .or_insert(PendingPayload::Mesh(message));
                    self.drain_payloads(ctx);
                }
                let grace = self.adaptive_grace(ctx);
                self.scan_missing(ctx, grace);
            }
            RtMsg::Recover {
                interval,
                encryptions,
                sent_at,
                seq,
            } => {
                self.server_interval_seen = self.server_interval_seen.max(interval);
                self.note_seq_watermark(ctx, seq);
                let needed = self.agent.as_ref().is_some_and(|a| interval > a.interval())
                    && !self.pending.contains_key(&interval);
                if needed {
                    self.stats.recovered_encryptions += encryptions.len() as u64;
                    self.pending.insert(
                        interval,
                        PendingPayload::Unicast {
                            encryptions,
                            sent_at,
                        },
                    );
                    self.drain_payloads(ctx);
                }
                let grace = self.adaptive_grace(ctx);
                self.scan_missing(ctx, grace);
            }
            RtMsg::Ping { token } => {
                // Answered whenever the process is up (even before our own
                // JoinAccepted lands — an established member may learn of
                // us from a pushed table and ping first on a faster path).
                // Departed and crashed nodes absorb pings, which is what
                // the detector keys on.
                let access_rtt = ctx.access_rtt(ctx.self_id());
                ctx.send(from, RtMsg::Pong { token, access_rtt });
            }
            RtMsg::Pong { token, access_rtt } => {
                if let Some(joiner) = self.joiner.as_deref_mut() {
                    if let Some((user, sent_at)) = joiner.pings.remove(&token) {
                        // The round trip is the end-host RTT; §3.1.2's
                        // gateway estimate takes off both access links.
                        let estimate = (ctx.now() - sent_at)
                            .saturating_sub(ctx.access_rtt(ctx.self_id()))
                            .saturating_sub(access_rtt);
                        joiner.rtt.insert(user.id, estimate);
                        self.join_progress(ctx);
                        return self.advance_join(ctx);
                    }
                }
                let Some((_, id)) = self.outstanding.remove(&token) else {
                    return;
                };
                // Probation: an evicted suspect that answers is
                // reinstated (one the server departed was dropped from
                // probation by the table that no longer lists it).
                if let Some(table) = &mut self.table {
                    if let Some(record) = self.suspects.remove(&id) {
                        Arc::make_mut(table).insert(record);
                        self.stats.rehabilitations += 1;
                    }
                }
            }
            RtMsg::ServerPong {
                epoch,
                seq,
                interval,
            } => {
                self.note_epoch(ctx, epoch);
                if epoch != self.epoch {
                    return;
                }
                self.server_interval_seen = self.server_interval_seen.max(interval);
                // A version ahead of ours means a pushed table never
                // arrived (e.g. our own outage window).
                self.note_seq_watermark(ctx, seq);
                let grace = self.adaptive_grace(ctx);
                self.scan_missing(ctx, grace);
            }
            RtMsg::NotMember { id } if self.member.as_ref().is_some_and(|m| m.id == id) => {
                // Wrongfully departed (e.g. behind a healed partition):
                // start over from scratch.
                self.stats.rejoins += 1;
                self.reset_to_unjoined();
                self.join_requested = true;
                ctx.send(self.server_node, RtMsg::JoinRequest);
                self.arm(ctx, Retrying::Join, ctx.now() + ctx.knobs().retry_base);
            }
            RtMsg::Resync {
                member,
                table,
                welcome,
                epoch,
                seq,
                next_interval_at,
            } => {
                if epoch < self.epoch || self.departed {
                    return;
                }
                self.stats.resyncs += 1;
                self.epoch = epoch;
                self.member = Some(member);
                self.table = Some(table);
                self.table_seq = seq;
                self.sync_stale = false;
                let interval = welcome.interval;
                self.agent = Some(UserAgent::from_welcome(welcome));
                self.server_interval_seen = self.server_interval_seen.max(interval);
                self.pending.retain(|&i, _| i > interval);
                // The snapshot table is authoritative; local suspicion
                // state against it is stale.
                self.suspects.clear();
                self.outstanding.clear();
                self.retries.remove(&Retrying::Resync);
                self.retries.remove(&Retrying::Join);
                self.retries
                    .retain(|k, _| !matches!(k, Retrying::Nack(i) if *i <= interval));
                self.drain_payloads(ctx);
                self.arm_check(ctx, next_interval_at);
                self.start_heartbeat(ctx);
            }
            _ => {}
        }
    }
}

impl RtMember {
    /// The NACK deadline of one expected interval boundary passed.
    fn interval_check(&mut self, ctx: &mut Outbox) {
        self.scan_missing(ctx, 0);
        // This timer fires `adaptive_grace` past each expected
        // interval boundary. If the boundary passed without any
        // evidence of the interval (every copy to us and to our
        // upstream lost, or the server is down), probe for it
        // speculatively: a live server answers with the related
        // set, a dead one stays silent and the retry lineage
        // escalates into the existing resync machinery.
        if !ctx.draining {
            if let (Some(agent), true) = (&self.agent, self.member.is_some()) {
                let next = agent.interval() + 1;
                if next > self.server_interval_seen
                    && next <= self.expected_interval
                    && !self.pending.contains_key(&next)
                    && !self.retries.contains_key(&Retrying::Nack(next))
                {
                    self.arm(ctx, Retrying::Nack(next), ctx.now());
                }
            }
        }
        self.delay_seen_prev = self.delay_seen;
        self.delay_seen = 0;
        if !ctx.draining {
            self.next_boundary += ctx.knobs().rekey_period;
            self.expected_interval += 1;
            let deadline = self.next_boundary + self.adaptive_grace(ctx);
            ctx.timer(
                deadline.saturating_sub(ctx.now()).max(1),
                RtLocal::IntervalCheck {
                    gen: self.check_gen,
                },
            );
        }
    }

    /// Observes a server epoch: any bump invalidates our table version
    /// and forces a snapshot resync (a restarted server rolled back to
    /// its last checkpoint, so no pushed table is trustworthy).
    fn note_epoch(&mut self, ctx: &mut Outbox, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
            // Versions are per-epoch: the forced snapshot below is the
            // sole freshness proof until `table_seq` is reseeded.
            self.seq_hint = 0;
            self.sync_stale = true;
            if self.member.is_some() {
                self.arm(ctx, Retrying::Resync, ctx.now());
            }
        }
    }

    /// `Recover` and `ServerPong` carry the server's version of our
    /// table; a member behind it lost a `Table` push. Give an in-flight
    /// push the grace period, then fetch a snapshot (the resync dissolves
    /// at fire time if the push lands). During shutdown the request goes
    /// out at once, on every flush `Recover` that still finds us behind
    /// or epoch-stale: retry timers are dead by then, the flush comes
    /// from the acting primary (and re-anchored us), and a request or
    /// reply lost to the network is simply asked again next round.
    fn note_seq_watermark(&mut self, ctx: &mut Outbox, seq: u64) {
        if self.member.is_none() || (seq <= self.table_seq && !self.sync_stale) {
            return;
        }
        self.seq_hint = self.seq_hint.max(seq);
        self.arm(ctx, Retrying::Resync, ctx.now() + ctx.knobs().nack_grace);
    }

    /// Takes `table` (version `seq`) as ours. Suspects it still lists
    /// stay evicted, on probation; suspects it no longer lists are gone
    /// from the group or from our neighborhood, so probation ends.
    fn adopt_table(&mut self, mut table: Arc<NeighborTable>, seq: u64) {
        self.suspects
            .retain(|id, _| lists(&table, id) && Arc::make_mut(&mut table).remove(id));
        self.table = Some(table);
        self.table_seq = seq;
    }

    /// Applies buffered rekey payloads strictly in interval order,
    /// starting at `agent.interval + 1`; prunes anything at or below the
    /// agent, plus any NACK retry the application satisfied.
    fn drain_payloads(&mut self, ctx: &mut Outbox) {
        let now = ctx.now();
        let (Some(agent), Some(member)) = (self.agent.as_mut(), self.member.as_ref()) else {
            return;
        };
        loop {
            while let Some((&first, _)) = self.pending.first_key_value() {
                if first <= agent.interval() {
                    self.pending.remove(&first);
                } else {
                    break;
                }
            }
            let next = agent.interval() + 1;
            let (sent_at, span) = match self.pending.remove(&next) {
                None => break,
                Some(PendingPayload::Mesh(message)) => {
                    let related = message.index.indices(member.id.digits());
                    agent.handle_rekey(next, related.map(|e| &message.encryptions[e]));
                    (message.sent_at, "apply")
                }
                Some(PendingPayload::Unicast {
                    encryptions,
                    sent_at,
                }) => {
                    agent.handle_rekey(next, encryptions.iter());
                    (sent_at, "recovery")
                }
            };
            self.stats.intervals_applied += 1;
            let delay = now.saturating_sub(sent_at);
            self.stats.apply_delay_total += delay;
            ctx.sinks.apply_delay_us.record(delay);
            ctx.sinks.spans.record(span, sent_at, now, next);
        }
        let applied = agent.interval();
        self.retries
            .retain(|k, _| !matches!(k, Retrying::Nack(i) if *i <= applied));
    }

    /// Arms a NACK for every interval the evidence says exists but we
    /// neither hold nor have buffered. During shutdown the NACK goes out
    /// immediately (timers no longer fire), deduplicated per interval.
    fn scan_missing(&mut self, ctx: &mut Outbox, grace: SimTime) {
        let Some(agent) = &self.agent else { return };
        let start = agent.interval() + 1;
        let end = self.server_interval_seen;
        if start > end {
            return;
        }
        let due = ctx.now() + grace;
        for i in start..=end {
            if self.pending.contains_key(&i) {
                continue;
            }
            if !ctx.draining && self.retries.contains_key(&Retrying::Nack(i)) {
                continue;
            }
            self.arm(ctx, Retrying::Nack(i), due);
        }
    }

    /// Registers a retry entry (first fire at `due`) and makes sure a
    /// retry timer is running. During shutdown the action fires inline
    /// instead — the event queue is draining and timers are dead.
    fn arm(&mut self, ctx: &mut Outbox, kind: Retrying, due: SimTime) {
        if ctx.draining {
            self.fire_shutdown(ctx, kind);
            return;
        }
        self.retries
            .entry(kind)
            .or_insert(RetryState { attempts: 0, due });
        self.schedule_retry_tick(ctx);
    }

    /// The shutdown form of a retry: send immediately. A NACK goes out
    /// once per interval; a resync request on every call, so each flush
    /// round that still finds the member behind asks again.
    fn fire_shutdown(&mut self, ctx: &mut Outbox, kind: Retrying) {
        match kind {
            Retrying::Nack(i) => {
                if self.shutdown_nacked.insert(i) {
                    self.stats.nacks_sent += 1;
                    let id = self.member.as_ref().expect("a keyed member NACKs").id;
                    ctx.send(self.server_node, RtMsg::Nack { interval: i, id });
                }
            }
            Retrying::Resync => {
                if let Some(member) = self.member {
                    ctx.send(self.server_node, RtMsg::ResyncRequest { id: member.id });
                }
            }
            Retrying::Join => ctx.send(self.server_node, self.join_msg()),
            Retrying::Leave => ctx.send(self.server_node, RtMsg::LeaveRequest),
        }
    }

    /// (Re)schedules the single retry timer at the earliest due time.
    fn schedule_retry_tick(&mut self, ctx: &mut Outbox) {
        if ctx.draining {
            return;
        }
        let Some(min_due) = self.retries.values().map(|st| st.due).min() else {
            return;
        };
        self.retry_gen += 1;
        ctx.timer(
            min_due.saturating_sub(ctx.now()).max(1),
            RtLocal::RetryTick {
                gen: self.retry_gen,
            },
        );
    }

    fn fire_due_retries(&mut self, ctx: &mut Outbox) {
        let now = ctx.now();
        let due: Vec<Retrying> = self
            .retries
            .iter()
            .filter(|(_, st)| st.due <= now)
            .map(|(k, _)| *k)
            .collect();
        for kind in due {
            self.fire_retry(ctx, kind);
        }
    }

    fn fire_retry(&mut self, ctx: &mut Outbox, kind: Retrying) {
        let now = ctx.now();
        // Entries whose goal was met since arming dissolve silently.
        let satisfied = match kind {
            Retrying::Join => self.member.is_some(),
            Retrying::Leave => !self.leave_pending,
            Retrying::Resync => {
                self.member.is_none()
                    || (!self.sync_stale
                        && self.seq_hint <= self.table_seq
                        && self
                            .agent
                            .as_ref()
                            .is_some_and(|a| a.interval() >= self.server_interval_seen))
            }
            Retrying::Nack(i) => {
                self.pending.contains_key(&i)
                    || self.agent.as_ref().is_none_or(|a| a.interval() >= i)
            }
        };
        if satisfied {
            self.retries.remove(&kind);
            return;
        }
        let Some(&st) = self.retries.get(&kind) else {
            return;
        };
        // A NACK that exhausted its attempts escalates to a snapshot:
        // the server-assisted resync replaces the whole retry lineage.
        if matches!(kind, Retrying::Nack(_)) && st.attempts >= ctx.knobs().retry_cap {
            self.retries.remove(&kind);
            self.arm(ctx, Retrying::Resync, now);
            return;
        }
        let cap = ctx.knobs().retry_cap;
        let attempts = (st.attempts + 1).min(cap);
        let due = now + ctx.knobs().backoff(attempts);
        self.retries.insert(kind, RetryState { attempts, due });
        self.stats.max_retry_attempts = self.stats.max_retry_attempts.max(attempts);
        // While the node probes, its join retry is aimed at members.
        let probing =
            kind == Retrying::Join && self.joiner.as_ref().is_some_and(|j| j.digits.is_none());
        if st.attempts > 0 || matches!(kind, Retrying::Join | Retrying::Leave) {
            // Join/leave send inline when first requested, so every fire
            // of those re-transmits; a NACK's or resync's first fire is
            // its scheduled first send, not a retransmission.
            self.stats.retransmissions += 1;
            // The server we were talking to did not answer the previous
            // attempt: aim the retransmission at the next replica. A live
            // primary re-anchors `server_node` with its reply.
            if !probing {
                self.rotate_server(ctx);
            }
        }
        match kind {
            Retrying::Join if probing => self.retry_probe(ctx, st.attempts >= cap),
            Retrying::Join => ctx.send(self.server_node, self.join_msg()),
            Retrying::Leave => ctx.send(self.server_node, RtMsg::LeaveRequest),
            Retrying::Resync => {
                let id = self.member.as_ref().expect("checked above").id;
                ctx.send(self.server_node, RtMsg::ResyncRequest { id });
            }
            Retrying::Nack(i) => {
                self.stats.nacks_sent += 1;
                let id = self.member.as_ref().expect("a keyed member NACKs").id;
                ctx.send(self.server_node, RtMsg::Nack { interval: i, id });
            }
        }
    }

    fn start_heartbeat(&mut self, ctx: &mut Outbox) {
        if self.heartbeat_running || ctx.draining {
            return;
        }
        self.heartbeat_running = true;
        self.heartbeat_gen += 1;
        // Stagger first beats across the membership so a join burst does
        // not synchronize every ping burst.
        let mut rng = node_rng(ctx.knobs().seed, ctx.self_id());
        let jitter = rng.gen_range(1..=ctx.knobs().heartbeat_period.max(1));
        ctx.timer(
            jitter,
            RtLocal::HeartbeatTick {
                gen: self.heartbeat_gen,
            },
        );
    }

    fn heartbeat(&mut self, ctx: &mut Outbox) {
        if self.table.is_none() {
            self.heartbeat_running = false;
            return;
        }
        // Evict neighbors whose previous ping went unanswered; they go on
        // probation and the server is notified (and re-notified every
        // beat until a table it pushes drops them). A probe is matched on
        // host *and* id: a departed member's id may already name a joiner
        // in a table pushed since, and that joiner was never probed.
        let timed_out: BTreeSet<(HostId, UserId)> = std::mem::take(&mut self.outstanding)
            .into_values()
            .collect();
        let dead = |r: &NeighborRecord| timed_out.contains(&(r.member.host, r.member.id));
        let mut evicted: Vec<NeighborRecord> = Vec::new();
        if let Some(table) = &mut self.table {
            evicted = table.iter_all().filter(|r| dead(r)).copied().collect();
            // Copied only when a record actually goes.
            if !evicted.is_empty() {
                let table = Arc::make_mut(table);
                for record in &evicted {
                    table.remove(&record.member.id);
                }
            }
        }
        for record in evicted {
            self.stats.evictions += 1;
            self.suspects.insert(record.member.id, record);
        }
        for id in self.suspects.keys() {
            ctx.send(self.server_node, RtMsg::FailureNotice { failed: *id });
        }
        if ctx.draining {
            self.heartbeat_running = false;
            return;
        }
        // Ping every stored neighbor plus every probation suspect.
        let mut targets: Vec<(HostId, UserId)> = Vec::new();
        if let Some(table) = &self.table {
            for record in table.iter_all() {
                targets.push((record.member.host, record.member.id));
            }
        }
        for record in self.suspects.values() {
            targets.push((record.member.host, record.member.id));
        }
        for (host, id) in targets {
            let token = self.next_token;
            self.next_token += 1;
            self.outstanding.insert(token, (host, id));
            self.stats.pings_sent += 1;
            ctx.send(ctx.knobs().member_node(host), RtMsg::Ping { token });
        }
        // Probe the server: its pong is our NACK evidence and our
        // membership certificate; a NotMember reply triggers a rejoin.
        // An unanswered probe from the previous beat means the replica we
        // were aimed at is silent — rotate before probing again.
        if self.server_ping_outstanding {
            self.rotate_server(ctx);
        }
        if let Some(member) = &self.member {
            let id = member.id;
            self.server_ping_outstanding = true;
            ctx.send(self.server_node, RtMsg::ServerPing { id });
        }
        ctx.timer(
            ctx.knobs().heartbeat_period,
            RtLocal::HeartbeatTick {
                gen: self.heartbeat_gen,
            },
        );
    }

    /// (Re)anchors the NACK check timer at `next_interval_at` plus the
    /// adaptive grace. Each firing then re-anchors at the next expected
    /// boundary, so the offset tracks the observed pipeline delay instead
    /// of staying at the configured worst case.
    fn arm_check(&mut self, ctx: &mut Outbox, next_interval_at: SimTime) {
        let expected = self
            .agent
            .as_ref()
            .map_or(self.server_interval_seen, |a| a.interval())
            + 1;
        self.anchor_check(ctx, next_interval_at, expected);
    }

    /// A copy of interval `interval` the server multicast at `sent_at`
    /// dates its clock: the interval the check chain expects ends
    /// `sent_at` plus one period per interval in between. A wall-clock
    /// server's tick slips by its scheduling latency every interval, so a
    /// chain anchored once runs ahead of it and NACKs intervals not yet
    /// sent; re-anchor whenever the server is later than the chain. (This
    /// used to ride the snapshot every member fetched each interval; the
    /// simulated server ticks on schedule, so there it never fires.)
    fn follow_server_clock(&mut self, ctx: &mut Outbox, interval: u64, sent_at: SimTime) {
        if self.sync_stale || interval > self.expected_interval {
            return;
        }
        let periods = self.expected_interval - interval;
        let boundary = sent_at + periods * ctx.knobs().rekey_period;
        if boundary > self.next_boundary {
            self.anchor_check(ctx, boundary, self.expected_interval);
        }
    }

    /// Points the check chain at `interval` ending at `boundary` and arms
    /// its timer (superseding the previous one).
    fn anchor_check(&mut self, ctx: &mut Outbox, boundary: SimTime, interval: u64) {
        if ctx.draining {
            return;
        }
        self.check_gen += 1;
        self.next_boundary = boundary;
        self.expected_interval = interval;
        let deadline = boundary + self.adaptive_grace(ctx);
        ctx.timer(
            deadline.saturating_sub(ctx.now()).max(1),
            RtLocal::IntervalCheck {
                gen: self.check_gen,
            },
        );
    }

    /// What a join retry sends the server: the decided digits, or, before
    /// a probe decided any, the request.
    fn join_msg(&self) -> RtMsg {
        match self.joiner.as_ref().and_then(|j| j.digits) {
            Some(digits) => RtMsg::JoinDigits { digits },
            None => RtMsg::JoinRequest,
        }
    }

    /// The join made progress: its retry next fires a full `retry_base`
    /// from now, as if first armed.
    fn join_progress(&mut self, ctx: &Outbox) {
        let due = ctx.now() + ctx.knobs().retry_base;
        if let Some(st) = self.retries.get_mut(&Retrying::Join) {
            *st = RetryState { attempts: 0, due };
        }
    }

    /// Runs the probe as far as the replies in hand allow: sends the
    /// queries it asks for; once every answer is in, pings the users step 3
    /// reads whose RTT is not known yet; once every pong is in, decides the
    /// digit and starts the next round, or sends the digits to the server.
    fn advance_join(&mut self, ctx: &mut Outbox) {
        let replicas = ctx.knobs().replicas;
        // A handle of its own, so the sends below can borrow the outbox.
        let params = Arc::clone(&ctx.assign);
        let Some(joiner) = self.joiner.as_deref_mut().filter(|j| j.digits.is_none()) else {
            return;
        };
        loop {
            while let Some((user, target)) = joiner.probe.next_query(&params) {
                joiner.queries.push((user, target));
                ctx.send(NodeId(user.host.0 + replicas), RtMsg::Query { target });
            }
            if joiner.probe.awaiting() > 0 || !joiner.pings.is_empty() {
                return;
            }
            for user in joiner.probe.to_measure(&params) {
                if !joiner.rtt.contains_key(&user.id) {
                    let token = self.next_token;
                    self.next_token += 1;
                    joiner.pings.insert(token, (*user, ctx.now()));
                    ctx.send(NodeId(user.host.0 + replicas), RtMsg::Ping { token });
                }
            }
            if !joiner.pings.is_empty() {
                return;
            }
            let rtt = &joiner.rtt;
            if !joiner.probe.decide(&params, |m| rtt[&m.id]) {
                break;
            }
        }
        let (digits, stats) = joiner.probe.finish();
        joiner.digits = Some(digits);
        let count = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
        self.stats.join_queries = count(stats.queries);
        // Every user pinged, once or again, holds one RTT estimate.
        self.stats.join_pings = count(joiner.rtt.len() as u64);
        self.stats.digits_probed = count(stats.digits_probed as u64);
        ctx.send(self.server_node, RtMsg::JoinDigits { digits });
        self.join_progress(ctx);
    }

    /// The join retry while the node probes (queries and pings are never
    /// in flight together): re-sends every query still unanswered, and
    /// re-pings every silent user under a fresh token, so that the round
    /// trip is timed from the re-send. Once they have stayed unanswered
    /// through the retry cap (`give_up`), a silent query counts as
    /// answered with no records and a silent user as unreachable.
    fn retry_probe(&mut self, ctx: &mut Outbox, give_up: bool) {
        let replicas = ctx.knobs().replicas;
        let joiner = self.joiner.as_deref_mut().expect("the node probes");
        let silent = std::mem::take(&mut joiner.pings).into_values();
        if give_up {
            for (_, target) in joiner.queries.drain(..) {
                joiner.probe.answer(&target, &[]);
            }
            joiner
                .rtt
                .extend(silent.map(|(user, _)| (user.id, Micros::MAX)));
            self.join_progress(ctx);
        } else {
            for &(user, target) in &joiner.queries {
                ctx.send(NodeId(user.host.0 + replicas), RtMsg::Query { target });
            }
        }
        self.advance_join(ctx);
    }

    /// Clears every trace of membership so the node can rejoin from
    /// scratch (after the server disowned it).
    fn reset_to_unjoined(&mut self) {
        self.member = None;
        self.table = None;
        self.agent = None;
        self.table_seq = 0;
        self.sync_stale = false;
        self.join_requested = false;
        self.joiner = None;
        self.pending.clear();
        self.server_interval_seen = 0;
        self.last_forwarded = 0;
        self.suspects.clear();
        self.outstanding.clear();
        self.heartbeat_gen += 1;
        self.heartbeat_running = false;
        self.check_gen += 1;
        self.retries.clear();
        self.retry_gen += 1;
    }

    /// Retires the node and asks the server to remove it (§3.2).
    fn leave(&mut self, ctx: &mut Outbox) {
        self.leave_pending = true;
        self.departed = true;
        self.retire();
        ctx.send(self.server_node, RtMsg::LeaveRequest);
        // The ack rides the next checkpoint, so the first retry only fires
        // once a full rekey period has gone unanswered.
        let knobs = ctx.knobs();
        let due = ctx.now() + knobs.rekey_period + knobs.retry_base;
        self.arm(ctx, Retrying::Leave, due);
    }

    /// Drops the local protocol state on a voluntary leave (the leave
    /// retry entry itself is armed by the caller).
    fn retire(&mut self) {
        self.table = None;
        self.joiner = None;
        self.agent = None;
        self.pending.clear();
        self.suspects.clear();
        self.outstanding.clear();
        self.heartbeat_gen += 1;
        self.heartbeat_running = false;
        self.check_gen += 1;
        self.retries.clear();
        self.retry_gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupConfig;
    use rekey_id::IdSpec;
    use rekey_net::GridNetwork;

    /// A dealt group of `members` on hosts `0..members`, the server on the
    /// last host and host `members` free for a joiner.
    fn dealt(members: usize) -> (GridNetwork, GroupServer, Vec<WelcomePacket>) {
        let net = GridNetwork::new(members + 2, 1_000, 100);
        let hosts: Vec<HostId> = (0..members).map(HostId).collect();
        let (server, welcomes) = GroupConfig::for_spec(&IdSpec::new(4, 16).unwrap())
            .k(2)
            .seed(5)
            .bootstrap(HostId(members + 1), &hosts, &net)
            .expect("fits the ID space");
        (net, server, welcomes)
    }

    /// The default knobs of a runtime with `replicas` replicas.
    fn knobs(replicas: usize) -> Knobs {
        Knobs::of_config(&RuntimeConfig::builder().replicas(replicas).build())
    }

    /// A fresh lane outbox of a runtime with `replicas` replicas.
    fn outbox(replicas: usize) -> Outbox {
        let assign = Arc::new(crate::AssignParams::for_depth(4));
        Outbox::new(knobs(replicas), assign, Arc::new([]))
    }

    /// The `(recipient, message)` of every `Send` in `out`, drained.
    fn sends(out: &mut Outbox) -> Vec<(NodeId, RtMsg)> {
        out.effects
            .drain(..)
            .filter_map(|effect| match effect {
                Effect::Send { to, msg } => Some((to, msg)),
                Effect::Timer { .. } => None,
            })
            .collect()
    }

    /// Checks that `sent` is one `Table` — the group's current copy — to
    /// each owner `Group` reports as changed, and nothing else but what
    /// `other` accepts. Returns the number of pushes.
    fn one_push_per_changed_table(
        server: &RtServer,
        sent: Vec<(NodeId, RtMsg)>,
        other: impl Fn(NodeId, &RtMsg) -> bool,
    ) -> usize {
        let group = server.server.group();
        let mut want: Vec<NodeId> = group
            .changed_tables()
            .iter()
            .map(|&idx| NodeId(group.members()[idx].host.0 + 1))
            .collect();
        let mut got = Vec::new();
        for (to, msg) in sent {
            match msg {
                RtMsg::Table { table, epoch, seq } => {
                    let idx = group.index_of(table.owner()).expect("owner is a member");
                    assert_eq!(to, NodeId(group.members()[idx].host.0 + 1));
                    assert!(table.iter_all().eq(group.table(idx).iter_all()));
                    assert_eq!((epoch, seq), (0, group.mutations()));
                    got.push(to);
                }
                msg => assert!(other(to, &msg), "unexpected send to {to:?}: {msg:?}"),
            }
        }
        want.sort();
        got.sort();
        assert_eq!(got, want, "one Table per changed owner, nobody else");
        got.len()
    }

    /// A leave and a join on a dealt group send one `Table` to each owner
    /// whose table changed, plus the joiner's `JoinAccepted` — not a
    /// notice to every member. The last-dealt member's leave changes the
    /// same number of tables at 256 and at 4 096 members.
    #[test]
    fn admit_and_depart_push_only_changed_tables() {
        let mut leave_pushes = Vec::new();
        for members in [256, 4_096] {
            let (net, fsm, _) = dealt(members);
            let mut server = RtServer::new(&knobs(1), fsm, 0, journal::Journal::disabled(), false);
            let mut out = outbox(1);
            let leaver = NodeId(members);
            let event = Event::Net {
                from: leaver,
                msg: RtMsg::LeaveRequest,
            };
            server.handle(&mut out, &net, event);
            assert_eq!(server.server.group().len(), members - 1);
            let sent = sends(&mut out);
            leave_pushes.push(one_push_per_changed_table(&server, sent, |_, _| false));

            let joiner = NodeId(members + 1);
            let event = Event::Net {
                from: joiner,
                msg: RtMsg::JoinRequest,
            };
            server.handle(&mut out, &net, event);
            assert_eq!(server.server.group().len(), members);
            let sent = sends(&mut out);
            let accepted = sent
                .iter()
                .filter(|(to, msg)| *to == joiner && matches!(msg, RtMsg::JoinAccepted { .. }))
                .count();
            assert_eq!(accepted, 1);
            let join_pushes = one_push_per_changed_table(&server, sent, |to, msg| {
                to == joiner && matches!(msg, RtMsg::JoinAccepted { .. })
            });
            assert!(join_pushes < members, "{join_pushes} pushes for one join");
        }
        assert!(leave_pushes[0] > 0, "the leave changed no table");
        assert_eq!(leave_pushes[0], leave_pushes[1], "pushes follow N");
    }

    /// A departed neighbor's id can come back on a joiner in the next
    /// pushed table. The departed host's silence must not evict the
    /// joiner, who was never probed: probes match on host and id.
    #[test]
    fn a_reused_id_is_not_evicted_for_its_predecessors_silence() {
        let (_, fsm, mut welcomes) = dealt(16);
        let group = fsm.group();
        let table = group.table(3).clone();
        let (mut member, _) = RtMember::welcomed(&knobs(1), group, 3, welcomes.swap_remove(3));
        let mut out = outbox(1);
        out.me = NodeId(4);
        let beat = || Event::Local(RtLocal::HeartbeatTick { gen: 0 });
        member.handle(&mut out, beat());
        // Every neighbor is probed and none answers; meanwhile the first
        // one departs and a joiner on another host takes over its id.
        let old = *table.iter_all().next().expect("a neighbor");
        let mut pushed = NeighborTable::clone(&table);
        pushed.remove(&old.member.id);
        let joiner = Member {
            host: HostId(999),
            ..old.member
        };
        pushed.insert(NeighborRecord {
            member: joiner,
            rtt: old.rtt,
        });
        let msg = RtMsg::Table {
            table: Arc::new(pushed),
            epoch: 0,
            seq: 1,
        };
        member.handle(&mut out, Event::Net { from: SERVER, msg });
        member.handle(&mut out, beat());
        assert_eq!(member.suspects.len(), table.neighbor_count() - 1);
        assert!(!member.suspects.contains_key(&old.member.id));
        let held = member.table.as_ref().expect("still a member");
        assert_eq!(
            held.iter_all().collect::<Vec<_>>(),
            [&NeighborRecord {
                member: joiner,
                rtt: old.rtt
            }]
        );
    }

    /// Shutdown resync is retried: with timers dead, every flush `Recover`
    /// that still finds the member's table behind the server's asks again,
    /// so one lost request or reply does not wedge `finish`.
    #[test]
    fn every_behind_flush_recover_asks_for_a_resync() {
        let (_, fsm, mut welcomes) = dealt(16);
        let group = fsm.group();
        let (mut member, _) = RtMember::welcomed(&knobs(1), group, 3, welcomes.swap_remove(3));
        let mut out = outbox(1);
        out.draining = true;
        out.me = NodeId(4);
        let mut requests = 0;
        for _ in 0..2 {
            let recover = RtMsg::Recover {
                interval: 1,
                encryptions: Vec::new(),
                sent_at: 0,
                seq: 7,
            };
            member.handle(
                &mut out,
                Event::Net {
                    from: SERVER,
                    msg: recover,
                },
            );
            requests += sends(&mut out)
                .iter()
                .filter(|(to, msg)| *to == SERVER && matches!(msg, RtMsg::ResyncRequest { .. }))
                .count();
        }
        assert_eq!(requests, 2);
    }

    /// A message from the primary and when it arrives.
    type Delivery = (SimTime, RtMsg);

    /// Points `out` at node `me` at the delivery's arrival time, and
    /// returns the delivery as an event.
    fn deliver(out: &mut Outbox, me: NodeId, (now, msg): &Delivery) -> Event {
        (out.now, out.me) = (*now, me);
        let msg = msg.clone();
        Event::Net { from: SERVER, msg }
    }

    /// The effects in `out`, drained and rendered for comparison.
    fn effects(out: &mut Outbox) -> String {
        format!("{:?}", out.effects.drain(..).collect::<Vec<_>>())
    }

    /// Nodes are values, in the Moirai idiom: replicas are cloned and
    /// events delivered by hand. A primary driven by hand rekeys two
    /// leaves; a follower replica and a dealt member each take the first
    /// round of what it sent, are cloned, and the original and the clone
    /// take the second round through separate outboxes. Both emit the same
    /// effects and end in the same state, and each outbox holds only its
    /// own node's records.
    #[test]
    fn a_cloned_node_is_an_equal_independent_value() {
        const REPLICAS: usize = 3;
        let (net, fsm, mut welcomes) = dealt(16);
        let knobs = knobs(REPLICAS);
        let disabled = journal::Journal::disabled;
        let mut primary = RtServer::new(&knobs, fsm.clone(), 0, disabled(), false);
        let mut follower = RtServer::new(&knobs, fsm.clone(), 1, disabled(), false);
        let (mut member, _) = RtMember::welcomed(&knobs, fsm.group(), 3, welcomes.swap_remove(3));

        // Per round, a leave and the interval boundary that rekeys it:
        // what the primary streams to replica 1, and one multicast copy of
        // the interval, each arriving 1 ms after it was sent.
        let (mut entries, mut copies) = (Vec::new(), Vec::new());
        let mut out = outbox(REPLICAS);
        for (round, leaver) in [(1, 5), (2, 9)] {
            let boundary = round * knobs.rekey_period;
            let leave = Event::Net {
                from: NodeId(leaver + REPLICAS),
                msg: RtMsg::LeaveRequest,
            };
            let tick = Event::Local(RtLocal::IntervalTick { gen: 0 });
            for (now, event) in [(boundary - knobs.rekey_period / 2, leave), (boundary, tick)] {
                out.now = now;
                primary.handle(&mut out, &net, event);
                for (to, msg) in sends(&mut out) {
                    let delivery = (now + 1_000, msg);
                    match delivery.1 {
                        RtMsg::ReplEntry { .. } if to == NodeId(1) => entries.push(delivery),
                        RtMsg::Forward { .. } if copies.len() < round as usize => {
                            copies.push(delivery);
                        }
                        _ => {}
                    }
                }
            }
        }
        assert_eq!((entries.len(), copies.len()), (4, 2));
        let mut before = outbox(REPLICAS);
        let (mut mine, mut theirs) = (outbox(REPLICAS), outbox(REPLICAS));

        let me = NodeId(1);
        for delivery in &entries[..2] {
            let event = deliver(&mut before, me, delivery);
            follower.handle(&mut before, &net, event);
        }
        let mut twin = follower.clone();
        for delivery in &entries[2..] {
            let event = deliver(&mut mine, me, delivery);
            follower.handle(&mut mine, &net, event);
            let event = deliver(&mut theirs, me, delivery);
            twin.handle(&mut theirs, &net, event);
            let acked = effects(&mut mine);
            assert!(acked.contains("ReplAck"), "{acked}");
            assert_eq!(acked, effects(&mut theirs));
        }
        let state = |r: &RtServer| {
            let key = r.server.tree().group_key().cloned();
            (r.server.interval(), r.epoch, r.repl.applied_idx, key)
        };
        let group_key = primary.server.tree().group_key().cloned();
        assert_eq!(state(&follower), (3, 0, 4, group_key.clone()));
        assert_eq!(state(&twin), state(&follower));

        let me = NodeId(3 + REPLICAS);
        let event = deliver(&mut before, me, &copies[0]);
        member.handle(&mut before, event);
        let mut twin = member.clone();
        let event = deliver(&mut mine, me, &copies[1]);
        member.handle(&mut mine, event);
        let event = deliver(&mut theirs, me, &copies[1]);
        twin.handle(&mut theirs, event);
        assert_eq!(effects(&mut mine), effects(&mut theirs));
        let state = |m: &RtMember| {
            let agent = m.agent.as_ref().expect("welcomed");
            (agent.interval(), m.epoch, agent.group_key().cloned())
        };
        assert_eq!(state(&member), (3, 0, group_key));
        assert_eq!(state(&twin), state(&member));

        // Each outbox holds one application: its own node's, not the other's.
        for out in [&before, &mine, &theirs] {
            assert_eq!(out.sinks.apply_delay_us.snapshot().count, 1);
            let (spans, _) = rekey_metrics::merge_spans([&out.sinks.spans]);
            assert_eq!(spans.len(), 1);
        }

        // A write is a copy: the twin evicts the neighbors that did not
        // answer its pings and adopts a pushed table, while the original
        // and the group it was dealt from keep the table they share.
        let dealt = Arc::clone(fsm.group().table(3));
        let records: Vec<NeighborRecord> = dealt.iter_all().copied().collect();
        let beat = || Event::Local(RtLocal::HeartbeatTick { gen: 0 });
        twin.handle(&mut theirs, beat());
        twin.handle(&mut theirs, beat());
        assert_eq!(twin.suspects.len(), records.len());
        let held = |m: &RtMember| Arc::clone(m.table.as_ref().expect("a member"));
        assert_eq!(held(&twin).neighbor_count(), 0);
        let mut pushed = NeighborTable::clone(&dealt);
        pushed.remove(&records[0].member.id);
        let msg = RtMsg::Table {
            table: Arc::new(pushed),
            epoch: 0,
            seq: 1,
        };
        twin.handle(&mut theirs, Event::Net { from: SERVER, msg });
        assert_eq!((twin.table_seq, held(&twin).neighbor_count()), (1, 0));
        for table in [held(&member), Arc::clone(fsm.group().table(3))] {
            assert!(Arc::ptr_eq(&table, &dealt));
        }
        assert!(dealt.iter_all().eq(&records));
    }
}
