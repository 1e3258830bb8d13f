//! The distributed join protocol, executed message by message in one
//! event loop over a [`Scheduler`] (§3.1–§3.2).
//!
//! [`Group`](crate::Group) resolves joins against global knowledge — the
//! simplification the paper itself uses for its large simulations. This
//! module is the *protocol-level* implementation: a joining node really
//! exchanges messages with real latencies:
//!
//! 1. `JoinRequest` → the key server authenticates and replies with a
//!    bootstrap member record (`JoinBootstrap`);
//! 2. per digit round `i`, the joiner sends `Query { target }` messages to
//!    users it has collected and receives `QueryReply` records (step 1),
//!    then measures RTTs with `Ping`/`Pong` exchanges timed by the
//!    simulation clock itself (step 2), picks the subtree whose
//!    `F`-percentile RTT beats `R_{i+1}` (step 3) or stops;
//! 3. `DigitsNotification` → the server assigns the remaining digits
//!    uniquely (step 4, footnote 3) and replies `IdAssigned`;
//! 4. the joiner builds its neighbor table from the records and RTTs it
//!    gathered and announces itself; the server forwards the new record to
//!    the existing members (`NewMember`) and sends the joiner any members
//!    it could not have seen (concurrent joins), keeping tables
//!    K-consistent.
//!
//! Departures that race with an in-flight join are repaired at assignment
//! time: the server keeps a departure log, remembers each joiner's log
//! position at bootstrap, and replays the departures (with their
//! replacement candidates) inside `IdAssigned`, so a member that left
//! mid-join cannot linger in the joiner's freshly built table. (This was a
//! documented stale-table window before the event-driven runtime grew a
//! repair path; `distributed_join.rs` has the regression test.)
//!
//! Gateway RTT estimation follows §3.1.2: each user record carries the
//! host's access-link RTT, so the joiner computes
//! `r(u, w) = h(u, w) − h(u, gw_u) − h(w, gw_w)` from its measured
//! end-to-end ping time.

use std::collections::{BTreeMap, BTreeSet};

use rekey_id::{IdPrefix, IdSpec, IdTree, UserId};
use rekey_net::{HostId, Micros, Network};
use rekey_sim::{NodeId, Scheduler, SimTime};
use rekey_table::{Member, NeighborRecord, NeighborTable, PrimaryPolicy, ServerTable};
use rekey_tmesh::metrics::percentile;

use crate::assign::AssignParams;

/// A member record as carried in protocol messages: the user record plus
/// the access-link RTT the paper stores in every record copy (§3.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
struct WireRecord {
    /// The member.
    member: Member,
    /// RTT between the member and its gateway router.
    access_rtt: Micros,
}

/// Protocol messages.
#[derive(Debug, Clone)]
enum ProtoMsg {
    /// Joiner → server: request to join.
    JoinRequest,
    /// Server → joiner: bootstrap record of one existing member (or none if
    /// the group is empty and the all-zero ID is assigned directly).
    JoinBootstrap {
        /// Seed record, if the group is non-empty.
        seed: Option<WireRecord>,
    },
    /// Joiner → member: step-1 query for records matching `target`.
    Query {
        /// Target ID prefix.
        target: IdPrefix,
    },
    /// Member → joiner: step-1 reply.
    QueryReply {
        /// All records the queried member knows matching the target.
        records: Vec<WireRecord>,
    },
    /// Joiner → member: step-2 RTT probe.
    Ping {
        /// Correlation token.
        token: u64,
        /// Send time, echoed back.
        sent_at: SimTime,
    },
    /// Member → joiner: step-2 probe reply.
    Pong {
        /// Correlation token.
        token: u64,
        /// Echoed send time.
        sent_at: SimTime,
        /// The responder's access-link RTT (stored in records, §3.1.2).
        access_rtt: Micros,
    },
    /// Joiner → server: step-4 notification of self-determined digits.
    DigitsNotification {
        /// Digits determined by probing.
        digits: Vec<u16>,
        /// Send time so the server can measure its RTT to the joiner.
        sent_at: SimTime,
    },
    /// Server → joiner: the complete assigned ID plus records the joiner
    /// could not have collected (members that joined concurrently) and the
    /// departures it could not have observed (members that left while the
    /// join was in flight), each with replacement candidates.
    IdAssigned {
        /// The joiner's new member record.
        member: Member,
        /// Records of concurrently joined members.
        extra: Vec<WireRecord>,
        /// Departures since the joiner bootstrapped, in order, with the
        /// replacement candidates broadcast for each.
        repairs: Vec<(UserId, Vec<WireRecord>)>,
    },
    /// Server → member: a new member's record to insert into tables.
    NewMember {
        /// The new member's record.
        record: WireRecord,
    },
    /// Member → server: a voluntary leave (§3.2) — the server deletes the
    /// record and coordinates table repair.
    LeaveRequest,
    /// Server → member: a member departed; `replacements` carries, per ID
    /// level, surviving members sharing prefixes with the departed ID — the
    /// exact candidate set any receiver needs to refill the entry that held
    /// the departed record (Silk's repair role, server-assisted).
    MemberLeft {
        /// The departed member's ID.
        departed: UserId,
        /// Replacement candidates.
        replacements: Vec<WireRecord>,
    },
}

/// Statistics of one completed distributed join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributedJoinStats {
    /// Step-1 query messages sent.
    pub queries: u64,
    /// Step-2 pings sent.
    pub pings: u64,
    /// Digits determined by probing.
    pub digits_probed: usize,
    /// Time from `JoinRequest` to table completion (µs).
    pub elapsed: SimTime,
}

#[derive(Debug)]
enum JoinPhase {
    Idle,
    AwaitBootstrap,
    Collect { round: usize, outstanding: usize },
    Measure { round: usize, outstanding: usize },
    AwaitAssignment,
    Done,
}

#[derive(Debug)]
struct JoinerState {
    phase: JoinPhase,
    started_at: SimTime,
    digits: Vec<u16>,
    /// Records collected in the current round, bucketed by next digit.
    buckets: BTreeMap<u16, BTreeMap<UserId, WireRecord>>,
    queried: BTreeSet<UserId>,
    /// Measured end-host RTTs (from ping/pong round trips).
    rtt: BTreeMap<UserId, Micros>,
    pinged: BTreeSet<UserId>,
    pending_pings: BTreeMap<u64, UserId>,
    next_token: u64,
    /// Every record ever collected, for table construction.
    known: BTreeMap<UserId, WireRecord>,
    /// Rounds whose broad (length-`i` target) query burst has been sent.
    broad_sent: BTreeSet<usize>,
    stats: DistributedJoinStats,
}

impl JoinerState {
    fn new() -> JoinerState {
        JoinerState {
            phase: JoinPhase::Idle,
            started_at: 0,
            digits: Vec::new(),
            buckets: BTreeMap::new(),
            queried: BTreeSet::new(),
            rtt: BTreeMap::new(),
            pinged: BTreeSet::new(),
            pending_pings: BTreeMap::new(),
            next_token: 0,
            known: BTreeMap::new(),
            broad_sent: BTreeSet::new(),
            stats: DistributedJoinStats::default(),
        }
    }
}

/// One protocol participant: starts as a prospective joiner, becomes a
/// full member once its table is built.
struct ProtoNode {
    access_rtt: Micros,
    spec: IdSpec,
    params: AssignParams,
    k: usize,
    /// Set once the node has joined.
    member: Option<Member>,
    table: Option<NeighborTable>,
    joiner: JoinerState,
    server: NodeId,
}

/// The key server node.
struct ServerNode {
    spec: IdSpec,
    k: usize,
    id_tree: IdTree,
    members: BTreeMap<UserId, WireRecord>,
    table: ServerTable,
    /// Per joiner node: members present when it bootstrapped, to compute
    /// the `extra` delta at assignment time.
    bootstrap_snapshot: BTreeMap<usize, BTreeSet<UserId>>,
    /// Every departure processed, in order, with the replacement
    /// candidates that were broadcast for it.
    departures: Vec<(UserId, Vec<WireRecord>)>,
    /// Joining times by the server clock.
    join_seq: Micros,
}

/// What a node sends while handling one message, and the time it does so.
struct Ctx {
    now: SimTime,
    sends: Vec<(NodeId, ProtoMsg)>,
}

impl Ctx {
    fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`; it arrives after the one-way network delay.
    fn send(&mut self, to: NodeId, msg: ProtoMsg) {
        self.sends.push((to, msg));
    }
}

impl ProtoNode {
    fn gateway_rtt_to(&self, measured: Micros, peer_access: Micros) -> Micros {
        measured
            .saturating_sub(self.access_rtt)
            .saturating_sub(peer_access)
    }

    fn record_of(&self) -> WireRecord {
        WireRecord {
            member: self.member.expect("joined"),
            access_rtt: self.access_rtt,
        }
    }

    fn absorb_records(&mut self, round: usize, records: Vec<WireRecord>) {
        for r in records {
            let matches = self
                .joiner
                .digits
                .iter()
                .take(round)
                .copied()
                .eq(r.member.id.digits()[..round].iter().copied());
            self.joiner
                .known
                .entry(r.member.id)
                .or_insert_with(|| r.clone());
            if matches {
                self.joiner
                    .buckets
                    .entry(r.member.id.digit(round))
                    .or_default()
                    .insert(r.member.id, r);
            }
        }
    }

    /// Issues outstanding queries for the current round; returns the number
    /// sent. Queries go to collected-but-unqueried users, per bucket, until
    /// `P` records per bucket or exhaustion.
    fn issue_queries(
        &mut self,
        ctx: &mut Ctx,
        node_of: &dyn Fn(&UserId) -> NodeId,
        round: usize,
    ) -> usize {
        let prefix = IdPrefix::new(&self.spec, self.joiner.digits[..round].to_vec())
            .expect("determined digits are valid");
        let mut to_query = Vec::new();
        if self.joiner.broad_sent.insert(round) {
            // "The query specifies a target ID prefix of u.ID[0 : i−1]":
            // the round opens with broad queries to every seed, which
            // populate all (i, j) buckets at once.
            for bucket in self.joiner.buckets.values() {
                for id in bucket.keys() {
                    to_query.push((*id, prefix));
                }
            }
        } else {
            // Per-bucket refinement with length-(i+1) targets until P
            // records per bucket or exhaustion.
            for (j, bucket) in &self.joiner.buckets {
                if bucket.len() >= self.params.p {
                    continue;
                }
                if let Some(id) = bucket.keys().find(|id| !self.joiner.queried.contains(*id)) {
                    to_query.push((*id, prefix.child(*j)));
                }
            }
        }
        let mut sent = 0;
        for (id, target) in to_query {
            self.joiner.queried.insert(id);
            ctx.send(node_of(&id), ProtoMsg::Query { target });
            self.joiner.stats.queries += 1;
            sent += 1;
        }
        sent
    }

    /// Issues pings to every collected-but-unmeasured user; returns count.
    fn issue_pings(&mut self, ctx: &mut Ctx, node_of: &dyn Fn(&UserId) -> NodeId) -> usize {
        let targets: Vec<UserId> = self
            .joiner
            .buckets
            .values()
            .flat_map(|b| b.keys().cloned())
            .filter(|id| !self.joiner.pinged.contains(id))
            .collect();
        let mut sent = 0;
        for id in targets {
            self.joiner.pinged.insert(id);
            let token = self.joiner.next_token;
            self.joiner.next_token += 1;
            self.joiner.pending_pings.insert(token, id);
            ctx.send(
                node_of(&id),
                ProtoMsg::Ping {
                    token,
                    sent_at: ctx.now(),
                },
            );
            self.joiner.stats.pings += 1;
            sent += 1;
        }
        sent
    }

    /// Step 3: decide the digit for `round` from measured gateway RTTs.
    fn decide_digit(&mut self, round: usize) -> Option<u16> {
        let mut best: Option<(Micros, u16)> = None;
        for (&j, bucket) in &self.joiner.buckets {
            let rtts: Vec<Micros> = bucket
                .values()
                .take(self.params.p)
                .filter_map(|r| {
                    self.joiner
                        .rtt
                        .get(&r.member.id)
                        .map(|&h| self.gateway_rtt_to(h, r.access_rtt))
                })
                .collect();
            if rtts.is_empty() {
                continue;
            }
            let f = percentile(&rtts, self.params.f_percentile);
            if best.is_none_or(|(bf, bj)| (f, j) < (bf, bj)) {
                best = Some((f, j));
            }
        }
        let threshold = self.params.thresholds.get(round).copied().unwrap_or(0);
        match best {
            Some((f, b)) if f <= threshold => Some(b),
            _ => None,
        }
    }

    /// Advances a collect/measure round to completion; called whenever
    /// outstanding counters hit zero.
    fn advance(&mut self, ctx: &mut Ctx, node_of: &dyn Fn(&UserId) -> NodeId) {
        loop {
            match self.joiner.phase {
                JoinPhase::Collect {
                    round,
                    outstanding: 0,
                } => {
                    let sent = self.issue_queries(ctx, node_of, round);
                    if sent > 0 {
                        self.joiner.phase = JoinPhase::Collect {
                            round,
                            outstanding: sent,
                        };
                        return;
                    }
                    // Collection exhausted: measure.
                    let pings = self.issue_pings(ctx, node_of);
                    self.joiner.phase = JoinPhase::Measure {
                        round,
                        outstanding: pings,
                    };
                    if pings > 0 {
                        return;
                    }
                }
                JoinPhase::Measure {
                    round,
                    outstanding: 0,
                } => {
                    match self.decide_digit(round) {
                        Some(digit) if round + 1 < self.spec.depth() => {
                            self.joiner.digits.push(digit);
                            self.joiner.stats.digits_probed += 1;
                            // Seed the next round with the chosen bucket.
                            let seeds = self.joiner.buckets.remove(&digit).unwrap_or_default();
                            self.joiner.buckets.clear();
                            self.joiner.queried.clear();
                            let next = round + 1;
                            if next >= self.spec.depth() - 1 {
                                // Only the last digit remains: the server
                                // assigns it (step 4).
                                self.notify_server(ctx);
                                return;
                            }
                            for (id, r) in seeds {
                                self.joiner
                                    .buckets
                                    .entry(r.member.id.digit(next))
                                    .or_default()
                                    .insert(id, r);
                            }
                            self.joiner.phase = JoinPhase::Collect {
                                round: next,
                                outstanding: 0,
                            };
                        }
                        _ => {
                            self.notify_server(ctx);
                            return;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn notify_server(&mut self, ctx: &mut Ctx) {
        self.joiner.phase = JoinPhase::AwaitAssignment;
        ctx.send(
            self.server,
            ProtoMsg::DigitsNotification {
                digits: self.joiner.digits.clone(),
                sent_at: ctx.now(),
            },
        );
    }

    fn complete_join(
        &mut self,
        ctx: &mut Ctx,
        member: Member,
        extra: Vec<WireRecord>,
        repairs: Vec<(UserId, Vec<WireRecord>)>,
    ) {
        self.member = Some(member);
        let mut table =
            NeighborTable::new(&self.spec, member.id, self.k, PrimaryPolicy::SmallestRtt);
        for (id, rec) in &self.joiner.known {
            let rtt = self.joiner.rtt.get(id).copied().unwrap_or(Micros::MAX / 4);
            table.insert(NeighborRecord {
                member: rec.member,
                rtt,
            });
        }
        for rec in extra {
            table.insert(NeighborRecord {
                member: rec.member,
                rtt: Micros::MAX / 4,
            });
        }
        // Replay the departures this join raced with, in log order, so a
        // member that left mid-join cannot survive in the fresh table (and
        // a replacement that itself departed later is removed again by its
        // own log entry).
        for (departed, replacements) in repairs {
            table.remove(&departed);
            for r in replacements {
                if r.member.id != member.id {
                    table.insert(NeighborRecord {
                        member: r.member,
                        rtt: Micros::MAX / 4,
                    });
                }
            }
        }
        self.table = Some(table);
        self.joiner.stats.elapsed = ctx.now().saturating_sub(self.joiner.started_at);
        self.joiner.phase = JoinPhase::Done;
    }
}

impl ServerNode {
    fn receive(&mut self, ctx: &mut Ctx, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::JoinRequest => {
                let seed = self
                    .members
                    .values()
                    .min_by_key(|r| (r.member.joined_at, r.member.id))
                    .cloned();
                self.bootstrap_snapshot
                    .insert(from.0, self.members.keys().cloned().collect());
                ctx.send(from, ProtoMsg::JoinBootstrap { seed });
            }
            ProtoMsg::LeaveRequest => {
                let departed = self
                    .members
                    .values()
                    .find(|r| r.member.host.0 == from.0)
                    .map(|r| r.member.id);
                if let Some(id) = departed {
                    self.process_departure(ctx, &id);
                }
            }
            ProtoMsg::DigitsNotification { digits, sent_at } => {
                let id = crate::assign::server_complete(&self.spec, &self.id_tree, &digits)
                    .expect("ID space is large enough for the simulation");
                self.join_seq += 1;
                let member = Member {
                    id,
                    host: HostId(from.0),
                    joined_at: self.join_seq,
                };
                self.id_tree.insert(&id);
                // The request/notification round trip measures the RTT.
                let rtt = (ctx.now().saturating_sub(sent_at)) * 2;
                let record = WireRecord {
                    member,
                    access_rtt: 0,
                };
                self.table.insert(NeighborRecord { member, rtt });
                // Delta of members the joiner could not have collected.
                let snapshot = self.bootstrap_snapshot.remove(&from.0).unwrap_or_default();
                let extra: Vec<WireRecord> = self
                    .members
                    .values()
                    .filter(|r| !snapshot.contains(&r.member.id))
                    .cloned()
                    .collect();
                // Replay the *whole* departure log, not just the entries
                // since bootstrap: the joiner's probes may have collected a
                // record from a member that had not yet received an older
                // departure's repair broadcast, so any logged departure can
                // still be lurking in `known`. Entries whose ID has since
                // been reassigned to a live member are skipped — removing
                // the new holder would be wrong, and it is not a ghost.
                let repairs: Vec<(UserId, Vec<WireRecord>)> = self
                    .departures
                    .iter()
                    .filter(|(d, _)| !self.members.contains_key(d))
                    .cloned()
                    .collect();
                // Announce the new member to everyone else.
                for existing in self.members.values() {
                    ctx.send(
                        NodeId(existing.member.host.0),
                        ProtoMsg::NewMember {
                            record: record.clone(),
                        },
                    );
                }
                self.members.insert(id, record.clone());
                ctx.send(
                    from,
                    ProtoMsg::IdAssigned {
                        member,
                        extra,
                        repairs,
                    },
                );
            }
            _ => {}
        }
    }
}

impl ServerNode {
    /// Removes a departed member and broadcasts the repair information:
    /// for every level `c`, up to `K` surviving members whose IDs share the
    /// first `c` digits with the departed ID — exactly the candidates any
    /// receiver needs to refill the entry that held the departed record.
    fn process_departure(&mut self, ctx: &mut Ctx, id: &UserId) {
        let record = self.members.remove(id).expect("checked by callers");
        self.id_tree.remove(id);
        self.table.remove(id);
        let replacements: Vec<WireRecord> = crate::repair::replacement_candidates(
            self.spec.depth(),
            self.k,
            id,
            self.members.values(),
            |r| &r.member.id,
        )
        .into_iter()
        .cloned()
        .collect();
        for existing in self.members.values() {
            ctx.send(
                NodeId(existing.member.host.0),
                ProtoMsg::MemberLeft {
                    departed: *id,
                    replacements: replacements.clone(),
                },
            );
        }
        self.departures.push((*id, replacements));
        let _ = record;
    }
}

impl ProtoNode {
    fn receive(&mut self, ctx: &mut Ctx, from: NodeId, msg: ProtoMsg) {
        // Node IDs and hosts coincide for users in this simulation.
        let node_of = |id_host: HostId| NodeId(id_host.0);
        match msg {
            // --- joiner side -------------------------------------------
            ProtoMsg::JoinBootstrap { seed } => {
                self.joiner.started_at = ctx.now();
                match seed {
                    None => {
                        // First member: the server will assign all zeros.
                        self.notify_server(ctx);
                    }
                    Some(rec) => {
                        self.joiner.known.insert(rec.member.id, rec.clone());
                        self.joiner
                            .buckets
                            .entry(rec.member.id.digit(0))
                            .or_default()
                            .insert(rec.member.id, rec);
                        self.joiner.phase = JoinPhase::Collect {
                            round: 0,
                            outstanding: 0,
                        };
                        let known = self.known_hosts();
                        self.advance(ctx, &|id| node_of(known[id]));
                    }
                }
            }
            ProtoMsg::QueryReply { records } => {
                if let JoinPhase::Collect { round, outstanding } = self.joiner.phase {
                    self.absorb_records(round, records);
                    self.joiner.phase = JoinPhase::Collect {
                        round,
                        outstanding: outstanding.saturating_sub(1),
                    };
                    let known = self.known_hosts();
                    self.advance(ctx, &|id| node_of(known[id]));
                }
            }
            ProtoMsg::Pong {
                token,
                sent_at,
                access_rtt,
            } => {
                if let Some(id) = self.joiner.pending_pings.remove(&token) {
                    // The ping/pong round trip *is* the end-host RTT.
                    let measured = ctx.now().saturating_sub(sent_at);
                    self.joiner.rtt.insert(id, measured);
                    if let Some(rec) = self.joiner.known.get_mut(&id) {
                        rec.access_rtt = access_rtt;
                    }
                    if let JoinPhase::Measure { round, outstanding } = self.joiner.phase {
                        self.joiner.phase = JoinPhase::Measure {
                            round,
                            outstanding: outstanding.saturating_sub(1),
                        };
                        let known = self.known_hosts();
                        self.advance(ctx, &|id| node_of(known[id]));
                    }
                }
            }
            ProtoMsg::IdAssigned {
                member,
                extra,
                repairs,
            } => {
                self.complete_join(ctx, member, extra, repairs);
            }
            // --- member side -------------------------------------------
            ProtoMsg::Query { target } => {
                let mut records = Vec::new();
                if let Some(table) = &self.table {
                    for r in table.iter_all() {
                        if target.is_prefix_of_id(&r.member.id) {
                            records.push(WireRecord {
                                member: r.member,
                                access_rtt: 0,
                            });
                        }
                    }
                }
                if let Some(me) = &self.member {
                    if target.is_prefix_of_id(&me.id) {
                        records.push(self.record_of());
                    }
                }
                for r in &mut records {
                    r.access_rtt = self.access_rtt;
                }
                ctx.send(from, ProtoMsg::QueryReply { records });
            }
            ProtoMsg::Ping { token, sent_at } => {
                ctx.send(
                    from,
                    ProtoMsg::Pong {
                        token,
                        sent_at,
                        access_rtt: self.access_rtt,
                    },
                );
            }
            ProtoMsg::MemberLeft {
                departed,
                replacements,
            } => {
                if self.member.as_ref().is_some_and(|m| m.id == departed) {
                    return;
                }
                if let Some(table) = &mut self.table {
                    table.remove(&departed);
                    for r in replacements {
                        if Some(&r.member.id) != self.member.as_ref().map(|m| &m.id) {
                            table.insert(NeighborRecord {
                                member: r.member,
                                rtt: Micros::MAX / 4,
                            });
                        }
                    }
                }
            }
            // The harness injects a leave stimulus at the leaver; forward to
            // the server and retire locally.
            ProtoMsg::LeaveRequest => {
                self.table = None;
                self.member = None;
                ctx.send(self.server, ProtoMsg::LeaveRequest);
            }
            ProtoMsg::NewMember { record } => {
                if let Some(table) = &mut self.table {
                    // RTT to the new member is unknown until measured; store
                    // it pessimistically — ordering refines as pings happen
                    // in steady-state operation.
                    table.insert(NeighborRecord {
                        member: record.member,
                        rtt: Micros::MAX / 4,
                    });
                }
            }
            // The harness injects the join stimulus at the joiner itself;
            // forward it to the key server with a fresh timestamp.
            ProtoMsg::JoinRequest => {
                self.joiner.started_at = ctx.now();
                self.joiner.phase = JoinPhase::AwaitBootstrap;
                ctx.send(self.server, ProtoMsg::JoinRequest);
            }
            _ => {}
        }
    }

    fn known_hosts(&self) -> BTreeMap<UserId, HostId> {
        self.joiner
            .known
            .iter()
            .map(|(id, r)| (*id, r.member.host))
            .collect()
    }
}

/// Harness: runs the distributed join protocol for `joins` hosts on `net`,
/// injecting the `i`-th join request at `start_times[i]`.
///
/// Node `i` is host `i`; the server is the last node/host.
pub struct DistributedJoinRun {
    /// Completed members in node order (hosts `0..n`).
    pub members: Vec<Member>,
    /// Each member's constructed table.
    pub tables: Vec<NeighborTable>,
    /// Per-join statistics.
    pub stats: Vec<DistributedJoinStats>,
    /// Total messages delivered by the simulation.
    pub messages: u64,
    /// Simulated completion time.
    pub finished_at: SimTime,
}

/// Every host's access-link RTT `a(h)` — §3.1.2's `h(u, gw_u)`, which
/// records carry — solved from the substrate's two RTTs. For any two
/// hosts `d(u, w) = rtt(u, w) − gateway_rtt(u, w) = a(u) + a(w)`, so the
/// server's own `a(s) = (d(s, x) + d(s, y) − d(x, y)) / 2` for two other
/// hosts `x`, `y` (taken as 0 with fewer than three hosts), and then
/// `a(h) = d(h, s) − a(s)`.
fn access_rtts(net: &impl Network, server: HostId) -> Vec<Micros> {
    let d = |u: HostId, w: HostId| net.rtt(u, w).saturating_sub(net.gateway_rtt(u, w));
    let mut others = (0..net.host_count()).map(HostId).filter(|&h| h != server);
    let server_access = match (others.next(), others.next()) {
        (Some(x), Some(y)) => (d(server, x) + d(server, y)).saturating_sub(d(x, y)) / 2,
        _ => 0,
    };
    (0..net.host_count())
        .map(HostId)
        .map(|h| {
            if h == server {
                server_access
            } else {
                d(h, server).saturating_sub(server_access)
            }
        })
        .collect()
}

/// Runs the join protocol (no leaves).
///
/// # Panics
///
/// Panics if any join fails to complete (which cannot happen on a reliable,
/// connected substrate).
pub fn run_distributed_joins(
    spec: &IdSpec,
    params: &AssignParams,
    k: usize,
    net: &impl Network,
    joins: usize,
    start_times: &[SimTime],
) -> DistributedJoinRun {
    run_distributed_session(spec, params, k, net, joins, start_times, &[])
}

/// Runs a full join/leave session: node `i` (= host `i`) requests to join
/// at `start_times[i]`; each `(node, at)` in `leaves` requests to leave at
/// `at` (which must be after that node's join completes in practice — a
/// leave by a node that never joined is ignored by the server).
///
/// The returned [`DistributedJoinRun`] lists only the *surviving* members.
///
/// # Panics
///
/// Panics on mismatched `start_times` length.
pub fn run_distributed_session(
    spec: &IdSpec,
    params: &AssignParams,
    k: usize,
    net: &impl Network,
    joins: usize,
    start_times: &[SimTime],
    leaves: &[(usize, SimTime)],
) -> DistributedJoinRun {
    assert_eq!(start_times.len(), joins, "one start time per join");
    assert!(
        joins < net.host_count(),
        "need a host per joiner plus the server"
    );
    let server_host = HostId(net.host_count() - 1);
    let server_node = NodeId(net.host_count() - 1);

    let access = access_rtts(net, server_host);
    let mut users: Vec<ProtoNode> = (0..net.host_count() - 1)
        .map(|i| ProtoNode {
            access_rtt: access[i],
            spec: *spec,
            params: params.clone(),
            k,
            member: None,
            table: None,
            joiner: JoinerState::new(),
            server: server_node,
        })
        .collect();
    let mut server = ServerNode {
        spec: *spec,
        k,
        id_tree: IdTree::new(spec),
        members: BTreeMap::new(),
        table: ServerTable::new(spec, k),
        bootstrap_snapshot: BTreeMap::new(),
        departures: Vec::new(),
        join_seq: 0,
    };

    // Node `i` is host `i`. Each event is `(from, to, message)`; the join
    // and leave stimuli arrive at the node itself.
    let mut queue: Scheduler<(NodeId, NodeId, ProtoMsg)> = Scheduler::new();
    for (i, &at) in start_times.iter().enumerate() {
        queue.schedule_at(at, (NodeId(i), NodeId(i), ProtoMsg::JoinRequest));
    }
    for &(node, at) in leaves {
        queue.schedule_at(at, (NodeId(node), NodeId(node), ProtoMsg::LeaveRequest));
    }
    let mut messages = 0;
    let mut ctx = Ctx {
        now: 0,
        sends: Vec::new(),
    };
    while let Some((now, (from, to, msg))) = queue.pop() {
        messages += 1;
        ctx.now = now;
        if to == server_node {
            server.receive(&mut ctx, from, msg);
        } else {
            users[to.0].receive(&mut ctx, from, msg);
        }
        for (dest, msg) in ctx.sends.drain(..) {
            let delay = net.one_way(HostId(to.0), HostId(dest.0)).max(1);
            queue.schedule_in(delay, (to, dest, msg));
        }
    }

    let mut members = Vec::new();
    let mut tables = Vec::new();
    let mut stats = Vec::new();
    for u in users {
        if let (Some(m), Some(t)) = (u.member, u.table) {
            members.push(m);
            tables.push(t);
            stats.push(u.joiner.stats);
        }
    }
    DistributedJoinRun {
        members,
        tables,
        stats,
        messages,
        finished_at: queue.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_net::MatrixNetwork;

    const MS: Micros = 1_000;

    /// Hosts 0 and 1 are 31 ms apart gateway to gateway, each 20 ms from
    /// the server (host 2); access links are 1, 2 and 3 ms.
    fn three_hosts() -> MatrixNetwork {
        let g = vec![
            vec![0, 31 * MS, 20 * MS],
            vec![31 * MS, 0, 20 * MS],
            vec![20 * MS, 20 * MS, 0],
        ];
        MatrixNetwork::from_matrix(g, vec![MS, 2 * MS, 3 * MS])
    }

    #[test]
    fn access_rtts_leave_the_servers_access_link_out() {
        let net = three_hosts();
        assert_eq!(access_rtts(&net, HostId(2)), vec![MS, 2 * MS, 3 * MS]);
        // With fewer than three hosts the server's access link counts as 0.
        let pair = MatrixNetwork::from_matrix(vec![vec![0, 5 * MS], vec![5 * MS, 0]], vec![MS, MS]);
        assert_eq!(access_rtts(&pair, HostId(1)), vec![2 * MS, 0]);
    }

    /// The joiner's gateway RTT to the group's one member is 31 ms: under
    /// the first threshold (150 ms), over the second (30 ms). So it probes
    /// one digit and shares exactly that digit with the member. Counting
    /// the server's 3 ms access link into both ends' estimates would read
    /// 25 ms and take a second digit.
    #[test]
    fn a_joiner_just_over_a_threshold_stops_probing() {
        let net = three_hosts();
        let spec = IdSpec::new(3, 4).unwrap();
        let params = AssignParams::for_depth(3);
        let run = run_distributed_joins(&spec, &params, 2, &net, 2, &[0, 1_000_000]);
        assert_eq!(run.members.len(), 2);
        assert_eq!(run.stats[1].digits_probed, 1);
        assert_eq!(run.members[1].id.common_prefix_len(&run.members[0].id), 1);
    }
}
