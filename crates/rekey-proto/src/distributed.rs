//! The distributed join protocol, executed message by message in one
//! event loop over a [`Scheduler`] (§3.1–§3.2).
//!
//! [`Group`] resolves joins against global knowledge — the
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
//!    uniquely (step 4, footnote 3), inserts the joiner into its
//!    [`Group`] and replies `IdAssigned` with the joiner's table.
//!
//! Tables come from the key server's [`Group`], the one table algorithm
//! of the workspace: after a join or a leave (`LeaveRequest`, §3.2) the
//! server sends `Table` to each member whose table changed, and members
//! answer queries from the table they were sent. So every table is §2.2's
//! — per `(i, j)`-entry the `K` members of the subtree closest to the
//! owner, sorted by RTT — whatever the overlap of joins and leaves.
//!
//! Steps 1–3 are `assign::Probe`, the state machine with no I/O that
//! `Group::join` runs too; the joiner only carries its messages. It sends
//! each query the probe names (every seed of the round, then one query in
//! flight per subtree short of `P` users), feeds it each reply as it
//! arrives (in any order: a refinement reply names only its own subtree's
//! users), then pings the users step 3 reads — the first `P` of each
//! subtree — whose RTT it has not measured at an earlier digit, and hands
//! the probe the RTTs to decide the digit.
//!
//! Gateway RTT estimation follows §3.1.2: the `Pong` of host `w` carries
//! `w`'s access-link RTT `h(w, gw_w)`, so the joiner computes
//! `r(u, w) = h(u, w) − h(u, gw_u) − h(w, gw_w)` from the ping time it
//! measured.

use std::collections::BTreeMap;

use rekey_id::{IdPrefix, IdSpec, UserId};
use rekey_net::{HostId, Micros, Network};
use rekey_sim::{NodeId, Scheduler, SimTime};
use rekey_table::{Member, NeighborRecord, NeighborTable, PrimaryPolicy};

use crate::assign::{AssignParams, Probe};
use crate::Group;

/// Protocol messages.
#[derive(Debug, Clone)]
enum ProtoMsg {
    /// Joiner → server: request to join.
    JoinRequest,
    /// Server → joiner: bootstrap record of one existing member (or none if
    /// the group is empty and the all-zero ID is assigned directly).
    JoinBootstrap {
        /// Seed record, if the group is non-empty.
        seed: Option<Member>,
    },
    /// Joiner → member: step-1 query for records matching `target`.
    Query {
        /// Target ID prefix.
        target: IdPrefix,
    },
    /// Member → joiner: step-1 reply.
    QueryReply {
        /// The query's target prefix.
        target: IdPrefix,
        /// The replier's table records under `target`.
        records: Vec<NeighborRecord>,
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
        /// The responder's access-link RTT, `h(w, gw_w)` of §3.1.2.
        access_rtt: Micros,
    },
    /// Joiner → server: step-4 notification of self-determined digits.
    DigitsNotification {
        /// Digits determined by probing.
        digits: Vec<u16>,
    },
    /// Server → joiner: the complete assigned ID and the joiner's table.
    IdAssigned {
        /// The joiner's new member record.
        member: Member,
        /// The joiner's neighbor table, as the server's `Group` built it.
        table: NeighborTable,
    },
    /// Server → member: the member's table, changed by a join or a leave.
    /// It carries no version: every pair of nodes has a fixed one-way
    /// delay and the scheduler breaks ties first in, first out, so a
    /// member receives `IdAssigned` and then its tables in mutation order.
    Table {
        /// The member's new table.
        table: NeighborTable,
    },
    /// Member → server: a voluntary leave (§3.2) — the server deletes the
    /// record and pushes the repaired tables.
    LeaveRequest,
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
    /// Time from the arrival of `JoinBootstrap` to that of `IdAssigned`
    /// (µs).
    pub elapsed: SimTime,
}

/// A joiner's steps 1–3 while they run.
struct JoinerState {
    probe: Probe,
    /// Gateway RTT estimates (§3.1.2) from ping/pong round trips, kept
    /// across digits.
    rtt: BTreeMap<UserId, Micros>,
    /// Pings in flight: token → pinged user.
    pending: BTreeMap<u64, UserId>,
}

/// One protocol participant: starts as a prospective joiner, becomes a
/// full member once the server sends its ID and table.
struct ProtoNode {
    access_rtt: Micros,
    spec: IdSpec,
    params: AssignParams,
    /// Set once the node has joined.
    member: Option<Member>,
    table: Option<NeighborTable>,
    /// Set from `JoinBootstrap` until the digits are sent to the server.
    joiner: Option<JoinerState>,
    /// A leave was asked before the node's join completed: the node leaves
    /// as soon as its ID arrives.
    leave_asked: bool,
    started_at: SimTime,
    stats: DistributedJoinStats,
    server: NodeId,
}

/// The key server node: membership, ID assignment and every table.
struct ServerNode {
    group: Group,
    /// Joins completed so far: each member's `joined_at`.
    join_seq: Micros,
}

/// What a node sends while handling one message, and the time it does so.
struct Ctx {
    now: SimTime,
    sends: Vec<(NodeId, ProtoMsg)>,
}

impl Ctx {
    /// Sends `msg` to `to`; it arrives after the one-way network delay.
    fn send(&mut self, to: NodeId, msg: ProtoMsg) {
        self.sends.push((to, msg));
    }
}

impl ProtoNode {
    /// Runs the probe as far as the replies in hand allow: sends the
    /// queries it asks for; once every answer is in, pings the users step 3
    /// reads whose RTT is not known yet; once every pong is in, decides the
    /// digit and starts the next round, or sends the digits to the server.
    fn advance(&mut self, ctx: &mut Ctx) {
        let Some(joiner) = &mut self.joiner else {
            return;
        };
        loop {
            while let Some((user, target)) = joiner.probe.next_query(&self.params) {
                ctx.send(NodeId(user.host.0), ProtoMsg::Query { target });
            }
            if joiner.probe.awaiting() > 0 || !joiner.pending.is_empty() {
                return;
            }
            for m in joiner.probe.to_measure(&self.params) {
                if !joiner.rtt.contains_key(&m.id) {
                    let token = self.stats.pings;
                    self.stats.pings += 1;
                    joiner.pending.insert(token, m.id);
                    let sent_at = ctx.now;
                    ctx.send(NodeId(m.host.0), ProtoMsg::Ping { token, sent_at });
                }
            }
            if !joiner.pending.is_empty() {
                return;
            }
            let rtt = &joiner.rtt;
            if !joiner.probe.decide(&self.params, |m| rtt[&m.id]) {
                break;
            }
        }
        let (digits, stats) = self.joiner.take().expect("probing").probe.finish();
        self.stats.queries = stats.queries;
        self.stats.digits_probed = stats.digits_probed;
        ctx.send(self.server, ProtoMsg::DigitsNotification { digits });
    }

    /// Retires the node and asks the server to remove it (§3.2).
    fn leave(&mut self, ctx: &mut Ctx) {
        self.table = None;
        self.member = None;
        ctx.send(self.server, ProtoMsg::LeaveRequest);
    }
}

impl ServerNode {
    fn receive(&mut self, ctx: &mut Ctx, net: &impl Network, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::JoinRequest => {
                let seed = self.group.members().first().copied();
                ctx.send(from, ProtoMsg::JoinBootstrap { seed });
            }
            ProtoMsg::LeaveRequest => {
                let departed = self.group.members().iter().find(|m| m.host.0 == from.0);
                if let Some(id) = departed.map(|m| m.id) {
                    self.group.leave(&id, net).expect("found among the members");
                    self.push_tables(ctx);
                }
            }
            ProtoMsg::DigitsNotification { digits } => {
                self.join_seq += 1;
                self.group
                    .admit(HostId(from.0), &digits, net, self.join_seq)
                    .expect("ID space is large enough for the simulation");
                let at = self.group.len() - 1;
                let (member, table) = (self.group.members()[at], self.group.table(at).clone());
                ctx.send(from, ProtoMsg::IdAssigned { member, table });
                self.push_tables(ctx);
            }
            _ => {}
        }
    }

    /// Sends each member whose table the latest join or leave changed its
    /// new table; nobody else is told.
    fn push_tables(&self, ctx: &mut Ctx) {
        for &i in self.group.changed_tables() {
            let table = self.group.table(i).clone();
            ctx.send(
                NodeId(self.group.members()[i].host.0),
                ProtoMsg::Table { table },
            );
        }
    }
}

impl ProtoNode {
    fn receive(&mut self, ctx: &mut Ctx, from: NodeId, msg: ProtoMsg) {
        match msg {
            // --- joiner side -------------------------------------------
            ProtoMsg::JoinBootstrap { seed } => {
                self.started_at = ctx.now;
                match seed {
                    // First member: the server will assign all zeros.
                    None => ctx.send(
                        self.server,
                        ProtoMsg::DigitsNotification { digits: Vec::new() },
                    ),
                    Some(seed) => {
                        self.joiner = Some(JoinerState {
                            probe: Probe::new(&self.spec, seed),
                            rtt: BTreeMap::new(),
                            pending: BTreeMap::new(),
                        });
                        self.advance(ctx);
                    }
                }
            }
            ProtoMsg::QueryReply { target, records } => {
                if let Some(joiner) = &mut self.joiner {
                    joiner.probe.answer(&target, &records);
                    self.advance(ctx);
                }
            }
            ProtoMsg::Pong {
                token,
                sent_at,
                access_rtt,
            } => {
                let Some(joiner) = &mut self.joiner else {
                    return;
                };
                if let Some(id) = joiner.pending.remove(&token) {
                    // The ping/pong round trip *is* the end-host RTT; the
                    // pong carries the access RTT of the host that sent it.
                    let measured = ctx.now.saturating_sub(sent_at);
                    let estimate = measured
                        .saturating_sub(self.access_rtt)
                        .saturating_sub(access_rtt);
                    joiner.rtt.insert(id, estimate);
                    self.advance(ctx);
                }
            }
            ProtoMsg::IdAssigned { member, table } => {
                self.member = Some(member);
                self.table = Some(table);
                self.stats.elapsed = ctx.now.saturating_sub(self.started_at);
                if self.leave_asked {
                    self.leave(ctx);
                }
            }
            // A node that has left ignores the pushes still in flight.
            ProtoMsg::Table { table } if self.member.is_some() => {
                self.table = Some(table);
            }
            // --- member side -------------------------------------------
            ProtoMsg::Query { target } => {
                let records = (self.table.iter())
                    .flat_map(|t| t.iter_all())
                    .filter(|r| target.is_prefix_of_id(&r.member.id))
                    .copied()
                    .collect();
                ctx.send(from, ProtoMsg::QueryReply { target, records });
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
            // The harness injects a leave stimulus at the leaver. A member
            // leaves now; a node whose join has not completed leaves once
            // its ID arrives, since the server ignores a non-member's leave.
            ProtoMsg::LeaveRequest => {
                if self.member.is_some() {
                    self.leave(ctx);
                } else {
                    self.leave_asked = true;
                }
            }
            // The harness injects the join stimulus at the joiner itself;
            // forward it to the key server.
            ProtoMsg::JoinRequest => ctx.send(self.server, ProtoMsg::JoinRequest),
            _ => {}
        }
    }
}

/// Harness: runs the distributed join protocol for `joins` hosts on `net`,
/// injecting the `i`-th join request at `start_times[i]`.
///
/// Node `i` is host `i`; the server is the last node/host.
pub struct DistributedJoinRun {
    /// Completed members in node order (hosts `0..n`).
    pub members: Vec<Member>,
    /// Each member's table: the last one the key server sent it.
    pub tables: Vec<NeighborTable>,
    /// Per-join statistics.
    pub stats: Vec<DistributedJoinStats>,
    /// Total messages delivered by the simulation.
    pub messages: u64,
    /// Simulated completion time.
    pub finished_at: SimTime,
}

/// Every host's access-link RTT `a(h)` — §3.1.2's `h(u, gw_u)`, which
/// its pongs carry — solved from the substrate's two RTTs. For any two
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
/// `at`. A node whose join has not completed by then leaves as soon as it
/// does; a node that never joins never leaves.
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
            member: None,
            table: None,
            joiner: None,
            leave_asked: false,
            started_at: 0,
            stats: DistributedJoinStats::default(),
            server: server_node,
        })
        .collect();
    let mut server = ServerNode {
        group: Group::new(
            spec,
            server_host,
            k,
            PrimaryPolicy::SmallestRtt,
            params.clone(),
        ),
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
            server.receive(&mut ctx, net, from, msg);
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
            stats.push(u.stats);
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
    use rekey_table::oracle::build_all_tables;

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

    /// Six hosts 10 ms apart gateway to gateway, with 1 ms access links;
    /// the key server is host 5.
    fn six_uniform_hosts() -> MatrixNetwork {
        let g = (0..6)
            .map(|a| (0..6).map(|b| if a == b { 0 } else { 10 * MS }).collect())
            .collect();
        MatrixNetwork::from_matrix(g, vec![MS; 6])
    }

    /// Five joins 1 s apart into a (2, 4) group with `P = 1`.
    fn five_joins() -> (IdSpec, AssignParams, Vec<SimTime>) {
        let spec = IdSpec::new(2, 4).unwrap();
        let params = AssignParams {
            p: 1,
            ..AssignParams::for_depth(2)
        };
        (spec, params, (0..5).map(|i| i * 1_000_000).collect())
    }

    /// Step 2 measures the first `P` users of each subtree and nobody else.
    /// Every member shares digit 0 until the fifth join, so each joiner
    /// collects all of them in one bucket, yet with `P = 1` pings only one.
    #[test]
    fn step_two_measures_at_most_p_users_per_subtree() {
        let (spec, params, times) = five_joins();
        let run = run_distributed_joins(&spec, &params, 2, &six_uniform_hosts(), 5, &times);
        let ids: Vec<Vec<u16>> = run.members.iter().map(|m| m.id.digits().to_vec()).collect();
        assert_eq!(ids, [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0]]);
        let pings: Vec<u64> = run.stats.iter().map(|s| s.pings).collect();
        assert_eq!(pings, [0, 1, 1, 1, 1]);
    }

    /// A leave asked while the node's own join is in flight is kept: node 4
    /// asks 10 ms after its join request, leaves once its ID arrives, and
    /// the survivors' tables are those built from global knowledge.
    #[test]
    fn a_leave_asked_during_the_nodes_own_join_is_kept() {
        let net = six_uniform_hosts();
        let (spec, params, times) = five_joins();
        let leaves = [(4, times[4] + 10 * MS)];
        let run = run_distributed_session(&spec, &params, 2, &net, 5, &times, &leaves);
        let hosts: Vec<usize> = run.members.iter().map(|m| m.host.0).collect();
        assert_eq!(hosts, [0, 1, 2, 3]);
        let oracle = build_all_tables(&spec, &run.members, &net, 2, PrimaryPolicy::SmallestRtt);
        let records =
            |t: &NeighborTable| -> Vec<_> { t.iter_all().map(|r| (r.member.id, r.rtt)).collect() };
        for (table, want) in run.tables.iter().zip(&oracle) {
            assert_eq!(records(table), records(want), "table of {}", table.owner());
        }
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

    /// Hosts A = 0 and B = 1 are 200 ms apart gateway to gateway; the
    /// joiner J = 2 is 100 ms from A and 90 ms from B, and everyone is
    /// 20 ms from the server (host 3). Access links are 1 ms for A and J,
    /// 20 ms for B. J learns B's record from A and, with `P = 1`, never
    /// queries B, so only B's pong tells J that B's access link is 20 ms:
    /// J estimates 90 ms to B and 100 ms to A and joins B's subtree.
    /// Taking A's access link for B's would read 109 ms and pick A.
    #[test]
    fn a_probed_gateway_rtt_subtracts_the_probed_hosts_access_link() {
        let g = vec![
            vec![0, 200 * MS, 100 * MS, 20 * MS],
            vec![200 * MS, 0, 90 * MS, 20 * MS],
            vec![100 * MS, 90 * MS, 0, 20 * MS],
            vec![20 * MS, 20 * MS, 20 * MS, 0],
        ];
        let net = MatrixNetwork::from_matrix(g, vec![MS, 20 * MS, MS, 3 * MS]);
        let spec = IdSpec::new(3, 4).unwrap();
        let params = AssignParams {
            p: 1,
            ..AssignParams::for_depth(3)
        };
        let run = run_distributed_joins(&spec, &params, 2, &net, 3, &[0, 1_000_000, 2_000_000]);
        let [a, b, j] = [0, 1, 2].map(|i| run.members[i].id);
        assert_eq!((a.digits(), b.digits()), (&[0, 0, 0][..], &[1, 0, 0][..]));
        assert_eq!(j.digit(0), b.digit(0), "J joins B's subtree: {j}");
    }
}
