//! Event-driven T-mesh multicast sessions.
//!
//! "A multicast session consists of a sender, a set of receivers, and a
//! message to multicast" (§2.3). For rekey transport the key server is the
//! sender; for data transport a user is. A session runs on the
//! `rekey-sim` discrete event engine: each member is a [`rekey_sim::Node`]
//! that executes `FORWARD` (Fig. 2) on message receipt, and copies travel
//! with one-way network delays.

use std::collections::HashMap;
use std::rc::Rc;

use rekey_id::{IdSpec, UserId};
use rekey_net::{HostId, LinkLoad, Network};
use rekey_sim::{Ctx, Node, NodeId, SimTime, Simulation};
use rekey_table::{oracle, Member, NeighborTable, PrimaryPolicy, ServerTable};

use crate::forward::{
    server_next_hops, server_next_hops_with, user_next_hops, user_next_hops_with,
};

/// The origin of a multicast copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The key server (rekey transport).
    Server,
    /// The user with this member index (data transport).
    User(usize),
}

/// One received copy of the multicast message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Simulated arrival time (µs after the sender started).
    pub arrival: SimTime,
    /// The `forward_level` carried by the copy — the receiver's forwarding
    /// level (Definition 4).
    pub forward_level: usize,
    /// Who transmitted this copy.
    pub from: Source,
}

/// One overlay transmission (for stress and link-load accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Transmitting member.
    pub from: Source,
    /// Receiving member index.
    pub to: usize,
    /// `forward_level` stamped on the copy.
    pub forward_level: usize,
}

/// The complete outcome of one multicast session.
#[derive(Debug, Clone)]
pub struct MulticastOutcome {
    source: Source,
    deliveries: Vec<Vec<Delivery>>,
    forwarded: Vec<u32>,
    server_sent: u32,
    transmissions: Vec<Transmission>,
    finished_at: SimTime,
}

impl MulticastOutcome {
    /// The session's sender.
    pub fn source(&self) -> Source {
        self.source
    }

    /// All copies received by member `i`, in arrival order.
    pub fn deliveries(&self, i: usize) -> &[Delivery] {
        &self.deliveries[i]
    }

    /// The first copy received by member `i`, if any.
    pub fn first_delivery(&self, i: usize) -> Option<&Delivery> {
        self.deliveries[i].first()
    }

    /// Number of members in the session (receivers, plus the sender when it
    /// is a user).
    pub fn member_count(&self) -> usize {
        self.deliveries.len()
    }

    /// The paper's *user stress*: "the total number of messages the user
    /// forwards in a multicast session".
    pub fn user_stress(&self, i: usize) -> u32 {
        self.forwarded[i]
    }

    /// Copies sent by the key server (0 for data sessions).
    pub fn server_sent(&self) -> u32 {
        self.server_sent
    }

    /// Every overlay transmission of the session.
    pub fn transmissions(&self) -> &[Transmission] {
        &self.transmissions
    }

    /// Time the last copy was delivered.
    pub fn finished_at(&self) -> SimTime {
        self.finished_at
    }

    /// Checks Theorem 1: every member except the sender received exactly
    /// one copy. Returns the offending member index on failure.
    pub fn exactly_once(&self) -> Result<(), usize> {
        for (i, d) in self.deliveries.iter().enumerate() {
            let expected = match self.source {
                Source::User(s) if s == i => 0,
                _ => 1,
            };
            if d.len() != expected {
                return Err(i);
            }
        }
        Ok(())
    }
}

/// Message of the T-mesh session protocol: just the `forward_level` field
/// (plus the start stimulus for the sender).
#[derive(Debug, Clone, Copy)]
enum MeshMsg {
    /// External stimulus telling the sender to start the session.
    Start,
    /// A multicast copy with its `forward_level`.
    Copy { forward_level: usize },
}

enum Role {
    Server { table: Rc<ServerTable> },
    User { table: Rc<NeighborTable> },
}

struct MeshNode {
    role: Role,
    index: Rc<HashMap<UserId, usize>>,
    deliveries: Vec<Delivery>,
    forwarded: u32,
    log: Vec<Transmission>,
    me: Source,
    /// `failed[i]` marks member `i` as crashed: it is skipped as a next hop
    /// (the §2.3 fail-over) and never processes messages itself.
    failed: Rc<Vec<bool>>,
}

impl MeshNode {
    fn forward(&mut self, ctx: &mut Ctx<'_, MeshMsg>, level: usize) {
        let index = Rc::clone(&self.index);
        let failed = Rc::clone(&self.failed);
        let any_failed = failed.iter().any(|&f| f);
        let alive = move |id: &UserId| !failed[index[id]];
        let hops: Vec<(UserId, usize)> = match &self.role {
            Role::Server { table } if any_failed => server_next_hops_with(table, &alive)
                .into_iter()
                .map(|h| (h.neighbor.member.id, h.forward_level))
                .collect(),
            Role::Server { table } => server_next_hops(table)
                .into_iter()
                .map(|h| (h.neighbor.member.id, h.forward_level))
                .collect(),
            Role::User { table } if any_failed => user_next_hops_with(table, level, &alive)
                .into_iter()
                .map(|h| (h.neighbor.member.id, h.forward_level))
                .collect(),
            Role::User { table } => user_next_hops(table, level)
                .into_iter()
                .map(|h| (h.neighbor.member.id, h.forward_level))
                .collect(),
        };
        for (id, forward_level) in hops {
            let to = *self
                .index
                .get(&id)
                .expect("neighbor must be a session member");
            ctx.send(NodeId(to), MeshMsg::Copy { forward_level });
            self.forwarded += 1;
            self.log.push(Transmission {
                from: self.me,
                to,
                forward_level,
            });
        }
    }
}

impl Node for MeshNode {
    type Msg = MeshMsg;

    fn receive(&mut self, ctx: &mut Ctx<'_, MeshMsg>, from: NodeId, msg: MeshMsg) {
        match msg {
            MeshMsg::Start => self.forward(ctx, 0),
            MeshMsg::Copy { forward_level } => {
                let source = if from.0 == self.index.len() {
                    Source::Server
                } else {
                    Source::User(from.0)
                };
                let first = self.deliveries.is_empty();
                self.deliveries.push(Delivery {
                    arrival: ctx.now(),
                    forward_level,
                    from: source,
                });
                // Theorem 1 guarantees a single copy under 1-consistency; if
                // an inconsistent table produces duplicates anyway, we record
                // them but forward only the first (a real implementation
                // would suppress duplicates the same way).
                if first {
                    self.forward(ctx, forward_level);
                }
            }
        }
    }
}

/// A group wired for T-mesh multicast: members, their neighbor tables and
/// the key server's table.
#[derive(Debug, Clone)]
pub struct TmeshGroup {
    spec: IdSpec,
    members: Vec<Member>,
    tables: Vec<Rc<NeighborTable>>,
    server_table: Rc<ServerTable>,
    server_host: HostId,
    index: Rc<HashMap<UserId, usize>>,
}

impl TmeshGroup {
    /// Builds all tables from global membership (oracle construction; see
    /// `rekey_table::oracle`).
    ///
    /// # Panics
    ///
    /// Panics if `members` contains duplicate IDs.
    pub fn build(
        spec: &IdSpec,
        members: Vec<Member>,
        server_host: HostId,
        net: &impl Network,
        k: usize,
        policy: PrimaryPolicy,
    ) -> TmeshGroup {
        let tables = oracle::build_all_tables(spec, &members, net, k, policy)
            .into_iter()
            .map(Rc::new)
            .collect();
        let server_table = Rc::new(oracle::build_server_table(
            spec,
            &members,
            server_host,
            net,
            k,
        ));
        let mut index = HashMap::with_capacity(members.len());
        for (i, m) in members.iter().enumerate() {
            let prev = index.insert(m.id, i);
            assert!(prev.is_none(), "duplicate member ID {}", m.id);
        }
        TmeshGroup {
            spec: *spec,
            members,
            tables,
            server_table,
            server_host,
            index: Rc::new(index),
        }
    }

    /// Builds a group from pre-constructed tables (for protocol-level code
    /// that maintains tables incrementally).
    pub fn from_tables(
        spec: &IdSpec,
        members: Vec<Member>,
        tables: Vec<Rc<NeighborTable>>,
        server_table: Rc<ServerTable>,
        server_host: HostId,
    ) -> TmeshGroup {
        assert_eq!(members.len(), tables.len(), "one table per member");
        let mut index = HashMap::with_capacity(members.len());
        for (i, m) in members.iter().enumerate() {
            let prev = index.insert(m.id, i);
            assert!(prev.is_none(), "duplicate member ID {}", m.id);
        }
        TmeshGroup {
            spec: *spec,
            members,
            tables,
            server_table,
            server_host,
            index: Rc::new(index),
        }
    }

    /// The ID-space specification.
    pub fn spec(&self) -> &IdSpec {
        &self.spec
    }

    /// The group members, in index order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The neighbor table of member `i`.
    pub fn table(&self, i: usize) -> &NeighborTable {
        &self.tables[i]
    }

    /// The key server's table.
    pub fn server_table(&self) -> &ServerTable {
        &self.server_table
    }

    /// The key server's host.
    pub fn server_host(&self) -> HostId {
        self.server_host
    }

    /// The member index of `id`, i.e. its position in [`TmeshGroup::members`].
    ///
    /// O(1): backed by the session's `UserId → index` map, which is built
    /// once per session. Transports use this instead of scanning
    /// `members()` per hop.
    pub fn member_index(&self, id: &UserId) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// The network host of the given source.
    pub fn host_of(&self, source: Source) -> HostId {
        match source {
            Source::Server => self.server_host,
            Source::User(i) => self.members[i].host,
        }
    }

    /// Runs one multicast session from `source` and returns its outcome.
    pub fn multicast(&self, net: &impl Network, source: Source) -> MulticastOutcome {
        self.multicast_with_failures(net, source, &[])
    }

    /// Runs one multicast session while the members in `failed` are crashed
    /// (post-detection steady state): every forwarder skips failed
    /// neighbors and uses the next live neighbor of the same table entry
    /// instead — the fail-over of §2.3. With `K > 1` and enough survivors
    /// per entry, all live members are still reached exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the sender itself is failed or out of range.
    pub fn multicast_with_failures(
        &self,
        net: &impl Network,
        source: Source,
        failed: &[usize],
    ) -> MulticastOutcome {
        let n = self.members.len();
        let mut failed_mask = vec![false; n];
        for &f in failed {
            failed_mask[f] = true;
        }
        if let Source::User(s) = source {
            assert!(!failed_mask[s], "the sender cannot be failed");
        }
        let failed_mask = Rc::new(failed_mask);
        let mut nodes: Vec<MeshNode> = (0..n)
            .map(|i| MeshNode {
                role: Role::User {
                    table: Rc::clone(&self.tables[i]),
                },
                index: Rc::clone(&self.index),
                deliveries: Vec::new(),
                forwarded: 0,
                log: Vec::new(),
                me: Source::User(i),
                failed: Rc::clone(&failed_mask),
            })
            .collect();
        // Node n is the key server.
        nodes.push(MeshNode {
            role: Role::Server {
                table: Rc::clone(&self.server_table),
            },
            index: Rc::clone(&self.index),
            deliveries: Vec::new(),
            forwarded: 0,
            log: Vec::new(),
            me: Source::Server,
            failed: Rc::clone(&failed_mask),
        });

        let hosts: Vec<HostId> = self
            .members
            .iter()
            .map(|m| m.host)
            .chain(std::iter::once(self.server_host))
            .collect();
        let delay = move |from: NodeId, to: NodeId| net.one_way(hosts[from.0], hosts[to.0]);
        let mut sim = Simulation::new(nodes, delay);
        let start_node = match source {
            Source::Server => NodeId(n),
            Source::User(i) => NodeId(i),
        };
        sim.inject_at(0, start_node, start_node, MeshMsg::Start);
        let finished_at = sim.run_until_idle();

        let nodes = sim.into_nodes();
        let server_sent = nodes[n].forwarded;
        let mut transmissions = Vec::new();
        let mut deliveries = Vec::with_capacity(n);
        let mut forwarded = Vec::with_capacity(n);
        for node in nodes {
            transmissions.extend(node.log.iter().copied());
            if let Source::User(_) = node.me {
                deliveries.push(node.deliveries);
                forwarded.push(node.forwarded);
            }
        }
        MulticastOutcome {
            source,
            deliveries,
            forwarded,
            server_sent,
            transmissions,
            finished_at,
        }
    }

    /// Maps a session's overlay transmissions onto physical links, giving
    /// the per-link message-copy load (*link stress*, §2.3). Returns `None`
    /// on substrates that do not model links (RTT matrices).
    pub fn link_load(&self, net: &impl Network, outcome: &MulticastOutcome) -> Option<LinkLoad> {
        if net.link_count() == 0 {
            return None;
        }
        let mut load = LinkLoad::new(net.link_count());
        for t in outcome.transmissions() {
            let from = self.host_of(t.from);
            let to = self.members[t.to].host;
            let path = net.path_links(from, to)?;
            load.add_path(&path, 1);
        }
        Some(load)
    }
}
