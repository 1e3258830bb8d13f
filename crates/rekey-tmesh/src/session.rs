//! Event-driven T-mesh multicast sessions.
//!
//! "A multicast session consists of a sender, a set of receivers, and a
//! message to multicast" (§2.3). For rekey transport the key server is the
//! sender; for data transport a user is. A session is one loop over a
//! [`rekey_sim::Scheduler`] of copies in flight: a copy arrives after the
//! one-way network delay, is recorded, and — if it is the receiver's first
//! — makes the receiver execute `FORWARD` (Fig. 2).

use std::collections::HashMap;
use std::sync::Arc;

use rekey_id::{IdSpec, UserId};
use rekey_net::{HostId, LinkLoad, Network};
use rekey_sim::{Scheduler, SimTime};
use rekey_table::{oracle, Member, NeighborTable, PrimaryPolicy, ServerTable};

use crate::forward::{
    server_next_hops, server_next_hops_with, user_next_hops, user_next_hops_with, Hop,
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
    transmissions: Vec<Transmission>,
    finished_at: SimTime,
}

impl MulticastOutcome {
    /// The session's sender.
    pub(crate) fn source(&self) -> Source {
        self.source
    }

    /// All copies received by member `i`, in arrival order.
    #[cfg(test)]
    pub(crate) fn deliveries(&self, i: usize) -> &[Delivery] {
        &self.deliveries[i]
    }

    /// The first copy received by member `i`, if any.
    pub fn first_delivery(&self, i: usize) -> Option<&Delivery> {
        self.deliveries[i].first()
    }

    /// Number of members in the session (receivers, plus the sender when it
    /// is a user).
    pub(crate) fn member_count(&self) -> usize {
        self.deliveries.len()
    }

    /// The paper's *user stress*: "the total number of messages the user
    /// forwards in a multicast session".
    pub(crate) fn user_stress(&self, i: usize) -> u32 {
        self.forwarded[i]
    }

    /// Copies sent by the key server (0 for data sessions).
    #[cfg(test)]
    pub(crate) fn server_sent(&self) -> u32 {
        self.transmissions
            .iter()
            .filter(|t| t.from == Source::Server)
            .count() as u32
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

/// A group wired for T-mesh multicast: members, their neighbor tables and
/// the key server's table.
#[derive(Debug, Clone)]
pub struct TmeshGroup {
    spec: IdSpec,
    members: Vec<Member>,
    tables: Vec<Arc<NeighborTable>>,
    server_table: Arc<ServerTable>,
    server_host: HostId,
    index: HashMap<UserId, usize>,
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
        let tables = oracle::build_all_tables(spec, &members, net, k, policy);
        let server_table = oracle::build_server_table(spec, &members, server_host, net, k);
        let tables = tables.into_iter().map(Arc::new).collect();
        TmeshGroup::from_tables(spec, members, tables, Arc::new(server_table), server_host)
    }

    /// Builds a group from pre-constructed tables (for protocol-level code
    /// that maintains tables incrementally), which it shares, not copies.
    pub fn from_tables(
        spec: &IdSpec,
        members: Vec<Member>,
        tables: Vec<Arc<NeighborTable>>,
        server_table: Arc<ServerTable>,
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
            index,
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
    pub(crate) fn multicast_with_failures(
        &self,
        net: &impl Network,
        source: Source,
        failed: &[usize],
    ) -> MulticastOutcome {
        let n = self.members.len();
        let mut is_failed = vec![false; n];
        for &f in failed {
            is_failed[f] = true;
        }
        if let Source::User(s) = source {
            assert!(!is_failed[s], "the sender cannot be failed");
        }
        let alive = |id: &UserId| !is_failed[self.index[id]];
        let alive = (!failed.is_empty()).then_some(&alive as &dyn Fn(&UserId) -> bool);

        // Every copy in flight is the transmission that sent it.
        let mut queue: Scheduler<Transmission> = Scheduler::new();
        let mut transmissions = Vec::new();
        let mut forward = |queue: &mut Scheduler<Transmission>, from: Source, level: usize| {
            for hop in self.next_hops(from, level, alive) {
                let to = *self
                    .index
                    .get(&hop.neighbor.member.id)
                    .expect("neighbor must be a session member");
                let t = Transmission {
                    from,
                    to,
                    forward_level: hop.forward_level,
                };
                let delay = net.one_way(self.host_of(from), self.members[to].host);
                queue.schedule_in(delay, t);
                transmissions.push(t);
            }
        };
        forward(&mut queue, source, 0);
        let mut deliveries: Vec<Vec<Delivery>> = vec![Vec::new(); n];
        while let Some((arrival, t)) = queue.pop() {
            let first = deliveries[t.to].is_empty();
            deliveries[t.to].push(Delivery {
                arrival,
                forward_level: t.forward_level,
                from: t.from,
            });
            // Theorem 1 guarantees a single copy under 1-consistency; if an
            // inconsistent table produces duplicates anyway, they are
            // recorded but only the first is forwarded (a real
            // implementation would suppress duplicates the same way).
            if first {
                forward(&mut queue, Source::User(t.to), t.forward_level);
            }
        }
        let finished_at = queue.now();

        // Transmissions are reported grouped by sender, members in index
        // order and the key server last, each in sending order.
        let sender = |t: &Transmission| match t.from {
            Source::User(i) => i,
            Source::Server => n,
        };
        transmissions.sort_by_key(sender);
        let mut forwarded = vec![0; n + 1];
        for t in &transmissions {
            forwarded[sender(t)] += 1;
        }
        forwarded.truncate(n); // drop the key server's count
        MulticastOutcome {
            source,
            deliveries,
            forwarded,
            transmissions,
            finished_at,
        }
    }

    /// `FORWARD`'s copies from `from` at forwarding level `level`; with
    /// `alive`, each entry's first live neighbor stands in for a failed
    /// primary.
    fn next_hops(
        &self,
        from: Source,
        level: usize,
        alive: Option<&dyn Fn(&UserId) -> bool>,
    ) -> Vec<Hop<'_>> {
        match (from, alive) {
            (Source::Server, None) => server_next_hops(&self.server_table),
            (Source::Server, Some(alive)) => server_next_hops_with(&self.server_table, alive),
            (Source::User(i), None) => user_next_hops(&self.tables[i], level),
            (Source::User(i), Some(alive)) => user_next_hops_with(&self.tables[i], level, alive),
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
