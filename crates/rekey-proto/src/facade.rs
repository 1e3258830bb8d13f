//! The high-level API a deployment would actually use: a [`GroupServer`]
//! that owns membership, ID assignment, the key tree and rekey intervals,
//! and a [`UserAgent`] that holds one member's keys, consumes rekey
//! messages and seals/opens group data traffic.
//!
//! The division of labour follows the paper exactly:
//!
//! * joins and leaves are *requested* at any time, accumulated, and take
//!   cryptographic effect when the server [ends the rekey
//!   interval](GroupServer::end_interval) (periodic batch rekeying, §2.4);
//! * new members get their ID at join time and their key set via unicast
//!   ([`WelcomePacket`]) when the interval ends;
//! * the rekey message is delivered over T-mesh with
//!   `REKEY-MESSAGE-SPLIT`; each agent absorbs the encryptions addressed
//!   to it and is then able to open data sealed under the new group key.

use rand::Rng;
use rekey_crypto::{Encryption, Key, SealedData};
use rekey_id::{IdSpec, UserId};
use rekey_keytree::{KeyRing, ModifiedKeyTree, RekeyArena};
use rekey_net::{HostId, Micros, Network};
use rekey_sim::{seeded_rng, SimRng};
use rekey_table::PrimaryPolicy;
use rekey_tmesh::TmeshGroup;

use crate::assign::AssignParams;
use crate::group::{Group, GroupError};
use crate::split::tmesh_rekey_transport;
use crate::transport::TransportOptions;

/// Configuration of a [`GroupServer`], built fluently instead of through
/// six positional arguments.
///
/// ```
/// use rekey_id::IdSpec;
/// use rekey_net::HostId;
/// use rekey_proto::GroupConfig;
/// use rekey_table::PrimaryPolicy;
///
/// // The paper's parameters:
/// let server = GroupConfig::paper()
///     .k(4)
///     .seed(42)
///     .build(HostId(0));
/// assert_eq!(server.interval(), 0);
///
/// // A small spec for tests; assignment thresholds follow the depth.
/// let spec = IdSpec::new(3, 8)?;
/// let server = GroupConfig::for_spec(&spec).k(2).build(HostId(9));
/// # Ok::<(), rekey_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GroupConfig {
    spec: IdSpec,
    k: usize,
    policy: PrimaryPolicy,
    assign: AssignParams,
    seed: u64,
    seal_threads: usize,
}

impl GroupConfig {
    /// The paper's defaults: `D = 5`, `B = 256`, `K = 4`, smallest-RTT
    /// primaries, `P = 10`, `F = 80`, `R = 150/30/9/3` ms, seed 0.
    pub fn paper() -> GroupConfig {
        GroupConfig {
            spec: IdSpec::PAPER,
            k: 4,
            policy: PrimaryPolicy::SmallestRtt,
            assign: AssignParams::paper(),
            seed: 0,
            seal_threads: 1,
        }
    }

    /// Defaults scaled to `spec`: assignment thresholds from
    /// [`AssignParams::for_depth`], `K = 4`, smallest-RTT primaries,
    /// seed 0.
    pub fn for_spec(spec: &IdSpec) -> GroupConfig {
        GroupConfig {
            spec: *spec,
            k: 4,
            policy: PrimaryPolicy::SmallestRtt,
            assign: AssignParams::for_depth(spec.depth()),
            seed: 0,
            seal_threads: 1,
        }
    }

    /// Neighbor-table redundancy `K` (Definition 3).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 — a zero-redundancy table cannot satisfy
    /// Definition 3 for any non-trivial membership.
    pub fn k(mut self, k: usize) -> GroupConfig {
        assert!(k > 0, "neighbor-table redundancy K must be at least 1");
        self.k = k;
        self
    }

    /// Seed of the server's key-generation RNG.
    pub fn seed(mut self, seed: u64) -> GroupConfig {
        self.seed = seed;
        self
    }

    /// Worker threads for the key tree's seal phase: `1` (default) seals
    /// serially, `0` uses one thread per core. Identical seeds produce
    /// byte-identical rekey messages at any setting (see
    /// [`ModifiedKeyTree::set_seal_threads`]).
    pub fn seal_threads(mut self, threads: usize) -> GroupConfig {
        self.seal_threads = threads;
        self
    }

    /// Builds the server at `server_host`.
    pub fn build(self, server_host: HostId) -> GroupServer {
        let mut tree = ModifiedKeyTree::new(&self.spec);
        tree.set_seal_threads(self.seal_threads);
        GroupServer {
            group: Group::new(&self.spec, server_host, self.k, self.policy, self.assign),
            tree,
            pending: Vec::new(),
            interval: 0,
            rng: seeded_rng(self.seed),
            arena: RekeyArena::new(),
        }
    }

    /// Builds a server **pre-populated** with `hosts` as interval 1 — the
    /// million-member bootstrap path.
    ///
    /// Membership is dealt by [`Group::bootstrap`] (O(N·D·B) instead of the
    /// O(N²) join protocol), the key tree is batch-rekeyed once for all
    /// members, and every member's welcome packet is returned so callers
    /// can construct agents directly — no join wave, no per-member rekey
    /// traffic. The server resumes at interval 1 with nothing pending, so
    /// subsequent churn goes through the regular incremental paths.
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when `hosts.len()` exceeds the ID space.
    pub fn bootstrap(
        self,
        server_host: HostId,
        hosts: &[HostId],
        net: &impl Network,
    ) -> Result<(GroupServer, Vec<WelcomePacket>), GroupError> {
        let group = Group::bootstrap(
            &self.spec,
            server_host,
            self.k,
            self.policy,
            self.assign,
            hosts,
            net,
        )?;
        let mut tree = ModifiedKeyTree::new(&self.spec);
        tree.set_seal_threads(self.seal_threads);
        let mut rng = seeded_rng(self.seed);
        let mut arena = RekeyArena::new();
        let joins: Vec<UserId> = group.members().iter().map(|m| m.id).collect();
        tree.batch_rekey(&joins, &[], &mut rng, &mut arena)
            .expect("bootstrap IDs are unique non-members");
        let welcomes = group
            .members()
            .iter()
            .map(|m| WelcomePacket {
                keys: tree.user_path_keys(&m.id).cloned().collect(),
                id: m.id,
                interval: 1,
            })
            .collect();
        let server = GroupServer {
            group,
            tree,
            pending: Vec::new(),
            interval: 1,
            rng,
            arena,
        };
        Ok((server, welcomes))
    }
}

/// What a newly joined member receives from the key server via unicast at
/// the end of its first rekey interval: its ID and its path keys (§3.1).
#[derive(Debug, Clone)]
pub struct WelcomePacket {
    /// The member's assigned ID.
    pub id: UserId,
    /// All keys on the path from the member's u-node to the root.
    pub keys: Vec<Key>,
    /// The rekey interval this key set belongs to.
    pub interval: u64,
}

/// The output of one rekey interval. The rekey message is owned (taken
/// from the server's seal arena without copying) so the outcome can
/// outlive the next interval — e.g. in the runtime's recovery history.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// Interval number (1-based).
    pub interval: u64,
    /// The batch rekey message to multicast to the group.
    encryptions: Vec<Encryption>,
    /// Welcome packets for members that joined during the interval
    /// (delivered via unicast, not multicast).
    pub welcomes: Vec<WelcomePacket>,
    /// IDs that left during the interval.
    pub departed: Vec<UserId>,
    /// Key (re)creations of the batch that resumed a retired version.
    pub(crate) tombstone_hits: u64,
}

impl IntervalOutcome {
    /// The paper's *rekey cost*: encryptions in this interval's message.
    pub fn cost(&self) -> usize {
        self.encryptions.len()
    }

    /// The rekey message: all encryptions, deep-to-shallow.
    pub fn encryptions(&self) -> &[Encryption] {
        &self.encryptions
    }

    /// Moves the rekey message out (for history buffers); the outcome's
    /// message becomes empty.
    pub(crate) fn take_encryptions(&mut self) -> Vec<Encryption> {
        std::mem::take(&mut self.encryptions)
    }
}

/// Per-member delivery produced by [`GroupServer::deliver`]: the exact
/// encryptions the split rekey transport hands each member, as indices
/// into the interval's shared encryption buffer.
///
/// Nothing is cloned: [`RekeyDelivery::member`] yields borrowed
/// [`Encryption`](rekey_crypto::Encryption)s straight out of the
/// [`IntervalOutcome`], ready to feed to [`UserAgent::handle_rekey`].
#[derive(Debug, Clone)]
pub struct RekeyDelivery<'a> {
    encryptions: &'a [rekey_crypto::Encryption],
    per_member: Vec<Vec<usize>>,
    total_received: u64,
}

impl<'a> RekeyDelivery<'a> {
    /// The encryptions member `i` received, borrowed from the interval's
    /// message buffer. The iterator is `Clone`, as
    /// [`UserAgent::handle_rekey`] requires.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a member index of the delivering mesh.
    pub fn member(
        &self,
        i: usize,
    ) -> impl Iterator<Item = &'a rekey_crypto::Encryption> + Clone + '_ {
        let encryptions = self.encryptions;
        self.per_member[i].iter().map(move |&e| &encryptions[e])
    }

    /// The encryption indices member `i` received.
    pub fn member_indices(&self, i: usize) -> &[usize] {
        &self.per_member[i]
    }

    /// Number of members covered by this delivery.
    #[cfg(test)]
    pub(crate) fn members(&self) -> usize {
        self.per_member.len()
    }

    /// The interval's shared encryption buffer.
    #[cfg(test)]
    pub(crate) fn encryptions(&self) -> &'a [rekey_crypto::Encryption] {
        self.encryptions
    }

    /// Total encryptions received, summed over members.
    pub fn total_received(&self) -> u64 {
        self.total_received
    }
}

/// The key server: the single authority of the secure group.
///
/// ```
/// use rand::SeedableRng;
/// use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
/// use rekey_proto::{GroupConfig, UserAgent};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
/// let mut server = GroupConfig::paper().seed(42).build(HostId(net.host_count() - 1));
/// for h in 0..4 {
///     server.request_join(HostId(h), &net, h as u64)?;
/// }
/// let outcome = server.end_interval();
/// let agents: Vec<UserAgent> =
///     outcome.welcomes.into_iter().map(UserAgent::from_welcome).collect();
/// for agent in &agents {
///     assert_eq!(agent.group_key(), server.tree().group_key());
/// }
/// # Ok::<(), rekey_proto::GroupError>(())
/// ```
/// `Clone` snapshots the server's complete state — membership, key tree,
/// pending requests, and RNG position — which is what each replica of the
/// event-driven runtime checkpoints every interval.
#[derive(Debug, Clone)]
pub struct GroupServer {
    group: Group,
    tree: ModifiedKeyTree,
    /// Join/leave requests of the current interval, in arrival order
    /// (`true` = join). Order matters: the same ID can be left by one
    /// person and joined by another within one interval (ID reuse), or
    /// joined and left by a transient member (which cancels out).
    pending: Vec<(bool, UserId)>,
    interval: u64,
    rng: SimRng,
    /// Reusable seal arena for `end_interval` (its `Clone` is a fresh
    /// arena, so checkpoints stay cheap — scratch never affects outputs).
    arena: RekeyArena,
}

impl GroupServer {
    /// The underlying membership state.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The server-side key tree.
    pub fn tree(&self) -> &ModifiedKeyTree {
        &self.tree
    }

    /// Completed rekey intervals so far.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of members whose joins/leaves are pending for the current
    /// interval.
    pub(crate) fn pending(&self) -> (usize, usize) {
        let joins = self.pending.iter().filter(|(is_join, _)| *is_join).count();
        (joins, self.pending.len() - joins)
    }

    /// Admits a new member: runs the ID assignment protocol immediately
    /// (the member starts participating in the overlay) and schedules its
    /// keys for the end of the interval.
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when no unique ID exists.
    pub fn request_join(
        &mut self,
        host: HostId,
        net: &impl Network,
        now: Micros,
    ) -> Result<UserId, GroupError> {
        let outcome = self.group.join(host, net, now)?;
        self.pending.push((true, outcome.id));
        Ok(outcome.id)
    }

    /// Admits `host` with the digits its own §3.1 probe determined: the
    /// group completes them to a unique ID (step 4), and the member's keys
    /// are scheduled for the end of the interval like
    /// [`GroupServer::request_join`]'s.
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when no unique ID exists.
    pub(crate) fn admit_join(
        &mut self,
        host: HostId,
        digits: &[u16],
        net: &impl Network,
        now: Micros,
    ) -> Result<UserId, GroupError> {
        let id = self.group.admit(host, digits, net, now)?;
        self.pending.push((true, id));
        Ok(id)
    }

    /// Processes a leave request: the member stops participating in the
    /// overlay immediately; its keys are invalidated when the interval
    /// ends.
    ///
    /// # Errors
    ///
    /// [`GroupError::NotMember`] if `id` is not in the group.
    pub fn request_leave(&mut self, id: &UserId, net: &impl Network) -> Result<(), GroupError> {
        self.group.leave(id, net)?;
        self.pending.push((false, *id));
        Ok(())
    }

    /// Ends the current rekey interval: batch-rekeys the tree for all
    /// pending joins and leaves, and produces the rekey message plus the
    /// welcome packets for the joiners.
    pub fn end_interval(&mut self) -> IntervalOutcome {
        self.interval += 1;
        let pending = std::mem::take(&mut self.pending);
        // Reduce each ID's request sequence to its net effect. Requests are
        // validated against live membership, so per ID: the *first* op is a
        // leave iff the ID was a member before the interval, and the *last*
        // op is a join iff it is a member after. The four combinations map
        // to (leave+join = reuse), (leave only), (join only), and
        // (join-then-leave of a transient member = nothing at all).
        let mut first: std::collections::BTreeMap<&UserId, bool> = Default::default();
        let mut last: std::collections::BTreeMap<&UserId, bool> = Default::default();
        for (is_join, id) in &pending {
            first.entry(id).or_insert(*is_join);
            last.insert(id, *is_join);
        }
        let leaves: Vec<UserId> = first
            .iter()
            .filter(|(_, &is_join)| !is_join)
            .map(|(&&id, _)| id)
            .collect();
        let joins: Vec<UserId> = last
            .iter()
            .filter(|(_, &is_join)| is_join)
            .map(|(&&id, _)| id)
            .collect();
        let mut batch = self
            .tree
            .batch_rekey(&joins, &leaves, &mut self.rng, &mut self.arena)
            .expect("pending lists mirror membership changes");
        let tombstone_hits = batch.tombstone_hits();
        let encryptions = batch.take_encryptions();
        let welcomes = joins
            .into_iter()
            .map(|id| WelcomePacket {
                keys: self.tree.user_path_keys(&id).cloned().collect(),
                id,
                interval: self.interval,
            })
            .collect();
        IntervalOutcome {
            interval: self.interval,
            encryptions,
            welcomes,
            departed: leaves,
            tombstone_hits,
        }
    }

    /// Re-derives the welcome packet of a *current* member: its ID and its
    /// path keys as of the last completed interval. The event-driven
    /// runtime's server-assisted resync uses this to bring a member that
    /// fell behind the recovery path (or straddled a server restart) back
    /// to the current key state in one unicast.
    ///
    /// Returns `None` when `id` is not keyed in the tree — e.g. a member
    /// admitted during the current interval, whose first welcome packet is
    /// still pending.
    pub(crate) fn refresh_welcome(&self, id: &UserId) -> Option<WelcomePacket> {
        if !self.tree.contains_user(id) {
            return None;
        }
        Some(WelcomePacket {
            keys: self.tree.user_path_keys(id).cloned().collect(),
            id: *id,
            interval: self.interval,
        })
    }

    /// Snapshots the current overlay for multicast sessions.
    pub fn mesh(&self) -> TmeshGroup {
        self.group.tmesh()
    }

    /// Convenience: runs the split rekey transport for an interval outcome
    /// and returns the per-member deliveries as index views into the
    /// outcome's encryption buffer (no clones), ready to feed to
    /// [`UserAgent::handle_rekey`].
    ///
    /// An empty interval (no membership change, empty rekey message)
    /// short-circuits: no transport session runs and no per-member
    /// payloads are allocated.
    pub fn deliver<'a>(
        &self,
        net: &impl Network,
        outcome: &'a IntervalOutcome,
    ) -> RekeyDelivery<'a> {
        let encryptions = outcome.encryptions();
        if encryptions.is_empty() {
            return RekeyDelivery {
                encryptions,
                per_member: vec![Vec::new(); self.group.members().len()],
                total_received: 0,
            };
        }
        let mesh = self.mesh();
        let report = tmesh_rekey_transport(
            &mesh,
            net,
            encryptions,
            TransportOptions::split().with_detail(),
        );
        let per_member = report.received_sets.expect("detail requested");
        RekeyDelivery {
            encryptions,
            per_member,
            total_received: report.received.iter().sum(),
        }
    }
}

/// Errors produced by [`UserAgent`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AgentError {
    /// The agent holds no group key yet (welcome not processed).
    NoGroupKey,
    /// Sealed data could not be opened.
    Open(rekey_crypto::OpenError),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::NoGroupKey => write!(f, "agent holds no group key"),
            AgentError::Open(e) => write!(f, "cannot open sealed data: {e}"),
        }
    }
}

impl std::error::Error for AgentError {}

/// The one error type of the facade: everything [`GroupServer`] and
/// [`UserAgent`] can fail with, so applications drive both sides of the
/// protocol behind a single `?`.
///
/// ```
/// use rekey_proto::{AgentError, GroupError, RekeyError};
/// fn app() -> Result<(), RekeyError> {
///     Err(GroupError::IdSpaceFull)?; // server-side failures convert…
///     Err(AgentError::NoGroupKey)?; // …and so do agent-side ones
///     Ok(())
/// }
/// assert!(matches!(app(), Err(RekeyError::Group(GroupError::IdSpaceFull))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RekeyError {
    /// A group lifecycle operation failed on the server.
    Group(GroupError),
    /// A key-state or data-plane operation failed on an agent.
    Agent(AgentError),
}

impl From<GroupError> for RekeyError {
    fn from(e: GroupError) -> RekeyError {
        RekeyError::Group(e)
    }
}

impl From<AgentError> for RekeyError {
    fn from(e: AgentError) -> RekeyError {
        RekeyError::Agent(e)
    }
}

impl std::fmt::Display for RekeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RekeyError::Group(e) => write!(f, "{e}"),
            RekeyError::Agent(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RekeyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RekeyError::Group(e) => Some(e),
            RekeyError::Agent(e) => Some(e),
        }
    }
}

/// What [`UserAgent::handle_rekey`] did with a delivered rekey message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RekeyStatus {
    /// The message advanced the agent to `interval`; `installed` keys were
    /// unwrapped and installed.
    Applied {
        /// Number of keys installed from the message.
        installed: usize,
    },
    /// The message belongs to an interval the agent has already processed
    /// (e.g. a replay, or the rekey of the interval whose welcome packet
    /// already carried the keys). Nothing was absorbed.
    StaleInterval,
}

impl RekeyStatus {
    /// Keys installed: 0 for [`RekeyStatus::StaleInterval`].
    pub fn installed(&self) -> usize {
        match self {
            RekeyStatus::Applied { installed } => *installed,
            RekeyStatus::StaleInterval => 0,
        }
    }
}

/// One member's key state and data-plane operations.
#[derive(Debug, Clone)]
pub struct UserAgent {
    ring: KeyRing,
    interval: u64,
}

impl UserAgent {
    /// Creates an agent from the server's welcome packet.
    pub fn from_welcome(welcome: WelcomePacket) -> UserAgent {
        UserAgent {
            ring: KeyRing::new(welcome.id, welcome.keys),
            interval: welcome.interval,
        }
    }

    /// The member's ID.
    pub fn id(&self) -> &UserId {
        self.ring.user()
    }

    /// The current group key, if held.
    pub fn group_key(&self) -> Option<&Key> {
        self.ring.group_key()
    }

    /// The last rekey interval this agent has processed.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Consumes the encryptions delivered by one rekey interval.
    ///
    /// A message for an interval the agent has already reached is reported
    /// as [`RekeyStatus::StaleInterval`] and NOT absorbed — the agent's key
    /// state for that interval is already complete (its welcome packet or
    /// an earlier delivery established it), and silently re-absorbing would
    /// mask replays and mis-routed deliveries.
    ///
    /// Accepts any re-iterable borrowing iterator — a slice, or a
    /// [`RekeyDelivery::member`] view straight off the transport, with no
    /// `Encryption` clones in between.
    pub fn handle_rekey<'a, I>(&mut self, interval: u64, encryptions: I) -> RekeyStatus
    where
        I: IntoIterator<Item = &'a rekey_crypto::Encryption>,
        I::IntoIter: Clone,
    {
        if interval <= self.interval {
            return RekeyStatus::StaleInterval;
        }
        let installed = self.ring.absorb(encryptions);
        self.interval = interval;
        RekeyStatus::Applied { installed }
    }

    /// Seals application data under the current group key.
    ///
    /// # Errors
    ///
    /// [`AgentError::NoGroupKey`] before the first welcome is processed.
    pub fn seal_data<R: Rng + ?Sized>(
        &self,
        plaintext: &[u8],
        rng: &mut R,
    ) -> Result<SealedData, AgentError> {
        let key = self.ring.group_key().ok_or(AgentError::NoGroupKey)?;
        Ok(SealedData::seal(key, plaintext, rng))
    }

    /// Opens sealed group data.
    ///
    /// # Errors
    ///
    /// [`AgentError::NoGroupKey`] with an empty ring;
    /// [`AgentError::Open`] when the data was sealed under a different
    /// group-key generation than this agent holds.
    pub fn open_data(&self, sealed: &SealedData) -> Result<Vec<u8>, AgentError> {
        let key = self.ring.group_key().ok_or(AgentError::NoGroupKey)?;
        sealed.open(key).map_err(AgentError::Open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_net::{MatrixNetwork, PlanetLabParams};
    use std::collections::HashMap;

    impl GroupConfig {
        /// The §3.1 probe's parameters.
        pub(crate) fn assign(mut self, assign: AssignParams) -> GroupConfig {
            self.assign = assign;
            self
        }
    }

    fn setup(n: usize) -> (MatrixNetwork, GroupServer, HashMap<UserId, UserAgent>) {
        let mut rng = seeded_rng(0xFACADE);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let server_host = HostId(net.host_count() - 1);
        let mut server = GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
            .k(2)
            .seed(7)
            .build(server_host);
        for h in 0..n {
            server.request_join(HostId(h), &net, h as u64).unwrap();
        }
        let outcome = server.end_interval();
        assert_eq!(outcome.welcomes.len(), n);
        let agents = outcome
            .welcomes
            .into_iter()
            .map(|w| (w.id, UserAgent::from_welcome(w)))
            .collect();
        (net, server, agents)
    }

    #[test]
    fn bootstrapped_server_welcomes_everyone_and_churns() {
        let net = rekey_net::GridNetwork::new(28, 1_000, 100);
        let hosts: Vec<HostId> = (0..27).map(HostId).collect();
        let (mut server, welcomes) = GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
            .k(2)
            .seed(7)
            .bootstrap(HostId(27), &hosts, &net)
            .unwrap();
        assert_eq!(server.interval(), 1);
        assert_eq!(server.pending(), (0, 0));
        assert_eq!(welcomes.len(), 27);
        server.group().check().expect("K-consistent bootstrap");
        let mut agents: HashMap<UserId, UserAgent> = welcomes
            .into_iter()
            .map(|w| {
                assert_eq!(w.interval, 1);
                (w.id, UserAgent::from_welcome(w))
            })
            .collect();
        for agent in agents.values() {
            assert_eq!(agent.group_key(), server.tree().group_key());
        }
        // Incremental churn on top of the bootstrapped state works as if
        // the group had been built by joins.
        let victim = server.group().members()[3].id;
        server.request_leave(&victim, &net).unwrap();
        agents.remove(&victim);
        let outcome = server.end_interval();
        assert_eq!(outcome.interval, 2);
        let delivered = server.deliver(&net, &outcome);
        for (i, member) in server.mesh().members().iter().enumerate() {
            let agent = agents.get_mut(&member.id).unwrap();
            agent.handle_rekey(outcome.interval, delivered.member(i));
            assert_eq!(
                agent.group_key(),
                server.tree().group_key(),
                "{}",
                member.id
            );
        }
    }

    #[test]
    fn bootstrap_interval_welcomes_everyone() {
        let (_, server, agents) = setup(8);
        assert_eq!(server.interval(), 1);
        assert_eq!(server.pending(), (0, 0));
        for agent in agents.values() {
            assert_eq!(agent.group_key(), server.tree().group_key());
        }
    }

    #[test]
    fn churn_interval_updates_every_agent() {
        let (net, mut server, mut agents) = setup(10);
        // Two leaves, one join.
        let victims: Vec<UserId> = server
            .group()
            .members()
            .iter()
            .take(2)
            .map(|m| m.id)
            .collect();
        for v in &victims {
            server.request_leave(v, &net).unwrap();
            agents.remove(v);
        }
        server.request_join(HostId(12), &net, 99).unwrap();
        let outcome = server.end_interval();
        assert_eq!(outcome.departed, victims);
        for w in outcome.welcomes.clone() {
            agents.insert(w.id, UserAgent::from_welcome(w));
        }

        let delivered = server.deliver(&net, &outcome);
        for (i, member) in server.mesh().members().iter().enumerate() {
            let agent = agents.get_mut(&member.id).expect("agent per member");
            let status = agent.handle_rekey(outcome.interval, delivered.member(i));
            // The interval's joiner got its keys in the welcome packet, so
            // the rekey of its own interval is stale for it; everyone else
            // applies the message.
            if member.host == HostId(12) {
                assert_eq!(status, RekeyStatus::StaleInterval);
            } else {
                assert!(matches!(status, RekeyStatus::Applied { .. }));
            }
            assert_eq!(
                agent.group_key(),
                server.tree().group_key(),
                "{}",
                member.id
            );
            assert_eq!(agent.interval(), 2);
        }

        // Replaying the same interval is reported stale and changes nothing.
        let replay_victim = server.mesh().members()[0].id;
        let agent = agents.get_mut(&replay_victim).unwrap();
        let key_before = agent.group_key().cloned();
        assert_eq!(
            agent.handle_rekey(outcome.interval, delivered.member(0)),
            RekeyStatus::StaleInterval
        );
        assert_eq!(agent.group_key().cloned(), key_before);
    }

    /// `e` with one tag byte flipped: what a corrupted datagram, or a node
    /// tagging under another wire version, delivers.
    fn with_bad_tag(e: &rekey_crypto::Encryption) -> rekey_crypto::Encryption {
        let (nonce, ciphertext, tag) = e.wire_parts();
        let mut tag = *tag;
        tag[0] ^= 1;
        rekey_crypto::Encryption::from_wire_parts(
            *e.id(),
            e.encrypting_version(),
            *e.encrypted_id(),
            e.encrypted_version(),
            *nonce,
            *ciphertext,
            tag,
        )
    }

    #[test]
    fn a_tampered_copy_before_the_genuine_one_installs_once() {
        let (net, mut server, mut agents) = setup(10);
        let victim = server.group().members()[0].id;
        server.request_leave(&victim, &net).unwrap();
        agents.remove(&victim);
        let outcome = server.end_interval();
        let delivered = server.deliver(&net, &outcome);
        for (i, member) in server.mesh().members().iter().enumerate() {
            let agent = agents.get_mut(&member.id).unwrap();
            let mut genuine_only = agent.clone();
            let want = genuine_only.handle_rekey(outcome.interval, delivered.member(i));
            let tampered: Vec<_> = delivered
                .member(i)
                .flat_map(|e| [with_bad_tag(e), e.clone()])
                .collect();
            assert_eq!(agent.handle_rekey(outcome.interval, &tampered), want);
            assert_eq!(agent.group_key(), server.tree().group_key());
        }
    }

    #[test]
    fn data_plane_round_trip_and_forward_secrecy() {
        let (net, mut server, mut agents) = setup(9);
        let mut rng = seeded_rng(1);

        // A member sends sealed data: everyone can open it.
        let sender = agents.values().next().unwrap().clone();
        let sealed = sender.seal_data(b"state update", &mut rng).unwrap();
        for agent in agents.values() {
            assert_eq!(agent.open_data(&sealed).unwrap(), b"state update");
        }

        // One member leaves; after the interval the departed agent cannot
        // open new traffic.
        let victim = server.group().members()[0].id;
        server.request_leave(&victim, &net).unwrap();
        let departed = agents.remove(&victim).unwrap();
        let outcome = server.end_interval();
        let delivered = server.deliver(&net, &outcome);
        for (i, member) in server.mesh().members().iter().enumerate() {
            agents
                .get_mut(&member.id)
                .unwrap()
                .handle_rekey(outcome.interval, delivered.member(i));
        }
        let fresh = agents
            .values()
            .next()
            .unwrap()
            .seal_data(b"post-leave", &mut rng)
            .unwrap();
        for agent in agents.values() {
            assert_eq!(agent.open_data(&fresh).unwrap(), b"post-leave");
        }
        assert!(matches!(
            departed.open_data(&fresh),
            Err(AgentError::Open(_))
        ));
    }

    /// A member that joins and leaves within the same interval must not
    /// panic the server nor leak into the key tree.
    #[test]
    fn join_then_leave_within_one_interval_cancels() {
        let (net, mut server, _) = setup(4);
        let id = server.request_join(HostId(9), &net, 99).unwrap();
        server.request_leave(&id, &net).unwrap();
        let out = server.end_interval();
        assert!(out.welcomes.iter().all(|w| w.id != id));
        assert!(!server.tree().contains_user(&id));
        assert_eq!(server.group().member(&id), None);
        // The transient member's requests cancel; nothing to rekey.
        assert_eq!(out.cost(), 0);
    }

    /// The opposite order — a leave followed by a join that reuses the
    /// departed ID (forced here by a full ID space) — must keep both sides
    /// of the batch: the leaver's keys change and the newcomer is welcomed.
    #[test]
    fn leave_then_rejoin_reusing_the_id() {
        let mut rng = seeded_rng(0xF00);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let spec = IdSpec::new(2, 2).unwrap(); // 4 IDs total
        let mut server = GroupConfig::for_spec(&spec)
            .k(2)
            .seed(9)
            .build(HostId(net.host_count() - 1));
        for h in 0..4 {
            server.request_join(HostId(h), &net, h as u64).unwrap();
        }
        server.end_interval();
        let victim = server.group().members()[0].id;
        let old_group_key = server.tree().group_key().unwrap().clone();
        server.request_leave(&victim, &net).unwrap();
        let reused = server.request_join(HostId(7), &net, 99).unwrap();
        assert_eq!(reused, victim, "a full ID space forces reuse");
        let out = server.end_interval();
        assert_eq!(out.departed, vec![victim]);
        assert_eq!(out.welcomes.len(), 1);
        assert_eq!(out.welcomes[0].id, victim);
        assert!(out.cost() > 0);
        assert_ne!(server.tree().group_key(), Some(&old_group_key));
    }

    #[test]
    fn empty_interval_is_cheap() {
        let (_, mut server, _) = setup(5);
        let outcome = server.end_interval();
        assert_eq!(outcome.cost(), 0);
        assert!(outcome.welcomes.is_empty());
        assert!(outcome.departed.is_empty());
    }

    /// Delivering an empty interval must not run a transport session nor
    /// allocate per-member payloads — the delivery borrows the (empty)
    /// encryption slice and every member's share is empty.
    #[test]
    fn empty_interval_delivery_allocates_no_payloads() {
        let (net, mut server, _) = setup(5);
        let outcome = server.end_interval();
        assert_eq!(outcome.cost(), 0);
        let delivered = server.deliver(&net, &outcome);
        assert_eq!(delivered.members(), 5);
        assert_eq!(delivered.total_received(), 0);
        assert!(delivered.encryptions().is_empty());
        for i in 0..delivered.members() {
            assert!(delivered.member_indices(i).is_empty());
            assert_eq!(delivered.member(i).count(), 0);
        }
    }
}
