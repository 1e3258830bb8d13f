//! Group membership lifecycle: joins with topology-aware ID assignment,
//! leaves, and incremental neighbor-table maintenance.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use rekey_id::{IdPrefix, IdSpec, IdTree, UserId, MAX_DEPTH};
use rekey_net::{HostId, Micros, Network};
use rekey_table::{
    check_consistency, ConsistencyViolation, Member, NeighborRecord, NeighborTable, PrimaryPolicy,
    ServerTable, TableEntry,
};
use rekey_tmesh::TmeshGroup;

use crate::assign::{centralized_digits, probe_digits, server_complete, AssignParams, AssignStats};

/// Errors produced by group lifecycle operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GroupError {
    /// The ID space is exhausted — no unique ID can be assigned.
    IdSpaceFull,
    /// A leave named a user that is not in the group.
    NotMember(UserId),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::IdSpaceFull => write!(f, "user ID space is exhausted"),
            GroupError::NotMember(u) => write!(f, "user {u} is not a group member"),
        }
    }
}

impl std::error::Error for GroupError {}

/// The result of one join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOutcome {
    /// The assigned user ID.
    pub id: UserId,
    /// Message-cost statistics of the assignment protocol.
    pub stats: AssignStats,
}

/// The `position` of a free table slot.
const FREE: u32 = u32::MAX;

/// Member ID → table slot. Building the holder index hashes the ID of
/// every stored record, which FxHash (`rustc`'s) does several times faster
/// than the default SipHash. The keys are IDs the key server assigned (or a
/// `join_with_id` caller chose); IDs arriving from the network are only
/// looked up, so SipHash's resistance to crafted collisions buys nothing.
type IdIndex = HashMap<UserId, u32, BuildHasherDefault<IdHasher>>;

/// A set of member IDs under the same hasher: §3.1 probing tests every
/// collected record against one, and its IDs are all table records.
pub(crate) type IdSet = HashSet<UserId, BuildHasherDefault<IdHasher>>;

#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A secure group: the key server plus its members, with every member's
/// neighbor table maintained under churn (the simplified-Silk model the
/// paper's simulations use, §4).
///
/// `Group` owns membership, ID assignment and tables; key management lives
/// in `rekey_keytree` and is driven by the caller (see the protocol
/// harnesses and examples).
///
/// Each member's table sits in a slot that it keeps from join to leave; a
/// leave frees the slot for a later join. A join costs one RTT per member
/// plus the tables it enters: one pass over the roster builds the joiner's
/// table and offers the joiner to every owner, and per-slot admission
/// bounds (the RTT a record must beat to enter a full entry) let it skip
/// every table the joiner cannot enter without reading it. A leave costs
/// holders × subtree: it visits only the tables that may list the leaver —
/// a reverse holder index finds them; for a member that more than a
/// quarter of all tables listed, that is every table — and refills each
/// from the leaver's subtree. Its only per-member work is closing the gap
/// in the join-order roster, one 32-byte record and one 4-byte slot handle
/// per later member. Tables are shared: copies of the group, snapshots and
/// members hold its `Arc`s, and a change copies a table someone else holds.
#[derive(Debug, Clone)]
pub struct Group {
    spec: IdSpec,
    k: usize,
    policy: PrimaryPolicy,
    assign: AssignParams,
    server_host: HostId,
    /// Current members, in join order.
    members: Vec<Member>,
    /// The table slot of each member, in join order.
    slots: Vec<u32>,
    /// Per table slot: its member's index in `members`, or [`FREE`].
    position: Vec<u32>,
    /// Per table slot: its member's neighbor table (empty while free).
    tables: Vec<Arc<NeighborTable>>,
    /// Per table slot: the mutation count at which the table last changed.
    versions: Vec<u64>,
    /// Free table slots, reused by later joins.
    free: Vec<u32>,
    index: IdIndex,
    holders: Holders,
    bounds: Bounds,
    server_table: Arc<ServerTable>,
    id_tree: IdTree,
    /// Joins and leaves applied so far: the version clock of the tables.
    mutations: u64,
    /// Join-order indices of the existing members whose tables the latest
    /// join or leave changed.
    changed: Vec<usize>,
}

impl Group {
    /// Creates an empty group.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        spec: &IdSpec,
        server_host: HostId,
        k: usize,
        policy: PrimaryPolicy,
        assign: AssignParams,
    ) -> Group {
        Group {
            spec: *spec,
            k,
            policy,
            assign,
            server_host,
            members: Vec::new(),
            slots: Vec::new(),
            position: Vec::new(),
            tables: Vec::new(),
            versions: Vec::new(),
            free: Vec::new(),
            index: IdIndex::default(),
            holders: Holders::default(),
            bounds: Bounds::default(),
            server_table: Arc::new(ServerTable::new(spec, k)),
            id_tree: IdTree::new(spec),
            mutations: 0,
            changed: Vec::new(),
        }
    }

    /// The ID-space specification.
    pub fn spec(&self) -> &IdSpec {
        &self.spec
    }

    /// Current members, in join order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member with the given ID, if present.
    pub fn member(&self, id: &UserId) -> Option<&Member> {
        self.index_of(id).map(|i| &self.members[i])
    }

    /// The ID tree of the current membership.
    pub fn id_tree(&self) -> &IdTree {
        &self.id_tree
    }

    /// The neighbor table of the member at index `i`.
    pub fn table(&self, i: usize) -> &Arc<NeighborTable> {
        &self.tables[self.slots[i] as usize]
    }

    /// The join-order index of the member with the given ID.
    pub fn index_of(&self, id: &UserId) -> Option<usize> {
        self.index
            .get(id)
            .map(|&slot| self.position[slot as usize] as usize)
    }

    /// The key server's neighbor table.
    pub fn server_table(&self) -> &ServerTable {
        &self.server_table
    }

    /// Per-entry capacity `K`.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Joins and leaves applied so far (a dealt group starts at 0).
    pub(crate) fn mutations(&self) -> u64 {
        self.mutations
    }

    /// The mutation count at which the table of the member at index `i`
    /// last changed: the version a member holding that table is at.
    pub(crate) fn table_version(&self, i: usize) -> u64 {
        self.versions[self.slots[i] as usize]
    }

    /// Indices of the members whose existing tables the latest join or
    /// leave changed (a joiner's own new table is not among them).
    pub(crate) fn changed_tables(&self) -> &[usize] {
        &self.changed
    }

    /// The record the key server hands joiner `host` to start its §3.1
    /// probe from, or `None` in an empty group. Any member works, since the
    /// protocol corrects from there; the member at the joiner's host index
    /// modulo the group size keeps the choice deterministic. Both the
    /// synchronous [`Group::join`] and the runtime server's reply to a
    /// `JoinRequest` take this one.
    pub(crate) fn seed_for(&self, host: HostId) -> Option<Member> {
        (!self.members.is_empty()).then(|| self.members[host.0 % self.members.len()])
    }

    /// The §3.1 protocol parameters joins probe with.
    pub(crate) fn assign_params(&self) -> &AssignParams {
        &self.assign
    }

    /// Joins `host`: runs the ID assignment protocol of §3.1 against the
    /// current membership, then installs the new member into every table.
    ///
    /// Past the probe, a join costs one RTT evaluation per member plus the
    /// tables the joiner enters: one pass over the roster builds the
    /// joiner's table and offers the joiner to every owner, reading an
    /// owner's table only where its admission bound says the joiner gets
    /// in (see [`Group`]). The first join into a group without bounds — a
    /// dealt group, a copy — builds them from every table.
    ///
    /// The first join receives the all-zero ID, as in §3.1: "If u is the
    /// first join in the group, the key server assigns its user ID as D
    /// digits of 0".
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when no unique ID exists.
    pub fn join(
        &mut self,
        host: HostId,
        net: &impl Network,
        now: Micros,
    ) -> Result<JoinOutcome, GroupError> {
        let (digits, stats) = match self.seed_for(host) {
            None => (IdPrefix::root(), AssignStats::default()),
            Some(seed) => {
                let (index, tables) = (&self.index, &self.tables);
                let lookup = |id: &UserId| &*tables[index[id] as usize];
                probe_digits(lookup, &self.assign, host, seed, net)
            }
        };
        let id = self.admit(host, digits.digits(), net, now)?;
        Ok(JoinOutcome { id, stats })
    }

    /// Joins `host` using **centralized** ID assignment over network
    /// coordinates (§5's GNP extension): the joiner probes only the
    /// landmarks of `coords`; the server — which stores every member's
    /// coordinate — determines the digits by computing over RTT estimates.
    ///
    /// `AssignStats::probes` counts the landmark probes;
    /// `AssignStats::queries` is 0 (no user is queried).
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when no unique ID exists.
    pub fn join_centralized(
        &mut self,
        host: HostId,
        net: &impl Network,
        coords: &rekey_net::CoordinateSystem,
        now: Micros,
    ) -> Result<JoinOutcome, GroupError> {
        let (digits, stats) = if self.members.is_empty() {
            (Vec::new(), AssignStats::default())
        } else {
            let joiner_coord = coords.measure(host, net);
            let estimate = |h: HostId| {
                // The server holds each member's coordinate (measured when
                // the member joined); estimation is a local computation.
                joiner_coord.estimate_rtt(&coords.measure(h, net))
            };
            let (digits, _) =
                centralized_digits(&self.spec, &self.assign, &self.members, &estimate);
            let stats = AssignStats {
                queries: 0,
                probes: coords.probe_cost() as u64,
                digits_probed: digits.len(),
            };
            (digits, stats)
        };
        let id = self.admit(host, &digits, net, now)?;
        Ok(JoinOutcome { id, stats })
    }

    /// §3.1 step 4 at the key server: completes the digits the joiner
    /// determined to a unique ID (footnote 3) and installs the joiner into
    /// every table. An empty group completes no digits to the all-zero ID.
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when no unique ID exists.
    pub(crate) fn admit(
        &mut self,
        host: HostId,
        digits: &[u16],
        net: &impl Network,
        now: Micros,
    ) -> Result<UserId, GroupError> {
        let id =
            server_complete(&self.spec, &self.id_tree, digits).ok_or(GroupError::IdSpaceFull)?;
        self.insert_member(
            Member {
                id,
                host,
                joined_at: now,
            },
            net,
        );
        Ok(id)
    }

    /// Adds a member with a caller-chosen ID (for tests and ablations, e.g.
    /// the random-ID ablation of §2.6).
    ///
    /// # Panics
    ///
    /// Panics if the ID is already taken.
    pub fn join_with_id(&mut self, id: UserId, host: HostId, net: &impl Network, now: Micros) {
        assert!(!self.index.contains_key(&id), "ID {id} already taken");
        self.insert_member(
            Member {
                id,
                host,
                joined_at: now,
            },
            net,
        );
    }

    /// Constructs a fully populated group in one shot — the million-member
    /// bootstrap path.
    ///
    /// [`Group::join`] costs one RTT evaluation per existing member (every
    /// one is a candidate for the newcomer's table, and the newcomer for
    /// theirs), so building a large group by repeated joins is O(N²).
    /// `bootstrap` instead deals IDs directly and builds
    /// each table from a per-prefix directory, which is
    /// O(N · D · B) overall — a 1M-member group in seconds instead of days.
    ///
    /// Member `i` receives the ID whose digits are the base-B
    /// representation of `i` **least-significant digit first** (digit 0 is
    /// `i mod B`), so consecutive indices are dealt round-robin across the
    /// level-1 subtrees and the ID tree stays balanced at every level.
    /// This trades the paper's topology-aware assignment (§3.1) for
    /// construction speed; churn after bootstrap goes through the regular
    /// incremental paths.
    ///
    /// Tables are K-consistent by construction (each `(i, j)` entry takes
    /// the first `min(K, m)` members of the `(i, j)` subtree in deal
    /// order); [`Group::check`] verifies this in tests.
    ///
    /// # Errors
    ///
    /// [`GroupError::IdSpaceFull`] when `hosts.len()` exceeds the ID space.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn bootstrap(
        spec: &IdSpec,
        server_host: HostId,
        k: usize,
        policy: PrimaryPolicy,
        assign: AssignParams,
        hosts: &[HostId],
        net: &impl Network,
    ) -> Result<Group, GroupError> {
        assert!(k > 0, "neighbor-table redundancy K must be at least 1");
        let n = hosts.len() as u64;
        if n > spec.id_space() {
            return Err(GroupError::IdSpaceFull);
        }
        let depth = spec.depth();
        let base = u64::from(spec.base());
        let members: Vec<Member> = hosts
            .iter()
            .enumerate()
            .map(|(i, &host)| {
                let mut digits = [0u16; MAX_DEPTH];
                let mut rest = i as u64;
                for d in &mut digits[..depth] {
                    *d = (rest % base) as u16;
                    rest /= base;
                }
                Member {
                    id: UserId::from_digits(spec, &digits[..depth]).expect("digits below base"),
                    host,
                    joined_at: 0,
                }
            })
            .collect();

        // Dealing is arithmetic, so the directory of "members under a
        // prefix" is too: a prefix of `l` digits read as a base-B number
        // (digit 0 least significant) is the index of the first member
        // dealt under it, and the others follow every `B^l` indices.
        let first_k_under = |first: u64, stride: u64| {
            (first..n)
                .step_by(stride as usize)
                .take(k)
                .map(|c| &members[c as usize])
        };

        let mut tables = Vec::with_capacity(members.len());
        let mut entries = Vec::new(); // a table's non-empty (first, stride)s
        for m in &members {
            // `own`: first member under `m`'s level-`row` prefix; `stride`
            // is `B^row`, saturated once no second member can follow.
            let (mut own, mut stride) = (0u64, 1u64);
            let mut records = 0;
            entries.clear();
            for row in 0..depth {
                let below = stride.saturating_mul(base);
                for j in (0..spec.base()).filter(|&j| j != m.id.digit(row)) {
                    let first = own.saturating_add(u64::from(j).saturating_mul(stride));
                    if first >= n {
                        break; // higher columns start later still
                    }
                    entries.push((first, below));
                    records += ((n - first).div_ceil(below) as usize).min(k);
                }
                own += u64::from(m.id.digit(row)) * stride;
                stride = below;
            }
            let mut table = NeighborTable::new(spec, m.id, k, policy);
            // Sized for these records plus one join's: a join adds at most
            // one record, in at most one new entry, and a full `Vec` doubles.
            table.reserve(entries.len() + 1, records + 1);
            // Everyone under `(row, j)` differs from the owner at digit
            // `row`, so the owner is never its own neighbor.
            for &(first, stride) in &entries {
                for cand in first_k_under(first, stride) {
                    table.insert(NeighborRecord {
                        member: *cand,
                        rtt: net.rtt(m.host, cand.host),
                    });
                }
            }
            debug_assert_eq!(table.neighbor_count(), records, "sized as filled");
            tables.push(Arc::new(table));
        }

        let mut server_table = ServerTable::new(spec, k);
        for j in 0..base.min(n) {
            for cand in first_k_under(j, base) {
                server_table.insert(NeighborRecord {
                    member: *cand,
                    rtt: net.rtt(server_host, cand.host),
                });
            }
        }

        let id_tree = IdTree::from_users(spec, members.iter().map(|m| m.id));
        let index = members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id, i as u32))
            .collect();
        let slots: Vec<u32> = (0..members.len() as u32).collect();
        Ok(Group {
            spec: *spec,
            k,
            policy,
            assign,
            server_host,
            versions: vec![0; members.len()],
            members,
            position: slots.clone(),
            slots,
            tables,
            free: Vec::new(),
            index,
            holders: Holders::default(),
            bounds: Bounds::default(),
            server_table: Arc::new(server_table),
            id_tree,
            mutations: 0,
            changed: Vec::new(),
        })
    }

    fn insert_member(&mut self, member: Member, net: &impl Network) {
        if !self.bounds.is_built() {
            self.bounds.build(&self.spec, &self.tables, self.k);
        }
        self.mutations += 1;
        self.changed.clear();
        let slot = self.free.pop().unwrap_or(self.tables.len() as u32);
        self.bounds.open(slot);
        // One pass over the roster builds the newcomer's table and inserts
        // the newcomer into everyone else's. Member `m` shares `c < D`
        // digits with it (IDs are unique), so `m` belongs in the newcomer's
        // entry `(c, m[c])` and the newcomer in `m`'s `(c, newcomer[c])`,
        // both at the one RTT between them. A table is read only where its
        // bound admits the record. Records reach the newcomer's table in
        // join order, as in a build from the roster, so RTT ties break alike.
        let mut table = NeighborTable::new(&self.spec, member.id, self.k, self.policy);
        // Records the join adds to the existing tables.
        let mut added = 0;
        for (i, existing) in self.members.iter().enumerate() {
            let c = existing.id.common_prefix_len(&member.id);
            let rtt = net.rtt(existing.host, member.host);
            let col = existing.id.digit(c);
            if self.bounds.admits(slot, c, col, rtt) {
                table.insert(NeighborRecord {
                    member: *existing,
                    rtt,
                });
                self.bounds
                    .refresh(slot, c, col, table.entry(c, col), self.k);
            }
            let (owner, col) = (self.slots[i], member.id.digit(c));
            if !self.bounds.admits(owner, c, col, rtt) {
                continue;
            }
            let owned = Arc::make_mut(&mut self.tables[owner as usize]);
            let held = owned.neighbor_count();
            if owned.insert(NeighborRecord { member, rtt }) {
                self.versions[owner as usize] = self.mutations;
                self.changed.push(i);
                added += owned.neighbor_count() - held;
                self.bounds
                    .refresh(owner, c, col, owned.entry(c, col), self.k);
            }
        }
        if self.holders.is_built() {
            self.holders.records += added + table.neighbor_count();
            let slots = &self.slots;
            self.holders
                .open(slot, self.changed.iter().map(|&i| slots[i]));
            for r in table.iter_all() {
                self.holders.push(self.index[&r.member.id], slot);
            }
            self.holders.discard_if_stale();
        }
        Arc::make_mut(&mut self.server_table).insert(NeighborRecord {
            member,
            rtt: net.rtt(self.server_host, member.host),
        });
        self.id_tree.insert(&member.id);
        self.index.insert(member.id, slot);
        let at = self.members.len() as u32;
        self.members.push(member);
        self.slots.push(slot);
        if slot as usize == self.tables.len() {
            self.position.push(at);
            self.tables.push(Arc::new(table));
            self.versions.push(self.mutations);
        } else {
            self.position[slot as usize] = at;
            // Into the freed slot's own allocation unless a copy holds it.
            *Arc::make_mut(&mut self.tables[slot as usize]) = table;
            self.versions[slot as usize] = self.mutations;
        }
    }

    /// Removes a member and repairs every table that referenced it, keeping
    /// K-consistency (Definition 3).
    ///
    /// A leave costs holders × subtree: only the tables that may list the
    /// departed member are visited, in join order, and each one that did
    /// list it is refilled from the departed member's subtree. The first
    /// leave, and the first after the holder index went stale, rebuilds the
    /// index from all tables first (see [`Group`]).
    ///
    /// # Errors
    ///
    /// [`GroupError::NotMember`] if `id` is not in the group.
    pub fn leave(&mut self, id: &UserId, net: &impl Network) -> Result<Member, GroupError> {
        let slot = *self.index.get(id).ok_or(GroupError::NotMember(*id))?;
        if !self.holders.is_built() {
            self.holders.build(&self.tables, &self.index);
        }
        self.index.remove(id);
        let idx = self.position[slot as usize] as usize;
        let departed = self.members.remove(idx);
        self.slots.remove(idx);
        for &later in &self.slots[idx..] {
            self.position[later as usize] -= 1;
        }
        self.position[slot as usize] = FREE;
        self.free.push(slot);
        self.holders.records -= self.tables[slot as usize].neighbor_count();
        let emptied = NeighborTable::new(&self.spec, *id, self.k, self.policy);
        self.tables[slot as usize] = Arc::new(emptied);
        self.mutations += 1;
        self.changed.clear();
        self.id_tree.remove(id);
        Arc::make_mut(&mut self.server_table).remove(id);
        // Remove from the tables that held it, refilling entries from global
        // knowledge (the role Silk's failure-recovery protocol plays in the
        // paper).
        //
        // An owner that stored the departed member in row `r` refills from
        // the subtree under `id.prefix(r + 1)`, whoever the owner is, and
        // those subtrees nest. So the departed member's level-1 subtree is
        // resolved once, in ascending-ID order, with each candidate's slot,
        // and row `r`'s candidates are the contiguous run of it under
        // `id.prefix(r + 1)`.
        let subtree = id.prefix(1);
        let size = self.id_tree.node(&subtree).map_or(0, |n| n.user_count());
        let mut level1: Vec<(Member, u32)> = Vec::with_capacity(size);
        level1.extend(self.id_tree.users_in_subtree(&subtree).map(|u| {
            let s = self.index[&u];
            (self.members[self.position[s as usize] as usize], s)
        }));
        let runs: Vec<Range<usize>> = (1..=self.spec.depth())
            .map(|len| {
                let root = id.prefix(len);
                let start =
                    level1.partition_point(|(m, _)| root.subtree_cmp(m.id.digits()).is_lt());
                let len = level1[start..].partition_point(|(m, _)| root.is_prefix_of_id(&m.id));
                start..start + len
            })
            .collect();
        // The tables that may list it, in join order; those that do not are
        // dropped below, read through a shared borrow and left as they are.
        match self.holders.list(slot) {
            Some(owners) => {
                let position = &self.position;
                self.changed.extend(owners.filter_map(|owner| {
                    let at = position[owner as usize];
                    (at != FREE).then_some(at as usize)
                }));
                self.changed.sort_unstable();
                self.changed.dedup();
            }
            None => self.changed.extend(0..self.members.len()),
        }
        let (k, mutations) = (self.k, self.mutations);
        self.changed.retain(|&i| {
            let owner = self.slots[i];
            if !lists(&self.tables[owner as usize], id) {
                return false;
            }
            let table = Arc::make_mut(&mut self.tables[owner as usize]);
            let held = table.neighbor_count();
            table.remove(id);
            self.versions[owner as usize] = mutations;
            let (row, col) = table.slot_for(id).expect("stored, so not the owner");
            // Once the entry is full again only a strictly closer
            // candidate can still enter it; the rest are not offered.
            let host = self.members[i].host;
            let mut worst = None;
            for &(cand, cand_slot) in &level1[runs[row].clone()] {
                let rtt = net.rtt(host, cand.host);
                if worst.is_some_and(|w| rtt >= w) {
                    continue;
                }
                if table.insert(NeighborRecord { member: cand, rtt }) {
                    self.holders.push(cand_slot, owner);
                }
                let entry = table.entry(row, col);
                worst = entry.iter().nth(k - 1).map(|r| r.rtt);
            }
            self.holders.records = self.holders.records + table.neighbor_count() - held;
            if self.bounds.is_built() {
                self.bounds
                    .refresh(owner, row, col, table.entry(row, col), k);
            }
            true
        });
        self.holders.discard_if_stale();
        // Refill the server entry for the departed user's digit.
        for (member, _) in level1 {
            let rtt = net.rtt(self.server_host, member.host);
            Arc::make_mut(&mut self.server_table).insert(NeighborRecord { member, rtt });
        }
        Ok(departed)
    }

    /// Checks K-consistency of all current tables (Definition 3).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check(&self) -> Result<(), ConsistencyViolation> {
        check_consistency(&self.spec, &self.members, self.join_order(), self.k)
    }

    /// Snapshots the group as a [`TmeshGroup`] ready to run multicast
    /// sessions. The snapshot shares the group's tables.
    pub fn tmesh(&self) -> TmeshGroup {
        TmeshGroup::from_tables(
            &self.spec,
            self.members.clone(),
            (0..self.len()).map(|i| Arc::clone(self.table(i))).collect(),
            Arc::clone(&self.server_table),
            self.server_host,
        )
    }

    /// The members' tables in join order.
    fn join_order(&self) -> impl Iterator<Item = &NeighborTable> + '_ {
        self.slots.iter().map(|&s| &*self.tables[s as usize])
    }
}

/// `true` iff `table` stores a record of `id`; a shared borrow suffices.
pub(crate) fn lists(table: &NeighborTable, id: &UserId) -> bool {
    let listed = |(row, col)| table.entry(row, col).iter().any(|r| r.member.id == *id);
    table.slot_for(id).is_some_and(listed)
}

/// The end of a holder list, and an empty cell of a holder chunk.
const NIL: u32 = u32::MAX;
/// The length of a list given up on: its member was listed by so many
/// tables that a leave looks in all of them.
const SCAN: u32 = u32::MAX;
/// Cells per holder chunk: the link to the list's previous chunk, then
/// holder slots.
const CHUNK: usize = 8;

/// The reverse holder index of [`Group::leave`]: for each member's table
/// slot, the slots of the tables that may list the member.
///
/// A list is a superset, not exact. A table that drops the member — a
/// closer joiner evicted it, or the table's owner left and its slot was
/// reused — leaves its cell behind; a leave skips such cells when `remove`
/// finds nothing. Tracking evictions exactly would cost a list walk per
/// eviction, and a join into a dealt group can evict from half of all
/// tables. Instead the index is built from the tables the first time a
/// leave needs it, and discarded once as many cells were stored since as
/// the build stored — at most half of them live — to be rebuilt by the
/// next leave.
///
/// A list that would hold more than a quarter of all slots is not kept:
/// visiting that many tables in list order costs about what a scan of all
/// of them does, and such lists — a joiner's (half the tables admit it),
/// the first-dealt members' (every row-0 entry) — would be most of the
/// index and most of its stale cells.
#[derive(Debug, Default)]
struct Holders {
    /// Per table slot: the newest chunk of its list (or `NIL`) and the
    /// list's length (or `SCAN`). Empty while the index is not built.
    lists: Vec<(u32, u32)>,
    /// Every list's chunks: the link to the previous chunk (or `NIL`), then
    /// up to `CHUNK - 1` holder slots, `NIL`-padded.
    chunks: Vec<[u32; CHUNK]>,
    /// Cells stored since the index was built, stale ones included.
    cells: usize,
    /// Cells the build stored, every one of them live then.
    built: usize,
    /// Σ `neighbor_count` over the tables, kept while the index is built.
    records: usize,
}

impl Clone for Holders {
    /// A copy of a group — a journal checkpoint, a replica — starts without
    /// an index and builds its own when a leave needs it.
    fn clone(&self) -> Holders {
        Holders::default()
    }
}

impl Holders {
    fn is_built(&self) -> bool {
        !self.lists.is_empty()
    }

    /// The longest list kept.
    fn cap(&self) -> usize {
        self.lists.len() / 4
    }

    /// Builds the index from every table slot's table; `index` maps each
    /// member to its slot.
    fn build(&mut self, tables: &[Arc<NeighborTable>], index: &IdIndex) {
        self.lists.clear();
        self.lists.resize(tables.len(), (NIL, 0));
        self.chunks.clear();
        self.cells = 0;
        self.records = tables.iter().map(|t| t.neighbor_count()).sum();
        for (owner, table) in tables.iter().enumerate() {
            for r in table.iter_all() {
                self.push(index[&r.member.id], owner as u32);
            }
        }
        self.built = self.cells;
    }

    /// Starts the list of a newly occupied table slot with the slots of
    /// the tables that list its member.
    fn open(&mut self, slot: u32, owners: impl ExactSizeIterator<Item = u32>) {
        let list = if owners.len() > self.cap() {
            (NIL, SCAN)
        } else {
            (NIL, 0)
        };
        match self.lists.get_mut(slot as usize) {
            Some(old) => *old = list,
            None => self.lists.push(list),
        }
        if list.1 != SCAN {
            owners.for_each(|owner| self.push(slot, owner));
        }
    }

    /// Records that the table in slot `owner` now lists the member in slot
    /// `member`.
    fn push(&mut self, member: u32, owner: u32) {
        let cap = self.cap();
        let (tail, len) = &mut self.lists[member as usize];
        if *len == SCAN {
            return;
        }
        if *len as usize == cap {
            *len = SCAN;
            return;
        }
        self.cells += 1;
        let at = *len as usize % (CHUNK - 1);
        if at == 0 {
            let mut chunk = [NIL; CHUNK];
            chunk[0] = *tail;
            *tail = self.chunks.len() as u32;
            self.chunks.push(chunk);
        }
        self.chunks[*tail as usize][1 + at] = owner;
        *len += 1;
    }

    /// The slots of the tables that may list the member in slot `member`,
    /// repeats and stale ones included; `None` if all tables may.
    fn list(&self, member: u32) -> Option<impl Iterator<Item = u32> + '_> {
        let (mut at, len) = self.lists[member as usize];
        let chunks = std::iter::from_fn(move || {
            let chunk = self.chunks.get(at as usize)?;
            at = chunk[0];
            Some(&chunk[1..])
        });
        (len != SCAN).then(|| chunks.flatten().copied().filter(|&owner| owner != NIL))
    }

    /// Drops the index once the cells stored since the build outnumber the
    /// ones it stored, or the index holds more than twice as many cells as
    /// the tables hold records.
    fn discard_if_stale(&mut self) {
        if self.cells > 2 * self.built.min(self.records) {
            self.lists.clear();
            self.chunks.clear();
            self.cells = 0;
        }
    }
}

/// The bound of an entry that admits every record: not full, or its `K`-th
/// RTT does not fit a bound.
const OPEN: u32 = u32::MAX;

/// The admission bounds of [`Group::join`]: per table slot and entry
/// `(row, col)`, the RTT a record must beat, strictly, to enter the entry —
/// the entry's `K`-th RTT once it is full — or [`OPEN`].
///
/// A record at or above a full entry's `K`-th RTT is one `insert` rejects,
/// so a bound that refuses is always right, and one that admits sends the
/// record to `insert`, which decides. Unlike the holder index the bounds are
/// exact, since every change to an entry passes through `Group`, which
/// refreshes that entry's bound: a join the entries it inserted into, a
/// leave the one it refilled. They are built from the tables by the first
/// join that needs them — `Group::bootstrap` and a group that only ever
/// loses members never pay — and a copy of a group starts without them.
#[derive(Debug, Default)]
struct Bounds {
    /// `B`.
    base: usize,
    /// `D · B`, and 0 while the bounds are not built.
    width: usize,
    /// Table slots that `cells` has room for: [`Bounds::room`] for the
    /// slots it was built or last grown for.
    stride: usize,
    /// Entry by entry, every slot's bound: that of `(row, col)` in `slot`
    /// is at `(row · B + col) · stride + slot`. A join looks up entry
    /// `(c, joiner[c])` in every owner's table, and `c = 0` for all but
    /// about `1/B` of them, so most of its lookups fall in one run of
    /// `4 · stride` bytes rather than one cache line per owner. A free
    /// slot's bounds are stale.
    cells: Vec<u32>,
}

impl Clone for Bounds {
    /// A copy of a group — a journal checkpoint, a replica — starts without
    /// bounds and builds its own when a join needs them.
    fn clone(&self) -> Bounds {
        Bounds::default()
    }
}

impl Bounds {
    fn is_built(&self) -> bool {
        self.width != 0
    }

    /// The bound of `entry`, in a table of per-entry capacity `k`.
    fn of(entry: TableEntry<'_>, k: usize) -> u32 {
        entry
            .iter()
            .nth(k - 1)
            .map_or(OPEN, |r| u32::try_from(r.rtt).unwrap_or(OPEN))
    }

    /// The slots to make room for when `slots` are in use: a sixteenth
    /// more, so that joins that run ahead of their interval's leaves (as
    /// `UdpGroupDriver`'s do) find room, and growing the array, which
    /// copies it, happens once per many joins.
    fn room(slots: usize) -> usize {
        slots + slots / 16 + 8
    }

    /// Builds the bounds of every table slot's table.
    fn build(&mut self, spec: &IdSpec, tables: &[Arc<NeighborTable>], k: usize) {
        self.base = usize::from(spec.base());
        self.width = spec.depth() * self.base;
        self.stride = Bounds::room(tables.len());
        self.cells = vec![OPEN; self.stride * self.width];
        for (slot, table) in tables.iter().enumerate() {
            for row in 0..spec.depth() {
                for (col, entry) in table.entries_in_row(row) {
                    self.refresh(slot as u32, row, col, entry, k);
                }
            }
        }
    }

    fn cell(&self, slot: u32, row: usize, col: u16) -> usize {
        (row * self.base + usize::from(col)) * self.stride + slot as usize
    }

    /// Gives `slot` the bounds of an empty table.
    fn open(&mut self, slot: u32) {
        let slot = slot as usize;
        if slot == self.stride {
            let stride = Bounds::room(self.stride);
            let mut cells = vec![OPEN; stride * self.width];
            for e in 0..self.width {
                let from = &self.cells[e * self.stride..][..self.stride];
                cells[e * stride..][..self.stride].copy_from_slice(from);
            }
            (self.cells, self.stride) = (cells, stride);
        }
        for e in 0..self.width {
            self.cells[e * self.stride + slot] = OPEN;
        }
    }

    /// `true` if a record `rtt` away from the owner of the table in `slot`
    /// may enter its `(row, col)` entry.
    fn admits(&self, slot: u32, row: usize, col: u16, rtt: Micros) -> bool {
        // `OPEN − 1` is below `OPEN` and at or above every other bound.
        rtt.min(Micros::from(OPEN - 1)) < Micros::from(self.cells[self.cell(slot, row, col)])
    }

    /// Records that the `(row, col)` entry of the table in `slot` is now
    /// `entry`.
    fn refresh(&mut self, slot: u32, row: usize, col: u16, entry: TableEntry<'_>, k: usize) {
        let at = self.cell(slot, row, col);
        self.cells[at] = Bounds::of(entry, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rekey_net::{MatrixNetwork, PlanetLabParams};

    fn setup(n: usize, seed: u64) -> (Group, MatrixNetwork) {
        let spec = IdSpec::new(3, 4).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let mut group = Group::new(
            &spec,
            HostId(net.host_count() - 1),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(3),
        );
        for h in 0..n {
            group.join(HostId(h), &net, h as u64).unwrap();
        }
        (group, net)
    }

    #[test]
    fn first_join_gets_all_zero_id() {
        let (group, _) = setup(1, 1);
        assert_eq!(group.members()[0].id.digits(), &[0, 0, 0]);
    }

    #[test]
    fn joins_yield_unique_ids_and_consistent_tables() {
        let (group, _) = setup(14, 2);
        assert_eq!(group.len(), 14);
        let mut ids: Vec<_> = group.members().iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 14, "IDs must be unique");
        group.check().expect("K-consistent after joins");
    }

    #[test]
    fn leaves_repair_tables() {
        let (mut group, net) = setup(14, 3);
        let victims: Vec<UserId> = group.members().iter().step_by(3).map(|m| m.id).collect();
        for v in &victims {
            group.leave(v, &net).unwrap();
            group.check().expect("K-consistent after each leave");
        }
        assert_eq!(group.len(), 14 - victims.len());
        let missing = victims[0];
        assert_eq!(
            group.leave(&missing, &net),
            Err(GroupError::NotMember(missing))
        );
    }

    #[test]
    fn colocated_hosts_share_subtrees() {
        // Two hosts on the same site should end up sharing a long prefix
        // when thresholds allow.
        let spec = IdSpec::new(3, 4).unwrap();
        let rtt = vec![
            vec![0, 1, 500_000, 500_000],
            vec![1, 0, 500_000, 500_000],
            vec![500_000, 500_000, 0, 1],
            vec![500_000, 500_000, 1, 0],
        ];
        let net = MatrixNetwork::from_matrix(rtt, vec![0; 4]);
        let mut group = Group::new(
            &spec,
            HostId(3),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams {
                p: 10,
                f_percentile: 80,
                thresholds: vec![150_000, 30_000],
            },
        );
        group.join(HostId(0), &net, 0).unwrap();
        group.join(HostId(2), &net, 1).unwrap();
        group.join(HostId(1), &net, 2).unwrap();
        let id0 = &group.members()[0].id;
        let id1 = &group.member(&group.members()[2].id.clone()).unwrap().id;
        let id2 = &group.members()[1].id;
        // Host 1 is 1 µs from host 0 → same level-2 subtree (2 shared digits).
        assert_eq!(id0.common_prefix_len(id1), 2, "{id0} vs {id1}");
        // Host 2 is 500 ms away → different level-1 subtree.
        assert_eq!(id0.common_prefix_len(id2), 0, "{id0} vs {id2}");
    }

    #[test]
    fn bootstrap_matches_incremental_invariants() {
        let spec = IdSpec::new(3, 4).unwrap();
        let net = rekey_net::GridNetwork::new(40, 1_000, 100);
        let hosts: Vec<HostId> = (0..39).map(HostId).collect();
        let group = Group::bootstrap(
            &spec,
            HostId(39),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(3),
            &hosts,
            &net,
        )
        .unwrap();
        assert_eq!(group.len(), 39);
        group.check().expect("bootstrap tables are K-consistent");
        // IDs are dealt least-significant digit first: consecutive indices
        // land in distinct level-1 subtrees.
        assert_eq!(group.members()[0].id.digits(), &[0, 0, 0]);
        assert_eq!(group.members()[1].id.digits(), &[1, 0, 0]);
        assert_eq!(group.members()[4].id.digits(), &[0, 1, 0]);
        // Unique IDs, index agrees, server table covers every level-1 digit
        // that has members.
        let mut ids: Vec<_> = group.members().iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 39);
        for (i, m) in group.members().iter().enumerate() {
            assert_eq!(group.index_of(&m.id), Some(i));
        }
        assert_eq!(group.id_tree().user_count(), 39);
        // Churn after bootstrap goes through the incremental paths.
        let mut group = group;
        let victim = group.members()[7].id;
        group.leave(&victim, &net).unwrap();
        group
            .check()
            .expect("K-consistent after post-bootstrap leave");
        group.join(HostId(39), &net, 1).unwrap();
        group
            .check()
            .expect("K-consistent after post-bootstrap join");
    }

    #[test]
    fn bootstrap_rejects_overfull_id_space() {
        let spec = IdSpec::new(2, 2).unwrap(); // 4 IDs
        let net = rekey_net::GridNetwork::new(6, 1_000, 100);
        let hosts: Vec<HostId> = (0..5).map(HostId).collect();
        let err = Group::bootstrap(
            &spec,
            HostId(5),
            1,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(2),
            &hosts,
            &net,
        )
        .unwrap_err();
        assert_eq!(err, GroupError::IdSpaceFull);
    }

    #[test]
    fn tmesh_snapshot_multicasts_exactly_once() {
        let (group, net) = setup(12, 4);
        let mesh = group.tmesh();
        let outcome = mesh.multicast(&net, rekey_tmesh::Source::Server);
        assert!(outcome.exactly_once().is_ok());
    }

    /// Tables are shared: while a copy of the group holds every table, a
    /// join or a leave copies exactly the tables it changes. The join of a
    /// far host under the first-dealt member's level-1 prefix takes that
    /// member's place in some tables, so its leave, which visits every
    /// table, finds tables that no longer list it and must leave them be.
    #[test]
    fn a_join_or_leave_copies_exactly_the_tables_it_changes() {
        let spec = IdSpec::new(3, 4).unwrap();
        let net = rekey_net::GridNetwork::new(48, 1_000, 100);
        let hosts: Vec<HostId> = (0..40).map(HostId).collect();
        let (k, policy, assign) = (1, PrimaryPolicy::SmallestRtt, AssignParams::for_depth(3));
        let mut group = Group::bootstrap(&spec, HostId(47), k, policy, assign, &hosts, &net)
            .expect("fits the ID space");
        let mesh = group.tmesh();
        for i in 0..group.len() {
            assert!(std::ptr::eq(mesh.table(i), &**group.table(i)));
        }
        let (first, late) = (group.members()[0].id, group.members()[30].id);
        let joiner = UserId::new(&spec, vec![0, 3, 3]).unwrap();
        for step in 0..3 {
            let before = group.clone();
            match step {
                0 => group.join_with_id(joiner, HostId(40), &net, 1),
                1 => drop(group.leave(&first, &net).unwrap()),
                _ => drop(group.leave(&late, &net).unwrap()),
            }
            assert!(
                !group.changed_tables().is_empty(),
                "step {step} changed nothing"
            );
            for (i, m) in group.members().iter().enumerate() {
                let Some(was) = before.index_of(&m.id) else {
                    continue; // the joiner
                };
                let copied = !Arc::ptr_eq(group.table(i), before.table(was));
                let changed = group.changed_tables().contains(&i);
                assert_eq!(copied, changed, "step {step}: table of member {i}");
            }
        }
        group.check().expect("K-consistent");
    }

    #[test]
    fn join_stats_track_messages() {
        let (mut group, net) = setup(10, 5);
        let out = group.join(HostId(12), &net, 99).unwrap();
        assert!(out.stats.queries > 0);
        assert!(out.stats.probes > 0);
    }
}

#[cfg(test)]
impl Group {
    /// Holder cells stored since the index was last built (0 while unbuilt).
    fn holder_cells(&self) -> usize {
        self.holders.cells
    }

    /// Panics unless every occupied slot's admission bounds, if built, are
    /// the ones recomputed from its table.
    fn assert_bounds_exact(&self, at: &str) {
        if !self.bounds.is_built() {
            return;
        }
        let (depth, base) = (self.spec.depth(), self.spec.base());
        let mut cached = Vec::with_capacity(self.bounds.width);
        let mut expected = vec![OPEN; self.bounds.width];
        for &slot in &self.slots {
            cached.clear();
            cached.extend((0..depth).flat_map(|row| {
                (0..base).map(move |col| self.bounds.cells[self.bounds.cell(slot, row, col)])
            }));
            expected.fill(OPEN);
            for row in 0..depth {
                for (col, entry) in self.tables[slot as usize].entries_in_row(row) {
                    expected[row * usize::from(base) + usize::from(col)] =
                        Bounds::of(entry, self.k);
                }
            }
            assert_eq!(cached, expected, "{at}: admission bounds of slot {slot}");
        }
    }
}

/// `Group` against the group it replaced: tables in join order, a join
/// that builds the joiner's table from the whole roster and offers the
/// joiner to every table, a leave that calls `remove` on every table, and
/// §3.1 probing over nested `BTreeMap`s. Every table, version,
/// changed-table list and join outcome must come out the same after every
/// operation.
#[cfg(test)]
mod equivalence {
    use std::collections::{BTreeMap, BTreeSet};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rekey_id::IdPrefix;
    use rekey_net::{GridNetwork, MatrixNetwork, PlanetLabParams};
    use rekey_tmesh::metrics::quantile;

    use super::*;
    use crate::assign::Probe;

    /// The full-scan reference.
    struct Reference {
        spec: IdSpec,
        k: usize,
        policy: PrimaryPolicy,
        assign: AssignParams,
        server_host: HostId,
        members: Vec<Member>,
        tables: Vec<NeighborTable>,
        server_table: ServerTable,
        id_tree: IdTree,
        index: HashMap<UserId, usize>,
        mutations: u64,
        versions: Vec<u64>,
        changed: Vec<usize>,
    }

    impl Reference {
        /// The reference of `group`'s current state.
        fn of(group: &Group) -> Reference {
            Reference {
                spec: group.spec,
                k: group.k,
                policy: group.policy,
                assign: group.assign.clone(),
                server_host: group.server_host,
                members: group.members.clone(),
                tables: group.join_order().cloned().collect(),
                server_table: ServerTable::clone(&group.server_table),
                id_tree: group.id_tree.clone(),
                index: (group.members.iter().enumerate())
                    .map(|(i, m)| (m.id, i))
                    .collect(),
                mutations: group.mutations,
                versions: (0..group.len()).map(|i| group.table_version(i)).collect(),
                changed: group.changed.clone(),
            }
        }

        fn join(
            &mut self,
            host: HostId,
            net: &impl Network,
            now: Micros,
        ) -> Result<JoinOutcome, GroupError> {
            let (id, stats) = if self.members.is_empty() {
                (UserId::from_index(&self.spec, 0), AssignStats::default())
            } else {
                let seed = host.0 % self.members.len();
                let (digits, stats) = self.probe_digits(host, seed, net);
                let id = server_complete(&self.spec, &self.id_tree, &digits)
                    .ok_or(GroupError::IdSpaceFull)?;
                (id, stats)
            };
            self.insert_member(
                Member {
                    id,
                    host,
                    joined_at: now,
                },
                net,
            );
            Ok(JoinOutcome { id, stats })
        }

        fn query<'a>(
            &'a self,
            idx: usize,
            target: &'a IdPrefix,
        ) -> impl Iterator<Item = Member> + 'a {
            let own = self.members[idx];
            self.tables[idx]
                .iter_all()
                .map(|r| r.member)
                .chain(std::iter::once(own))
                .filter(move |m| target.is_prefix_of_id(&m.id))
        }

        fn probe_digits(
            &self,
            joiner: HostId,
            seed: usize,
            net: &impl Network,
        ) -> (Vec<u16>, AssignStats) {
            let params = &self.assign;
            let mut stats = AssignStats::default();
            let mut digits: Vec<u16> = Vec::new();
            let mut seeds: Vec<UserId> = vec![self.members[seed].id];
            let mut rtts: Vec<Micros> = Vec::with_capacity(params.p);
            for i in 0..self.spec.depth().saturating_sub(1) {
                let prefix = IdPrefix::from_digits(&self.spec, &digits).unwrap();
                let mut collected: BTreeMap<u16, BTreeMap<UserId, Member>> = BTreeMap::new();
                let mut queried: BTreeSet<UserId> = BTreeSet::new();
                let insert = |collected: &mut BTreeMap<u16, BTreeMap<UserId, Member>>,
                              m: Member| {
                    collected.entry(m.id.digit(i)).or_default().insert(m.id, m);
                };
                for s in &seeds {
                    let idx = self.index[s];
                    insert(&mut collected, self.members[idx]);
                    if queried.insert(*s) {
                        stats.queries += 1;
                        for m in self.query(idx, &prefix) {
                            insert(&mut collected, m);
                        }
                    }
                }
                for j in 0..self.spec.base() {
                    let target = prefix.child(j);
                    while let Some(bucket) = collected.get(&j) {
                        if bucket.len() >= params.p {
                            break;
                        }
                        let Some(next) = bucket.keys().find(|id| !queried.contains(*id)).cloned()
                        else {
                            break;
                        };
                        queried.insert(next);
                        stats.queries += 1;
                        for m in self.query(self.index[&next], &target) {
                            insert(&mut collected, m);
                        }
                    }
                }
                let mut best: Option<(Micros, u16)> = None;
                for (&j, bucket) in &collected {
                    rtts.clear();
                    rtts.extend(bucket.values().take(params.p).map(|m| {
                        stats.probes += 1;
                        net.gateway_rtt(joiner, m.host)
                    }));
                    if rtts.is_empty() {
                        continue;
                    }
                    rtts.sort_unstable();
                    let f = quantile(&rtts, f64::from(params.f_percentile) / 100.0);
                    if best.is_none_or(|(bf, bj)| (f, j) < (bf, bj)) {
                        best = Some((f, j));
                    }
                }
                let threshold = params.thresholds.get(i).copied().unwrap_or(0);
                match best {
                    Some((f, b)) if f <= threshold => {
                        digits.push(b);
                        stats.digits_probed += 1;
                        seeds = collected.remove(&b).unwrap().into_keys().collect();
                    }
                    _ => break,
                }
            }
            (digits, stats)
        }

        fn join_with_id(&mut self, id: UserId, host: HostId, net: &impl Network, now: Micros) {
            assert!(!self.index.contains_key(&id));
            self.insert_member(
                Member {
                    id,
                    host,
                    joined_at: now,
                },
                net,
            );
        }

        fn insert_member(&mut self, member: Member, net: &impl Network) {
            let table = rekey_table::oracle::build_table(
                &self.spec,
                &member,
                &self.members,
                net,
                self.k,
                self.policy,
            );
            self.mutations += 1;
            self.changed.clear();
            for (i, existing) in self.members.iter().enumerate() {
                let rtt = net.rtt(existing.host, member.host);
                if self.tables[i].insert(NeighborRecord { member, rtt }) {
                    self.versions[i] = self.mutations;
                    self.changed.push(i);
                }
            }
            self.server_table.insert(NeighborRecord {
                member,
                rtt: net.rtt(self.server_host, member.host),
            });
            self.id_tree.insert(&member.id);
            self.index.insert(member.id, self.members.len());
            self.members.push(member);
            self.tables.push(table);
            self.versions.push(self.mutations);
        }

        fn leave(&mut self, id: &UserId, net: &impl Network) -> Result<Member, GroupError> {
            let idx = self.index.remove(id).ok_or(GroupError::NotMember(*id))?;
            let departed = self.members.remove(idx);
            self.tables.remove(idx);
            self.versions.remove(idx);
            self.mutations += 1;
            self.changed.clear();
            for at in self.index.values_mut() {
                if *at > idx {
                    *at -= 1;
                }
            }
            self.id_tree.remove(id);
            self.server_table.remove(id);
            let level1: Vec<Member> = self
                .id_tree
                .users_in_subtree(&id.prefix(1))
                .map(|u| self.members[self.index[&u]])
                .collect();
            let runs: Vec<Range<usize>> = (1..=self.spec.depth())
                .map(|len| {
                    let root = id.prefix(len);
                    let start = level1.partition_point(|m| root.subtree_cmp(m.id.digits()).is_lt());
                    let len = level1[start..].partition_point(|m| root.is_prefix_of_id(&m.id));
                    start..start + len
                })
                .collect();
            let k = self.k;
            for (i, (owner, table)) in self.members.iter().zip(&mut self.tables).enumerate() {
                if !table.remove(id) {
                    continue;
                }
                self.versions[i] = self.mutations;
                self.changed.push(i);
                let (row, col) = table.slot_for(id).unwrap();
                let mut worst = None;
                for cand in &level1[runs[row].clone()] {
                    let rtt = net.rtt(owner.host, cand.host);
                    if worst.is_some_and(|w| rtt >= w) {
                        continue;
                    }
                    table.insert(NeighborRecord { member: *cand, rtt });
                    worst = table.entry(row, col).iter().nth(k - 1).map(|r| r.rtt);
                }
            }
            for member in level1 {
                let rtt = net.rtt(self.server_host, member.host);
                self.server_table.insert(NeighborRecord { member, rtt });
            }
            Ok(departed)
        }

        fn check(&self) -> Result<(), ConsistencyViolation> {
            check_consistency(&self.spec, &self.members, &self.tables, self.k)
        }
    }

    /// Everything a caller or `RtServer` can read off a group, record for
    /// record, plus the bound on the holder index's storage and the
    /// exactness of the admission bounds; with `check`, also `check()`
    /// (equal tables make it equal; it is by far the slowest part).
    fn assert_same(group: &Group, reference: &Reference, at: &str, check: bool) {
        group.assert_bounds_exact(at);
        assert_eq!(group.members(), &reference.members[..], "{at}: roster");
        assert_eq!(group.mutations(), reference.mutations, "{at}: mutations");
        assert_eq!(
            group.changed_tables(),
            &reference.changed[..],
            "{at}: changed tables"
        );
        for (i, m) in reference.members.iter().enumerate() {
            assert_eq!(group.index_of(&m.id), Some(i), "{at}: index of {}", m.id);
            assert_eq!(
                group.table(i).iter_all().as_slice(),
                reference.tables[i].iter_all().as_slice(),
                "{at}: table of member {i}"
            );
            assert_eq!(
                group.table_version(i),
                reference.versions[i],
                "{at}: version of table {i}"
            );
        }
        for j in 0..reference.spec.base() {
            assert_eq!(
                group.server_table().entry(j),
                reference.server_table.entry(j),
                "{at}: server entry {j}"
            );
        }
        if check {
            assert_eq!(group.check(), reference.check(), "{at}: check()");
        }
        let records: usize = group.join_order().map(NeighborTable::neighbor_count).sum();
        assert!(
            group.holder_cells() <= 2 * records,
            "{at}: {} holder cells for {records} records",
            group.holder_cells()
        );
    }

    /// `ops` random leaves, joins and `join_with_id`s on `group` and on its
    /// reference, compared after every one (`check()` after every
    /// `check_every`th and the last). Operation 0 is the leave of member 0,
    /// operation 1 that of the last member in join order (the last dealt,
    /// in a dealt group). Halfway a clone of the group (as a journal
    /// checkpoint takes one) starts receiving the same operations.
    fn churn(mut group: Group, net: &impl Network, ops: usize, check_every: usize, seed: u64) {
        let mut reference = Reference::of(&group);
        let mut rng = StdRng::seed_from_u64(seed);
        let server = group.server_host.0;
        let hosts = net.host_count();
        let mut next_host = group.len();
        let last = group.members().last().unwrap().id;
        let mut twin: Option<Group> = None;
        for op in 0..ops {
            if op == ops / 2 {
                twin = Some(group.clone());
            }
            let draw = rng.gen_range(0..20);
            let at = format!("seed {seed} K={} op {op}", group.k());
            if op < 2 || (draw < 9 && group.len() > 8) {
                let victim = match op {
                    0 => group.members()[0].id,
                    1 => last,
                    _ => group.members()[rng.gen_range(0..group.len())].id,
                };
                let gone = reference.leave(&victim, net);
                assert_eq!(group.leave(&victim, net), gone, "{at}: leave");
                if let Some(twin) = &mut twin {
                    assert_eq!(twin.leave(&victim, net), gone, "{at}: twin leave");
                }
            } else {
                let host = HostId(next_host % hosts);
                next_host += if (next_host + 1) % hosts == server {
                    2
                } else {
                    1
                };
                let now = 1_000 + op as Micros;
                if draw < 16 {
                    let joined = reference.join(host, net, now);
                    assert_eq!(group.join(host, net, now), joined, "{at}: join");
                    if let Some(twin) = &mut twin {
                        assert_eq!(twin.join(host, net, now), joined, "{at}: twin join");
                    }
                } else {
                    let spec = *group.spec();
                    let id = loop {
                        let id = UserId::from_index(&spec, rng.gen_range(0..spec.id_space()));
                        if group.member(&id).is_none() {
                            break id;
                        }
                    };
                    reference.join_with_id(id, host, net, now);
                    group.join_with_id(id, host, net, now);
                    if let Some(twin) = &mut twin {
                        twin.join_with_id(id, host, net, now);
                    }
                }
            }
            let check = op % check_every == 0 || op + 1 == ops;
            assert_same(&group, &reference, &at, check);
            if let Some(twin) = &twin {
                assert_same(twin, &reference, &format!("{at} (clone)"), check);
            }
        }
    }

    fn dealt(members: usize, k: usize) -> (Group, GridNetwork) {
        let spec = IdSpec::new(4, 16).unwrap();
        let net = GridNetwork::new(members + 1_200, 1_000, 100);
        let hosts: Vec<HostId> = (0..members).map(HostId).collect();
        let group = Group::bootstrap(
            &spec,
            HostId(net.host_count() - 1),
            k,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(spec.depth()),
            &hosts,
            &net,
        )
        .unwrap();
        (group, net)
    }

    #[test]
    fn a_dealt_group_matches_the_full_scan_reference() {
        for (k, seed) in [(1, 11), (2, 12), (4, 14)] {
            let (group, net) = dealt(1_024, k);
            churn(group, &net, 700, 100, seed);
        }
    }

    /// 310 hosts on a synthetic PlanetLab matrix, for groups of (4, 8) IDs.
    fn planetlab() -> (MatrixNetwork, IdSpec) {
        let params = PlanetLabParams {
            continent_hosts: vec![120, 90, 60, 40],
            ..PlanetLabParams::default()
        };
        let net = MatrixNetwork::synthetic_planetlab(&params, &mut StdRng::seed_from_u64(5));
        (net, IdSpec::new(4, 8).unwrap())
    }

    #[test]
    fn a_joined_group_matches_the_full_scan_reference() {
        let (net, spec) = planetlab();
        for (k, seed) in [(1, 21), (2, 22), (4, 24)] {
            let server = HostId(net.host_count() - 1);
            let policy = PrimaryPolicy::SmallestRtt;
            let assign = AssignParams::for_depth(spec.depth());
            let mut group = Group::new(&spec, server, k, policy, assign);
            let mut reference = Reference::of(&group);
            for h in 0..300 {
                let at = format!("K={k} founding join {h}");
                let joined = reference.join(HostId(h), &net, h as Micros);
                assert_eq!(group.join(HostId(h), &net, h as Micros), joined, "{at}");
                assert_same(&group, &reference, &at, h % 100 == 99);
            }
            churn(group, &net, 700, 100, seed);
        }
    }

    /// RTTs around and beyond `u32::MAX` µs, where an admission bound
    /// saturates to "visit" and `insert` alone decides, with ties on both
    /// sides of the saturation point.
    #[test]
    fn rtts_beyond_a_bound_match_the_full_scan_reference() {
        const HOSTS: usize = 60;
        let max = Micros::from(u32::MAX);
        let rtts = [
            1_000,
            2_000,
            2_000,
            3_000,
            max - 1,
            max,
            max,
            max + 1,
            1 << 33,
        ];
        let rtt = |a: usize, b: usize| match (a.min(b), a.max(b)) {
            (lo, hi) if lo == hi => 0,
            (lo, hi) => rtts[(lo * 7 + hi * 13) % rtts.len()],
        };
        let matrix = (0..HOSTS)
            .map(|a| (0..HOSTS).map(|b| rtt(a, b)).collect())
            .collect();
        let net = MatrixNetwork::from_matrix(matrix, vec![0; HOSTS]);
        let spec = IdSpec::new(3, 8).unwrap();
        for (k, seed) in [(1, 31), (2, 32), (3, 33)] {
            let server = HostId(HOSTS - 1);
            let policy = PrimaryPolicy::SmallestRtt;
            let assign = AssignParams::for_depth(spec.depth());
            let mut group = Group::new(&spec, server, k, policy, assign);
            let mut reference = Reference::of(&group);
            for h in 0..40 {
                let at = format!("K={k} founding join {h}");
                let joined = reference.join(HostId(h), &net, h as Micros);
                assert_eq!(group.join(HostId(h), &net, h as Micros), joined, "{at}");
                assert_same(&group, &reference, &at, h % 10 == 9);
            }
            let saturated = (0..group.len())
                .flat_map(|i| (0..spec.depth()).map(move |row| (i, row)))
                .flat_map(|(i, row)| group.table(i).entries_in_row(row).map(|(_, e)| e))
                .filter(|e| e.iter().nth(k - 1).is_some_and(|r| r.rtt >= max))
                .count();
            assert!(saturated > 0, "K={k}: no full entry has a saturated bound");
            churn(group, &net, 300, 30, seed);
        }
    }

    /// A network that records every gateway-RTT probe, in order.
    struct Recording<'n, N> {
        net: &'n N,
        probes: std::cell::RefCell<Vec<(HostId, Micros)>>,
    }

    impl<'n, N: Network> Recording<'n, N> {
        fn new(net: &'n N) -> Self {
            Recording {
                net,
                probes: Default::default(),
            }
        }
    }

    impl<N: Network> Network for Recording<'_, N> {
        fn host_count(&self) -> usize {
            self.net.host_count()
        }

        fn rtt(&self, a: HostId, b: HostId) -> Micros {
            self.net.rtt(a, b)
        }

        fn gateway_rtt(&self, a: HostId, b: HostId) -> Micros {
            let rtt = self.net.gateway_rtt(a, b);
            self.probes.borrow_mut().push((b, rtt));
            rtt
        }
    }

    /// How many probes took each of the probe's rare branches.
    #[derive(Debug, Default)]
    struct Branches {
        /// Buckets left below `P` once refinement ran out of unqueried
        /// members.
        short_buckets: usize,
        /// Digits at which two buckets tied on the smallest F-percentile.
        ties: usize,
        /// Probes that determined all `D − 1` digits.
        full_depth: usize,
    }

    /// Runs `probe_digits` and the reference's probe for every host that is
    /// neither a member of the frozen `group` nor its server, and asserts
    /// that both return the same digits and statistics and probe the same
    /// hosts in the same order. Adds the branches each probe took to `hit`.
    ///
    /// The probe sequence shows the branches: a digit's buckets are probed
    /// in ascending `j`, each its first `P` members in ID order, so the
    /// probed IDs ascend until the next digit starts over at or below the
    /// chosen bucket's first member.
    fn probe_every_outsider(group: &Group, net: &impl Network, hit: &mut Branches) {
        let reference = Reference::of(group);
        let ids: HashMap<HostId, UserId> = group.members.iter().map(|m| (m.host, m.id)).collect();
        assert_eq!(ids.len(), group.len(), "one member per host");
        let (index, tables) = (&group.index, &group.tables);
        let lookup = |id: &UserId| &*tables[index[id] as usize];
        let (p, f) = (group.assign.p, group.assign.f_percentile);
        let depth = group.spec.depth();
        for joiner in (0..net.host_count()).map(HostId) {
            if ids.contains_key(&joiner) || joiner == group.server_host {
                continue;
            }
            let seed = joiner.0 % group.len();
            let (ours, theirs) = (Recording::new(net), Recording::new(net));
            let (digits, stats) =
                probe_digits(lookup, &group.assign, joiner, group.members[seed], &ours);
            let got = (digits.digits().to_vec(), stats);
            assert_eq!(
                got,
                reference.probe_digits(joiner, seed, &theirs),
                "{joiner}"
            );
            let probes = ours.probes.into_inner();
            assert_eq!(probes, theirs.probes.into_inner(), "{joiner}: probes");

            let mut levels: Vec<Vec<(UserId, Micros)>> = Vec::new();
            for (host, rtt) in probes {
                let id = ids[&host];
                match levels.last_mut() {
                    Some(level) if level.last().is_some_and(|(last, _)| *last < id) => {
                        level.push((id, rtt))
                    }
                    _ => levels.push(vec![(id, rtt)]),
                }
            }
            let (digits, stats) = got;
            assert_eq!(levels.len(), (digits.len() + 1).min(depth - 1), "{joiner}");
            for (i, level) in levels.iter().enumerate() {
                let buckets = level.chunk_by(|a, b| a.0.digit(i) == b.0.digit(i));
                let mut fs: Vec<Micros> = buckets
                    .map(|bucket| {
                        hit.short_buckets += usize::from(bucket.len() < p);
                        let mut rtts: Vec<Micros> = bucket.iter().map(|&(_, rtt)| rtt).collect();
                        rtts.sort_unstable();
                        quantile(&rtts, f64::from(f) / 100.0)
                    })
                    .collect();
                fs.sort_unstable();
                hit.ties += usize::from(fs.len() > 1 && fs[0] == fs[1]);
            }
            hit.full_depth += usize::from(stats.digits_probed == depth - 1);
        }
    }

    /// §3.1 probing from every host outside a frozen group — a dealt
    /// 1 024-member (4, 16) group on a grid, and the joined PlanetLab groups
    /// of `a_joined_group_matches_the_full_scan_reference` — matches the
    /// reference probe, and between them the groups take every rare branch
    /// of the probe. (The grid, whose RTTs are affine in grid distance,
    /// takes all three; the PlanetLab groups only leave buckets short.)
    #[test]
    fn every_outsider_probes_like_the_reference() {
        let mut hit = Branches::default();
        let (group, net) = dealt(1_024, 2);
        probe_every_outsider(&group, &net, &mut hit);
        let (net, spec) = planetlab();
        for k in [1, 2, 4] {
            let server = HostId(net.host_count() - 1);
            let assign = AssignParams::for_depth(spec.depth());
            let mut group = Group::new(&spec, server, k, PrimaryPolicy::SmallestRtt, assign);
            for h in 0..300 {
                group.join(HostId(h), &net, h as Micros).unwrap();
            }
            probe_every_outsider(&group, &net, &mut hit);
        }
        assert!(hit.short_buckets > 0, "{hit:?}");
        assert!(hit.ties > 0, "{hit:?}");
        assert!(hit.full_depth > 0, "{hit:?}");
    }

    /// The probe of every host outside the frozen `group`, driven as the
    /// message-level join may see it: each batch of queries the probe asks
    /// for is answered last query first, from the queried member's table.
    /// Returns how many hosts were probed.
    fn probe_every_outsider_last_first(group: &Group, net: &impl Network) -> usize {
        let (index, tables) = (&group.index, &group.tables);
        let lookup = |id: &UserId| &*tables[index[id] as usize];
        let params = &group.assign;
        let hosts = group.members.iter().map(|m| m.host);
        let members: HashSet<HostId> = hosts.chain([group.server_host]).collect();
        let mut batch = Vec::new();
        let mut outsiders = 0;
        for joiner in (0..net.host_count()).map(HostId) {
            if members.contains(&joiner) {
                continue;
            }
            let seed = group.members[joiner.0 % group.len()];
            let mut probe = Probe::new(seed);
            let got = loop {
                loop {
                    batch.extend(std::iter::from_fn(|| probe.next_query(params)));
                    if batch.is_empty() {
                        break;
                    }
                    while let Some((user, target)) = batch.pop() {
                        let records: Vec<NeighborRecord> = (lookup(&user.id).iter_all())
                            .filter(|r| target.is_prefix_of_id(&r.member.id))
                            .copied()
                            .collect();
                        probe.answer(&target, &records);
                    }
                }
                if !probe.decide(params, |m| net.gateway_rtt(joiner, m.host)) {
                    break probe.finish();
                }
            };
            let want = probe_digits(lookup, params, joiner, seed, net);
            assert_eq!(got, want, "{joiner}");
            outsiders += 1;
        }
        outsiders
    }

    /// The order in which answers arrive does not change the probe: every
    /// outsider of the dealt 1 024-member group and of a joined PlanetLab
    /// group gets the digits and statistics of `probe_digits` when each
    /// batch of queries is answered last first.
    #[test]
    fn reply_order_does_not_change_the_probe() {
        let (group, net) = dealt(1_024, 2);
        let mut outsiders = probe_every_outsider_last_first(&group, &net);
        let (net, spec) = planetlab();
        let server = HostId(net.host_count() - 1);
        let assign = AssignParams::for_depth(spec.depth());
        let mut group = Group::new(&spec, server, 2, PrimaryPolicy::SmallestRtt, assign);
        for h in 0..300 {
            group.join(HostId(h), &net, h as Micros).unwrap();
        }
        outsiders += probe_every_outsider_last_first(&group, &net);
        assert_eq!(outsiders, 1_208);
    }

    /// The benchmark's `sync_churn` shape; `scripts/ci.sh` runs it.
    #[test]
    #[ignore = "4 096 members: run in release"]
    fn a_4096_member_dealt_group_matches_the_full_scan_reference() {
        let (group, net) = dealt(4_096, 2);
        churn(group, &net, 2_000, 20, 42);
    }
}
