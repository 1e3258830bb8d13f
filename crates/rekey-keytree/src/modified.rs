//! The modified key tree (§2.4): fixed height `D`, structure matching the
//! ID tree exactly, growing horizontally as users join.
//!
//! Storage is an arena: nodes live in struct-of-arrays slot vectors
//! addressed by integer slot indices, with parent/child links as slot
//! indices and a free list recycling pruned slots. Looking a node up by
//! ID walks at most `D` child tables instead of comparing full
//! `IdPrefix` keys through a `BTreeMap`, and every per-encryption
//! bookkeeping step is O(1) — the regime the Wong–Gouda–Lam batch cost
//! model assumes. The old map-keyed implementation is retained in test
//! code as the `ReferenceKeyTree` oracle, and the two are churned in
//! lockstep by property tests.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;

use rand::Rng;
use rekey_crypto::{Key, KeyMaterial, NonceSeq};
use rekey_id::{IdPrefix, IdSpec, UserId};

use crate::batch::{RekeyArena, RekeyBatch, SealJob};

/// Errors produced by key-tree batch operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyTreeError {
    /// A join request named a user that is already in the tree.
    AlreadyMember(UserId),
    /// A leave request named a user that is not in the tree.
    NotMember(UserId),
    /// The same user appears twice in one batch.
    DuplicateRequest(UserId),
}

impl fmt::Display for KeyTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyTreeError::AlreadyMember(u) => write!(f, "user {u} is already a member"),
            KeyTreeError::NotMember(u) => write!(f, "user {u} is not a member"),
            KeyTreeError::DuplicateRequest(u) => write!(f, "user {u} appears twice in the batch"),
        }
    }
}

impl std::error::Error for KeyTreeError {}

/// Seal jobs below this count are not worth spawning worker threads for:
/// at ~1 µs per ChaCha20+SipHash key wrap, a thousand wraps barely cover
/// the cost of a thread spawn.
const PAR_THRESHOLD: usize = 1024;

const NIL: u32 = u32::MAX;

/// A key for a node being (re)created: version 0 for a first-time ID, or
/// one past the retired version when a node with this ID was pruned
/// before, so a `(node ID, version)` pair is never reused across
/// incarnations. A retired-version resume bumps `tombstone_hits`.
fn fresh_key<R: Rng + ?Sized>(
    retired: &BTreeMap<IdPrefix, u64>,
    id: IdPrefix,
    rng: &mut R,
    tombstone_hits: &mut u64,
) -> Key {
    match retired.get(&id) {
        Some(&v) => {
            *tombstone_hits += 1;
            Key::new(id, v + 1, KeyMaterial::random(rng))
        }
        None => Key::random(id, rng),
    }
}

/// The modified key tree.
///
/// * Nodes are identified by ID prefixes; a node of ID length `D` is a
///   **u-node** holding a user's individual key, shorter IDs are
///   **k-nodes** holding the group key (root) or auxiliary keys.
/// * "The key server makes the structure of the key tree match exactly that
///   of the ID tree" — the test suite checks this invariant under random
///   churn.
///
/// Batch rekeying follows §2.4: per interval, joined u-nodes are added
/// (creating missing k-nodes), departed u-nodes removed (pruning empty
/// k-nodes), every k-node on an affected path gets a fresh key, and one
/// encryption is generated per (changed k-node, child) pair.
///
/// ```
/// use rand::SeedableRng;
/// use rekey_id::{IdSpec, UserId};
/// use rekey_keytree::{ModifiedKeyTree, RekeyArena};
///
/// let spec = IdSpec::new(2, 4)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut tree = ModifiedKeyTree::new(&spec);
/// let mut arena = RekeyArena::new();
/// let a = UserId::new(&spec, vec![0, 0])?;
/// let b = UserId::new(&spec, vec![2, 1])?;
/// tree.batch_rekey(&[a.clone(), b], &[], &mut rng, &mut arena).unwrap();
/// // `a` holds its individual key, the aux key of subtree [0] and the
/// // group key.
/// assert_eq!(tree.user_path_keys(&a).count(), 3);
/// # Ok::<(), rekey_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModifiedKeyTree {
    spec: IdSpec,
    /// Slot state, struct-of-arrays. `keys[s]` doubles as the node's ID
    /// store (a `Key` carries its `IdPrefix`); freed slots keep a stale
    /// key and are guarded by `live`.
    keys: Vec<Key>,
    parents: Vec<u32>,
    /// Child links per slot, sorted by digit.
    children: Vec<Vec<(u16, u32)>>,
    live: Vec<bool>,
    /// Batch stamp per slot: "touched this batch" marks, reset on alloc.
    stamp: Vec<u32>,
    free: Vec<u32>,
    batch: u32,
    root: u32,
    live_count: usize,
    user_count: usize,
    /// Last key version of every node ever pruned. A node recreated at an
    /// ID that was used before resumes its version counter past the
    /// retired value instead of restarting at 0, so a `(node ID, version)`
    /// pair never names two different key materials over the tree's
    /// lifetime. Without this, a receiver holding keys from a pruned
    /// incarnation (e.g. a departed member that has not yet learned of its
    /// departure) could see a same-ID same-version encryption it cannot
    /// open — or worse, silently skip a key it actually needs.
    retired: BTreeMap<IdPrefix, u64>,
    /// Worker threads for the seal phase; 1 = serial (the default),
    /// 0 = one per available core. Output bytes are identical at any
    /// setting.
    seal_threads: usize,
}

impl ModifiedKeyTree {
    /// Creates an empty tree (no users, no group key yet).
    pub fn new(spec: &IdSpec) -> ModifiedKeyTree {
        ModifiedKeyTree {
            spec: *spec,
            keys: Vec::new(),
            parents: Vec::new(),
            children: Vec::new(),
            live: Vec::new(),
            stamp: Vec::new(),
            free: Vec::new(),
            batch: 0,
            root: NIL,
            live_count: 0,
            user_count: 0,
            retired: BTreeMap::new(),
            seal_threads: 1,
        }
    }

    /// Sets the number of worker threads the seal phase of
    /// [`batch_rekey`] fans out to: `1` (the default) seals serially,
    /// `0` uses one thread per available core, any other value is taken
    /// literally. Nonces are derived per job slot (see [`NonceSeq`]), so
    /// identical seeds produce **byte-identical** batches at any thread
    /// count; small batches (< ~1k seals) stay serial regardless.
    ///
    /// [`batch_rekey`]: ModifiedKeyTree::batch_rekey
    pub fn set_seal_threads(&mut self, threads: usize) {
        self.seal_threads = threads;
    }

    /// Resolves the configured thread count against the job count: auto
    /// (`0`) becomes the core count, and a batch never uses more threads
    /// than it has jobs, nor any parallelism below [`PAR_THRESHOLD`].
    fn effective_seal_threads(&self, jobs: usize) -> usize {
        if jobs < PAR_THRESHOLD {
            return 1;
        }
        let configured = match self.seal_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        configured.max(1).min(jobs)
    }

    /// The ID-space specification.
    pub fn spec(&self) -> &IdSpec {
        &self.spec
    }

    // ------------------------------------------------------------------
    // Slot plumbing.

    fn alloc(&mut self, key: Key, parent: u32) -> u32 {
        self.live_count += 1;
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            self.keys[s] = key;
            self.parents[s] = parent;
            self.children[s].clear();
            self.live[s] = true;
            self.stamp[s] = 0;
            slot
        } else {
            let slot = self.keys.len() as u32;
            self.keys.push(key);
            self.parents.push(parent);
            self.children.push(Vec::new());
            self.live.push(true);
            self.stamp.push(0);
            slot
        }
    }

    fn release(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(self.live[s]);
        self.live[s] = false;
        self.live_count -= 1;
        self.free.push(slot);
    }

    fn child_slot(&self, slot: u32, digit: u16) -> Option<u32> {
        let kids = &self.children[slot as usize];
        kids.binary_search_by_key(&digit, |&(d, _)| d)
            .ok()
            .map(|i| kids[i].1)
    }

    fn link_child(&mut self, slot: u32, digit: u16, child: u32) {
        let kids = &mut self.children[slot as usize];
        match kids.binary_search_by_key(&digit, |&(d, _)| d) {
            Ok(i) => kids[i].1 = child,
            Err(i) => kids.insert(i, (digit, child)),
        }
    }

    fn unlink_child(&mut self, slot: u32, digit: u16) {
        let kids = &mut self.children[slot as usize];
        if let Ok(i) = kids.binary_search_by_key(&digit, |&(d, _)| d) {
            kids.remove(i);
        }
    }

    /// Walks the digit path from the root; `None` unless every node on the
    /// way exists.
    fn lookup(&self, digits: &[u16]) -> Option<u32> {
        if self.root == NIL {
            return None;
        }
        let mut slot = self.root;
        for &d in digits {
            slot = self.child_slot(slot, d)?;
        }
        Some(slot)
    }

    // ------------------------------------------------------------------
    // Handle API, test code only: the oracle tests walk the arena by handle.

    /// The handle of the root (group-key) node, if the group is non-empty.
    #[cfg(test)]
    pub(crate) fn root_handle(&self) -> Option<NodeHandle> {
        (self.root != NIL).then_some(NodeHandle(self.root))
    }

    /// Resolves an ID prefix to the handle of the node holding that ID.
    ///
    /// This is the prefix↔handle boundary: call it once where an ID
    /// enters (a wire message, a user-facing API), then traverse by
    /// handle.
    #[cfg(test)]
    pub(crate) fn node_handle(&self, id: &IdPrefix) -> Option<NodeHandle> {
        self.lookup(id.digits()).map(NodeHandle)
    }

    /// Resolves a user ID to the handle of its u-node.
    #[cfg(test)]
    pub(crate) fn user_handle(&self, user: &UserId) -> Option<NodeHandle> {
        self.lookup(user.digits()).map(NodeHandle)
    }

    /// The key stored at `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle's node has been pruned (stale handle).
    #[cfg(test)]
    pub(crate) fn key_at(&self, handle: NodeHandle) -> &Key {
        assert!(
            self.live[handle.index()],
            "stale NodeHandle {handle}: node was pruned"
        );
        &self.keys[handle.index()]
    }

    /// The parent of `handle`'s node; `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[cfg(test)]
    pub(crate) fn parent_of(&self, handle: NodeHandle) -> Option<NodeHandle> {
        assert!(
            self.live[handle.index()],
            "stale NodeHandle {handle}: node was pruned"
        );
        let p = self.parents[handle.index()];
        (p != NIL).then_some(NodeHandle(p))
    }

    /// The children of `handle`'s node in digit order, as
    /// `(digit, handle)` pairs. Empty for u-nodes.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[cfg(test)]
    pub(crate) fn children_of(
        &self,
        handle: NodeHandle,
    ) -> impl ExactSizeIterator<Item = (u16, NodeHandle)> + Clone + '_ {
        assert!(
            self.live[handle.index()],
            "stale NodeHandle {handle}: node was pruned"
        );
        self.children[handle.index()]
            .iter()
            .map(|&(d, s)| (d, NodeHandle(s)))
    }

    /// The keys on the path from `handle`'s node up to the root, starting
    /// at the node itself.
    #[cfg(test)]
    pub(crate) fn path_keys_at(&self, handle: NodeHandle) -> PathKeys<'_> {
        assert!(
            self.live[handle.index()],
            "stale NodeHandle {handle}: node was pruned"
        );
        PathKeys {
            tree: self,
            cur: handle.0,
            remaining: self.keys[handle.index()].id().len() + 1,
        }
    }

    // ------------------------------------------------------------------
    // ID-keyed accessors (facade-boundary conveniences).

    /// The current group key, if the group is non-empty.
    pub fn group_key(&self) -> Option<&Key> {
        (self.root != NIL).then(|| &self.keys[self.root as usize])
    }

    /// `true` iff `user` has a u-node in the tree.
    pub fn contains_user(&self, user: &UserId) -> bool {
        self.lookup(user.digits()).is_some()
    }

    /// Number of users (u-nodes). O(1).
    #[cfg(test)]
    pub(crate) fn user_count(&self) -> usize {
        self.user_count
    }

    /// Total number of nodes (k-nodes and u-nodes). O(1).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.live_count
    }

    /// The keys on the path from `user`'s u-node to the root, u-node
    /// first, as a borrowing iterator — no clones, no allocation. This is
    /// exactly the key set a user holds (§2.4); empty if the user is not
    /// a member. Collect with `.cloned()` where owned keys are needed.
    pub fn user_path_keys(&self, user: &UserId) -> PathKeys<'_> {
        match self.lookup(user.digits()) {
            Some(slot) => PathKeys {
                tree: self,
                cur: slot,
                remaining: self.spec.depth() + 1,
            },
            None => PathKeys {
                tree: self,
                cur: NIL,
                remaining: 0,
            },
        }
    }

    /// Checks the structural invariant: the key tree's node set equals the
    /// ID tree's node set for the current membership.
    #[cfg(test)]
    pub(crate) fn matches_id_tree(&self, tree: &rekey_id::IdTree) -> bool {
        if self.live_count != tree.node_count() {
            return false;
        }
        (0..self.keys.len()).filter(|&s| self.live[s]).all(|s| {
            tree.node(self.keys[s].id()).is_some_and(|t| {
                self.children[s]
                    .iter()
                    .map(|&(d, _)| d)
                    .eq(t.child_digits())
            })
        })
    }

    /// Validates a batch: no duplicates within joins or within leaves,
    /// joins absent (unless the same ID leaves in this batch — the slot is
    /// vacated first), leaves present.
    fn validate_batch(&self, joins: &[UserId], leaves: &[UserId]) -> Result<(), KeyTreeError> {
        let mut seen = BTreeSet::new();
        for u in joins {
            if !seen.insert(*u) {
                return Err(KeyTreeError::DuplicateRequest(*u));
            }
        }
        let joining = seen;
        let mut seen = BTreeSet::new();
        for u in leaves {
            if !seen.insert(*u) {
                return Err(KeyTreeError::DuplicateRequest(*u));
            }
            if !self.contains_user(u) {
                return Err(KeyTreeError::NotMember(*u));
            }
        }
        for u in &joining {
            if self.contains_user(u) && !seen.contains(u) {
                return Err(KeyTreeError::AlreadyMember(*u));
            }
        }
        Ok(())
    }

    /// Marks a slot as changed this batch; records it once in `touched`.
    fn mark_changed(&mut self, slot: u32, touched: &mut Vec<u32>) {
        let s = slot as usize;
        if self.stamp[s] != self.batch {
            self.stamp[s] = self.batch;
            touched.push(slot);
        }
    }

    /// Processes one rekey interval: `joins` and `leaves` as a batch
    /// (§2.4). Seals the rekey message into `arena` and returns a
    /// [`RekeyBatch`] view borrowing it.
    ///
    /// The interval pipeline is fused and allocation-free at steady state:
    /// new node keys are derived sequentially (order-dependent), all
    /// pending key wraps are flattened into one job list, and the jobs are
    /// sealed — serially or data-parallel, see
    /// [`ModifiedKeyTree::set_seal_threads`] — directly into the arena's
    /// reused slots with per-slot deterministic nonces.
    ///
    /// Joining users receive their initial key set via unicast
    /// ([`ModifiedKeyTree::user_path_keys`] after this call), exactly as in
    /// §3.1: "the key server sends u … all the keys on the path from u's
    /// corresponding u-node to the root".
    ///
    /// # Errors
    ///
    /// Rejects batches with duplicate users, joins of current members, or
    /// leaves of non-members; the tree is left unchanged on error.
    pub fn batch_rekey<'a, R: Rng + ?Sized>(
        &mut self,
        joins: &[UserId],
        leaves: &[UserId],
        rng: &mut R,
        arena: &'a mut RekeyArena,
    ) -> Result<RekeyBatch<'a>, KeyTreeError> {
        self.validate_batch(joins, leaves)?;
        arena.reset();
        let depth = self.spec.depth();
        let tombstone_hits = &mut arena.tombstone_hits;
        // Slots touched this batch; pruned ones are filtered at the end.
        let mut touched: Vec<u32> = Vec::new();
        self.batch = self.batch.wrapping_add(1);
        if self.batch == 0 {
            // Wrapped: stale stamps could alias; clear them all (rare).
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.batch = 1;
        }

        // "For each leaving user u, the key server deletes from the key tree
        // the u-node with ID u.ID. At each level i … the k-node whose ID
        // equals u.ID[0 : i−1] is deleted if the k-node does not have any
        // descendants."
        let mut chain: Vec<u32> = Vec::with_capacity(depth + 1);
        for u in leaves {
            // Resolve the whole ancestor chain in one walk: chain[l] is the
            // node at u.prefix(l).
            chain.clear();
            let mut slot = self.root;
            chain.push(slot);
            for &d in u.digits() {
                slot = self
                    .child_slot(slot, d)
                    .expect("ancestors of an unprocessed leaf always exist");
                chain.push(slot);
            }
            let leaf = chain[depth];
            self.retired
                .insert(u.as_prefix(), self.keys[leaf as usize].version());
            self.release(leaf);
            self.user_count -= 1;
            // Whether the node one level below was pruned (starts true: the
            // u-node was just removed).
            let mut child_gone = true;
            for level in (0..depth).rev() {
                let node = chain[level];
                if child_gone {
                    self.unlink_child(node, u.digit(level));
                }
                if self.children[node as usize].is_empty() {
                    self.retired.insert(
                        *self.keys[node as usize].id(),
                        self.keys[node as usize].version(),
                    );
                    self.release(node);
                    child_gone = true;
                } else {
                    self.mark_changed(node, &mut touched);
                    child_gone = false;
                }
            }
            if child_gone {
                // The root itself was pruned: the tree is now empty.
                self.root = NIL;
            }
        }

        // "For each joining user u, the key server adds into the key tree a
        // u-node with ID u.ID. At each level i … a k-node with ID
        // u.ID[0 : i−1] is added if such a k-node does not exist."
        for u in joins {
            // Existing ancestors are a prefix of the path (the tree is
            // prefix-closed): find how deep they go.
            chain.clear();
            if self.root != NIL {
                let mut slot = self.root;
                chain.push(slot);
                for &d in &u.digits()[..depth.saturating_sub(1)] {
                    match self.child_slot(slot, d) {
                        Some(next) => {
                            slot = next;
                            chain.push(slot);
                        }
                        None => break,
                    }
                }
            }
            let existing = chain.len(); // levels 0..existing are present
            let leaf_key = fresh_key(&self.retired, u.as_prefix(), rng, tombstone_hits);
            let leaf = self.alloc(leaf_key, NIL);
            self.user_count += 1;
            // Create missing k-nodes deep→shallow (matching the reference
            // tree's RNG draw order), wiring each to the child made just
            // before it.
            let mut below = leaf;
            for level in (existing..depth).rev() {
                let key = fresh_key(&self.retired, u.prefix(level), rng, tombstone_hits);
                let node = self.alloc(key, NIL);
                self.link_child(node, u.digit(level), below);
                self.parents[below as usize] = node;
                self.mark_changed(node, &mut touched);
                below = node;
            }
            if existing == 0 {
                self.root = below;
            } else {
                // Attach the new chain (or just the leaf) to the deepest
                // existing ancestor, then mark the existing path changed.
                let deepest = chain[existing - 1];
                self.link_child(deepest, u.digit(existing - 1), below);
                self.parents[below as usize] = deepest;
                for &node in &chain {
                    self.mark_changed(node, &mut touched);
                }
            }
        }

        // "At the beginning of the next rekey interval, the key server
        // updates all the keys on the path from each newly joined or
        // departed u-node to the root, and then generates encryptions."
        //
        // Prune-then-reuse can leave duplicate or dead entries in
        // `touched`: keep live slots once, in ascending ID order (the
        // reference tree's BTreeSet iteration order, which fixes the RNG
        // draw sequence).
        let mut changed: Vec<u32> = touched
            .into_iter()
            .filter(|&s| self.live[s as usize] && self.stamp[s as usize] == self.batch)
            .collect();
        changed.sort_unstable();
        changed.dedup();
        changed.sort_by(|&a, &b| self.keys[a as usize].id().cmp(self.keys[b as usize].id()));
        for &s in &changed {
            self.keys[s as usize].refresh(rng);
        }

        // One seal job per (changed k-node, child): the child's (possibly
        // new) key wraps the changed node's new key. Deeper encrypting keys
        // first so receivers can unwrap in one pass (stable sort keeps the
        // ascending-ID order within a depth). Flattening the jobs fixes
        // each one's slot index — its position in the rekey message AND
        // its deterministic nonce slot.
        let mut emit = changed.clone();
        emit.sort_by_key(|&s| std::cmp::Reverse(self.keys[s as usize].id().len()));
        for &s in &emit {
            for &(_, child) in &self.children[s as usize] {
                arena.jobs.push(SealJob { node: s, child });
            }
        }
        for &s in &changed {
            arena.updated.push(*self.keys[s as usize].id());
        }

        // The per-batch nonce seed is drawn once, AFTER every key draw, so
        // the serial reference oracle consumes the RNG identically. A batch
        // with nothing to seal draws nothing at all: empty beacon intervals
        // must not perturb the key-material stream (replica failover relies
        // on this — see `tests/failover_soak.rs`).
        let started = Instant::now();
        let cost = arena.jobs.len();
        let seq = if cost == 0 {
            NonceSeq::from_seed([0; 32])
        } else {
            NonceSeq::from_rng(rng)
        };
        arena.ensure_slots(cost);
        self.seal_jobs(arena, seq, cost);
        arena.seal_nanos = started.elapsed().as_nanos() as u64;

        Ok(RekeyBatch::new(arena))
    }

    /// Runs the interval's flattened seal jobs, writing each
    /// `Encryption` into its arena slot: serially, or chunked across
    /// scoped worker threads when the batch is large enough. Nonces come
    /// from the job's slot index, so the split is invisible in the output.
    fn seal_jobs(&self, arena: &mut RekeyArena, seq: NonceSeq, cost: usize) {
        let threads = self.effective_seal_threads(cost);
        let keys = &self.keys[..];
        let jobs = &arena.jobs[..cost];
        let slots = &mut arena.encryptions[..cost];
        let seal_chunk = |jobs: &[SealJob], slots: &mut [rekey_crypto::Encryption], base: usize| {
            let nonces = seq.nonces(base as u64);
            for ((job, slot), nonce) in jobs.iter().zip(slots.iter_mut()).zip(nonces) {
                slot.seal_into(&keys[job.child as usize], &keys[job.node as usize], nonce);
            }
        };
        if threads <= 1 {
            seal_chunk(jobs, slots, 0);
        } else {
            let per = cost.div_ceil(threads);
            std::thread::scope(|scope| {
                for (ci, (job_chunk, slot_chunk)) in
                    jobs.chunks(per).zip(slots.chunks_mut(per)).enumerate()
                {
                    let seal_chunk = &seal_chunk;
                    scope.spawn(move || seal_chunk(job_chunk, slot_chunk, ci * per));
                }
            });
        }
    }
}

/// Borrowing iterator over the keys on a node→root path, deepest first.
/// Returned by [`ModifiedKeyTree::user_path_keys`].
#[derive(Debug, Clone)]
pub struct PathKeys<'a> {
    tree: &'a ModifiedKeyTree,
    cur: u32,
    remaining: usize,
}

impl<'a> Iterator for PathKeys<'a> {
    type Item = &'a Key;

    fn next(&mut self) -> Option<&'a Key> {
        if self.cur == NIL {
            return None;
        }
        let s = self.cur as usize;
        self.cur = self.tree.parents[s];
        self.remaining -= 1;
        Some(&self.tree.keys[s])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PathKeys<'_> {}

/// An arena slot index naming a live node of a [`ModifiedKeyTree`], valid
/// until a `batch_rekey` prunes that node. Test code walks the arena by
/// handle to compare it with the map-keyed oracle.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct NodeHandle(u32);

#[cfg(test)]
impl NodeHandle {
    /// The raw slot index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
impl fmt::Display for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_id::IdTree;

    fn spec() -> IdSpec {
        IdSpec::new(2, 4).unwrap()
    }

    fn uid(digits: [u16; 2]) -> UserId {
        UserId::new(&spec(), digits.to_vec()).unwrap()
    }

    fn key_of<'t>(tree: &'t ModifiedKeyTree, id: &IdPrefix) -> Option<&'t Key> {
        tree.node_handle(id).map(|h| tree.key_at(h))
    }

    /// Builds the Fig. 1 / Fig. 4 example group.
    fn fig4_tree(rng: &mut StdRng) -> ModifiedKeyTree {
        let mut tree = ModifiedKeyTree::new(&spec());
        let mut arena = RekeyArena::new();
        let joins: Vec<UserId> = [[0, 0], [0, 1], [2, 0], [2, 1], [2, 2]]
            .iter()
            .map(|d| uid(*d))
            .collect();
        tree.batch_rekey(&joins, &[], rng, &mut arena).unwrap();
        tree
    }

    #[test]
    fn structure_matches_id_tree() {
        let mut rng = StdRng::seed_from_u64(1);
        let tree = fig4_tree(&mut rng);
        let id_tree = IdTree::from_users(
            &spec(),
            [[0, 0], [0, 1], [2, 0], [2, 1], [2, 2]]
                .iter()
                .map(|d| uid(*d)),
        );
        assert!(tree.matches_id_tree(&id_tree));
        assert_eq!(tree.user_count(), 5);
        assert_eq!(tree.node_count(), 8);
    }

    /// The paper's worked example: u5 = [2,2] leaves; the server changes
    /// k1-5 → k1-4 and k345 → k34 and generates exactly four encryptions:
    /// {k1-4}k12, {k1-4}k34, {k34}k3, {k34}k4.
    #[test]
    fn fig4_single_leave_generates_four_encryptions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let out = tree
            .batch_rekey(&[], &[uid([2, 2])], &mut rng, &mut arena)
            .unwrap();
        assert_eq!(out.cost(), 4);
        let mut ids: Vec<String> = out
            .encryptions()
            .iter()
            .map(|e| e.id().to_string())
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["[0]", "[2,0]", "[2,1]", "[2]"]);
        // Updated nodes: the root and [2].
        let updated: Vec<String> = out.updated().iter().map(|p| p.to_string()).collect();
        assert_eq!(updated, vec!["[]", "[2]"]);
        assert!(!tree.contains_user(&uid([2, 2])));
    }

    #[test]
    fn users_hold_path_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let tree = fig4_tree(&mut rng);
        let keys: Vec<&Key> = tree.user_path_keys(&uid([2, 2])).collect();
        assert_eq!(keys.len(), 3); // individual, aux [2], group
        assert_eq!(keys[0].id().to_string(), "[2,2]");
        assert_eq!(keys[1].id().to_string(), "[2]");
        assert!(keys[2].id().is_empty());
        assert_eq!(tree.user_path_keys(&uid([3, 3])).count(), 0);
        // The iterator is exact-size and restartable (Clone).
        let it = tree.user_path_keys(&uid([2, 2]));
        assert_eq!(it.len(), 3);
        assert_eq!(it.clone().count(), it.count());
    }

    #[test]
    fn handle_navigation_matches_ids() {
        let mut rng = StdRng::seed_from_u64(12);
        let tree = fig4_tree(&mut rng);
        let leaf = tree.user_handle(&uid([2, 1])).unwrap();
        assert_eq!(tree.key_at(leaf).id().to_string(), "[2,1]");
        let aux = tree.parent_of(leaf).unwrap();
        assert_eq!(tree.key_at(aux).id().to_string(), "[2]");
        let digits: Vec<u16> = tree.children_of(aux).map(|(d, _)| d).collect();
        assert_eq!(digits, vec![0, 1, 2]);
        let root = tree.parent_of(aux).unwrap();
        assert_eq!(Some(root), tree.root_handle());
        assert_eq!(tree.parent_of(root), None);
        // node_handle resolves interior prefixes too.
        let sub = IdPrefix::new(&spec(), vec![2]).unwrap();
        assert_eq!(tree.node_handle(&sub), Some(aux));
        // path_keys_at from an interior node.
        let path: Vec<&Key> = tree.path_keys_at(aux).collect();
        assert_eq!(path.len(), 2);
    }

    #[test]
    #[should_panic(expected = "stale NodeHandle")]
    fn stale_handles_are_rejected() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let leaf = tree.user_handle(&uid([2, 2])).unwrap();
        tree.batch_rekey(&[], &[uid([2, 2])], &mut rng, &mut arena)
            .unwrap();
        let _ = tree.key_at(leaf);
    }

    #[test]
    fn pure_join_rekeys_join_path_only() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let old_group_version = tree.group_key().unwrap().version();
        let out = tree
            .batch_rekey(&[uid([0, 2])], &[], &mut rng, &mut arena)
            .unwrap();
        // Updated: root and [0]. Encryptions: root under [0] and [2];
        // [0]-key under [0,0], [0,1], [0,2] ⇒ 5 total.
        assert_eq!(out.cost(), 5);
        assert_eq!(tree.group_key().unwrap().version(), old_group_version + 1);
        assert!(tree.contains_user(&uid([0, 2])));
    }

    #[test]
    fn leave_that_empties_subtree_prunes_nodes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let out = tree
            .batch_rekey(&[], &[uid([0, 0]), uid([0, 1])], &mut rng, &mut arena)
            .unwrap();
        // Subtree [0] disappears entirely; only the root is updated, with a
        // single child [2] left ⇒ exactly one encryption.
        assert_eq!(out.cost(), 1);
        assert_eq!(out.encryptions()[0].id().to_string(), "[2]");
        assert!(key_of(&tree, &IdPrefix::new(&spec(), vec![0]).unwrap()).is_none());
        let id_tree = IdTree::from_users(&spec(), [[2, 0], [2, 1], [2, 2]].iter().map(|d| uid(*d)));
        assert!(tree.matches_id_tree(&id_tree));
    }

    /// A pruned node recreated at the same ID resumes its version counter
    /// past the retired value: a `(node ID, version)` pair must never name
    /// two different key materials over the tree's lifetime, or a receiver
    /// holding keys from the pruned incarnation (a departed member that
    /// has not yet learned of its departure) would be handed an encryption
    /// it believes it can open but cannot.
    #[test]
    fn recreated_nodes_resume_retired_versions() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let aux = IdPrefix::new(&spec(), vec![0]).unwrap();
        // Rekey a few intervals so [0]'s version advances past creation.
        tree.batch_rekey(&[], &[uid([0, 1])], &mut rng, &mut arena)
            .unwrap();
        tree.batch_rekey(&[uid([0, 1])], &[], &mut rng, &mut arena)
            .unwrap();
        let before = key_of(&tree, &aux).unwrap().clone();
        assert!(before.version() >= 2);

        // Empty the subtree (pruning [0]), then recreate it; same for the
        // leaf [0,0] — same-ID u-node incarnations must not collide either.
        tree.batch_rekey(&[], &[uid([0, 0]), uid([0, 1])], &mut rng, &mut arena)
            .unwrap();
        assert!(key_of(&tree, &aux).is_none());
        tree.batch_rekey(&[uid([0, 0])], &[], &mut rng, &mut arena)
            .unwrap();

        let after = key_of(&tree, &aux).unwrap();
        assert!(
            after.version() > before.version(),
            "recreated [0] must continue past version {} (got {})",
            before.version(),
            after.version()
        );
        assert_ne!(after.material(), before.material());
        let leaf = key_of(&tree, &uid([0, 0]).as_prefix()).unwrap();
        assert!(leaf.version() > 0, "recreated u-node resumes versions too");
    }

    #[test]
    fn batch_validation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        assert_eq!(
            tree.batch_rekey(&[uid([0, 0])], &[], &mut rng, &mut arena),
            Err(KeyTreeError::AlreadyMember(uid([0, 0])))
        );
        assert_eq!(
            tree.batch_rekey(&[], &[uid([3, 3])], &mut rng, &mut arena),
            Err(KeyTreeError::NotMember(uid([3, 3])))
        );
        assert_eq!(
            tree.batch_rekey(&[uid([3, 3])], &[uid([3, 3])], &mut rng, &mut arena),
            Err(KeyTreeError::NotMember(uid([3, 3])))
        );
        assert_eq!(
            tree.batch_rekey(&[uid([3, 3]), uid([3, 3])], &[], &mut rng, &mut arena),
            Err(KeyTreeError::DuplicateRequest(uid([3, 3])))
        );
        // Tree unchanged after errors.
        assert_eq!(tree.user_count(), 5);
    }

    /// A joining user may be assigned the exact ID of a user leaving in the
    /// same interval: the slot is vacated first and all its path keys still
    /// change (forward secrecy for the leaver).
    #[test]
    fn id_reuse_within_one_batch() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let old_individual = key_of(&tree, &uid([2, 2]).as_prefix()).unwrap().clone();
        let old_group = tree.group_key().unwrap().clone();
        let out = tree
            .batch_rekey(&[uid([2, 2])], &[uid([2, 2])], &mut rng, &mut arena)
            .unwrap();
        assert!(out.cost() > 0);
        assert!(tree.contains_user(&uid([2, 2])));
        assert_eq!(tree.user_count(), 5);
        assert_ne!(
            key_of(&tree, &uid([2, 2]).as_prefix()).unwrap(),
            &old_individual
        );
        assert_ne!(tree.group_key().unwrap(), &old_group);
    }

    #[test]
    fn empty_batch_is_a_noop_message() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let out = tree.batch_rekey(&[], &[], &mut rng, &mut arena).unwrap();
        assert_eq!(out.cost(), 0);
        assert!(out.updated().is_empty());
    }

    #[test]
    fn last_user_leaving_empties_tree() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut arena = RekeyArena::new();
        let mut tree = ModifiedKeyTree::new(&spec());
        tree.batch_rekey(&[uid([1, 1])], &[], &mut rng, &mut arena)
            .unwrap();
        assert!(tree.group_key().is_some());
        let out = tree
            .batch_rekey(&[], &[uid([1, 1])], &mut rng, &mut arena)
            .unwrap();
        assert_eq!(out.cost(), 0);
        assert_eq!(tree.node_count(), 0);
        assert!(tree.group_key().is_none());
        assert_eq!(tree.root_handle(), None);
        // And the tree is reusable afterwards.
        tree.batch_rekey(&[uid([2, 2])], &[], &mut rng, &mut arena)
            .unwrap();
        assert_eq!(tree.user_count(), 1);
        assert!(tree.group_key().is_some());
    }

    #[test]
    fn batches_report_their_tombstone_hits() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut arena = RekeyArena::new();
        let mut tree = ModifiedKeyTree::new(&spec());

        let joins: Vec<UserId> = [[0, 0], [0, 1]].iter().map(|d| uid(*d)).collect();
        let hits = |batch: RekeyBatch<'_>| batch.tombstone_hits();
        let first = tree.batch_rekey(&joins, &[], &mut rng, &mut arena);
        assert_eq!(hits(first.unwrap()), 0);
        // Prune the [0] subtree, then recreate one leaf: the leaf, the aux
        // node [0], and the root all resume retired versions.
        let prune = tree.batch_rekey(&[], &joins, &mut rng, &mut arena);
        assert_eq!(hits(prune.unwrap()), 0);
        let recreate = tree.batch_rekey(&[uid([0, 0])], &[], &mut rng, &mut arena);
        assert_eq!(hits(recreate.unwrap()), 3);
        // The count is per batch: a first-time ID resumes nothing.
        let fresh = tree.batch_rekey(&[uid([1, 1])], &[], &mut rng, &mut arena);
        assert_eq!(hits(fresh.unwrap()), 0);
    }

    #[test]
    fn encryptions_ordered_deep_to_shallow() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let out = tree
            .batch_rekey(&[], &[uid([2, 2])], &mut rng, &mut arena)
            .unwrap();
        let lens: Vec<usize> = out.encryptions().iter().map(|e| e.id().len()).collect();
        let mut sorted = lens.clone();
        sorted.sort_by_key(|&l| std::cmp::Reverse(l));
        assert_eq!(lens, sorted);
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut arena = RekeyArena::new();
        let mut tree = fig4_tree(&mut rng);
        let cap_before = tree.keys.len();
        // Churn the same subtree repeatedly: capacity must not grow.
        for _ in 0..16 {
            tree.batch_rekey(&[], &[uid([2, 2])], &mut rng, &mut arena)
                .unwrap();
            tree.batch_rekey(&[uid([2, 2])], &[], &mut rng, &mut arena)
                .unwrap();
        }
        assert_eq!(tree.keys.len(), cap_before, "free list must recycle slots");
        assert_eq!(tree.user_count(), 5);
    }

    #[test]
    fn handle_based_lookup_resolves_id_tree_nodes() {
        let mut rng = StdRng::seed_from_u64(15);
        let tree = fig4_tree(&mut rng);
        // An interior k-node resolves to the key its path holders share.
        let aux = IdPrefix::new(&spec(), vec![2]).unwrap();
        let handle = tree.node_handle(&aux).expect("subtree 2 is populated");
        let key = tree.key_at(handle);
        assert_eq!(key.id(), &aux);
        assert!(tree
            .user_path_keys(&uid([2, 2]))
            .any(|k| std::ptr::eq(k, key)));
        // The root handle reads back the group key; absent IDs miss.
        let root = tree.node_handle(&IdPrefix::root()).expect("non-empty tree");
        assert_eq!(Some(tree.key_at(root)), tree.group_key());
        let absent = IdPrefix::new(&spec(), vec![1]).unwrap();
        assert!(tree.node_handle(&absent).is_none(), "subtree 1 is empty");
    }
}
