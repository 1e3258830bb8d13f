#![cfg(test)]
//! The pre-arena, `BTreeMap`-backed modified key tree, retained verbatim
//! as a **reference oracle** for the handle-based [`ModifiedKeyTree`].
//!
//! [`ReferenceKeyTree`] is the original ID-keyed implementation of §2.4:
//! every node lookup walks a `BTreeMap<IdPrefix, _>` keyed by full digit
//! strings. It is algorithmically identical to the arena tree — including
//! RNG draw order, so identically seeded batches produce *byte-identical*
//! outcomes — but pays an O(D log n) full-key comparison per access. The
//! equivalence property tests in `arena_oracle` churn both trees
//! in lockstep and compare everything: keys, encryptions, tombstone
//! resumes, structure.
//!
//! It compiles only under `cfg(test)`: it exists so the fast path always
//! has a slow, obviously-correct twin to answer to.
//!
//! [`ModifiedKeyTree`]: crate::ModifiedKeyTree

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rekey_crypto::{Key, KeyMaterial, NonceSeq};
use rekey_id::{IdPrefix, IdSpec, UserId};

use crate::batch::{RekeyArena, RekeyBatch};
use crate::modified::KeyTreeError;

#[derive(Debug, Clone)]
struct TreeNode {
    key: Key,
    /// Child digits; empty for u-nodes (full-length IDs).
    children: BTreeSet<u16>,
}

/// A key for a node being (re)created: version 0 for a first-time ID, or
/// one past the retired version when a node with this ID was pruned
/// before.
fn fresh_key<R: Rng + ?Sized>(retired: &BTreeMap<IdPrefix, u64>, id: IdPrefix, rng: &mut R) -> Key {
    match retired.get(&id) {
        Some(&v) => Key::new(id, v + 1, KeyMaterial::random(rng)),
        None => Key::random(id, rng),
    }
}

/// The ID-keyed reference implementation of the modified key tree — the
/// test oracle for [`ModifiedKeyTree`](crate::ModifiedKeyTree).
#[derive(Debug, Clone)]
pub(crate) struct ReferenceKeyTree {
    spec: IdSpec,
    nodes: BTreeMap<IdPrefix, TreeNode>,
    retired: BTreeMap<IdPrefix, u64>,
}

impl ReferenceKeyTree {
    /// Creates an empty tree.
    pub(crate) fn new(spec: &IdSpec) -> ReferenceKeyTree {
        ReferenceKeyTree {
            spec: *spec,
            nodes: BTreeMap::new(),
            retired: BTreeMap::new(),
        }
    }

    /// The current group key, if the group is non-empty.
    pub(crate) fn group_key(&self) -> Option<&Key> {
        self.key(&IdPrefix::root())
    }

    /// The key stored at ID-tree node `id`, if present.
    pub(crate) fn key(&self, id: &IdPrefix) -> Option<&Key> {
        self.nodes.get(id).map(|n| &n.key)
    }

    /// `true` iff `user` has a u-node in the tree.
    pub(crate) fn contains_user(&self, user: &UserId) -> bool {
        self.nodes.contains_key(&user.as_prefix())
    }

    /// Number of users (u-nodes).
    pub(crate) fn user_count(&self) -> usize {
        let depth = self.spec.depth();
        self.nodes.keys().filter(|p| p.len() == depth).count()
    }

    /// Total number of nodes (k-nodes and u-nodes).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All keys on the path from `user`'s u-node to the root, u-node
    /// first; empty if the user is not a member.
    pub(crate) fn user_path_keys(&self, user: &UserId) -> Vec<Key> {
        if !self.contains_user(user) {
            return Vec::new();
        }
        (0..=self.spec.depth())
            .rev()
            .map(|l| self.nodes[&user.prefix(l)].key.clone())
            .collect()
    }

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

    /// Processes one rekey interval exactly as
    /// [`ModifiedKeyTree::batch_rekey`](crate::ModifiedKeyTree::batch_rekey)
    /// does, drawing from `rng` in the same order, so identically seeded
    /// calls on both trees return identical outcomes.
    ///
    /// # Errors
    ///
    /// Rejects batches with duplicate users, joins of current members, or
    /// leaves of non-members; the tree is left unchanged on error.
    pub(crate) fn batch_rekey<'a, R: Rng + ?Sized>(
        &mut self,
        joins: &[UserId],
        leaves: &[UserId],
        rng: &mut R,
        arena: &'a mut RekeyArena,
    ) -> Result<RekeyBatch<'a>, KeyTreeError> {
        self.validate_batch(joins, leaves)?;
        arena.reset();
        let depth = self.spec.depth();
        let mut changed: BTreeSet<IdPrefix> = BTreeSet::new();

        for u in leaves {
            if let Some(node) = self.nodes.remove(&u.as_prefix()) {
                self.retired.insert(u.as_prefix(), node.key.version());
            }
            for level in (0..depth).rev() {
                let id = u.prefix(level);
                let child_digit = u.digit(level);
                if !self.nodes.contains_key(&id.child(child_digit)) {
                    self.nodes
                        .get_mut(&id)
                        .expect("ancestors of an unprocessed leaf always exist")
                        .children
                        .remove(&child_digit);
                }
                if self.nodes[&id].children.is_empty() {
                    let node = self.nodes.remove(&id).expect("node was just inspected");
                    self.retired.insert(id, node.key.version());
                    changed.remove(&id);
                } else {
                    changed.insert(id);
                }
            }
        }

        for u in joins {
            let leaf_key = fresh_key(&self.retired, u.as_prefix(), rng);
            self.nodes.insert(
                u.as_prefix(),
                TreeNode {
                    key: leaf_key,
                    children: BTreeSet::new(),
                },
            );
            for level in (0..depth).rev() {
                let id = u.prefix(level);
                let node = match self.nodes.entry(id) {
                    std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::btree_map::Entry::Vacant(e) => e.insert(TreeNode {
                        key: fresh_key(&self.retired, id, rng),
                        children: BTreeSet::new(),
                    }),
                };
                node.children.insert(u.digit(level));
                changed.insert(id);
            }
        }

        for id in &changed {
            let node = self.nodes.get_mut(id).expect("changed node must exist");
            node.key = node.key.next_version(rng);
        }

        // Emit in the same order as the fast tree: deep→shallow, ascending
        // ID within a depth. The per-batch nonce seed is drawn once, after
        // every key draw — identical RNG consumption to
        // `ModifiedKeyTree::batch_rekey`, so identically seeded calls
        // produce byte-identical batches.
        let mut changed_sorted: Vec<&IdPrefix> = changed.iter().collect();
        changed_sorted.sort_by_key(|id| std::cmp::Reverse(id.len()));
        let total: usize = changed_sorted
            .iter()
            .map(|id| self.nodes[*id].children.len())
            .sum();
        let seq = if total == 0 {
            NonceSeq::from_seed([0; 32])
        } else {
            NonceSeq::from_rng(rng)
        };
        arena.ensure_slots(total);
        let mut slots = arena.encryptions.iter_mut().zip(seq.nonces(0));
        for id in changed_sorted {
            let node = &self.nodes[id];
            for &digit in &node.children {
                let child = &self.nodes[&id.child(digit)];
                let (slot, nonce) = slots.next().expect("ensure_slots sized the arena");
                slot.seal_into(&child.key, &node.key, nonce);
            }
        }
        for id in &changed {
            arena.updated.push(*id);
        }
        Ok(RekeyBatch::new(arena))
    }
}
