//! The original Wong–Gouda–Lam key tree [28] with the batch rekeying
//! algorithm of \[32\] — the baseline key tree of §4.2 and §4.3.
//!
//! Unlike the modified tree, the original tree has a fixed degree (4 is
//! optimal per \[28\] and used by the paper) and grows **vertically**; u-node
//! positions carry no ID structure, so "a joining u-node can take the
//! position of a departed u-node" (§4.2), which is exactly why its batch
//! rekey cost is lower than the modified tree's for mixed join/leave
//! batches (Fig. 12(b)).
//!
//! Keys here are abstract `(node, version)` pairs: the original tree's keys
//! have no stable IDs ("the IDs of a user's required keys keep changing",
//! §2.6), so the prefix-based `Encryption` type does not apply. What the
//! experiments need is the *rekey cost* (Fig. 12) and the per-user need
//! sets (Fig. 13), both of which [`OrigRekeyOutcome`] provides.

use std::collections::{HashMap, HashSet};

use rekey_id::UserId;

/// Stable identifier of a node slot in an [`OriginalKeyTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeIdx(pub usize);

#[derive(Debug, Clone)]
struct ONode {
    parent: Option<usize>,
    children: Vec<usize>,
    user: Option<UserId>,
    in_use: bool,
    version: u64,
}

/// One abstract encryption in the original tree's rekey message: the new
/// key of `target` wrapped under the (possibly new) key of `encrypting`.
/// A user needs it iff `encrypting` lies on the user's leaf-to-root path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrigEncryption {
    /// Node whose key encrypts (a child of `target`).
    pub encrypting: NodeIdx,
    /// Node whose new key is carried (an updated internal node).
    pub target: NodeIdx,
}

/// The result of one batch rekey interval on the original tree.
#[derive(Debug, Clone)]
pub struct OrigRekeyOutcome {
    /// All generated encryptions.
    pub encryptions: Vec<OrigEncryption>,
    /// Internal nodes whose keys changed.
    pub updated: Vec<NodeIdx>,
}

impl OrigRekeyOutcome {
    /// Rekey cost: encryptions in the message.
    pub fn cost(&self) -> usize {
        self.encryptions.len()
    }
}

/// A fixed-degree key tree with batch rekeying.
///
/// ```
/// use rekey_id::{IdSpec, UserId};
/// use rekey_keytree::OriginalKeyTree;
///
/// let spec = IdSpec::new(3, 4)?;
/// let users: Vec<UserId> = (0..16).map(|i| UserId::from_index(&spec, i)).collect();
/// let mut tree = OriginalKeyTree::balanced(4, &users);
/// // One leave in a full 16-leaf degree-4 tree updates two internal nodes:
/// // the parent (3 children left) and the root (4 children) ⇒ 7 encryptions.
/// let out = tree.batch_rekey(&[], &users[..1]);
/// assert_eq!(out.cost(), 3 + 4);
/// # Ok::<(), rekey_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OriginalKeyTree {
    degree: usize,
    nodes: Vec<ONode>,
    free: Vec<usize>,
    root: Option<usize>,
    users: HashMap<UserId, usize>,
}

impl OriginalKeyTree {
    /// Creates an empty tree of the given degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree < 2`.
    pub(crate) fn new(degree: usize) -> OriginalKeyTree {
        assert!(degree >= 2, "key tree degree must be at least 2");
        OriginalKeyTree {
            degree,
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            users: HashMap::new(),
        }
    }

    /// Builds a full, balanced tree over `users` (the paper's initial
    /// condition in §4.2: "we assume that the original key tree is full and
    /// balanced").
    ///
    /// # Panics
    ///
    /// Panics if `users` contains duplicates.
    pub fn balanced(degree: usize, users: &[UserId]) -> OriginalKeyTree {
        let mut tree = OriginalKeyTree::new(degree);
        if users.is_empty() {
            return tree;
        }
        let mut level: Vec<usize> = users.iter().map(|u| tree.alloc_leaf(*u)).collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(degree));
            for chunk in level.chunks(degree) {
                let parent = tree.alloc_internal();
                for &child in chunk {
                    tree.attach(parent, child);
                }
                next.push(parent);
            }
            level = next;
        }
        tree.root = Some(level[0]);
        tree
    }

    fn alloc(&mut self, node: ONode) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn alloc_leaf(&mut self, user: UserId) -> usize {
        let idx = self.alloc(ONode {
            parent: None,
            children: Vec::new(),
            user: Some(user),
            in_use: true,
            version: 0,
        });
        let prev = self.users.insert(user, idx);
        assert!(prev.is_none(), "duplicate user in key tree");
        idx
    }

    fn alloc_internal(&mut self) -> usize {
        self.alloc(ONode {
            parent: None,
            children: Vec::new(),
            user: None,
            in_use: true,
            version: 0,
        })
    }

    fn attach(&mut self, parent: usize, child: usize) {
        debug_assert!(self.nodes[parent].children.len() < self.degree);
        self.nodes[parent].children.push(child);
        self.nodes[child].parent = Some(parent);
    }

    fn release(&mut self, idx: usize) {
        if let Some(user) = self.nodes[idx].user.take() {
            self.users.remove(&user);
        }
        self.nodes[idx].in_use = false;
        self.nodes[idx].children.clear();
        self.nodes[idx].parent = None;
        self.free.push(idx);
    }

    /// Number of users (leaves).
    #[cfg(test)]
    pub(crate) fn user_count(&self) -> usize {
        self.users.len()
    }

    /// `true` iff `user` is in the tree.
    pub(crate) fn contains_user(&self, user: &UserId) -> bool {
        self.users.contains_key(user)
    }

    /// Height of the tree: edges on the longest root-to-leaf path.
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        fn depth_of(nodes: &[ONode], idx: usize) -> usize {
            nodes[idx]
                .children
                .iter()
                .map(|&c| 1 + depth_of(nodes, c))
                .max()
                .unwrap_or(0)
        }
        self.root.map_or(0, |r| depth_of(&self.nodes, r))
    }

    /// Node indices on `user`'s leaf-to-root path (leaf first) — the keys
    /// the user holds.
    pub fn user_path(&self, user: &UserId) -> Vec<NodeIdx> {
        let Some(&leaf) = self.users.get(user) else {
            return Vec::new();
        };
        let mut path = vec![NodeIdx(leaf)];
        let mut cursor = leaf;
        while let Some(p) = self.nodes[cursor].parent {
            path.push(NodeIdx(p));
            cursor = p;
        }
        path
    }

    /// Depth (root distance) of the node holding `user`, if present.
    #[cfg(test)]
    pub(crate) fn user_depth(&self, user: &UserId) -> Option<usize> {
        let path = self.user_path(user);
        if path.is_empty() {
            None
        } else {
            Some(path.len() - 1)
        }
    }

    fn node_depth(&self, mut idx: usize) -> usize {
        let mut d = 0;
        while let Some(p) = self.nodes[idx].parent {
            d += 1;
            idx = p;
        }
        d
    }

    /// The shallowest attach point for a new leaf: an internal node with
    /// spare capacity, or the shallowest leaf (which will be split).
    fn find_attach_point(&self) -> Option<usize> {
        // BFS from the root; first internal node with < degree children
        // wins; otherwise the first leaf encountered (shallowest).
        let root = self.root?;
        let mut queue = std::collections::VecDeque::from([root]);
        let mut first_leaf = None;
        while let Some(idx) = queue.pop_front() {
            let node = &self.nodes[idx];
            if node.user.is_some() {
                if first_leaf.is_none() {
                    first_leaf = Some(idx);
                }
                continue;
            }
            if node.children.len() < self.degree {
                return Some(idx);
            }
            queue.extend(node.children.iter().copied());
        }
        first_leaf
    }

    /// Processes one batch of `joins` and `leaves` per the algorithm of
    /// \[32\]: joining u-nodes first take the positions of departed u-nodes;
    /// surplus joins attach at the shallowest spots (splitting a leaf when
    /// needed); surplus departures are pruned, splicing out single-child
    /// internals. Every internal node on an affected path gets a new key
    /// and produces one encryption per child.
    ///
    /// # Panics
    ///
    /// Panics if a join names a current member, a leave names a non-member,
    /// or a user appears twice in the batch.
    pub fn batch_rekey(&mut self, joins: &[UserId], leaves: &[UserId]) -> OrigRekeyOutcome {
        let mut join_set = HashSet::new();
        for u in joins {
            assert!(join_set.insert(*u), "user {u} appears twice in the batch");
        }
        let mut leave_set = HashSet::new();
        for u in leaves {
            assert!(leave_set.insert(*u), "user {u} appears twice in the batch");
            assert!(self.contains_user(u), "leave of non-member {u}");
        }
        for u in joins {
            assert!(
                !self.contains_user(u) || leave_set.contains(u),
                "join of current member {u}"
            );
        }

        let mut changed_parents: HashSet<usize> = HashSet::new();

        // A join that reuses the ID of a same-batch leave takes over that
        // exact slot: a fresh individual key in place, path rekeyed.
        let overlap: HashSet<UserId> = join_set.intersection(&leave_set).cloned().collect();
        for u in &overlap {
            let leaf = self.users[u];
            self.nodes[leaf].version += 1;
            changed_parents.insert(self.nodes[leaf].parent.unwrap_or(leaf));
        }
        let joins: Vec<UserId> = joins
            .iter()
            .filter(|u| !overlap.contains(u))
            .cloned()
            .collect();
        let leaves: Vec<UserId> = leaves
            .iter()
            .filter(|u| !overlap.contains(u))
            .cloned()
            .collect();
        let (joins, leaves) = (&joins[..], &leaves[..]);

        let mut departed: Vec<usize> = leaves.iter().map(|u| self.users[u]).collect();
        // Replace departed leaves closest to the root first (cheapest).
        departed.sort_by_key(|&idx| self.node_depth(idx));
        let mut joins_iter = joins.iter();

        // Phase 1: joins replace departed u-nodes in place.
        let replaced = departed.len().min(joins.len());
        for &leaf in departed.iter().take(replaced) {
            let user = *joins_iter.next().expect("counted");
            let old = self.nodes[leaf]
                .user
                .take()
                .expect("departed node is a leaf");
            self.users.remove(&old);
            self.nodes[leaf].user = Some(user);
            self.nodes[leaf].version += 1; // fresh individual key
            self.users.insert(user, leaf);
            if let Some(p) = self.nodes[leaf].parent {
                changed_parents.insert(p);
            } else {
                changed_parents.insert(leaf);
            }
        }

        // Phase 2: surplus joins attach at the shallowest spots.
        for user in joins_iter {
            let leaf = self.alloc_leaf(*user);
            match self.find_attach_point() {
                None => {
                    // Empty tree: the new leaf becomes the root.
                    self.root = Some(leaf);
                }
                Some(spot) if self.nodes[spot].user.is_some() => {
                    // Split the leaf: it becomes an internal node with the
                    // old user and the new user as children.
                    let old_user = self.nodes[spot].user.take().expect("leaf");
                    let moved = self.alloc(ONode {
                        parent: Some(spot),
                        children: Vec::new(),
                        user: Some(old_user),
                        in_use: true,
                        version: 0,
                    });
                    self.users.insert(old_user, moved);
                    self.nodes[spot].children.push(moved);
                    self.attach(spot, leaf);
                    changed_parents.insert(spot);
                }
                Some(spot) => {
                    self.attach(spot, leaf);
                    changed_parents.insert(spot);
                }
            }
        }

        // Phase 3: surplus departures are pruned.
        for &leaf in departed.iter().skip(replaced) {
            let user = self.nodes[leaf].user.expect("departed node is a leaf");
            let parent = self.nodes[leaf].parent;
            self.release(leaf);
            self.users.remove(&user);
            match parent {
                None => {
                    self.root = None;
                }
                Some(p) => {
                    self.nodes[p].children.retain(|&c| c != leaf);
                    self.compact(p, &mut changed_parents);
                }
            }
        }

        // Mark all ancestors of changed positions.
        let mut updated: HashSet<usize> = HashSet::new();
        for &start in &changed_parents {
            if !self.nodes[start].in_use {
                continue;
            }
            let mut cursor = Some(start);
            while let Some(idx) = cursor {
                if !updated.insert(idx) {
                    break;
                }
                cursor = self.nodes[idx].parent;
            }
        }
        // Only internal nodes carry group/auxiliary keys that need
        // redistribution; a leaf in `updated` (single-user tree) drops out.
        updated.retain(|&idx| self.nodes[idx].user.is_none());

        let mut updated: Vec<usize> = updated.into_iter().collect();
        // Deterministic order: by depth descending, then index.
        updated.sort_by_key(|&idx| (std::cmp::Reverse(self.node_depth(idx)), idx));
        let mut encryptions = Vec::new();
        for &idx in &updated {
            self.nodes[idx].version += 1;
            for &child in &self.nodes[idx].children {
                encryptions.push(OrigEncryption {
                    encrypting: NodeIdx(child),
                    target: NodeIdx(idx),
                });
            }
        }
        OrigRekeyOutcome {
            encryptions,
            updated: updated.into_iter().map(NodeIdx).collect(),
        }
    }

    /// Splices out `idx` if it has exactly one child; removes it if empty.
    fn compact(&mut self, idx: usize, changed: &mut HashSet<usize>) {
        match self.nodes[idx].children.len() {
            0 => {
                let parent = self.nodes[idx].parent;
                self.release(idx);
                changed.remove(&idx);
                match parent {
                    None => self.root = None,
                    Some(p) => {
                        self.nodes[p].children.retain(|&c| c != idx);
                        self.compact(p, changed);
                    }
                }
            }
            1 => {
                let child = self.nodes[idx].children[0];
                let parent = self.nodes[idx].parent;
                self.nodes[child].parent = parent;
                match parent {
                    None => {
                        self.root = Some(child);
                        changed.remove(&idx);
                        self.release(idx);
                        // The promoted child's subtree keys are unchanged,
                        // but the departed sibling knew the old parent key,
                        // which no longer exists — nothing to rekey here.
                    }
                    Some(p) => {
                        for c in self.nodes[p].children.iter_mut() {
                            if *c == idx {
                                *c = child;
                            }
                        }
                        changed.remove(&idx);
                        self.release(idx);
                        changed.insert(p);
                    }
                }
            }
            _ => {
                changed.insert(idx);
            }
        }
    }

    /// Checks structural invariants (parent/child symmetry, degree bound,
    /// user index accuracy). Used by tests.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.in_use {
                continue;
            }
            if n.children.len() > self.degree {
                return Err(format!("node {i} exceeds degree"));
            }
            if n.user.is_some() && !n.children.is_empty() {
                return Err(format!("leaf {i} has children"));
            }
            for &c in &n.children {
                if self.nodes[c].parent != Some(i) {
                    return Err(format!("child {c} of {i} has wrong parent"));
                }
            }
        }
        for (u, &idx) in &self.users {
            if self.nodes[idx].user.as_ref() != Some(u) {
                return Err(format!("user index stale for {u}"));
            }
        }
        if let Some(r) = self.root {
            if self.nodes[r].parent.is_some() {
                return Err("root has a parent".into());
            }
            // Every in-use node must be reachable from the root.
            let mut seen = HashSet::new();
            let mut stack = vec![r];
            while let Some(idx) = stack.pop() {
                seen.insert(idx);
                stack.extend(self.nodes[idx].children.iter().copied());
            }
            let live = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.in_use)
                .count();
            if seen.len() != live {
                return Err(format!("{} live nodes, {} reachable", live, seen.len()));
            }
        } else if self.nodes.iter().any(|n| n.in_use) {
            return Err("no root but live nodes exist".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::IdSpec;

    fn users(n: usize) -> Vec<UserId> {
        let spec = IdSpec::new(5, 256).unwrap();
        (0..n as u64)
            .map(|i| UserId::from_index(&spec, i))
            .collect()
    }

    #[test]
    fn balanced_tree_shape() {
        let us = users(64);
        let tree = OriginalKeyTree::balanced(4, &us);
        assert_eq!(tree.user_count(), 64);
        assert_eq!(tree.height(), 3); // 4^3 = 64
        tree.check_invariants().unwrap();
        for u in &us {
            assert_eq!(tree.user_path(u).len(), 4);
        }
    }

    /// A single leave in a full balanced degree-d tree of N users updates
    /// log_d(N) keys and generates d·log_d(N) encryptions (minus the pruned
    /// leaf slot): with N = 64, d = 4, the leaving leaf's parent drops to 3
    /// children, so cost = 3 + 4 + 4 = 11.
    #[test]
    fn single_leave_cost_is_d_log_n() {
        let us = users(64);
        let mut tree = OriginalKeyTree::balanced(4, &us);
        let out = tree.batch_rekey(&[], &us[63..64]);
        assert_eq!(out.cost(), 3 + 4 + 4);
        assert_eq!(out.updated.len(), 3);
        tree.check_invariants().unwrap();
    }

    /// A join replacing a departed leaf touches only that path: cost is
    /// d·log_d(N) with all nodes at full degree.
    #[test]
    fn join_replaces_departed_leaf() {
        let us = users(64);
        let extra = users(65)[64];
        let mut tree = OriginalKeyTree::balanced(4, &us);
        let out = tree.batch_rekey(std::slice::from_ref(&extra), &us[10..11]);
        assert_eq!(out.cost(), 4 + 4 + 4);
        assert!(tree.contains_user(&extra));
        assert!(!tree.contains_user(&us[10]));
        assert_eq!(tree.user_count(), 64);
        assert_eq!(tree.height(), 3, "replacement must not grow the tree");
        tree.check_invariants().unwrap();
    }

    #[test]
    fn surplus_join_splits_a_leaf_when_full() {
        let us = users(16);
        let extra = users(17)[16];
        let mut tree = OriginalKeyTree::balanced(4, &us);
        let out = tree.batch_rekey(std::slice::from_ref(&extra), &[]);
        assert_eq!(tree.user_count(), 17);
        assert!(out.cost() > 0);
        assert_eq!(tree.user_depth(&extra), Some(3));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn surplus_leaves_prune_and_splice() {
        let us = users(16);
        let mut tree = OriginalKeyTree::balanced(4, &us);
        // Remove three of the four users under one parent: parent splices.
        let out = tree.batch_rekey(&[], &us[0..3]);
        assert_eq!(tree.user_count(), 13);
        assert!(out.cost() > 0);
        tree.check_invariants().unwrap();
        // The surviving sibling moved up one level.
        assert_eq!(tree.user_depth(&us[3]), Some(1));
    }

    #[test]
    fn empty_then_refill() {
        let us = users(4);
        let mut tree = OriginalKeyTree::balanced(4, &us);
        tree.batch_rekey(&[], &us);
        assert_eq!(tree.user_count(), 0);
        tree.check_invariants().unwrap();
        let more = users(6)[4..6].to_vec();
        tree.batch_rekey(&more, &[]);
        assert_eq!(tree.user_count(), 2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn mixed_batch_cost_below_sequential() {
        let us = users(256);
        let joins: Vec<UserId> = users(320)[256..].to_vec();
        let mut batch_tree = OriginalKeyTree::balanced(4, &us);
        let batch_cost = batch_tree.batch_rekey(&joins, &us[0..64]).cost();
        let mut seq_tree = OriginalKeyTree::balanced(4, &us);
        let mut seq_cost = 0;
        for (j, l) in joins.iter().zip(us[0..64].iter()) {
            seq_cost += seq_tree
                .batch_rekey(std::slice::from_ref(j), std::slice::from_ref(l))
                .cost();
        }
        assert!(
            batch_cost < seq_cost,
            "batching must aggregate path updates: {batch_cost} !< {seq_cost}"
        );
        batch_tree.check_invariants().unwrap();
    }

    #[test]
    fn encryption_need_follows_paths() {
        let us = users(64);
        let mut tree = OriginalKeyTree::balanced(4, &us);
        let out = tree.batch_rekey(&[], &us[0..1]);
        // A surviving user needs an encryption iff its encrypting node is on
        // the user's path.
        let path: HashSet<usize> = tree.user_path(&us[1]).into_iter().map(|n| n.0).collect();
        let needed: Vec<&OrigEncryption> = out
            .encryptions
            .iter()
            .filter(|e| path.contains(&e.encrypting.0))
            .collect();
        // Exactly one per updated ancestor of u1 that is on u1's path side.
        assert!(!needed.is_empty());
        assert!(needed.len() <= tree.user_path(&us[1]).len());
    }
}
