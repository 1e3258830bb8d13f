//! The conceptual ID tree (Definition 1) materialised as a data structure.
//!
//! The paper stresses that "an ID tree is not a data structure maintained by
//! the key server or any user. It is defined as a conceptual structure to
//! guide us in protocol design." This module materialises it anyway because
//! the *simulator* and the *modified key tree* both need to reason about it
//! globally; protocol code never holds an `IdTree`.

use std::collections::{BTreeMap, BTreeSet};

use crate::{IdPrefix, IdSpec, UserId};

/// A node of the ID tree: the set of member users of the subtree it roots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdTreeNode {
    id: IdPrefix,
    children: BTreeSet<u16>,
    user_count: usize,
}

impl IdTreeNode {
    /// The digits of existing child nodes, in increasing order.
    pub fn child_digits(&self) -> impl Iterator<Item = u16> + '_ {
        self.children.iter().copied()
    }

    /// Number of existing children.
    #[cfg(test)]
    pub(crate) fn child_count(&self) -> usize {
        self.children.len()
    }

    /// Number of users belonging to the subtree rooted at this node.
    pub fn user_count(&self) -> usize {
        self.user_count
    }
}

/// The ID tree induced by a set of user IDs (Definition 1).
///
/// ```
/// use rekey_id::{IdSpec, IdTree, UserId, IdPrefix};
/// let spec = IdSpec::new(2, 4)?;
/// let users = [
///     UserId::new(&spec, vec![0, 0])?,
///     UserId::new(&spec, vec![0, 1])?,
///     UserId::new(&spec, vec![2, 0])?,
/// ];
/// let tree = IdTree::from_users(&spec, users.iter().cloned());
/// assert_eq!(tree.user_count(), 3);
/// let zero = IdPrefix::new(&spec, vec![0])?;
/// assert_eq!(tree.node(&zero).unwrap().user_count(), 2);
/// # Ok::<(), rekey_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IdTree {
    spec: IdSpec,
    nodes: BTreeMap<IdPrefix, IdTreeNode>,
}

impl IdTree {
    /// Builds the ID tree for a group of users.
    pub fn from_users<I>(spec: &IdSpec, users: I) -> IdTree
    where
        I: IntoIterator<Item = UserId>,
    {
        let mut tree = IdTree {
            spec: *spec,
            nodes: BTreeMap::new(),
        };
        for user in users {
            tree.insert(&user);
        }
        tree
    }

    /// An empty ID tree (no users, no nodes — not even a root: per
    /// Definition 1 a node exists only if some user ID has it as a prefix).
    pub fn new(spec: &IdSpec) -> IdTree {
        IdTree {
            spec: *spec,
            nodes: BTreeMap::new(),
        }
    }

    /// Inserts a user, creating any missing nodes on its root path.
    /// Returns `true` if the user was not already present.
    pub fn insert(&mut self, user: &UserId) -> bool {
        debug_assert_eq!(user.depth(), self.spec.depth());
        if self.nodes.contains_key(&user.as_prefix()) {
            return false;
        }
        for level in 0..=self.spec.depth() {
            let id = user.prefix(level);
            let node = self.nodes.entry(id).or_insert_with(|| IdTreeNode {
                id,
                children: BTreeSet::new(),
                user_count: 0,
            });
            node.user_count += 1;
            if level < self.spec.depth() {
                node.children.insert(user.digit(level));
            }
        }
        true
    }

    /// Removes a user, pruning nodes that lose all descendants.
    /// Returns `true` if the user was present.
    pub fn remove(&mut self, user: &UserId) -> bool {
        if !self.nodes.contains_key(&user.as_prefix()) {
            return false;
        }
        for level in (0..=self.spec.depth()).rev() {
            let id = user.prefix(level);
            let prune = {
                let node = self.nodes.get_mut(&id).expect("root path node must exist");
                node.user_count -= 1;
                node.user_count == 0
            };
            if prune {
                self.nodes.remove(&id);
                if let Some(parent) = id.parent() {
                    if let Some(parent_node) = self.nodes.get_mut(&parent) {
                        parent_node
                            .children
                            .remove(&id.last_digit().expect("non-root"));
                    }
                }
            }
        }
        true
    }

    /// Looks up the node with the given ID, if it exists.
    pub fn node(&self, id: &IdPrefix) -> Option<&IdTreeNode> {
        self.nodes.get(id)
    }

    /// `true` iff a user with this exact ID is in the group.
    pub fn contains_user(&self, user: &UserId) -> bool {
        self.nodes.contains_key(&user.as_prefix())
    }

    /// Total number of users in the group.
    pub fn user_count(&self) -> usize {
        self.nodes
            .get(&IdPrefix::root())
            .map_or(0, |n| n.user_count)
    }

    /// Total number of ID-tree nodes (all levels, including leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over the IDs of all users in the subtree rooted at `id`.
    pub fn users_in_subtree<'a>(&'a self, id: &'a IdPrefix) -> impl Iterator<Item = UserId> + 'a {
        let depth = self.spec.depth();
        let spec = self.spec;
        self.nodes
            .range(*id..)
            .take_while(move |(k, _)| id.is_prefix_of(k))
            .filter(move |(k, _)| k.len() == depth)
            .filter_map(move |(k, _)| k.to_user_id(&spec))
    }

    /// Iterates over all user IDs in the group, in lexicographic order.
    #[cfg(test)]
    pub(crate) fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        const ROOT: IdPrefix = IdPrefix::root();
        self.users_in_subtree(&ROOT)
    }

    /// The users belonging to user `u`'s `(i, j)`-ID subtree (Definition 2):
    /// the level-`(i+1)` subtree whose root is `u.prefix(i).child(j)`.
    ///
    /// Per Definition 2 this is only defined for `0 <= i < D`; the returned
    /// set is empty if the subtree has no members. Note that `u` itself
    /// belongs to its `(i, u.ID[i])`-ID subtree.
    #[cfg(test)]
    pub(crate) fn ij_subtree_users(&self, u: &UserId, i: usize, j: u16) -> Vec<UserId> {
        let root = u.prefix(i).child(j);
        self.users_in_subtree(&root).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IdSpec {
        IdSpec::new(2, 4).unwrap()
    }

    /// The five-user example of Fig. 1 (digits renumbered to fit base 4):
    /// users [0,0], [0,1], [2,0], [2,1], [2,2].
    fn fig1_tree() -> (IdSpec, IdTree) {
        let s = spec();
        let users = [[0, 0], [0, 1], [2, 0], [2, 1], [2, 2]]
            .iter()
            .map(|d| UserId::new(&s, d.to_vec()).unwrap());
        (s, IdTree::from_users(&s, users))
    }

    #[test]
    fn fig1_structure() {
        let (s, tree) = fig1_tree();
        assert_eq!(tree.user_count(), 5);
        // Root + [0] + [2] + 5 leaves.
        assert_eq!(tree.node_count(), 8);
        let root = tree.node(&IdPrefix::root()).unwrap();
        assert_eq!(root.child_digits().collect::<Vec<_>>(), vec![0, 2]);
        let two = tree.node(&IdPrefix::new(&s, vec![2]).unwrap()).unwrap();
        assert_eq!(two.user_count(), 3);
        assert_eq!(two.child_count(), 3);
    }

    #[test]
    fn fig1_ij_subtrees() {
        // In Fig. 1, users u3, u4, u5 belong to u1's (0,2)-ID subtree, and
        // u2 belongs to u1's (1,1)-ID subtree.
        let (s, tree) = fig1_tree();
        let u1 = UserId::new(&s, vec![0, 0]).unwrap();
        let sub = tree.ij_subtree_users(&u1, 0, 2);
        assert_eq!(sub.len(), 3);
        assert!(sub.iter().all(|w| w.digit(0) == 2));
        let sub = tree.ij_subtree_users(&u1, 1, 1);
        assert_eq!(sub, vec![UserId::new(&s, vec![0, 1]).unwrap()]);
        // u1 belongs to its own (0,0)-ID subtree.
        let sub = tree.ij_subtree_users(&u1, 0, 0);
        assert!(sub.contains(&u1));
        // Empty subtree.
        assert!(tree.ij_subtree_users(&u1, 0, 1).is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let (s, mut tree) = fig1_tree();
        let u = UserId::new(&s, vec![0, 0]).unwrap();
        assert!(!tree.insert(&u));
        assert_eq!(tree.user_count(), 5);
        let fresh = UserId::new(&s, vec![3, 3]).unwrap();
        assert!(tree.insert(&fresh));
        assert_eq!(tree.user_count(), 6);
    }

    #[test]
    fn remove_prunes_empty_branches() {
        let (s, mut tree) = fig1_tree();
        let u2 = UserId::new(&s, vec![0, 1]).unwrap();
        let u1 = UserId::new(&s, vec![0, 0]).unwrap();
        assert!(tree.remove(&u2));
        assert!(tree.node(&IdPrefix::new(&s, vec![0]).unwrap()).is_some());
        assert!(tree.remove(&u1));
        // Level-1 node [0] must now be pruned.
        assert!(tree.node(&IdPrefix::new(&s, vec![0]).unwrap()).is_none());
        assert_eq!(tree.user_count(), 3);
        assert!(!tree.remove(&u1), "double remove must be a no-op");
    }

    #[test]
    fn remove_all_leaves_empty_tree() {
        let (s, mut tree) = fig1_tree();
        for d in [[0, 0], [0, 1], [2, 0], [2, 1], [2, 2]] {
            assert!(tree.remove(&UserId::new(&s, d.to_vec()).unwrap()));
        }
        assert_eq!(tree.node_count(), 0);
        assert_eq!(tree.user_count(), 0);
    }

    #[test]
    fn users_iterates_in_lexicographic_order() {
        let (_, tree) = fig1_tree();
        let users: Vec<String> = tree.users().map(|u| u.to_string()).collect();
        assert_eq!(users, vec!["[0,0]", "[0,1]", "[2,0]", "[2,1]", "[2,2]"]);
    }

    #[test]
    fn users_in_subtree_respects_bounds() {
        let (s, tree) = fig1_tree();
        // Subtree [2] contains exactly three users; notably the range scan
        // must not leak into sibling [3] territory.
        let p = IdPrefix::new(&s, vec![2]).unwrap();
        assert_eq!(tree.users_in_subtree(&p).count(), 3);
        let p3 = IdPrefix::new(&s, vec![3]).unwrap();
        assert_eq!(tree.users_in_subtree(&p3).count(), 0);
    }
}
