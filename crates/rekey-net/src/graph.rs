//! Undirected weighted router graphs.

use std::fmt;

use crate::Micros;

/// Identifier of a router in a [`RouterGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub usize);

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a physical link in a [`RouterGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A physical link between two routers with a one-way propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: RouterId,
    /// The other endpoint.
    pub b: RouterId,
    /// One-way propagation delay in microseconds.
    pub one_way: Micros,
}

impl Link {
    /// The endpoint opposite to `from`, or `None` if `from` is not an
    /// endpoint of this link.
    #[cfg(test)]
    pub(crate) fn opposite(&self, from: RouterId) -> Option<RouterId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// An undirected router-level topology with propagation delays.
///
/// ```
/// use rekey_net::RouterGraph;
/// let mut g = RouterGraph::new();
/// let r = g.add_routers(2);
/// let l = g.add_link(r[0], r[1], 500);
/// assert_eq!(g.link(l).one_way, 500);
/// assert_eq!(g.link_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouterGraph {
    adjacency: Vec<Vec<(RouterId, LinkId)>>,
    links: Vec<Link>,
}

impl RouterGraph {
    /// Creates an empty graph.
    pub fn new() -> RouterGraph {
        RouterGraph::default()
    }

    /// Adds a router and returns its ID.
    pub(crate) fn add_router(&mut self) -> RouterId {
        self.adjacency.push(Vec::new());
        RouterId(self.adjacency.len() - 1)
    }

    /// Adds `n` routers, returning their IDs.
    pub fn add_routers(&mut self, n: usize) -> Vec<RouterId> {
        (0..n).map(|_| self.add_router()).collect()
    }

    /// Adds an undirected link with a one-way delay.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range router IDs.
    pub fn add_link(&mut self, a: RouterId, b: RouterId, one_way: Micros) -> LinkId {
        assert_ne!(a, b, "self-loop links are not allowed");
        assert!(
            a.0 < self.adjacency.len() && b.0 < self.adjacency.len(),
            "unknown router"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link { a, b, one_way });
        self.adjacency[a.0].push((b, id));
        self.adjacency[b.0].push((a, id));
        id
    }

    /// `true` if routers `a` and `b` already share a link.
    pub(crate) fn has_link_between(&self, a: RouterId, b: RouterId) -> bool {
        self.adjacency[a.0].iter().any(|&(peer, _)| peer == b)
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The link with the given ID.
    ///
    /// # Panics
    ///
    /// Panics if the ID is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Iterates over `(neighbor, link)` pairs of router `r`.
    pub(crate) fn neighbors(&self, r: RouterId) -> impl Iterator<Item = (RouterId, LinkId)> + '_ {
        self.adjacency[r.0].iter().copied()
    }

    /// Degree of router `r`.
    #[cfg(test)]
    pub(crate) fn degree(&self, r: RouterId) -> usize {
        self.adjacency[r.0].len()
    }

    /// `true` iff every router is reachable from router 0 (vacuously true
    /// for empty graphs).
    pub(crate) fn is_connected(&self) -> bool {
        if self.adjacency.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adjacency.len()];
        let mut stack = vec![RouterId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(r) = stack.pop() {
            for (peer, _) in self.neighbors(r) {
                if !seen[peer.0] {
                    seen[peer.0] = true;
                    count += 1;
                    stack.push(peer);
                }
            }
        }
        count == self.adjacency.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (RouterGraph, [RouterId; 3]) {
        let mut g = RouterGraph::new();
        let r = [g.add_router(), g.add_router(), g.add_router()];
        g.add_link(r[0], r[1], 10);
        g.add_link(r[1], r[2], 20);
        g.add_link(r[2], r[0], 30);
        (g, r)
    }

    #[test]
    fn build_and_query() {
        let (g, r) = triangle();
        assert_eq!(g.router_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.degree(r[1]), 2);
        assert!(g.has_link_between(r[0], r[2]));
        assert!(g.is_connected());
    }

    #[test]
    fn opposite_endpoint() {
        let (g, r) = triangle();
        let link = g.link(LinkId(0));
        assert_eq!(link.opposite(r[0]), Some(r[1]));
        assert_eq!(link.opposite(r[1]), Some(r[0]));
        assert_eq!(link.opposite(r[2]), None);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = RouterGraph::new();
        g.add_router();
        g.add_router();
        assert!(!g.is_connected());
        g.add_link(RouterId(0), RouterId(1), 5);
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = RouterGraph::new();
        let a = g.add_router();
        g.add_link(a, a, 1);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(RouterGraph::new().is_connected());
    }
}
