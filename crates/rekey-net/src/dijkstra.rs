//! Single-source shortest paths over router graphs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{LinkId, RouterGraph, RouterId};
use crate::Micros;

/// The shortest-path tree rooted at one source router.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    dist: Vec<Micros>,
    prev: Vec<Option<(RouterId, LinkId)>>,
}

const UNREACHABLE: Micros = Micros::MAX;

impl ShortestPaths {
    /// One-way delay from the source to `to`, or `None` if unreachable.
    pub fn distance(&self, to: RouterId) -> Option<Micros> {
        match self.dist[to.0] {
            UNREACHABLE => None,
            d => Some(d),
        }
    }

    /// Links on the shortest path from the source to `to`, in path order.
    /// Returns `None` if `to` is unreachable; the path to the source itself
    /// is the empty path.
    pub fn path_links(&self, to: RouterId) -> Option<Vec<LinkId>> {
        if self.dist[to.0] == UNREACHABLE {
            return None;
        }
        let mut links = Vec::new();
        let mut cursor = to;
        while let Some((router, link)) = self.prev[cursor.0] {
            links.push(link);
            cursor = router;
        }
        links.reverse();
        Some(links)
    }

    /// Routers on the shortest path from the source to `to`, inclusive.
    #[cfg(test)]
    pub(crate) fn path_routers(&self, to: RouterId) -> Option<Vec<RouterId>> {
        if self.dist[to.0] == UNREACHABLE {
            return None;
        }
        let mut routers = vec![to];
        let mut cursor = to;
        while let Some((router, _)) = self.prev[cursor.0] {
            routers.push(router);
            cursor = router;
        }
        routers.reverse();
        Some(routers)
    }
}

/// Computes shortest paths (by summed one-way link delay) from `source` with
/// Dijkstra's algorithm.
///
/// # Panics
///
/// Panics if `source` is out of range for `graph`.
pub fn shortest_paths(graph: &RouterGraph, source: RouterId) -> ShortestPaths {
    assert!(source.0 < graph.router_count(), "unknown source router");
    let n = graph.router_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut prev: Vec<Option<(RouterId, LinkId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source.0] = 0;
    heap.push(Reverse((0, source.0)));
    while let Some(Reverse((d, r))) = heap.pop() {
        if d > dist[r] {
            continue;
        }
        for (peer, link) in graph.neighbors(RouterId(r)) {
            let candidate = d + graph.link(link).one_way;
            if candidate < dist[peer.0] {
                dist[peer.0] = candidate;
                prev[peer.0] = Some((RouterId(r), link));
                heap.push(Reverse((candidate, peer.0)));
            }
        }
    }
    ShortestPaths { dist, prev }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-router diamond: 0-1 (10), 0-2 (1), 2-1 (2), 1-3 (5), 2-3 (100).
    fn diamond() -> RouterGraph {
        let mut g = RouterGraph::new();
        let r = g.add_routers(4);
        g.add_link(r[0], r[1], 10);
        g.add_link(r[0], r[2], 1);
        g.add_link(r[2], r[1], 2);
        g.add_link(r[1], r[3], 5);
        g.add_link(r[2], r[3], 100);
        g
    }

    #[test]
    fn finds_shortest_distances() {
        let g = diamond();
        let sp = shortest_paths(&g, RouterId(0));
        assert_eq!(sp.distance(RouterId(0)), Some(0));
        assert_eq!(sp.distance(RouterId(1)), Some(3)); // via 2
        assert_eq!(sp.distance(RouterId(2)), Some(1));
        assert_eq!(sp.distance(RouterId(3)), Some(8)); // 0-2-1-3
    }

    #[test]
    fn reconstructs_paths() {
        let g = diamond();
        let sp = shortest_paths(&g, RouterId(0));
        let routers = sp.path_routers(RouterId(3)).unwrap();
        assert_eq!(
            routers,
            vec![RouterId(0), RouterId(2), RouterId(1), RouterId(3)]
        );
        let links = sp.path_links(RouterId(3)).unwrap();
        assert_eq!(links.len(), 3);
        // Path delay equals the distance.
        let total: Micros = links.iter().map(|&l| g.link(l).one_way).sum();
        assert_eq!(Some(total), sp.distance(RouterId(3)));
        assert_eq!(sp.path_links(RouterId(0)), Some(vec![]));
    }

    #[test]
    fn unreachable_routers() {
        let mut g = diamond();
        let lonely = g.add_router();
        let sp = shortest_paths(&g, RouterId(0));
        assert_eq!(sp.distance(lonely), None);
        assert_eq!(sp.path_links(lonely), None);
        assert_eq!(sp.path_routers(lonely), None);
    }

    #[test]
    fn distances_are_symmetric_on_undirected_graphs() {
        let g = diamond();
        for a in 0..4 {
            let sp_a = shortest_paths(&g, RouterId(a));
            for b in 0..4 {
                let sp_b = shortest_paths(&g, RouterId(b));
                assert_eq!(sp_a.distance(RouterId(b)), sp_b.distance(RouterId(a)));
            }
        }
    }
}
