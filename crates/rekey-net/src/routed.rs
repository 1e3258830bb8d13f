//! Hosts attached to a router-level topology, with routed delays and
//! per-link accounting.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rand::Rng;

use crate::dijkstra::{shortest_paths, ShortestPaths};
use crate::graph::{LinkId, RouterGraph, RouterId};
use crate::{HostId, Micros, Network};

/// A set of end hosts (group members plus the key server) attached to
/// routers of a [`RouterGraph`], as in the paper's GT-ITM experiments:
/// "Each member is attached to a randomly selected router."
///
/// Delays between hosts are shortest-path one-way propagation delays between
/// their attachment routers; [`Network::path_links`] exposes the actual
/// router path so that physical *link stress* can be measured (§2.3).
///
/// Shortest-path trees are computed lazily, once per distinct attachment
/// router, and cached.
#[derive(Debug)]
pub struct RoutedNetwork {
    graph: RouterGraph,
    attachments: Vec<RouterId>,
    sssp_cache: RefCell<HashMap<RouterId, Rc<ShortestPaths>>>,
}

impl RoutedNetwork {
    /// Attaches hosts at the given routers.
    ///
    /// # Panics
    ///
    /// Panics if any attachment router is out of range for `graph`.
    pub fn new(graph: RouterGraph, attachments: Vec<RouterId>) -> RoutedNetwork {
        for &r in &attachments {
            assert!(
                r.0 < graph.router_count(),
                "attachment router {r} out of range"
            );
        }
        RoutedNetwork {
            graph,
            attachments,
            sssp_cache: RefCell::new(HashMap::new()),
        }
    }

    /// Attaches `hosts` hosts to uniformly random routers.
    pub fn random_attachment<R: Rng + ?Sized>(
        graph: RouterGraph,
        hosts: usize,
        rng: &mut R,
    ) -> RoutedNetwork {
        assert!(
            graph.router_count() > 0,
            "cannot attach hosts to an empty graph"
        );
        let attachments = (0..hosts)
            .map(|_| RouterId(rng.gen_range(0..graph.router_count())))
            .collect();
        RoutedNetwork::new(graph, attachments)
    }

    /// Attaches `hosts` hosts to routers drawn uniformly from `candidates`
    /// (e.g. only stub routers of a transit-stub topology).
    #[cfg(test)]
    pub(crate) fn random_attachment_among<R: Rng + ?Sized>(
        graph: RouterGraph,
        candidates: &[RouterId],
        hosts: usize,
        rng: &mut R,
    ) -> RoutedNetwork {
        assert!(!candidates.is_empty(), "need at least one candidate router");
        let attachments = (0..hosts)
            .map(|_| candidates[rng.gen_range(0..candidates.len())])
            .collect();
        RoutedNetwork::new(graph, attachments)
    }

    /// The underlying router graph.
    pub fn graph(&self) -> &RouterGraph {
        &self.graph
    }

    /// The attachment router of host `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn attachment(&self, h: HostId) -> RouterId {
        self.attachments[h.0]
    }

    fn sssp(&self, source: RouterId) -> Rc<ShortestPaths> {
        if let Some(sp) = self.sssp_cache.borrow().get(&source) {
            return Rc::clone(sp);
        }
        let sp = Rc::new(shortest_paths(&self.graph, source));
        self.sssp_cache.borrow_mut().insert(source, Rc::clone(&sp));
        sp
    }
}

impl Network for RoutedNetwork {
    fn host_count(&self) -> usize {
        self.attachments.len()
    }

    fn one_way(&self, a: HostId, b: HostId) -> Micros {
        if a == b {
            return 0;
        }
        self.sssp(self.attachments[a.0])
            .distance(self.attachments[b.0])
            .expect("topology must be connected")
    }

    fn rtt(&self, a: HostId, b: HostId) -> Micros {
        2 * self.one_way(a, b)
    }

    fn gateway_rtt(&self, a: HostId, b: HostId) -> Micros {
        // Hosts sit directly on their attachment (gateway) routers, so the
        // gateway-to-gateway RTT equals the host-to-host RTT.
        self.rtt(a, b)
    }

    fn path_links(&self, a: HostId, b: HostId) -> Option<Vec<LinkId>> {
        if a == b {
            return Some(Vec::new());
        }
        self.sssp(self.attachments[a.0])
            .path_links(self.attachments[b.0])
    }

    fn link_count(&self) -> usize {
        self.graph.link_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtitm::{generate, GtItmParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_network() -> RoutedNetwork {
        // r0 -10- r1 -20- r2, hosts on r0, r2, r1.
        let mut g = RouterGraph::new();
        let r = g.add_routers(3);
        g.add_link(r[0], r[1], 10);
        g.add_link(r[1], r[2], 20);
        RoutedNetwork::new(g, vec![r[0], r[2], r[1]])
    }

    #[test]
    fn delays_follow_shortest_paths() {
        let net = line_network();
        assert_eq!(net.one_way(HostId(0), HostId(1)), 30);
        assert_eq!(net.rtt(HostId(0), HostId(1)), 60);
        assert_eq!(net.gateway_rtt(HostId(0), HostId(1)), 60);
        assert_eq!(net.one_way(HostId(0), HostId(2)), 10);
        assert_eq!(net.one_way(HostId(1), HostId(1)), 0);
    }

    #[test]
    fn paths_are_link_sequences() {
        let net = line_network();
        let path = net.path_links(HostId(0), HostId(1)).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(net.path_links(HostId(2), HostId(2)), Some(vec![]));
    }

    #[test]
    fn colocated_hosts_have_zero_delay() {
        let mut g = RouterGraph::new();
        let r = g.add_routers(2);
        g.add_link(r[0], r[1], 5);
        let net = RoutedNetwork::new(g, vec![r[0], r[0]]);
        assert_eq!(net.one_way(HostId(0), HostId(1)), 0);
        assert_eq!(net.path_links(HostId(0), HostId(1)), Some(vec![]));
    }

    #[test]
    fn random_attachment_on_gtitm() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = generate(&GtItmParams::small(), &mut rng);
        let stub = topo.stub_routers().to_vec();
        let net = RoutedNetwork::random_attachment_among(topo.into_graph(), &stub, 20, &mut rng);
        assert_eq!(net.host_count(), 20);
        for h in 0..20 {
            assert!(stub.contains(&net.attachment(HostId(h))));
        }
        // Symmetry of delays over an undirected graph.
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(
                    net.one_way(HostId(a), HostId(b)),
                    net.one_way(HostId(b), HostId(a))
                );
            }
        }
    }
}
