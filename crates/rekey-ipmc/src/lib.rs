//! DVMRP-style IP multicast — the `P_m` baseline of §4.3 (Table 2).
//!
//! The paper's IP-multicast rekey protocol "is based on the DVMRP multicast
//! routing algorithm": the message travels a shortest-path tree rooted at
//! the source's router, and every tree link carries exactly one copy. With
//! symmetric link delays (as in our substrates) DVMRP's reverse-path tree
//! coincides with the forward shortest-path tree, which is what we build.
//!
//! ```
//! use rekey_net::{HostId, RouterGraph, RoutedNetwork, RouterId};
//! use rekey_ipmc::source_tree;
//!
//! let mut g = RouterGraph::new();
//! let r = g.add_routers(3);
//! g.add_link(r[0], r[1], 10);
//! g.add_link(r[1], r[2], 20);
//! let net = RoutedNetwork::new(g, vec![r[0], r[1], r[2]]);
//! let tree = source_tree(&net, HostId(0), &[HostId(1), HostId(2)]);
//! // One copy per tree link: the shared link r0–r1 is counted once.
//! assert_eq!(tree.link_load(2, 1).total(), 2);
//! ```

use std::collections::BTreeSet;

use rekey_net::{shortest_paths, HostId, LinkId, LinkLoad, RoutedNetwork};

/// A shortest-path multicast tree from one source host to a receiver set.
#[derive(Debug, Clone)]
pub struct SourceTree {
    /// One-way delay per receiver; only the tests read it.
    #[cfg(test)]
    delays: Vec<Option<rekey_net::Micros>>,
    links: Vec<LinkId>,
}

impl SourceTree {
    /// One-way delay from the source to the `i`-th receiver.
    #[cfg(test)]
    pub(crate) fn delay(&self, receiver_index: usize) -> Option<rekey_net::Micros> {
        self.delays[receiver_index]
    }

    /// All physical links of the tree (each carries exactly one copy).
    #[cfg(test)]
    pub(crate) fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Per-link load when a message of `units` units (e.g. encryptions)
    /// traverses the tree: `units` on every tree link.
    pub fn link_load(&self, link_count: usize, units: u64) -> LinkLoad {
        let mut load = LinkLoad::new(link_count);
        for &l in &self.links {
            load.add(l, units);
        }
        load
    }
}

/// Builds the shortest-path source tree from `source` to `receivers` over a
/// routed network.
///
/// Receivers whose routers are unreachable get `delay = None` and are not
/// spanned (cannot happen on connected topologies).
pub fn source_tree(net: &RoutedNetwork, source: HostId, receivers: &[HostId]) -> SourceTree {
    let sp = shortest_paths(net.graph(), net.attachment(source));
    let mut links: BTreeSet<LinkId> = BTreeSet::new();
    let mut delays = Vec::with_capacity(receivers.len());
    for &r in receivers {
        let router = net.attachment(r);
        delays.push(sp.distance(router));
        if let Some(path) = sp.path_links(router) {
            links.extend(path);
        }
    }
    SourceTree {
        #[cfg(test)]
        delays,
        links: links.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rekey_net::gtitm::{generate, GtItmParams};
    use rekey_net::Network;

    fn network(n: usize, seed: u64) -> RoutedNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = generate(&GtItmParams::small(), &mut rng);
        RoutedNetwork::random_attachment(topo.into_graph(), n, &mut rng)
    }

    #[test]
    fn delays_match_unicast_shortest_paths() {
        let net = network(20, 1);
        let receivers: Vec<HostId> = (1..20).map(HostId).collect();
        let tree = source_tree(&net, HostId(0), &receivers);
        for (i, &r) in receivers.iter().enumerate() {
            assert_eq!(tree.delay(i), Some(net.one_way(HostId(0), r)));
        }
    }

    #[test]
    fn tree_links_form_a_subtree() {
        let net = network(30, 2);
        let receivers: Vec<HostId> = (1..30).map(HostId).collect();
        let tree = source_tree(&net, HostId(0), &receivers);
        // A tree on a connected graph has at most (routers - 1) links; and
        // every link appears once even when shared by many receivers.
        assert!(tree.links().len() < net.graph().router_count());
        let unique: BTreeSet<LinkId> = tree.links().iter().copied().collect();
        assert_eq!(unique.len(), tree.links().len());
    }

    #[test]
    fn link_load_is_units_per_tree_link() {
        let net = network(10, 3);
        let receivers: Vec<HostId> = (1..10).map(HostId).collect();
        let tree = source_tree(&net, HostId(0), &receivers);
        let load = tree.link_load(net.graph().link_count(), 37);
        assert_eq!(
            load.max(),
            37,
            "every tree link carries the full message once"
        );
        assert_eq!(load.total(), 37 * tree.links().len() as u64);
    }

    #[test]
    fn colocated_receiver_has_zero_delay_and_no_links() {
        let mut g = rekey_net::RouterGraph::new();
        let r = g.add_routers(2);
        g.add_link(r[0], r[1], 10);
        let net = RoutedNetwork::new(g, vec![r[0], r[0]]);
        let tree = source_tree(&net, HostId(0), &[HostId(1)]);
        assert_eq!(tree.delay(0), Some(0));
        assert!(tree.links().is_empty());
    }
}
