//! Transit-stub topology generator in the style of GT-ITM.
//!
//! The paper's GT-ITM topology "consists of 5000 routers and 13000 network
//! links" with four delay classes (§4): intra-stub 0.1–1 ms, stub–transit
//! 2–3 ms, intra-transit-domain 10–15 ms, inter-transit-domain 75–85 ms (all
//! *two-way* propagation delays). GT-ITM itself is a random-graph generator,
//! so an independent implementation with the same structure and delay ranges
//! is statistically equivalent; see DESIGN.md ("Substitutions").

use rand::Rng;

use crate::graph::{RouterGraph, RouterId};
use crate::Micros;

/// Parameters of the transit-stub generator.
///
/// The defaults are tuned so that the generated topology matches the paper's
/// scale: ≈5000 routers and ≈13000 links.
#[derive(Debug, Clone, PartialEq)]
pub struct GtItmParams {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Probability of each extra intra-transit-domain edge beyond the
    /// spanning tree.
    pub extra_transit_edge_prob: f64,
    /// Probability of each extra transit-domain-to-transit-domain link
    /// beyond the spanning tree over domains.
    pub extra_domain_edge_prob: f64,
    /// Stub domains attached to each transit router.
    pub stub_domains_per_transit_node: usize,
    /// Minimum routers per stub domain (inclusive).
    pub stub_nodes_min: usize,
    /// Maximum routers per stub domain (inclusive).
    pub stub_nodes_max: usize,
    /// Probability of each extra intra-stub edge beyond the spanning tree.
    pub extra_stub_edge_prob: f64,
    /// Two-way delay range for links inside a stub domain, microseconds.
    pub stub_delay: (Micros, Micros),
    /// Two-way delay range for stub-to-transit links, microseconds.
    pub stub_transit_delay: (Micros, Micros),
    /// Two-way delay range for links inside a transit domain, microseconds.
    pub transit_delay: (Micros, Micros),
    /// Two-way delay range for links between transit domains, microseconds.
    pub inter_domain_delay: (Micros, Micros),
}

impl Default for GtItmParams {
    fn default() -> GtItmParams {
        GtItmParams {
            transit_domains: 10,
            transit_nodes_per_domain: 8,
            extra_transit_edge_prob: 0.6,
            extra_domain_edge_prob: 0.3,
            stub_domains_per_transit_node: 6,
            stub_nodes_min: 6,
            stub_nodes_max: 14,
            extra_stub_edge_prob: 0.45,
            stub_delay: (100, 1_000),
            stub_transit_delay: (2_000, 3_000),
            transit_delay: (10_000, 15_000),
            inter_domain_delay: (75_000, 85_000),
        }
    }
}

impl GtItmParams {
    /// A small topology (≈60 routers) for unit tests and debug builds.
    pub fn small() -> GtItmParams {
        GtItmParams {
            transit_domains: 2,
            transit_nodes_per_domain: 3,
            stub_domains_per_transit_node: 3,
            stub_nodes_min: 2,
            stub_nodes_max: 4,
            ..GtItmParams::default()
        }
    }
}

/// A generated transit-stub topology.
#[derive(Debug, Clone)]
pub struct TransitStubTopology {
    graph: RouterGraph,
    /// Routers of the transit domains; only the tests read them.
    #[cfg(test)]
    transit_routers: Vec<RouterId>,
    /// Routers of the stub domains; only the tests read them.
    #[cfg(test)]
    stub_routers: Vec<RouterId>,
}

impl TransitStubTopology {
    /// The underlying router graph.
    pub fn graph(&self) -> &RouterGraph {
        &self.graph
    }

    /// Consumes the topology, returning the router graph.
    pub fn into_graph(self) -> RouterGraph {
        self.graph
    }

    /// Routers belonging to transit domains.
    #[cfg(test)]
    pub(crate) fn transit_routers(&self) -> &[RouterId] {
        &self.transit_routers
    }

    /// Routers belonging to stub domains.
    #[cfg(test)]
    pub(crate) fn stub_routers(&self) -> &[RouterId] {
        &self.stub_routers
    }
}

/// Samples a two-way delay from `range` and converts it to a one-way link
/// delay (the paper specifies two-way propagation delays per link).
fn one_way_from_two_way<R: Rng + ?Sized>(rng: &mut R, range: (Micros, Micros)) -> Micros {
    let two_way = rng.gen_range(range.0..=range.1);
    (two_way / 2).max(1)
}

/// Builds a random connected subgraph over `nodes`: a random spanning tree
/// plus each remaining pair independently with probability `extra_prob`.
fn connect_random<R: Rng + ?Sized>(
    graph: &mut RouterGraph,
    nodes: &[RouterId],
    extra_prob: f64,
    delay: (Micros, Micros),
    rng: &mut R,
) {
    for i in 1..nodes.len() {
        let parent = nodes[rng.gen_range(0..i)];
        graph.add_link(parent, nodes[i], one_way_from_two_way(rng, delay));
    }
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            if !graph.has_link_between(nodes[i], nodes[j]) && rng.gen_bool(extra_prob) {
                graph.add_link(nodes[i], nodes[j], one_way_from_two_way(rng, delay));
            }
        }
    }
}

/// Generates a transit-stub topology.
///
/// # Panics
///
/// Panics if any count parameter is zero or `stub_nodes_min > stub_nodes_max`.
pub fn generate<R: Rng + ?Sized>(params: &GtItmParams, rng: &mut R) -> TransitStubTopology {
    assert!(
        params.transit_domains > 0,
        "need at least one transit domain"
    );
    assert!(params.transit_nodes_per_domain > 0, "need transit nodes");
    assert!(params.stub_nodes_min > 0 && params.stub_nodes_min <= params.stub_nodes_max);
    let mut graph = RouterGraph::new();
    let mut transit_routers = Vec::new();
    let mut stub_routers = Vec::new();
    let mut domains: Vec<Vec<RouterId>> = Vec::with_capacity(params.transit_domains);

    // Transit domains.
    for _ in 0..params.transit_domains {
        let nodes = graph.add_routers(params.transit_nodes_per_domain);
        connect_random(
            &mut graph,
            &nodes,
            params.extra_transit_edge_prob,
            params.transit_delay,
            rng,
        );
        transit_routers.extend_from_slice(&nodes);
        domains.push(nodes);
    }

    // Inter-domain links: spanning tree over domains plus random extras.
    for i in 1..domains.len() {
        let j = rng.gen_range(0..i);
        let a = domains[i][rng.gen_range(0..domains[i].len())];
        let b = domains[j][rng.gen_range(0..domains[j].len())];
        graph.add_link(a, b, one_way_from_two_way(rng, params.inter_domain_delay));
    }
    for i in 0..domains.len() {
        for j in (i + 1)..domains.len() {
            if rng.gen_bool(params.extra_domain_edge_prob) {
                let a = domains[i][rng.gen_range(0..domains[i].len())];
                let b = domains[j][rng.gen_range(0..domains[j].len())];
                if !graph.has_link_between(a, b) {
                    graph.add_link(a, b, one_way_from_two_way(rng, params.inter_domain_delay));
                }
            }
        }
    }

    // Stub domains hanging off each transit router.
    for &transit in &transit_routers {
        for _ in 0..params.stub_domains_per_transit_node {
            let size = rng.gen_range(params.stub_nodes_min..=params.stub_nodes_max);
            let nodes = graph.add_routers(size);
            connect_random(
                &mut graph,
                &nodes,
                params.extra_stub_edge_prob,
                params.stub_delay,
                rng,
            );
            let gateway = nodes[rng.gen_range(0..nodes.len())];
            graph.add_link(
                transit,
                gateway,
                one_way_from_two_way(rng, params.stub_transit_delay),
            );
            stub_routers.extend_from_slice(&nodes);
        }
    }

    debug_assert!(graph.is_connected());
    TransitStubTopology {
        graph,
        #[cfg(test)]
        transit_routers,
        #[cfg(test)]
        stub_routers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_topology_is_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let topo = generate(&GtItmParams::small(), &mut rng);
        assert!(topo.graph().is_connected());
        assert_eq!(topo.transit_routers().len(), 6);
        assert!(!topo.stub_routers().is_empty());
        assert_eq!(
            topo.graph().router_count(),
            topo.transit_routers().len() + topo.stub_routers().len()
        );
    }

    #[test]
    fn paper_scale_matches_5000_routers_13000_links() {
        let mut rng = StdRng::seed_from_u64(2);
        let topo = generate(&GtItmParams::default(), &mut rng);
        let routers = topo.graph().router_count();
        let links = topo.graph().link_count();
        assert!(
            (4200..=5800).contains(&routers),
            "router count {routers} far from 5000"
        );
        assert!(
            (10_000..=16_000).contains(&links),
            "link count {links} far from 13000"
        );
        assert!(topo.graph().is_connected());
    }

    #[test]
    fn delay_classes_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = GtItmParams::small();
        let topo = generate(&params, &mut rng);
        let g = topo.graph();
        for l in 0..g.link_count() {
            let d = g.link(crate::LinkId(l)).one_way;
            // Every one-way delay must be half of some configured two-way range.
            let ok = [
                params.stub_delay,
                params.stub_transit_delay,
                params.transit_delay,
                params.inter_domain_delay,
            ]
            .iter()
            .any(|&(lo, hi)| d >= lo / 2 && d <= hi / 2 + 1);
            assert!(ok, "delay {d} in no class");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let t1 = generate(&GtItmParams::small(), &mut StdRng::seed_from_u64(9));
        let t2 = generate(&GtItmParams::small(), &mut StdRng::seed_from_u64(9));
        assert_eq!(t1.graph().router_count(), t2.graph().router_count());
        assert_eq!(t1.graph().link_count(), t2.graph().link_count());
        for l in 0..t1.graph().link_count() {
            assert_eq!(
                t1.graph().link(crate::LinkId(l)),
                t2.graph().link(crate::LinkId(l))
            );
        }
    }
}
