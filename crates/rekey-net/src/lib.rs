//! Network substrates for the group rekeying simulations (Zhang, Lam & Liu,
//! ICDCS 2005, §4).
//!
//! The paper evaluates on two topologies, both reproduced here:
//!
//! * a **transit-stub topology** in the style of GT-ITM with ≈5000 routers
//!   and ≈13000 links and the paper's four delay classes
//!   ([`gtitm::generate`], hosts attached via [`RoutedNetwork`]);
//! * a **PlanetLab all-pairs RTT matrix** over 227 hosts, which we
//!   synthesise with the same hierarchical structure
//!   ([`MatrixNetwork::synthetic_planetlab`]) because the 2004 measurement
//!   file is unavailable (see DESIGN.md).
//!
//! Both substrates implement the [`Network`] trait consumed by the multicast
//! schemes: one-way delays for latency metrics, end-host RTT `h(u, w)` and
//! gateway-router RTT `r(u, w)` for the user ID assignment protocol
//! (§3.1.2), and — on routed topologies — physical paths for link-stress
//! accounting.
//!
//! All delays are integer **microseconds** ([`Micros`]) so simulations are
//! exactly reproducible.

pub mod coords;
mod dijkstra;
mod graph;
mod grid;
pub mod gtitm;
mod planetlab;
mod routed;
mod stress;
pub mod udp;

pub use coords::{Coordinate, CoordinateSystem};
pub use dijkstra::{shortest_paths, ShortestPaths};
pub use graph::{Link, LinkId, RouterGraph, RouterId};
pub use grid::GridNetwork;
pub use planetlab::{MatrixNetwork, PlanetLabParams};
pub use routed::RoutedNetwork;
pub use stress::LinkLoad;

/// A time duration or delay in integer microseconds.
pub type Micros = u64;

/// Converts whole milliseconds to [`Micros`].
///
/// ```
/// assert_eq!(rekey_net::ms(150), 150_000);
/// ```
pub const fn ms(milliseconds: u64) -> Micros {
    milliseconds * 1_000
}

/// Identifier of an end host (a group member or the key server) within a
/// [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A substrate that can answer delay questions about a fixed set of hosts.
///
/// The three implementations are [`RoutedNetwork`] (hosts on a router
/// graph; used for the GT-ITM experiments), [`MatrixNetwork`] (pairwise RTT
/// matrix; used for the PlanetLab experiments) and [`GridNetwork`] (delay
/// affine in grid distance; used for the million-member runs).
pub trait Network {
    /// Number of hosts.
    fn host_count(&self) -> usize;

    /// End-host round-trip time — the paper's `h(u, w)` (§3.1.2).
    ///
    /// Symmetric, because a round trip is: `rtt(a, b) == rtt(b, a)` for
    /// every pair. Callers rely on it — a join evaluates each member pair's
    /// RTT once and stores it in both members' tables.
    fn rtt(&self, a: HostId, b: HostId) -> Micros;

    /// Gateway-router round-trip time — the paper's `r(u, w)`: the RTT
    /// between the first-hop and last-hop routers on the path from `a` to
    /// `b`, used by the ID assignment protocol so that long access links do
    /// not distort proximity estimates.
    ///
    /// Symmetric, like [`Network::rtt`]: `gateway_rtt(a, b) ==
    /// gateway_rtt(b, a)`.
    fn gateway_rtt(&self, a: HostId, b: HostId) -> Micros;

    /// One-way delay used for multicast latency; by default half of
    /// [`Network::rtt`], as in the paper's simulation setup.
    fn one_way(&self, a: HostId, b: HostId) -> Micros {
        self.rtt(a, b) / 2
    }

    /// Physical links on the unicast path from `a` to `b`, if the substrate
    /// models individual links (`None` for RTT-matrix substrates).
    fn path_links(&self, a: HostId, b: HostId) -> Option<Vec<LinkId>> {
        let _ = (a, b);
        None
    }

    /// Number of physical links (0 for RTT-matrix substrates).
    fn link_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_converts() {
        assert_eq!(ms(0), 0);
        assert_eq!(ms(3), 3_000);
    }

    #[test]
    fn host_id_displays() {
        assert_eq!(HostId(7).to_string(), "h7");
        assert_eq!(RouterId(3).to_string(), "r3");
        assert_eq!(LinkId(9).to_string(), "l9");
    }
}

#[cfg(test)]
mod rtt_symmetry;
