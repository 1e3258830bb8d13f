//! Landmark-based network coordinates (the GNP extension of §5).
//!
//! The paper's related-work section points out that "Ng and Zhang proposed
//! a global network positioning (GNP) scheme … This scheme can be used in
//! our system to reduce the probing cost of each joining user. For example,
//! if the key server knows the GNP coordinates of all the users, it can
//! determine the ID for a joining user by centralized computing."
//!
//! This module implements that: every host's *coordinate* is its RTT vector
//! to a small set of landmark hosts (a Lipschitz embedding). The RTT
//! between two hosts is then estimated from coordinates alone as the mean
//! of the classical lower and upper Lipschitz bounds:
//!
//! ```text
//! lower(a, b) = max_l |rtt(a, l) − rtt(b, l)|     (triangle inequality)
//! upper(a, b) = min_l (rtt(a, l) + rtt(b, l))
//! estimate    = (lower + upper) / 2
//! ```
//!
//! A joining user probes only the `L` landmarks instead of
//! `O(P · D · N^{1/D})` candidates; `rekey_proto` uses these estimates for
//! centralized ID assignment (see `ablation_gnp`).

use crate::{HostId, Micros, Network};

/// A host's coordinate: its RTT vector to the landmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coordinate {
    rtts: Vec<Micros>,
}

impl Coordinate {
    /// The RTT to each landmark, in landmark order.
    #[cfg(test)]
    pub(crate) fn landmark_rtts(&self) -> &[Micros] {
        &self.rtts
    }

    /// Estimates the RTT between two coordinates as the midpoint of the
    /// Lipschitz lower and upper bounds. On measured (non-metric) RTTs the
    /// "bounds" can cross; the midpoint remains a sensible point estimate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates have different dimensionality.
    pub fn estimate_rtt(&self, other: &Coordinate) -> Micros {
        assert_eq!(
            self.rtts.len(),
            other.rtts.len(),
            "coordinate dimension mismatch"
        );
        let mut lower = 0;
        let mut upper = Micros::MAX;
        for (&a, &b) in self.rtts.iter().zip(&other.rtts) {
            lower = lower.max(a.abs_diff(b));
            upper = upper.min(a + b);
        }
        lower.midpoint(upper)
    }
}

/// A coordinate system: the landmark set plus per-host coordinates
/// measured against it.
#[derive(Debug, Clone)]
pub struct CoordinateSystem {
    landmarks: Vec<HostId>,
}

impl CoordinateSystem {
    /// Creates a coordinate system over the given landmark hosts.
    ///
    /// # Panics
    ///
    /// Panics if no landmarks are given.
    pub(crate) fn new(landmarks: Vec<HostId>) -> CoordinateSystem {
        assert!(!landmarks.is_empty(), "need at least one landmark");
        CoordinateSystem { landmarks }
    }

    /// Picks `count` landmarks spread over the host range (every
    /// `hosts/count`-th host) — in a deployment these would be dedicated
    /// infrastructure nodes.
    pub fn spread(hosts: usize, count: usize) -> CoordinateSystem {
        assert!(count >= 1 && count <= hosts, "landmark count out of range");
        let step = hosts / count;
        CoordinateSystem::new((0..count).map(|i| HostId(i * step)).collect())
    }

    /// Number of probes a host performs to obtain its coordinate.
    pub fn probe_cost(&self) -> usize {
        self.landmarks.len()
    }

    /// Measures `host`'s coordinate (one gateway-RTT probe per landmark —
    /// the ID assignment operates on gateway RTTs, §3.1.2).
    pub fn measure(&self, host: HostId, net: &impl Network) -> Coordinate {
        Coordinate {
            rtts: self
                .landmarks
                .iter()
                .map(|&l| net.gateway_rtt(host, l))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatrixNetwork, PlanetLabParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> MatrixNetwork {
        let mut rng = StdRng::seed_from_u64(42);
        MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng)
    }

    #[test]
    fn estimates_are_between_the_lipschitz_bounds() {
        // On non-metric (measured-style) RTTs the lower bound can exceed
        // the upper; the midpoint must still lie between min and max.
        let net = net();
        let cs = CoordinateSystem::spread(net.host_count(), 8);
        let ca = cs.measure(HostId(3), &net);
        let cb = cs.measure(HostId(101), &net);
        let est = ca.estimate_rtt(&cb);
        let lower = ca
            .landmark_rtts()
            .iter()
            .zip(cb.landmark_rtts())
            .map(|(&a, &b)| a.abs_diff(b))
            .max()
            .unwrap();
        let upper = ca
            .landmark_rtts()
            .iter()
            .zip(cb.landmark_rtts())
            .map(|(&a, &b)| a + b)
            .min()
            .unwrap();
        assert!(lower.min(upper) <= est && est <= lower.max(upper));
    }

    #[test]
    fn estimate_is_symmetric_and_zeroish_for_self() {
        let net = net();
        let cs = CoordinateSystem::spread(net.host_count(), 8);
        let ca = cs.measure(HostId(7), &net);
        let cb = cs.measure(HostId(160), &net);
        assert_eq!(ca.estimate_rtt(&cb), cb.estimate_rtt(&ca));
        // Self-estimate: lower bound 0, upper 2·min-landmark-RTT; must be
        // far below any inter-continent RTT.
        assert!(ca.estimate_rtt(&ca) < 100_000);
    }

    /// What centralized ID assignment actually needs is not small point
    /// error but *classification* power: near pairs (same region, the
    /// 30 ms threshold class) must look near, far pairs (inter-continent,
    /// beyond the 150 ms threshold) far.
    #[test]
    fn estimates_classify_near_vs_far_pairs() {
        let net = net();
        let cs = CoordinateSystem::spread(net.host_count(), 12);
        let coords: Vec<Coordinate> = (0..net.host_count())
            .map(|h| cs.measure(HostId(h), &net))
            .collect();
        let mut correct = 0usize;
        let mut total = 0usize;
        for a in 0..coords.len() {
            for b in (a + 1)..coords.len() {
                let real = net.gateway_rtt(HostId(a), HostId(b));
                let est = coords[a].estimate_rtt(&coords[b]);
                if real < 30_000 {
                    total += 1;
                    correct += usize::from(est < 80_000);
                } else if real > 150_000 {
                    total += 1;
                    correct += usize::from(est > 80_000);
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(
            accuracy > 0.85,
            "near/far classification accuracy {accuracy:.2} too low"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_panic() {
        let net = net();
        let a = CoordinateSystem::spread(net.host_count(), 4).measure(HostId(0), &net);
        let b = CoordinateSystem::spread(net.host_count(), 5).measure(HostId(1), &net);
        let _ = a.estimate_rtt(&b);
    }
}
