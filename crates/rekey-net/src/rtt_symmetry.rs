#![cfg(test)]
//! `Network::rtt` and `Network::gateway_rtt` are symmetric on every
//! substrate, as their contract states: a join stores one RTT evaluation in
//! both members' tables.

use crate::gtitm::{generate, GtItmParams};
use crate::{GridNetwork, HostId, MatrixNetwork, Network, PlanetLabParams, RoutedNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks both RTTs of `pairs` random host pairs (self-pairs included).
fn assert_symmetric(net: &impl Network, pairs: usize, rng: &mut StdRng) {
    let hosts = net.host_count();
    for _ in 0..pairs {
        let (a, b) = (
            HostId(rng.gen_range(0..hosts)),
            HostId(rng.gen_range(0..hosts)),
        );
        assert_eq!(net.rtt(a, b), net.rtt(b, a), "rtt({a}, {b})");
        assert_eq!(
            net.gateway_rtt(a, b),
            net.gateway_rtt(b, a),
            "gateway_rtt({a}, {b})"
        );
    }
}

#[test]
fn grid_rtts_are_symmetric() {
    let mut rng = StdRng::seed_from_u64(1);
    assert_symmetric(&GridNetwork::with_defaults(10_007), 5_000, &mut rng);
    assert_symmetric(&GridNetwork::new(10, 500, 50), 200, &mut rng);
}

#[test]
fn synthetic_planetlab_rtts_are_symmetric() {
    let mut rng = StdRng::seed_from_u64(2);
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng);
    assert_symmetric(&net, 5_000, &mut rng);
}

#[test]
fn gtitm_routed_rtts_are_symmetric() {
    let mut rng = StdRng::seed_from_u64(3);
    let topology = generate(&GtItmParams::small(), &mut rng);
    let stub = topology.stub_routers().to_vec();
    let net = RoutedNetwork::random_attachment_among(topology.into_graph(), &stub, 120, &mut rng);
    assert_symmetric(&net, 2_000, &mut rng);
}
