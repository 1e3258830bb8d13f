//! Quickstart: a secure group on a synthetic PlanetLab-style network.
//!
//! Builds a 32-member group with topology-aware IDs, rekeys it once after
//! churn, delivers the rekey message over T-mesh with message splitting,
//! and shows that every member ends up holding the new group key while the
//! departed member cannot.
//!
//! Run with: `cargo run --release --example quickstart`

use std::collections::HashMap;

use group_rekeying::id::IdSpec;
use group_rekeying::keytree::{KeyRing, ModifiedKeyTree, RekeyArena};
use group_rekeying::net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::{tmesh_rekey_transport, AssignParams, Group, TransportOptions};
use group_rekeying::table::PrimaryPolicy;
use group_rekeying::tmesh::Source;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let spec = IdSpec::PAPER; // D = 5 digits, base B = 256

    // A 64-host synthetic PlanetLab-style RTT matrix; the last host is the
    // key server.
    let params = PlanetLabParams {
        continent_hosts: vec![30, 20, 10, 4],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut rng);
    let server = HostId(net.host_count() - 1);

    // Members join one by one; each runs the §3.1 ID assignment protocol
    // (probing RTTs against the thresholds R = 150/30/9/3 ms).
    let mut group = Group::new(
        &spec,
        server,
        4,
        PrimaryPolicy::SmallestRtt,
        AssignParams::paper(),
    );
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut arena = RekeyArena::new();
    let mut rings: HashMap<_, KeyRing> = HashMap::new();
    for h in 0..32 {
        let joined = group
            .join(HostId(h), &net, h as u64)
            .expect("ID space is huge");
        tree.batch_rekey(std::slice::from_ref(&joined.id), &[], &mut rng, &mut arena)
            .expect("fresh user");
        println!(
            "host {:>2} joined as {:<16} ({} queries, {} RTT probes)",
            h,
            joined.id.to_string(),
            joined.stats.queries,
            joined.stats.probes
        );
    }
    group
        .check()
        .expect("neighbor tables are K-consistent (Definition 3)");
    for m in group.members() {
        rings.insert(m.id, KeyRing::new(m.id, tree.user_path_keys(&m.id)));
    }

    // One rekey interval: the member on host 7 leaves.
    let leaver = group
        .members()
        .iter()
        .find(|m| m.host == HostId(7))
        .unwrap()
        .id;
    let departed_ring = rings.remove(&leaver).unwrap();
    group.leave(&leaver, &net).expect("member exists");
    let rekey = tree
        .batch_rekey(&[], std::slice::from_ref(&leaver), &mut rng, &mut arena)
        .expect("member leave");
    println!(
        "\nuser {leaver} left; rekey message carries {} encryptions",
        rekey.cost()
    );

    // Deliver the message over T-mesh with REKEY-MESSAGE-SPLIT (Fig. 5).
    let mesh = group.tmesh();
    let report = tmesh_rekey_transport(
        &mesh,
        &net,
        rekey.encryptions(),
        TransportOptions::split().with_detail(),
    );
    let received = report.received_sets.as_ref().unwrap();
    for (i, member) in mesh.members().iter().enumerate() {
        let ring = rings.get_mut(&member.id).unwrap();
        ring.absorb(received[i].iter().map(|&e| &rekey.encryptions()[e]));
        assert_eq!(
            ring.group_key(),
            tree.group_key(),
            "{} must hold the new group key",
            member.id
        );
    }
    let max_recv = report.received.iter().max().unwrap();
    println!(
        "splitting delivered ≤ {max_recv} encryptions per member (instead of {} to everyone)",
        rekey.cost()
    );

    // Forward secrecy: the departed member cannot unwrap anything.
    let mut departed_ring = departed_ring;
    assert_eq!(departed_ring.absorb(rekey.encryptions()), 0);
    println!(
        "departed member decrypted 0 of {} encryptions — forward secrecy holds",
        rekey.cost()
    );

    // The tables also carry ordinary data multicast (Theorem 1).
    let outcome = mesh.multicast(&net, Source::User(0));
    outcome
        .exactly_once()
        .expect("each member receives exactly one copy");
    println!(
        "data multicast from {} reached all {} members exactly once in {:.1} ms",
        mesh.members()[0].id,
        mesh.members().len() - 1,
        outcome.finished_at() as f64 / 1000.0
    );
}
