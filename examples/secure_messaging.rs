//! Secure group messaging with the high-level API: `GroupServer`,
//! `UserAgent`, wire-encoded rekey messages and group-key-sealed payloads.
//!
//! This is the shape a deployment would take: the server batches joins and
//! leaves into rekey intervals; rekey messages travel as *bytes* (the wire
//! codec) split per member over T-mesh; agents decrypt their keys and then
//! exchange ChaCha20-sealed chat messages under the group key. A departed
//! agent demonstrably loses the ability to read new traffic.
//!
//! Run with: `cargo run --release --example secure_messaging`

use std::collections::HashMap;

use group_rekeying::crypto::wire::{decode_rekey_message, encode_rekey_message};
use group_rekeying::id::{IdSpec, UserId};
use group_rekeying::net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::{GroupConfig, UserAgent};
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(2026);
    let spec = IdSpec::PAPER;

    let params = PlanetLabParams {
        continent_hosts: vec![20, 14, 8, 6],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut rng);
    let server_host = HostId(net.host_count() - 1);

    // Bootstrap interval: 24 members join.
    let mut server = GroupConfig::paper().seed(0x5EC).build(server_host);
    for h in 0..24 {
        let id = server.request_join(HostId(h), &net, h as u64).unwrap();
        println!("host {h:>2} admitted as {id}");
    }
    let outcome = server.end_interval();
    let mut agents: HashMap<UserId, UserAgent> = outcome
        .welcomes
        .into_iter()
        .map(|w| (w.id, UserAgent::from_welcome(w)))
        .collect();
    println!("\ninterval 1 complete: {} members keyed\n", agents.len());

    // Chat: a member seals a message; all agents open it.
    let alice = server.group().members()[0].id;
    let hello = agents[&alice]
        .seal_data(b"hello, group!", &mut rng)
        .unwrap();
    for (id, agent) in &agents {
        assert_eq!(agent.open_data(&hello).unwrap(), b"hello, group!");
        let _ = id;
    }
    println!("'{alice}' sent a sealed message; all 24 members opened it");

    // Churn interval: 3 members leave, 2 join. The rekey message is
    // serialised to bytes exactly as it would hit the network.
    let victims: Vec<UserId> = server
        .group()
        .members()
        .iter()
        .rev()
        .take(3)
        .map(|m| m.id)
        .collect();
    for v in &victims {
        server.request_leave(v, &net).unwrap();
    }
    let eve = agents.remove(&victims[0]).unwrap(); // keeps her old keys!
    for v in &victims[1..] {
        agents.remove(v);
    }
    for h in 30..32 {
        server
            .request_join(HostId(h), &net, 100 + h as u64)
            .unwrap();
    }
    let outcome = server.end_interval();
    for w in outcome.welcomes.clone() {
        println!("new member {} keyed via unicast welcome", w.id);
        agents.insert(w.id, UserAgent::from_welcome(w));
    }

    let bytes = encode_rekey_message(outcome.encryptions());
    println!(
        "\ninterval 2: {} left, {} joined; rekey message = {} encryptions = {} bytes on the wire",
        victims.len(),
        2,
        outcome.cost(),
        bytes.len()
    );
    let decoded = decode_rekey_message(&bytes, &spec).expect("codec round trip");
    assert_eq!(decoded, outcome.encryptions());

    // Split delivery over T-mesh; agents absorb their shares.
    let delivered = server.deliver(&net, &outcome);
    let mesh = server.mesh();
    let mut max_share = 0;
    for (i, member) in mesh.members().iter().enumerate() {
        max_share = max_share.max(delivered.member_indices(i).len());
        agents
            .get_mut(&member.id)
            .expect("every current member has an agent")
            .handle_rekey(outcome.interval, delivered.member(i));
    }
    println!(
        "split transport delivered at most {max_share} encryptions to any member \
         (total {} across the group)",
        delivered.total_received()
    );

    // New traffic under the new group key.
    let speaker = server.group().members()[rng.gen_range(0..server.group().len())].id;
    let secret = agents[&speaker]
        .seal_data(b"post-rekey secret", &mut rng)
        .unwrap();
    for agent in agents.values() {
        assert_eq!(agent.open_data(&secret).unwrap(), b"post-rekey secret");
    }
    assert!(
        eve.open_data(&secret).is_err(),
        "departed member must be locked out"
    );
    println!(
        "\nall {} current members read the post-rekey secret; the departed member cannot",
        agents.len()
    );
}
