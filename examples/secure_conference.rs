//! A secure teleconference (one of the paper's motivating applications):
//! concurrent rekey and data transport over the same T-mesh overlay.
//!
//! Simulates ten 512-second rekey intervals of a 120-member conference on a
//! GT-ITM-style transit-stub internet. In each interval some participants
//! join and leave; the key server batch-rekeys; the rekey message is
//! delivered with splitting; and a randomly chosen speaker multicasts a
//! "voice frame" whose latency we report — demonstrating that bursty rekey
//! traffic stays tiny at almost every access link while data flows over the
//! same neighbor tables.
//!
//! Run with: `cargo run --release --example secure_conference`

use std::collections::HashMap;

use group_rekeying::id::IdSpec;
use group_rekeying::keytree::{KeyRing, ModifiedKeyTree, RekeyArena};
use group_rekeying::net::gtitm::{generate, GtItmParams};
use group_rekeying::net::{HostId, RoutedNetwork};
use group_rekeying::proto::{tmesh_rekey_transport, AssignParams, Group, TransportOptions};
use group_rekeying::table::PrimaryPolicy;
use group_rekeying::tmesh::{metrics::PathMetrics, Source};
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
    let spec = IdSpec::PAPER;

    // Transit-stub internet; participants attach to random routers.
    let topo = generate(&GtItmParams::default(), &mut rng);
    let capacity = 200; // hosts provisioned for joins over the session
    let net = RoutedNetwork::random_attachment(topo.into_graph(), capacity + 1, &mut rng);
    let server = HostId(capacity);

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
    let mut next_host = 0usize;
    let mut clock: u64 = 0;

    // 120 initial participants.
    for _ in 0..120 {
        let id = group.join(HostId(next_host), &net, clock).unwrap().id;
        next_host += 1;
        tree.batch_rekey(std::slice::from_ref(&id), &[], &mut rng, &mut arena)
            .unwrap();
        rings.insert(id, KeyRing::new(id, tree.user_path_keys(&id)));
    }
    // Refresh rings to the post-bootstrap key state.
    for (id, ring) in rings.iter_mut() {
        *ring = KeyRing::new(*id, tree.user_path_keys(id));
    }
    println!("conference bootstrapped: {} participants\n", group.len());
    println!("interval  joins leaves  rekey_encs  max_recv/user  speaker_delay_p95_ms  rdp_p95");

    for interval in 0..10u64 {
        clock += 512_000_000; // 512 s rekey interval
        let joins_n = rng.gen_range(2..8);
        let leaves_n = rng.gen_range(2..8usize).min(group.len() - 1);

        let mut leaves = Vec::new();
        for _ in 0..leaves_n {
            let pick = rng.gen_range(0..group.len());
            let id = group.members()[pick].id;
            group.leave(&id, &net).unwrap();
            rings.remove(&id);
            leaves.push(id);
        }
        let mut joins = Vec::new();
        for _ in 0..joins_n {
            let id = group.join(HostId(next_host), &net, clock).unwrap().id;
            next_host += 1;
            joins.push(id);
        }
        let rekey = tree
            .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
            .unwrap();
        for id in &joins {
            rings.insert(*id, KeyRing::new(*id, tree.user_path_keys(id)));
        }

        // Rekey transport with splitting; every survivor decrypts its keys.
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
            assert_eq!(ring.group_key(), tree.group_key());
        }

        // A random speaker multicasts a data frame over the same tables.
        let speaker = rng.gen_range(0..group.len());
        let outcome = mesh.multicast(&net, Source::User(speaker));
        outcome.exactly_once().expect("Theorem 1");
        let metrics = PathMetrics::from_outcome(&mesh, &net, &outcome);
        let mut delays: Vec<f64> = metrics
            .delay
            .iter()
            .flatten()
            .map(|&d| d as f64 / 1000.0)
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut rdps: Vec<f64> = metrics.rdp.iter().flatten().copied().collect();
        rdps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = delays[(delays.len() * 95) / 100];
        let rdp95 = rdps[(rdps.len() * 95) / 100];

        println!(
            "{:>8}  {:>5} {:>6}  {:>10}  {:>13}  {:>20.1}  {:>7.2}",
            interval,
            joins_n,
            leaves_n,
            rekey.cost(),
            report.received.iter().max().unwrap(),
            p95,
            rdp95,
        );
    }
    group
        .check()
        .expect("tables stayed K-consistent across the whole session");
    println!("\nall tables K-consistent; every participant holds the current group key");
}
