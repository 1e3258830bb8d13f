//! Verification of the rekey message splitting scheme against the paper's
//! correctness results:
//!
//! * **Theorem 2 / Corollary 1** — under splitting, every user receives an
//!   encryption exactly once iff the encryption is needed by the user or by
//!   at least one of its downstream users;
//! * end-to-end key delivery — after absorbing exactly the encryptions the
//!   split transport delivered, every surviving user holds the server's
//!   current path keys (real ChaCha20 unwrapping).

use std::collections::{BTreeSet, HashMap};

use rand::SeedableRng;
use rekey_id::{IdSpec, UserId};
use rekey_keytree::{KeyRing, ModifiedKeyTree, RekeyArena};
use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use rekey_proto::{tmesh_rekey_transport, AssignParams, Group, TransportOptions};
use rekey_table::PrimaryPolicy;
use rekey_tmesh::{Source, TmeshGroup};

struct Fixture {
    net: MatrixNetwork,
    group: Group,
    tree: ModifiedKeyTree,
    rings: HashMap<UserId, KeyRing>,
    rng: rand::rngs::StdRng,
    arena: RekeyArena,
}

fn fixture(spec: IdSpec, n: usize, seed: u64) -> Fixture {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng);
    let mut group = Group::new(
        &spec,
        HostId(net.host_count() - 1),
        4,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(spec.depth()),
    );
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut arena = RekeyArena::new();
    let mut rings = HashMap::new();
    for h in 0..n {
        let out = group.join(HostId(h), &net, h as u64).unwrap();
        tree.batch_rekey(std::slice::from_ref(&out.id), &[], &mut rng, &mut arena)
            .unwrap();
        rings.insert(out.id, KeyRing::new(out.id, tree.user_path_keys(&out.id)));
    }
    // Bring every ring up to date with the joins that happened after it.
    for (id, ring) in rings.iter_mut() {
        *ring = KeyRing::new(*id, tree.user_path_keys(id));
    }
    Fixture {
        net,
        group,
        tree,
        rings,
        rng,
        arena,
    }
}

/// Downstream sets per member, derived from an actual multicast session.
fn downstream_sets(mesh: &TmeshGroup, net: &MatrixNetwork) -> Vec<BTreeSet<usize>> {
    let outcome = mesh.multicast(net, Source::Server);
    assert!(outcome.exactly_once().is_ok());
    let n = mesh.members().len();
    // children[i] = members that received their copy from i.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (i, _) in mesh.members().iter().enumerate() {
        match outcome.first_delivery(i).unwrap().from {
            Source::Server => roots.push(i),
            Source::User(p) => children[p].push(i),
        }
    }
    let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    fn fill(i: usize, children: &[Vec<usize>], sets: &mut [BTreeSet<usize>]) {
        for &c in &children[i] {
            fill(c, children, sets);
            let sub = sets[c].clone();
            sets[i].insert(c);
            sets[i].extend(sub);
        }
    }
    for &r in &roots {
        fill(r, &children, &mut sets);
    }
    sets
}

#[test]
fn corollary1_split_delivers_exactly_the_needed_encryptions() {
    let spec = IdSpec::new(3, 8).unwrap();
    let mut fx = fixture(spec, 40, 11);

    // One churn interval: 6 joins, 6 leaves.
    let leaves: Vec<UserId> = fx
        .group
        .members()
        .iter()
        .step_by(7)
        .take(6)
        .map(|m| m.id)
        .collect();
    for l in &leaves {
        fx.group.leave(l, &fx.net).unwrap();
    }
    let mut joins = Vec::new();
    for h in 100..106 {
        joins.push(
            fx.group
                .join(HostId(h), &fx.net, 1000 + h as u64)
                .unwrap()
                .id,
        );
    }
    let out = fx
        .tree
        .batch_rekey(&joins, &leaves, &mut fx.rng, &mut fx.arena)
        .unwrap();
    assert!(out.cost() > 0);

    let mesh = fx.group.tmesh();
    let report = tmesh_rekey_transport(
        &mesh,
        &fx.net,
        out.encryptions(),
        TransportOptions::split().with_detail(),
    );
    let received = report.received_sets.as_ref().unwrap();
    let downstream = downstream_sets(&mesh, &fx.net);

    for (i, member) in mesh.members().iter().enumerate() {
        // Exactly once: no duplicates among received encryptions.
        let set: BTreeSet<usize> = received[i].iter().copied().collect();
        assert_eq!(
            set.len(),
            received[i].len(),
            "duplicate encryption at {}",
            member.id
        );

        // Expected set per Corollary 1: encryptions needed by the member or
        // by at least one downstream user.
        let mut expected = BTreeSet::new();
        for (e, enc) in out.encryptions().iter().enumerate() {
            let needed_by_me = enc.id().is_prefix_of_id(&member.id);
            let needed_downstream = downstream[i]
                .iter()
                .any(|&w| enc.id().is_prefix_of_id(&mesh.members()[w].id));
            if needed_by_me || needed_downstream {
                expected.insert(e);
            }
        }
        assert_eq!(set, expected, "Corollary 1 violated at {}", member.id);
    }
}

#[test]
fn split_end_to_end_key_delivery_over_churn_intervals() {
    let spec = IdSpec::new(3, 8).unwrap();
    let mut fx = fixture(spec, 30, 22);
    let mut next_host = 200;

    for interval in 0..5 {
        // Churn: 3 leaves, 4 joins per interval.
        let leaves: Vec<UserId> = fx
            .group
            .members()
            .iter()
            .skip(interval)
            .step_by(9)
            .take(3)
            .map(|m| m.id)
            .collect();
        for l in &leaves {
            fx.group.leave(l, &fx.net).unwrap();
            fx.rings.remove(l);
        }
        let mut joins = Vec::new();
        for _ in 0..4 {
            let out = fx
                .group
                .join(HostId(next_host), &fx.net, next_host as u64)
                .unwrap();
            next_host += 1;
            joins.push(out.id);
        }
        let out = fx
            .tree
            .batch_rekey(&joins, &leaves, &mut fx.rng, &mut fx.arena)
            .unwrap();
        for j in &joins {
            fx.rings
                .insert(*j, KeyRing::new(*j, fx.tree.user_path_keys(j)));
        }

        // Deliver with splitting; members absorb only what they received.
        let mesh = fx.group.tmesh();
        let report = tmesh_rekey_transport(
            &mesh,
            &fx.net,
            out.encryptions(),
            TransportOptions::split().with_detail(),
        );
        let received = report.received_sets.as_ref().unwrap();
        for (i, member) in mesh.members().iter().enumerate() {
            let ring = fx.rings.get_mut(&member.id).expect("member has a ring");
            ring.absorb(received[i].iter().map(|&e| &out.encryptions()[e]));
            assert!(
                ring.matches_path(&spec, fx.tree.user_path_keys(&member.id)),
                "interval {interval}: {} lacks current keys",
                member.id
            );
        }
    }
}

#[test]
fn splitting_reduces_received_bandwidth_massively() {
    let spec = IdSpec::new(3, 8).unwrap();
    let mut fx = fixture(spec, 50, 33);
    let leaves: Vec<UserId> = fx
        .group
        .members()
        .iter()
        .step_by(4)
        .take(10)
        .map(|m| m.id)
        .collect();
    for l in &leaves {
        fx.group.leave(l, &fx.net).unwrap();
    }
    let out = fx
        .tree
        .batch_rekey(&[], &leaves, &mut fx.rng, &mut fx.arena)
        .unwrap();
    let mesh = fx.group.tmesh();
    let with = tmesh_rekey_transport(&mesh, &fx.net, out.encryptions(), TransportOptions::split());
    let without =
        tmesh_rekey_transport(&mesh, &fx.net, out.encryptions(), TransportOptions::flood());
    let total_with: u64 = with.received.iter().sum();
    let total_without: u64 = without.received.iter().sum();
    assert!(
        total_with * 2 < total_without,
        "splitting must at least halve total received encryptions: {total_with} vs {total_without}"
    );
    // Without splitting every member receives the full message.
    assert!(without.received.iter().all(|&r| r == out.cost() as u64));
}
