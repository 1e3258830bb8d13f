//! Criterion benchmarks of whole rekeying operations at group scale:
//! batch rekeying on the three key trees, end-to-end split rekey transport,
//! and T-mesh multicast sessions (one event loop over the `Scheduler` each).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rekey_id::{IdSpec, UserId};
use rekey_keytree::{ClusteredKeyTree, KeyRing, ModifiedKeyTree, OriginalKeyTree, RekeyArena};
use rekey_net::{HostId, MatrixNetwork, PlanetLabParams};
use rekey_proto::{
    tmesh_rekey_transport, ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime,
    TransportOptions,
};
use rekey_table::{Member, PrimaryPolicy};
use rekey_tmesh::{Source, TmeshGroup};

fn rng() -> rand_chacha::ChaCha12Rng {
    rand_chacha::ChaCha12Rng::seed_from_u64(0x11EC)
}

fn unique_ids(spec: &IdSpec, n: usize, r: &mut impl Rng) -> Vec<UserId> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = UserId::from_index(spec, r.gen_range(0..spec.id_space()));
        if seen.insert(id) {
            out.push(id);
        }
    }
    out
}

fn bench_batch_rekey(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_rekey_1024_users_64_churn");
    g.sample_size(20);
    let mut r = rng();
    let spec = IdSpec::PAPER;
    let ids = unique_ids(&spec, 1024 + 64, &mut r);
    let (base, fresh) = ids.split_at(1024);
    let leaves = &base[..64];

    let mut arena = RekeyArena::new();
    let mut modified = ModifiedKeyTree::new(&spec);
    modified.batch_rekey(base, &[], &mut r, &mut arena).unwrap();
    g.throughput(Throughput::Elements(128));
    g.bench_function("modified", |b| {
        b.iter_batched(
            || (modified.clone(), rng(), RekeyArena::new()),
            |(mut t, mut r2, mut a)| {
                t.batch_rekey(fresh, leaves, &mut r2, &mut a).unwrap();
                a
            },
            BatchSize::SmallInput,
        )
    });

    let original = OriginalKeyTree::balanced(4, base);
    g.bench_function("original", |b| {
        b.iter_batched(
            || original.clone(),
            |mut t| t.batch_rekey(fresh, leaves),
            BatchSize::SmallInput,
        )
    });

    let mut clustered = ClusteredKeyTree::new(&spec);
    clustered
        .batch_rekey(base, &[], &mut r, &mut arena)
        .unwrap();
    g.bench_function("cluster", |b| {
        b.iter_batched(
            || (clustered.clone(), rng(), RekeyArena::new()),
            |(mut t, mut r2, mut a)| {
                t.batch_rekey(fresh, leaves, &mut r2, &mut a).unwrap();
                a
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn build_mesh(users: usize, r: &mut impl Rng) -> (MatrixNetwork, TmeshGroup, Vec<UserId>) {
    let spec = IdSpec::PAPER;
    let params = PlanetLabParams {
        continent_hosts: vec![users / 2 + 1, users / 4 + 1, users / 8 + 1, users / 8 + 1],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, r);
    let ids = unique_ids(&spec, users, r);
    let members: Vec<Member> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| Member {
            id: *id,
            host: HostId(i % (users / 2)),
            joined_at: i as u64,
        })
        .collect();
    let server = HostId(users / 2 + 1);
    let mesh = TmeshGroup::build(&spec, members, server, &net, 4, PrimaryPolicy::SmallestRtt);
    (net, mesh, ids)
}

fn bench_sessions(c: &mut Criterion) {
    let mut g = c.benchmark_group("tmesh_session");
    g.sample_size(20);
    for users in [128usize, 512] {
        let mut r = rng();
        let (net, mesh, _) = build_mesh(users, &mut r);
        g.throughput(Throughput::Elements(users as u64));
        g.bench_with_input(
            BenchmarkId::new("server_multicast", users),
            &users,
            |b, _| b.iter(|| mesh.multicast(&net, Source::Server)),
        );
    }
    g.finish();
}

fn bench_split_transport(c: &mut Criterion) {
    let mut g = c.benchmark_group("rekey_transport_512_users");
    g.sample_size(15);
    let mut r = rng();
    let (net, mesh, ids) = build_mesh(512, &mut r);
    let mut tree = ModifiedKeyTree::new(&IdSpec::PAPER);
    let mut arena = RekeyArena::new();
    tree.batch_rekey(&ids, &[], &mut r, &mut arena).unwrap();
    // NOTE: the transported message rekeys 32 members who stay in the mesh
    // snapshot — fine for throughput measurement purposes.
    let out = tree
        .batch_rekey(&[], &ids[..32], &mut r, &mut arena)
        .unwrap();
    g.throughput(Throughput::Elements(out.cost() as u64));
    g.bench_function("with_split", |b| {
        b.iter(|| tmesh_rekey_transport(&mesh, &net, out.encryptions(), TransportOptions::split()))
    });
    g.bench_function("without_split", |b| {
        b.iter(|| tmesh_rekey_transport(&mesh, &net, out.encryptions(), TransportOptions::flood()))
    });
    g.finish();
}

fn bench_keyring_absorb(c: &mut Criterion) {
    let mut g = c.benchmark_group("keyring");
    let mut r = rng();
    let spec = IdSpec::PAPER;
    let ids = unique_ids(&spec, 512, &mut r);
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut arena = RekeyArena::new();
    tree.batch_rekey(&ids, &[], &mut r, &mut arena).unwrap();
    let ring = KeyRing::new(ids[0], tree.user_path_keys(&ids[0]));
    let out = tree
        .batch_rekey(&[], &ids[256..], &mut r, &mut arena)
        .unwrap();
    g.throughput(Throughput::Elements(out.cost() as u64));
    g.bench_function("absorb_full_message", |b| {
        b.iter_batched(
            || ring.clone(),
            |mut ring| ring.absorb(out.encryptions()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The §3.1 join as `RtMsg` traffic: 64 joiners, 2 s apart, each probing
/// the group with queries and pings on the simulated driver.
fn bench_distributed_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("distributed_join");
    g.sample_size(10);
    let mut r = rng();
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut r);
    let group = GroupConfig::for_spec(&IdSpec::new(4, 16).unwrap()).k(2);
    let config = RuntimeConfig::builder().heartbeat_period(1 << 40).build();
    let trace: Vec<ChurnEvent> = (0..64).map(|i| ChurnEvent::join(i * 2_000_000)).collect();
    g.throughput(Throughput::Elements(64));
    g.bench_function("64_sequential_joins", |b| {
        b.iter(|| {
            let mut rt = ShardedGroupRuntime::new(group.clone(), config, net.clone());
            rt.run_trace(&trace);
            rt.finish(130_000_000)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(15);
    targets = bench_batch_rekey, bench_sessions, bench_split_transport, bench_keyring_absorb, bench_distributed_join
}
criterion_main!(benches);
