//! Criterion micro-benchmarks for the performance-critical primitives:
//! ChaCha20 key wrapping, SipHash MACs, neighbor-table operations, the
//! FORWARD next-hop computation and Dijkstra routing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rekey_crypto::{chacha, siphash, Encryption, Key};
use rekey_id::{IdPrefix, IdSpec, UserId};
use rekey_net::gtitm::{generate, GtItmParams};
use rekey_net::{shortest_paths, MatrixNetwork, PlanetLabParams, RouterId};
use rekey_table::{oracle, Member, NeighborRecord, PrimaryPolicy};
use rekey_tmesh::forward::user_next_hops;

fn rng() -> rand_chacha::ChaCha12Rng {
    rand_chacha::ChaCha12Rng::seed_from_u64(0xBE7C)
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let mut r = rng();
    let key = [7u8; chacha::KEY_LEN];
    let nonce = [3u8; chacha::NONCE_LEN];

    g.throughput(Throughput::Bytes(chacha::BLOCK_LEN as u64));
    g.bench_function("chacha20_block", |b| {
        b.iter(|| chacha::block(std::hint::black_box(&key), 1, std::hint::black_box(&nonce)))
    });

    let mut buf = vec![0u8; 1024];
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("chacha20_xor_1k", |b| {
        b.iter(|| chacha::xor_stream(&key, 0, &nonce, std::hint::black_box(&mut buf)))
    });

    let data = vec![0xA5u8; 256];
    g.throughput(Throughput::Bytes(256));
    g.bench_function("siphash24_256B", |b| {
        b.iter(|| siphash::siphash24(&[1u8; 16], std::hint::black_box(&data)))
    });

    let spec = IdSpec::PAPER;
    let aux = Key::random(IdPrefix::new(&spec, vec![3]).unwrap(), &mut r);
    let group_key = Key::random(IdPrefix::root(), &mut r);
    g.throughput(Throughput::Elements(1));
    g.bench_function("encryption_seal", |b| {
        b.iter(|| Encryption::seal(&aux, &group_key, &mut r))
    });
    let sealed = Encryption::seal(&aux, &group_key, &mut r);
    g.bench_function("encryption_open", |b| b.iter(|| sealed.open(&aux).unwrap()));
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    let mut r = rng();
    let spec = IdSpec::PAPER;
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut r);
    let members: Vec<Member> = (0..200)
        .map(|i| Member {
            id: UserId::from_index(&spec, r.gen_range(0..1_000_000)),
            host: rekey_net::HostId(i % 226),
            joined_at: i as u64,
        })
        .collect();

    g.bench_function("oracle_build_one_table_200", |b| {
        b.iter(|| {
            oracle::build_table(
                &spec,
                &members[0],
                &members,
                &net,
                4,
                PrimaryPolicy::SmallestRtt,
            )
        })
    });

    let table = oracle::build_table(
        &spec,
        &members[0],
        &members,
        &net,
        4,
        PrimaryPolicy::SmallestRtt,
    );
    g.bench_function("neighbor_insert_remove", |b| {
        let extra = Member {
            id: UserId::from_index(&spec, 999_999_999),
            host: rekey_net::HostId(5),
            joined_at: 9,
        };
        b.iter_batched(
            || table.clone(),
            |mut t| {
                t.insert(NeighborRecord {
                    member: extra,
                    rtt: 1,
                });
                t.remove(&extra.id);
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("forward_next_hops", |b| {
        b.iter(|| user_next_hops(std::hint::black_box(&table), 0))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    g.sample_size(20);
    let mut r = rng();
    let topo = generate(&GtItmParams::default(), &mut r);
    let graph = topo.into_graph();
    g.bench_function("dijkstra_5000_routers", |b| {
        b.iter(|| shortest_paths(std::hint::black_box(&graph), RouterId(0)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_crypto, bench_tables, bench_routing
}
criterion_main!(benches);
