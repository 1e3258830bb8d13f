//! Criterion timing of the indexed transport core (member index +
//! prefix-range split index), split against flooded, at
//! N ∈ {512, 2048, 8192} members.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rekey_bench::transport_fixture;
use rekey_proto::{tmesh_rekey_transport, TransportOptions};

fn bench_transport_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_scale");
    g.sample_size(10);
    for (users, leaves) in [(512usize, 32usize), (2048, 128), (8192, 512)] {
        let (net, mesh, encryptions) = transport_fixture(users, leaves, 0xBE7C);
        g.throughput(Throughput::Elements(users as u64));
        g.bench_with_input(BenchmarkId::new("indexed_split", users), &users, |b, _| {
            b.iter(|| tmesh_rekey_transport(&mesh, &net, &encryptions, TransportOptions::split()))
        });
        g.bench_with_input(BenchmarkId::new("indexed_flood", users), &users, |b, _| {
            b.iter(|| tmesh_rekey_transport(&mesh, &net, &encryptions, TransportOptions::flood()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_transport_scale);
criterion_main!(benches);
