//! Criterion scaling run of the event-driven group runtime: N members on
//! one simulated clock join through the protocol, then sustain a
//! leave+join churn trace with 2% per-copy loss on the overlay rekey
//! transport, at N ∈ {64, 256, 1024}.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rekey_bench::churn_runtime_fixture;
use rekey_proto::{RuntimeConfig, ShardedGroupRuntime};

fn bench_churn_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("churn_scale");
    g.sample_size(10);
    for members in [64usize, 256, 1024] {
        let (net, config, trace, finish) = churn_runtime_fixture(members, 8, 0xC4C4);
        g.throughput(Throughput::Elements(members as u64));
        g.bench_with_input(
            BenchmarkId::new("runtime_churn", members),
            &members,
            |b, _| {
                b.iter(|| {
                    let runtime_config = RuntimeConfig::builder().loss(0.02).seed(0xC4C4).build();
                    let mut rt =
                        ShardedGroupRuntime::new(config.clone(), runtime_config, net.clone());
                    rt.run_trace(&trace);
                    rt.finish(finish);
                    rt.snapshot().intervals
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_churn_scale);
criterion_main!(benches);
