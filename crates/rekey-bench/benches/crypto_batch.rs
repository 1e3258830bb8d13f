//! Criterion benchmark of the batch-rekey crypto pipeline: one churned
//! interval on a pre-grown 4k-member tree, swept across seal-thread
//! counts. The serial cell is the baseline the parallel cells answer to;
//! this bench tracks the per-interval latency shape under criterion's
//! statistics, and the `keytree_bulk` workload of `bench/` records the
//! end-to-end figures.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rekey_id::{IdSpec, UserId};
use rekey_keytree::{ModifiedKeyTree, RekeyArena};

fn rng() -> rand_chacha::ChaCha12Rng {
    rand_chacha::ChaCha12Rng::seed_from_u64(0x5EA1)
}

fn bench_crypto_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto_batch");
    g.sample_size(15);
    let spec = IdSpec::new(3, 16).unwrap();
    let ids: Vec<UserId> = (0..3_900).map(|i| UserId::from_index(&spec, i)).collect();
    let (base, fresh) = ids.split_at(3_600);
    let leaves = &base[..300];

    let mut r = rng();
    let mut arena = RekeyArena::new();
    let mut tree = ModifiedKeyTree::new(&spec);
    tree.batch_rekey(base, &[], &mut r, &mut arena).unwrap();

    // The churned interval costs >1024 encryptions, so the parallel cells
    // genuinely cross the scoped-thread threshold.
    for threads in [1usize, 2, 4, 8] {
        g.throughput(Throughput::Elements((fresh.len() + leaves.len()) as u64));
        g.bench_with_input(
            BenchmarkId::new("churn_interval", threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || {
                        let mut t = tree.clone();
                        t.set_seal_threads(threads);
                        (t, rng(), RekeyArena::new())
                    },
                    |(mut t, mut r2, mut a)| {
                        t.batch_rekey(fresh, leaves, &mut r2, &mut a).unwrap();
                        a
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(15);
    targets = bench_crypto_batch
}
criterion_main!(benches);
