#![cfg(test)]
//! The parallel seal pipeline against its serial twin: identically seeded
//! batches must be **byte-identical** at any seal-thread count, because
//! nonces are derived per job slot from one per-batch seed instead of
//! being drawn from the RNG mid-seal. These tests pin that contract at
//! batch sizes above the parallelism threshold (1024 jobs), where the
//! scoped-thread path actually runs, and below it, where sealing stays
//! serial — plus the arena-reuse regression: a big interval followed by a
//! small one into the same arena must leave no stale slots visible.

use crate::reference::ReferenceKeyTree;
use crate::{ModifiedKeyTree, RekeyArena};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rekey_id::{IdSpec, UserId};

/// 4096 IDs: enough for a batch whose seal-job count clears the
/// parallelism threshold.
fn big_spec() -> IdSpec {
    IdSpec::new(3, 16).unwrap()
}

fn ids(spec: &IdSpec, range: std::ops::Range<u64>) -> Vec<UserId> {
    range.map(|i| UserId::from_index(spec, i)).collect()
}

/// Runs the same two-interval churn (a 1200-user bootstrap, then mixed
/// joins + leaves) at the given thread count and returns both batches'
/// bytes.
type BatchBytes = (Vec<rekey_crypto::Encryption>, Vec<rekey_id::IdPrefix>);

fn run_at(threads: usize) -> (BatchBytes, BatchBytes) {
    let spec = big_spec();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    let mut tree = ModifiedKeyTree::new(&spec);
    tree.set_seal_threads(threads);
    let mut arena = RekeyArena::new();

    let bootstrap = ids(&spec, 0..1200);
    let first = {
        let out = tree
            .batch_rekey(&bootstrap, &[], &mut rng, &mut arena)
            .unwrap();
        assert!(
            out.cost() >= 1024,
            "bootstrap batch must clear the parallel threshold, got {}",
            out.cost()
        );
        (out.encryptions().to_vec(), out.updated().to_vec())
    };

    let joins = ids(&spec, 1200..1450);
    let leaves = ids(&spec, 0..300);
    let second = {
        let out = tree
            .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
            .unwrap();
        (out.encryptions().to_vec(), out.updated().to_vec())
    };
    (first, second)
}

/// Above the threshold, 2/4/8 worker threads and `0` (one per core) all
/// produce the bytes the serial path produces.
#[test]
fn seal_is_byte_identical_at_any_thread_count() {
    let serial = run_at(1);
    for threads in [2, 4, 8, 0] {
        let parallel = run_at(threads);
        assert_eq!(
            serial, parallel,
            "threads={threads} diverged from the serial seal"
        );
    }
}

/// Five nonces share a derived block, so a thread's chunk can start in the
/// middle of one: with a job count that is not a multiple of 5, and chunk
/// sizes that are not either, every thread count still seals the bytes the
/// serial path seals, and the reference oracle agrees.
#[test]
fn chunks_starting_inside_a_nonce_block_seal_identical_bytes() {
    let spec = big_spec();
    let run = |threads: usize| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EA1);
        let mut tree = ModifiedKeyTree::new(&spec);
        tree.set_seal_threads(threads);
        let mut arena = RekeyArena::new();
        let out = tree
            .batch_rekey(&ids(&spec, 0..1497), &[], &mut rng, &mut arena)
            .unwrap();
        (out.encryptions().to_vec(), out.updated().to_vec())
    };
    let serial = run(1);
    let cost = serial.0.len();
    assert!(
        cost >= 1024,
        "must clear the parallel threshold, got {cost}"
    );
    assert_ne!(cost % 5, 0, "job count {cost} must not be a multiple of 5");
    assert!(
        [2, 4, 8].iter().any(|t| cost.div_ceil(*t) % 5 != 0),
        "some chunk must start inside a nonce block"
    );
    for threads in [2, 4, 8] {
        assert_eq!(serial, run(threads), "threads={threads}");
    }
    let mut oracle = ReferenceKeyTree::new(&spec);
    let mut oracle_arena = RekeyArena::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EA1);
    let o = oracle
        .batch_rekey(&ids(&spec, 0..1497), &[], &mut rng, &mut oracle_arena)
        .unwrap();
    assert_eq!(serial.0, o.encryptions());
}

/// The parallel path also agrees with the `BTreeMap` reference oracle,
/// which has no job list, no arena reuse, and no threads at all.
#[test]
fn parallel_seal_matches_reference_oracle_above_threshold() {
    let spec = big_spec();
    let mut fast_rng = rand::rngs::StdRng::seed_from_u64(0xFACE);
    let mut oracle_rng = rand::rngs::StdRng::seed_from_u64(0xFACE);
    let mut fast = ModifiedKeyTree::new(&spec);
    fast.set_seal_threads(8);
    let mut oracle = ReferenceKeyTree::new(&spec);
    let mut fast_arena = RekeyArena::new();
    let mut oracle_arena = RekeyArena::new();

    let bootstrap = ids(&spec, 0..1100);
    let joins = ids(&spec, 1100..1250);
    let leaves = ids(&spec, 50..250);
    for (joins, leaves) in [(bootstrap, vec![]), (joins, leaves)] {
        let a = fast
            .batch_rekey(&joins, &leaves, &mut fast_rng, &mut fast_arena)
            .unwrap();
        let o = oracle
            .batch_rekey(&joins, &leaves, &mut oracle_rng, &mut oracle_arena)
            .unwrap();
        assert_eq!(a, o, "parallel fast tree diverged from the serial oracle");
    }
    assert_eq!(fast.group_key(), oracle.group_key());
}

/// A large interval followed by a small one into the *same* arena: the
/// small batch's view must match a fresh arena's bytes exactly, and its
/// slices must not leak slots still holding the big interval's output.
#[test]
fn arena_reuse_exposes_no_stale_slots() {
    let spec = big_spec();
    let run = |reuse: bool| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA5A5);
        let mut tree = ModifiedKeyTree::new(&spec);
        let mut arena = RekeyArena::new();
        let bootstrap = ids(&spec, 0..1200);
        let big_cost = tree
            .batch_rekey(&bootstrap, &[], &mut rng, &mut arena)
            .unwrap()
            .cost();
        let mut small_arena = RekeyArena::new();
        let arena = if reuse { &mut arena } else { &mut small_arena };
        let out = tree
            .batch_rekey(&[], &ids(&spec, 7..8), &mut rng, arena)
            .unwrap();
        assert!(out.cost() < big_cost, "the second interval must be smaller");
        assert_eq!(out.encryptions().len(), out.cost());
        assert_eq!(out.updated().len(), spec.depth());
        (out.encryptions().to_vec(), out.updated().to_vec())
    };
    assert_eq!(
        run(true),
        run(false),
        "a reused arena must be indistinguishable from a fresh one"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Below the threshold the seal stays serial regardless of the
    /// setting, and every thread count agrees with the reference oracle
    /// across random churn schedules.
    #[test]
    fn any_thread_count_matches_oracle_on_small_batches(
        bytes in vec(any::<u8>(), 0..120),
        seed in 0u64..500,
        threads in prop_oneof![Just(0usize), Just(2usize), Just(4usize), Just(8usize)],
    ) {
        let spec = IdSpec::new(3, 3).unwrap();
        let mut fast_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut oracle_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fast = ModifiedKeyTree::new(&spec);
        fast.set_seal_threads(threads);
        let mut oracle = ReferenceKeyTree::new(&spec);
        let mut fast_arena = RekeyArena::new();
        let mut oracle_arena = RekeyArena::new();

        let mut present: std::collections::BTreeSet<u64> = Default::default();
        for chunk in bytes.chunks(6) {
            let mut joins = Vec::new();
            let mut leaves = Vec::new();
            for (i, &b) in chunk.iter().enumerate() {
                let idx = u64::from(b) % spec.id_space();
                let user = UserId::from_index(&spec, idx);
                if i % 2 == 0 {
                    if present.insert(idx) {
                        joins.push(user);
                    }
                } else if !joins.contains(&user) && present.remove(&idx) {
                    leaves.push(user);
                }
            }
            let a = fast
                .batch_rekey(&joins, &leaves, &mut fast_rng, &mut fast_arena)
                .unwrap();
            let o = oracle
                .batch_rekey(&joins, &leaves, &mut oracle_rng, &mut oracle_arena)
                .unwrap();
            prop_assert_eq!(a, o);
        }
    }
}
