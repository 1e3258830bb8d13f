#![cfg(test)]
//! Equivalence property tests: the arena-backed [`ModifiedKeyTree`]
//! against the retained `BTreeMap` reference oracle
//! ([`ReferenceKeyTree`]), churned in lockstep with identical RNG seeds.
//!
//! Both implementations draw from their RNG in the same order, so the
//! comparison is total: not just structure and versions but key material
//! and encryption ciphertexts must match byte for byte, across random
//! join/leave/crash schedules that exercise pruning, slot reuse, and the
//! tombstone version-resume path.

use crate::reference::ReferenceKeyTree;
use crate::{ModifiedKeyTree, RekeyArena};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rekey_id::{IdSpec, UserId};

fn spec() -> IdSpec {
    // A deliberately small ID space (27 IDs) so churn recreates pruned
    // node IDs often, hammering the tombstone map on both sides.
    IdSpec::new(3, 3).unwrap()
}

/// One churn interval: joins, graceful leaves, and crashes. A crash is a
/// member removed without having announced anything — at the key-tree
/// level it rekeys exactly like a leave (the server prunes the u-node and
/// changes the path keys), which is precisely what both implementations
/// must agree on.
struct Interval {
    joins: Vec<UserId>,
    leaves: Vec<UserId>,
    crashes: Vec<UserId>,
}

/// Interprets a byte stream as a churn schedule: per interval up to 3
/// joins (absent IDs), 2 leaves and 2 crashes (present IDs).
fn schedule(bytes: &[u8]) -> Vec<Interval> {
    let s = spec();
    let mut present: std::collections::BTreeSet<u64> = Default::default();
    let mut intervals = Vec::new();
    for chunk in bytes.chunks(7) {
        let mut joins: std::collections::BTreeSet<u64> = Default::default();
        let mut gone: std::collections::BTreeSet<u64> = Default::default();
        let mut leaves = Vec::new();
        let mut crashes = Vec::new();
        for (i, &b) in chunk.iter().enumerate() {
            let idx = u64::from(b) % s.id_space();
            if i < 3 {
                if !present.contains(&idx) && joins.insert(idx) {
                    present.insert(idx);
                }
            } else if present.contains(&idx) && !joins.contains(&idx) && gone.insert(idx) {
                present.remove(&idx);
                if i < 5 {
                    leaves.push(idx);
                } else {
                    crashes.push(idx);
                }
            }
        }
        let to_ids = |v: Vec<u64>| -> Vec<UserId> {
            v.into_iter().map(|i| UserId::from_index(&s, i)).collect()
        };
        intervals.push(Interval {
            joins: joins
                .into_iter()
                .map(|i| UserId::from_index(&s, i))
                .collect(),
            leaves: to_ids(leaves),
            crashes: to_ids(crashes),
        });
    }
    intervals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full-outcome equivalence: same seed, same batches ⇒ identical
    /// rekey messages, identical keys, identical structure — including
    /// after prune/recreate cycles (tombstone version resumes).
    #[test]
    fn arena_matches_reference_oracle(bytes in vec(any::<u8>(), 0..140), seed in 0u64..1000) {
        let s = spec();
        let mut arena_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut oracle_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut arena = ModifiedKeyTree::new(&s);
        let mut oracle = ReferenceKeyTree::new(&s);
        let mut arena_scratch = RekeyArena::new();
        let mut oracle_scratch = RekeyArena::new();
        for iv in schedule(&bytes) {
            // Crashes reach the server as failure notices and enter the
            // same batch as ordinary leaves.
            let mut departed = iv.leaves.clone();
            departed.extend(iv.crashes.iter().cloned());
            let a = arena
                .batch_rekey(&iv.joins, &departed, &mut arena_rng, &mut arena_scratch)
                .unwrap();
            let o = oracle
                .batch_rekey(&iv.joins, &departed, &mut oracle_rng, &mut oracle_scratch)
                .unwrap();
            prop_assert_eq!(&a, &o, "outcomes diverged");
            prop_assert_eq!(arena.node_count(), oracle.node_count());
            prop_assert_eq!(arena.user_count(), oracle.user_count());
            prop_assert_eq!(arena.group_key(), oracle.group_key());
            // Every member's path keys agree (IDs, versions, material),
            // and every encryption names a key version the arena tree can
            // produce through its handle API.
            for u in (0..s.id_space()).map(|i| UserId::from_index(&s, i)) {
                prop_assert_eq!(arena.contains_user(&u), oracle.contains_user(&u));
                let via_arena: Vec<_> = arena.user_path_keys(&u).cloned().collect();
                prop_assert_eq!(via_arena, oracle.user_path_keys(&u));
                if let Some(h) = arena.user_handle(&u) {
                    prop_assert_eq!(
                        arena.path_keys_at(h).cloned().collect::<Vec<_>>(),
                        oracle.user_path_keys(&u)
                    );
                }
            }
        }
    }

    /// Error behavior matches too: invalid batches are rejected with the
    /// same error by both implementations, leaving both trees unchanged.
    #[test]
    fn arena_matches_reference_errors(bytes in vec(any::<u8>(), 7..70), seed in 0u64..200) {
        let s = spec();
        let mut arena_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut oracle_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut arena = ModifiedKeyTree::new(&s);
        let mut oracle = ReferenceKeyTree::new(&s);
        let mut arena_scratch = RekeyArena::new();
        let mut oracle_scratch = RekeyArena::new();
        for chunk in bytes.chunks(4) {
            // Build deliberately unvalidated batches straight from bytes:
            // duplicates, joins of members, leaves of strangers included.
            let ids: Vec<UserId> = chunk
                .iter()
                .map(|&b| UserId::from_index(&s, u64::from(b) % s.id_space()))
                .collect();
            let (joins, leaves) = ids.split_at(ids.len() / 2);
            let a = arena.batch_rekey(joins, leaves, &mut arena_rng, &mut arena_scratch);
            let o = oracle.batch_rekey(joins, leaves, &mut oracle_rng, &mut oracle_scratch);
            prop_assert_eq!(a.is_err(), o.is_err());
            if let (Err(ae), Err(oe)) = (&a, &o) {
                prop_assert_eq!(ae, oe);
            }
            prop_assert_eq!(arena.group_key(), oracle.group_key());
            prop_assert_eq!(arena.node_count(), oracle.node_count());
        }
    }
}

/// Deterministic spot check of the tombstone path: prune a whole subtree,
/// recreate the same IDs, and require both trees to resume versions past
/// the retired values in lockstep.
#[test]
fn tombstone_resume_in_lockstep() {
    let s = spec();
    let mut arena_rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut oracle_rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut arena = ModifiedKeyTree::new(&s);
    let mut oracle = ReferenceKeyTree::new(&s);
    let mut arena_scratch = RekeyArena::new();
    let mut oracle_scratch = RekeyArena::new();
    let a0 = UserId::new(&s, vec![0, 0, 0]).unwrap();
    let a1 = UserId::new(&s, vec![0, 0, 1]).unwrap();
    let b = UserId::new(&s, vec![1, 0, 0]).unwrap();
    for (joins, leaves) in [
        (vec![a0, a1, b], vec![]),
        (vec![], vec![a0, a1]), // prunes subtree [0]
        (vec![a0], vec![]),     // recreates [0], [0,0], [0,0,0]
        (vec![], vec![a0]),
        (vec![a0], vec![]), // second resume of the same IDs
    ] {
        let a = arena
            .batch_rekey(&joins, &leaves, &mut arena_rng, &mut arena_scratch)
            .unwrap();
        let o = oracle
            .batch_rekey(&joins, &leaves, &mut oracle_rng, &mut oracle_scratch)
            .unwrap();
        assert_eq!(a, o);
    }
    let leaf = arena.user_handle(&a0).unwrap();
    assert!(
        arena.key_at(leaf).version() >= 2,
        "third incarnation of [0,0,0] must sit past two retirements, got v{}",
        arena.key_at(leaf).version()
    );
    assert_eq!(
        arena.key_at(leaf),
        oracle.key(&a0.as_prefix()).unwrap(),
        "resumed versions and material agree"
    );
}
