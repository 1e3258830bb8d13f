#![cfg(test)]
//! Property tests: the three key trees under arbitrary churn sequences.

use crate::{ClusteredKeyTree, KeyRing, ModifiedKeyTree, OriginalKeyTree, RekeyArena};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rekey_id::{IdSpec, IdTree, UserId};

fn spec() -> IdSpec {
    IdSpec::new(3, 4).unwrap()
}

/// Interprets a byte stream as a churn schedule over a 64-ID universe:
/// each interval takes up to 4 joins (IDs not in the group) and up to 4
/// leaves (IDs in the group).
fn schedule(bytes: &[u8]) -> Vec<(Vec<UserId>, Vec<UserId>)> {
    let s = spec();
    let mut present: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut intervals = Vec::new();
    for chunk in bytes.chunks(8) {
        let mut joins: std::collections::BTreeSet<u64> = Default::default();
        let mut leaves: std::collections::BTreeSet<u64> = Default::default();
        for (i, &b) in chunk.iter().enumerate() {
            let idx = u64::from(b) % s.id_space();
            if i % 2 == 0 {
                // Join: only IDs that are absent and not already joining.
                if !present.contains(&idx) && joins.insert(idx) {
                    present.insert(idx);
                }
            } else {
                // Leave: only IDs present before this interval.
                if present.contains(&idx) && !joins.contains(&idx) && leaves.insert(idx) {
                    present.remove(&idx);
                }
            }
        }
        let to_ids = |set: std::collections::BTreeSet<u64>| -> Vec<UserId> {
            set.into_iter().map(|i| UserId::from_index(&s, i)).collect()
        };
        intervals.push((to_ids(joins), to_ids(leaves)));
    }
    intervals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The modified key tree's structure equals the ID tree of the current
    /// membership after every interval (the §2.4 invariant), and every
    /// member holds D+1 path keys.
    #[test]
    fn modified_tree_tracks_id_tree(bytes in vec(any::<u8>(), 0..96), seed in 0u64..1000) {
        let s = spec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut tree = ModifiedKeyTree::new(&s);
        let mut arena = RekeyArena::new();
        let mut members: std::collections::BTreeSet<UserId> = Default::default();
        for (joins, leaves) in schedule(&bytes) {
            tree.batch_rekey(&joins, &leaves, &mut rng, &mut arena).unwrap();
            // Leaves apply before joins (a join may reuse a leaver's ID).
            for l in leaves { members.remove(&l); }
            for j in joins { members.insert(j); }
            let id_tree = IdTree::from_users(&s, members.iter().cloned());
            prop_assert!(tree.matches_id_tree(&id_tree));
            prop_assert_eq!(tree.user_count(), members.len());
            for m in &members {
                prop_assert_eq!(tree.user_path_keys(m).count(), s.depth() + 1);
            }
        }
    }

    /// A tracked user's key ring, fed the full rekey message each interval,
    /// always converges to the server's path keys — across arbitrarily many
    /// intervals.
    #[test]
    fn keyring_follows_server_over_arbitrary_churn(
        bytes in vec(any::<u8>(), 8..96),
        seed in 0u64..1000,
    ) {
        let s = spec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut tree = ModifiedKeyTree::new(&s);
        // Pin one tracked member that never leaves.
        let tracked = UserId::from_index(&s, 63);
        let mut arena = RekeyArena::new();
        tree.batch_rekey(std::slice::from_ref(&tracked), &[], &mut rng, &mut arena).unwrap();
        let mut ring = KeyRing::new(tracked, tree.user_path_keys(&tracked));
        for (joins, leaves) in schedule(&bytes) {
            let joins: Vec<UserId> =
                joins.into_iter().filter(|u| *u != tracked && !tree.contains_user(u)).collect();
            let leaves: Vec<UserId> =
                leaves.into_iter().filter(|u| *u != tracked && tree.contains_user(u)).collect();
            let out = tree.batch_rekey(&joins, &leaves, &mut rng, &mut arena).unwrap();
            ring.absorb(out.encryptions());
            prop_assert!(ring.matches_path(&s, tree.user_path_keys(&tracked)));
        }
    }

    /// The original key tree keeps its structural invariants and exact
    /// membership under arbitrary churn.
    #[test]
    fn original_tree_invariants_under_churn(bytes in vec(any::<u8>(), 0..96)) {
        let mut tree = OriginalKeyTree::new(4);
        let mut members: std::collections::BTreeSet<UserId> = Default::default();
        for (joins, leaves) in schedule(&bytes) {
            tree.batch_rekey(&joins, &leaves);
            for l in leaves { members.remove(&l); }
            for j in joins { members.insert(j); }
            prop_assert_eq!(tree.user_count(), members.len());
            tree.check_invariants().map_err(TestCaseError::fail)?;
            for m in &members {
                prop_assert!(tree.contains_user(m));
                prop_assert!(!tree.user_path(m).is_empty());
            }
        }
    }

    /// The clustered tree: membership is exact, every cluster's leader is
    /// the earliest-joined member, and only leaders have u-nodes.
    #[test]
    fn clustered_tree_leader_invariants(bytes in vec(any::<u8>(), 0..96), seed in 0u64..1000) {
        let s = spec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut tree = ClusteredKeyTree::new(&s);
        let mut arena = RekeyArena::new();
        let mut members: std::collections::BTreeSet<UserId> = Default::default();
        for (joins, leaves) in schedule(&bytes) {
            tree.batch_rekey(&joins, &leaves, &mut rng, &mut arena).unwrap();
            for l in leaves { members.remove(&l); }
            for j in joins { members.insert(j); }
            prop_assert_eq!(tree.user_count(), members.len());
            let mut leaders = 0;
            for m in &members {
                prop_assert!(tree.contains_user(m));
                let leader = *tree.leader_of(m).expect("cluster exists");
                prop_assert!(members.contains(&leader));
                prop_assert!(tree.tree().contains_user(&leader), "leader has a u-node");
                if tree.is_leader(m) {
                    leaders += 1;
                }
            }
            prop_assert_eq!(tree.tree().user_count(), leaders, "u-nodes are exactly the leaders");
        }
    }

    /// Cost relation at scale-free level: for leave-only batches the
    /// modified tree never costs less than the original when both start
    /// from the same full membership (the Fig. 12(b) direction).
    #[test]
    fn leave_only_cost_ordering(leave_picks in vec(0usize..48, 1..16), seed in 0u64..1000) {
        let s = spec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let all: Vec<UserId> = (0..48).map(|i| UserId::from_index(&s, i)).collect();
        let mut modified = ModifiedKeyTree::new(&s);
        let mut arena = RekeyArena::new();
        modified.batch_rekey(&all, &[], &mut rng, &mut arena).unwrap();
        let mut original = OriginalKeyTree::balanced(4, &all);
        let mut leaves: Vec<UserId> =
            leave_picks.iter().map(|&i| all[i]).collect();
        leaves.sort();
        leaves.dedup();
        let m = modified.batch_rekey(&[], &leaves, &mut rng, &mut arena).unwrap().cost();
        let o = original.batch_rekey(&[], &leaves).cost();
        // Identical D and degree-4 structure over a 48-leaf universe:
        // allow a small constant slack for pruning differences.
        prop_assert!(m + 4 >= o, "modified {} must not undercut original {} materially", m, o);
    }
}
