#![cfg(test)]
//! The inline `Copy` ID representation against a `Vec<u16>` model.
//!
//! `IdPrefix`/`UserId` store digits in fixed zero-padded slots and derive
//! `Ord`, `Eq` and `Hash`; the model is the plain digit string, whose
//! lexicographic order, equality and prefix relations are what the rest of
//! the system assumes. Exhaustive at `(3, 4)`, random at `(7, 256)` (every
//! slot used) and `(5, 65 535)` (the widest digits).

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::{subtree_cmp, IdPrefix, IdSpec, UserId, MAX_DEPTH};
use proptest::collection::vec;
use proptest::prelude::*;

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn model_common_prefix_len(a: &[u16], b: &[u16]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn model_subtree_cmp(prefix: &[u16], digits: &[u16]) -> Ordering {
    if digits.starts_with(prefix) {
        Ordering::Equal
    } else {
        digits.cmp(prefix)
    }
}

/// Every pairwise relation of two prefixes against the model.
fn check_pair(spec: &IdSpec, a: &[u16], b: &[u16]) {
    let pa = IdPrefix::new(spec, a.to_vec()).unwrap();
    let pb = IdPrefix::new(spec, b.to_vec()).unwrap();
    assert_eq!(pa.digits(), a);
    assert_eq!(pa.cmp(&pb), a.cmp(b), "Ord: {pa} vs {pb}");
    assert_eq!(pa.partial_cmp(&pb), Some(a.cmp(b)));
    assert_eq!(pa == pb, a == b, "Eq: {pa} vs {pb}");
    if a == b {
        assert_eq!(hash_of(&pa), hash_of(&pb), "Hash: {pa}");
    }
    assert_eq!(pa.is_prefix_of(&pb), b.starts_with(a), "{pa} ⊑ {pb}");
    assert_eq!(
        pa.is_related(&pb),
        a.starts_with(b) || b.starts_with(a),
        "{pa} ~ {pb}"
    );
    assert_eq!(pa.subtree_cmp(b), model_subtree_cmp(a, b), "{pa} / {pb}");
    assert_eq!(subtree_cmp(a, b), model_subtree_cmp(a, b));

    if a.len() == spec.depth() {
        let ua = pa.to_user_id(spec).expect("full length");
        assert_eq!(ua, UserId::new(spec, a.to_vec()).unwrap());
        assert_eq!(ua.as_prefix(), pa);
        assert_eq!(IdPrefix::from(ua), pa);
        assert_eq!(pb.is_prefix_of_id(&ua), a.starts_with(b), "{pb} ⊑ {ua}");
        if b.len() == spec.depth() {
            let ub = pb.to_user_id(spec).unwrap();
            assert_eq!(ua.cmp(&ub), a.cmp(b), "Ord: {ua} vs {ub}");
            assert_eq!(ua == ub, a == b);
            if a == b {
                assert_eq!(hash_of(&ua), hash_of(&ub));
            }
            assert_eq!(ua.common_prefix_len(&ub), model_common_prefix_len(a, b));
        }
    } else {
        assert_eq!(pa.to_user_id(spec), None);
    }
}

/// `child`, `parent`, `truncate`, `ancestors` and `UserId::prefix` rebuild
/// exactly the prefix that `IdPrefix::new` builds from the shorter string:
/// equal, same order position, same hash.
fn check_round_trips(spec: &IdSpec, a: &[u16]) {
    let pa = IdPrefix::new(spec, a.to_vec()).unwrap();
    assert_eq!(pa.len(), a.len());
    assert_eq!(pa.is_empty(), a.is_empty());
    assert_eq!(pa.last_digit(), a.last().copied());

    let mut grown = IdPrefix::root();
    for (len, &d) in a.iter().enumerate() {
        assert_eq!(grown, IdPrefix::new(spec, a[..len].to_vec()).unwrap());
        grown = grown.child(d);
        assert_eq!(grown.parent().unwrap().digits(), &a[..len]);
    }
    assert_eq!(grown, pa);
    assert_eq!(hash_of(&grown), hash_of(&pa));

    let chain: Vec<IdPrefix> = pa.ancestors().collect();
    assert_eq!(chain.len(), a.len());
    for len in 0..=a.len() {
        let fresh = IdPrefix::new(spec, a[..len].to_vec()).unwrap();
        let cut = pa.truncate(len);
        assert_eq!(cut, fresh, "truncate({len}) of {pa}");
        assert_eq!(cut.cmp(&fresh), Ordering::Equal);
        assert_eq!(hash_of(&cut), hash_of(&fresh));
        if len < a.len() {
            assert_eq!(chain[len], fresh);
            assert_eq!(hash_of(&chain[len]), hash_of(&fresh));
        }
    }
    match pa.parent() {
        None => assert!(a.is_empty()),
        Some(parent) => {
            let fresh = IdPrefix::new(spec, a[..a.len() - 1].to_vec()).unwrap();
            assert_eq!(parent, fresh);
            assert_eq!(hash_of(&parent), hash_of(&fresh));
        }
    }
    if a.len() == spec.depth() {
        let ua = UserId::new(spec, a.to_vec()).unwrap();
        assert_eq!(ua.depth(), a.len());
        for len in 0..=a.len() {
            let fresh = IdPrefix::new(spec, a[..len].to_vec()).unwrap();
            assert_eq!(ua.prefix(len), fresh);
            assert_eq!(hash_of(&ua.prefix(len)), hash_of(&fresh));
        }
        for (i, &d) in a.iter().enumerate() {
            assert_eq!(ua.digit(i), d);
        }
    }
}

fn all_strings(spec: &IdSpec) -> Vec<Vec<u16>> {
    let mut all = vec![Vec::new()];
    let mut level = vec![Vec::new()];
    for _ in 0..spec.depth() {
        let mut next = Vec::new();
        for s in &level {
            for d in 0..spec.base() {
                let mut e: Vec<u16> = s.clone();
                e.push(d);
                next.push(e);
            }
        }
        all.extend(next.iter().cloned());
        level = next;
    }
    all
}

#[test]
fn ids_are_inline_and_small() {
    assert!(std::mem::size_of::<UserId>() <= 16);
    assert!(std::mem::size_of::<IdPrefix>() <= 16);
    fn assert_copy<T: Copy>() {}
    assert_copy::<UserId>();
    assert_copy::<IdPrefix>();
}

#[test]
fn exhaustive_3_by_4_matches_the_model() {
    let spec = IdSpec::new(3, 4).unwrap();
    let all = all_strings(&spec);
    assert_eq!(all.len(), 1 + 4 + 16 + 64);
    for a in &all {
        check_round_trips(&spec, a);
        for b in &all {
            check_pair(&spec, a, b);
        }
    }
    // Sorting the values sorts the strings.
    let mut values: Vec<IdPrefix> = all
        .iter()
        .map(|s| IdPrefix::new(&spec, s.clone()).unwrap())
        .collect();
    values.sort();
    let mut strings = all.clone();
    strings.sort();
    let sorted: Vec<&[u16]> = values.iter().map(|p| p.digits()).collect();
    assert_eq!(
        sorted,
        strings.iter().map(Vec::as_slice).collect::<Vec<_>>()
    );
}

/// The tail must be zeroed: a prefix cut from a longer one carries no trace
/// of the digits it dropped, or derived `Eq`/`Ord`/`Hash` would see them.
#[test]
fn shortened_prefix_equals_the_freshly_built_one() {
    let spec = IdSpec::new(MAX_DEPTH, 65_535).unwrap();
    let long = IdPrefix::new(&spec, vec![9, 65_534, 3, 65_534, 1, 2, 65_534]).unwrap();
    let fresh = IdPrefix::new(&spec, vec![9, 65_534]).unwrap();
    let mut walked = long;
    while walked.len() > 2 {
        walked = walked.parent().unwrap();
    }
    for short in [long.truncate(2), walked, long.ancestors().nth(2).unwrap()] {
        assert_eq!(short, fresh);
        assert_eq!(short.cmp(&fresh), Ordering::Equal);
        assert_eq!(hash_of(&short), hash_of(&fresh));
        // …and still sorts before its own extensions, after its ancestors.
        assert!(short < long && short > long.truncate(1));
        assert_eq!(short.child(3).child(65_534), long.truncate(4));
    }
    let user = UserId::new(&spec, long.digits().to_vec()).unwrap();
    assert_eq!(user.prefix(2), fresh);
    assert_eq!(hash_of(&user.prefix(2)), hash_of(&fresh));
}

fn digits(spec: IdSpec) -> impl Strategy<Value = Vec<u16>> {
    vec(0..spec.base(), 0..=spec.depth())
}

/// A second string that shares a random-length prefix with the first, so
/// prefix relations and near-ties are actually exercised.
fn related_pair(spec: IdSpec) -> impl Strategy<Value = (Vec<u16>, Vec<u16>)> {
    (digits(spec), digits(spec), 0..=spec.depth()).prop_map(|(a, mut b, share)| {
        let share = share.min(a.len()).min(b.len());
        b[..share].copy_from_slice(&a[..share]);
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn deep_ids_match_the_model(
        (a, b) in related_pair(IdSpec::new(7, 256).unwrap()),
        full in vec(0u16..256, 7),
    ) {
        let spec = IdSpec::new(7, 256).unwrap();
        check_round_trips(&spec, &a);
        check_pair(&spec, &a, &b);
        check_pair(&spec, &full, &a);
        check_pair(&spec, &full, &full);
        check_round_trips(&spec, &full);
    }

    #[test]
    fn wide_digit_ids_match_the_model(
        (a, b) in related_pair(IdSpec::new(5, 65_535).unwrap()),
        full in vec(0u16..65_535, 5),
    ) {
        let spec = IdSpec::new(5, 65_535).unwrap();
        check_round_trips(&spec, &a);
        check_pair(&spec, &a, &b);
        check_pair(&spec, &full, &a);
        check_pair(&spec, &full, &full);
        check_round_trips(&spec, &full);
    }
}
