//! Topology-aware user ID assignment (§3.1).
//!
//! A joining user determines its ID digit by digit. For digit `i` it
//!
//! 1. **collects** up to `P` user records per `(i, j)`-ID subtree by
//!    querying users it already knows (each query returns the queried
//!    user's table neighbors matching a target prefix);
//! 2. **measures** the gateway-router RTT `r(u, w)` to every collected
//!    user;
//! 3. computes the `F`-percentile of the RTTs per subtree and joins the
//!    subtree `b` with the smallest percentile if it is `≤ R_{i+1}`,
//!    otherwise stops probing;
//! 4. **notifies** the key server, which assigns the remaining digits so
//!    the final ID is unique (footnote 3 fallback included).
//!
//! The paper sets `P = 10`, `F = 80`-percentile and
//! `R = (150, 30, 9, 3)` ms for `D = 5`.
//!
//! Step 1 collects each digit once. A query's answer is one slice of the
//! queried user's table: the records of rows `i` and up, which are a suffix
//! of the table's (row, column, RTT) order. The seeds' answers go into one
//! vector, each user once (one hash set per digit), and the vector is
//! sorted by ID once; the `(i, j)`-ID subtrees' buckets are then its runs
//! by digit `i`, in ascending `j`. A bucket shorter than `P` is refined in
//! place: each refinement answer is added to it and only that bucket is
//! sorted again.

use std::ops::Range;

use rekey_id::{IdPrefix, IdSpec, IdTree, UserId, MAX_DEPTH};
use rekey_net::{ms, HostId, Micros, Network};
use rekey_table::{Member, NeighborRecord, NeighborTable};
use rekey_tmesh::metrics::{percentile, quantile};

use crate::group::IdSet;

/// Parameters of the ID assignment protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignParams {
    /// Users to collect per `(i, j)`-ID subtree (the paper's `P = 10`).
    pub p: usize,
    /// Percentile of measured RTTs compared against the thresholds (the
    /// paper's `F = 80`).
    pub f_percentile: u8,
    /// Delay thresholds `R_1 … R_{D−1}` in µs; `thresholds[i]` (= `R_{i+1}`)
    /// gates digit `i`.
    pub thresholds: Vec<Micros>,
}

impl AssignParams {
    /// The paper's simulation defaults for `D = 5`:
    /// `P = 10`, `F = 80`, `R = (150, 30, 9, 3)` ms.
    pub fn paper() -> AssignParams {
        AssignParams {
            p: 10,
            f_percentile: 80,
            thresholds: vec![ms(150), ms(30), ms(9), ms(3)],
        }
    }

    /// Paper-style defaults scaled to an arbitrary depth: thresholds halve
    /// (at least) per level, starting at 150 ms.
    pub fn for_depth(depth: usize) -> AssignParams {
        assert!(depth >= 1);
        if depth == 5 {
            return AssignParams::paper();
        }
        let base = [ms(150), ms(30), ms(9), ms(3), ms(1), ms(1), ms(1)];
        AssignParams {
            p: 10,
            f_percentile: 80,
            thresholds: base[..depth.saturating_sub(1).min(base.len())].to_vec(),
        }
    }
}

/// Message-cost statistics of one assignment run (§3.1.4 analyses the total
/// as `O(P · D · N^{1/D})` on average).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Query messages sent to other users (responses are counted by the
    /// caller as one message each).
    pub queries: u64,
    /// RTT probes performed in step 2.
    pub probes: u64,
    /// How many digits were determined by probing (the server assigned the
    /// rest).
    pub digits_probed: usize,
}

/// Read-only view of the group the assignment protocol runs against.
pub(crate) struct GroupView<'a> {
    pub spec: &'a IdSpec,
    /// The neighbor table of the member with the given ID.
    pub lookup: &'a dyn Fn(&UserId) -> &'a NeighborTable,
}

/// The records of `table`'s rows `r` and up. Row `r` holds the users that
/// share exactly `r` digits with the owner, and records are stored in
/// (row, column, RTT) order, so these rows are one suffix of the records.
fn rows_from(table: &NeighborTable, r: usize) -> &[NeighborRecord] {
    let records = table.iter_all().as_slice();
    let owner = table.owner();
    let start = records.partition_point(|rec| owner.common_prefix_len(&rec.member.id) < r);
    &records[start..]
}

/// A user ID as one integer in the same order: the IDs of one spec all
/// have its depth (at most 7), and every digit fits in 16 bits. The
/// collected records and the queried list compare these instead of digit
/// arrays.
fn key(id: &UserId) -> u128 {
    id.digits()
        .iter()
        .fold(0, |key, &d| key << 16 | u128::from(d))
}

/// Appends to `collected` the members of `records` that `seen` does not
/// hold yet, and adds them to `seen`.
fn collect(collected: &mut Vec<(u128, Member)>, seen: &mut IdSet, records: &[NeighborRecord]) {
    collected.extend(
        records
            .iter()
            .filter(|r| seen.insert(r.member.id))
            .map(|r| (key(&r.member.id), r.member)),
    );
}

/// Runs steps 1–3 for every digit, starting from the existing member
/// `seed`; returns the digits the joiner determined by probing plus the
/// message statistics.
///
/// A query to user `u` for the users under a prefix of length `r` that `u`
/// lies under answers with `u`'s table records of rows `r` and up (those
/// are exactly the records under the prefix) and `u`'s own record, which
/// the asker already holds.
pub(crate) fn probe_digits(
    view: &GroupView<'_>,
    params: &AssignParams,
    joiner: HostId,
    seed: Member,
    net: &impl Network,
) -> (Vec<u16>, AssignStats) {
    let (depth, table) = (view.spec.depth(), view.lookup);
    let mut stats = AssignStats::default();
    let mut digits: Vec<u16> = Vec::new();
    // Users known to share the currently-determined prefix with the joiner,
    // sorted by ID.
    let mut seeds: Vec<(u128, Member)> = vec![(key(&seed.id), seed)];
    let mut rtts: Vec<Micros> = Vec::with_capacity(params.p);
    // Per digit: every collected record once (`seen` holds their IDs),
    // sorted by ID, so that the (i, j)-ID subtrees' buckets are its runs
    // by digit `i`, in ascending `j`; those runs; and the users queried,
    // sorted.
    let mut collected: Vec<(u128, Member)> = Vec::new();
    let mut seen = IdSet::default();
    let mut buckets: Vec<(u16, Range<usize>)> = Vec::new();
    let mut queried: Vec<u128> = Vec::new();

    // The last digit is always assigned by the key server for uniqueness.
    for i in 0..depth.saturating_sub(1) {
        // Step 1: collect user records per (i, j)-ID subtree. The seeds are
        // distinct, and each is queried once.
        collected.clear();
        seen.clear();
        buckets.clear();
        queried.clear();
        for &(k, s) in &seeds {
            queried.push(k);
            if seen.insert(s.id) {
                collected.push((k, s));
            }
            collect(&mut collected, &mut seen, rows_from(table(&s.id), i));
        }
        stats.queries += seeds.len() as u64;
        collected.sort_unstable_by_key(|e| e.0);

        // Per-subtree refinement queries until P collected or exhausted,
        // querying the bucket's first unqueried member in ID order. A query
        // for the users under `digits ++ [j]` only returns users of bucket
        // `j`, so its new records go right after the bucket's run.
        let mut start = 0;
        while start < collected.len() {
            let j = collected[start].1.id.digit(i);
            let mut end = start + collected[start..].partition_point(|e| e.1.id.digit(i) == j);
            while end - start < params.p {
                let Some(&(k, next)) = collected[start..end]
                    .iter()
                    .find(|(k, _)| queried.binary_search(k).is_err())
                else {
                    break;
                };
                let at = queried.binary_search(&k).unwrap_err();
                queried.insert(at, k);
                stats.queries += 1;
                let before = collected.len();
                collect(&mut collected, &mut seen, rows_from(table(&next.id), i + 1));
                let added = collected.len() - before;
                collected[end..].rotate_right(added);
                end += added;
                collected[start..end].sort_unstable_by_key(|e| e.0);
            }
            buckets.push((j, start..end));
            start = end;
        }

        // Step 2: measure gateway RTTs to every collected user.
        // Step 3: smallest F-percentile per subtree vs. threshold R_{i+1}.
        let mut best: Option<(Micros, usize)> = None;
        for (at, (_, run)) in buckets.iter().enumerate() {
            rtts.clear();
            rtts.extend(collected[run.clone()].iter().take(params.p).map(|(_, m)| {
                stats.probes += 1;
                net.gateway_rtt(joiner, m.host)
            }));
            if rtts.is_empty() {
                continue;
            }
            rtts.sort_unstable();
            let f = quantile(&rtts, f64::from(params.f_percentile) / 100.0);
            // Buckets ascend in `j`, so the first smallest percentile wins
            // ties, as the smaller `j`.
            if best.is_none_or(|(bf, _)| f < bf) {
                best = Some((f, at));
            }
        }
        let threshold = params.thresholds.get(i).copied().unwrap_or(0);
        match best {
            Some((f, at)) if f <= threshold => {
                let (b, run) = buckets[at].clone();
                digits.push(b);
                stats.digits_probed += 1;
                seeds.clear();
                seeds.extend_from_slice(&collected[run]);
            }
            _ => break, // step 4 with a partial prefix
        }
    }
    (digits, stats)
}

/// Centralized digit determination via network coordinates (the GNP
/// extension of §5): "if the key server knows the GNP coordinates of all
/// the users, it can determine the ID for a joining user by centralized
/// computing". No queries or per-candidate probes are exchanged — the
/// joiner only measured the landmarks; `estimate(h)` returns the estimated
/// gateway RTT between the joiner and host `h`.
///
/// Returns the digits determined plus the number of estimate evaluations
/// (server-local computation, not messages).
pub(crate) fn centralized_digits(
    spec: &IdSpec,
    params: &AssignParams,
    members: &[Member],
    estimate: &dyn Fn(rekey_net::HostId) -> Micros,
) -> (Vec<u16>, u64) {
    let mut digits: Vec<u16> = Vec::new();
    let mut evaluations = 0u64;
    let mut candidates: Vec<&Member> = members.iter().collect();
    for i in 0..spec.depth().saturating_sub(1) {
        // Bucket the candidates (members sharing the determined prefix) by
        // their digit `i`, keeping up to P per bucket.
        let mut buckets: std::collections::BTreeMap<u16, Vec<&Member>> =
            std::collections::BTreeMap::new();
        for m in &candidates {
            let bucket = buckets.entry(m.id.digit(i)).or_default();
            if bucket.len() < params.p {
                bucket.push(m);
            }
        }
        let mut best: Option<(Micros, u16)> = None;
        for (&j, bucket) in &buckets {
            let rtts: Vec<Micros> = bucket
                .iter()
                .map(|m| {
                    evaluations += 1;
                    estimate(m.host)
                })
                .collect();
            if rtts.is_empty() {
                continue;
            }
            let f = percentile(&rtts, params.f_percentile);
            if best.is_none_or(|(bf, bj)| (f, j) < (bf, bj)) {
                best = Some((f, j));
            }
        }
        let threshold = params.thresholds.get(i).copied().unwrap_or(0);
        match best {
            Some((f, b)) if f <= threshold => {
                digits.push(b);
                candidates.retain(|m| m.id.digit(i) == b);
            }
            _ => break,
        }
    }
    (digits, evaluations)
}

/// The user ID that extends `prefix` with zeros.
fn zero_padded(spec: &IdSpec, prefix: &IdPrefix) -> Option<UserId> {
    let mut digits = [0u16; MAX_DEPTH];
    digits[..prefix.len()].copy_from_slice(prefix.digits());
    UserId::from_digits(spec, &digits[..spec.depth()]).ok()
}

/// Step 4, server side: given the digits the joiner determined, assigns the
/// remaining digits so that the new user lands in a fresh subtree and the
/// full ID is unique. Implements footnote 3: when no fresh sibling subtree
/// exists under the determined prefix, earlier digits are modified; as a
/// last resort any free ID is assigned.
///
/// Returns `None` only when the ID space is exhausted.
pub(crate) fn server_complete(
    spec: &IdSpec,
    id_tree: &IdTree,
    determined: &[u16],
) -> Option<UserId> {
    let depth = spec.depth();
    let base = spec.base();
    // Try to keep as many determined digits as possible: for cut from
    // len(determined) down to 0, look for a fresh digit right after the cut.
    for cut in (0..=determined.len()).rev() {
        let prefix = IdPrefix::from_digits(spec, &determined[..cut]).expect("validated digits");
        if id_tree.node(&prefix).is_none() && !prefix.is_empty() {
            // The determined prefix itself is fresh: pad with zeros.
            return zero_padded(spec, &prefix);
        }
        if cut == depth {
            continue; // a full-length prefix has no children
        }
        for x in 0..base {
            let candidate = prefix.child(x);
            if id_tree.node(&candidate).is_none() {
                return zero_padded(spec, &candidate);
            }
        }
    }
    // Every level-1 subtree exists: force the user into one with free space
    // (footnote 3's last resort) by depth-first search for a free slot.
    fn dfs(spec: &IdSpec, tree: &IdTree, prefix: IdPrefix) -> Option<UserId> {
        if prefix.len() == spec.depth() {
            return if tree.node(&prefix).is_none() {
                prefix.to_user_id(spec)
            } else {
                None
            };
        }
        for x in 0..spec.base() {
            let child = prefix.child(x);
            if tree.node(&child).is_none() {
                return zero_padded(spec, &child);
            }
            if let Some(found) = dfs(spec, tree, child) {
                return Some(found);
            }
        }
        None
    }
    dfs(spec, id_tree, IdPrefix::root())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IdSpec {
        IdSpec::new(3, 4).unwrap()
    }

    fn tree_of(ids: &[[u16; 3]]) -> IdTree {
        IdTree::from_users(
            &spec(),
            ids.iter()
                .map(|d| UserId::new(&spec(), d.to_vec()).unwrap()),
        )
    }

    #[test]
    fn server_completes_with_fresh_sibling() {
        let tree = tree_of(&[[0, 0, 0], [0, 1, 0]]);
        // Joiner determined [0]: fresh sibling subtree [0, 2] is available.
        let id = server_complete(&spec(), &tree, &[0]).unwrap();
        assert_eq!(id.digit(0), 0);
        assert!(
            tree.node(&id.prefix(2)).is_none(),
            "must land in a fresh level-2 subtree"
        );
    }

    #[test]
    fn server_completes_full_prefix_with_unique_last_digit() {
        let tree = tree_of(&[[0, 0, 0], [0, 0, 1]]);
        let id = server_complete(&spec(), &tree, &[0, 0]).unwrap();
        assert_eq!(&id.digits()[..2], &[0, 0]);
        assert!(!tree.contains_user(&id));
    }

    #[test]
    fn footnote3_modifies_earlier_digits_when_subtree_full() {
        // Fill every child of [0, 0]: determined [0, 0] cannot host a new
        // unique leaf → the server must modify digit 1.
        let ids: Vec<[u16; 3]> = (0..4).map(|x| [0, 0, x]).collect();
        let tree = tree_of(&ids);
        let id = server_complete(&spec(), &tree, &[0, 0]).unwrap();
        assert_eq!(id.digit(0), 0);
        assert_ne!(id.digit(1), 0, "digit 1 must be modified");
        assert!(!tree.contains_user(&id));
    }

    #[test]
    fn exhausted_space_returns_none() {
        let small = IdSpec::new(1, 2).unwrap();
        let tree = IdTree::from_users(
            &small,
            (0..2).map(|x| UserId::new(&small, vec![x]).unwrap()),
        );
        assert_eq!(server_complete(&small, &tree, &[]), None);
    }

    #[test]
    fn empty_prefix_finds_any_fresh_level1_subtree() {
        let tree = tree_of(&[[1, 0, 0]]);
        let id = server_complete(&spec(), &tree, &[]).unwrap();
        assert_ne!(id.digit(0), 1, "prefers a fresh level-1 subtree");
    }

    /// `rows_from(table, r)` is rows `r..D` read entry by entry, on random
    /// tables of random specs and capacities.
    #[test]
    fn a_row_suffix_is_the_rows_from_r_up() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rekey_table::PrimaryPolicy;

        let mut rng = StdRng::seed_from_u64(28);
        for _ in 0..200 {
            let spec = IdSpec::new(rng.gen_range(1..=5), rng.gen_range(2..=16)).unwrap();
            let random_id =
                |rng: &mut StdRng| UserId::from_index(&spec, rng.gen_range(0..spec.id_space()));
            let owner = random_id(&mut rng);
            let k = rng.gen_range(1..=4);
            let mut table = NeighborTable::new(&spec, owner, k, PrimaryPolicy::SmallestRtt);
            for host in 0..rng.gen_range(0..300) {
                let member = Member {
                    id: random_id(&mut rng),
                    host: HostId(host),
                    joined_at: 0,
                };
                table.insert(NeighborRecord {
                    member,
                    rtt: rng.gen_range(0..50),
                });
            }
            for r in 0..=spec.depth() {
                let rows: Vec<NeighborRecord> = (r..spec.depth())
                    .flat_map(|row| table.entries_in_row(row))
                    .flat_map(|(_, entry)| entry.iter().copied())
                    .collect();
                assert_eq!(rows_from(&table, r), &rows[..], "{spec:?} {owner} row {r}");
            }
        }
    }

    #[test]
    fn paper_params() {
        let p = AssignParams::paper();
        assert_eq!(p.p, 10);
        assert_eq!(p.f_percentile, 80);
        assert_eq!(p.thresholds, vec![150_000, 30_000, 9_000, 3_000]);
        assert_eq!(AssignParams::for_depth(5), p);
        assert_eq!(AssignParams::for_depth(3).thresholds.len(), 2);
    }
}
