//! Topology-aware user ID assignment (§3.1).
//!
//! A joining user determines its ID digit by digit. For digit `i` it
//!
//! 1. **collects** up to `P` user records per `(i, j)`-ID subtree by
//!    querying users it already knows (each query returns the queried
//!    user's table neighbors matching a target prefix);
//! 2. **measures** the gateway-router RTT `r(u, w)` to the first `P`
//!    collected users of each subtree;
//! 3. computes the `F`-percentile of the RTTs per subtree and joins the
//!    subtree `b` with the smallest percentile if it is `≤ R_{i+1}`,
//!    otherwise stops probing;
//! 4. **notifies** the key server, which assigns the remaining digits so
//!    the final ID is unique (footnote 3 fallback included).
//!
//! The paper sets `P = 10`, `F = 80`-percentile and
//! `R = (150, 30, 9, 3)` ms for `D = 5`.
//!
//! Steps 1–3 are one state machine with no I/O, `Probe`: it names the
//! next user to query and the target prefix, takes each answer, lists the
//! users to measure and decides the digit from RTTs it is handed. Two
//! drivers run it. `probe_digits`, behind `Group::join`, answers every
//! query at once from the queried user's table and measures with
//! `Network::gateway_rtt`; the runtime's joining `RtMember` sends each
//! query and ping as an `RtMsg` and feeds the probe the replies as they
//! arrive.
//!
//! The probe collects each digit once. A query's answer is one slice of
//! the queried user's table: the records of rows `i` and up, which are a
//! suffix of the table's (row, column, RTT) order. The seeds' answers go
//! into one vector, each user once (one hash set per digit), and the vector
//! is sorted by ID once; the `(i, j)`-ID subtrees' buckets are then its
//! runs by digit `i`, in ascending `j`. A bucket shorter than `P` is refined
//! in place, one query in flight at a time: a refinement query for
//! `digits ++ [j]` returns only users of bucket `j`, so its answer is added
//! to that bucket alone and only that bucket is sorted again. Each bucket's
//! queries, and so the digits, depend only on that bucket's own answers,
//! not on the order in which answers to different buckets arrive.

use std::ops::Range;

use rekey_id::{IdPrefix, IdSpec, IdTree, UserId, MAX_DEPTH};
use rekey_net::{ms, HostId, Micros, Network};
use rekey_table::{Member, NeighborRecord, NeighborTable};
use rekey_tmesh::metrics::quantile;

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

/// §3.1 step 3 for digit `i`: of `subtrees`, given in ascending `j`, the
/// one whose gateway RTTs (`measure` appends them to the buffer it is
/// handed) have the smallest `F`-percentile — the first, so the smaller
/// `j`, on a tie — if that percentile is `≤ R_{i+1}`. A subtree with no RTT
/// is passed over; `rtts` is scratch space.
fn choose<T>(
    params: &AssignParams,
    i: usize,
    rtts: &mut Vec<Micros>,
    subtrees: impl IntoIterator<Item = T>,
    mut measure: impl FnMut(&T, &mut Vec<Micros>),
) -> Option<T> {
    rtts.clear();
    rtts.reserve(params.p);
    let mut best: Option<(Micros, T)> = None;
    for subtree in subtrees {
        rtts.clear();
        measure(&subtree, rtts);
        if rtts.is_empty() {
            continue;
        }
        rtts.sort_unstable();
        let f = quantile(rtts, f64::from(params.f_percentile) / 100.0);
        if best.as_ref().is_none_or(|(bf, _)| f < *bf) {
            best = Some((f, subtree));
        }
    }
    let threshold = params.thresholds.get(i).copied().unwrap_or(0);
    best.filter(|(f, _)| *f <= threshold)
        .map(|(_, subtree)| subtree)
}

/// A digit round's bucket: the `(i, j)`-ID subtree's digit `j`, its run of
/// the collected records, and whether a query to it awaits its answer.
#[derive(Debug, Clone)]
struct Bucket {
    j: u16,
    run: Range<usize>,
    asking: bool,
}

/// §3.1 steps 1–3 for one joiner, as a state machine with no I/O. Each
/// digit's round sends the queries `next_query` names and feeds their
/// replies, in any order, to `answer`; once nothing is awaited, `decide`
/// reads the RTTs of the users `to_measure` names.
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    depth: usize,
    /// The digits determined so far.
    prefix: IdPrefix,
    /// This round's records, each user once: first the round's seeds, then
    /// the seeds' answers, and once every seed has answered, sorted by ID
    /// so that the buckets are its runs.
    collected: Vec<(u128, Member)>,
    /// The IDs in `collected`.
    seen: IdSet,
    /// The round's seeds are `collected[..seeds]`.
    seeds: usize,
    /// The round's buckets in ascending `j`, once every seed has answered.
    buckets: Vec<Bucket>,
    /// The users queried this round, sorted: the seeds first, in order.
    queried: Vec<u128>,
    /// Queries whose answers have not arrived.
    awaiting: usize,
    rtts: Vec<Micros>,
    stats: AssignStats,
}

impl Probe {
    /// A probe that starts from the existing member `seed`; the joiner's
    /// ID has the depth of `seed`'s.
    pub(crate) fn new(seed: Member) -> Probe {
        let mut probe = Probe {
            depth: seed.id.depth(),
            prefix: IdPrefix::root(),
            collected: Vec::new(),
            seen: IdSet::default(),
            seeds: 0,
            buckets: Vec::new(),
            queried: Vec::new(),
            awaiting: 0,
            rtts: Vec::new(),
            stats: AssignStats::default(),
        };
        // The last digit is always assigned by the key server for
        // uniqueness, so a depth-1 ID leaves nothing to probe.
        if probe.depth > 1 {
            probe.collected.push((key(&seed.id), seed));
        }
        probe.start_round();
        probe
    }

    /// Starts a round whose seeds are `collected`, distinct and sorted.
    fn start_round(&mut self) {
        self.seen.clear();
        self.seen.extend(self.collected.iter().map(|(_, m)| m.id));
        self.seeds = self.collected.len();
        self.buckets.clear();
        self.queried.clear();
    }

    /// The next query to send: the user to ask and the target prefix.
    /// Every seed is asked first, for the determined prefix; once all have
    /// answered, each bucket shorter than `P` is asked for its own prefix,
    /// one query in flight at a time, by its first unqueried member in ID
    /// order. A bucket with nobody left to ask is final. `None`: nothing to
    /// ask until an answer arrives, or, with nothing awaited, ever.
    pub(crate) fn next_query(&mut self, params: &AssignParams) -> Option<(Member, IdPrefix)> {
        if let Some(&(k, seed)) = self.collected[..self.seeds].get(self.queried.len()) {
            self.queried.push(k);
            self.awaiting += 1;
            self.stats.queries += 1;
            return Some((seed, self.prefix));
        }
        let (collected, queried) = (&self.collected, &self.queried);
        let unqueried = |&(k, m): &(u128, Member)| Some((queried.binary_search(&k).err()?, k, m));
        let (bucket, (q, k, member)) = (self.buckets.iter_mut())
            .filter(|b| !b.asking && b.run.len() < params.p)
            .find_map(|b| {
                let next = collected[b.run.clone()].iter().find_map(unqueried)?;
                Some((b, next))
            })?;
        bucket.asking = true;
        self.queried.insert(q, k);
        self.awaiting += 1;
        self.stats.queries += 1;
        Some((member, self.prefix.child(bucket.j)))
    }

    /// Takes the answer to the query for `target`: the queried user's
    /// table records under `target`.
    pub(crate) fn answer(&mut self, target: &IdPrefix, records: &[NeighborRecord]) {
        self.awaiting -= 1;
        let before = self.collected.len();
        collect(&mut self.collected, &mut self.seen, records);
        let i = self.prefix.len();
        if target.len() == i {
            // A seed's answer. Once every seed has answered, the buckets
            // are the runs of the sorted records.
            if self.queried.len() == self.seeds && self.awaiting == 0 {
                self.collected.sort_unstable_by_key(|e| e.0);
                let mut start = 0;
                while let Some((_, first)) = self.collected.get(start) {
                    let j = first.id.digit(i);
                    let len = self.collected[start..].partition_point(|e| e.1.id.digit(i) == j);
                    let run = start..start + len;
                    start = run.end;
                    self.buckets.push(Bucket {
                        j,
                        run,
                        asking: false,
                    });
                }
            }
            return;
        }
        // A refinement answer holds only users of bucket `target[i]`, so
        // they go right after its run, and the later runs move up.
        let at = (self.buckets).partition_point(|b| b.j < target.digits()[i]);
        let added = self.collected.len() - before;
        let end = self.buckets[at].run.end;
        self.collected[end..].rotate_right(added);
        for later in &mut self.buckets[at + 1..] {
            later.run = later.run.start + added..later.run.end + added;
        }
        let bucket = &mut self.buckets[at];
        bucket.run.end += added;
        bucket.asking = false;
        self.collected[bucket.run.clone()].sort_unstable_by_key(|e| e.0);
    }

    /// Queries whose answers have not been taken yet.
    pub(crate) fn awaiting(&self) -> usize {
        self.awaiting
    }

    /// Step 2: the users whose gateway RTTs step 3 reads, the first `P` of
    /// each bucket in ID order.
    pub(crate) fn to_measure<'a>(
        &'a self,
        params: &'a AssignParams,
    ) -> impl Iterator<Item = &'a Member> + 'a {
        (self.buckets.iter())
            .flat_map(|b| self.collected[b.run.clone()].iter().take(params.p))
            .map(|(_, m)| m)
    }

    /// Step 3 once the round's collection is done: `rtt` gives the gateway
    /// RTT to each user of [`to_measure`](Probe::to_measure), bucket by
    /// bucket. Returns whether another digit round follows; if so, the
    /// chosen bucket's users seed it.
    pub(crate) fn decide(
        &mut self,
        params: &AssignParams,
        mut rtt: impl FnMut(&Member) -> Micros,
    ) -> bool {
        let (collected, stats) = (&self.collected, &mut self.stats);
        let chosen = choose(
            params,
            self.prefix.len(),
            &mut self.rtts,
            &self.buckets,
            |b, rtts| {
                let run = &collected[b.run.clone()];
                rtts.extend(run.iter().take(params.p).map(|(_, m)| rtt(m)));
                stats.probes += rtts.len() as u64;
            },
        );
        let Some(bucket) = chosen else {
            return false; // step 4 with a partial prefix
        };
        let (j, run) = (bucket.j, bucket.run.clone());
        self.prefix = self.prefix.child(j);
        self.stats.digits_probed += 1;
        if self.prefix.len() + 1 >= self.depth {
            return false;
        }
        self.collected.truncate(run.end);
        self.collected.drain(..run.start);
        self.start_round();
        true
    }

    /// The digits determined by probing, and the statistics.
    pub(crate) fn finish(&self) -> (IdPrefix, AssignStats) {
        (self.prefix, self.stats)
    }
}

/// Runs steps 1–3 for every digit, starting from the existing member
/// `seed`, in the group whose member tables `table` looks up by ID; returns
/// the digits the joiner determined by probing plus the message statistics.
///
/// A query to user `u` for the users under a prefix of length `r` that `u`
/// lies under answers with `u`'s table records of rows `r` and up: those
/// are exactly the records under the prefix.
pub(crate) fn probe_digits<'g>(
    table: impl Fn(&UserId) -> &'g NeighborTable,
    params: &AssignParams,
    joiner: HostId,
    seed: Member,
    net: &impl Network,
) -> (IdPrefix, AssignStats) {
    let mut probe = Probe::new(seed);
    loop {
        while let Some((user, target)) = probe.next_query(params) {
            probe.answer(&target, rows_from(table(&user.id), target.len()));
        }
        if !probe.decide(params, |m| net.gateway_rtt(joiner, m.host)) {
            return probe.finish();
        }
    }
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
    let mut rtts = Vec::new();
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
        let chosen = choose(params, i, &mut rtts, &buckets, |(_, bucket), rtts| {
            rtts.extend(bucket.iter().map(|m| estimate(m.host)));
            evaluations += bucket.len() as u64;
        });
        let Some((&b, _)) = chosen else { break };
        digits.push(b);
        candidates.retain(|m| m.id.digit(i) == b);
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
