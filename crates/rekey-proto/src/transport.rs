//! The shared rekey-transport core: indexed routing and prefix-range
//! splitting.
//!
//! All three rekey transports ([`crate::tmesh_rekey_transport`],
//! [`crate::cluster_rekey_transport`], [`crate::lossy_rekey_transport`])
//! run the same breadth-first walk over T-mesh forwarding hops,
//! `RekeySession::walk`, and differ only in what they do with each copy
//! (count it, drop it to loss, skip the bottom row). This module holds
//! the walk and the machinery it runs on:
//!
//! * O(1) `UserId → member index` resolution per hop, through the map
//!   `TmeshGroup` builds once per session, in place of the former O(N)
//!   `members().position(..)` scan per edge;
//! * [`SplitIndex`] — the `REKEY-MESSAGE-SPLIT` routine (Fig. 5) as
//!   contiguous-range extraction. Encryption indices are sorted once by
//!   encryption ID; Theorem 2's relatedness predicate for a hop prefix `p`
//!   then decomposes into **one descendant range** (IDs with `p` as
//!   prefix — contiguous in the sorted order) plus **at most `D` ancestor
//!   runs** (exact matches of `p`'s proper prefixes), each found by binary
//!   search in O(log M). A hop's payload is described, counted, and
//!   iterated without scanning the message;
//! * [`PrefixBuf`] — the split prefix a queued hop carries, an inline
//!   [`IdPrefix`] that was not checked against an `IdSpec`.
//!
//! # Why range extraction is exact (not just an over-approximation)
//!
//! Along any forwarding chain the hop prefixes strictly refine: a member
//! `m` that received its copy for prefix `p₁ = m.ID[0..l]` forwards copies
//! for prefixes `p₂` with `p₁ ⊑ p₂` (rows `s ≥ l` of `m`'s table share
//! `m`'s first `s ≥ l` digits). For `p₁ ⊑ p₂`, every encryption related to
//! `p₂` is also related to `p₁`, so filtering the *received subset* by
//! `p₂` — what Fig. 5 literally does — equals filtering the *full
//! message* by `p₂`. By induction from the server (which starts with the
//! full message), the payload of every hop is exactly the global related
//! set of that hop's prefix, which is what [`SplitIndex`] extracts.

use std::collections::VecDeque;

use rekey_crypto::Encryption;
use rekey_id::IdPrefix;
use rekey_net::{HostId, LinkLoad, Network};
use rekey_tmesh::forward::{server_next_hops, user_next_hops, Hop};
use rekey_tmesh::TmeshGroup;

pub use rekey_id::MAX_DEPTH;

/// Options for a rekey transport session, replacing the former
/// `(split: bool, detail: bool)` positional flags.
///
/// ```
/// use rekey_proto::TransportOptions;
/// let opts = TransportOptions::split().with_detail();
/// assert!(opts.split && opts.detail);
/// assert!(!TransportOptions::flood().split);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportOptions {
    /// Run `REKEY-MESSAGE-SPLIT` (Fig. 5): each hop carries only the
    /// encryptions related to its subtree. Without it every copy carries
    /// the whole message.
    pub split: bool,
    /// Record exactly which encryption indices each member received
    /// (`BandwidthReport::received_sets`), for correctness checks.
    pub detail: bool,
}

impl TransportOptions {
    /// Splitting on, detail off: the paper's split protocols.
    pub fn split() -> TransportOptions {
        TransportOptions {
            split: true,
            detail: false,
        }
    }

    /// Splitting off (every copy carries the full message).
    pub fn flood() -> TransportOptions {
        TransportOptions {
            split: false,
            detail: false,
        }
    }

    /// Additionally record per-member received encryption index sets.
    pub fn with_detail(mut self) -> TransportOptions {
        self.detail = true;
        self
    }
}

/// The split key a queued hop carries: a prefix of some member ID, held
/// as raw digits (no `IdSpec` is at hand where hops are queued or decoded).
#[derive(Clone, Copy, Debug)]
pub struct PrefixBuf(IdPrefix);

impl PrefixBuf {
    /// Captures `digits` (a prefix of some member ID).
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() > MAX_DEPTH`.
    pub fn new(digits: &[u16]) -> PrefixBuf {
        assert!(
            digits.len() <= MAX_DEPTH,
            "ID-tree depth exceeds transport MAX_DEPTH"
        );
        PrefixBuf(digits.iter().fold(IdPrefix::root(), |p, &d| p.child(d)))
    }

    /// The `(row, ·)`-subtree prefix served by `hop`: the receiving
    /// neighbor's level-`row + 1` prefix (see [`Hop::prefix`]).
    pub(crate) fn of_hop(hop: &Hop<'_>) -> PrefixBuf {
        PrefixBuf(hop.prefix())
    }

    pub(crate) fn as_slice(&self) -> &[u16] {
        self.0.digits()
    }
}

/// The set of positions in a [`SplitIndex`]'s sorted order that are
/// related to one prefix: at most `MAX_DEPTH` ancestor runs plus one
/// descendant range, disjoint and in ascending order.
#[derive(Clone, Copy, Debug)]
pub struct RelatedRanges {
    count: usize,
    ranges: [(u32, u32); MAX_DEPTH + 1],
}

impl RelatedRanges {
    fn push(&mut self, lo: usize, hi: usize) {
        if lo < hi {
            self.ranges[self.count] = (lo as u32, hi as u32);
            self.count += 1;
        }
    }

    /// Total number of related encryptions.
    pub fn total(&self) -> usize {
        self.ranges[..self.count]
            .iter()
            .map(|&(lo, hi)| (hi - lo) as usize)
            .sum()
    }
}

/// The prefix-range split index: the rekey message's encryption IDs
/// sorted once, answering "which encryptions are related to prefix `p`"
/// (Theorem 2 / Fig. 5) in O(D log M) per query instead of O(M).
///
/// The index owns a flattened copy of the digit strings (a few bytes per
/// entry), so it can be shared and outlive the message it was built from.
///
/// ```
/// # use rekey_proto::SplitIndex;
/// # use rekey_crypto::{Encryption, Key};
/// # use rekey_id::{IdPrefix, IdSpec};
/// # use rand::SeedableRng;
/// # let spec = IdSpec::new(3, 4).unwrap();
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// # let group_key = Key::random(IdPrefix::root(), &mut rng);
/// # let mut mk = |digits: Vec<u16>| {
/// #     let encrypting = Key::random(IdPrefix::new(&spec, digits).unwrap(), &mut rng);
/// #     Encryption::seal(&encrypting, &group_key, &mut rng)
/// # };
/// let message = vec![mk(vec![]), mk(vec![0]), mk(vec![0, 1]), mk(vec![2])];
/// let index = SplitIndex::build(&message);
/// // Related to [0]: the root (ancestor), [0] and [0,1] (descendants) — not [2].
/// assert_eq!(index.related_ranges(&[0]).total(), 3);
/// // Related to [2]: the root and [2].
/// assert_eq!(index.related_ranges(&[2]).total(), 2);
/// ```
pub struct SplitIndex {
    /// Digit strings of every entry, flattened; entry `i` occupies
    /// `digits[bounds[i]..bounds[i + 1]]`.
    digits: Vec<u16>,
    bounds: Vec<u32>,
    /// Entry indices sorted lexicographically by digit string.
    order: Vec<u32>,
}

impl SplitIndex {
    /// Indexes a rekey message by encryption ID: O(M log M), once per
    /// session.
    pub fn build(message: &[Encryption]) -> SplitIndex {
        SplitIndex::from_digit_strings(message.iter().map(|e| e.id().digits()))
    }

    /// Indexes a list of encryption IDs directly (for harnesses that
    /// model messages as ID lists, e.g. the concurrent-traffic simulator).
    pub(crate) fn from_ids(ids: &[IdPrefix]) -> SplitIndex {
        SplitIndex::from_digit_strings(ids.iter().map(|p| p.digits()))
    }

    /// Indexes arbitrary digit strings; entry `i` is the `i`-th yielded
    /// string.
    pub(crate) fn from_digit_strings<'a>(ids: impl Iterator<Item = &'a [u16]>) -> SplitIndex {
        let mut digits = Vec::new();
        let mut bounds = Vec::with_capacity(ids.size_hint().0 + 1);
        bounds.push(0u32);
        for id in ids {
            digits.extend_from_slice(id);
            bounds.push(digits.len() as u32);
        }
        let entries = bounds.len() - 1;
        assert!(
            entries < u32::MAX as usize,
            "message too large for split index"
        );
        let at = |e: u32| -> &[u16] {
            &digits[bounds[e as usize] as usize..bounds[e as usize + 1] as usize]
        };
        let mut order: Vec<u32> = (0..entries as u32).collect();
        order.sort_unstable_by(|&a, &b| at(a).cmp(at(b)));
        SplitIndex {
            digits,
            bounds,
            order,
        }
    }

    /// Number of indexed entries (the message size `M`).
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The digit string of entry `e`.
    fn id_at(&self, e: u32) -> &[u16] {
        &self.digits[self.bounds[e as usize] as usize..self.bounds[e as usize + 1] as usize]
    }

    /// The positions (in sorted order) of all entries related to
    /// `prefix`: `e.id ⊑ prefix` or `prefix ⊑ e.id`.
    pub fn related_ranges(&self, prefix: &[u16]) -> RelatedRanges {
        let mut out = RelatedRanges {
            count: 0,
            ranges: [(0, 0); MAX_DEPTH + 1],
        };
        // Proper ancestors of `prefix`: exact-match runs, each located by
        // two binary searches. They sort strictly before the descendant
        // block, and in chain order, so `out` stays sorted and disjoint.
        for k in 0..prefix.len() {
            let ancestor = &prefix[..k];
            let lo = self.order.partition_point(|&e| self.id_at(e) < ancestor);
            let hi = lo + self.order[lo..].partition_point(|&e| self.id_at(e) == ancestor);
            out.push(lo, hi);
        }
        // Descendants (prefix itself included): one contiguous block.
        let lo = self.order.partition_point(|&e| {
            rekey_id::subtree_cmp(prefix, self.id_at(e)) == std::cmp::Ordering::Less
        });
        let hi = lo
            + self.order[lo..].partition_point(|&e| {
                rekey_id::subtree_cmp(prefix, self.id_at(e)) == std::cmp::Ordering::Equal
            });
        out.push(lo, hi);
        out
    }

    /// How many entries are related to `prefix`: O(D log M).
    pub(crate) fn count(&self, prefix: &[u16]) -> usize {
        self.related_ranges(prefix).total()
    }

    /// The entry indices related to `prefix`, in sorted-by-ID order
    /// (ancestor chain first, then the descendant block).
    pub(crate) fn indices(&self, prefix: &[u16]) -> impl Iterator<Item = usize> + Clone + '_ {
        let ranges = self.related_ranges(prefix);
        (0..ranges.count)
            .flat_map(move |r| ranges.ranges[r].0..ranges.ranges[r].1)
            .map(move |pos| self.order[pos as usize] as usize)
    }
}

/// Incrementally maintains a [`SplitIndex`] across rekey intervals.
///
/// `SplitIndex::build` re-sorts the whole message every interval —
/// O(M log M) ID comparisons even when consecutive messages overlap
/// heavily (under steady small churn most encryption IDs repeat from one
/// interval to the next: the upper tree levels change every batch). The
/// maintainer keeps the previous interval's *sorted* ID sequence and
/// turns the next message into its index by delta application:
///
/// 1. classify each new entry against the old sorted sequence (binary
///    search): **kept** (ID present last interval) or **fresh**;
/// 2. kept entries inherit their relative order from the old sequence —
///    an integer sort by old rank, no ID comparisons;
/// 3. only the fresh entries are comparison-sorted, then merged with the
///    kept run; old entries left unmatched are the removals and simply
///    drop out.
///
/// When the delta is large (mass joins, server restart) the incremental
/// path would do more work than a rebuild, so `advance` falls back to
/// [`SplitIndex::build`]; both paths are deterministic. Path counters
/// record which path ran, so the tests can pin that steady churn actually
/// exercises the delta path.
///
/// ```
/// # use rekey_proto::SplitIndexMaintainer;
/// # use rekey_crypto::{Encryption, Key};
/// # use rekey_id::{IdPrefix, IdSpec};
/// # use rand::SeedableRng;
/// # let spec = IdSpec::new(2, 4).unwrap();
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// # let group_key = Key::random(IdPrefix::root(), &mut rng);
/// # let mut mk = |digits: Vec<u16>| {
/// #     let encrypting = Key::random(IdPrefix::new(&spec, digits).unwrap(), &mut rng);
/// #     Encryption::seal(&encrypting, &group_key, &mut rng)
/// # };
/// let mut maintainer = SplitIndexMaintainer::new();
/// let first = vec![mk(vec![]), mk(vec![0]), mk(vec![0, 1])];
/// let second = vec![mk(vec![]), mk(vec![0]), mk(vec![0, 2])]; // one ID changed
/// let _ = maintainer.advance(&first); // empty state: builds from scratch
/// let index = maintainer.advance(&second); // delta path: 1 fresh, 2 kept
/// assert_eq!(index.related_ranges(&[0, 2]).total(), 3);
/// ```
#[derive(Default, Clone)]
pub struct SplitIndexMaintainer {
    /// Previous interval's entry IDs, flattened **in sorted order**;
    /// sorted entry `r` occupies `sorted_digits[sorted_bounds[r]..sorted_bounds[r + 1]]`.
    sorted_digits: Vec<u16>,
    sorted_bounds: Vec<u32>,
    stats: SplitIndexStats,
}

/// Which paths a [`SplitIndexMaintainer`] has taken so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SplitIndexStats {
    /// Intervals indexed via delta application.
    pub incremental: u64,
    /// Intervals indexed via full rebuild (first interval, or delta too
    /// large to pay off).
    pub rebuilds: u64,
    /// Total entries that were carried over from the previous interval.
    pub kept: u64,
    /// Total entries that had to be comparison-sorted.
    pub fresh: u64,
}

impl SplitIndexMaintainer {
    pub fn new() -> SplitIndexMaintainer {
        SplitIndexMaintainer::default()
    }

    /// Path counters accumulated since construction.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> SplitIndexStats {
        self.stats
    }

    /// Number of entries in the retained previous interval.
    fn prev_len(&self) -> usize {
        self.sorted_bounds.len().saturating_sub(1)
    }

    fn prev_id(&self, rank: usize) -> &[u16] {
        &self.sorted_digits
            [self.sorted_bounds[rank] as usize..self.sorted_bounds[rank + 1] as usize]
    }

    /// Indexes the next interval's message, reusing last interval's sorted
    /// order where possible. Equivalent to `SplitIndex::build(message)` in
    /// the sets it answers; deterministic on both paths.
    pub fn advance(&mut self, message: &[Encryption]) -> SplitIndex {
        let index = self.advance_index(message);
        // Retain this interval's sorted ID sequence for the next delta.
        self.sorted_digits.clear();
        self.sorted_bounds.clear();
        self.sorted_bounds.push(0);
        for &e in &index.order {
            self.sorted_digits.extend_from_slice(index.id_at(e));
            self.sorted_bounds.push(self.sorted_digits.len() as u32);
        }
        index
    }

    fn advance_index(&mut self, message: &[Encryption]) -> SplitIndex {
        let m = message.len();
        let n = self.prev_len();
        // Nothing to delta against, or the message more than doubled:
        // rebuild outright.
        if n == 0 || m == 0 || m > n * 2 {
            self.stats.rebuilds += 1;
            return SplitIndex::build(message);
        }
        // Classify. `consumed` tracks multiplicity so duplicate IDs match
        // one old entry each.
        let mut consumed = vec![false; n];
        let mut kept: Vec<(u32, u32)> = Vec::with_capacity(m); // (old rank, entry)
        let mut fresh: Vec<u32> = Vec::new();
        for (pos, e) in message.iter().enumerate() {
            let id = e.id().digits();
            // Binary search for the first old rank with ID >= id.
            let (mut lo, mut hi) = (0usize, n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.prev_id(mid) < id {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let mut r = lo;
            while r < n && self.prev_id(r) == id && consumed[r] {
                r += 1;
            }
            if r < n && self.prev_id(r) == id {
                consumed[r] = true;
                kept.push((r as u32, pos as u32));
            } else {
                fresh.push(pos as u32);
            }
        }
        // Delta too large: the classification already cost a scan, but
        // sorting everything fresh would repeat build's work — bail out.
        if fresh.len() * 2 > m {
            self.stats.rebuilds += 1;
            return SplitIndex::build(message);
        }
        self.stats.incremental += 1;
        self.stats.kept += kept.len() as u64;
        self.stats.fresh += fresh.len() as u64;

        // Flatten the new message's digit strings (entry order).
        let mut digits = Vec::new();
        let mut bounds = Vec::with_capacity(m + 1);
        bounds.push(0u32);
        for e in message {
            digits.extend_from_slice(e.id().digits());
            bounds.push(digits.len() as u32);
        }
        let id_of = |e: u32| -> &[u16] {
            &digits[bounds[e as usize] as usize..bounds[e as usize + 1] as usize]
        };

        // Kept entries in old-rank order are already ID-sorted (integer
        // sort, no string comparisons); only fresh needs comparisons.
        kept.sort_unstable();
        fresh.sort_unstable_by(|&a, &b| id_of(a).cmp(id_of(b)));

        // Merge the two sorted runs into the new order.
        let mut order = Vec::with_capacity(m);
        let (mut i, mut j) = (0, 0);
        while i < kept.len() && j < fresh.len() {
            if id_of(kept[i].1) <= id_of(fresh[j]) {
                order.push(kept[i].1);
                i += 1;
            } else {
                order.push(fresh[j]);
                j += 1;
            }
        }
        order.extend(kept[i..].iter().map(|&(_, e)| e));
        order.extend_from_slice(&fresh[j..]);

        SplitIndex {
            digits,
            bounds,
            order,
        }
    }
}

/// Per-member and per-link bandwidth accounting of one rekey transport
/// session (the Fig. 13 metrics).
#[derive(Debug, Clone)]
pub struct BandwidthReport {
    /// Encryptions received per member (by member index).
    pub received: Vec<u64>,
    /// Encryptions forwarded per member.
    pub forwarded: Vec<u64>,
    /// Encryptions traversing each physical link (`None` on link-less
    /// substrates).
    pub link_load: Option<LinkLoad>,
    /// When collected: the exact encryption indices received per member
    /// (used to verify Theorem 2 / Corollary 1 in tests).
    pub received_sets: Option<Vec<Vec<usize>>>,
}

impl BandwidthReport {
    pub(crate) fn new(members: usize, net: &impl Network, detail: bool) -> BandwidthReport {
        BandwidthReport {
            received: vec![0; members],
            forwarded: vec![0; members],
            link_load: (net.link_count() > 0).then(|| LinkLoad::new(net.link_count())),
            received_sets: detail.then(|| vec![Vec::new(); members]),
        }
    }

    pub(crate) fn account_link(
        &mut self,
        net: &impl Network,
        from: HostId,
        to: HostId,
        units: u64,
    ) {
        if units == 0 {
            return;
        }
        if let Some(load) = self.link_load.as_mut() {
            if let Some(path) = net.path_links(from, to) {
                load.add_path(&path, units);
            }
        }
    }
}

/// The payload of one queued overlay copy. Under splitting a payload is
/// fully described by the hop's prefix (see the module docs for why this
/// is exact); without splitting every copy is the full message.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Payload {
    Full,
    Related(PrefixBuf),
}

/// The state shared by one rekey transport session: the mesh and the
/// split index over the message.
pub(crate) struct RekeySession<'a> {
    pub group: &'a TmeshGroup,
    pub index: SplitIndex,
    split: bool,
}

impl<'a> RekeySession<'a> {
    pub(crate) fn new(
        group: &'a TmeshGroup,
        message: &[Encryption],
        split: bool,
    ) -> RekeySession<'a> {
        RekeySession {
            group,
            index: SplitIndex::build(message),
            split,
        }
    }

    /// The multicast, breadth first: the server sends one copy per next
    /// hop of its table, and each member that receives a copy forwards
    /// one per next hop at the level it arrived on (`FORWARD`, Fig. 2).
    ///
    /// `send(state, from, to, hop, payload)` sees every copy about to be
    /// sent, in that order (`from` is `None` for the server's); returning
    /// `None` drops the copy and so silences the receiver's subtree.
    /// Whatever it returns otherwise travels with the copy to
    /// `receive(state, member, payload, carried)`, called as the copy is
    /// dequeued and before `member` forwards. Both share `state`.
    pub(crate) fn walk<S, T>(
        &self,
        state: &mut S,
        mut send: impl FnMut(&mut S, Option<usize>, usize, &Hop<'_>, Payload) -> Option<T>,
        mut receive: impl FnMut(&mut S, usize, Payload, T),
    ) {
        let mut queue = VecDeque::new();
        for hop in server_next_hops(self.group.server_table()) {
            let to = self.receiver(&hop);
            let payload = self.payload_for(Payload::Full, &hop);
            if let Some(carried) = send(state, None, to, &hop, payload) {
                queue.push_back((to, hop.forward_level, payload, carried));
            }
        }
        while let Some((member, level, payload, carried)) = queue.pop_front() {
            receive(state, member, payload, carried);
            for hop in user_next_hops(self.group.table(member), level) {
                let to = self.receiver(&hop);
                let next = self.payload_for(payload, &hop);
                if let Some(carried) = send(state, Some(member), to, &hop, next) {
                    queue.push_back((to, hop.forward_level, next, carried));
                }
            }
        }
    }

    /// The member index of `hop`'s receiving neighbor, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if the neighbor is not a session member (tables and member
    /// list out of sync — a bug by construction of `TmeshGroup`).
    fn receiver(&self, hop: &Hop<'_>) -> usize {
        let id = &hop.neighbor.member.id;
        self.group
            .member_index(id)
            .expect("hop neighbor is a session member")
    }

    /// The payload composed for `hop`: the split extract for its subtree
    /// prefix, or the incoming payload unchanged without splitting.
    fn payload_for(&self, incoming: Payload, hop: &Hop<'_>) -> Payload {
        if self.split {
            Payload::Related(PrefixBuf::of_hop(hop))
        } else {
            incoming
        }
    }

    /// Number of encryptions a payload carries.
    pub(crate) fn payload_len(&self, payload: Payload) -> u64 {
        match payload {
            Payload::Full => self.index.len() as u64,
            Payload::Related(prefix) => self.index.count(prefix.as_slice()) as u64,
        }
    }

    /// Appends a payload's encryption indices to `out`.
    pub(crate) fn payload_extend(&self, payload: Payload, out: &mut Vec<usize>) {
        match payload {
            Payload::Full => out.extend(0..self.index.len()),
            Payload::Related(prefix) => out.extend(self.index.indices(prefix.as_slice())),
        }
    }

    pub(crate) fn host(&self, member: usize) -> HostId {
        self.group.members()[member].host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rekey_crypto::Key;
    use rekey_id::{IdPrefix, IdSpec};

    fn encryptions(spec: &IdSpec, ids: &[&[u16]]) -> Vec<Encryption> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let group_key = Key::random(IdPrefix::root(), &mut rng);
        ids.iter()
            .map(|digits| {
                let encrypting =
                    Key::random(IdPrefix::new(spec, digits.to_vec()).unwrap(), &mut rng);
                Encryption::seal(&encrypting, &group_key, &mut rng)
            })
            .collect()
    }

    #[test]
    fn options_constructors() {
        assert_eq!(
            TransportOptions::split(),
            TransportOptions {
                split: true,
                detail: false
            }
        );
        assert_eq!(
            TransportOptions::flood(),
            TransportOptions {
                split: false,
                detail: false
            }
        );
        assert!(TransportOptions::flood().with_detail().detail);
        assert_eq!(TransportOptions::default(), TransportOptions::flood());
    }

    #[test]
    fn split_index_matches_naive_relatedness_exhaustively() {
        let spec = IdSpec::new(3, 3).unwrap();
        // All prefixes of a depth-3 base-3 space, some duplicated.
        let mut ids: Vec<Vec<u16>> = vec![vec![]];
        for a in 0..3u16 {
            ids.push(vec![a]);
            for b in 0..3u16 {
                ids.push(vec![a, b]);
                for c in 0..3u16 {
                    ids.push(vec![a, b, c]);
                }
            }
        }
        ids.extend_from_slice(&[vec![1], vec![1, 2], vec![]]); // duplicates
        let id_refs: Vec<&[u16]> = ids.iter().map(|v| v.as_slice()).collect();
        let message = encryptions(&spec, &id_refs);
        let index = SplitIndex::build(&message);

        for probe in &ids {
            let prefix = IdPrefix::new(&spec, probe.clone()).unwrap();
            let mut expected: Vec<usize> = (0..message.len())
                .filter(|&e| message[e].id().is_related(&prefix))
                .collect();
            let mut got: Vec<usize> = index.indices(probe).collect();
            assert_eq!(
                got.len(),
                index.count(probe),
                "count vs indices at {prefix}"
            );
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "related set mismatch at {prefix}");
        }
    }

    #[test]
    fn split_index_from_ids_matches_build() {
        let spec = IdSpec::new(2, 4).unwrap();
        let ids: Vec<IdPrefix> = [vec![], vec![0], vec![0, 1], vec![3], vec![3, 2]]
            .into_iter()
            .map(|d| IdPrefix::new(&spec, d).unwrap())
            .collect();
        let id_refs: Vec<&[u16]> = ids.iter().map(|p| p.digits()).collect();
        let message = encryptions(&spec, &id_refs);
        let from_encs = SplitIndex::build(&message);
        let from_ids = SplitIndex::from_ids(&ids);
        for probe in &ids {
            let mut a: Vec<usize> = from_encs.indices(probe.digits()).collect();
            let mut b: Vec<usize> = from_ids.indices(probe.digits()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "at {probe}");
        }
    }

    #[test]
    fn split_index_on_empty_message() {
        let index = SplitIndex::build(&[]);
        assert!(index.is_empty());
        assert_eq!(index.count(&[0, 1]), 0);
        assert_eq!(index.indices(&[]).count(), 0);
    }

    /// `SplitIndexMaintainer::advance` answers exactly the same related
    /// sets as a from-scratch `SplitIndex::build`, across interval
    /// sequences with heavy overlap, disjoint messages, growth spurts and
    /// empty messages — and steady churn takes the delta path.
    #[test]
    fn maintainer_advance_matches_build() {
        let spec = IdSpec::new(3, 3).unwrap();
        let intervals: Vec<Vec<Vec<u16>>> = vec![
            // steady churn: top levels repeat, one leaf path changes
            vec![vec![], vec![0], vec![1], vec![0, 0], vec![0, 0, 1]],
            vec![vec![], vec![0], vec![1], vec![0, 0], vec![0, 0, 2]],
            vec![vec![], vec![0], vec![1], vec![0, 1], vec![0, 1, 0]],
            // mass change: disjoint subtree
            vec![vec![], vec![2], vec![2, 0], vec![2, 0, 0], vec![2, 1]],
            // shrink, then empty, then regrow
            vec![vec![], vec![2]],
            vec![],
            vec![vec![], vec![0], vec![1], vec![2], vec![0, 0], vec![1, 1]],
            // duplicates (the generic digit-string contract)
            vec![vec![], vec![0], vec![0], vec![0, 0], vec![]],
        ];
        let mut maintainer = SplitIndexMaintainer::new();
        let mut probes: Vec<Vec<u16>> = vec![vec![]];
        for a in 0..3u16 {
            probes.push(vec![a]);
            for b in 0..3u16 {
                probes.push(vec![a, b]);
                probes.push(vec![a, b, 0]);
            }
        }
        for ids in &intervals {
            let id_refs: Vec<&[u16]> = ids.iter().map(|v| v.as_slice()).collect();
            let message = encryptions(&spec, &id_refs);
            let incremental = maintainer.advance(&message);
            let rebuilt = SplitIndex::build(&message);
            assert_eq!(incremental.len(), rebuilt.len());
            for probe in &probes {
                let mut a: Vec<usize> = incremental.indices(probe).collect();
                let mut b: Vec<usize> = rebuilt.indices(probe).collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "related sets diverge at probe {probe:?}");
                assert_eq!(incremental.count(probe), rebuilt.count(probe));
            }
        }
        let stats = maintainer.stats();
        assert!(
            stats.incremental >= 2,
            "steady churn must take the delta path, got {stats:?}"
        );
        assert!(
            stats.rebuilds >= 2,
            "first interval and large deltas must rebuild, got {stats:?}"
        );
        assert!(stats.kept > stats.fresh, "overlap dominates: {stats:?}");
    }

    /// The delta path is deterministic: two maintainers fed the same
    /// interval sequence produce identical sorted orders.
    #[test]
    fn maintainer_is_deterministic() {
        let spec = IdSpec::new(2, 4).unwrap();
        let seq: Vec<Vec<Vec<u16>>> = vec![
            vec![vec![], vec![0], vec![0, 1], vec![3]],
            vec![vec![], vec![0], vec![0, 2], vec![3]],
            vec![vec![], vec![3], vec![3, 0], vec![0]],
        ];
        let mut a = SplitIndexMaintainer::new();
        let mut b = SplitIndexMaintainer::new();
        for ids in &seq {
            let id_refs: Vec<&[u16]> = ids.iter().map(|v| v.as_slice()).collect();
            let message = encryptions(&spec, &id_refs);
            let ia = a.advance(&message);
            let ib = b.advance(&message);
            assert_eq!(ia.order, ib.order);
            assert_eq!(ia.digits, ib.digits);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn prefix_buf_round_trips() {
        let buf = PrefixBuf::new(&[3, 1, 4]);
        assert_eq!(buf.as_slice(), &[3, 1, 4]);
        assert_eq!(PrefixBuf::new(&[]).as_slice(), &[] as &[u16]);
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn prefix_buf_rejects_overlong() {
        let digits = [0u16; MAX_DEPTH + 1];
        let _ = PrefixBuf::new(&digits);
    }
}
