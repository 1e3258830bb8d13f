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
/// as raw digits (no `IdSpec` is at hand where hops are queued; the wire
/// codec checks a received one against the spec).
#[derive(Clone, Copy, Debug)]
pub struct PrefixBuf(pub(crate) IdPrefix);

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

// A split key holds `MAX_DEPTH` 16-bit digits and a length in 128 bits.
const _: () = assert!(MAX_DEPTH <= 7);

/// The split key of a digit string: its digits left-aligned at 16 bits
/// each, then its length in the low 16 bits. Integer order equals
/// digit-string order: the first differing digit decides, and where one
/// string is a prefix of the other the padding ties and the shorter
/// length sorts first.
fn split_key(digits: &[u16]) -> u128 {
    assert!(
        digits.len() <= MAX_DEPTH,
        "ID-tree depth exceeds transport MAX_DEPTH"
    );
    let padded = digits
        .iter()
        .enumerate()
        .fold(0u128, |key, (i, &d)| key | u128::from(d) << (112 - 16 * i));
    padded | digits.len() as u128
}

/// The prefix-range split index: the rekey message's encryption IDs
/// sorted once, answering "which encryptions are related to prefix `p`"
/// (Theorem 2 / Fig. 5) in O(D log M) per query instead of O(M).
///
/// Each ID is held as one integer split key whose order is the
/// digit-string order, so a query is integer binary search. The index
/// owns its keys, so it can be shared and outlive the message it was
/// built from.
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
    /// Every entry's split key, ascending.
    keys: Vec<u128>,
    /// The entry index of each key: entries with equal IDs in entry order.
    order: Vec<u32>,
}

impl SplitIndex {
    /// Indexes a rekey message by encryption ID: O(M log M), once per
    /// interval.
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
    fn from_digit_strings<'a>(ids: impl Iterator<Item = &'a [u16]>) -> SplitIndex {
        let mut sorted: Vec<(u128, u32)> = ids
            .enumerate()
            .map(|(e, id)| {
                let e = u32::try_from(e).expect("message too large for split index");
                (split_key(id), e)
            })
            .collect();
        sorted.sort_unstable();
        SplitIndex {
            keys: sorted.iter().map(|&(key, _)| key).collect(),
            order: sorted.iter().map(|&(_, e)| e).collect(),
        }
    }

    /// Number of indexed entries (the message size `M`).
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The positions (in sorted order) of all entries related to
    /// `prefix`: `e.id ⊑ prefix` or `prefix ⊑ e.id`.
    pub fn related_ranges(&self, prefix: &[u16]) -> RelatedRanges {
        let mut out = RelatedRanges {
            count: 0,
            ranges: [(0, 0); MAX_DEPTH + 1],
        };
        let key = split_key(prefix);
        // Proper ancestors of `prefix` (`ancestor` is the key of its first
        // `k` digits): exact-match runs. They sort strictly before the
        // descendant block, and in chain order, so `out` stays sorted and
        // disjoint and each search starts where the last one ended.
        let mut from = 0;
        for k in 0..prefix.len() {
            let ancestor = (key & !(u128::MAX >> (16 * k))) | k as u128;
            let lo = from + self.keys[from..].partition_point(|&x| x < ancestor);
            let hi = lo + self.keys[lo..].partition_point(|&x| x == ancestor);
            out.push(lo, hi);
            from = hi;
        }
        // Descendants (prefix itself included): one contiguous block, from
        // the prefix's own key up to its digits followed by all ones.
        let last = key | u128::MAX >> (16 * prefix.len());
        let lo = from + self.keys[from..].partition_point(|&x| x < key);
        let hi = lo + self.keys[lo..].partition_point(|&x| x <= last);
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

/// Builds each interval's [`SplitIndex`] from scratch, which with integer
/// keys costs less than a delta against the previous interval would. It
/// holds no state; the benchmark package names it.
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
/// let message = vec![mk(vec![]), mk(vec![0]), mk(vec![0, 2])];
/// let index = maintainer.advance(&message);
/// assert_eq!(index.related_ranges(&[0, 2]).total(), 3);
/// ```
#[derive(Default, Clone)]
pub struct SplitIndexMaintainer;

impl SplitIndexMaintainer {
    pub fn new() -> SplitIndexMaintainer {
        SplitIndexMaintainer
    }

    /// Indexes the next interval's message: [`SplitIndex::build`].
    pub fn advance(&mut self, message: &[Encryption]) -> SplitIndex {
        SplitIndex::build(message)
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

    /// Digit strings drawn to hit the edges of the key layout: depths 1–7,
    /// bases up to 65 535, zero and largest digits, duplicate IDs and whole
    /// prefix chains.
    fn edge_digit_strings(rng: &mut impl rand::Rng) -> Vec<Vec<u16>> {
        let depth = rng.gen_range(1..=MAX_DEPTH);
        let base: u16 = match rng.gen_range(0..4) {
            0 => rng.gen_range(2..=4),
            1 => u16::MAX,
            _ => rng.gen_range(2..=u16::MAX),
        };
        let mut ids = Vec::new();
        for _ in 0..rng.gen_range(0..40) {
            let len = rng.gen_range(0..=depth);
            let id: Vec<u16> = (0..len)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0,
                    1 => base - 1,
                    _ => rng.gen_range(0..base),
                })
                .collect();
            match rng.gen_range(0..4) {
                0 => ids.extend((0..=len).map(|k| id[..k].to_vec())),
                1 => ids.extend([id.clone(), id]),
                _ => ids.push(id),
            }
        }
        ids
    }

    proptest::proptest! {
        /// Split keys order exactly as digit slices do, and the index
        /// answers every query with the brute-force Theorem 2 filter
        /// (`e ⊑ q` or `q ⊑ e`), in (ID, entry) order.
        #[test]
        fn split_keys_order_like_slices_and_answer_theorem_2(seed in proptest::prelude::any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ids = edge_digit_strings(&mut rng);
            for a in &ids {
                for b in &ids {
                    proptest::prop_assert_eq!(split_key(a).cmp(&split_key(b)), a.cmp(b), "{:?} {:?}", a, b);
                }
            }
            let index = SplitIndex::from_digit_strings(ids.iter().map(Vec::as_slice));
            let mut queries: Vec<Vec<u16>> = ids
                .iter()
                .flat_map(|id| (0..=id.len()).map(|k| id[..k].to_vec()))
                .collect();
            queries.extend(edge_digit_strings(&mut rng));
            for q in &queries {
                let mut expected: Vec<usize> = (0..ids.len())
                    .filter(|&e| q.starts_with(&ids[e]) || ids[e].starts_with(q))
                    .collect();
                expected.sort_by_key(|&e| (&ids[e], e));
                let got: Vec<usize> = index.indices(q).collect();
                proptest::prop_assert_eq!(&got, &expected, "query {:?}", q);
                proptest::prop_assert_eq!(index.related_ranges(q).total(), expected.len());
            }
        }
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
