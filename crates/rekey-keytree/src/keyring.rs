//! A user's key ring: the keys it holds and how it consumes rekey messages.
//!
//! A key's ID is its node's ID (§2.4) and a user holds the keys on its
//! u-node → root path, so a user's key IDs are the `D + 1` prefixes of its
//! own ID. The ring keeps them in one heap slice of `D + 1` slots indexed
//! by prefix length; a lookup is the [`KeyRing::needs`] prefix test plus an
//! index, with nothing hashed.
//!
//! [`KeyRing::absorb`] reads a message again only after a pass that both
//! installed a key and *deferred* a needed wrap (wrap key missing, or held
//! at a lower version, which a later install could raise). Installs only
//! raise versions, so every other skip is permanent: a pass without
//! deferrals is the fixed point, and a deepest-first message (§2.5) is
//! read once.

use std::borrow::Borrow;

use rekey_crypto::{Encryption, Key};
use rekey_id::{IdPrefix, IdSpec, UserId};

/// The keys a user holds: its individual key plus the keys of the k-nodes
/// on the path from its u-node to the root (§2.4), in a slice whose slot
/// `l` holds the key whose ID is the user's length-`l` prefix.
///
/// A key ring makes rekeying end-to-end verifiable: [`KeyRing::absorb`]
/// actually *decrypts* the encryptions a user receives, so tests can assert
/// that after a rekey interval every user holds exactly the server's current
/// keys.
#[derive(Debug, Clone)]
pub struct KeyRing {
    user: UserId,
    /// `keys[l]`: the held key whose ID is `user.prefix(l)`, if any.
    keys: Box<[Option<Key>]>,
}

impl KeyRing {
    /// Creates a key ring for `user` from the key set the server sends at
    /// join time (the path keys, in any order). Accepts owned keys or a
    /// borrowing iterator (e.g. straight from
    /// `ModifiedKeyTree::user_path_keys`); borrowed keys are cloned here,
    /// at the one place ownership is actually needed.
    ///
    /// # Panics
    ///
    /// Panics if any key's ID is not a prefix of `user`'s ID — a user never
    /// holds off-path keys.
    pub fn new<I>(user: UserId, path_keys: I) -> KeyRing
    where
        I: IntoIterator,
        I::Item: Borrow<Key>,
    {
        let mut keys = vec![None; user.depth() + 1].into_boxed_slice();
        for key in path_keys {
            let key = key.borrow();
            assert!(
                key.id().is_prefix_of_id(&user),
                "key {} is off the path of user {}",
                key.id(),
                user
            );
            keys[key.id().len()] = Some(key.clone());
        }
        KeyRing { user, keys }
    }

    /// The owner of this ring.
    pub fn user(&self) -> &UserId {
        &self.user
    }

    /// The current group key, if held.
    pub fn group_key(&self) -> Option<&Key> {
        self.keys[0].as_ref()
    }

    /// The held key with this ID, if any (`None` for an ID off the user's
    /// path).
    pub(crate) fn key(&self, id: &IdPrefix) -> Option<&Key> {
        if id.is_prefix_of_id(&self.user) {
            self.keys[id.len()].as_ref()
        } else {
            None
        }
    }

    /// Number of held keys (normally `D + 1`).
    pub(crate) fn len(&self) -> usize {
        self.keys.iter().flatten().count()
    }

    /// Lemma 3: this user needs encryption `e` iff `e`'s ID is a prefix of
    /// the user's ID.
    pub(crate) fn needs(&self, e: &Encryption) -> bool {
        e.id().is_prefix_of_id(&self.user)
    }

    /// Consumes a rekey message: unwraps every needed encryption and
    /// installs the carried keys. Returns the number of keys installed.
    ///
    /// Encryptions may arrive in any order; the method iterates to a fixed
    /// point so that chains (individual → aux → … → group key) resolve even
    /// if shallow wraps appear first, but reads the message again only after
    /// a pass that installed a key and deferred a wrap whose key a later
    /// install could supply. A wrap carrying an off-path key is skipped, and
    /// so is one whose tag does not verify.
    ///
    /// Takes any re-iterable borrowing iterator (a slice, a `Vec`, or an
    /// index-based view over a shared encryption buffer), so callers never
    /// have to clone `Encryption`s into a contiguous buffer first.
    pub fn absorb<'a, I>(&mut self, encryptions: I) -> usize
    where
        I: IntoIterator<Item = &'a Encryption>,
        I::IntoIter: Clone,
    {
        let encryptions = encryptions.into_iter();
        let mut installed = 0;
        loop {
            let before = installed;
            let mut deferred = false;
            for e in encryptions.clone() {
                if !self.needs(e) {
                    continue;
                }
                let wrap_key = match &self.keys[e.id().len()] {
                    Some(k) if k.version() == e.encrypting_version() => k,
                    Some(k) if k.version() > e.encrypting_version() => continue,
                    _ => {
                        deferred = true;
                        continue;
                    }
                };
                let target = e.encrypted_id();
                if !target.is_prefix_of_id(&self.user) {
                    continue;
                }
                // Skip if we already hold this exact key version.
                let slot = target.len();
                if self.keys[slot]
                    .as_ref()
                    .is_some_and(|k| k.version() >= e.encrypted_version())
                {
                    continue;
                }
                // A bad tag is skipped like a lost copy (NACK recovers it).
                let Ok(new_key) = e.open(wrap_key) else {
                    continue;
                };
                self.keys[slot] = Some(new_key);
                installed += 1;
            }
            if installed == before || !deferred {
                return installed;
            }
        }
    }

    /// Checks that this ring holds exactly the path keys of the server-side
    /// tree (same IDs, versions and material). Takes owned keys or a
    /// borrowing iterator. Used heavily in tests.
    pub fn matches_path<I>(&self, spec: &IdSpec, server_path: I) -> bool
    where
        I: IntoIterator,
        I::Item: Borrow<Key>,
    {
        let mut len = 0usize;
        for k in server_path {
            let k = k.borrow();
            len += 1;
            if self.key(k.id()) != Some(k) {
                return false;
            }
        }
        self.len() == len && len == spec.depth() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RekeyArena;
    use crate::modified::ModifiedKeyTree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> IdSpec {
        IdSpec::new(2, 4).unwrap()
    }

    fn uid(digits: [u16; 2]) -> UserId {
        UserId::new(&spec(), digits.to_vec()).unwrap()
    }

    fn group() -> (StdRng, ModifiedKeyTree, Vec<UserId>) {
        let mut rng = StdRng::seed_from_u64(33);
        let users: Vec<UserId> = [[0, 0], [0, 1], [2, 0], [2, 1], [2, 2]]
            .iter()
            .map(|d| uid(*d))
            .collect();
        let mut tree = ModifiedKeyTree::new(&spec());
        let mut arena = RekeyArena::new();
        tree.batch_rekey(&users, &[], &mut rng, &mut arena).unwrap();
        (rng, tree, users)
    }

    #[test]
    fn absorb_installs_exactly_the_needed_keys() {
        let (mut rng, mut tree, users) = group();
        let mut arena = RekeyArena::new();
        let mut ring = KeyRing::new(users[0], tree.user_path_keys(&users[0]));
        assert!(ring.matches_path(&spec(), tree.user_path_keys(&users[0])));

        // u5 = [2,2] leaves; user [0,0] needs only {new group}_{k[0]}.
        let out = tree
            .batch_rekey(&[], &[users[4]], &mut rng, &mut arena)
            .unwrap();
        let needed: Vec<_> = out.encryptions().iter().filter(|e| ring.needs(e)).collect();
        assert_eq!(needed.len(), 1);
        let installed = ring.absorb(out.encryptions());
        assert_eq!(installed, 1);
        assert!(ring.matches_path(&spec(), tree.user_path_keys(&users[0])));
        assert_eq!(ring.group_key(), tree.group_key());
    }

    #[test]
    fn absorb_resolves_chains_in_any_order() {
        let (mut rng, mut tree, users) = group();
        let mut arena = RekeyArena::new();
        let mut ring = KeyRing::new(users[2], tree.user_path_keys(&users[2]));
        let out = tree
            .batch_rekey(&[], &[users[4]], &mut rng, &mut arena)
            .unwrap();
        // User [2,0] needs the new aux key [2] (via its individual key) and
        // then the new group key (via the new aux key).
        let mut reversed = out.encryptions().to_vec();
        reversed.reverse(); // shallow wraps first: forces the fixed-point loop
        let installed = ring.absorb(&reversed);
        assert_eq!(installed, 2);
        assert!(ring.matches_path(&spec(), tree.user_path_keys(&users[2])));
    }

    #[test]
    fn departed_user_cannot_recover_new_group_key() {
        let (mut rng, mut tree, users) = group();
        let mut arena = RekeyArena::new();
        let mut departed_ring = KeyRing::new(users[4], tree.user_path_keys(&users[4]));
        let old_group = departed_ring.group_key().unwrap().clone();
        let out = tree
            .batch_rekey(&[], &[users[4]], &mut rng, &mut arena)
            .unwrap();
        let installed = departed_ring.absorb(out.encryptions());
        assert_eq!(
            installed, 0,
            "forward secrecy: departed user learns nothing"
        );
        assert_eq!(departed_ring.group_key(), Some(&old_group));
        assert_ne!(tree.group_key(), Some(&old_group));
    }

    #[test]
    fn joining_user_cannot_read_past_messages() {
        let (mut rng, mut tree, _) = group();
        let old_group = tree.group_key().unwrap().clone();
        let mut arena = RekeyArena::new();
        tree.batch_rekey(&[uid([3, 0])], &[], &mut rng, &mut arena)
            .unwrap();
        let ring = KeyRing::new(uid([3, 0]), tree.user_path_keys(&uid([3, 0])));
        // Backward secrecy: the new user's group key differs from the old one.
        assert_ne!(ring.group_key(), Some(&old_group));
        assert_eq!(ring.group_key(), tree.group_key());
    }

    #[test]
    #[should_panic(expected = "off the path")]
    fn rejects_off_path_keys() {
        let (_, tree, users) = group();
        let _ = KeyRing::new(uid([3, 3]), tree.user_path_keys(&users[0]));
    }

    #[test]
    fn stale_wrap_versions_are_ignored() {
        let (mut rng, mut tree, users) = group();
        // Two arenas: both interval results are held at once.
        let mut arena1 = RekeyArena::new();
        let mut arena2 = RekeyArena::new();
        let mut ring = KeyRing::new(users[0], tree.user_path_keys(&users[0]));
        let out1 = tree
            .batch_rekey(&[], &[users[4]], &mut rng, &mut arena1)
            .unwrap();
        let out2 = tree
            .batch_rekey(&[], &[users[3]], &mut rng, &mut arena2)
            .unwrap();
        // Apply the *second* interval first: wraps under keys the ring does
        // not yet have versions for must not panic, just not install.
        ring.absorb(out2.encryptions());
        ring.absorb(out1.encryptions());
        ring.absorb(out2.encryptions());
        assert!(ring.matches_path(&spec(), tree.user_path_keys(&users[0])));
    }

    #[test]
    fn a_wrap_carrying_an_off_path_key_is_skipped() {
        let (mut rng, tree, users) = group();
        let mut ring = KeyRing::new(users[0], tree.user_path_keys(&users[0]));
        let on_path_aux = ring.key(&users[0].prefix(1)).unwrap().clone();
        // [1] is not on [0,0]'s path; the wrap is under its aux key [0].
        let off_path = IdPrefix::new(&spec(), vec![1]).unwrap();
        let off_path_key = Key::random(off_path, &mut rng).next_version(&mut rng);
        let wrap = Encryption::seal(&on_path_aux, &off_path_key, &mut rng);
        assert!(ring.needs(&wrap));
        assert_eq!(ring.absorb(std::slice::from_ref(&wrap)), 0);
        assert_eq!(ring.len(), spec().depth() + 1);
        assert_eq!(ring.key(&off_path), None);
        assert!(ring.matches_path(&spec(), tree.user_path_keys(&users[0])));
    }

    /// `e` with one tag byte flipped.
    fn with_bad_tag(e: &Encryption) -> Encryption {
        let (nonce, ciphertext, tag) = e.wire_parts();
        let mut tag = *tag;
        tag[0] ^= 1;
        Encryption::from_wire_parts(
            *e.id(),
            e.encrypting_version(),
            *e.encrypted_id(),
            e.encrypted_version(),
            *nonce,
            *ciphertext,
            tag,
        )
    }

    #[test]
    fn a_tampered_copy_is_skipped_and_the_genuine_one_installs_once() {
        let (mut rng, mut tree, users) = group();
        let mut arena = RekeyArena::new();
        let mut ring = KeyRing::new(users[2], tree.user_path_keys(&users[2]));
        let out = tree
            .batch_rekey(&[], &[users[4]], &mut rng, &mut arena)
            .unwrap();
        let needed: Vec<&Encryption> = out.encryptions().iter().filter(|e| ring.needs(e)).collect();
        assert_eq!(needed.len(), 2, "the aux key [2], then the group key");
        // Tampered copies alone install nothing and leave the ring intact.
        let tampered: Vec<Encryption> = needed.iter().map(|e| with_bad_tag(e)).collect();
        assert_eq!(ring.absorb(&tampered), 0);
        assert_eq!(ring.len(), spec().depth() + 1);
        // Each tampered copy followed by its genuine one: both keys install,
        // each once, in either message order.
        for order in [false, true] {
            let mut ring = ring.clone();
            let mut message: Vec<Encryption> = needed
                .iter()
                .flat_map(|e| [with_bad_tag(e), (*e).clone()])
                .collect();
            if order {
                message.reverse();
            }
            assert_eq!(ring.absorb(&message), 2);
            assert!(ring.matches_path(&spec(), tree.user_path_keys(&users[2])));
            assert_eq!(ring.absorb(&message), 0);
        }
    }

    /// A cloneable iterator over a message that counts how many times a
    /// clone of it starts a traversal.
    #[derive(Clone)]
    struct Counted<'a> {
        rest: std::slice::Iter<'a, Encryption>,
        started: bool,
        passes: &'a std::cell::Cell<usize>,
    }

    impl<'a> Iterator for Counted<'a> {
        type Item = &'a Encryption;

        fn next(&mut self) -> Option<&'a Encryption> {
            if !self.started {
                self.started = true;
                self.passes.set(self.passes.get() + 1);
            }
            self.rest.next()
        }
    }

    /// Absorbs `message` into `ring` and returns (keys installed, passes).
    fn passes(ring: &mut KeyRing, message: &[Encryption]) -> (usize, usize) {
        let passes = std::cell::Cell::new(0);
        let installed = ring.absorb(Counted {
            rest: message.iter(),
            started: false,
            passes: &passes,
        });
        (installed, passes.get())
    }

    #[test]
    fn a_deepest_first_message_is_read_once() {
        let spec = IdSpec::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(36);
        let mut tree = ModifiedKeyTree::new(&spec);
        let mut arena = RekeyArena::new();
        let users: Vec<UserId> = (0..40).map(|i| UserId::from_index(&spec, i * 3)).collect();
        tree.batch_rekey(&users, &[], &mut rng, &mut arena).unwrap();
        let ring = KeyRing::new(users[0], tree.user_path_keys(&users[0]));
        // users[1] shares users[0]'s length-3 prefix: its leave changes
        // every key above users[0]'s individual key, a chain of D wraps.
        assert_eq!(users[1].common_prefix_len(&users[0]), 3);
        let out = tree
            .batch_rekey(&[], &[users[1]], &mut rng, &mut arena)
            .unwrap();
        let deepest_first = out.encryptions().to_vec();
        let mut shallow_first = deepest_first.clone();
        shallow_first.reverse();

        let mut once = ring.clone();
        assert_eq!(passes(&mut once, &deepest_first), (4, 1));
        let mut chained = ring.clone();
        let (installed, read) = passes(&mut chained, &shallow_first);
        assert_eq!(installed, 4);
        assert!(read <= spec.depth() + 1, "{read} passes");
        for r in [&once, &chained] {
            assert!(r.matches_path(&spec, tree.user_path_keys(&users[0])));
        }
        // Nothing new: one pass, nothing installed.
        assert_eq!(passes(&mut once, &deepest_first), (0, 1));
    }
}

/// The slice ring against the ring it replaced: keys in a hash map by ID,
/// and `absorb` re-reading the message until a pass installs nothing. Both
/// are fed the same messages, and every observable must agree after every
/// `absorb`.
#[cfg(test)]
mod equivalence {
    use std::collections::{BTreeMap, HashMap};

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::batch::{RekeyArena, RekeyBatch};
    use crate::modified::ModifiedKeyTree;

    /// The hash-map ring, as it was.
    #[derive(Clone)]
    struct Reference {
        user: UserId,
        keys: HashMap<IdPrefix, Key>,
    }

    impl Reference {
        fn new<'a>(user: UserId, path_keys: impl IntoIterator<Item = &'a Key>) -> Reference {
            let keys = path_keys
                .into_iter()
                .map(|k| (*k.id(), k.clone()))
                .collect();
            Reference { user, keys }
        }

        fn absorb(&mut self, encryptions: &[Encryption]) -> usize {
            let mut installed = 0;
            loop {
                let mut progress = false;
                for e in encryptions {
                    if !e.id().is_prefix_of_id(&self.user) {
                        continue;
                    }
                    let Some(wrap_key) = self.keys.get(e.id()) else {
                        continue;
                    };
                    if wrap_key.version() != e.encrypting_version() {
                        continue;
                    }
                    if self
                        .keys
                        .get(e.encrypted_id())
                        .is_some_and(|k| k.version() >= e.encrypted_version())
                    {
                        continue;
                    }
                    let new_key = e.open(wrap_key).unwrap();
                    self.keys.insert(*new_key.id(), new_key);
                    installed += 1;
                    progress = true;
                }
                if !progress {
                    return installed;
                }
            }
        }

        fn matches_path<'a>(&self, spec: &IdSpec, path: impl IntoIterator<Item = &'a Key>) -> bool {
            let mut len = 0usize;
            for k in path {
                len += 1;
                if self.keys.get(k.id()) != Some(k) {
                    return false;
                }
            }
            self.keys.len() == len && len == spec.depth() + 1
        }
    }

    /// One user's ring and its reference.
    #[derive(Clone)]
    struct Pair {
        ring: KeyRing,
        reference: Reference,
    }

    impl Pair {
        fn new(tree: &ModifiedKeyTree, user: UserId) -> Pair {
            Pair {
                ring: KeyRing::new(user, tree.user_path_keys(&user)),
                reference: Reference::new(user, tree.user_path_keys(&user)),
            }
        }

        /// Feeds `message` to both and compares installed counts, every
        /// key the message names or the user's path holds, and
        /// `matches_path` against the tree.
        fn feed(&mut self, tree: &ModifiedKeyTree, message: &[Encryption]) {
            let user = *self.ring.user();
            let installed = self.ring.absorb(message);
            assert_eq!(installed, self.reference.absorb(message), "user {user}");
            assert_eq!(self.ring.len(), self.reference.keys.len(), "user {user}");
            let on_path = (0..=user.depth()).map(|l| user.prefix(l));
            let named = message.iter().flat_map(|e| [*e.id(), *e.encrypted_id()]);
            for id in on_path.chain(named) {
                assert_eq!(
                    self.ring.key(&id),
                    self.reference.keys.get(&id),
                    "{user} {id}"
                );
            }
            let spec = tree.spec();
            assert_eq!(
                self.ring.matches_path(spec, tree.user_path_keys(&user)),
                self.reference
                    .matches_path(spec, tree.user_path_keys(&user)),
                "user {user}"
            );
        }
    }

    /// The message in every order the test feeds: as sealed (deepest
    /// first), reversed, shuffled, each encryption twice, and sealed order
    /// followed by a shuffled copy.
    fn orders(batch: &RekeyBatch<'_>, rng: &mut StdRng) -> Vec<Vec<Encryption>> {
        let sealed = batch.encryptions().to_vec();
        let mut reversed = sealed.clone();
        reversed.reverse();
        let mut shuffled = sealed.clone();
        shuffled.shuffle(rng);
        let twice = sealed.iter().flat_map(|e| [e.clone(), e.clone()]).collect();
        let mut again = sealed.clone();
        again.extend(shuffled.iter().cloned());
        vec![sealed, reversed, shuffled, twice, again]
    }

    /// Random leavers from `members` and joiners from IDs neither present
    /// nor leaving, drawn so that the group hovers around `size` members.
    fn churn(
        spec: &IdSpec,
        members: &BTreeMap<UserId, Pair>,
        size: usize,
        rng: &mut StdRng,
    ) -> (Vec<UserId>, Vec<UserId>) {
        let (most_joins, most_leaves) = if members.len() < size { (8, 2) } else { (3, 4) };
        let mut leaves: Vec<UserId> = members.keys().copied().collect();
        leaves.shuffle(rng);
        leaves.truncate(rng.gen_range(0..=most_leaves));
        let mut joins: Vec<UserId> = Vec::new();
        for _ in 0..rng.gen_range(0..=most_joins) {
            let id = UserId::from_index(spec, rng.gen_range(0..spec.id_space()));
            if !members.contains_key(&id) && !joins.contains(&id) {
                joins.push(id);
            }
        }
        (joins, leaves)
    }

    /// `batches` random intervals on a `(depth, base)` tree of about
    /// `size` members. Every fourth draw applies two intervals at once,
    /// the second before the first; a leaver's ring is fed the next
    /// message after its departure.
    fn run(depth: usize, base: u16, size: usize, batches: usize, seed: u64) {
        let spec = IdSpec::new(depth, base).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = ModifiedKeyTree::new(&spec);
        let mut arena = RekeyArena::new();
        let mut later = RekeyArena::new();
        let mut members: BTreeMap<UserId, Pair> = BTreeMap::new();
        let mut departed: Vec<Pair> = Vec::new();
        let mut done = 0;
        while done < batches {
            let (joins, leaves) = churn(&spec, &members, size, &mut rng);
            let out = tree
                .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
                .unwrap();
            done += 1;
            let mut fed: Vec<Pair> = std::mem::take(&mut departed);
            for l in &leaves {
                let mut pair = members.remove(l).unwrap();
                pair.feed(&tree, out.encryptions());
                departed.push(pair);
            }
            if rng.gen_range(0..4) == 0 {
                // The next interval arrives first, then this one, then the
                // next again.
                for j in &joins {
                    members.insert(*j, Pair::new(&tree, *j));
                }
                let (joins2, leaves2) = churn(&spec, &members, size, &mut rng);
                let out2 = tree
                    .batch_rekey(&joins2, &leaves2, &mut rng, &mut later)
                    .unwrap();
                done += 1;
                for pair in members.values_mut().chain(fed.iter_mut()) {
                    for message in [out2.encryptions(), out.encryptions(), out2.encryptions()] {
                        pair.feed(&tree, message);
                    }
                }
                for l in &leaves2 {
                    departed.push(members.remove(l).unwrap());
                }
                for j in &joins2 {
                    members.insert(*j, Pair::new(&tree, *j));
                }
            } else {
                let orders = orders(&out, &mut rng);
                for pair in members.values_mut().chain(fed.iter_mut()) {
                    pair.feed(&tree, &orders[rng.gen_range(0..orders.len())]);
                }
                for j in &joins {
                    members.insert(*j, Pair::new(&tree, *j));
                }
            }
            fed.clear();
            for pair in members.values() {
                let user = pair.ring.user();
                assert!(pair.ring.matches_path(&spec, tree.user_path_keys(user)));
            }
        }
    }

    #[test]
    fn the_ring_absorbs_like_the_hash_map_ring_on_3_4_trees() {
        run(3, 4, 40, 200, 3);
    }

    #[test]
    fn the_ring_absorbs_like_the_hash_map_ring_on_4_16_trees() {
        run(4, 16, 60, 200, 4);
    }
}
