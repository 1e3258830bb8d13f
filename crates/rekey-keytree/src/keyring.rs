//! A user's key ring: the keys it holds and how it consumes rekey messages.

use std::borrow::Borrow;
use std::collections::HashMap;

use rekey_crypto::{Encryption, Key};
use rekey_id::{IdPrefix, IdSpec, UserId};

/// The keys a user holds: its individual key plus the keys of the k-nodes
/// on the path from its u-node to the root (§2.4).
///
/// A key ring makes rekeying end-to-end verifiable: [`KeyRing::absorb`]
/// actually *decrypts* the encryptions a user receives, so tests can assert
/// that after a rekey interval every user holds exactly the server's current
/// keys.
#[derive(Debug, Clone)]
pub struct KeyRing {
    user: UserId,
    keys: HashMap<IdPrefix, Key>,
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
        let mut keys = HashMap::new();
        for key in path_keys {
            let key = key.borrow();
            assert!(
                key.id().is_prefix_of_id(&user),
                "key {} is off the path of user {}",
                key.id(),
                user
            );
            keys.insert(*key.id(), key.clone());
        }
        KeyRing { user, keys }
    }

    /// The owner of this ring.
    pub fn user(&self) -> &UserId {
        &self.user
    }

    /// The current group key, if held.
    pub fn group_key(&self) -> Option<&Key> {
        self.keys.get(&IdPrefix::root())
    }

    /// The held key with this ID, if any.
    pub fn key(&self, id: &IdPrefix) -> Option<&Key> {
        self.keys.get(id)
    }

    /// Number of held keys (normally `D + 1`).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` iff the ring holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Lemma 3: this user needs encryption `e` iff `e`'s ID is a prefix of
    /// the user's ID.
    pub fn needs(&self, e: &Encryption) -> bool {
        e.id().is_prefix_of_id(&self.user)
    }

    /// Consumes a rekey message: unwraps every needed encryption and
    /// installs the carried keys. Returns the number of keys installed.
    ///
    /// Encryptions may arrive in any order; the method iterates to a fixed
    /// point so that chains (individual → aux → … → group key) resolve even
    /// if shallow wraps appear first.
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
            let mut progress = false;
            for e in encryptions.clone() {
                if !self.needs(e) {
                    continue;
                }
                let Some(wrap_key) = self.keys.get(e.id()) else {
                    continue;
                };
                if wrap_key.version() != e.encrypting_version() {
                    continue;
                }
                // Skip if we already hold this exact key version.
                if self
                    .keys
                    .get(e.encrypted_id())
                    .is_some_and(|k| k.version() >= e.encrypted_version())
                {
                    continue;
                }
                let new_key = e
                    .open(wrap_key)
                    .expect("ID and version matched, unwrap must work");
                self.keys.insert(*new_key.id(), new_key);
                installed += 1;
                progress = true;
            }
            if !progress {
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
            if self.keys.get(k.id()) != Some(k) {
                return false;
            }
        }
        self.keys.len() == len && len == spec.depth() + 1
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
}
