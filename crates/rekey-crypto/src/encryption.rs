//! Encryptions: new keys wrapped under other keys (the paper's `{k'}_k`).
//!
//! The paper defines "`{k'}_k` denotes key `k'` encrypted by key `k`, and is
//! referred to as an *encryption*", and identifies each encryption by "the ID
//! of the encrypting key" (§2.4). [`Encryption::id`] returns exactly that, so
//! Lemma 3 reads: a user needs an encryption iff
//! `encryption.id().is_prefix_of_id(user_id)`.
//!
//! A wrap costs one ChaCha20 block: block 0 of the encrypting key's stream
//! under the wrap's nonce, split as RFC 8439 §2.6 splits it for Poly1305 —
//! bytes `0..32` encrypt the new key, bytes `32..48` are the one-time
//! SipHash-2-4 key that tags the wrap (encrypt-then-MAC).

use std::fmt;

use rand::Rng;
use rekey_id::{IdPrefix, MAX_DEPTH};

use crate::chacha::{self, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use crate::key::{Key, KeyMaterial};
use crate::siphash::{siphash24, MAC_KEY_LEN, TAG_LEN};

/// A message's one-time MAC key: bytes `32..48` of its block 0.
pub(crate) fn one_time_mac_key(block0: &[u8; BLOCK_LEN]) -> [u8; MAC_KEY_LEN] {
    std::array::from_fn(|i| block0[KEY_LEN + i])
}

/// `material` XOR bytes `0..32` of `block0`: encrypts and decrypts.
fn xor_material(material: &[u8; KEY_LEN], block0: &[u8; BLOCK_LEN]) -> [u8; KEY_LEN] {
    std::array::from_fn(|i| material[i] ^ block0[i])
}

/// Errors produced when opening (decrypting) an [`Encryption`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnwrapError {
    /// The supplied key's ID does not match the encrypting key's ID.
    WrongKeyId {
        /// ID of the encrypting key recorded in the encryption.
        expected: IdPrefix,
        /// ID of the key that was supplied.
        actual: IdPrefix,
    },
    /// The MAC tag did not verify: wrong key version or corrupted data.
    BadTag,
}

impl fmt::Display for UnwrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnwrapError::WrongKeyId { expected, actual } => {
                write!(f, "encryption requires key {expected}, got {actual}")
            }
            UnwrapError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for UnwrapError {}

/// A single encryption `{k'}_k`: the material of a new key `k'` wrapped
/// (ChaCha20 + SipHash-2-4, encrypt-then-MAC) under an encrypting key `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encryption {
    encrypting_id: IdPrefix,
    encrypting_version: u64,
    encrypted_id: IdPrefix,
    encrypted_version: u64,
    nonce: [u8; NONCE_LEN],
    ciphertext: [u8; chacha::KEY_LEN],
    tag: [u8; TAG_LEN],
}

/// Length of the MAC input of a key wrap between two IDs of the given
/// lengths: per ID a length byte and 2 bytes/digit, then the two versions,
/// the nonce and the ciphertext.
const fn mac_len(encrypting_digits: usize, encrypted_digits: usize) -> usize {
    2 + 2 * (encrypting_digits + encrypted_digits) + 16 + NONCE_LEN + chacha::KEY_LEN
}

/// Stack capacity for the MAC input of a key wrap.
const MAC_STACK_LEN: usize = 128;

const _: () = assert!(
    mac_len(MAX_DEPTH, MAX_DEPTH) <= MAC_STACK_LEN,
    "the largest MAC input must fit the stack buffer"
);

impl Encryption {
    /// Wraps `new_key` under `encrypting_key` with a fresh random nonce.
    ///
    /// Convenience wrapper over [`Encryption::seal_into`] that allocates a
    /// new `Encryption`. Batch paths that reuse arena slots should call
    /// `seal_into` directly with a [`crate::NonceSeq`]-derived nonce.
    pub fn seal<R: Rng + ?Sized>(encrypting_key: &Key, new_key: &Key, rng: &mut R) -> Encryption {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce[..]);
        let mut enc = Encryption::placeholder();
        enc.seal_into(encrypting_key, new_key, nonce);
        enc
    }

    /// An inert slot value for pre-sizing arenas; overwritten by
    /// [`Encryption::seal_into`] before use.
    pub fn placeholder() -> Encryption {
        Encryption {
            encrypting_id: IdPrefix::root(),
            encrypting_version: 0,
            encrypted_id: IdPrefix::root(),
            encrypted_version: 0,
            nonce: [0u8; NONCE_LEN],
            ciphertext: [0u8; chacha::KEY_LEN],
            tag: [0u8; TAG_LEN],
        }
    }

    /// Wraps `new_key` under `encrypting_key` directly into `self`, with a
    /// caller-supplied nonce (see [`crate::NonceSeq`]).
    ///
    /// Every field is an inline value overwritten in place, so sealing
    /// performs **zero heap allocations**, and one ChaCha20 block. Safe to
    /// call concurrently on distinct slots — it only reads the two keys.
    pub fn seal_into(&mut self, encrypting_key: &Key, new_key: &Key, nonce: [u8; NONCE_LEN]) {
        let block0 = chacha::block(encrypting_key.material().as_bytes(), 0, &nonce);
        self.encrypting_id = *encrypting_key.id();
        self.encrypting_version = encrypting_key.version();
        self.encrypted_id = *new_key.id();
        self.encrypted_version = new_key.version();
        self.nonce = nonce;
        self.ciphertext = xor_material(new_key.material().as_bytes(), &block0);
        self.tag = self.compute_tag(&block0);
    }

    /// Serialises the MAC-bound identity (IDs, versions, nonce, ciphertext)
    /// into `buf` so replays across nodes/versions are detected; returns the
    /// number of bytes written.
    fn write_mac_input(&self, buf: &mut [u8]) -> usize {
        let mut at = 0;
        let mut push = |bytes: &[u8]| {
            buf[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        push(&[self.encrypting_id.len() as u8]);
        for &d in self.encrypting_id.digits() {
            push(&d.to_le_bytes());
        }
        push(&self.encrypting_version.to_le_bytes());
        push(&[self.encrypted_id.len() as u8]);
        for &d in self.encrypted_id.digits() {
            push(&d.to_le_bytes());
        }
        push(&self.encrypted_version.to_le_bytes());
        push(&self.nonce);
        push(&self.ciphertext);
        at
    }

    fn compute_tag(&self, block0: &[u8; BLOCK_LEN]) -> [u8; TAG_LEN] {
        let mut buf = [0u8; MAC_STACK_LEN];
        let written = self.write_mac_input(&mut buf);
        debug_assert_eq!(
            written,
            mac_len(self.encrypting_id.len(), self.encrypted_id.len())
        );
        siphash24(&one_time_mac_key(block0), &buf[..written])
    }

    /// Unwraps the encryption with `key`, returning the encrypted new key.
    ///
    /// # Errors
    ///
    /// * [`UnwrapError::WrongKeyId`] — `key` is not the encrypting key for
    ///   this encryption (checkable without cryptography via [`Self::id`]).
    /// * [`UnwrapError::BadTag`] — wrong key material (e.g. a stale version)
    ///   or a corrupted field: IDs, versions, nonce, ciphertext or tag.
    pub fn open(&self, key: &Key) -> Result<Key, UnwrapError> {
        if key.id() != &self.encrypting_id {
            return Err(UnwrapError::WrongKeyId {
                expected: self.encrypting_id,
                actual: *key.id(),
            });
        }
        let block0 = chacha::block(key.material().as_bytes(), 0, &self.nonce);
        if self.compute_tag(&block0) != self.tag {
            return Err(UnwrapError::BadTag);
        }
        Ok(Key::new(
            self.encrypted_id,
            self.encrypted_version,
            KeyMaterial::from_bytes(xor_material(&self.ciphertext, &block0)),
        ))
    }

    /// The encryption's ID: the ID of the **encrypting** key (§2.4).
    ///
    /// This drives both Lemma 3 (a user needs the encryption iff this ID is
    /// a prefix of the user's ID) and the splitting rule of Fig. 5.
    pub fn id(&self) -> &IdPrefix {
        &self.encrypting_id
    }

    /// Version of the encrypting key the wrap was made under.
    pub fn encrypting_version(&self) -> u64 {
        self.encrypting_version
    }

    /// ID of the key carried *inside* the encryption.
    pub fn encrypted_id(&self) -> &IdPrefix {
        &self.encrypted_id
    }

    /// Version of the key carried inside the encryption.
    pub fn encrypted_version(&self) -> u64 {
        self.encrypted_version
    }

    /// The raw cryptographic parts `(nonce, ciphertext, tag)` for wire
    /// encoding (see [`crate::wire`]).
    pub fn wire_parts(&self) -> (&[u8; NONCE_LEN], &[u8; chacha::KEY_LEN], &[u8; TAG_LEN]) {
        (&self.nonce, &self.ciphertext, &self.tag)
    }

    /// Reassembles an encryption from decoded wire parts. The result is
    /// only as trustworthy as its tag: [`Encryption::open`] still verifies
    /// authenticity.
    pub fn from_wire_parts(
        encrypting_id: IdPrefix,
        encrypting_version: u64,
        encrypted_id: IdPrefix,
        encrypted_version: u64,
        nonce: [u8; NONCE_LEN],
        ciphertext: [u8; chacha::KEY_LEN],
        tag: [u8; TAG_LEN],
    ) -> Encryption {
        Encryption {
            encrypting_id,
            encrypting_version,
            encrypted_id,
            encrypted_version,
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Serialised size in bytes.
    ///
    /// Layout: 1 length byte + 2 bytes/digit for each of the two IDs, two
    /// 8-byte versions, nonce, 32-byte wrapped key and 8-byte tag.
    #[cfg(test)]
    fn wire_size(&self) -> usize {
        let id_bytes = 2 + 2 * self.encrypting_id.len() + 2 * self.encrypted_id.len();
        id_bytes + 16 + NONCE_LEN + chacha::KEY_LEN + TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_id::IdSpec;

    fn setup() -> (StdRng, Key, Key) {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = IdSpec::new(3, 4).unwrap();
        let aux = Key::random(IdPrefix::new(&spec, vec![2]).unwrap(), &mut rng);
        let group = Key::random(IdPrefix::root(), &mut rng);
        (rng, aux, group)
    }

    #[test]
    fn seal_open_round_trip() {
        let (mut rng, aux, group) = setup();
        let new_group = group.next_version(&mut rng);
        let enc = Encryption::seal(&aux, &new_group, &mut rng);
        assert_eq!(enc.id(), aux.id());
        assert_eq!(enc.encrypted_id(), group.id());
        assert_eq!(enc.encrypted_version(), 1);
        let opened = enc.open(&aux).expect("must open with correct key");
        assert_eq!(opened, new_group);
    }

    #[test]
    fn open_with_wrong_key_id_fails() {
        let (mut rng, aux, group) = setup();
        let enc = Encryption::seal(&aux, &group.next_version(&mut rng), &mut rng);
        let err = enc.open(&group).unwrap_err();
        assert!(matches!(err, UnwrapError::WrongKeyId { .. }));
        assert!(err.to_string().contains("requires key"));
    }

    #[test]
    fn open_with_stale_key_version_fails() {
        let (mut rng, aux, group) = setup();
        let new_aux = aux.next_version(&mut rng);
        let enc = Encryption::seal(&new_aux, &group.next_version(&mut rng), &mut rng);
        // Same ID but old material: must be rejected by the MAC.
        assert_eq!(enc.open(&aux), Err(UnwrapError::BadTag));
        assert!(enc.open(&new_aux).is_ok());
    }

    #[test]
    fn tampered_ciphertext_is_detected() {
        let (mut rng, aux, group) = setup();
        let mut enc = Encryption::seal(&aux, &group.next_version(&mut rng), &mut rng);
        enc.ciphertext[0] ^= 1;
        assert_eq!(enc.open(&aux), Err(UnwrapError::BadTag));
    }

    #[test]
    fn tampered_nonce_is_detected() {
        let (mut rng, aux, group) = setup();
        let mut enc = Encryption::seal(&aux, &group.next_version(&mut rng), &mut rng);
        enc.nonce[11] ^= 1;
        assert_eq!(enc.open(&aux), Err(UnwrapError::BadTag));
    }

    #[test]
    fn tampered_tag_is_detected() {
        let (mut rng, aux, group) = setup();
        let mut enc = Encryption::seal(&aux, &group.next_version(&mut rng), &mut rng);
        enc.tag[7] ^= 0x80;
        assert_eq!(enc.open(&aux), Err(UnwrapError::BadTag));
    }

    /// The construction, rebuilt from `chacha::block` and `siphash24`: the
    /// ciphertext is the material XOR bytes `0..32` of block 0, and the tag
    /// is SipHash-2-4 keyed by bytes `32..48` of the same block.
    #[test]
    fn a_wrap_is_block_zero_keystream_then_its_one_time_mac_key() {
        let spec = IdSpec::new(3, 4).unwrap();
        let wrap_material = [0x11; chacha::KEY_LEN];
        let inner_material: [u8; chacha::KEY_LEN] = std::array::from_fn(|i| i as u8);
        let wrap = Key::new(
            IdPrefix::new(&spec, vec![2]).unwrap(),
            5,
            KeyMaterial::from_bytes(wrap_material),
        );
        let inner = Key::new(
            IdPrefix::new(&spec, vec![2, 3]).unwrap(),
            9,
            KeyMaterial::from_bytes(inner_material),
        );
        let nonce = *b"fixed nonce!";
        let mut enc = Encryption::placeholder();
        enc.seal_into(&wrap, &inner, nonce);

        let block = chacha::block(&wrap_material, 0, &nonce);
        let ciphertext: Vec<u8> = (0..32).map(|i| inner_material[i] ^ block[i]).collect();
        let mut mac_input = vec![1];
        mac_input.extend_from_slice(&2u16.to_le_bytes());
        mac_input.extend_from_slice(&5u64.to_le_bytes());
        mac_input.push(2);
        mac_input.extend_from_slice(&2u16.to_le_bytes());
        mac_input.extend_from_slice(&3u16.to_le_bytes());
        mac_input.extend_from_slice(&9u64.to_le_bytes());
        mac_input.extend_from_slice(&nonce);
        mac_input.extend_from_slice(&ciphertext);
        let tag = siphash24(block[32..48].try_into().unwrap(), &mac_input);

        let (n, c, t) = enc.wire_parts();
        assert_eq!((n, &c[..], t), (&nonce, &ciphertext[..], &tag));
        assert_eq!(enc.open(&wrap).unwrap(), inner);
    }

    #[test]
    fn seal_into_matches_seal_given_same_nonce() {
        let (mut rng, aux, group) = setup();
        let new_group = group.next_version(&mut rng);
        let mut draw = StdRng::seed_from_u64(99);
        let via_seal = Encryption::seal(&aux, &new_group, &mut draw);
        let mut slot = Encryption::placeholder();
        slot.seal_into(&aux, &new_group, *via_seal.wire_parts().0);
        assert_eq!(slot, via_seal);
        assert_eq!(slot.open(&aux).unwrap(), new_group);
    }

    #[test]
    fn seal_into_overwrites_previous_slot_contents() {
        let (mut rng, aux, group) = setup();
        let mut slot = Encryption::placeholder();
        slot.seal_into(&aux, &group.next_version(&mut rng), [1; NONCE_LEN]);
        // Re-seal the same slot with a different pair; no stale fields may
        // survive.
        let new_aux = aux.next_version(&mut rng);
        slot.seal_into(&group, &new_aux, [2; NONCE_LEN]);
        assert_eq!(slot.id(), group.id());
        assert_eq!(slot.encrypted_id(), new_aux.id());
        assert_eq!(slot.open(&group).unwrap(), new_aux);
    }

    #[test]
    fn wire_size_scales_with_id_length() {
        let (mut rng, aux, group) = setup();
        let enc_short = Encryption::seal(&group, &group.next_version(&mut rng), &mut rng);
        let enc_long = Encryption::seal(&aux, &group.next_version(&mut rng), &mut rng);
        assert!(enc_long.wire_size() > enc_short.wire_size());
        // group->group wrap: 2 + 16 + 12 + 32 + 8 = 70 bytes.
        assert_eq!(enc_short.wire_size(), 70);
    }
}
