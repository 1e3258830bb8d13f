//! Group-key data encryption: the payload side of secure group
//! communication.
//!
//! The group key exists to "encrypt data traffic between group members"
//! (§1). [`SealedData`] is that operation: ChaCha20 over the payload with a
//! fresh nonce, SipHash-2-4 tag, and a `(key id, key version)` header so
//! receivers know which group-key generation to decrypt with — important
//! while a rekey interval is propagating and members briefly hold different
//! versions.
//!
//! The payload starts at block 1; as for a key wrap, bytes `32..48` of
//! block 0 are the message's one-time SipHash-2-4 key.

use std::fmt;

use rand::Rng;
use rekey_id::IdPrefix;

use crate::chacha::{self, NONCE_LEN};
use crate::encryption::one_time_mac_key;
use crate::key::Key;
use crate::siphash::{siphash24, TAG_LEN};

/// Errors produced when opening sealed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenError {
    /// The supplied key's ID does not match the sealing key's ID.
    WrongKeyId {
        /// ID of the key the data was sealed under.
        expected: IdPrefix,
        /// ID of the key supplied.
        actual: IdPrefix,
    },
    /// The supplied key is a different version than the sealing key.
    WrongKeyVersion {
        /// Version the data was sealed under.
        expected: u64,
        /// Version supplied.
        actual: u64,
    },
    /// The authentication tag did not verify (corruption or wrong key
    /// material).
    BadTag,
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::WrongKeyId { expected, actual } => {
                write!(f, "data sealed under key {expected}, got {actual}")
            }
            OpenError::WrongKeyVersion { expected, actual } => {
                write!(f, "data sealed under key version {expected}, got {actual}")
            }
            OpenError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for OpenError {}

/// A data payload encrypted under a (group) key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedData {
    key_id: IdPrefix,
    key_version: u64,
    nonce: [u8; NONCE_LEN],
    ciphertext: Vec<u8>,
    tag: [u8; TAG_LEN],
}

impl SealedData {
    /// Encrypts `plaintext` under `key` with a fresh random nonce.
    pub fn seal<R: Rng + ?Sized>(key: &Key, plaintext: &[u8], rng: &mut R) -> SealedData {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce[..]);
        let mut ciphertext = plaintext.to_vec();
        chacha::xor_stream(key.material().as_bytes(), 1, &nonce, &mut ciphertext);
        let mut sealed = SealedData {
            key_id: *key.id(),
            key_version: key.version(),
            nonce,
            ciphertext,
            tag: [0u8; TAG_LEN],
        };
        sealed.tag = sealed.compute_tag(key);
        sealed
    }

    fn compute_tag(&self, key: &Key) -> [u8; TAG_LEN] {
        let mut input = Vec::with_capacity(self.ciphertext.len() + 32);
        input.push(self.key_id.len() as u8);
        for &d in self.key_id.digits() {
            input.extend_from_slice(&d.to_le_bytes());
        }
        input.extend_from_slice(&self.key_version.to_le_bytes());
        input.extend_from_slice(&self.nonce);
        input.extend_from_slice(&self.ciphertext);
        let block0 = chacha::block(key.material().as_bytes(), 0, &self.nonce);
        siphash24(&one_time_mac_key(&block0), &input)
    }

    /// Decrypts with `key`.
    ///
    /// # Errors
    ///
    /// * [`OpenError::WrongKeyId`] / [`OpenError::WrongKeyVersion`] — header
    ///   mismatch, checkable before any cryptography;
    /// * [`OpenError::BadTag`] — wrong key material or corrupted data.
    pub fn open(&self, key: &Key) -> Result<Vec<u8>, OpenError> {
        if key.id() != &self.key_id {
            return Err(OpenError::WrongKeyId {
                expected: self.key_id,
                actual: *key.id(),
            });
        }
        if key.version() != self.key_version {
            return Err(OpenError::WrongKeyVersion {
                expected: self.key_version,
                actual: key.version(),
            });
        }
        if self.compute_tag(key) != self.tag {
            return Err(OpenError::BadTag);
        }
        let mut plaintext = self.ciphertext.clone();
        chacha::xor_stream(key.material().as_bytes(), 1, &self.nonce, &mut plaintext);
        Ok(plaintext)
    }

    /// The raw parts for wire encoding (see [`crate::wire`]).
    #[cfg(test)]
    pub(crate) fn wire_parts(&self) -> (&IdPrefix, u64, &[u8; NONCE_LEN], &[u8], &[u8; TAG_LEN]) {
        (
            &self.key_id,
            self.key_version,
            &self.nonce,
            &self.ciphertext,
            &self.tag,
        )
    }

    /// Reassembles sealed data from decoded wire parts; [`SealedData::open`]
    /// still verifies authenticity.
    #[cfg(test)]
    pub(crate) fn from_wire_parts(
        key_id: IdPrefix,
        key_version: u64,
        nonce: [u8; NONCE_LEN],
        ciphertext: Vec<u8>,
        tag: [u8; TAG_LEN],
    ) -> SealedData {
        SealedData {
            key_id,
            key_version,
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Serialised size in bytes.
    #[cfg(test)]
    pub(crate) fn wire_size(&self) -> usize {
        1 + 2 * self.key_id.len() + 8 + NONCE_LEN + 4 + self.ciphertext.len() + TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group_key(version: u64) -> (StdRng, Key) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut key = Key::random(IdPrefix::root(), &mut rng);
        for _ in 0..version {
            key = key.next_version(&mut rng);
        }
        (rng, key)
    }

    #[test]
    fn seal_open_round_trip() {
        let (mut rng, key) = group_key(3);
        let msg = b"conference frame 42";
        let sealed = SealedData::seal(&key, msg, &mut rng);
        assert_eq!(sealed.open(&key).unwrap(), msg);
        assert_eq!(sealed.key_version, 3);
        assert!(sealed.key_id.is_empty());
    }

    #[test]
    fn stale_group_key_is_rejected_cleanly() {
        let (mut rng, key) = group_key(0);
        let newer = key.next_version(&mut rng);
        let sealed = SealedData::seal(&newer, b"secret", &mut rng);
        assert_eq!(
            sealed.open(&key),
            Err(OpenError::WrongKeyVersion {
                expected: 1,
                actual: 0
            })
        );
    }

    #[test]
    fn wrong_key_id_is_rejected() {
        let (mut rng, key) = group_key(0);
        let sealed = SealedData::seal(&key, b"x", &mut rng);
        let spec = rekey_id::IdSpec::new(3, 4).unwrap();
        let aux = Key::random(IdPrefix::new(&spec, vec![1]).unwrap(), &mut rng);
        assert!(matches!(
            sealed.open(&aux),
            Err(OpenError::WrongKeyId { .. })
        ));
    }

    #[test]
    fn tampering_detected() {
        let (mut rng, key) = group_key(1);
        let mut sealed = SealedData::seal(&key, b"payload bytes", &mut rng);
        sealed.ciphertext[0] ^= 0x80;
        assert_eq!(sealed.open(&key), Err(OpenError::BadTag));
    }

    #[test]
    fn tampered_nonce_is_detected() {
        let (mut rng, key) = group_key(1);
        let mut sealed = SealedData::seal(&key, b"payload bytes", &mut rng);
        sealed.nonce[0] ^= 1;
        assert_eq!(sealed.open(&key), Err(OpenError::BadTag));
    }

    #[test]
    fn tampered_tag_is_detected() {
        let (mut rng, key) = group_key(1);
        let mut sealed = SealedData::seal(&key, b"payload bytes", &mut rng);
        sealed.tag[3] ^= 4;
        assert_eq!(sealed.open(&key), Err(OpenError::BadTag));
    }

    /// Rebuilt from `chacha` and `siphash24`: the payload is encrypted from
    /// block counter 1, and the tag is keyed by bytes `32..48` of block 0.
    #[test]
    fn data_is_keyed_by_block_zero_and_encrypted_from_block_one() {
        let (mut rng, key) = group_key(3);
        let payload: Vec<u8> = (0..100).collect();
        let sealed = SealedData::seal(&key, &payload, &mut rng);
        let (_, _, nonce, ciphertext, tag) = sealed.wire_parts();

        let material = key.material().as_bytes();
        let mut expected = payload.clone();
        chacha::xor_stream(material, 1, nonce, &mut expected);
        let block = chacha::block(material, 0, nonce);
        let mut mac_input = vec![0];
        mac_input.extend_from_slice(&3u64.to_le_bytes());
        mac_input.extend_from_slice(nonce);
        mac_input.extend_from_slice(&expected);
        assert_eq!(ciphertext, &expected[..]);
        assert_eq!(
            tag,
            &siphash24(block[32..48].try_into().unwrap(), &mac_input)
        );
    }

    #[test]
    fn empty_payload_works() {
        let (mut rng, key) = group_key(0);
        let sealed = SealedData::seal(&key, b"", &mut rng);
        assert_eq!(sealed.open(&key).unwrap(), Vec::<u8>::new());
        assert!(sealed.wire_size() > 0);
    }
}
