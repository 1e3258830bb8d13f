//! Key material, ChaCha20 key wrapping and rekey *encryptions* for the group
//! rekeying system (Zhang, Lam & Liu, ICDCS 2005, §2.4).
//!
//! The paper's rekey messages are sets of *encryptions* — new keys encrypted
//! under keys that (some) users already hold. This crate makes those objects
//! concrete and verifiable:
//!
//! * ChaCha20 (RFC 8439), implemented from the specification with the
//!   RFC test vectors, and SipHash-2-4, the MAC for encrypt-then-MAC key
//!   wraps — both crate-private: callers reach them through the types
//!   below.
//! * [`KeyMaterial`] / [`Key`] — 256-bit keys carrying the paper's
//!   identification scheme (key ID = ID-tree node ID).
//! * [`Encryption`] — `{k'}_k` with [`Encryption::id`] equal to the ID of
//!   the *encrypting* key, exactly as §2.4 defines it.
//! * [`SealedData`] — application data under the group key.
//! * [`NonceSeq`] — per-slot nonces for sealing on any number of threads.
//!
//! A wrap, an unwrap or a data tag computes one ChaCha20 block 0: bytes
//! `0..32` are keystream and bytes `32..48` the one-time SipHash-2-4 key
//! (RFC 8439 §2.6's split), and a `NonceSeq` block holds five nonces.
//!
//! # Example: one rekey hop, end to end
//!
//! ```
//! use rand::SeedableRng;
//! use rekey_crypto::{Encryption, Key};
//! use rekey_id::{IdPrefix, IdSpec};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let spec = IdSpec::new(5, 256)?;
//! // An auxiliary key for ID subtree [3] and the current group key.
//! let aux = Key::random(IdPrefix::new(&spec, vec![3])?, &mut rng);
//! let group = Key::random(IdPrefix::root(), &mut rng);
//!
//! // The server rekeys the group and wraps the new group key under the aux key.
//! let new_group = group.next_version(&mut rng);
//! let enc = Encryption::seal(&aux, &new_group, &mut rng);
//!
//! // A user holding the aux key recovers the new group key.
//! assert_eq!(enc.open(&aux).unwrap(), new_group);
//! // Lemma 3: the encryption is needed by users whose ID starts with digit 3.
//! assert_eq!(enc.id(), aux.id());
//! # Ok::<(), rekey_id::IdError>(())
//! ```

pub mod wire;

mod chacha;
mod data;
mod encryption;
mod key;
mod nonce;
mod siphash;

pub use data::{OpenError, SealedData};
pub use encryption::{Encryption, UnwrapError};
pub use key::{Key, KeyMaterial};
pub use nonce::NonceSeq;

#[cfg(test)]
mod wire_roundtrip;
