//! Key trees and batch rekeying for secure group communication (Zhang, Lam
//! & Liu, ICDCS 2005, §2.4, §4.2, Appendix B).
//!
//! Three key-management strategies are implemented:
//!
//! * [`ModifiedKeyTree`] — the paper's contribution: a key tree whose
//!   structure matches the ID tree exactly (fixed height `D`, horizontal
//!   growth), enabling prefix-based identification of every key and
//!   encryption and hence stateless rekey message splitting;
//! * [`OriginalKeyTree`] — the Wong–Gouda–Lam degree-4 tree with the batch
//!   rekeying algorithm of \[32\], the paper's baseline;
//! * [`ClusteredKeyTree`] — the modified tree under the cluster rekeying
//!   heuristic (bottom clusters with leaders, Appendix B), which makes the
//!   modified tree's rekey cost drop below the original tree's when few
//!   users leave (Fig. 12(c)).
//!
//! [`KeyRing`] is the user-side counterpart: it consumes rekey messages by
//! actually decrypting the ChaCha20 key wraps, so the whole pipeline is
//! verified end to end in tests.
//!
//! ```
//! use rand::SeedableRng;
//! use rekey_id::{IdSpec, UserId};
//! use rekey_keytree::{KeyRing, ModifiedKeyTree, RekeyArena};
//!
//! let spec = IdSpec::new(3, 4)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let mut tree = ModifiedKeyTree::new(&spec);
//! // The caller owns the (reusable) arena every interval seals into.
//! let mut arena = RekeyArena::new();
//! let a = UserId::new(&spec, vec![0, 1, 2])?;
//! let b = UserId::new(&spec, vec![0, 3, 3])?;
//! tree.batch_rekey(&[a.clone(), b.clone()], &[], &mut rng, &mut arena).unwrap();
//!
//! // User a joins with its path keys, then b leaves; a decrypts the rekey
//! // message and ends up holding exactly the server's current keys.
//! let mut ring_a = KeyRing::new(a.clone(), tree.user_path_keys(&a));
//! let out = tree.batch_rekey(&[], &[b], &mut rng, &mut arena).unwrap();
//! ring_a.absorb(out.encryptions());
//! assert_eq!(ring_a.group_key(), tree.group_key());
//! # Ok::<(), rekey_id::IdError>(())
//! ```

mod batch;
mod cluster;
mod keyring;
mod modified;
mod original;

pub use batch::{RekeyArena, RekeyBatch};
pub use cluster::{ClusterRekeyBatch, ClusteredKeyTree};
pub use keyring::KeyRing;
pub use modified::{KeyTreeError, ModifiedKeyTree, PathKeys};
pub use original::{NodeIdx, OrigEncryption, OrigRekeyOutcome, OriginalKeyTree};

// Test code only: the `BTreeMap` oracle of the arena tree and the property
// tests that churn the two in lockstep.
#[cfg(test)]
mod arena_oracle;
#[cfg(test)]
mod parallel_seal;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod churn_properties;
