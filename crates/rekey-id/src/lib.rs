//! User IDs, ID prefixes and the conceptual *ID tree* of the T-mesh group
//! rekeying system (Zhang, Lam & Liu, ICDCS 2005, §2.1).
//!
//! Every user in a secure group is assigned a unique ID that is a string of
//! `D` digits of base `B` (the paper uses `D = 5`, `B = 256`). All user IDs
//! and their prefixes are organised into a conceptual tree, the **ID tree**
//! (Definition 1): the root is the null prefix `[]`, a node with ID `v`
//! exists at level `i` iff some user's ID has `v` as a prefix, and its parent
//! is the length-`i−1` prefix of `v`.
//!
//! The same identification scheme is reused throughout the system:
//!
//! * neighbor-table entries are indexed by `(i, j)`-ID subtrees
//!   ([`IdPrefix::child`] of a user's level-`i` prefix),
//! * keys in the modified key tree are identified by the ID of their ID-tree
//!   node, and
//! * encryptions are identified by the ID of the *encrypting* key, so that a
//!   user needs an encryption iff the encryption's ID is a prefix of the
//!   user's ID (Lemma 3).
//!
//! # Indexing convention
//!
//! The paper writes `u.ID[0 : i]` for the first `i + 1` digits of `u.ID`.
//! This crate uses Rust-style half-open lengths instead: `u.prefix(len)`
//! returns the first `len` digits, so the paper's `u.ID[0 : i]` is
//! `u.prefix(i + 1)` and the paper's "null string if `i < 0`" is
//! `u.prefix(0)`.
//!
//! # Example
//!
//! ```
//! use rekey_id::{IdSpec, UserId};
//!
//! let spec = IdSpec::new(5, 256)?;
//! let u = UserId::new(&spec, vec![0, 1, 2, 3, 4])?;
//! assert_eq!(u.digit(0), 0);
//! assert!(u.prefix(2).is_prefix_of_id(&u));
//! assert_eq!(u.to_string(), "[0,1,2,3,4]");
//! # Ok::<(), rekey_id::IdError>(())
//! ```

mod id;
mod prefix;
mod tree;

pub use id::{IdError, UserId};
pub use prefix::IdPrefix;
pub use tree::{IdTree, IdTreeNode};

/// The largest supported `D`. IDs and prefixes store their digits inline
/// in this many `u16` slots (see [`IdPrefix`]), which is what makes them
/// 16-byte `Copy` values; the paper's `D = 5` leaves two to spare.
pub const MAX_DEPTH: usize = 7;

/// The shape of the ID space: `depth` digits (the paper's `D`) of base
/// `base` (the paper's `B`).
///
/// The paper's simulations use `D = 5` and `B = 256`; that configuration is
/// available as [`IdSpec::PAPER`].
///
/// ```
/// use rekey_id::IdSpec;
/// let spec = IdSpec::PAPER;
/// assert_eq!((spec.depth(), spec.base()), (5, 256));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSpec {
    depth: usize,
    base: u16,
}

impl IdSpec {
    /// The configuration used in the paper's simulations: `D = 5`, `B = 256`.
    pub const PAPER: IdSpec = IdSpec {
        depth: 5,
        base: 256,
    };

    /// Creates a new ID-space specification.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::InvalidSpec`] if `depth == 0`,
    /// `depth > MAX_DEPTH` or `base < 2`.
    pub fn new(depth: usize, base: u16) -> Result<IdSpec, IdError> {
        if depth == 0 || depth > MAX_DEPTH || base < 2 {
            return Err(IdError::InvalidSpec { depth, base });
        }
        Ok(IdSpec { depth, base })
    }

    /// Number of digits `D` in every user ID.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Base `B` of each digit; digits range over `0..base`.
    pub fn base(&self) -> u16 {
        self.base
    }

    /// Total number of distinct user IDs, saturating at `u64::MAX`.
    ///
    /// ```
    /// use rekey_id::IdSpec;
    /// assert_eq!(IdSpec::new(3, 4)?.id_space(), 64);
    /// # Ok::<(), rekey_id::IdError>(())
    /// ```
    pub fn id_space(&self) -> u64 {
        let mut acc: u64 = 1;
        for _ in 0..self.depth {
            acc = acc.saturating_mul(u64::from(self.base));
        }
        acc
    }
}

impl Default for IdSpec {
    fn default() -> Self {
        IdSpec::PAPER
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn paper_spec_is_5_by_256() {
        assert_eq!(IdSpec::PAPER.depth(), 5);
        assert_eq!(IdSpec::PAPER.base(), 256);
        assert_eq!(IdSpec::default(), IdSpec::PAPER);
    }

    #[test]
    fn rejects_degenerate_specs() {
        assert!(IdSpec::new(0, 4).is_err());
        assert!(IdSpec::new(3, 0).is_err());
        assert!(IdSpec::new(3, 1).is_err());
        assert!(IdSpec::new(1, 2).is_ok());
    }

    #[test]
    fn depth_is_bounded_by_the_inline_digit_slots() {
        assert!(IdSpec::new(MAX_DEPTH, 2).is_ok());
        assert_eq!(
            IdSpec::new(MAX_DEPTH + 1, 2),
            Err(IdError::InvalidSpec { depth: 8, base: 2 })
        );
    }

    #[test]
    fn id_space_saturates() {
        assert_eq!(IdSpec::new(2, 16).unwrap().id_space(), 256);
        assert_eq!(IdSpec::new(7, 65_535).unwrap().id_space(), u64::MAX);
    }
}

#[cfg(test)]
mod inline_repr;
