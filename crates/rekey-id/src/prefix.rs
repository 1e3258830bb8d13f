//! ID prefixes: the node IDs of the conceptual ID tree.

use std::fmt;

use crate::{IdError, IdSpec, UserId, MAX_DEPTH};

/// The ID of a node in the ID tree: a string of `0..=D` digits.
///
/// * The empty prefix `[]` is the ID of the ID-tree root (and of the key
///   server, and of the group key in the modified key tree).
/// * A length-`l` prefix names a level-`l` ID subtree.
/// * A length-`D` prefix names a leaf, i.e. a user.
///
/// Per the paper, "an ID is a prefix of itself, and a null string is a prefix
/// of any ID".
///
/// ```
/// use rekey_id::{IdPrefix, IdSpec, UserId};
/// let spec = IdSpec::new(3, 10)?;
/// let u = UserId::new(&spec, vec![2, 0, 1])?;
/// let p = IdPrefix::new(&spec, vec![2, 0])?;
/// assert!(p.is_prefix_of_id(&u));
/// assert!(IdPrefix::root().is_prefix_of_id(&u));
/// assert_eq!(p.child(1).digits(), &[2, 0, 1]);
/// # Ok::<(), rekey_id::IdError>(())
/// ```
///
/// # Layout
///
/// An `IdPrefix` is an inline `Copy` value: [`MAX_DEPTH`] `u16` digit slots
/// followed by a length byte (16 bytes in all). Slots past `len` are
/// **always zero**, so the derived `Eq`/`Hash` see one canonical image per
/// prefix and the derived `Ord` (digit slots first, then length) equals
/// lexicographic order of the digit strings: zero is the smallest digit, so
/// padding never lifts a shorter string above one of its extensions, and a
/// string ties with its own zero-extensions only until the length decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdPrefix {
    digits: [u16; MAX_DEPTH],
    len: u8,
}

impl IdPrefix {
    /// The null prefix `[]`: ID of the ID-tree root, the key server, and the
    /// group key.
    pub const fn root() -> IdPrefix {
        IdPrefix {
            digits: [0; MAX_DEPTH],
            len: 0,
        }
    }

    /// Creates a prefix from digits, validating against `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::PrefixTooLong`] if more than `D` digits are given,
    /// or [`IdError::DigitOutOfRange`] for digits `>= B`.
    pub fn new(spec: &IdSpec, digits: Vec<u16>) -> Result<IdPrefix, IdError> {
        IdPrefix::from_digits(spec, &digits)
    }

    /// [`IdPrefix::new`] over a borrowed digit string.
    ///
    /// # Errors
    ///
    /// As [`IdPrefix::new`].
    pub fn from_digits(spec: &IdSpec, digits: &[u16]) -> Result<IdPrefix, IdError> {
        if digits.len() > spec.depth() {
            return Err(IdError::PrefixTooLong {
                max: spec.depth(),
                actual: digits.len(),
            });
        }
        if let Some(index) = digits.iter().position(|&d| d >= spec.base()) {
            return Err(IdError::DigitOutOfRange {
                index,
                digit: digits[index],
                base: spec.base(),
            });
        }
        // `spec.depth() <= MAX_DEPTH`, so the digits fit.
        Ok(IdPrefix::root().extended(digits))
    }

    /// `self` followed by `more`.
    fn extended(mut self, more: &[u16]) -> IdPrefix {
        let len = self.len();
        self.digits[len..len + more.len()].copy_from_slice(more);
        self.len = (len + more.len()) as u8;
        self
    }

    /// The digits of this prefix.
    pub fn digits(&self) -> &[u16] {
        &self.digits[..self.len()]
    }

    /// Number of digits; equals the ID-tree level of the node this prefix
    /// names.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` iff this is the null prefix `[]`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The last digit, if any.
    pub(crate) fn last_digit(&self) -> Option<u16> {
        self.digits().last().copied()
    }

    /// The parent node's ID (one digit shorter), or `None` for the root.
    pub(crate) fn parent(&self) -> Option<IdPrefix> {
        self.len().checked_sub(1).map(|len| self.truncate(len))
    }

    /// The ID of the child obtained by appending `digit`.
    ///
    /// If this prefix is a user's level-`i` prefix, `child(j)` is the ID of
    /// the user's `(i, j)`-ID subtree (Definition 2).
    ///
    /// # Panics
    ///
    /// Panics if this prefix already has [`MAX_DEPTH`] digits.
    pub fn child(&self, digit: u16) -> IdPrefix {
        self.extended(&[digit])
    }

    /// The first `len` digits of this prefix.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub(crate) fn truncate(&self, len: usize) -> IdPrefix {
        assert!(len <= self.len(), "truncate length exceeds prefix length");
        // Through `root()` so the dropped tail is zeroed.
        IdPrefix::root().extended(&self.digits[..len])
    }

    /// `true` iff `self` is a prefix of `other` (including `self == other`).
    pub(crate) fn is_prefix_of(&self, other: &IdPrefix) -> bool {
        other.digits().starts_with(self.digits())
    }

    /// `true` iff `self` is a prefix of the user ID `id`.
    pub fn is_prefix_of_id(&self, id: &UserId) -> bool {
        id.digits().starts_with(self.digits())
    }

    /// `true` iff one of `self`, `other` is a prefix of the other.
    ///
    /// This is exactly the condition of the `REKEY-MESSAGE-SPLIT` routine
    /// (Fig. 5) and Theorem 2: an encryption `e` is relevant to the subtree
    /// rooted at prefix `p` iff `e.id().is_related(p)`.
    pub fn is_related(&self, other: &IdPrefix) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }

    /// Locates `digits` relative to this prefix's *descendant block* in
    /// lexicographic digit order.
    ///
    /// When ID strings are sorted lexicographically, the descendants of a
    /// prefix `p` (including `p` itself) form one contiguous run. This
    /// comparator drives binary search for that run:
    ///
    /// * `Less` — `digits` sorts before every descendant of `self`
    ///   (this includes every *proper ancestor* of `self`, since a shorter
    ///   prefix sorts before its extensions);
    /// * `Equal` — `self` is a prefix of `digits` (a descendant);
    /// * `Greater` — `digits` sorts after every descendant of `self`.
    ///
    /// Together with the ancestor chain (the proper prefixes of `self`), this
    /// decomposes Theorem 2's relatedness predicate
    /// ([`IdPrefix::is_related`]) into one contiguous range plus at most
    /// `D` exact matches — the basis of the transport layer's prefix-range
    /// split index.
    ///
    /// ```
    /// use std::cmp::Ordering;
    /// use rekey_id::{IdPrefix, IdSpec};
    /// let spec = IdSpec::new(3, 10)?;
    /// let p = IdPrefix::new(&spec, vec![2, 0])?;
    /// assert_eq!(p.subtree_cmp(&[1, 9, 9]), Ordering::Less);
    /// assert_eq!(p.subtree_cmp(&[2]), Ordering::Less); // proper ancestor
    /// assert_eq!(p.subtree_cmp(&[2, 0]), Ordering::Equal);
    /// assert_eq!(p.subtree_cmp(&[2, 0, 7]), Ordering::Equal);
    /// assert_eq!(p.subtree_cmp(&[2, 1]), Ordering::Greater);
    /// # Ok::<(), rekey_id::IdError>(())
    /// ```
    pub fn subtree_cmp(&self, digits: &[u16]) -> std::cmp::Ordering {
        subtree_cmp(self.digits(), digits)
    }

    /// The proper ancestors of this prefix, root first: `[]`, the length-1
    /// prefix, …, up to (excluding) `self`.
    ///
    /// ```
    /// use rekey_id::{IdPrefix, IdSpec};
    /// let spec = IdSpec::new(3, 10)?;
    /// let p = IdPrefix::new(&spec, vec![2, 0])?;
    /// let chain: Vec<IdPrefix> = p.ancestors().collect();
    /// assert_eq!(chain.len(), 2);
    /// assert!(chain[0].is_empty());
    /// assert_eq!(chain[1].digits(), &[2]);
    /// # Ok::<(), rekey_id::IdError>(())
    /// ```
    #[cfg(test)]
    pub(crate) fn ancestors(&self) -> impl Iterator<Item = IdPrefix> + '_ {
        (0..self.len()).map(move |len| self.truncate(len))
    }

    /// Converts a full-length prefix back into a [`UserId`].
    ///
    /// Returns `None` if this prefix is shorter than `spec.depth()`.
    pub fn to_user_id(&self, spec: &IdSpec) -> Option<UserId> {
        UserId::from_digits(spec, self.digits()).ok()
    }
}

/// Slice-level form of [`IdPrefix::subtree_cmp`], for callers that index
/// raw digit strings without materialising an `IdPrefix` per comparison
/// (the transport layer's split index binary-searches with this).
pub fn subtree_cmp(prefix: &[u16], digits: &[u16]) -> std::cmp::Ordering {
    let shared = prefix.len().min(digits.len());
    match digits[..shared].cmp(&prefix[..shared]) {
        std::cmp::Ordering::Equal => {
            if digits.len() >= prefix.len() {
                std::cmp::Ordering::Equal
            } else {
                std::cmp::Ordering::Less
            }
        }
        unequal => unequal,
    }
}

impl fmt::Debug for IdPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdPrefix")
            .field("digits", &self.digits())
            .finish()
    }
}

impl fmt::Display for IdPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.digits().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<UserId> for IdPrefix {
    fn from(id: UserId) -> IdPrefix {
        id.as_prefix()
    }
}

impl From<&UserId> for IdPrefix {
    fn from(id: &UserId) -> IdPrefix {
        id.as_prefix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IdSpec {
        IdSpec::new(3, 4).unwrap()
    }

    #[test]
    fn root_is_empty_and_prefix_of_everything() {
        let root = IdPrefix::root();
        assert!(root.is_empty());
        assert_eq!(root.len(), 0);
        assert_eq!(root.to_string(), "[]");
        let p = IdPrefix::new(&spec(), vec![3, 2]).unwrap();
        assert!(root.is_prefix_of(&p));
        assert!(!p.is_prefix_of(&root));
        assert!(root.is_prefix_of(&root));
    }

    #[test]
    fn validation() {
        assert!(IdPrefix::new(&spec(), vec![0, 1, 2, 3]).is_err());
        assert!(IdPrefix::new(&spec(), vec![4]).is_err());
        assert!(IdPrefix::new(&spec(), vec![]).is_ok());
        assert!(IdPrefix::new(&spec(), vec![0, 1, 2]).is_ok());
    }

    #[test]
    fn parent_child_round_trip() {
        let p = IdPrefix::new(&spec(), vec![1, 2]).unwrap();
        assert_eq!(p.child(3).parent(), Some(p));
        assert_eq!(p.parent().unwrap().digits(), &[1]);
        assert_eq!(IdPrefix::root().parent(), None);
        assert_eq!(p.last_digit(), Some(2));
        assert_eq!(IdPrefix::root().last_digit(), None);
    }

    #[test]
    fn prefix_relations() {
        let a = IdPrefix::new(&spec(), vec![1]).unwrap();
        let b = IdPrefix::new(&spec(), vec![1, 2]).unwrap();
        let c = IdPrefix::new(&spec(), vec![2]).unwrap();
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_related(&b));
        assert!(b.is_related(&a));
        assert!(!a.is_related(&c));
        assert!(a.is_related(&a));
    }

    #[test]
    fn id_conversions() {
        let s = spec();
        let u = UserId::new(&s, vec![1, 2, 3]).unwrap();
        let p: IdPrefix = (&u).into();
        assert_eq!(p.to_user_id(&s), Some(u));
        assert_eq!(u.prefix(1).to_user_id(&s), None);
        assert!(u.prefix(0).is_prefix_of_id(&u));
        assert!(u.prefix(3).is_prefix_of_id(&u));
        assert!(!p.child(0).is_prefix_of_id(&u));
    }

    #[test]
    fn subtree_cmp_matches_is_related_partition() {
        use std::cmp::Ordering;
        let s = spec();
        // Exhaustive over all prefixes of a small spec: subtree_cmp(x) is
        // Equal iff self is a prefix of x; and sorting by digits makes the
        // Equal class contiguous.
        let mut all: Vec<IdPrefix> = Vec::new();
        for len in 0..=s.depth() {
            let mut stack = vec![Vec::new()];
            for _ in 0..len {
                let mut next = Vec::new();
                for d in &stack {
                    for digit in 0..s.base() {
                        let mut e = d.clone();
                        e.push(digit);
                        next.push(e);
                    }
                }
                stack = next;
            }
            all.extend(stack.into_iter().map(|d| IdPrefix::new(&s, d).unwrap()));
        }
        all.sort();
        for p in &all {
            let classes: Vec<Ordering> = all.iter().map(|x| p.subtree_cmp(x.digits())).collect();
            for (x, class) in all.iter().zip(&classes) {
                assert_eq!(*class == Ordering::Equal, p.is_prefix_of(x), "{p} vs {x}");
            }
            // Contiguity: no Less after an Equal, no Equal after a Greater.
            let run: Vec<Ordering> = classes.clone();
            let first_eq = run.iter().position(|&c| c == Ordering::Equal);
            let last_eq = run.iter().rposition(|&c| c == Ordering::Equal);
            if let (Some(lo), Some(hi)) = (first_eq, last_eq) {
                assert!(run[lo..=hi].iter().all(|&c| c == Ordering::Equal), "{p}");
                assert!(run[..lo].iter().all(|&c| c == Ordering::Less), "{p}");
                assert!(run[hi + 1..].iter().all(|&c| c == Ordering::Greater), "{p}");
            }
        }
    }

    #[test]
    fn ancestors_yield_proper_prefix_chain() {
        let p = IdPrefix::new(&spec(), vec![1, 2, 3]).unwrap();
        let chain: Vec<IdPrefix> = p.ancestors().collect();
        assert_eq!(chain.len(), 3);
        assert!(chain[0].is_empty());
        assert_eq!(chain[1].digits(), &[1]);
        assert_eq!(chain[2].digits(), &[1, 2]);
        assert!(chain.iter().all(|a| a.is_prefix_of(&p) && a != &p));
        assert_eq!(IdPrefix::root().ancestors().count(), 0);
    }

    #[test]
    fn truncate_takes_leading_digits() {
        let p = IdPrefix::new(&spec(), vec![3, 1, 2]).unwrap();
        assert_eq!(p.truncate(0), IdPrefix::root());
        assert_eq!(p.truncate(2).digits(), &[3, 1]);
        assert_eq!(p.truncate(3), p);
    }
}
