//! User IDs: strings of `D` digits of base `B`.

use std::fmt;

use crate::{IdPrefix, IdSpec, MAX_DEPTH};

/// Errors produced when constructing IDs or prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdError {
    /// The [`IdSpec`](crate::IdSpec) itself is degenerate.
    InvalidSpec {
        /// Requested number of digits.
        depth: usize,
        /// Requested digit base.
        base: u16,
    },
    /// A user ID must have exactly `expected` digits but `actual` were given.
    WrongLength {
        /// `IdSpec::depth()` of the target ID space.
        expected: usize,
        /// Number of digits supplied.
        actual: usize,
    },
    /// A prefix may have at most `max` digits but `actual` were given.
    PrefixTooLong {
        /// `IdSpec::depth()` of the target ID space.
        max: usize,
        /// Number of digits supplied.
        actual: usize,
    },
    /// A digit value was `>= base`.
    DigitOutOfRange {
        /// Index of the offending digit.
        index: usize,
        /// The offending value.
        digit: u16,
        /// The digit base `B`.
        base: u16,
    },
}

impl fmt::Display for IdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IdError::InvalidSpec { depth, base } => {
                write!(f, "invalid ID spec: depth {depth}, base {base}")
            }
            IdError::WrongLength { expected, actual } => {
                write!(f, "user ID must have {expected} digits, got {actual}")
            }
            IdError::PrefixTooLong { max, actual } => {
                write!(f, "ID prefix may have at most {max} digits, got {actual}")
            }
            IdError::DigitOutOfRange { index, digit, base } => {
                write!(
                    f,
                    "digit {digit} at index {index} is out of range for base {base}"
                )
            }
        }
    }
}

impl std::error::Error for IdError {}

/// A user ID: exactly `D` digits of base `B` (paper §2.1).
///
/// Digits are counted from left to right; the leftmost digit is the 0th
/// digit, exactly as in the paper. The `Ord` implementation is
/// lexicographic, which coincides with the left-to-right order of leaves in
/// the ID tree.
///
/// ```
/// use rekey_id::{IdSpec, UserId};
/// let spec = IdSpec::new(3, 10)?;
/// let u = UserId::new(&spec, vec![2, 0, 1])?;
/// assert_eq!(u.digit(0), 2);
/// assert_eq!(u.prefix(2).digits(), &[2, 0]);
/// # Ok::<(), rekey_id::IdError>(())
/// ```
///
/// A `UserId` is its full-length [`IdPrefix`] under another type: the same
/// 16-byte inline `Copy` value, with the same derived order and hash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(IdPrefix);

impl UserId {
    /// Creates a user ID from its digits.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::WrongLength`] if `digits.len() != spec.depth()`, or
    /// [`IdError::DigitOutOfRange`] if any digit is `>= spec.base()`.
    pub fn new(spec: &IdSpec, digits: Vec<u16>) -> Result<UserId, IdError> {
        UserId::from_digits(spec, &digits)
    }

    /// [`UserId::new`] over a borrowed digit string.
    ///
    /// # Errors
    ///
    /// As [`UserId::new`].
    pub fn from_digits(spec: &IdSpec, digits: &[u16]) -> Result<UserId, IdError> {
        if digits.len() != spec.depth() {
            return Err(IdError::WrongLength {
                expected: spec.depth(),
                actual: digits.len(),
            });
        }
        IdPrefix::from_digits(spec, digits).map(UserId)
    }

    /// Builds the `index`-th ID in lexicographic order, i.e. interprets
    /// `index` as a `depth`-digit base-`base` number. Useful for tests and
    /// workload generators.
    ///
    /// # Panics
    ///
    /// Panics if `index >= spec.id_space()`.
    pub fn from_index(spec: &IdSpec, index: u64) -> UserId {
        assert!(index < spec.id_space(), "index {index} out of ID space");
        let mut digits = [0u16; MAX_DEPTH];
        let mut rest = index;
        for slot in digits[..spec.depth()].iter_mut().rev() {
            *slot = (rest % u64::from(spec.base())) as u16;
            rest /= u64::from(spec.base());
        }
        UserId::from_digits(spec, &digits[..spec.depth()]).expect("digits are remainders mod base")
    }

    /// The digits of this ID, leftmost (0th) first.
    pub fn digits(&self) -> &[u16] {
        self.0.digits()
    }

    /// The `i`-th digit (the paper's `u.ID[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= D`.
    pub fn digit(&self, i: usize) -> u16 {
        self.digits()[i]
    }

    /// Number of digits `D`.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The first `len` digits as a prefix — the paper's `u.ID[0 : len-1]`.
    /// `prefix(0)` is the null prefix `[]`.
    ///
    /// # Panics
    ///
    /// Panics if `len > D`.
    pub fn prefix(&self, len: usize) -> IdPrefix {
        assert!(len <= self.depth(), "prefix length {len} exceeds ID depth");
        self.0.truncate(len)
    }

    /// The full ID viewed as a (maximal) prefix — the leaf node of the ID
    /// tree whose ID equals this user ID.
    pub fn as_prefix(&self) -> IdPrefix {
        self.0
    }

    /// Length of the longest common prefix with `other`, in digits.
    ///
    /// ```
    /// use rekey_id::{IdSpec, UserId};
    /// let spec = IdSpec::new(4, 8)?;
    /// let a = UserId::new(&spec, vec![1, 2, 3, 4])?;
    /// let b = UserId::new(&spec, vec![1, 2, 7, 4])?;
    /// assert_eq!(a.common_prefix_len(&b), 2);
    /// # Ok::<(), rekey_id::IdError>(())
    /// ```
    pub fn common_prefix_len(&self, other: &UserId) -> usize {
        self.digits()
            .iter()
            .zip(other.digits())
            .take_while(|(a, b)| a == b)
            .count()
    }
}

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserId")
            .field("digits", &self.digits())
            .finish()
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IdSpec {
        IdSpec::new(3, 4).unwrap()
    }

    #[test]
    fn new_validates_length_and_digits() {
        assert!(UserId::new(&spec(), vec![0, 1]).is_err());
        assert!(UserId::new(&spec(), vec![0, 1, 2, 3]).is_err());
        assert_eq!(
            UserId::new(&spec(), vec![0, 1, 4]),
            Err(IdError::DigitOutOfRange {
                index: 2,
                digit: 4,
                base: 4
            })
        );
        assert!(UserId::new(&spec(), vec![3, 3, 3]).is_ok());
    }

    #[test]
    fn from_index_round_trips_lexicographic_order() {
        let spec = spec();
        let all: Vec<UserId> = (0..spec.id_space())
            .map(|i| UserId::from_index(&spec, i))
            .collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        assert_eq!(all[0].digits(), &[0, 0, 0]);
        assert_eq!(all[63].digits(), &[3, 3, 3]);
        assert_eq!(all[7].digits(), &[0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of ID space")]
    fn from_index_panics_out_of_space() {
        let _ = UserId::from_index(&spec(), 64);
    }

    #[test]
    fn display_matches_paper_notation() {
        let u = UserId::new(&spec(), vec![2, 0, 1]).unwrap();
        assert_eq!(u.to_string(), "[2,0,1]");
    }

    #[test]
    fn common_prefix_len_is_symmetric() {
        let a = UserId::new(&spec(), vec![2, 0, 1]).unwrap();
        let b = UserId::new(&spec(), vec![2, 0, 3]).unwrap();
        assert_eq!(a.common_prefix_len(&b), 2);
        assert_eq!(b.common_prefix_len(&a), 2);
        assert_eq!(a.common_prefix_len(&a), 3);
    }

    #[test]
    fn error_display_is_informative() {
        let err = UserId::new(&spec(), vec![0, 9, 0]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
