//! The caller-held [`RekeyArena`] and the borrowed [`RekeyBatch`] view —
//! the zero-copy surface of one batch-rekey interval.
//!
//! A [`ModifiedKeyTree::batch_rekey`] no longer returns owned `Vec`s: it
//! seals every encryption of the interval directly into slots of an arena
//! the *caller* owns and reuses across intervals, then hands back a
//! [`RekeyBatch`] that borrows the arena. Steady-state interval work
//! therefore performs **zero heap allocations in the seal loop** — once
//! the pools have grown to the working set, each interval overwrites the
//! same slots in place (see [`Encryption::seal_into`]).
//!
//! Callers that need to *keep* the encryptions past the interval (e.g.
//! the runtime's NACK-recovery history) call
//! [`RekeyBatch::take_encryptions`], which moves the pool out without
//! copying; the arena simply regrows on the next interval.
//!
//! [`ModifiedKeyTree::batch_rekey`]: crate::ModifiedKeyTree::batch_rekey
//! [`Encryption::seal_into`]: rekey_crypto::Encryption::seal_into

use std::fmt;

use rekey_crypto::Encryption;
use rekey_id::IdPrefix;

/// One pending key wrap of an interval: the new key of tree slot `node`
/// sealed under the (possibly also new) key of its child slot `child`.
/// Jobs are flattened in emit order so their index doubles as the
/// deterministic nonce slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SealJob {
    pub(crate) node: u32,
    pub(crate) child: u32,
}

/// Reusable scratch owned by the caller of
/// [`batch_rekey`](crate::ModifiedKeyTree::batch_rekey): the slot pool for
/// the interval's encryptions, its updated-ID list and the flattened
/// seal-job list.
///
/// Create one per driver (server loop, bench, test) and pass `&mut` to
/// every `batch_rekey` call; the returned [`RekeyBatch`] borrows it. Slots
/// are overwritten in place each interval, so a warm arena makes the seal
/// loop allocation-free.
#[derive(Debug, Default)]
pub struct RekeyArena {
    /// Encryption slot pool; `[..sealed]` is the current batch.
    pub(crate) encryptions: Vec<Encryption>,
    pub(crate) sealed: usize,
    /// Updated IDs of the current batch.
    pub(crate) updated: Vec<IdPrefix>,
    /// Flattened seal jobs of the current batch, in emit order.
    pub(crate) jobs: Vec<SealJob>,
    /// Wall-clock nanoseconds the seal phase of the last batch took.
    pub(crate) seal_nanos: u64,
    /// Node (re)creations of the last batch that resumed a retired
    /// version.
    pub(crate) tombstone_hits: u64,
}

/// Cloning a value that embeds an arena (e.g. a server checkpoint) must
/// not duplicate a 64k-slot scratch pool, and the scratch never affects
/// outputs — so a clone is simply a fresh, empty arena.
impl Clone for RekeyArena {
    fn clone(&self) -> RekeyArena {
        RekeyArena::new()
    }
}

impl RekeyArena {
    /// Creates an empty arena; pools grow on first use.
    pub fn new() -> RekeyArena {
        RekeyArena::default()
    }

    /// Creates an arena with `encryptions` slots pre-grown, for drivers
    /// that know their interval size up front.
    #[cfg(test)]
    pub(crate) fn with_capacity(encryptions: usize) -> RekeyArena {
        let mut arena = RekeyArena::new();
        arena.ensure_slots(encryptions);
        arena.sealed = 0;
        arena
    }

    /// Number of encryption slots currently pooled (grown high-water).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.encryptions.len()
    }

    /// Starts a new batch: empties the logical views without shrinking or
    /// freeing any pool.
    pub(crate) fn reset(&mut self) {
        self.sealed = 0;
        self.updated.clear();
        self.jobs.clear();
        self.seal_nanos = 0;
        self.tombstone_hits = 0;
    }

    /// Grows the encryption pool to at least `n` slots and marks `[..n]`
    /// as the current batch. Existing slots are reused as-is (they will be
    /// overwritten by `seal_into`).
    pub(crate) fn ensure_slots(&mut self, n: usize) {
        if self.encryptions.len() < n {
            self.encryptions.resize_with(n, Encryption::placeholder);
        }
        self.sealed = n;
    }
}

/// The result of one batch-rekey interval, borrowing the caller's
/// [`RekeyArena`] — the accessor-based replacement for the old
/// `RekeyOutcome` with its bare `pub` `Vec` fields.
#[non_exhaustive]
pub struct RekeyBatch<'a> {
    arena: &'a mut RekeyArena,
}

impl<'a> RekeyBatch<'a> {
    pub(crate) fn new(arena: &'a mut RekeyArena) -> RekeyBatch<'a> {
        RekeyBatch { arena }
    }

    /// The paper's *rekey cost*: "the number of encryptions contained in a
    /// rekey message" (§4.2).
    pub fn cost(&self) -> usize {
        self.arena.sealed
    }

    /// The rekey message: all generated encryptions, ordered by decreasing
    /// encrypting-key ID length so receivers can unwrap in a single pass.
    pub fn encryptions(&self) -> &[Encryption] {
        &self.arena.encryptions[..self.arena.sealed]
    }

    /// IDs of the k-nodes whose keys were changed, in ascending ID order.
    pub fn updated(&self) -> &[IdPrefix] {
        &self.arena.updated
    }

    /// Wall-clock nanoseconds the seal phase (key wrapping only, after key
    /// derivation) of this batch took — what the benchmark's
    /// `keytree.seal_ms` layer reports.
    pub fn seal_nanos(&self) -> u64 {
        self.arena.seal_nanos
    }

    /// Node (re)creations in this batch that resumed a retired version
    /// counter instead of starting at 0 — each one an ID reuse the
    /// tombstone map defended against.
    pub fn tombstone_hits(&self) -> u64 {
        self.arena.tombstone_hits
    }

    /// Moves the sealed encryptions out of the arena without copying, for
    /// callers that must own them past the interval (message history,
    /// retransmission buffers). The arena's pool regrows on the next
    /// batch.
    pub fn take_encryptions(&mut self) -> Vec<Encryption> {
        let mut pool = std::mem::take(&mut self.arena.encryptions);
        pool.truncate(self.arena.sealed);
        self.arena.sealed = 0;
        pool
    }
}

impl fmt::Debug for RekeyBatch<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RekeyBatch")
            .field("cost", &self.cost())
            .field("updated", &self.updated())
            .finish_non_exhaustive()
    }
}

/// Batches are equal when their visible contents (encryptions and updated
/// IDs) are — the byte-identity relation the determinism tests assert.
impl PartialEq for RekeyBatch<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.encryptions() == other.encryptions() && self.updated() == other.updated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_clone_is_fresh() {
        let arena = RekeyArena::with_capacity(8);
        assert_eq!(arena.capacity(), 8);
        let copy = arena.clone();
        assert_eq!(copy.capacity(), 0, "clones start empty");
    }

    #[test]
    fn take_encryptions_resets_the_view() {
        let mut arena = RekeyArena::new();
        arena.ensure_slots(3);
        let mut batch = RekeyBatch::new(&mut arena);
        assert_eq!(batch.cost(), 3);
        let owned = batch.take_encryptions();
        assert_eq!(owned.len(), 3);
        assert_eq!(batch.cost(), 0);
        assert!(batch.encryptions().is_empty());
    }

    #[test]
    fn updated_slots_are_reused() {
        let mut arena = RekeyArena::new();
        let spec = rekey_id::IdSpec::new(2, 4).unwrap();
        let id = IdPrefix::new(&spec, vec![1]).unwrap();
        arena.updated.push(id);
        arena.reset();
        assert!(arena.updated.is_empty());
        assert!(arena.updated.capacity() >= 1, "pool survives reset");
        arena.updated.push(IdPrefix::root());
        assert_eq!(arena.updated.len(), 1);
        assert!(arena.updated[0].is_empty(), "slot overwritten in place");
    }
}
