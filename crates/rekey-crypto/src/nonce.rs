//! Deterministic per-slot nonce derivation for batch sealing.
//!
//! The batch-rekey pipeline seals every encryption of an interval in
//! parallel, so nonces cannot be drawn from the (sequential, shared) key
//! RNG at seal time — the draw order would depend on thread scheduling.
//! [`NonceSeq`] decouples the two: one 256-bit seed is drawn *once* per
//! interval from the key RNG, and each seal job derives its nonce from
//! `(seed, slot)`, where `slot` is the job's fixed position in the
//! interval's flat job list. Identical seeds therefore produce
//! byte-identical nonces at any thread count, in any seal order.
//!
//! Five nonces share one ChaCha20 block keyed by the seed: slot `s` is
//! bytes `12·(s mod 5)..+12` of derived block `s / 5`, so a walk over
//! consecutive slots ([`NonceSeq::nonces`]) computes one block per five.
//!
//! Uniqueness: within one interval the slots are distinct, and across
//! intervals the seeds are independent 256-bit draws, so `(encrypting
//! key, nonce)` pairs never repeat for keystream purposes — the same
//! guarantee fresh random nonces gave the serial path, with the same
//! 96-bit nonce width on the wire.

use rand::Rng;

use crate::chacha::{self, BLOCK_LEN, NONCE_LEN};

/// Nonces per derived block: five fill 60 of its 64 bytes.
const PER_BLOCK: u64 = (BLOCK_LEN / NONCE_LEN) as u64;

/// A deterministic sequence of 96-bit nonces, keyed by a per-batch seed.
///
/// ```
/// use rand::SeedableRng;
/// use rekey_crypto::NonceSeq;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let seq = NonceSeq::from_rng(&mut rng);
/// // A walk from any slot (any thread's chunk) agrees with every other …
/// let from_0: Vec<[u8; 12]> = seq.nonces(0).take(43).collect();
/// assert_eq!(seq.nonces(42).next(), Some(from_0[42]));
/// // … and different slots get different nonces.
/// assert_ne!(from_0[0], from_0[1]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonceSeq {
    seed: [u8; chacha::KEY_LEN],
}

impl NonceSeq {
    /// Draws a fresh 256-bit seed from `rng` — exactly one draw, so the
    /// serial reference oracle and the parallel pipeline consume the RNG
    /// identically.
    pub fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> NonceSeq {
        let mut seed = [0u8; chacha::KEY_LEN];
        rng.fill(&mut seed[..]);
        NonceSeq { seed }
    }

    /// Wraps an explicit seed (tests and fixed vectors).
    pub fn from_seed(seed: [u8; chacha::KEY_LEN]) -> NonceSeq {
        NonceSeq { seed }
    }

    /// The nonces of slots `first`, `first + 1`, … in order, without end.
    /// Pure — any thread may walk any range and gets the same nonces.
    pub fn nonces(self, first: u64) -> impl Iterator<Item = [u8; NONCE_LEN]> {
        (first / PER_BLOCK..)
            .flat_map(move |index| {
                let block = self.block(index);
                (0..PER_BLOCK as usize)
                    .map(move |at| block[at * NONCE_LEN..][..NONCE_LEN].try_into().expect("12"))
            })
            .skip((first % PER_BLOCK) as usize)
    }

    /// Derived block `index`. Domain-separated from data encryption: the
    /// derivation nonce carries a fixed tag plus the high index bits, the
    /// block counter the low bits, so every index maps to a distinct block.
    fn block(&self, index: u64) -> [u8; BLOCK_LEN] {
        let mut derive = [0u8; NONCE_LEN];
        derive[..4].copy_from_slice(b"seq:");
        derive[4..].copy_from_slice(&(index >> 32).to_le_bytes());
        chacha::block(&self.seed, index as u32, &derive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The per-slot definition, written out from `chacha::block` alone.
    fn by_slot(seq: &NonceSeq, slot: u64) -> [u8; NONCE_LEN] {
        let index = slot / 5;
        let mut derive = *b"seq:\0\0\0\0\0\0\0\0";
        derive[4..].copy_from_slice(&(index >> 32).to_le_bytes());
        let block = chacha::block(&seq.seed, index as u32, &derive);
        let at = 12 * (slot % 5) as usize;
        block[at..at + 12].try_into().unwrap()
    }

    fn first(seq: NonceSeq, slot: u64) -> [u8; NONCE_LEN] {
        seq.nonces(slot).next().unwrap()
    }

    #[test]
    fn deterministic_per_seed_and_slot() {
        let a = NonceSeq::from_seed([7; 32]);
        let b = NonceSeq::from_seed([7; 32]);
        assert_eq!(first(a, 0), first(b, 0));
        assert_eq!(first(a, u64::MAX), first(b, u64::MAX));
        assert_eq!(first(a, u64::MAX), by_slot(&a, u64::MAX));
        let c = NonceSeq::from_seed([8; 32]);
        assert_ne!(first(a, 0), first(c, 0));
    }

    #[test]
    fn a_walk_from_any_start_is_the_per_slot_definition() {
        let seq = NonceSeq::from_seed([5; 32]);
        for start in 0..=10 {
            let walked: Vec<_> = seq.nonces(start).take(40).collect();
            let defined: Vec<_> = (start..start + 40).map(|s| by_slot(&seq, s)).collect();
            assert_eq!(walked, defined, "walk from slot {start}");
        }
    }

    #[test]
    fn slots_across_block_boundaries_differ() {
        let seq = NonceSeq::from_seed([1; 32]);
        // Same offset in neighbouring blocks, and the last/first slots of
        // neighbouring blocks.
        assert_ne!(first(seq, 2), first(seq, 7));
        assert_ne!(first(seq, 4), first(seq, 5));
        // Blocks 2³² − 1 and 2³²: the counter wraps to 0, and the high
        // index bits in the derivation nonce keep the blocks apart.
        let last_low = 5 * (u64::from(u32::MAX));
        let first_high = 5 * (1u64 << 32);
        for r in 0..5 {
            assert_ne!(first(seq, last_low + r), first(seq, first_high + r));
            assert_ne!(first(seq, r), first(seq, first_high + r));
        }
        let across: Vec<_> = seq.nonces(last_low + 3).take(4).collect();
        assert_eq!(across[2], by_slot(&seq, first_high));
        assert_ne!(across[1], across[2]);
    }

    #[test]
    fn rng_draw_is_one_fill() {
        // Two identically seeded RNGs: one feeds NonceSeq, the other does
        // a single 32-byte fill — afterwards both must be in the same
        // state (the draw-order contract the key tree relies on).
        let mut a = rand::rngs::StdRng::seed_from_u64(3);
        let mut b = rand::rngs::StdRng::seed_from_u64(3);
        let _ = NonceSeq::from_rng(&mut a);
        let mut skip = [0u8; 32];
        b.fill(&mut skip[..]);
        let (mut x, mut y) = ([0u8; 8], [0u8; 8]);
        a.fill(&mut x[..]);
        b.fill(&mut y[..]);
        assert_eq!(x, y);
    }
}
