//! The steady-state seal loop allocates nothing: sealing into an arena
//! slot (the per-interval hot loop of `ModifiedKeyTree::batch_rekey`) must
//! not touch the heap. A counting global allocator makes any regression — a
//! `Vec` sneaking back into the MAC input assembly or into the IDs an
//! `Encryption` carries — an immediate test failure.
//!
//! Kept as a single `#[test]` so no sibling test can allocate concurrently
//! and pollute the counter.

use rand::SeedableRng;
use rekey_crypto::{Encryption, Key, NonceSeq};
use rekey_id::{IdPrefix, IdSpec};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn steady_state_seal_loop_is_allocation_free() {
    const SLOTS: usize = 4096;
    let spec = IdSpec::PAPER;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C);

    // One keypair per slot, at u-node depth (the deepest IDs a real batch
    // wraps), plus a warmed slot pool — exactly the arena state after a
    // first interval.
    let keys: Vec<(Key, Key)> = (0..SLOTS)
        .map(|i| {
            let node = IdPrefix::root()
                .child((i % 16) as u16)
                .child((i / 16 % 16) as u16)
                .child((i / 256) as u16)
                .child((i % 7) as u16);
            let child = node.child((i % 13) as u16);
            debug_assert!(child.len() == spec.depth());
            (Key::random(node, &mut rng), Key::random(child, &mut rng))
        })
        .collect();
    let mut slots: Vec<Encryption> = (0..SLOTS).map(|_| Encryption::placeholder()).collect();
    let warm_seq = NonceSeq::from_rng(&mut rng);
    for ((slot, (node, child)), nonce) in slots.iter_mut().zip(&keys).zip(warm_seq.nonces(0)) {
        slot.seal_into(child, node, nonce);
    }

    // Steady state: a fresh per-batch nonce seed, then re-seal every slot
    // — the exact loop body `seal_jobs` runs per interval.
    let seq = NonceSeq::from_rng(&mut rng);
    let before = allocations();
    for ((slot, (node, child)), nonce) in slots.iter_mut().zip(&keys).zip(seq.nonces(0)) {
        slot.seal_into(child, node, nonce);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "re-sealing {SLOTS} warmed slots must not allocate"
    );

    // The loop did real work: every slot carries the new seed's nonces.
    assert!(slots
        .iter()
        .zip(seq.nonces(0))
        .all(|(s, nonce)| *s.wire_parts().0 == nonce));
}
