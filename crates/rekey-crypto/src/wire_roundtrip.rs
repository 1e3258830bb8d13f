#![cfg(test)]
//! Property tests for the wire codec: every structure round-trips through
//! bytes, and the decoder never panics on arbitrary input.

use crate::wire::{
    decode_encryption, decode_rekey_message, decode_sealed_data, encode_encryption,
    encode_rekey_message, encode_sealed_data,
};
use crate::{Encryption, Key, SealedData};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rekey_id::{IdPrefix, IdSpec};

fn spec() -> IdSpec {
    IdSpec::new(5, 256).unwrap()
}

fn key_from(digits: &[u16], version: u64, seed: u64) -> Key {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let prefix = IdPrefix::new(&spec(), digits.to_vec()).unwrap();
    let k = Key::random(prefix, &mut rng);
    let mut k = k;
    for _ in 0..version.min(4) {
        k = k.next_version(&mut rng);
    }
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encryptions round-trip for arbitrary (valid) key identities.
    #[test]
    fn encryption_round_trips(
        enc_digits in vec(0u16..256, 0..5),
        tgt_digits in vec(0u16..256, 0..5),
        enc_ver in 0u64..4,
        tgt_ver in 0u64..4,
        seed in 0u64..1000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let wrap = key_from(&enc_digits, enc_ver, seed);
        let target = key_from(&tgt_digits, tgt_ver, seed ^ 1);
        let e = Encryption::seal(&wrap, &target, &mut rng);
        let mut buf = Vec::new();
        encode_encryption(&e, &mut buf);
        let back = decode_encryption(&buf, &spec()).unwrap();
        prop_assert_eq!(&back, &e);
        prop_assert_eq!(back.open(&wrap).unwrap(), target);
    }

    /// Rekey messages of any size round-trip.
    #[test]
    fn rekey_message_round_trips(sizes in vec(0u16..256, 0..20), seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let group = key_from(&[], 0, seed);
        let msg: Vec<Encryption> = sizes
            .iter()
            .map(|&d| {
                let wrap = key_from(&[d], 0, seed.wrapping_add(u64::from(d)));
                Encryption::seal(&wrap, &group, &mut rng)
            })
            .collect();
        let buf = encode_rekey_message(&msg);
        prop_assert_eq!(decode_rekey_message(&buf, &spec()).unwrap(), msg);
    }

    /// Sealed data round-trips for arbitrary payloads.
    #[test]
    fn sealed_data_round_trips(payload in vec(any::<u8>(), 0..512), seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let group = key_from(&[], 2, seed);
        let sealed = SealedData::seal(&group, &payload, &mut rng);
        let buf = encode_sealed_data(&sealed);
        let back = decode_sealed_data(&buf, &spec()).unwrap();
        prop_assert_eq!(back.open(&group).unwrap(), payload);
    }

    /// The decoder is total: arbitrary bytes never panic, they error.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..256)) {
        let s = spec();
        let _ = decode_encryption(&bytes, &s);
        let _ = decode_rekey_message(&bytes, &s);
        let _ = decode_sealed_data(&bytes, &s);
    }

    /// Any truncation of a valid encoding is rejected, never mis-decoded.
    #[test]
    fn truncations_are_rejected(cut in 0usize..100, seed in 0u64..100) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let wrap = key_from(&[1, 2], 1, seed);
        let group = key_from(&[], 0, seed);
        let e = Encryption::seal(&wrap, &group, &mut rng);
        let mut buf = Vec::new();
        encode_encryption(&e, &mut buf);
        let cut = cut % buf.len();
        if cut < buf.len() {
            prop_assert!(decode_encryption(&buf[..cut], &spec()).is_err());
        }
    }
}
