//! SipHash-2-4 (Aumasson & Bernstein), used as the MAC for key wraps.
//!
//! SipHash is a keyed pseudorandom function with a 128-bit key and 64-bit
//! output. We use it encrypt-then-MAC style so that corrupted or
//! wrongly-keyed unwraps are detected, which the end-to-end rekeying tests
//! rely on.

/// Size of a SipHash key in bytes.
pub(crate) const MAC_KEY_LEN: usize = 16;
/// Size of the produced tag in bytes.
pub(crate) const TAG_LEN: usize = 8;

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// Computes the SipHash-2-4 tag of `data` under `key`.
pub(crate) fn siphash24(key: &[u8; MAC_KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
    let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
    let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }
    let rest = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= m;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    (v[0] ^ v[1] ^ v[2] ^ v[3]).to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper (Appendix A): key
    /// 000102...0f, messages of increasing length 00, 0001, 000102, ...
    const VECTORS: [[u8; 8]; 8] = [
        [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72],
        [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74],
        [0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d],
        [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85],
        [0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf],
        [0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18],
        [0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb],
        [0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab],
    ];

    #[test]
    fn paper_test_vectors() {
        let mut key = [0u8; MAC_KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        for (len, expected) in VECTORS.iter().enumerate() {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(&siphash24(&key, &msg), expected, "length {len}");
        }
    }

    #[test]
    fn different_keys_give_different_tags() {
        let msg = b"rekey message";
        let a = siphash24(&[0u8; MAC_KEY_LEN], msg);
        let b = siphash24(&[1u8; MAC_KEY_LEN], msg);
        assert_ne!(a, b);
    }

    #[test]
    fn tag_depends_on_every_byte() {
        let key = [9u8; MAC_KEY_LEN];
        let base = siphash24(&key, b"hello world");
        assert_ne!(base, siphash24(&key, b"hello worle"));
        assert_ne!(base, siphash24(&key, b"hello worl"));
        assert_ne!(base, siphash24(&key, b"hello world "));
    }
}
