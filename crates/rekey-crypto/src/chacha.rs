//! ChaCha20 stream cipher (RFC 8439), implemented from the specification.
//!
//! The paper treats "encryptions" abstractly — an encryption is a new key
//! encrypted under another key. To make the reproduction end-to-end
//! verifiable (users actually *decrypt* the rekey messages they receive and
//! must end up holding exactly the right keys) we wrap keys with a real
//! stream cipher rather than a placeholder.

/// Size of a ChaCha20 key in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// Size of a ChaCha20 nonce in bytes (the RFC 8439 96-bit nonce).
pub(crate) const NONCE_LEN: usize = 12;
/// Size of one ChaCha20 block in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn initial_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }
    state
}

/// Computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3).
pub(crate) fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let initial = initial_state(key, counter, nonce);
    let mut state = initial;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place with the ChaCha20 keystream starting
/// at block `counter` (RFC 8439 §2.4). Encryption and decryption are the
/// same operation.
///
/// # Panics
///
/// Panics if the message would overflow the 32-bit block counter (over
/// 256 GiB with a single nonce), which cannot happen for key wraps.
pub(crate) fn xor_stream(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    let blocks_needed = data.len().div_ceil(BLOCK_LEN) as u64;
    assert!(
        u64::from(counter) + blocks_needed <= u64::from(u32::MAX) + 1,
        "counter overflow"
    );
    for (i, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
        let ks = block(key, counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        clean
            .as_bytes()
            .chunks(2)
            .map(|c| u8::from_str_radix(std::str::from_utf8(c).unwrap(), 16).unwrap())
            .collect()
    }

    fn test_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    /// RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_test_vector() {
        let key = test_key();
        let nonce = hex("000000090000004a00000000");
        let out = block(&key, 1, nonce.as_slice().try_into().unwrap());
        let expected = hex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(out.to_vec(), expected);
    }

    /// RFC 8439 §2.4.2 encryption test vector ("Ladies and Gentlemen...").
    #[test]
    fn rfc8439_encrypt_test_vector() {
        let key = test_key();
        let nonce = hex("000000000000004a00000000");
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it."
            .to_vec();
        xor_stream(&key, 1, nonce.as_slice().try_into().unwrap(), &mut data);
        let expected = hex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn xor_stream_round_trips() {
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        let original: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let mut data = original.clone();
        xor_stream(&key, 0, &nonce, &mut data);
        assert_ne!(data, original);
        xor_stream(&key, 0, &nonce, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let key = test_key();
        let a = block(&key, 0, &[0u8; NONCE_LEN]);
        let b = block(&key, 0, &[1u8; NONCE_LEN]);
        assert_ne!(a, b);
        let c = block(&key, 1, &[0u8; NONCE_LEN]);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_message_is_noop() {
        let key = test_key();
        let mut data: Vec<u8> = Vec::new();
        xor_stream(&key, 0, &[0u8; NONCE_LEN], &mut data);
        assert!(data.is_empty());
    }
}
