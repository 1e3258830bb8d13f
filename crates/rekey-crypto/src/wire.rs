//! Wire encoding of rekey messages and sealed data.
//!
//! A real deployment sends encryptions and data payloads over UDP/TCP; this
//! module provides the (dependency-free) binary codec. The format is
//! little-endian and length-prefixed:
//!
//! ```text
//! IdPrefix    := len:u8, digits:[u16; len]
//! Encryption  := 0x01, enc_id:IdPrefix, enc_ver:u64,
//!                tgt_id:IdPrefix, tgt_ver:u64,
//!                nonce:[u8;12], ciphertext:[u8;32], tag:[u8;8]
//! SealedData  := 0x02, key_id:IdPrefix, key_ver:u64,     (test code only)
//!                nonce:[u8;12], len:u32, ciphertext:[u8;len], tag:[u8;8]
//! RekeyMessage:= 0x03, count:u32, Encryption*
//! ```

use std::fmt;

use rekey_id::{IdError, IdPrefix, IdSpec, MAX_DEPTH};

use crate::chacha::{KEY_LEN, NONCE_LEN};
use crate::encryption::Encryption;
use crate::key::{Key, KeyMaterial};
use crate::siphash::TAG_LEN;

const TAG_ENCRYPTION: u8 = 0x01;
const TAG_REKEY_MESSAGE: u8 = 0x03;

/// Errors produced while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    Truncated,
    /// The leading type tag was not the expected one.
    WrongTag {
        /// Tag found in the input.
        found: u8,
        /// Tag the decoder expected.
        expected: u8,
    },
    /// An embedded ID failed validation against the [`IdSpec`].
    BadId(IdError),
    /// Trailing bytes remained after a complete structure.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::WrongTag { found, expected } => {
                write!(f, "wrong type tag {found:#04x}, expected {expected:#04x}")
            }
            DecodeError::BadId(e) => write!(f, "invalid embedded ID: {e}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after structure"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<IdError> for DecodeError {
    fn from(e: IdError) -> DecodeError {
        DecodeError::BadId(e)
    }
}

/// A bounds-checked cursor over wire bytes.
///
/// Every accessor returns [`DecodeError::Truncated`] instead of panicking
/// when the input runs short, so decoders built on it are total functions
/// over arbitrary byte strings. Higher layers (the runtime's `RtMsg`
/// codec) compose their decoders from the same reader this module uses.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if the input is exhausted.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Asserts the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] when bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

/// Appends an [`IdPrefix`] (`len:u8, digits:[u16; len]`, little-endian).
pub fn encode_prefix(out: &mut Vec<u8>, p: &IdPrefix) {
    out.push(p.len() as u8);
    for &d in p.digits() {
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// Reads an [`IdPrefix`] written by [`encode_prefix`], validating it
/// against `spec`.
///
/// # Errors
///
/// [`DecodeError::Truncated`] on short input, [`DecodeError::BadId`] when
/// the digits violate `spec`.
pub fn decode_prefix(r: &mut Reader<'_>, spec: &IdSpec) -> Result<IdPrefix, DecodeError> {
    let len = usize::from(r.u8()?);
    let mut digits = [0u16; MAX_DEPTH];
    let slots = digits.get_mut(..len).ok_or(IdError::PrefixTooLong {
        max: spec.depth(),
        actual: len,
    })?;
    for d in slots {
        *d = r.u16()?;
    }
    Ok(IdPrefix::from_digits(spec, &digits[..len])?)
}

fn expect_tag(r: &mut Reader<'_>, expected: u8) -> Result<(), DecodeError> {
    let found = r.u8()?;
    if found != expected {
        return Err(DecodeError::WrongTag { found, expected });
    }
    Ok(())
}

/// Encodes one encryption.
pub fn encode_encryption(e: &Encryption, out: &mut Vec<u8>) {
    out.push(TAG_ENCRYPTION);
    encode_prefix(out, e.id());
    out.extend_from_slice(&e.encrypting_version().to_le_bytes());
    encode_prefix(out, e.encrypted_id());
    out.extend_from_slice(&e.encrypted_version().to_le_bytes());
    let (nonce, ciphertext, tag) = e.wire_parts();
    out.extend_from_slice(nonce);
    out.extend_from_slice(ciphertext);
    out.extend_from_slice(tag);
}

fn decode_encryption_inner(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Encryption, DecodeError> {
    expect_tag(r, TAG_ENCRYPTION)?;
    let enc_id = decode_prefix(r, spec)?;
    let enc_ver = r.u64()?;
    let tgt_id = decode_prefix(r, spec)?;
    let tgt_ver = r.u64()?;
    let nonce: [u8; NONCE_LEN] = r.take(NONCE_LEN)?.try_into().expect("nonce");
    let ciphertext: [u8; KEY_LEN] = r.take(KEY_LEN)?.try_into().expect("ciphertext");
    let tag: [u8; TAG_LEN] = r.take(TAG_LEN)?.try_into().expect("tag");
    Ok(Encryption::from_wire_parts(
        enc_id, enc_ver, tgt_id, tgt_ver, nonce, ciphertext, tag,
    ))
}

/// Decodes one encryption from a reader, leaving trailing bytes for the
/// caller.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input.
pub fn decode_encryption_from(
    r: &mut Reader<'_>,
    spec: &IdSpec,
) -> Result<Encryption, DecodeError> {
    decode_encryption_inner(r, spec)
}

/// Encodes a whole rekey message (a sequence of encryptions).
pub fn encode_rekey_message(encryptions: &[Encryption]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + encryptions.len() * 80);
    out.push(TAG_REKEY_MESSAGE);
    out.extend_from_slice(&(encryptions.len() as u32).to_le_bytes());
    for e in encryptions {
        encode_encryption(e, &mut out);
    }
    out
}

/// Decodes a rekey message.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input.
pub fn decode_rekey_message(buf: &[u8], spec: &IdSpec) -> Result<Vec<Encryption>, DecodeError> {
    let mut r = Reader::new(buf);
    expect_tag(&mut r, TAG_REKEY_MESSAGE)?;
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        out.push(decode_encryption_inner(&mut r, spec)?);
    }
    r.finish()?;
    Ok(out)
}

/// Encodes a key (for the join-time unicast of path keys).
pub fn encode_key(k: &Key, out: &mut Vec<u8>) {
    encode_prefix(out, k.id());
    out.extend_from_slice(&k.version().to_le_bytes());
    out.extend_from_slice(k.material().as_bytes());
}

/// Decodes a key from a reader, leaving trailing bytes for the caller.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input.
pub fn decode_key_from(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Key, DecodeError> {
    let id = decode_prefix(r, spec)?;
    let version = r.u64()?;
    let material: [u8; KEY_LEN] = r.take(KEY_LEN)?.try_into().expect("material");
    Ok(Key::new(id, version, KeyMaterial::from_bytes(material)))
}

/// Decodes one encryption, requiring the whole input to be consumed.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input.
#[cfg(test)]
pub(crate) fn decode_encryption(buf: &[u8], spec: &IdSpec) -> Result<Encryption, DecodeError> {
    let mut r = Reader::new(buf);
    let e = decode_encryption_inner(&mut r, spec)?;
    r.finish()?;
    Ok(e)
}

/// Encodes sealed data.
#[cfg(test)]
pub(crate) fn encode_sealed_data(d: &crate::SealedData) -> Vec<u8> {
    let (key_id, key_version, nonce, ciphertext, tag) = d.wire_parts();
    let mut out = Vec::with_capacity(d.wire_size() + 1);
    out.push(TAG_SEALED_DATA);
    encode_prefix(&mut out, key_id);
    out.extend_from_slice(&key_version.to_le_bytes());
    out.extend_from_slice(nonce);
    out.extend_from_slice(&(ciphertext.len() as u32).to_le_bytes());
    out.extend_from_slice(ciphertext);
    out.extend_from_slice(tag);
    out
}

/// Decodes sealed data.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input.
#[cfg(test)]
pub(crate) fn decode_sealed_data(
    buf: &[u8],
    spec: &IdSpec,
) -> Result<crate::SealedData, DecodeError> {
    let mut r = Reader::new(buf);
    expect_tag(&mut r, TAG_SEALED_DATA)?;
    let key_id = decode_prefix(&mut r, spec)?;
    let key_version = r.u64()?;
    let nonce: [u8; NONCE_LEN] = r.take(NONCE_LEN)?.try_into().expect("nonce");
    let len = r.u32()? as usize;
    let ciphertext = r.take(len)?.to_vec();
    let tag: [u8; TAG_LEN] = r.take(TAG_LEN)?.try_into().expect("tag");
    r.finish()?;
    Ok(crate::SealedData::from_wire_parts(
        key_id,
        key_version,
        nonce,
        ciphertext,
        tag,
    ))
}

#[cfg(test)]
const TAG_SEALED_DATA: u8 = 0x02;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SealedData;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixtures() -> (StdRng, IdSpec, Key, Key) {
        let mut rng = StdRng::seed_from_u64(55);
        let spec = IdSpec::new(4, 16).unwrap();
        let aux = Key::random(IdPrefix::new(&spec, vec![3, 1]).unwrap(), &mut rng);
        let group = Key::random(IdPrefix::root(), &mut rng);
        (rng, spec, aux, group)
    }

    #[test]
    fn encryption_round_trip() {
        let (mut rng, spec, aux, group) = fixtures();
        let e = Encryption::seal(&aux, &group.next_version(&mut rng), &mut rng);
        let mut buf = Vec::new();
        encode_encryption(&e, &mut buf);
        let back = decode_encryption(&buf, &spec).unwrap();
        assert_eq!(back, e);
        // The decoded wrap still opens.
        assert!(back.open(&aux).is_ok());
    }

    #[test]
    fn rekey_message_round_trip() {
        let (mut rng, spec, aux, group) = fixtures();
        let msg: Vec<Encryption> = (0..5)
            .map(|_| Encryption::seal(&aux, &group, &mut rng))
            .collect();
        let buf = encode_rekey_message(&msg);
        assert_eq!(decode_rekey_message(&buf, &spec).unwrap(), msg);
        assert_eq!(
            decode_rekey_message(&encode_rekey_message(&[]), &spec).unwrap(),
            vec![]
        );
    }

    #[test]
    fn sealed_data_round_trip() {
        let (mut rng, spec, _, group) = fixtures();
        let d = SealedData::seal(&group, b"hello group", &mut rng);
        let buf = encode_sealed_data(&d);
        let back = decode_sealed_data(&buf, &spec).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.open(&group).unwrap(), b"hello group");
    }

    #[test]
    fn key_round_trip() {
        let (_, spec, aux, _) = fixtures();
        let mut buf = Vec::new();
        encode_key(&aux, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_key_from(&mut r, &spec).unwrap(), aux);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_tags_are_rejected() {
        let (mut rng, spec, aux, group) = fixtures();
        let e = Encryption::seal(&aux, &group, &mut rng);
        let mut buf = Vec::new();
        encode_encryption(&e, &mut buf);
        assert_eq!(
            decode_encryption(&buf[..buf.len() - 1], &spec),
            Err(DecodeError::Truncated)
        );
        let mut wrong = buf.clone();
        wrong[0] = TAG_SEALED_DATA;
        assert!(matches!(
            decode_encryption(&wrong, &spec),
            Err(DecodeError::WrongTag { .. })
        ));
        let mut trailing = buf.clone();
        trailing.push(0);
        assert_eq!(
            decode_encryption(&trailing, &spec),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_ids_are_rejected() {
        let (mut rng, _, aux, group) = fixtures();
        // Encode under a 4×16 spec, decode under a 2×4 spec: the digit 3,1
        // prefix has an out-of-range digit... digit 3 < 4 but length fits;
        // use a spec where the base is too small instead.
        let tiny = IdSpec::new(4, 2).unwrap();
        let e = Encryption::seal(&aux, &group, &mut rng);
        let mut buf = Vec::new();
        encode_encryption(&e, &mut buf);
        assert!(matches!(
            decode_encryption(&buf, &tiny),
            Err(DecodeError::BadId(_))
        ));
    }

    #[test]
    fn wire_size_matches_encoding() {
        let (mut rng, _, _, group) = fixtures();
        let d = SealedData::seal(&group, &[0u8; 100], &mut rng);
        assert_eq!(encode_sealed_data(&d).len(), d.wire_size() + 1);
    }
}
