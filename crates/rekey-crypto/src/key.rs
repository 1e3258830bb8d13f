//! Key material and the keys held by the key server and users.

use std::fmt;

use rand::Rng;
use rekey_id::IdPrefix;

use crate::chacha;

/// Raw 256-bit symmetric key material.
///
/// `Debug` deliberately prints only a 4-byte fingerprint so that simulation
/// logs never leak whole keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyMaterial([u8; chacha::KEY_LEN]);

impl KeyMaterial {
    /// Generates fresh random key material.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> KeyMaterial {
        let mut bytes = [0u8; chacha::KEY_LEN];
        rng.fill(&mut bytes[..]);
        KeyMaterial(bytes)
    }

    /// Wraps existing bytes as key material (for tests and fixed vectors).
    pub fn from_bytes(bytes: [u8; chacha::KEY_LEN]) -> KeyMaterial {
        KeyMaterial(bytes)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; chacha::KEY_LEN] {
        &self.0
    }
}

impl fmt::Debug for KeyMaterial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyMaterial({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// A key in the (modified) key tree, carrying the paper's identification
/// scheme: "the ID of a key in the key tree \[is\] the ID of its corresponding
/// node in the ID tree" (§2.4).
///
/// * `id.is_empty()` — the **group key**.
/// * `0 < id.len() < D` — an **auxiliary key**.
/// * `id.len() == D` — a user's **individual key**.
///
/// `version` counts how many times the key at this node has been changed by
/// rekeying; a `(id, version)` pair uniquely names one concrete key value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    id: IdPrefix,
    version: u64,
    material: KeyMaterial,
}

impl Key {
    /// Creates a key with the given identity and material.
    pub fn new(id: IdPrefix, version: u64, material: KeyMaterial) -> Key {
        Key {
            id,
            version,
            material,
        }
    }

    /// Creates version-0 random key material for ID-tree node `id`.
    pub fn random<R: Rng + ?Sized>(id: IdPrefix, rng: &mut R) -> Key {
        Key {
            id,
            version: 0,
            material: KeyMaterial::random(rng),
        }
    }

    /// The key's ID: the ID of its ID-tree node.
    pub fn id(&self) -> &IdPrefix {
        &self.id
    }

    /// The key's version (bumped by 1 on every rekey of this node).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The raw key material.
    pub fn material(&self) -> &KeyMaterial {
        &self.material
    }

    /// Produces the next version of this key with fresh material.
    pub fn next_version<R: Rng + ?Sized>(&self, rng: &mut R) -> Key {
        Key {
            id: self.id,
            version: self.version + 1,
            material: KeyMaterial::random(rng),
        }
    }

    /// Advances this key to its next version in place with fresh material
    /// — the allocation-free form of [`Key::next_version`], drawing from
    /// `rng` identically (one material fill).
    pub fn refresh<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.version += 1;
        self.material = KeyMaterial::random(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> impl Rng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_material_differs() {
        let mut rng = rng();
        let a = KeyMaterial::random(&mut rng);
        let b = KeyMaterial::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts_material() {
        let m = KeyMaterial::from_bytes([0xAB; 32]);
        let s = format!("{m:?}");
        assert!(s.contains("abab"));
        assert!(s.len() < 30, "full key must not be printed: {s}");
    }

    #[test]
    fn refresh_matches_next_version_draws() {
        // Identically seeded RNGs: in-place refresh and next_version must
        // land on the same (version, material) state.
        let mut r1 = rng();
        let mut r2 = rng();
        let base = Key::random(IdPrefix::root(), &mut r1);
        let mut in_place = Key::random(IdPrefix::root(), &mut r2);
        let owned = base.next_version(&mut r1);
        in_place.refresh(&mut r2);
        assert_eq!(in_place, owned);
    }

    #[test]
    fn next_version_bumps_and_keeps_id() {
        let mut rng = rng();
        let k = Key::random(IdPrefix::root(), &mut rng);
        let k2 = k.next_version(&mut rng);
        assert_eq!(k2.id(), k.id());
        assert_eq!(k2.version(), 1);
        assert_ne!(k2.material(), k.material());
    }
}
