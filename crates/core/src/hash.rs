//! One map hasher for the workspace: a multiply-rotate hash in place of
//! std's SipHash, under two keyings.
//!
//! - [`FixedMap`] / [`FixedSet`] start the hasher at a fixed key. They
//!   are for keys the program makes itself — the simulator's grid
//!   cells, timer handles and node ids. Flooding resistance buys
//!   nothing there, while SipHash's cost is paid on every lookup, and a
//!   fixed key keeps every run reproducible.
//! - [`KeyedMap`] starts it at a key drawn once per process from std's
//!   [`RandomState`]. It is for a table that outsiders may *probe* but
//!   never *insert* into: the `retrid` live set holds only identifiers
//!   the service minted itself, and a client's `RELEASE` only looks up
//!   and removes. A client cannot place a key, and without the process
//!   key it cannot tell where a lookup probes.
//!
//! Tables whose keys arrive from outside (anything a transmitter or a
//! client can insert) keep std's SipHash. Neither map here may be
//! iterated where the order reaches an output.
//!
//! Output digests (a run's fingerprint, a pinned reply stream) are not
//! table hashes: they use [`fnv1a`], which is stable across versions
//! and platforms by definition.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed through [`FixedHasher`] at its fixed key.
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// A `HashSet` keyed through [`FixedHasher`] at its fixed key.
pub type FixedSet<K> = HashSet<K, BuildHasherDefault<FixedHasher>>;

/// A `HashMap` keyed through [`FixedHasher`] at the process key.
pub type KeyedMap<K, V> = HashMap<K, V, ProcessKey>;

/// Folds each word in as `(state.rotl(5) ^ word) * K` (the FxHash
/// step); `finish` rotates the well-mixed high bits down to the low
/// bits the table indexes by. The default state is the fixed key 0.
#[derive(Default, Clone, Copy)]
pub struct FixedHasher(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FixedHasher`]s that start at a key drawn once per process
/// from std's [`RandomState`].
#[derive(Clone, Copy)]
pub struct ProcessKey(u64);

impl Default for ProcessKey {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        ProcessKey(*KEY.get_or_init(|| RandomState::new().build_hasher().finish()))
    }
}

impl BuildHasher for ProcessKey {
    type Hasher = FixedHasher;

    #[inline]
    fn build_hasher(&self) -> FixedHasher {
        FixedHasher(self.0)
    }
}

/// The FNV-1a 64-bit offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a digest `hash`; start a digest
/// at [`FNV_OFFSET`].
///
/// # Examples
///
/// ```
/// use retri::hash::{fnv1a, FNV_OFFSET};
///
/// assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
/// assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// // Folding in pieces equals folding the whole.
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c"), fnv1a(FNV_OFFSET, b"abc"));
/// ```
#[inline]
#[must_use]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash, start: FixedHasher) -> u64 {
        let mut h = start;
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_u128_hashes_as_its_low_then_high_word() {
        for n in [
            0u128,
            1,
            u128::from(u64::MAX),
            u128::MAX,
            0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
        ] {
            let mut words = FixedHasher::default();
            words.write_u64(n as u64);
            words.write_u64((n >> 64) as u64);
            assert_eq!(hash_of(n, FixedHasher::default()), words.finish(), "{n:#x}");
            // ... and as the byte loop read it before the override.
            let mut bytes = FixedHasher::default();
            bytes.write(&n.to_le_bytes());
            assert_eq!(words.finish(), bytes.finish(), "{n:#x}");
        }
    }

    #[test]
    fn a_usize_hashes_as_one_word() {
        let mut word = FixedHasher::default();
        word.write_u64(0xdead_beef);
        assert_eq!(
            hash_of(0xdead_beef_usize, FixedHasher::default()),
            word.finish()
        );
    }

    #[test]
    fn the_process_key_is_drawn_once() {
        let (a, b) = (ProcessKey::default(), ProcessKey::default());
        assert_eq!(a.hash_one(77u128), b.hash_one(77u128));
        assert_eq!(a.hash_one(77u128), hash_of(77u128, FixedHasher(a.0)));
    }

    #[test]
    fn a_keyed_map_round_trips_inserts_and_removes() {
        let mut live: KeyedMap<u128, u32> = KeyedMap::default();
        for id in 0..1000u128 {
            *live.entry(id * 0x1_0000_0001).or_insert(0) += 1;
        }
        *live.entry(0).or_insert(0) += 1;
        assert_eq!(live.len(), 1000);
        assert_eq!(live.get(&0), Some(&2));
        for id in (0..1000u128).step_by(2) {
            assert!(live.remove(&(id * 0x1_0000_0001)).is_some());
        }
        assert_eq!(live.len(), 500);
        assert!(!live.contains_key(&0));
        assert_eq!(live.get(&0x1_0000_0001), Some(&1));
        assert!(live.remove(&0).is_none(), "a removed key misses");
    }
}
