//! The engine's map hasher: a fixed multiply-rotate hash in place of
//! std's randomly keyed SipHash.
//!
//! Every key the engine hashes — grid cells, timer handles, node ids —
//! is made by the simulator itself, never by an outside party, so
//! flooding resistance buys nothing here, while SipHash's cost is paid
//! on every carrier-sense query (nine cell lookups) and every receiver
//! judged. No engine code iterates these maps in an order-dependent
//! way, so the hasher cannot move a bit of any run's output.
#![allow(clippy::disallowed_types)] // the one place the std maps are named

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FixedHasher`].
pub(crate) type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// A `HashSet` keyed through [`FixedHasher`].
pub(crate) type FixedSet<K> = HashSet<K, BuildHasherDefault<FixedHasher>>;

/// Folds each word in as `(state.rotl(5) ^ word) * K` (the FxHash
/// step); `finish` rotates the well-mixed high bits down to the low
/// bits the table indexes by.
#[derive(Default)]
pub(crate) struct FixedHasher(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
