//! Deterministic seed-stream derivation.
//!
//! A reproducible experiment often needs *several* independent RNG
//! streams from one root seed — per-trial workloads, an injected
//! adversary, each simulated node's MAC and channel draws, the
//! service's minting shards — without any stream's draws moving when
//! another stream is enabled. This module holds the workspace's one
//! derivation: [`absorb`] XORs a word into the state and diffuses it
//! with one SplitMix64 step, and [`stream_seed`] absorbs a textual
//! label into the root seed one byte at a time.
//!
//! Every seed the workspace derives goes through here: the simulator's
//! per-node and adversary streams (`retri-netsim`), the benchmark
//! harness's per-trial seeds (`retri-bench`) and the allocator
//! service's per-shard streams (`retri-service`).

/// Absorbs one word into a derivation state: XOR `word` in, then take
/// one SplitMix64 step.
///
/// Chains of `absorb` calls extend a [`stream_seed`] with further
/// coordinates (a node id, a cell index, a trial number).
///
/// # Examples
///
/// ```
/// use retri::seed::{absorb, stream_seed};
///
/// // A label is absorbed byte by byte.
/// assert_eq!(absorb(42, u64::from(b'a')), stream_seed(42, "a"));
/// ```
#[inline]
#[must_use]
pub fn absorb(state: u64, word: u64) -> u64 {
    let mut state = state ^ word;
    rand::splitmix64(&mut state)
}

/// Derives the seed of a named sub-stream from a root seed.
///
/// Distinct labels give statistically independent streams; the empty
/// label returns the root seed unchanged (the "main" stream).
///
/// # Examples
///
/// ```
/// use retri::seed::stream_seed;
///
/// let root = 42;
/// let faults = stream_seed(root, "netsim.fault");
/// assert_ne!(faults, root);
/// assert_eq!(faults, stream_seed(root, "netsim.fault"));
/// assert_ne!(faults, stream_seed(root, "netsim.other"));
/// ```
#[must_use]
pub fn stream_seed(root: u64, label: &str) -> u64 {
    label
        .bytes()
        .fold(root, |state, byte| absorb(state, u64::from(byte)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_label_is_the_root_stream() {
        assert_eq!(stream_seed(7, ""), 7);
    }

    #[test]
    fn labels_separate_streams() {
        let root = 0xDEAD_BEEF;
        assert_ne!(stream_seed(root, "a"), stream_seed(root, "b"));
        assert_ne!(stream_seed(root, "ab"), stream_seed(root, "ba"));
        assert_ne!(stream_seed(root, "netsim.fault"), root);
    }

    #[test]
    fn roots_separate_streams() {
        assert_ne!(
            stream_seed(1, "netsim.fault"),
            stream_seed(2, "netsim.fault")
        );
    }

    #[test]
    fn derivation_is_pure() {
        assert_eq!(stream_seed(99, "x.y"), stream_seed(99, "x.y"));
    }

    #[test]
    fn derived_values_are_pinned() {
        // Provenance: recorded adversarial runs and every seeded trial
        // depend on these values.
        assert_eq!(stream_seed(42, "netsim.adversary"), 0x3f50_f1ce_46c6_e197);
        assert_eq!(absorb(42, u64::from(b'a')), 0x8b42_5770_edf5_87a4);
    }
}
