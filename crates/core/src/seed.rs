//! Deterministic seed-stream derivation.
//!
//! A reproducible experiment often needs *several* independent RNG
//! streams from one root seed — per-trial workloads, an injected
//! adversary, the service's minting shards — without any stream's draws
//! moving when another stream is enabled. This module gives every
//! consumer the same derivation: absorb a textual label into the root
//! seed through SplitMix64, one byte at a time.
//!
//! The derivation is identical to the benchmark harness's
//! `trial_seed` absorption step, and `retri-netsim` re-implements it
//! locally (label `"netsim.adversary"`) to keep its dependency surface
//! at `rand` alone; a cross-crate test pins the two implementations
//! together.

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
    let mut state = root;
    for &byte in label.as_bytes() {
        state ^= u64::from(byte);
        state = rand::splitmix64(&mut state);
    }
    state
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
}
