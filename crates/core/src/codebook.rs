//! Ephemeral identifier-to-value codebooks.
//!
//! Section 6 of the paper describes *attribute-based name compression*:
//! long, frequently repeated attribute/value lists are replaced on the
//! air by a short code, with a codebook mapping codes back to the full
//! data. Traditionally codes are either large and guaranteed unique, or
//! small and kept conflict-free by an (energy-hungry) allocation
//! protocol. RETRI offers a third point: pick codes randomly from a
//! small space, accept rare conflicts, and refresh bindings so conflicts
//! never persist.
//!
//! The sender side ([`SenderCodebook`]) assigns codes to values it
//! transmits; the receiver side ([`ReceiverCodebook`]) learns bindings
//! from "definition" messages and resolves subsequent codes. A receiver
//! detects conflicts when a definition rebinds a live code to different
//! data — the application-level analogue of a checksum failure.

use std::collections::HashMap;
use std::hash::Hash;

use rand::RngCore;

use crate::id::{IdentifierSpace, TransactionId};
use crate::select::{IdSelector, ListeningSelector};

/// Outcome of learning a code definition at a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnOutcome {
    /// The code was free and is now bound.
    Bound,
    /// The code was already bound to the same value; the binding's
    /// lifetime is refreshed.
    Refreshed,
    /// The code was live and bound to *different* data: an identifier
    /// conflict. The old binding is replaced (newest-wins, as losses are
    /// the norm) and the event is counted.
    Conflict,
}

/// Sender-side codebook: assigns short ephemeral codes to values.
///
/// Codes are selected through a [`ListeningSelector`] so a sender avoids
/// codes it has recently heard other nodes define.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use retri::codebook::SenderCodebook;
/// use retri::IdentifierSpace;
///
/// # fn main() -> Result<(), retri::ModelError> {
/// let space = IdentifierSpace::new(6)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut book: SenderCodebook<String> = SenderCodebook::new(space, 16);
///
/// let code = book.encode("temperature=23C location=NE".to_string(), &mut rng);
/// // Re-encoding the same value reuses the code...
/// assert_eq!(book.encode("temperature=23C location=NE".to_string(), &mut rng), code);
/// // ...until the binding is explicitly retired.
/// book.retire(&"temperature=23C location=NE".to_string());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SenderCodebook<V> {
    selector: ListeningSelector,
    bindings: HashMap<V, TransactionId>,
}

impl<V: Eq + Hash + Clone> SenderCodebook<V> {
    /// Creates a sender codebook over `space`, avoiding the last
    /// `listen_window` codes heard from other nodes.
    #[must_use]
    pub fn new(space: IdentifierSpace, listen_window: usize) -> Self {
        SenderCodebook {
            selector: ListeningSelector::new(space, listen_window),
            bindings: HashMap::new(),
        }
    }

    /// The identifier space codes are drawn from.
    #[must_use]
    pub fn space(&self) -> IdentifierSpace {
        self.selector.space()
    }

    /// Number of live bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether the codebook has no bindings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Returns the code for `value`, assigning a fresh ephemeral code on
    /// first use.
    pub fn encode<R: RngCore>(&mut self, value: V, rng: &mut R) -> TransactionId {
        if let Some(&code) = self.bindings.get(&value) {
            return code;
        }
        let code = self.selector.select(rng);
        self.bindings.insert(value, code);
        code
    }

    /// Looks up the current code for `value` without assigning one.
    #[must_use]
    pub fn code_of(&self, value: &V) -> Option<TransactionId> {
        self.bindings.get(value).copied()
    }

    /// Drops the binding for `value`, so its next use gets a fresh code.
    ///
    /// Retiring bindings periodically is what makes the identifiers
    /// *ephemeral*: a conflict cannot persist beyond a binding lifetime.
    pub fn retire(&mut self, value: &V) -> Option<TransactionId> {
        self.bindings.remove(value)
    }

    /// Reports a code heard in a definition from another node, so this
    /// sender avoids it for future bindings.
    pub fn observe(&mut self, code: TransactionId) {
        self.selector.observe(code);
    }
}

#[derive(Debug, Clone)]
struct Binding<V> {
    value: V,
    last_used: u64,
}

/// Receiver-side codebook: learns code definitions and resolves codes.
///
/// Bindings expire `ttl` time units after last use, mirroring the
/// ephemeral, soft-state design of the rest of the system.
///
/// # Examples
///
/// ```
/// use retri::codebook::{LearnOutcome, ReceiverCodebook};
/// use retri::IdentifierSpace;
///
/// # fn main() -> Result<(), retri::ModelError> {
/// let space = IdentifierSpace::new(6)?;
/// let code = space.id(17)?;
/// let mut book: ReceiverCodebook<&str> = ReceiverCodebook::new(1_000);
///
/// assert_eq!(book.learn(code, "motion in NE quadrant", 0), LearnOutcome::Bound);
/// assert_eq!(book.resolve(code, 10), Some(&"motion in NE quadrant"));
///
/// // A different node defining the same live code is a conflict.
/// assert_eq!(book.learn(code, "vehicle count = 4", 20), LearnOutcome::Conflict);
/// assert_eq!(book.conflicts(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReceiverCodebook<V> {
    ttl: u64,
    bindings: HashMap<TransactionId, Binding<V>>,
    conflicts: u64,
}

impl<V: Eq + Clone> ReceiverCodebook<V> {
    /// Creates a receiver codebook whose bindings expire `ttl` time
    /// units after last use.
    #[must_use]
    pub fn new(ttl: u64) -> Self {
        ReceiverCodebook {
            ttl,
            bindings: HashMap::new(),
            conflicts: 0,
        }
    }

    /// Number of live bindings (without pruning).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether no bindings are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Conflicts detected so far.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Learns a definition `code → value` heard at `now`.
    pub fn learn(&mut self, code: TransactionId, value: V, now: u64) -> LearnOutcome {
        self.expire(now);
        match self.bindings.get_mut(&code) {
            None => {
                self.bindings.insert(
                    code,
                    Binding {
                        value,
                        last_used: now,
                    },
                );
                LearnOutcome::Bound
            }
            Some(binding) if binding.value == value => {
                binding.last_used = now;
                LearnOutcome::Refreshed
            }
            Some(binding) => {
                binding.value = value;
                binding.last_used = now;
                self.conflicts += 1;
                LearnOutcome::Conflict
            }
        }
    }

    /// Resolves a code heard at `now`, refreshing the binding's
    /// lifetime.
    pub fn resolve(&mut self, code: TransactionId, now: u64) -> Option<&V> {
        self.expire(now);
        match self.bindings.get_mut(&code) {
            Some(binding) => {
                binding.last_used = now;
                Some(&binding.value)
            }
            None => None,
        }
    }

    /// Drops bindings idle longer than the ttl; returns how many
    /// expired.
    pub fn expire(&mut self, now: u64) -> usize {
        let ttl = self.ttl;
        let before = self.bindings.len();
        self.bindings
            .retain(|_, binding| now.saturating_sub(binding.last_used) <= ttl);
        before - self.bindings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space(bits: u8) -> IdentifierSpace {
        IdentifierSpace::new(bits).unwrap()
    }

    #[test]
    fn sender_reuses_code_for_same_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut book: SenderCodebook<u32> = SenderCodebook::new(space(8), 8);
        let a = book.encode(7, &mut rng);
        let b = book.encode(7, &mut rng);
        assert_eq!(a, b);
        assert_eq!(book.len(), 1);
        assert_eq!(book.code_of(&7), Some(a));
    }

    #[test]
    fn sender_assigns_fresh_code_after_retire() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut book: SenderCodebook<u32> = SenderCodebook::new(space(16), 8);
        let first = book.encode(7, &mut rng);
        assert_eq!(book.retire(&7), Some(first));
        let second = book.encode(7, &mut rng);
        // With a 16-bit space the chance of re-drawing the same code is
        // 2^-16; a fixed seed makes this deterministic.
        assert_ne!(first, second);
    }

    #[test]
    fn sender_avoids_observed_codes() {
        let s = space(3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut book: SenderCodebook<u32> = SenderCodebook::new(s, 8);
        for v in [0u64, 1, 2, 3] {
            book.observe(s.id(v).unwrap());
        }
        for value in 10..30u32 {
            let code = book.encode(value, &mut rng);
            assert!(code.value() >= 4, "picked an observed code {code}");
        }
    }

    #[test]
    fn receiver_binds_resolves_refreshes() {
        let s = space(8);
        let code = s.id(9).unwrap();
        let mut book: ReceiverCodebook<u32> = ReceiverCodebook::new(100);
        assert_eq!(book.learn(code, 42, 0), LearnOutcome::Bound);
        assert_eq!(book.learn(code, 42, 10), LearnOutcome::Refreshed);
        assert_eq!(book.resolve(code, 20), Some(&42));
        assert_eq!(book.conflicts(), 0);
    }

    #[test]
    fn receiver_detects_conflicts_newest_wins() {
        let s = space(8);
        let code = s.id(9).unwrap();
        let mut book: ReceiverCodebook<u32> = ReceiverCodebook::new(100);
        book.learn(code, 1, 0);
        assert_eq!(book.learn(code, 2, 5), LearnOutcome::Conflict);
        assert_eq!(book.conflicts(), 1);
        assert_eq!(book.resolve(code, 6), Some(&2));
    }

    #[test]
    fn receiver_expiry_prevents_stale_conflicts() {
        // Temporal locality: reusing a code long after its binding died
        // is not a conflict — the ephemeral design working as intended.
        let s = space(8);
        let code = s.id(9).unwrap();
        let mut book: ReceiverCodebook<u32> = ReceiverCodebook::new(50);
        book.learn(code, 1, 0);
        assert_eq!(book.learn(code, 2, 500), LearnOutcome::Bound);
        assert_eq!(book.conflicts(), 0);
    }

    #[test]
    fn resolve_refreshes_lifetime() {
        let s = space(8);
        let code = s.id(3).unwrap();
        let mut book: ReceiverCodebook<u32> = ReceiverCodebook::new(50);
        book.learn(code, 5, 0);
        assert!(book.resolve(code, 40).is_some());
        // Last use at 40 keeps it alive at 80.
        assert!(book.resolve(code, 80).is_some());
        // But silence past the ttl kills it.
        assert!(book.resolve(code, 200).is_none());
    }

    #[test]
    fn expire_returns_count() {
        let s = space(8);
        let mut book: ReceiverCodebook<u32> = ReceiverCodebook::new(10);
        book.learn(s.id(1).unwrap(), 1, 0);
        book.learn(s.id(2).unwrap(), 2, 5);
        assert_eq!(book.expire(100), 2);
        assert!(book.is_empty());
    }
}
