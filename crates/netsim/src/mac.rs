//! Medium-access control.
//!
//! Low-power sensor radios like the paper's Radiometrix RPC have
//! "extremely simple MACs" (Section 4.4): at most carrier sensing with a
//! random backoff, nothing like 802.11's RTS/CTS or per-packet
//! hundreds-of-bits overhead. The simulator offers exactly that spectrum:
//! pure ALOHA (transmit immediately), non-persistent CSMA (if the
//! channel sounds busy, back off a random number of slots and try
//! again), and Dynamic-Frame Aloha (time is divided into frames of `L`
//! slots; each backlogged node transmits in one uniformly chosen slot
//! per frame and re-contends in the next frame after a collision).
//!
//! DFA's frame length can be fixed, sized for a known population
//! (`L* = N`, the Barletta–Borgonovo–Cesana optimum implemented in
//! `retri_model::dfa`), or sized live from each node's
//! density-estimated population — the RETRI listening window acting as
//! the population estimator.

use core::fmt;

use crate::time::SimDuration;

/// How a DFA node picks the length of its next frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FrameSizing {
    /// Every frame has exactly this many slots.
    Fixed(u32),
    /// The population is known out of band; frames use the optimal
    /// setting `L* = N` (Barletta et al.).
    KnownPopulation(u32),
    /// Each node sizes its frames from its own live population
    /// estimate (the protocol's `population_estimate`, typically a
    /// `DensityEstimator` fed by the listening window).
    Estimated,
}

impl fmt::Display for FrameSizing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameSizing::Fixed(l) => write!(f, "fixed L={l}"),
            FrameSizing::KnownPopulation(n) => write!(f, "known N={n}"),
            FrameSizing::Estimated => write!(f, "estimated N"),
        }
    }
}

/// Dynamic-Frame Aloha parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DfaConfig {
    /// Length of one frame slot. Must cover the airtime of the longest
    /// frame the protocol transmits, or slot boundaries stop protecting
    /// neighbours from overlap.
    pub slot: SimDuration,
    /// How the frame length is chosen.
    pub sizing: FrameSizing,
    /// Lower clamp on the frame length, in slots. A floor above 1
    /// keeps the estimated mode from collapsing into a permanently
    /// colliding single-slot frame while the estimator warms up.
    pub min_frame_slots: u32,
    /// Upper clamp on the frame length, in slots.
    pub max_frame_slots: u32,
}

impl DfaConfig {
    /// The frame length to use, given the node's current population
    /// estimate (only consulted in [`FrameSizing::Estimated`] mode),
    /// clamped to `min_frame_slots..=max_frame_slots`.
    #[must_use]
    pub fn frame_length(&self, estimate: Option<u64>) -> u32 {
        let raw = match self.sizing {
            FrameSizing::Fixed(l) => u64::from(l),
            // L* = N: retri_model::dfa::optimal_frame_length.
            FrameSizing::KnownPopulation(n) => u64::from(n),
            FrameSizing::Estimated => estimate.unwrap_or(1),
        };
        let clamped = raw
            .max(u64::from(self.min_frame_slots))
            .min(u64::from(self.max_frame_slots));
        u32::try_from(clamped).expect("clamped to a u32 bound")
    }
}

/// Counters the Dynamic-Frame Aloha engine keeps per run, reported
/// separately from [`crate::shard::MediumStats`] so non-DFA provenance is
/// unchanged.
///
/// The per-slot feedback DFA classically exposes is recoverable from
/// these totals: `attempts = successes + collisions` transmissions
/// occupied at most `attempts` of the `slots` scheduled slots, and the
/// rest were empty.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DfaStats {
    /// Frames scheduled (one per node per contention round).
    pub frames: u64,
    /// Total slots across all scheduled frames.
    pub slots: u64,
    /// Transmissions that ended with no audible foreign overlap.
    pub successes: u64,
    /// Transmissions that overlapped a foreign audible transmission.
    pub collisions: u64,
}

impl DfaStats {
    /// Transmission attempts: successes plus collisions.
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.successes + self.collisions
    }

    /// Accumulates another stats block (used to sum per-shard counters).
    pub fn merge(&mut self, other: &DfaStats) {
        self.frames += other.frames;
        self.slots += other.slots;
        self.successes += other.successes;
        self.collisions += other.collisions;
    }
}

/// Which access discipline the MAC runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MacMode {
    /// The contention spectrum: pure ALOHA, or non-persistent CSMA when
    /// [`MacConfig::carrier_sense`] is set.
    Contention,
    /// Dynamic-Frame Aloha.
    Dfa(DfaConfig),
}

/// MAC configuration shared by every node in a simulation.
///
/// # Examples
///
/// ```
/// use retri_netsim::mac::MacConfig;
///
/// let csma = MacConfig::default();
/// assert!(csma.carrier_sense);
///
/// let aloha = MacConfig::aloha();
/// assert!(!aloha.carrier_sense);
///
/// let dfa = MacConfig::dfa_known(retri_netsim::SimDuration::from_millis(8), 16);
/// assert!(dfa.dfa_config().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MacConfig {
    /// Listen before transmitting; if the channel is audibly busy, back
    /// off. Disable for pure ALOHA. Only meaningful in
    /// [`MacMode::Contention`].
    pub carrier_sense: bool,
    /// Length of one backoff slot.
    pub backoff_slot: SimDuration,
    /// Backoff is drawn uniformly from `1..=max_backoff_slots` slots.
    pub max_backoff_slots: u32,
    /// Quiet gap a node leaves after finishing a transmission before
    /// starting its next one (contention modes; DFA paces itself by
    /// frame instead).
    pub ifs: SimDuration,
    /// The access discipline.
    pub mode: MacMode,
}

impl MacConfig {
    /// Non-persistent CSMA tuned for a 40 kbit/s radio with ~7 ms
    /// frames: 1 ms slots, up to 16 of them, 2 ms inter-frame spacing.
    #[must_use]
    pub fn csma() -> Self {
        MacConfig {
            carrier_sense: true,
            backoff_slot: SimDuration::from_millis(1),
            max_backoff_slots: 16,
            ifs: SimDuration::from_millis(2),
            mode: MacMode::Contention,
        }
    }

    /// Pure ALOHA: transmit the moment a frame is queued; collisions are
    /// resolved only by upper-layer robustness.
    #[must_use]
    pub fn aloha() -> Self {
        MacConfig {
            carrier_sense: false,
            backoff_slot: SimDuration::from_millis(1),
            max_backoff_slots: 1,
            ifs: SimDuration::from_millis(2),
            mode: MacMode::Contention,
        }
    }

    /// Dynamic-Frame Aloha with the given slot length and frame sizing.
    ///
    /// The frame-length clamp defaults to `1..=4096` slots; adjust the
    /// [`DfaConfig`] fields for other bounds.
    #[must_use]
    pub fn dfa(slot: SimDuration, sizing: FrameSizing) -> Self {
        MacConfig {
            carrier_sense: false,
            backoff_slot: SimDuration::from_millis(1),
            max_backoff_slots: 1,
            ifs: SimDuration::from_millis(2),
            mode: MacMode::Dfa(DfaConfig {
                slot,
                sizing,
                min_frame_slots: 1,
                max_frame_slots: 4096,
            }),
        }
    }

    /// DFA at the known-population optimum `L* = N`.
    #[must_use]
    pub fn dfa_known(slot: SimDuration, population: u32) -> Self {
        Self::dfa(slot, FrameSizing::KnownPopulation(population))
    }

    /// DFA sized live from each node's density estimate, with a floor
    /// of `min_frame_slots` while the estimator warms up.
    #[must_use]
    pub fn dfa_estimated(slot: SimDuration, min_frame_slots: u32) -> Self {
        let mut mac = Self::dfa(slot, FrameSizing::Estimated);
        let MacMode::Dfa(ref mut dfa) = mac.mode else {
            unreachable!("dfa() builds a DFA mode");
        };
        dfa.min_frame_slots = min_frame_slots.max(1);
        mac
    }

    /// The DFA parameters, when this MAC runs Dynamic-Frame Aloha.
    #[must_use]
    pub fn dfa_config(&self) -> Option<&DfaConfig> {
        match &self.mode {
            MacMode::Dfa(dfa) => Some(dfa),
            MacMode::Contention => None,
        }
    }

    /// Whether this MAC carrier-senses before transmitting (CSMA). DFA
    /// never does: slot discipline replaces listening.
    #[must_use]
    pub fn is_csma(&self) -> bool {
        self.carrier_sense && self.dfa_config().is_none()
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on configurations that would spin the event loop at a
    /// single instant: carrier sensing with a zero-length slot or zero
    /// backoff range, a zero inter-frame space, or a DFA frame of zero
    /// duration (zero-length slots or a zero-slot clamp). Also rejects
    /// carrier sensing combined with DFA (slot discipline replaces
    /// listening) and an inverted DFA clamp.
    pub fn validate(&self) {
        if self.carrier_sense {
            assert!(
                self.backoff_slot > SimDuration::ZERO,
                "CSMA backoff slot must be positive"
            );
            assert!(
                self.max_backoff_slots > 0,
                "CSMA must allow at least one backoff slot"
            );
        }
        match &self.mode {
            MacMode::Contention => {
                assert!(
                    self.ifs > SimDuration::ZERO,
                    "inter-frame space must be positive"
                );
            }
            MacMode::Dfa(dfa) => {
                assert!(
                    !self.carrier_sense,
                    "DFA does not carrier-sense; disable carrier_sense"
                );
                assert!(dfa.slot > SimDuration::ZERO, "DFA slot must be positive");
                assert!(
                    dfa.min_frame_slots >= 1,
                    "DFA frames need at least one slot"
                );
                assert!(
                    dfa.max_frame_slots >= dfa.min_frame_slots,
                    "DFA frame clamp is inverted"
                );
                match dfa.sizing {
                    FrameSizing::Fixed(l) => {
                        assert!(l >= 1, "fixed DFA frame length must be positive");
                    }
                    FrameSizing::KnownPopulation(n) => {
                        assert!(n >= 1, "known DFA population must be positive");
                    }
                    FrameSizing::Estimated => {}
                }
            }
        }
    }
}

impl Default for MacConfig {
    /// [`MacConfig::csma`].
    fn default() -> Self {
        MacConfig::csma()
    }
}

impl fmt::Display for MacConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(dfa) = self.dfa_config() {
            write!(
                f,
                "DFA (slot {}, {}, {}..={} slots)",
                dfa.slot, dfa.sizing, dfa.min_frame_slots, dfa.max_frame_slots
            )
        } else if self.carrier_sense {
            write!(
                f,
                "CSMA (slot {}, ≤{} slots, ifs {})",
                self.backoff_slot, self.max_backoff_slots, self.ifs
            )
        } else {
            write!(f, "ALOHA (ifs {})", self.ifs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_carrier_sense() {
        assert!(MacConfig::csma().carrier_sense);
        assert!(!MacConfig::aloha().carrier_sense);
        assert_eq!(MacConfig::default(), MacConfig::csma());
    }

    #[test]
    fn validate_accepts_presets() {
        MacConfig::csma().validate();
        MacConfig::aloha().validate();
        MacConfig::dfa_known(SimDuration::from_millis(8), 16).validate();
        MacConfig::dfa_estimated(SimDuration::from_millis(8), 8).validate();
    }

    #[test]
    #[should_panic(expected = "backoff slot must be positive")]
    fn validate_rejects_zero_slot_csma() {
        MacConfig {
            carrier_sense: true,
            backoff_slot: SimDuration::ZERO,
            max_backoff_slots: 4,
            ifs: SimDuration::ZERO,
            mode: MacMode::Contention,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one backoff slot")]
    fn validate_rejects_zero_slots() {
        MacConfig {
            carrier_sense: true,
            backoff_slot: SimDuration::from_millis(1),
            max_backoff_slots: 0,
            ifs: SimDuration::ZERO,
            mode: MacMode::Contention,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "inter-frame space must be positive")]
    fn validate_rejects_zero_ifs() {
        let mut mac = MacConfig::aloha();
        mac.ifs = SimDuration::ZERO;
        mac.validate();
    }

    #[test]
    #[should_panic(expected = "DFA slot must be positive")]
    fn validate_rejects_zero_dfa_slot() {
        MacConfig::dfa_known(SimDuration::ZERO, 16).validate();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn validate_rejects_zero_slot_frames() {
        let mut mac = MacConfig::dfa_known(SimDuration::from_millis(8), 16);
        let MacMode::Dfa(ref mut dfa) = mac.mode else {
            unreachable!();
        };
        dfa.min_frame_slots = 0;
        dfa.max_frame_slots = 0;
        mac.validate();
    }

    #[test]
    #[should_panic(expected = "clamp is inverted")]
    fn validate_rejects_inverted_clamp() {
        let mut mac = MacConfig::dfa_known(SimDuration::from_millis(8), 16);
        let MacMode::Dfa(ref mut dfa) = mac.mode else {
            unreachable!();
        };
        dfa.min_frame_slots = 32;
        dfa.max_frame_slots = 8;
        mac.validate();
    }

    #[test]
    #[should_panic(expected = "fixed DFA frame length must be positive")]
    fn validate_rejects_zero_fixed_frame() {
        MacConfig::dfa(SimDuration::from_millis(8), FrameSizing::Fixed(0)).validate();
    }

    #[test]
    #[should_panic(expected = "known DFA population must be positive")]
    fn validate_rejects_zero_population() {
        MacConfig::dfa_known(SimDuration::from_millis(8), 0).validate();
    }

    #[test]
    #[should_panic(expected = "does not carrier-sense")]
    fn validate_rejects_carrier_sensing_dfa() {
        let mut mac = MacConfig::dfa_known(SimDuration::from_millis(8), 16);
        mac.carrier_sense = true;
        mac.validate();
    }

    #[test]
    fn frame_length_clamps_and_sizes() {
        let known = MacConfig::dfa_known(SimDuration::from_millis(8), 16);
        assert_eq!(known.dfa_config().unwrap().frame_length(None), 16);

        let est = MacConfig::dfa_estimated(SimDuration::from_millis(8), 8);
        let dfa = est.dfa_config().unwrap();
        // Warm-up floor applies below min_frame_slots...
        assert_eq!(dfa.frame_length(None), 8);
        assert_eq!(dfa.frame_length(Some(3)), 8);
        // ...the live estimate rules in between...
        assert_eq!(dfa.frame_length(Some(100)), 100);
        // ...and the ceiling clamps runaway estimates.
        assert_eq!(dfa.frame_length(Some(1 << 40)), 4096);
    }

    #[test]
    fn display_names_mode() {
        assert!(MacConfig::csma().to_string().contains("CSMA"));
        assert!(MacConfig::aloha().to_string().contains("ALOHA"));
        let dfa = MacConfig::dfa_known(SimDuration::from_millis(8), 16).to_string();
        assert!(dfa.contains("DFA"), "{dfa}");
        assert!(dfa.contains("known N=16"), "{dfa}");
        assert!(MacConfig::dfa_estimated(SimDuration::from_millis(8), 8)
            .to_string()
            .contains("estimated N"));
    }

    #[test]
    fn contention_macs_have_no_dfa_config() {
        assert!(MacConfig::csma().dfa_config().is_none());
        assert!(MacConfig::csma().is_csma());
        assert!(!MacConfig::aloha().is_csma());
        assert!(!MacConfig::dfa_known(SimDuration::from_millis(8), 4).is_csma());
    }
}
