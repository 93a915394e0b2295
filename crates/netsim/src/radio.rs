//! Radio hardware models.
//!
//! The paper's argument hinges on radios where "framing ... leads to a
//! more direct correlation between the amount of user data sent to the
//! radio and the energy expended to send it" (Section 4.4) — i.e. very
//! low-power radios with tiny MAC/framing overhead and small frames,
//! unlike 802.11. [`RadioConfig::radiometrix_rpc`] models the paper's
//! actual hardware: the Radiometrix RPC 418 MHz packet controller with
//! its 27-byte maximum frame.

use core::fmt;

use crate::time::SimDuration;

/// Energy cost model: nanojoules per bit for transmit and receive.
///
/// First-order linear model appropriate for simple sensor radios, where
/// radio energy dominates and scales with on-air time (Pottie & Kaiser).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EnergyModel {
    /// Energy to transmit one bit, nanojoules.
    pub tx_nj_per_bit: f64,
    /// Energy to receive one bit, nanojoules.
    pub rx_nj_per_bit: f64,
    /// Power burned while the receiver is awake but idle, nanowatts.
    /// "Even passive listening will have a significant effect" on
    /// energy reserves (paper Section 1); duty cycling exists to shed
    /// exactly this cost.
    pub idle_nw: f64,
}

impl EnergyModel {
    /// Typical first-generation sensor radio figures (~1 µJ/bit tx,
    /// ~0.5 µJ/bit rx).
    #[must_use]
    pub(crate) const fn low_power_default() -> Self {
        EnergyModel {
            tx_nj_per_bit: 1_000.0,
            rx_nj_per_bit: 500.0,
            idle_nw: 5_000_000.0, // 5 mW receiver idle draw
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::low_power_default()
    }
}

/// A receiver duty cycle: the radio listens for the first
/// `on_fraction` of every `period`, and sleeps for the rest.
///
/// Duty cycling is how untethered sensors survive — "some nodes may
/// choose to minimize the time they spend listening because of the
/// significant power requirements of running a radio" (paper
/// Section 3.2) — and it is the main reason listening-based identifier
/// avoidance is imperfect in practice. Transmission is unaffected: a
/// node wakes its radio to send.
///
/// # Examples
///
/// ```
/// use retri_netsim::radio::DutyCycle;
/// use retri_netsim::{SimDuration, SimTime};
///
/// let duty = DutyCycle::new(SimDuration::from_millis(100), 0.25, SimDuration::ZERO);
/// assert!(duty.awake_at(SimTime::from_millis(10)));
/// assert!(!duty.awake_at(SimTime::from_millis(60)));
/// assert!(duty.awake_at(SimTime::from_millis(110)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DutyCycle {
    period: crate::time::SimDuration,
    on_fraction: f64,
    phase: crate::time::SimDuration,
}

impl DutyCycle {
    /// Creates a duty cycle.
    ///
    /// `phase` offsets the schedule so different nodes need not wake in
    /// lockstep.
    ///
    /// # Panics
    ///
    /// Panics unless `period` is positive and `on_fraction` is within
    /// `(0, 1]`.
    #[must_use]
    pub fn new(
        period: crate::time::SimDuration,
        on_fraction: f64,
        phase: crate::time::SimDuration,
    ) -> Self {
        assert!(
            period > crate::time::SimDuration::ZERO,
            "duty-cycle period must be positive"
        );
        assert!(
            on_fraction > 0.0 && on_fraction <= 1.0,
            "on fraction {on_fraction} outside (0, 1]"
        );
        DutyCycle {
            period,
            on_fraction,
            phase,
        }
    }

    /// The listening fraction.
    #[must_use]
    pub fn on_fraction(&self) -> f64 {
        self.on_fraction
    }

    /// Whether the receiver is awake at instant `at`.
    #[must_use]
    pub fn awake_at(&self, at: crate::time::SimTime) -> bool {
        let period = self.period.as_micros();
        let t = (at.as_micros() + self.phase.as_micros()) % period;
        (t as f64) < self.on_fraction * period as f64
    }

    /// Whether the receiver is awake for the whole interval
    /// `[start, end)` (a frame reception needs the radio on
    /// throughout).
    #[must_use]
    pub(crate) fn awake_during(
        &self,
        start: crate::time::SimTime,
        end: crate::time::SimTime,
    ) -> bool {
        if !self.awake_at(start) {
            return false;
        }
        let period = self.period.as_micros();
        let start_t = (start.as_micros() + self.phase.as_micros()) % period;
        let on_until = start.as_micros() + (self.on_fraction * period as f64) as u64 - start_t;
        end.as_micros() <= on_until
    }
}

/// Static description of a radio: bitrate, framing limits, overheads,
/// and energy costs.
///
/// # Examples
///
/// ```
/// use retri_netsim::RadioConfig;
///
/// let rpc = RadioConfig::radiometrix_rpc();
/// assert_eq!(rpc.max_frame_bytes, 27);
/// // A full frame takes several milliseconds on the air.
/// let airtime = rpc.airtime(27 * 8);
/// assert!(airtime.as_micros() > 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RadioConfig {
    /// Raw channel bitrate, bits per second.
    pub bitrate_bps: u64,
    /// Largest frame payload the packet controller accepts, bytes.
    pub max_frame_bytes: usize,
    /// Physical-layer preamble + sync overhead per frame, bits. Counted
    /// in airtime and energy but not in protocol efficiency (it is the
    /// same for every scheme under comparison).
    pub preamble_bits: u32,
    /// Probability an otherwise deliverable frame is lost to RF noise,
    /// in `[0, 1]`.
    pub frame_loss: f64,
    /// Energy cost model.
    pub energy: EnergyModel,
}

impl RadioConfig {
    /// The paper's testbed radio: Radiometrix RPC-418.
    ///
    /// 40 kbit/s channel, 27-byte maximum frame, a short preamble from
    /// the simple packet controller, and a small residual frame-loss
    /// probability representing RF vagaries in a benign indoor
    /// environment.
    #[must_use]
    pub fn radiometrix_rpc() -> Self {
        RadioConfig {
            bitrate_bps: 40_000,
            max_frame_bytes: 27,
            preamble_bits: 48,
            frame_loss: 0.0,
            energy: EnergyModel::low_power_default(),
        }
    }

    /// Returns a copy with the given random frame-loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `frame_loss` is in `[0, 1]`.
    #[must_use]
    pub fn with_frame_loss(mut self, frame_loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frame_loss),
            "frame loss {frame_loss} outside [0, 1]"
        );
        self.frame_loss = frame_loss;
        self
    }

    /// On-air time of a frame carrying `payload_bits`, including the
    /// preamble.
    #[must_use]
    pub fn airtime(&self, payload_bits: u32) -> SimDuration {
        SimDuration::of_bits(
            u64::from(payload_bits) + u64::from(self.preamble_bits),
            self.bitrate_bps,
        )
    }

    /// Total bits on the air for a frame carrying `payload_bits`.
    #[must_use]
    pub(crate) fn bits_on_air(&self, payload_bits: u32) -> u64 {
        u64::from(payload_bits) + u64::from(self.preamble_bits)
    }
}

impl Default for RadioConfig {
    /// The paper's radio ([`RadioConfig::radiometrix_rpc`]).
    fn default() -> Self {
        RadioConfig::radiometrix_rpc()
    }
}

impl fmt::Display for RadioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bit/s radio, {}-byte frames, loss {:.3}",
            self.bitrate_bps, self.max_frame_bytes, self.frame_loss
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn duty_cycle_awake_window() {
        let duty = DutyCycle::new(SimDuration::from_millis(100), 0.25, SimDuration::ZERO);
        assert!(duty.awake_at(SimTime::from_micros(0)));
        assert!(duty.awake_at(SimTime::from_micros(24_999)));
        assert!(!duty.awake_at(SimTime::from_micros(25_000)));
        assert!(!duty.awake_at(SimTime::from_micros(99_999)));
        assert!(duty.awake_at(SimTime::from_micros(100_000)));
    }

    #[test]
    fn duty_cycle_phase_shifts_schedule() {
        let duty = DutyCycle::new(
            SimDuration::from_millis(100),
            0.25,
            SimDuration::from_millis(50),
        );
        // Phase 50 ms: the on-window now covers [50, 75) of each period.
        assert!(!duty.awake_at(SimTime::from_micros(10_000)));
        assert!(duty.awake_at(SimTime::from_micros(60_000)));
        assert!(!duty.awake_at(SimTime::from_micros(80_000)));
    }

    #[test]
    fn awake_during_requires_whole_interval() {
        let duty = DutyCycle::new(SimDuration::from_millis(100), 0.5, SimDuration::ZERO);
        // Fully inside the on-window.
        assert!(duty.awake_during(SimTime::from_micros(10_000), SimTime::from_micros(40_000)));
        // Starts awake but runs past the window edge at 50 ms.
        assert!(!duty.awake_during(SimTime::from_micros(45_000), SimTime::from_micros(55_000)));
        // Starts asleep.
        assert!(!duty.awake_during(SimTime::from_micros(60_000), SimTime::from_micros(70_000)));
    }

    #[test]
    fn always_on_duty_cycle_never_sleeps() {
        let duty = DutyCycle::new(SimDuration::from_millis(10), 1.0, SimDuration::ZERO);
        for micros in (0..100_000).step_by(1_111) {
            assert!(duty.awake_at(SimTime::from_micros(micros)));
        }
        assert_eq!(duty.on_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn duty_cycle_rejects_zero_fraction() {
        let _ = DutyCycle::new(SimDuration::from_millis(10), 0.0, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn duty_cycle_rejects_zero_period() {
        let _ = DutyCycle::new(SimDuration::ZERO, 0.5, SimDuration::ZERO);
    }

    #[test]
    fn rpc_preset_matches_paper() {
        let rpc = RadioConfig::radiometrix_rpc();
        assert_eq!(rpc.max_frame_bytes, 27);
        assert_eq!(rpc.frame_loss, 0.0);
    }

    #[test]
    fn airtime_includes_preamble() {
        let radio = RadioConfig {
            bitrate_bps: 1_000_000,
            max_frame_bytes: 27,
            preamble_bits: 100,
            frame_loss: 0.0,
            energy: EnergyModel::default(),
        };
        // 100 preamble + 100 payload bits at 1 Mbit/s = 200 µs.
        assert_eq!(radio.airtime(100).as_micros(), 200);
        assert_eq!(radio.bits_on_air(100), 200);
    }

    #[test]
    fn with_frame_loss_validates() {
        let radio = RadioConfig::radiometrix_rpc().with_frame_loss(0.25);
        assert_eq!(radio.frame_loss, 0.25);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn with_frame_loss_rejects_out_of_range() {
        let _ = RadioConfig::radiometrix_rpc().with_frame_loss(1.5);
    }

    #[test]
    fn display_mentions_key_figures() {
        let text = RadioConfig::radiometrix_rpc().to_string();
        assert!(text.contains("40000"));
        assert!(text.contains("27"));
    }
}
