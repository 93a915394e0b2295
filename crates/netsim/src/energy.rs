//! Per-node energy and bit accounting.
//!
//! "It is critical to maximize the usefulness of *every bit* transmitted
//! or received" (paper Section 1, after Pottie). The meter counts every
//! bit a node's radio emits or absorbs, so an experiment can *measure*
//! the efficiency of Eq. 1 rather than only predict it.

use core::fmt;

use crate::radio::EnergyModel;

/// Accumulated radio activity of one node, as the simulator records it
/// ([`crate::sim::ShardedSim::meter`]).
///
/// # Examples
///
/// ```
/// use retri_netsim::prelude::*;
///
/// /// Node 0 sends one full frame at boot.
/// struct OneFrame;
///
/// impl Protocol for OneFrame {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         if ctx.node_id() == NodeId(0) {
///             ctx.send(FramePayload::from_bytes(vec![0; 27]).unwrap()).unwrap();
///         }
///     }
///     fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
///     fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
/// }
///
/// let mut sim = ShardedSimBuilder::new(1).build(|_| OneFrame);
/// sim.add_node_at(Position::new(0.0, 0.0));
/// sim.add_node_at(Position::new(10.0, 0.0));
/// sim.run_until(SimTime::from_secs(1));
/// // 27 bytes behind the RPC radio's 48-bit preamble, at both ends.
/// assert_eq!(sim.meter(NodeId(0)).tx_bits(), 27 * 8 + 48);
/// assert_eq!(sim.meter(NodeId(1)).rx_bits(), 27 * 8 + 48);
/// assert_eq!(sim.total_meter().tx_frames(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EnergyMeter {
    tx_bits: u64,
    rx_bits: u64,
    tx_frames: u64,
    rx_frames: u64,
    tx_micros: u64,
    rx_micros: u64,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Records the transmission of a frame of `bits` (including
    /// preamble) lasting `airtime_micros` on the air.
    pub(crate) fn record_tx(&mut self, bits: u64, airtime_micros: u64) {
        self.tx_bits += bits;
        self.tx_frames += 1;
        self.tx_micros += airtime_micros;
    }

    /// Records the reception of a frame of `bits` (including preamble)
    /// lasting `airtime_micros`. Corrupted receptions cost energy too
    /// and should be recorded.
    pub(crate) fn record_rx(&mut self, bits: u64, airtime_micros: u64) {
        self.rx_bits += bits;
        self.rx_frames += 1;
        self.rx_micros += airtime_micros;
    }

    /// Bits transmitted so far.
    #[must_use]
    pub fn tx_bits(&self) -> u64 {
        self.tx_bits
    }

    /// Bits received so far.
    #[must_use]
    pub fn rx_bits(&self) -> u64 {
        self.rx_bits
    }

    /// Frames transmitted so far.
    #[must_use]
    pub fn tx_frames(&self) -> u64 {
        self.tx_frames
    }

    /// Microseconds spent transmitting.
    #[must_use]
    pub(crate) fn tx_micros(&self) -> u64 {
        self.tx_micros
    }

    /// Transmit energy under `model`, nanojoules.
    #[must_use]
    pub(crate) fn tx_energy_nj(&self, model: &EnergyModel) -> f64 {
        self.tx_bits as f64 * model.tx_nj_per_bit
    }

    /// Receive energy under `model`, nanojoules.
    #[must_use]
    pub(crate) fn rx_energy_nj(&self, model: &EnergyModel) -> f64 {
        self.rx_bits as f64 * model.rx_nj_per_bit
    }

    /// Total active (tx + rx) radio energy under `model`, nanojoules.
    /// Idle listening is accounted separately by
    /// [`EnergyMeter::total_energy_with_idle_nj`], which needs to know
    /// the node's awake time.
    #[must_use]
    pub(crate) fn total_energy_nj(&self, model: &EnergyModel) -> f64 {
        self.tx_energy_nj(model) + self.rx_energy_nj(model)
    }

    /// Idle-listening energy: the radio was awake for `awake_micros`
    /// total; whatever was not spent transmitting or receiving burned
    /// the idle power. "All communication — even passive listening —
    /// will have a significant effect" (paper Section 1).
    #[must_use]
    pub(crate) fn idle_energy_nj(&self, model: &EnergyModel, awake_micros: u64) -> f64 {
        let idle_micros = awake_micros.saturating_sub(self.tx_micros + self.rx_micros);
        // nW × µs = 1e-9 W × 1e-6 s = 1e-15 J = 1e-6 nJ.
        model.idle_nw * idle_micros as f64 * 1e-6
    }

    /// Total radio energy including idle listening, nanojoules.
    #[must_use]
    pub(crate) fn total_energy_with_idle_nj(&self, model: &EnergyModel, awake_micros: u64) -> f64 {
        self.total_energy_nj(model) + self.idle_energy_nj(model, awake_micros)
    }

    /// Merges another meter into this one (for network-wide totals).
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.tx_bits += other.tx_bits;
        self.rx_bits += other.rx_bits;
        self.tx_frames += other.tx_frames;
        self.rx_frames += other.rx_frames;
        self.tx_micros += other.tx_micros;
        self.rx_micros += other.rx_micros;
    }
}

impl fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx {} bits / {} frames, rx {} bits / {} frames",
            self.tx_bits, self.tx_frames, self.rx_bits, self.rx_frames
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut meter = EnergyMeter::new();
        meter.record_tx(100, 1_000);
        meter.record_tx(50, 500);
        meter.record_rx(30, 300);
        assert_eq!(meter.tx_bits(), 150);
        assert_eq!(meter.tx_frames(), 2);
        assert_eq!(meter.rx_bits(), 30);
        assert_eq!(meter.rx_frames, 1);
        assert_eq!(meter.tx_micros(), 1_500);
        assert_eq!(meter.rx_micros, 300);
    }

    #[test]
    fn energy_follows_model() {
        let mut meter = EnergyMeter::new();
        meter.record_tx(10, 100);
        meter.record_rx(20, 200);
        let model = EnergyModel {
            tx_nj_per_bit: 2.0,
            rx_nj_per_bit: 1.0,
            idle_nw: 1_000_000.0, // 1 mW idle
        };
        assert_eq!(meter.tx_energy_nj(&model), 20.0);
        assert_eq!(meter.rx_energy_nj(&model), 20.0);
        assert_eq!(meter.total_energy_nj(&model), 40.0);
        // Awake 1000 µs, active 300 µs -> 700 µs idle at 1 mW = 700 nJ.
        assert!((meter.idle_energy_nj(&model, 1_000) - 700.0).abs() < 1e-9);
        assert!((meter.total_energy_with_idle_nj(&model, 1_000) - 740.0).abs() < 1e-9);
        // Awake time shorter than active time cannot go negative.
        assert_eq!(meter.idle_energy_nj(&model, 100), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = EnergyMeter::new();
        a.record_tx(5, 50);
        let mut b = EnergyMeter::new();
        b.record_rx(7, 70);
        b.record_tx(1, 10);
        a.merge(&b);
        assert_eq!(a.tx_bits(), 6);
        assert_eq!(a.rx_bits(), 7);
        assert_eq!(a.tx_frames(), 2);
        assert_eq!(a.rx_frames, 1);
        assert_eq!(a.tx_micros(), 60);
        assert_eq!(a.rx_micros, 70);
    }

    #[test]
    fn display_is_informative() {
        let mut meter = EnergyMeter::new();
        meter.record_tx(8, 80);
        let text = meter.to_string();
        assert!(text.contains("tx 8 bits"));
    }
}
