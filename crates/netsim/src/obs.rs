//! Observability for the simulator: the engine's own counters, folded
//! into a [`retri_obs`] registry after a run.
//!
//! The engine counts every medium event once, in plain per-shard
//! fields: [`MediumStats`], each node's [`EnergyMeter`], and the
//! [`TxStats`] below. [`ShardedSim::record_metrics`] adds their totals
//! to a registry under the `netsim_*` names, so the engine runs one code
//! path whether or not anyone observes it, observed runs keep their
//! worker threads, and the snapshot is shard-count invariant by
//! construction (every total is a sum of exact per-shard counts).
//!
//! [`ShardedSim::record_metrics`]: crate::sim::ShardedSim::record_metrics

use retri_obs::{Histogram, Obs};

use crate::energy::EnergyMeter;
use crate::medium::MediumStats;
use crate::radio::EnergyModel;
use crate::trace::LossReason;

/// Bucket bounds (simulated micros) for transmission airtimes:
/// geometric from 100 µs to ~1.6 s, covering every radio model in the
/// workspace.
const TX_AIRTIME_BOUNDS: [f64; 8] = [
    100.0,
    400.0,
    1_600.0,
    6_400.0,
    25_600.0,
    102_400.0,
    409_600.0,
    1_638_400.0,
];

/// One shard's counts behind the MAC and airtime metrics. They stay out
/// of [`MediumStats`], which trace recordings serialize.
#[derive(Debug)]
pub(crate) struct TxStats {
    /// CSMA carrier-sense deferrals.
    pub backoffs: u64,
    /// Backoff slots waited across those deferrals.
    pub backoff_slots: u64,
    /// Airtimes (micros) of the transmissions whose `TxEnd` ran.
    pub airtimes: Histogram,
}

impl Default for TxStats {
    fn default() -> Self {
        TxStats {
            backoffs: 0,
            backoff_slots: 0,
            airtimes: Histogram::with_bounds(&TX_AIRTIME_BOUNDS),
        }
    }
}

impl TxStats {
    /// Adds another shard's counts into these.
    pub(crate) fn merge(&mut self, other: &TxStats) {
        self.backoffs += other.backoffs;
        self.backoff_slots += other.backoff_slots;
        self.airtimes.merge(&other.airtimes);
    }
}

/// The [`MediumStats`] counter behind `netsim_drops_total{reason}`.
fn drops(stats: &MediumStats, reason: LossReason) -> u64 {
    match reason {
        LossReason::RfCollision => stats.rf_collisions,
        LossReason::HalfDuplex => stats.half_duplex_losses,
        LossReason::RandomLoss => stats.random_losses,
        LossReason::Asleep => stats.sleep_misses,
        LossReason::FaultErasure => stats.fault_erasures,
        LossReason::Partitioned => stats.partition_losses,
    }
}

/// Adds one simulator's totals to `obs` (a no-op when it is disabled).
///
/// Every transmission counted in `stats.frames_sent` has started; those
/// whose `TxEnd` has not run yet are still on the air.
pub(crate) fn record(
    obs: &mut Obs,
    stats: &MediumStats,
    meter: &EnergyMeter,
    energy: &EnergyModel,
    tx: &TxStats,
) {
    let counters = [
        ("netsim_frames_sent_total", stats.frames_sent),
        ("netsim_tx_bits_total", meter.tx_bits()),
        ("netsim_airtime_micros_total", meter.tx_micros()),
        ("netsim_deliveries_total", stats.deliveries),
        (
            "netsim_corrupted_deliveries_total",
            stats.corrupted_deliveries,
        ),
        ("netsim_flipped_bits_total", stats.flipped_bits),
        ("netsim_mac_backoffs_total", tx.backoffs),
        ("netsim_mac_backoff_slots_total", tx.backoff_slots),
        ("netsim_tx_airtime_started_total", stats.frames_sent),
        ("netsim_tx_airtime_completed_total", tx.airtimes.count()),
    ];
    for (name, value) in counters {
        obs.add_counter(name, &[], value);
    }
    for reason in LossReason::ALL {
        let labels = &[("reason", reason.label())];
        obs.add_counter("netsim_drops_total", labels, drops(stats, reason));
    }
    obs.shift_gauge("netsim_energy_tx_nj", &[], meter.tx_energy_nj(energy));
    obs.shift_gauge("netsim_energy_rx_nj", &[], meter.rx_energy_nj(energy));
    let active = stats.frames_sent - tx.airtimes.count();
    obs.shift_gauge("netsim_tx_airtime_active", &[], active as f64);
    obs.merge_histogram("netsim_tx_airtime_micros", &[], &tx.airtimes);
}
