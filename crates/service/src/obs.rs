//! Observability for the allocator: the per-domain counts `STATS`
//! reports, folded into a [`retri_obs`] registry after the work.
//!
//! Every domain counts its mints, collisions and live transactions in
//! plain fields on the mint path ([`StrategyStats`]). [`record`] adds a
//! set of those entries under the `svc_*` names — `retrid --obs` folds
//! the final entries its shard threads return at shutdown — so minting
//! records nothing twice.

use retri_obs::Obs;

use crate::proto::StrategyStats;

/// Adds every entry to `obs`, summed per strategy:
/// `svc_minted_total{strategy}`, `svc_collisions_total{strategy}` and
/// `svc_live_transactions{strategy}`. Zero entries are folded too, so
/// every strategy's series appears.
pub fn record(obs: &mut Obs, entries: &[StrategyStats]) {
    for entry in entries {
        let labels = &[("strategy", entry.strategy.name())];
        obs.add_counter("svc_minted_total", labels, entry.minted);
        obs.add_counter("svc_collisions_total", labels, entry.collisions);
        obs.shift_gauge("svc_live_transactions", labels, entry.live_total as f64);
    }
}
