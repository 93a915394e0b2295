//! Estimating the local transaction density `T`.
//!
//! The paper's adaptive listening rule needs each node to know roughly
//! how many transactions it sees concurrently: *"each node can estimate
//! T based on the number of concurrent transactions it observes"*
//! (Section 5.1), and Section 8 lists better `T` estimation as ongoing
//! work. [`DensityEstimator`] is that estimator: it counts distinct
//! transaction identifiers heard within a sliding time horizon and
//! optionally smooths the count with an exponentially weighted moving
//! average.
//!
//! Reads are **pure**: [`DensityEstimator::estimated_density`] takes
//! `&self` and may be called any number of times at the same instant without changing the
//! estimate — a property the Dynamic-Frame Aloha controller, which
//! queries density every frame, depends on. Between observations the
//! smoothed estimate decays toward the live count as a function of
//! *elapsed time* (time constant `ttl`), not of how often anyone asked.

use std::collections::HashMap;

use retri_model::Density;

/// A node's running estimate of the transaction density it observes.
///
/// Time is an opaque `u64` in whatever unit the caller uses consistently
/// (the simulator uses microseconds). A transaction counts as
/// *concurrent* if any of its packets was heard within the last
/// `ttl` time units.
///
/// # Examples
///
/// ```
/// use retri::density::DensityEstimator;
///
/// let mut est = DensityEstimator::new(1_000);
/// est.observe(0xA, 10);
/// est.observe(0xB, 500);
/// est.observe(0xA, 700); // same transaction again: still one
///
/// // Two concurrent foreign transactions plus this node itself.
/// assert_eq!(est.estimated_density(800).get(), 3);
///
/// // Reads are pure: asking again changes nothing.
/// assert_eq!(est.estimated_density(800).get(), 3);
///
/// // After the horizon passes, the estimate relaxes to just this node.
/// assert_eq!(est.estimated_density(10_000).get(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DensityEstimator {
    ttl: u64,
    alpha: f64,
    last_seen: HashMap<u64, u64>,
    /// The smoothed count as of `last_update`; `None` before the first
    /// observation.
    smoothed: Option<f64>,
    /// The instant of the most recent observation (the checkpoint the
    /// time-based decay in [`Self::smoothed_at`] measures from).
    last_update: u64,
}

impl DensityEstimator {
    /// Creates an estimator with a concurrency horizon of `ttl` time
    /// units and no smoothing (the estimate is the instantaneous count).
    #[must_use]
    pub fn new(ttl: u64) -> Self {
        DensityEstimator {
            ttl,
            alpha: 1.0,
            last_seen: HashMap::new(),
            smoothed: None,
            last_update: 0,
        }
    }

    /// Creates an estimator that smooths the concurrent count.
    ///
    /// Each observation applies one EWMA step,
    /// `estimate ← alpha · count + (1 - alpha) · estimate`; between
    /// observations the estimate decays toward the live count with time
    /// constant `ttl` (after `ttl` silent time units the memory of the
    /// old estimate has faded by a factor `1 - alpha`). Decay depends
    /// only on elapsed time — never on how many times the estimate was
    /// read.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    #[must_use]
    pub fn with_smoothing(ttl: u64, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "smoothing factor {alpha} outside (0, 1]"
        );
        DensityEstimator {
            ttl,
            alpha,
            last_seen: HashMap::new(),
            smoothed: None,
            last_update: 0,
        }
    }

    /// The concurrency horizon.
    #[must_use]
    pub fn ttl(&self) -> u64 {
        self.ttl
    }

    /// Records that transaction identifier `key` was heard at `now`.
    ///
    /// This is the only path that advances the smoothing state; reads
    /// never do.
    pub fn observe(&mut self, key: u64, now: u64) {
        // Decay the previous estimate up to `now` *before* this
        // observation lands, so the EWMA step blends against the value
        // a pure read would have returned a moment earlier.
        let decayed = self.smoothed_at(now);
        self.last_seen
            .entry(key)
            .and_modify(|t| *t = (*t).max(now))
            .or_insert(now);
        self.prune(now);
        let count = self.last_seen.len() as f64;
        self.smoothed = Some(match self.smoothed {
            Some(_) => self.alpha * count + (1.0 - self.alpha) * decayed,
            None => count,
        });
        self.last_update = now;
    }

    fn prune(&mut self, now: u64) {
        let ttl = self.ttl;
        self.last_seen
            .retain(|_, &mut seen| now.saturating_sub(seen) <= ttl);
    }

    /// Number of distinct foreign transactions heard within the horizon.
    /// Pure: expired entries are skipped, not pruned.
    #[must_use]
    pub(crate) fn active_count(&self, now: u64) -> usize {
        self.last_seen
            .values()
            .filter(|&&seen| now.saturating_sub(seen) <= self.ttl)
            .count()
    }

    /// The smoothed count as it stands at `now`: the checkpointed EWMA
    /// value relaxed toward the live count by `(1 - alpha)^(Δt / ttl)`.
    fn smoothed_at(&self, now: u64) -> f64 {
        let count = self.active_count(now) as f64;
        let Some(prev) = self.smoothed else {
            return count;
        };
        let dt = now.saturating_sub(self.last_update);
        if dt == 0 {
            return prev;
        }
        // ttl == 0 makes the exponent infinite and the weight zero: an
        // estimator with no horizon holds no memory.
        let weight = (1.0 - self.alpha).powf(dt as f64 / self.ttl.max(1) as f64);
        count + (prev - count) * weight
    }

    /// The density estimate `T̂`: concurrent foreign transactions plus
    /// one for this node's own transaction. Always at least one.
    ///
    /// Pure: calling this any number of times at the same `now` returns
    /// the same value and leaves the estimator unchanged.
    #[must_use]
    pub fn estimated_density(&self, now: u64) -> Density {
        let t = self.smoothed_at(now).round() as u64 + 1;
        Density::new(t.max(1)).expect("t >= 1 by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_node_estimates_density_one() {
        let est = DensityEstimator::new(100);
        assert_eq!(est.estimated_density(0).get(), 1);
    }

    #[test]
    fn distinct_ids_accumulate() {
        let mut est = DensityEstimator::new(100);
        for key in 0..4u64 {
            est.observe(key, 10);
        }
        assert_eq!(est.active_count(10), 4);
        assert_eq!(est.estimated_density(10).get(), 5);
    }

    #[test]
    fn repeated_id_counts_once() {
        let mut est = DensityEstimator::new(100);
        est.observe(7, 1);
        est.observe(7, 2);
        est.observe(7, 3);
        assert_eq!(est.active_count(3), 1);
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut est = DensityEstimator::new(50);
        est.observe(1, 0);
        est.observe(2, 10);
        assert_eq!(est.active_count(40), 2);
        assert_eq!(est.active_count(55), 1); // id 1 heard at 0 expired
        assert_eq!(est.active_count(200), 0);
    }

    #[test]
    fn reobservation_refreshes_expiry() {
        let mut est = DensityEstimator::new(50);
        est.observe(1, 0);
        est.observe(1, 40);
        assert_eq!(est.active_count(80), 1, "refreshed at 40, alive until 90");
    }

    #[test]
    fn estimate_tracks_paper_testbed() {
        // Five transmitters continuously sending: a receiver that hears
        // all five within the horizon estimates T=6 (five foreign plus
        // itself); a transmitter hearing the other four estimates T=5.
        let mut est = DensityEstimator::new(1_000);
        for key in 0..4u64 {
            est.observe(key, key * 10);
        }
        assert_eq!(est.estimated_density(50).get(), 5);
    }

    #[test]
    fn smoothing_damps_spikes() {
        let mut smooth = DensityEstimator::with_smoothing(100, 0.2);
        let mut raw = DensityEstimator::new(100);
        for key in 0..10u64 {
            smooth.observe(key, 5);
            raw.observe(key, 5);
        }
        // Raw sees all 10 instantly; the smoothed estimate lags below.
        assert_eq!(raw.estimated_density(5).get(), 11);
        assert!(smooth.estimated_density(5).get() < 11);
    }

    #[test]
    fn smoothed_estimate_decays_during_silence() {
        // Decay is a function of elapsed time, not of query count: a
        // single read after a long silence already sees the relaxed
        // estimate.
        let mut est = DensityEstimator::with_smoothing(100, 0.5);
        for key in 0..8u64 {
            est.observe(key, 0);
        }
        let busy = est.estimated_density(50).get();
        let quiet = est.estimated_density(10_000).get();
        assert!(quiet < busy);
        assert_eq!(quiet, 1);
        // Partial silence decays partially: past the ttl horizon the
        // live count is 0, and each further ttl shrinks the memory of
        // the busy estimate by (1 - alpha).
        let partial = est.estimated_density(300).get();
        assert!(quiet <= partial && partial <= busy);
    }

    #[test]
    fn reads_are_pure() {
        // Two estimators fed identically; one is read hundreds of times
        // in between. Every subsequent value must match the unread twin.
        let mut hammered = DensityEstimator::with_smoothing(100, 0.3);
        let mut pristine = DensityEstimator::with_smoothing(100, 0.3);
        for key in 0..6u64 {
            hammered.observe(key, key);
            pristine.observe(key, key);
        }
        let first = hammered.estimated_density(50);
        for _ in 0..100 {
            assert_eq!(hammered.estimated_density(50), first);
            let _ = hammered.active_count(50);
        }
        assert_eq!(pristine.estimated_density(50), first);
        // Reads do not perturb future observations either.
        hammered.observe(99, 120);
        pristine.observe(99, 120);
        assert_eq!(
            hammered.estimated_density(150),
            pristine.estimated_density(150)
        );
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn smoothing_rejects_zero_alpha() {
        let _ = DensityEstimator::with_smoothing(10, 0.0);
    }

    #[test]
    fn ttl_accessor() {
        assert_eq!(DensityEstimator::new(123).ttl(), 123);
    }
}
