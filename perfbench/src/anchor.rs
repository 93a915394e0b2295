//! Host-speed anchors.
//!
//! On small shared machines the speed of the host drifts by tens of
//! percent within minutes, for every workload at once (a trial of the
//! paper testbed took 0.28 s for a minute and then 0.17 s, with nothing
//! else changed). A fixed piece of work that uses none of the code under
//! test is timed in between the workload's own operations, and the
//! timings the benchmark reports are scaled to a host on which that
//! piece of work takes its reference time. A change to the repository
//! cannot move an anchor, so it cannot hide a gain or a regression; it
//! only removes most of the host's drift. Each workload uses the kind
//! of anchor that is bound by what bounds the workload.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// What one unit of anchor work is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorKind {
    /// [`work`] on one thread: for single-threaded computation.
    Compute,
    /// [`work`] on this many threads at once, timed until the last
    /// finishes: for threads that wait for each other at barriers.
    Parallel(usize),
    /// [`table_work`] on one thread: for small requests that each touch
    /// a hash table and a byte buffer.
    Table,
}

impl AnchorKind {
    /// The unit's duration on the reference host, ns.
    #[must_use]
    pub fn reference_ns(self) -> f64 {
        3_000_000.0
    }

    fn run(self) -> u64 {
        match self {
            AnchorKind::Compute => work(),
            AnchorKind::Table => table_work(),
            AnchorKind::Parallel(threads) => std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("anchor thread panicked"))
                    .fold(0, |a, b| a ^ b)
            }),
        }
    }
}

/// One unit of compute anchor work: fill, sort and hash a vector.
/// Returns a value the optimiser must keep.
#[must_use]
pub fn work() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut values: Vec<u64> = (0..60_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for v in values.iter().step_by(2) {
        *counts.entry(v & 0x3FFF).or_default() += 1;
    }
    values[values.len() / 2] ^ counts.len() as u64
}

/// Requests in one unit of table anchor work.
const TABLE_REQUESTS: usize = 1_600;

/// Tables the table anchor spreads its requests over.
const TABLES: usize = 10;

/// Keys each table keeps live.
const TABLE_LIVE: usize = 256;

/// One unit of table anchor work: a small allocator's bookkeeping,
/// written here so that no change to the repository can move it.
/// Requests rotate over [`TABLES`] tables of live 16-bit keys (hash
/// multisets with a queue of the order they came in); every twentieth
/// request takes 256 fresh keys and the others one, each into a new
/// vector that is encoded into a byte buffer; a table's oldest keys are
/// dropped once it holds more than [`TABLE_LIVE`]. Returns a value the
/// optimiser must keep.
#[must_use]
pub fn table_work() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut live: Vec<HashMap<u128, u32>> = vec![HashMap::new(); TABLES];
    let mut held: Vec<std::collections::VecDeque<u128>> =
        vec![std::collections::VecDeque::new(); TABLES];
    let mut wire = Vec::new();
    let mut sum = 0u64;
    for i in 0..TABLE_REQUESTS {
        let t = i % TABLES;
        let count = if i % 20 == 0 { 256 } else { 1 };
        let keys: Vec<u128> = (0..count)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                u128::from(x & 0xFFFF)
            })
            .collect();
        wire.clear();
        for &key in &keys {
            *live[t].entry(key).or_default() += 1;
            held[t].push_back(key);
            wire.extend_from_slice(&key.to_le_bytes());
        }
        let excess = held[t].len().saturating_sub(TABLE_LIVE);
        let old: Vec<u128> = held[t].drain(..excess).collect();
        for key in old {
            if let Some(holders) = live[t].get_mut(&key) {
                *holders -= 1;
                if *holders == 0 {
                    live[t].remove(&key);
                }
            }
        }
        sum = sum.wrapping_add(u64::from(wire[1]));
    }
    sum ^ live.iter().map(|l| l.len() as u64).sum::<u64>()
}

/// Anchor samples needed on either side of a moment for a local
/// reading ([`Anchor::factor_at`]).
const LOCAL_HALF_WINDOW: usize = 3;

/// Anchor samples taken during one run, in time order.
#[derive(Debug)]
pub struct Anchor {
    kind: AnchorKind,
    samples: Vec<(Instant, f64)>,
}

impl Anchor {
    /// An anchor of `kind` with no samples yet.
    #[must_use]
    pub fn new(kind: AnchorKind) -> Self {
        Anchor {
            kind,
            samples: Vec::new(),
        }
    }

    /// Times one unit of anchor work.
    pub fn sample(&mut self) {
        let started = Instant::now();
        std::hint::black_box(self.kind.run());
        self.samples
            .push((Instant::now(), started.elapsed().as_nanos() as f64));
    }

    /// Times `n` units.
    pub fn samples(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median anchor duration over the run, ns.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    #[must_use]
    pub fn median_ns(&self) -> f64 {
        let durations: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&durations)
    }

    /// The factor that turns a duration measured on this host into one
    /// on the reference host (below 1 when this host is slower), from
    /// every sample of the run.
    #[must_use]
    pub fn time_factor(&self) -> f64 {
        let factor = self.kind.reference_ns() / self.median_ns();
        eprintln!(
            "anchor: {} samples, median {:.0} ns, time factor {factor:.4}",
            self.samples.len(),
            self.median_ns()
        );
        factor
    }

    /// The same factor from the samples nearest to `at` only, so that a
    /// change of host speed within the run is corrected where it
    /// happened.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    #[must_use]
    pub fn factor_at(&self, at: Instant) -> f64 {
        assert!(!self.samples.is_empty(), "no anchor sample");
        let pos = self.samples.partition_point(|s| s.0 < at);
        let lo = pos.saturating_sub(LOCAL_HALF_WINDOW);
        let hi = (pos + LOCAL_HALF_WINDOW).min(self.samples.len());
        let (lo, hi) = if hi > lo {
            (lo, hi)
        } else {
            (self.samples.len() - 1, self.samples.len())
        };
        let local: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        self.kind.reference_ns() / median(&local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_timed_against_their_reference() {
        assert_eq!(work(), work());
        assert_eq!(table_work(), table_work());
        for kind in [
            AnchorKind::Compute,
            AnchorKind::Parallel(2),
            AnchorKind::Table,
        ] {
            let mut anchor = Anchor::new(kind);
            anchor.samples(2);
            assert!(anchor.median_ns() > 0.0);
            let expected = kind.reference_ns() / anchor.median_ns();
            assert!((anchor.time_factor() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn local_factor_follows_a_change_of_host_speed() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // Ten samples at 6 ms (slow host), then ten at 3 ms.
        let samples = (0..20)
            .map(|i| (at(i * 100), if i < 10 { 6e6 } else { 3e6 }))
            .collect();
        let anchor = Anchor {
            kind: AnchorKind::Compute,
            samples,
        };
        assert!((anchor.factor_at(at(250)) - 0.5).abs() < 1e-12);
        assert!((anchor.factor_at(at(1750)) - 1.0).abs() < 1e-12);
        // Past the last sample the newest samples count.
        assert!((anchor.factor_at(at(5000)) - 1.0).abs() < 1e-12);
        assert!((anchor.factor_at(t0) - 0.5).abs() < 1e-12);
    }
}
