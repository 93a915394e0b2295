//! The sharded allocator core.
//!
//! A [`Shard`] is a single-threaded collision domain: per strategy it
//! owns the minting state, its own deterministic RNG stream, and the
//! *live set* — a multiset of identifier values currently allocated to
//! in-flight transactions. Because exactly one thread ever touches a
//! shard (the caller's thread in-process, the shard's event-loop
//! thread over TCP), the hot path takes no locks at all; the only
//! shared state is the shard's BUSY counter. Metrics are folded from
//! the same per-domain counts `STATS` reports ([`crate::obs::record`]),
//! so minting records nothing twice.
//!
//! **Collision accounting.** A mint that lands on a value already in
//! the live set is a ground-truth collision — the service analogue of
//! two concurrent transactions sharing an identifier on the air. Next
//! to the observed count every domain accumulates the Eq. 4-form
//! prediction: at each mint with `L` *distinct* live values (the live
//! set's `live_distinct`; holders of one collided value count once) the
//! probability a uniform draw hits one of them is `1 − (1 − 2^−H)^L`
//! (the paper's per-overlap survival raised to the live-overlap count).
//! Summing that over mints gives the expected collision count a
//! paper-faithful uniform strategy would suffer under the *actual*
//! recorded density trace, so `STATS` can report predicted-vs-observed
//! per strategy: the uniform strategy must match it, listening must
//! undercut it, and the structured strategies must undercut it by
//! construction. `STATS`' separate `eq4_p_collision` is Eq. 4 itself at
//! the current density, counted in transactions rather than values:
//! `T = live_total + 1`, every holder plus the one about to mint.
//!
//! **The live set and the survival power.** The live multiset is a
//! [`KeyedMap`] (the multiply-rotate hasher under a per-process key;
//! [`retri::hash`] says why that is safe for a table clients can probe
//! but never insert into). Each domain memoises `(1 − 2^−H)^L` for `L`
//! below 4,096, each entry made by the same `powf` call it replaces, so
//! the prediction is bit-identical to evaluating the power at every
//! mint.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use retri::hash::KeyedMap;
use retri::seed::stream_seed;
use retri::IdentifierSpace;
use retri_model::{p_collision, Density, IdBits};

use crate::proto::{Reply, Request, StrategyStats};
use crate::strategy::{build_strategy, MintStrategy, StrategyKind};

/// Allocator configuration, shared verbatim by both transports — the
/// transport-parity guarantee starts with both being built from the
/// same config through [`build_shards`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root seed; every `(shard, strategy)` RNG stream is derived from
    /// it with [`stream_seed`], so an allocation stream depends only on
    /// the sequence of mints routed to that pair — not on how requests
    /// interleave across shards or strategies.
    pub seed: u64,
    /// Number of independent collision domains.
    pub shards: u16,
    /// Identifier width for the `≤ 64`-bit strategies.
    pub bits: u8,
    /// Avoidance-window size for the listening strategy, in recently
    /// minted identifiers.
    pub listen_window: usize,
    /// Bounded per-shard queue depth for the TCP transport; when a
    /// shard's queue is full, requests are shed with `BUSY`.
    pub queue_depth: usize,
}

impl ServiceConfig {
    /// A config with the service defaults: 4 shards, 16-bit
    /// identifiers, a 64-mint listening window, and a 64-request queue.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ServiceConfig {
            seed,
            shards: 4,
            bits: 16,
            listen_window: 64,
            queue_depth: 64,
        }
    }
}

/// Live-value counts below this read the survival power from a memo
/// (at most 32 KB per domain); counts at or above it call `powf`.
const SURVIVAL_MEMO: usize = 4096;

/// One strategy's state inside a shard.
struct Domain {
    strategy: Box<dyn MintStrategy>,
    rng: StdRng,
    /// Live multiset: value → number of in-flight transactions holding
    /// it (> 1 only after a collision).
    live: KeyedMap<u128, u32>,
    live_total: u64,
    minted: u64,
    collisions: u64,
    released: u64,
    release_misses: u64,
    /// Σ per-mint Eq. 4-form collision probability.
    predicted: f64,
    /// `1 − 2^−H`, precomputed.
    survival: f64,
    /// `survival.powf(L)` at index `L`, filled up to the largest
    /// live-value count seen below [`SURVIVAL_MEMO`].
    survival_pow: Vec<f64>,
}

impl Domain {
    fn new(config: &ServiceConfig, shard: u16, kind: StrategyKind) -> Self {
        let space = IdentifierSpace::new(config.bits).expect("validated by build_shards");
        let strategy = build_strategy(kind, space, config.listen_window);
        let label = format!("svc.shard{shard}.{}", kind.name());
        let bits = strategy.bits();
        Domain {
            strategy,
            rng: StdRng::seed_from_u64(stream_seed(config.seed, &label)),
            live: KeyedMap::default(),
            live_total: 0,
            minted: 0,
            collisions: 0,
            released: 0,
            release_misses: 0,
            predicted: 0.0,
            survival: 1.0 - (0.5f64).powi(i32::from(bits)),
            survival_pow: Vec::new(),
        }
    }

    fn mint(&mut self) -> u128 {
        let value = self.strategy.mint(&mut self.rng);
        self.predicted += 1.0 - self.survival_power(self.live.len());
        let holders = self.live.entry(value).or_insert(0);
        if *holders > 0 {
            self.collisions += 1;
        }
        *holders += 1;
        self.live_total += 1;
        self.minted += 1;
        self.strategy.observe(value);
        value
    }

    /// `survival^live`, exactly as `powf` gives it.
    fn survival_power(&mut self, live: usize) -> f64 {
        if live >= SURVIVAL_MEMO {
            return self.survival.powf(live as f64);
        }
        while self.survival_pow.len() <= live {
            let l = self.survival_pow.len();
            self.survival_pow.push(self.survival.powf(l as f64));
        }
        self.survival_pow[live]
    }

    fn release(&mut self, id: u128) -> bool {
        match self.live.entry(id) {
            Entry::Occupied(mut holders) => {
                *holders.get_mut() -= 1;
                if *holders.get() == 0 {
                    holders.remove();
                }
                self.live_total -= 1;
                self.released += 1;
                true
            }
            Entry::Vacant(_) => {
                self.release_misses += 1;
                false
            }
        }
    }

    /// Eq. 4 collision probability at the current density
    /// (`T = live_total + 1` — the live transactions plus the one about
    /// to mint).
    fn eq4_p_collision(&self) -> f64 {
        let t = self.live_total + 1;
        let bits = self.strategy.bits();
        if bits <= 64 {
            let id = IdBits::new(bits).expect("strategy width is valid");
            let density = Density::new(t).expect("t >= 1");
            p_collision(id, density)
        } else {
            // Past the model's 64-bit domain the per-overlap survival
            // is 1.0 in f64 — Eq. 4's collision probability vanishes.
            1.0 - self.survival.powf(2.0 * (t - 1) as f64)
        }
    }

    fn stats(&self, shard: u16, busy: u64) -> StrategyStats {
        StrategyStats {
            shard,
            strategy: self.strategy.kind(),
            bits: self.strategy.bits(),
            live_distinct: self.live.len() as u64,
            live_total: self.live_total,
            minted: self.minted,
            collisions: self.collisions,
            released: self.released,
            release_misses: self.release_misses,
            busy,
            predicted_collisions: self.predicted,
            eq4_p_collision: self.eq4_p_collision(),
        }
    }
}

/// One collision domain: every strategy's state for one shard index,
/// owned by exactly one thread at a time.
pub struct Shard {
    index: u16,
    domains: Vec<Domain>,
    /// Requests shed with BUSY for this shard. Written by transport
    /// threads (which shed *before* the request reaches the shard),
    /// read here for STATS.
    busy: Arc<AtomicU64>,
}

impl Shard {
    /// Serves one request. The caller has already validated the shard
    /// index; `Wait` is served inline (it exists to occupy this thread).
    pub fn handle(&mut self, req: &Request) -> Reply {
        match req {
            Request::Alloc {
                strategy, count, ..
            } => {
                let domain = &mut self.domains[strategy.code() as usize];
                let ids = (0..*count).map(|_| domain.mint()).collect();
                Reply::Ids(ids)
            }
            Request::Release { strategy, ids, .. } => {
                let domain = &mut self.domains[strategy.code() as usize];
                let mut acked = 0u32;
                let mut misses = 0u32;
                for id in ids {
                    if domain.release(*id) {
                        acked += 1;
                    } else {
                        misses += 1;
                    }
                }
                Reply::Released { acked, misses }
            }
            Request::Stats { .. } => Reply::Stats(self.stats()),
            Request::Ping => Reply::Pong,
            Request::Wait { micros, .. } => {
                std::thread::sleep(std::time::Duration::from_micros(u64::from(*micros)));
                Reply::Pong
            }
        }
    }

    /// This shard's per-strategy statistics, in wire-code order.
    #[must_use]
    pub fn stats(&self) -> Vec<StrategyStats> {
        let busy = self.busy.load(Ordering::Relaxed);
        self.domains
            .iter()
            .map(|d| d.stats(self.index, busy))
            .collect()
    }

    /// The shared BUSY counter transports bump when shedding a request
    /// bound for this shard.
    #[must_use]
    pub(crate) fn busy_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.busy)
    }
}

/// Builds the allocator core for `config`: one [`Shard`] per index,
/// each with every strategy.
///
/// # Panics
///
/// Panics if `config.shards` is zero or is the [`crate::proto::ALL_SHARDS`]
/// marker, or if `config.bits` is not a valid identifier width.
#[must_use]
pub fn build_shards(config: &ServiceConfig) -> Vec<Shard> {
    assert!(
        config.shards >= 1 && config.shards < crate::proto::ALL_SHARDS,
        "shard count {} out of range",
        config.shards
    );
    assert!(
        IdentifierSpace::new(config.bits).is_ok(),
        "identifier width {} out of range",
        config.bits
    );
    (0..config.shards)
        .map(|index| Shard {
            index,
            domains: StrategyKind::ALL
                .iter()
                .map(|&kind| Domain::new(config, index, kind))
                .collect(),
            busy: Arc::new(AtomicU64::new(0)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ALL_SHARDS;

    fn config() -> ServiceConfig {
        let mut c = ServiceConfig::new(42);
        c.shards = 2;
        c.bits = 8;
        c
    }

    fn alloc(shard: &mut Shard, kind: StrategyKind, count: u32) -> Vec<u128> {
        match shard.handle(&Request::Alloc {
            shard: 0,
            strategy: kind,
            count,
        }) {
            Reply::Ids(ids) => ids,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn collision_counts_are_ground_truth() {
        // An 8-bit space with 1000 live uniform transactions must show
        // collisions, and the bookkeeping identity live_total −
        // live_distinct = Σ extra holders must hold.
        let mut shards = build_shards(&config());
        let ids = alloc(&mut shards[0], StrategyKind::Uniform, 1000);
        assert_eq!(ids.len(), 1000);
        let stats = &shards[0].stats()[StrategyKind::Uniform.code() as usize];
        assert!(stats.collisions > 0, "1000 live ids in a 256-id space");
        assert_eq!(stats.live_total, 1000);
        assert_eq!(
            stats.live_total - stats.live_distinct,
            stats.collisions,
            "every collision adds one extra holder to a live value"
        );
        assert!(stats.predicted_collisions > 0.0);
    }

    #[test]
    fn release_returns_acks_and_misses() {
        let mut shards = build_shards(&config());
        let ids = alloc(&mut shards[0], StrategyKind::Sequential, 10);
        let reply = shards[0].handle(&Request::Release {
            shard: 0,
            strategy: StrategyKind::Sequential,
            ids: vec![ids[0], ids[1], 0xDEAD_BEEF_0000],
        });
        assert_eq!(
            reply,
            Reply::Released {
                acked: 2,
                misses: 1
            }
        );
        let stats = &shards[0].stats()[StrategyKind::Sequential.code() as usize];
        assert_eq!(stats.live_total, 8);
        assert_eq!(stats.released, 2);
        assert_eq!(stats.release_misses, 1);
    }

    #[test]
    fn released_ids_no_longer_collide() {
        let mut shards = build_shards(&config());
        let ids = alloc(&mut shards[0], StrategyKind::Permutation, 5);
        for id in &ids {
            let reply = shards[0].handle(&Request::Release {
                shard: 0,
                strategy: StrategyKind::Permutation,
                ids: vec![*id],
            });
            assert_eq!(
                reply,
                Reply::Released {
                    acked: 1,
                    misses: 0
                }
            );
        }
        let stats = &shards[0].stats()[StrategyKind::Permutation.code() as usize];
        assert_eq!(stats.live_total, 0);
        assert_eq!(stats.live_distinct, 0);
    }

    #[test]
    fn eq4_prediction_tracks_density() {
        let mut shards = build_shards(&config());
        let before = shards[0].stats()[0].eq4_p_collision;
        assert_eq!(before, 0.0, "T = 1 cannot collide");
        let _ = alloc(&mut shards[0], StrategyKind::Uniform, 50);
        let after = shards[0].stats()[0].eq4_p_collision;
        let expected = p_collision(IdBits::new(8).unwrap(), Density::new(51).unwrap());
        assert!((after - expected).abs() < 1e-12);
    }

    #[test]
    fn tribles_domain_reports_zero_eq4_probability() {
        let mut shards = build_shards(&config());
        let _ = alloc(&mut shards[0], StrategyKind::Tribles128, 500);
        let stats = &shards[0].stats()[StrategyKind::Tribles128.code() as usize];
        assert_eq!(stats.bits, 128);
        assert_eq!(stats.collisions, 0);
        assert_eq!(stats.eq4_p_collision, 0.0);
    }

    #[test]
    fn shards_are_independent_collision_domains() {
        let mut shards = build_shards(&config());
        let a = alloc(&mut shards[0], StrategyKind::Uniform, 20);
        let b = alloc(&mut shards[1], StrategyKind::Uniform, 20);
        assert_ne!(a, b, "shards derive distinct RNG streams");
        assert_eq!(shards[1].stats()[0].minted, 20);
    }

    #[test]
    fn obs_metrics_mirror_native_counters() {
        let mut shards = build_shards(&config());
        let _ = alloc(&mut shards[0], StrategyKind::Uniform, 300);
        let _ = alloc(&mut shards[1], StrategyKind::Uniform, 200);
        let stats: Vec<StrategyStats> = shards.iter().flat_map(Shard::stats).collect();
        let mut obs = retri_obs::Obs::enabled();
        crate::obs::record(&mut obs, &stats);
        let snapshot = obs.snapshot().unwrap();
        assert_eq!(
            snapshot.counter_with("svc_minted_total", &[("strategy", "uniform")]),
            Some(500)
        );
        let live: u64 = stats.iter().map(|e| e.live_total).sum();
        assert_eq!(snapshot.gauge("svc_live_transactions"), live as f64);
        // Strategies nothing minted from still get every series.
        assert_eq!(
            snapshot.counter_with("svc_collisions_total", &[("strategy", "tribles128")]),
            Some(0)
        );
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn all_shards_marker_is_not_a_valid_count() {
        let mut c = config();
        c.shards = ALL_SHARDS;
        let _ = build_shards(&c);
    }
}
