//! Deterministic load generation against either transport.
//!
//! The plan is a fixed, seed-free request schedule: batches of `ALLOC`
//! round-robined across shards and strategies, with transactions
//! released after a fixed number of batches so the live density reaches
//! a steady state instead of growing without bound. Determinism lives
//! in the *service's* seeded RNG streams, so the same plan against the
//! same-seeded service yields the same identifier stream on any
//! transport — [`LoadReport::digest`] is the FNV-1a fingerprint of that
//! stream, and digest equality across transports is exactly the
//! parity property CI checks.

use std::collections::VecDeque;
use std::io;
use std::time::Instant;

use retri::hash::{fnv1a, FNV_OFFSET};

use crate::handle::ServiceHandle;
use crate::proto::{Reply, Request};
use crate::strategy::StrategyKind;
use crate::tcp::TcpClient;

/// Anything that can serve a [`Request`].
pub trait Transport {
    /// Serves one request.
    ///
    /// # Errors
    ///
    /// Transport-level failures (socket errors); the in-process handle
    /// never fails.
    fn request(&mut self, req: &Request) -> io::Result<Reply>;
}

impl Transport for ServiceHandle {
    fn request(&mut self, req: &Request) -> io::Result<Reply> {
        Ok(ServiceHandle::request(self, req))
    }
}

impl Transport for TcpClient {
    fn request(&mut self, req: &Request) -> io::Result<Reply> {
        TcpClient::request(self, req)
    }
}

/// A fixed allocation schedule.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Total identifiers to mint across all strategies.
    pub total_allocs: u64,
    /// Identifiers per `ALLOC` request.
    pub batch: u32,
    /// Strategies to rotate through, one batch each.
    pub strategies: Vec<StrategyKind>,
    /// Shards to rotate through.
    pub shards: u16,
    /// A batch's ids are released after this many further batches on
    /// the same `(shard, strategy)`, bounding the steady-state density
    /// at roughly `release_after × batch` live transactions per domain.
    pub release_after: usize,
    /// Retries per request when the server sheds with BUSY before the
    /// run gives up.
    pub busy_retries: u32,
}

impl LoadPlan {
    /// A plan minting `total_allocs` ids over every strategy with the
    /// service defaults (batch 256, 4 shards, density ≈ 1024 per
    /// domain).
    #[must_use]
    pub fn new(total_allocs: u64) -> Self {
        LoadPlan {
            total_allocs,
            batch: 256,
            strategies: StrategyKind::ALL.to_vec(),
            shards: 4,
            release_after: 4,
            busy_retries: 1000,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Identifiers actually minted.
    pub allocs: u64,
    /// Requests issued (ALLOC + RELEASE), excluding BUSY retries.
    pub requests: u64,
    /// BUSY replies absorbed (each was retried).
    pub busy: u64,
    /// Wall-clock of the whole run, nanoseconds.
    pub elapsed_ns: u64,
    /// Median per-request latency, nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile per-request latency, nanoseconds.
    pub p99_latency_ns: u64,
    /// FNV-1a over every minted identifier in schedule order — equal
    /// across transports for the same service seed and plan.
    pub digest: u64,
}

impl LoadReport {
    /// Allocations per second over the run's wall-clock.
    #[must_use]
    pub fn allocs_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.allocs as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Issues `req`, retrying on BUSY up to `plan.busy_retries` times.
///
/// # Errors
///
/// Transport errors, or `WouldBlock` once the retry budget is spent.
fn request_retrying(
    transport: &mut dyn Transport,
    req: &Request,
    plan: &LoadPlan,
    busy: &mut u64,
) -> io::Result<Reply> {
    for _ in 0..=plan.busy_retries {
        match transport.request(req)? {
            Reply::Busy => {
                *busy += 1;
                std::thread::yield_now();
            }
            reply => return Ok(reply),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::WouldBlock,
        "BUSY retry budget exhausted",
    ))
}

/// Runs `plan` against `transport` and reports throughput, latency
/// percentiles, BUSY shedding, and the allocation-stream digest.
///
/// # Errors
///
/// Propagates transport failures and unexpected reply types.
pub fn run_load(transport: &mut dyn Transport, plan: &LoadPlan) -> io::Result<LoadReport> {
    assert!(plan.batch >= 1 && !plan.strategies.is_empty() && plan.shards >= 1);
    let mut digest = FNV_OFFSET;
    let mut latencies: Vec<u64> = Vec::new();
    let mut pending: Vec<VecDeque<Vec<u128>>> =
        vec![VecDeque::new(); plan.strategies.len() * plan.shards as usize];
    let mut allocs = 0u64;
    let mut requests = 0u64;
    let mut busy = 0u64;
    let mut turn = 0usize;
    let started = Instant::now();
    while allocs < plan.total_allocs {
        let strategy = plan.strategies[turn % plan.strategies.len()];
        let shard = ((turn / plan.strategies.len()) % plan.shards as usize) as u16;
        let count = plan.batch.min((plan.total_allocs - allocs) as u32);
        let req = Request::Alloc {
            shard,
            strategy,
            count,
        };
        let sent = Instant::now();
        let reply = request_retrying(transport, &req, plan, &mut busy)?;
        latencies.push(sent.elapsed().as_nanos() as u64);
        requests += 1;
        let Reply::Ids(ids) = reply else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected IDS, got {reply:?}"),
            ));
        };
        allocs += ids.len() as u64;
        for id in &ids {
            digest = fnv1a(digest, &id.to_le_bytes());
        }
        let slot = turn % pending.len();
        pending[slot].push_back(ids);
        if pending[slot].len() > plan.release_after {
            let oldest = pending[slot].pop_front().expect("non-empty by len check");
            let sent = Instant::now();
            let reply = request_retrying(
                transport,
                &Request::Release {
                    shard,
                    strategy,
                    ids: oldest,
                },
                plan,
                &mut busy,
            )?;
            latencies.push(sent.elapsed().as_nanos() as u64);
            requests += 1;
            if !matches!(reply, Reply::Released { .. }) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected RELEASED, got {reply:?}"),
                ));
            }
        }
        turn += 1;
    }
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    latencies.sort_unstable();
    Ok(LoadReport {
        allocs,
        requests,
        busy,
        elapsed_ns,
        p50_latency_ns: percentile(&latencies, 0.50),
        p99_latency_ns: percentile(&latencies, 0.99),
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ServiceConfig;

    #[test]
    fn load_run_mints_the_requested_total() {
        let mut config = ServiceConfig::new(11);
        config.shards = 2;
        let mut handle = ServiceHandle::new(&config);
        let mut plan = LoadPlan::new(10_000);
        plan.shards = 2;
        plan.batch = 64;
        let report = run_load(&mut handle, &plan).unwrap();
        assert_eq!(report.allocs, 10_000);
        assert_eq!(report.busy, 0, "in-process transport never sheds");
        assert!(report.p99_latency_ns >= report.p50_latency_ns);
        assert!(report.allocs_per_sec() > 0.0);
    }

    #[test]
    fn same_seed_same_digest() {
        let mut config = ServiceConfig::new(5);
        config.shards = 2;
        let plan = {
            let mut p = LoadPlan::new(4_000);
            p.shards = 2;
            p
        };
        let a = run_load(&mut ServiceHandle::new(&config), &plan).unwrap();
        let b = run_load(&mut ServiceHandle::new(&config), &plan).unwrap();
        assert_eq!(a.digest, b.digest);
        let other_seed = run_load(
            &mut ServiceHandle::new(&ServiceConfig {
                seed: 6,
                ..config.clone()
            }),
            &plan,
        )
        .unwrap();
        assert_ne!(a.digest, other_seed.digest);
    }

    #[test]
    fn steady_state_density_is_bounded() {
        let mut config = ServiceConfig::new(3);
        config.shards = 1;
        let mut handle = ServiceHandle::new(&config);
        let mut plan = LoadPlan::new(50_000);
        plan.shards = 1;
        plan.batch = 100;
        plan.release_after = 2;
        let _ = run_load(&mut handle, &plan).unwrap();
        let Reply::Stats(entries) =
            ServiceHandle::request(&mut handle, &Request::Stats { shard: 0 })
        else {
            panic!("expected stats");
        };
        for entry in entries {
            // At most release_after (+1 in-flight) batches live, and
            // collisions can only shrink the distinct count.
            assert!(
                entry.live_total <= 300,
                "{:?} live_total {} exceeds steady-state bound",
                entry.strategy,
                entry.live_total
            );
        }
    }
}
