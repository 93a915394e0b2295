//! The in-process transport: a [`ServiceHandle`] owns the shards
//! directly and serves requests synchronously on the caller's thread.
//!
//! This is the deterministic face of the service — tests and the
//! simulator-as-load-generator drive it without sockets or threads, and
//! because it is built by the same [`crate::shard::build_shards`] as the
//! TCP server and routes with the same validation, the two transports
//! produce identical allocation streams for the same seed and request
//! sequence (pinned by the transport-parity test).

use crate::proto::{ErrCode, Reply, Request, ALL_SHARDS};
use crate::shard::{build_shards, ServiceConfig, Shard};

/// Routing shared by both transports: which shard a request targets.
/// `None` means the request is served by the transport itself
/// (all-shard STATS, PING).
#[must_use]
pub fn route(req: &Request) -> Option<u16> {
    match req {
        Request::Alloc { shard, .. }
        | Request::Release { shard, .. }
        | Request::Wait { shard, .. } => Some(*shard),
        Request::Stats { shard } if *shard != ALL_SHARDS => Some(*shard),
        Request::Stats { .. } | Request::Ping => None,
    }
}

/// The out-of-range-shard error both transports reply with.
#[must_use]
pub(crate) fn bad_shard(shard: u16, shards: u16) -> Reply {
    Reply::Err {
        code: ErrCode::BadShard as u8,
        msg: format!("shard {shard} out of range (service has {shards})"),
    }
}

/// In-process service: the allocator core behind a synchronous call.
pub struct ServiceHandle {
    shards: Vec<Shard>,
}

impl ServiceHandle {
    /// Builds the allocator core for `config`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config (see [`build_shards`]).
    #[must_use]
    pub fn new(config: &ServiceConfig) -> Self {
        ServiceHandle {
            shards: build_shards(config),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> u16 {
        self.shards.len() as u16
    }

    /// Serves one request synchronously.
    pub fn request(&mut self, req: &Request) -> Reply {
        match route(req) {
            Some(shard) => {
                let Some(target) = self.shards.get_mut(shard as usize) else {
                    return bad_shard(shard, self.shards.len() as u16);
                };
                target.handle(req)
            }
            None => match req {
                Request::Ping => Reply::Pong,
                _ => Reply::Stats(self.shards.iter().flat_map(Shard::stats).collect()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

    fn handle() -> ServiceHandle {
        let mut config = ServiceConfig::new(7);
        config.shards = 3;
        config.bits = 12;
        ServiceHandle::new(&config)
    }

    #[test]
    fn ping_pongs() {
        assert_eq!(handle().request(&Request::Ping), Reply::Pong);
    }

    #[test]
    fn out_of_range_shard_is_an_error_not_a_panic() {
        let mut h = handle();
        let reply = h.request(&Request::Alloc {
            shard: 9,
            strategy: StrategyKind::Uniform,
            count: 1,
        });
        match reply {
            Reply::Err { code, msg } => {
                assert_eq!(code, ErrCode::BadShard as u8);
                assert!(msg.contains("shard 9"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_shards_stats_merges_every_domain() {
        let mut h = handle();
        for shard in 0..3 {
            let _ = h.request(&Request::Alloc {
                shard,
                strategy: StrategyKind::Uniform,
                count: 10,
            });
        }
        match h.request(&Request::Stats { shard: ALL_SHARDS }) {
            Reply::Stats(entries) => {
                assert_eq!(entries.len(), 3 * StrategyKind::ALL.len());
                let minted: u64 = entries
                    .iter()
                    .filter(|e| e.strategy == StrategyKind::Uniform)
                    .map(|e| e.minted)
                    .sum();
                assert_eq!(minted, 30);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_shard_stats_reports_only_that_shard() {
        let mut h = handle();
        match h.request(&Request::Stats { shard: 1 }) {
            Reply::Stats(entries) => {
                assert_eq!(entries.len(), StrategyKind::ALL.len());
                assert!(entries.iter().all(|e| e.shard == 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = handle();
        let mut b = handle();
        let req = Request::Alloc {
            shard: 2,
            strategy: StrategyKind::Listening,
            count: 100,
        };
        assert_eq!(a.request(&req), b.request(&req));
    }
}
