//! Per-layer probes of `retri-service`: the generated request stream
//! replayed against each public function — codec, shard handler,
//! minting strategies — and an idle TCP round trip.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use retri::IdentifierSpace;
use retri_service::proto::{
    decode_reply, decode_request, encode_reply, encode_request, ALL_SHARDS,
};
use retri_service::shard::{build_shards, Shard};
use retri_service::{
    build_strategy, Reply, Request, Server, ServiceConfig, StrategyKind, StrategyStats, TcpClient,
};

use crate::inputs::{owned_domains, OpKind, OpStream};
use crate::retrid::{request_for, Book, KEEP_LIVE};
use crate::trace::Tracer;

/// Which mix entry a request is, by what was actually sent.
#[must_use]
pub fn kind_of(req: &Request) -> Option<OpKind> {
    match req {
        Request::Alloc { count: 1, .. } => Some(OpKind::AllocSmall),
        Request::Alloc { .. } => Some(OpKind::AllocBulk),
        Request::Release { .. } => Some(OpKind::Release),
        Request::Stats { .. } => Some(OpKind::Stats),
        Request::Ping | Request::Wait { .. } => None,
    }
}

/// Span name of the replayed request of each kind.
pub const REQUEST_SPANS: [&str; 4] = [
    "service.request.alloc_small",
    "service.request.alloc_bulk",
    "service.request.release",
    "service.request.stats",
];
/// Span name of the codec calls (request and reply, both ways).
pub const CODEC_SPANS: [&str; 4] = [
    "service.proto.codec.alloc_small",
    "service.proto.codec.alloc_bulk",
    "service.proto.codec.release",
    "service.proto.codec.stats",
];
/// Span name of `Shard::handle` (all shards, for an all-shard STATS).
pub const HANDLE_SPANS: [&str; 4] = [
    "service.shard.handle.alloc_small",
    "service.shard.handle.alloc_bulk",
    "service.shard.handle.release",
    "service.shard.handle.stats",
];
/// Span name of a batch of mints per strategy, in wire-code order.
pub const MINT_SPANS: [&str; 5] = [
    "service.strategy.mint.uniform",
    "service.strategy.mint.listening",
    "service.strategy.mint.sequential",
    "service.strategy.mint.permutation",
    "service.strategy.mint.tribles128",
];
/// Span name of one idle TCP round trip.
pub const TCP_SPAN: &str = "service.tcp.request";

fn kind_index(kind: OpKind) -> usize {
    OpKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("listed kind")
}

/// Serves `req` on the in-process shards the way the TCP server routes
/// it: an all-shard STATS fans out in shard order.
fn serve(cores: &mut [Shard], req: &Request) -> Reply {
    match req {
        Request::Stats { shard: ALL_SHARDS } => {
            Reply::Stats(cores.iter().flat_map(Shard::stats).collect())
        }
        Request::Alloc { shard, .. }
        | Request::Release { shard, .. }
        | Request::Stats { shard } => cores[usize::from(*shard)].handle(req),
        Request::Ping | Request::Wait { .. } => Reply::Pong,
    }
}

/// Replays the first `n` requests of the seed's stream for connection 0
/// (owning every domain) against in-process shards, one span per call.
/// Returns the shards' final statistics.
pub fn replay(seed: u64, shards: u16, n: usize, tracer: &mut Tracer) -> Vec<StrategyStats> {
    let mut config = ServiceConfig::new(seed);
    config.shards = shards;
    let mut cores = build_shards(&config);
    let domains = owned_domains(shards, 0, 1);
    let book = Mutex::new(Book::new(domains.len()));
    for &d in &domains {
        let req = Request::Alloc {
            shard: d.shard,
            strategy: d.strategy,
            count: KEEP_LIVE as u32,
        };
        if let Reply::Ids(ids) = serve(&mut cores, &req) {
            book.lock().expect("book lock").take_ids(d, &ids);
        }
    }
    let mut ops = OpStream::new(seed, 0, domains);
    let mut wire = Vec::new();
    for i in 0..n as u64 {
        let op = ops.next().expect("endless stream");
        let req = request_for(op, &book);
        let Some(kind) = kind_of(&req) else { continue };
        let k = kind_index(kind);
        let top = tracer.open(REQUEST_SPANS[k], i);
        wire.clear();
        tracer.span(CODEC_SPANS[k], i, || encode_request(&req, &mut wire));
        let decoded = tracer.span(CODEC_SPANS[k], i, || {
            decode_request(&wire).expect("own encoding")
        });
        let reply = tracer.span(HANDLE_SPANS[k], i, || serve(&mut cores, &decoded));
        wire.clear();
        tracer.span(CODEC_SPANS[k], i, || encode_reply(&reply, &mut wire));
        let reply = tracer.span(CODEC_SPANS[k], i, || {
            decode_reply(&wire).expect("own encoding")
        });
        tracer.close(top);
        if let Reply::Ids(ids) = reply {
            book.lock().expect("book lock").take_ids(op.domain, &ids);
        }
    }
    cores.iter().flat_map(Shard::stats).collect()
}

/// Mints `n` identifiers with each strategy (16-bit space, 64-id
/// listening window, as the service configures them), one span per
/// strategy standing for `n` calls.
pub fn mint(seed: u64, n: u64, tracer: &mut Tracer) {
    let space = IdentifierSpace::new(16).expect("valid width");
    for (kind, name) in StrategyKind::ALL.into_iter().zip(MINT_SPANS) {
        let mut strategy = build_strategy(kind, space, 64);
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(kind.code()));
        let id = tracer.open(name, 0);
        let mut sink = 0u128;
        for _ in 0..n {
            let value = strategy.mint(&mut rng);
            strategy.observe(value);
            sink ^= value;
        }
        std::hint::black_box(sink);
        tracer.close(id);
        tracer.set_calls(id, n);
    }
}

/// `n` idle round trips of a one-identifier `ALLOC` over loopback TCP,
/// one span each.
///
/// # Errors
///
/// Returns server start, connect and request errors.
pub fn tcp_round_trips(seed: u64, shards: u16, n: u64, tracer: &mut Tracer) -> std::io::Result<()> {
    let mut config = ServiceConfig::new(seed);
    config.shards = shards;
    let server = Server::start(&config, "127.0.0.1:0")?;
    let mut client = TcpClient::connect(server.addr())?;
    let domains = owned_domains(shards, 0, 1);
    for i in 0..n {
        let d = domains[i as usize % domains.len()];
        let req = Request::Alloc {
            shard: d.shard,
            strategy: d.strategy,
            count: 1,
        };
        let reply = tracer.span(TCP_SPAN, i, || client.request(&req))?;
        if !matches!(reply, Reply::Ids(ref ids) if ids.len() == 1) {
            return Err(std::io::Error::other(format!("unexpected reply {reply:?}")));
        }
    }
    drop(client);
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_times;

    #[test]
    fn replay_spans_every_kind_and_nests_codec_under_requests() {
        let mut tracer = Tracer::new();
        let stats = replay(3, 2, 3_000, &mut tracer);
        let times = self_times(tracer.spans());
        for k in 0..4 {
            let requests = times[REQUEST_SPANS[k]].calls;
            assert!(requests > 0, "{}", REQUEST_SPANS[k]);
            assert_eq!(times[CODEC_SPANS[k]].calls, 4 * requests);
            assert_eq!(times[HANDLE_SPANS[k]].calls, requests);
        }
        assert_eq!(stats.len(), 10);
        assert!(stats.iter().all(|s| s.minted >= KEEP_LIVE as u64));
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let a = replay(8, 2, 1_000, &mut Tracer::new());
        let b = replay(8, 2, 1_000, &mut Tracer::new());
        assert_eq!(a, b);
    }
}
