//! Micro-benchmarks of the hot paths: identifier selection, bit-level
//! wire encode/decode, CRC, fragmentation/reassembly, and raw simulator
//! event throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use retri::select::{IdSelector, ListeningSelector, UniformSelector};
use retri::IdentifierSpace;
use retri_aff::crc::crc16;
use retri_aff::reassembly::Reassembler;
use retri_aff::wire::WireConfig;
use retri_aff::Fragmenter;

fn bench_selectors(c: &mut Criterion) {
    let space = IdentifierSpace::new(9).expect("valid width");
    let mut group = c.benchmark_group("select");
    group.bench_function("uniform", |b| {
        let mut selector = UniformSelector::new(space);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(selector.select(&mut rng)));
    });
    group.bench_function("listening_window10", |b| {
        let mut selector = ListeningSelector::new(space, 10);
        let mut rng = StdRng::seed_from_u64(2);
        // Keep the window populated as a real sender would.
        b.iter(|| {
            let id = selector.select(&mut rng);
            selector.observe(id);
            black_box(id)
        });
    });
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let packet: Vec<u8> = (0..80u8).collect();
    let mut group = c.benchmark_group("crc16");
    group.throughput(Throughput::Bytes(packet.len() as u64));
    group.bench_function("80_bytes", |b| b.iter(|| black_box(crc16(&packet))));
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let space = IdentifierSpace::new(9).expect("valid width");
    let wire = WireConfig::aff(space);
    let key = space.id(0x155).expect("fits");
    let fragment = retri_aff::Fragment::Data {
        key,
        offset: 22,
        payload: vec![0xA5; 20],
        truth: None,
    };
    let encoded = wire.encode(&fragment).expect("encodes");
    let mut group = c.benchmark_group("wire");
    group.bench_function("encode_data", |b| {
        b.iter(|| black_box(wire.encode(&fragment).expect("encodes")));
    });
    group.bench_function("decode_data", |b| {
        b.iter(|| black_box(wire.decode(&encoded).expect("decodes")));
    });
    group.finish();
}

fn bench_frag_reassemble(c: &mut Criterion) {
    let space = IdentifierSpace::new(8).expect("valid width");
    let wire = WireConfig::aff(space);
    let fragmenter = Fragmenter::new(wire.clone(), 27).expect("fits");
    let packet: Vec<u8> = (0..80u8).collect();
    let key = space.id(0x42).expect("fits");
    let mut group = c.benchmark_group("fragmentation");
    group.throughput(Throughput::Bytes(packet.len() as u64));
    group.bench_function("fragment_80B", |b| {
        b.iter(|| black_box(fragmenter.fragment(&packet, key, None).expect("fragments")));
    });
    group.bench_function("round_trip_80B", |b| {
        let payloads = fragmenter.fragment(&packet, key, None).expect("fragments");
        b.iter(|| {
            let mut reassembler = Reassembler::new(wire.clone(), u64::MAX / 2);
            let mut out = None;
            for payload in &payloads {
                if let Some(p) = reassembler.accept_payload(payload, 0).expect("parses") {
                    out = Some(p);
                }
            }
            black_box(out)
        });
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use retri_netsim::prelude::*;
    struct Ping;
    impl Protocol for Ping {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
            let _ = ctx.send(FramePayload::from_bytes(vec![0; 8]).expect("non-empty"));
            ctx.set_timer(SimDuration::from_millis(50), 0);
        }
    }
    c.bench_function("simulator_10_nodes_1s", |b| {
        b.iter(|| {
            let mut sim = ShardedSimBuilder::new(7).build(|_| Ping);
            let topo = retri_netsim::topology::Topology::full_mesh(10, 100.0);
            for id in topo.node_ids() {
                sim.add_node_at(topo.position(id));
            }
            sim.run_until(SimTime::from_secs(1));
            black_box(sim.stats())
        });
    });
}

criterion_group!(
    benches,
    bench_selectors,
    bench_crc,
    bench_wire,
    bench_frag_reassemble,
    bench_simulator
);
criterion_main!(benches);
