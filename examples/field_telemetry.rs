//! Field telemetry with the embeddable `AffService` API.
//!
//! Shows the composition pattern a downstream application uses: the
//! application protocol owns an [`retri_aff::AffService`] endpoint,
//! calls `send` for outgoing telemetry records of *varying* sizes, and
//! drains `poll_delivered` for incoming ones — no addresses, no
//! allocation, no configuration.
//!
//! Run with: `cargo run --release -p retri-examples --bin field_telemetry`

use rand::Rng;
use retri::IdentifierSpace;
use retri_aff::service::AffService;
use retri_aff::{SelectorPolicy, WireConfig};
use retri_netsim::prelude::*;
use retri_netsim::topology::Topology;

const TIMER_REPORT: u64 = 1;

/// A field station: periodically sends a telemetry record (40–200
/// bytes) and logs every record it hears.
struct Station {
    aff: AffService,
    records_sent: u64,
    records_heard: u64,
    bytes_heard: u64,
}

impl Station {
    fn new() -> Self {
        let wire = WireConfig::aff(IdentifierSpace::new(8).expect("8-bit identifiers"));
        Station {
            aff: AffService::new(wire, 27, SelectorPolicy::Listening { window: 12 })
                .expect("wire fits the radio"),
            records_sent: 0,
            records_heard: 0,
            bytes_heard: 0,
        }
    }
}

impl Protocol for Station {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let jitter = ctx.rng().gen_range(0..500_000);
        ctx.set_timer(SimDuration::from_micros(jitter), TIMER_REPORT);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        self.aff.handle_frame(ctx, frame);
        while let Some(record) = self.aff.poll_delivered() {
            self.records_heard += 1;
            self.bytes_heard += record.len() as u64;
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        if timer.token != TIMER_REPORT {
            return;
        }
        // A telemetry record of random size: GPS fix, battery curve,
        // event log — whatever the mission produces.
        let size = ctx.rng().gen_range(40..=200);
        let mut record = vec![0u8; size];
        ctx.rng().fill(&mut record[..]);
        self.aff.send(ctx, &record).expect("valid record size");
        self.records_sent += 1;
        let period = SimDuration::from_millis(ctx.rng().gen_range(700..1300));
        ctx.set_timer(period, TIMER_REPORT);
    }
}

fn main() {
    const STATIONS: usize = 6;
    let mut sim = ShardedSimBuilder::new(0xF1E1D)
        .radio(RadioConfig::radiometrix_rpc())
        .mac(MacConfig::csma())
        .range(150.0)
        .build(|_| Station::new());
    let topo = Topology::full_mesh(STATIONS, 150.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.run_until(SimTime::from_secs(60));

    println!("field telemetry: {STATIONS} stations, variable-size records, 60 s\n");
    println!("station  sent  heard  bytes heard  checksum failures");
    for id in sim.node_ids() {
        let station = sim.protocol(id);
        println!(
            "  n{:<5} {:>5} {:>6} {:>12} {:>10}",
            id.index(),
            station.records_sent,
            station.records_heard,
            station.bytes_heard,
            station.aff.reassembly_stats().checksum_failures,
        );
    }
    let sent: u64 = sim.node_ids().map(|id| sim.protocol(id).records_sent).sum();
    let heard: u64 = sim
        .node_ids()
        .map(|id| sim.protocol(id).records_heard)
        .sum();
    println!(
        "\n{} records broadcast; {} receptions across the mesh \
         ({:.1} receivers per record on average)",
        sent,
        heard,
        heard as f64 / sent as f64
    );
    println!("{}", sim.stats());
}
