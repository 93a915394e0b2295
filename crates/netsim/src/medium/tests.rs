use crate::node::NodeId;
use crate::shard::testkit::{probe, AirScript};
use crate::topology::{Position, Topology};
use crate::trace::LossReason;

/// a --- r --- b with a and b mutually hidden.
fn hidden() -> (AirScript, NodeId, NodeId, NodeId) {
    let (topo, (a, r, b)) = Topology::hidden_terminal(100.0);
    (AirScript::new(topo), a, r, b)
}

#[test]
fn clean_delivery() {
    let (mut air, a, r, _) = hidden();
    let seq = air.tx(a, 0, 100);
    assert_eq!(air.verdict(seq, r), Ok(()));
}

#[test]
fn random_loss_applies_after_collision_checks() {
    let (mut air, a, r, _) = hidden();
    let seq = air.tx(a, 0, 100);
    assert_eq!(air.judge(seq, r, 0.05, 0.1), Err(LossReason::RandomLoss));
    assert_eq!(air.judge(seq, r, 0.5, 0.1), Ok(()));
}

#[test]
fn hidden_terminals_collide_at_receiver() {
    let (mut air, a, r, b) = hidden();
    let sa = air.tx(a, 0, 100);
    let sb = air.tx(b, 50, 150);
    // Both frames are corrupted at r.
    for seq in [sa, sb] {
        assert_eq!(air.verdict(seq, r), Err(LossReason::RfCollision));
    }
}

#[test]
fn non_overlapping_transmissions_do_not_collide() {
    let (mut air, a, r, b) = hidden();
    let sa = air.tx(a, 0, 100);
    let sb = air.tx(b, 150, 250);
    assert_eq!(air.verdict(sa, r), Ok(()));
    assert_eq!(air.verdict(sb, r), Ok(()));
}

#[test]
fn touching_intervals_do_not_overlap() {
    let (mut air, a, r, b) = hidden();
    let sa = air.tx(a, 0, 100);
    let sb = air.tx(b, 100, 200);
    // [0,100) and [100,200) share only the boundary instant.
    assert_eq!(air.verdict(sa, r), Ok(()));
    assert_eq!(air.verdict(sb, r), Ok(()));
}

#[test]
fn out_of_range_interferer_is_harmless() {
    // b transmits at the same time as a, but far outside r's range.
    let mut topo = Topology::new(50.0);
    let a = topo.add(Position::new(0.0, 0.0));
    let r = topo.add(Position::new(40.0, 0.0));
    let b = topo.add(Position::new(500.0, 0.0));
    let mut air = AirScript::new(topo);
    let sa = air.tx(a, 0, 100);
    let _sb = air.tx(b, 0, 100);
    assert_eq!(air.verdict(sa, r), Ok(()));
}

#[test]
fn half_duplex_receiver_misses_frames() {
    let (mut air, a, r, _) = hidden();
    let sa = air.tx(a, 0, 100);
    // r itself transmits during a's frame.
    let _sr = air.tx(r, 20, 60);
    assert_eq!(air.verdict(sa, r), Err(LossReason::HalfDuplex));
}

#[test]
fn long_transmission_still_found_behind_later_short_ones() {
    // A long frame keeps interfering while several later short frames
    // come and go; neither the judgment nor carrier sense may lose it
    // behind them.
    let (mut air, a, r, b) = hidden();
    let _long = air.tx(a, 0, 1000);
    for i in 0..5u64 {
        let short = air.tx(b, 100 + i * 10, 105 + i * 10);
        air.end(short);
    }
    let late = air.tx(b, 900, 950);
    assert_eq!(air.verdict(late, r), Err(LossReason::RfCollision));
    air.end(late);
    assert!(air.busy_for(r, 960));
}

#[test]
fn carrier_sense_hears_in_range_transmissions_only() {
    let (mut air, a, r, b) = hidden();
    let _ = air.tx(a, 0, 100);
    assert!(air.busy_for(r, 50));
    // b cannot hear a: the channel sounds idle — the hidden-terminal
    // precondition.
    assert!(!air.busy_for(b, 50));
    // After the transmission ends the channel is idle for everyone.
    assert!(!air.busy_for(r, 100));
}

#[test]
fn own_transmission_does_not_trip_carrier_sense() {
    let (mut air, a, _, _) = hidden();
    let _ = air.tx(a, 0, 100);
    assert!(!air.busy_for(a, 50));
}

#[test]
fn ended_records_clear_carrier_sense_but_stay_judgeable() {
    let (mut air, a, r, _) = hidden();
    let seq = air.tx(a, 0, 100);
    assert!(air.busy_for(r, 50));
    air.end(seq);
    // Ended records are invisible to carrier sense even before any
    // pruning, whatever the probe time...
    assert!(!air.busy_for(r, 50));
    // ...but still judgeable: a later overlapping frame must still see
    // the collision.
    let other = air.tx(r, 90, 190);
    assert_eq!(air.verdict(other, a), Err(LossReason::HalfDuplex));
}

#[test]
fn prune_discards_stale_records() {
    let (mut air, a, _, b) = hidden();
    air.tx(a, 0, 100);
    air.tx(b, 500, 600);
    air.prune(300);
    assert_eq!(air.retained(), 1);
}

#[test]
fn record_lookup_survives_pruning() {
    let (mut air, a, _, b) = hidden();
    let sa = air.tx(a, 0, 100);
    let sb = air.tx(b, 500, 600);
    air.prune(300);
    assert!(air.record(sa).is_none(), "pruned record must be gone");
    let (sender, frame) = air.record(sb).expect("recent record retained");
    assert_eq!(sender, b);
    assert_eq!(frame.src, b);
}

#[test]
fn probe_payloads_distinguish_wide_node_ids() {
    // Regression: the helper used to truncate the source id to u8, so
    // nodes 255, 256, and 511 all probed with indistinguishable payloads
    // (0xFF, 0x00, 0xFF) and record-attribution bugs for ids >= 256 were
    // invisible to the air-view tests.
    let wide = [255u32, 256, 511];
    let frames: Vec<_> = wide.iter().map(|&id| probe(id)).collect();
    for (i, &id) in wide.iter().enumerate() {
        assert_eq!(frames[i].src, NodeId(id));
        let bytes = frames[i].payload.bytes();
        assert_eq!(
            u32::from_le_bytes(bytes.try_into().unwrap()),
            id,
            "payload must round-trip the full u32 id"
        );
        for j in (i + 1)..wide.len() {
            assert_ne!(
                frames[i].payload, frames[j].payload,
                "ids {} and {} must not alias",
                wide[i], wide[j]
            );
        }
    }
    // End-to-end: a large topology keeps wide ids attributed to the
    // right sender through the air view.
    let mut topo = Topology::new(50.0);
    for i in 0..512u32 {
        topo.add(Position::new(f64::from(i) * 1000.0, 0.0));
    }
    let mut air = AirScript::new(topo);
    let seq = air.tx(NodeId(511), 0, 100);
    let (sender, frame) = air.record(seq).expect("record retained");
    assert_eq!(sender, NodeId(511));
    assert_eq!(frame.src, NodeId(511));
    assert_eq!(
        u32::from_le_bytes(frame.payload.bytes().try_into().unwrap()),
        511
    );
}
