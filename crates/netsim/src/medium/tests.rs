use super::*;
use crate::frame::FramePayload;
use crate::topology::Position;

/// A frame from `src` whose payload is the full `u32` id,
/// little-endian: `src as u8` would alias every node id >= 256 onto
/// the same probe payload.
fn probe(src: u32) -> Frame {
    Frame::new(
        NodeId(src),
        FramePayload::from_bytes(src.to_le_bytes().to_vec()).unwrap(),
    )
}

/// An air view over a fixed topology, driven by hand: tests publish
/// transmissions over explicit microsecond intervals, then judge,
/// carrier-sense and prune them without running an engine.
struct AirScript {
    air: AirView,
    topo: Topology,
}

impl AirScript {
    fn new(topo: Topology) -> Self {
        let mut air = AirView::default();
        for _ in topo.node_ids() {
            air.add_node();
        }
        AirScript { air, topo }
    }

    /// Publishes a probe transmission of `sender` over
    /// `[start, end)` µs the way the epoch barrier does; returns its
    /// sequence number.
    fn tx(&mut self, sender: NodeId, start: u64, end: u64) -> u64 {
        let seq = self.air.base_seq + self.air.records.len() as u64;
        self.air.insert(AirRecord {
            seq,
            sender,
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
            bits_on_air: 8,
            frame: probe(sender.0),
            cell: self.topo.cell(sender),
            ended: false,
        });
        seq
    }

    /// Runs the MAC `TxEnd` of transmission `seq`.
    fn end(&mut self, seq: u64) {
        self.air.mark_ended(seq);
    }

    /// `receiver`'s verdict on `seq` on a lossless radio: `Ok` for a
    /// delivery, else the loss reason.
    fn verdict(&self, seq: u64, receiver: NodeId) -> Result<(), LossReason> {
        self.judge(seq, receiver, 0.9, 0.0)
    }

    /// `receiver`'s verdict on `seq` when the random-loss draw is
    /// `loss_draw` and the radio drops frames with probability
    /// `frame_loss`.
    fn judge(
        &self,
        seq: u64,
        receiver: NodeId,
        loss_draw: f64,
        frame_loss: f64,
    ) -> Result<(), LossReason> {
        let cell = self.topo.cell(receiver);
        let mut interferers = Vec::new();
        self.air
            .gather_interferers(seq, cell, cell, &mut interferers);
        let verdict = self.air.judge(
            seq,
            receiver,
            cell,
            &interferers,
            loss_draw < frame_loss,
            &self.topo,
        );
        match verdict {
            Verdict::Delivered => Ok(()),
            Verdict::Failed(reason) => Err(reason),
        }
    }

    /// CSMA carrier sense of `listener` at `now` µs.
    fn busy_for(&self, listener: NodeId, now: u64) -> bool {
        self.air
            .busy_for(listener, SimTime::from_micros(now), &self.topo)
    }

    /// Drops the records that ended before `horizon` µs.
    fn prune(&mut self, horizon: u64) {
        self.air.prune(SimTime::from_micros(horizon));
    }

    /// How many records the view retains.
    fn retained(&self) -> usize {
        self.air.records.len()
    }

    /// The sender and frame of retained record `seq`.
    fn record(&self, seq: u64) -> Option<(NodeId, &Frame)> {
        self.air
            .get(seq)
            .map(|record| (record.sender, &record.frame))
    }
}

/// Reference RF-collision test: the per-receiver scan of the 3×3
/// cells around `receiver` that the engine's gather-and-filter
/// replaced. Whether any foreign transmission audible at `receiver`
/// overlaps `[start, end)` other than `exclude_seq`.
fn reference_interference_at(
    air: &AirView,
    receiver: NodeId,
    start: SimTime,
    end: SimTime,
    exclude_seq: u64,
    topology: &Topology,
) -> bool {
    let (cx, cy) = topology.cell(receiver);
    (-1..=1).any(|dx| {
        (-1..=1).any(|dy| {
            air.cells.get(&(cx + dx, cy + dy)).is_some_and(|seqs| {
                seqs.iter().any(|&seq| {
                    let record = air.get(seq).expect("indexed record retained");
                    seq != exclude_seq
                        && record.sender != receiver
                        && record.overlaps(start, end)
                        && topology.in_range(record.sender, receiver)
                })
            })
        })
    })
}

/// Reference carrier sense: the scan of the 3×3 cells around
/// `listener` that the engine's neighbor walk replaced (without the
/// per-cell on-air counts, which only cut the scan short).
fn reference_busy_for(air: &AirView, listener: NodeId, now: SimTime, topology: &Topology) -> bool {
    let (cx, cy) = topology.cell(listener);
    (-1..=1).any(|dx| {
        (-1..=1).any(|dy| {
            air.cells.get(&(cx + dx, cy + dy)).is_some_and(|seqs| {
                seqs.iter().any(|&seq| {
                    let record = air.get(seq).expect("indexed record retained");
                    !record.ended
                        && record.sender != listener
                        && record.start <= now
                        && record.end > now
                        && topology.in_range(record.sender, listener)
                })
            })
        })
    })
}

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

#[test]
fn on_air_counts_follow_insert_end_and_prune() {
    let (topo, (a, r, b)) = Topology::hidden_terminal(100.0);
    let mut script = AirScript::new(topo);
    let sa = script.tx(a, 0, 100);
    let _sb = script.tx(b, 10, 110);
    assert_eq!(script.air.on_air, 2);
    script.end(sa);
    assert_eq!(script.air.on_air, 1);
    // a has nothing left on the air; b still does.
    assert!(!script.busy_for(b, 50));
    assert!(script.busy_for(r, 50));
    // Pruning an un-ended record releases its count too.
    script.prune(500);
    assert!(script.air.cells.is_empty(), "every record pruned");
    assert_eq!(script.air.on_air, 0);
    assert!(!script.busy_for(r, 50));
}

mod air_queries {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random air history.
    #[derive(Debug, Clone)]
    enum Step {
        /// `sender` transmits over `[start, start + len)` µs.
        Tx { sender: usize, start: u64, len: u64 },
        /// The MAC `TxEnd` of the `pick`-th retained un-ended record.
        End { pick: usize },
        /// `node` relocates (its records stay in their origin cells).
        Move { node: usize, x: f64, y: f64 },
        /// `node` dies or is revived.
        SetAlive { node: usize, alive: bool },
    }

    /// Four in seven steps transmit; the rest end, move or churn.
    fn step(nodes: usize, extent: f64) -> impl Strategy<Value = Step> {
        (
            0u8..7,
            0..nodes,
            (0u64..400, 1u64..200),
            (0.0..extent, 0.0..extent),
            0usize..64,
        )
            .prop_map(|(kind, node, (start, len), (x, y), pick)| match kind {
                0..=3 => Step::Tx {
                    sender: node,
                    start,
                    len,
                },
                4 => Step::End { pick },
                5 => Step::Move { node, x, y },
                _ => Step::SetAlive {
                    node,
                    alive: pick % 2 == 0,
                },
            })
    }

    fn scenario() -> impl Strategy<Value = (Vec<(f64, f64)>, Vec<Step>)> {
        // Range 50 on a 4×4-cell field: most nodes have neighbors,
        // many do not, and cell boundaries are everywhere.
        (2usize..12).prop_flat_map(|n| {
            (
                proptest::collection::vec((0.0..200.0f64, 0.0..200.0f64), n),
                proptest::collection::vec(step(n, 200.0), 1..40),
            )
        })
    }

    fn replay(positions: &[(f64, f64)], steps: &[Step]) -> AirScript {
        let mut topo = Topology::new(50.0);
        for &(x, y) in positions {
            topo.add(Position::new(x, y));
        }
        let mut script = AirScript::new(topo);
        for step in steps {
            match *step {
                Step::Tx { sender, start, len } => {
                    script.tx(NodeId(sender as u32), start, start + len);
                }
                Step::End { pick } => {
                    let open: Vec<u64> = script
                        .air
                        .records
                        .iter()
                        .filter(|record| !record.ended)
                        .map(|record| record.seq)
                        .collect();
                    if !open.is_empty() {
                        script.end(open[pick % open.len()]);
                    }
                }
                Step::Move { node, x, y } => {
                    script
                        .topo
                        .set_position(NodeId(node as u32), Position::new(x, y));
                }
                Step::SetAlive { node, alive } => {
                    script.topo.set_alive(NodeId(node as u32), alive);
                }
            }
        }
        script
    }

    // The default config runs 256 cases and honours
    // `PROPTEST_CASES`, which CI raises to widen this sweep.
    proptest! {
        /// The gather-and-filter interference verdict, for a box
        /// spanning every node (a delivery's receivers) and for the
        /// sender's own cell (DFA feedback), and the neighbor-walk
        /// carrier sense agree with the 3×3 cell scans they replaced
        /// for every record, receiver and instant.
        #[test]
        fn air_queries_match_the_cell_scans(case in scenario()) {
            let script = replay(&case.0, &case.1);
            let (air, topo) = (&script.air, &script.topo);
            let nodes: Vec<(NodeId, Cell)> = topo
                .node_ids()
                .map(|id| (id, topo.cell(id)))
                .collect();
            let xs = || nodes.iter().map(|&(_, cell)| cell.0);
            let ys = || nodes.iter().map(|&(_, cell)| cell.1);
            let lo = (xs().min().unwrap(), ys().min().unwrap());
            let hi = (xs().max().unwrap(), ys().max().unwrap());
            let mut gathered = Vec::new();
            let mut own = Vec::new();
            for record in &air.records {
                let (seq, start, end) = (record.seq, record.start, record.end);
                air.gather_interferers(seq, lo, hi, &mut gathered);
                for &(receiver, cell) in &nodes {
                    let want =
                        reference_interference_at(air, receiver, start, end, seq, topo);
                    prop_assert_eq!(
                        interferes(&gathered, receiver, cell, topo),
                        want,
                        "record {} at receiver {}", seq, receiver
                    );
                    air.gather_interferers(seq, cell, cell, &mut own);
                    prop_assert_eq!(interferes(&own, receiver, cell, topo), want);
                }
            }
            let mut instants: Vec<u64> = air
                .records
                .iter()
                .flat_map(|r| {
                    let (s, e) = (r.start.as_micros(), r.end.as_micros());
                    [s.saturating_sub(1), s, s + 1, e.saturating_sub(1), e, e + 1]
                })
                .collect();
            instants.sort_unstable();
            instants.dedup();
            for now in instants {
                let now = SimTime::from_micros(now);
                for &(listener, _) in &nodes {
                    prop_assert_eq!(
                        air.busy_for(listener, now, topo),
                        reference_busy_for(air, listener, now, topo),
                        "listener {} at {}", listener, now
                    );
                }
            }
        }
    }
}
