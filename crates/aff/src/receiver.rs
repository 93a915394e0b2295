//! The receiving side, with the paper's Section 5.1 instrumentation.
//!
//! An [`AffReceiver`] runs two reassembly pipelines over the same
//! fragment stream:
//!
//! 1. **AFF-only** — keyed by the ephemeral identifier, exactly what a
//!    production receiver would do. Identifier collisions interleave
//!    fragments and the checksum rejects the result.
//! 2. **Ground truth** — keyed by the simulator's knowledge of which
//!    node physically sent each frame (the stand-in for the paper's
//!    "globally unique identifier" carried by the instrumented driver).
//!    This pipeline is immune to identifier collisions.
//!
//! The difference between the two delivery counts is precisely "the
//! number of packets that would have been lost due to AFF identifier
//! collisions if the unique ID had not been present" — the paper's
//! measured collision rate (Figure 4).
//!
//! The AFF-only pipeline is the shared receive rule of
//! [`crate::service::AffService`], collision notifications included.

use std::collections::HashMap;

use retri_netsim::{Context, Frame, NodeId, Protocol, Timer};

use crate::crc::crc16;
use crate::endpoint::Inbox;
use crate::reassembly::{Reassembler, ReassemblyStats};
use crate::wire::{Fragment, WireConfig};

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ReceiverStats {
    /// Packets delivered by the ground-truth pipeline (immune to
    /// identifier collisions).
    pub truth_delivered: u64,
    /// Frames that failed to parse as fragments.
    pub decode_errors: u64,
    /// Ground-truth assemblies completed but rejected by the CRC-16 —
    /// proof of bit corruption surviving parse (only the fault channel
    /// can cause this; RF collisions lose whole frames).
    pub truth_crc_rejections: u64,
    /// Collision notifications broadcast (Section 3.2 mechanism; only
    /// nonzero on wires built with notifications enabled).
    pub notifications_sent: u64,
    /// Frames that parsed as fragments (notifications included), so
    /// every frame handed to the receiver is either a decode error or a
    /// parsed fragment: `frames == decode_errors + fragments_parsed`.
    pub fragments_parsed: u64,
}

/// Streaming per-source reassembly: sound because each sender's
/// fragments arrive in order (FIFO radio queue), so an introduction
/// delimits its packet.
#[derive(Debug)]
struct TruthAssembly {
    total_len: u16,
    checksum: u16,
    buffer: Vec<u8>,
    covered: Vec<bool>,
}

impl TruthAssembly {
    fn is_complete(&self) -> bool {
        self.covered[..self.total_len as usize].iter().all(|&c| c)
    }
}

/// The designated receiver of the paper's testbed.
#[derive(Debug)]
pub struct AffReceiver {
    aff: Inbox,
    truth: HashMap<NodeId, TruthAssembly>,
    stats: ReceiverStats,
}

impl AffReceiver {
    /// Creates a receiver whose incomplete AFF reassemblies expire after
    /// `reassembly_ttl_micros` of inactivity.
    #[must_use]
    pub fn new(wire: WireConfig, reassembly_ttl_micros: u64) -> Self {
        AffReceiver {
            aff: Inbox::new(wire, reassembly_ttl_micros),
            truth: HashMap::new(),
            stats: ReceiverStats::default(),
        }
    }

    /// The AFF reassembler (read-only), for occupancy and conservation
    /// audits.
    #[must_use]
    pub fn reassembler(&self) -> &Reassembler {
        self.aff.reassembler()
    }

    /// Counters of the ground-truth pipeline and the decoder.
    #[must_use]
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Counters of the AFF-only pipeline.
    #[must_use]
    pub fn aff_stats(&self) -> ReassemblyStats {
        self.reassembler().stats()
    }

    /// Packets the AFF-only pipeline delivered.
    #[must_use]
    pub fn aff_delivered(&self) -> u64 {
        self.aff_stats().delivered
    }

    /// Packets the ground-truth pipeline delivered.
    #[must_use]
    pub fn truth_delivered(&self) -> u64 {
        self.stats.truth_delivered
    }

    /// The measured identifier-collision loss rate (Figure 4's y-axis):
    /// the fraction of packets that arrived intact under ground truth
    /// but were lost to AFF identifier collisions.
    ///
    /// Returns `None` until at least one ground-truth packet arrives.
    #[must_use]
    pub fn collision_loss_rate(&self) -> Option<f64> {
        let truth = self.stats.truth_delivered;
        if truth == 0 {
            return None;
        }
        let aff = self.aff_delivered().min(truth);
        Some(1.0 - aff as f64 / truth as f64)
    }

    fn feed_truth(&mut self, src: NodeId, fragment: &Fragment) {
        match fragment {
            Fragment::Intro {
                total_len,
                checksum,
                ..
            } => {
                // A new introduction delimits the previous (possibly
                // incomplete) packet from this source.
                self.truth.insert(
                    src,
                    TruthAssembly {
                        total_len: *total_len,
                        checksum: *checksum,
                        buffer: vec![0; *total_len as usize],
                        covered: vec![false; *total_len as usize],
                    },
                );
            }
            Fragment::Data {
                offset, payload, ..
            } => {
                let Some(assembly) = self.truth.get_mut(&src) else {
                    return; // introduction was lost
                };
                let start = *offset as usize;
                let end = start + payload.len();
                if end > assembly.buffer.len() {
                    // Inconsistent with the announced length (stale
                    // fragment after a lost intro): drop the assembly.
                    self.truth.remove(&src);
                    return;
                }
                assembly.buffer[start..end].copy_from_slice(payload);
                for covered in &mut assembly.covered[start..end] {
                    *covered = true;
                }
                if assembly.is_complete() {
                    let assembly = self.truth.remove(&src).expect("just updated");
                    if crc16(&assembly.buffer) == assembly.checksum {
                        self.stats.truth_delivered += 1;
                    } else {
                        self.stats.truth_crc_rejections += 1;
                    }
                }
            }
            Fragment::Notify { .. } => {}
        }
    }
}

impl Protocol for AffReceiver {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        match self.aff.wire().decode(&frame.payload) {
            Err(_) => self.stats.decode_errors += 1,
            // Another receiver's notification: nothing to reassemble.
            Ok(Fragment::Notify { .. }) => self.stats.fragments_parsed += 1,
            Ok(fragment) => {
                self.stats.fragments_parsed += 1;
                // Pipeline 1: AFF identifier only.
                let _ = self.aff.receive(ctx, &fragment);
                self.stats.notifications_sent = self.aff.notifications_sent();
                // Pipeline 2: ground truth from the simulator's frame
                // metadata.
                self.feed_truth(frame.src, &fragment);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::Fragmenter;
    use retri::IdentifierSpace;
    use retri_netsim::FramePayload;

    fn receiver(bits: u8) -> (Fragmenter, AffReceiver) {
        let wire = WireConfig::aff(IdentifierSpace::new(bits).unwrap());
        (
            Fragmenter::new(wire.clone(), 27).unwrap(),
            AffReceiver::new(wire, 1_000_000),
        )
    }

    /// Drives on_frame without a full simulator.
    fn deliver(receiver: &mut AffReceiver, src: u32, payload: &FramePayload) {
        let mut harness = retri_netsim::node::ContextHarness::new(0);
        let mut ctx = harness.context(NodeId(99));
        receiver.on_frame(&mut ctx, &Frame::new(NodeId(src), payload.clone()));
    }

    #[test]
    fn both_pipelines_deliver_clean_packets() {
        let (f, mut r) = receiver(8);
        let id = f.wire().space().id(5).unwrap();
        for payload in f.fragment(&[1u8; 80], id, None).unwrap() {
            deliver(&mut r, 0, &payload);
        }
        assert_eq!(r.aff_delivered(), 1);
        assert_eq!(r.truth_delivered(), 1);
        assert_eq!(r.collision_loss_rate(), Some(0.0));
    }

    #[test]
    fn identifier_collision_counted_only_by_aff_pipeline() {
        let (f, mut r) = receiver(8);
        let shared = f.wire().space().id(9).unwrap();
        let a = f.fragment(&[0xAA; 80], shared, None).unwrap();
        let b = f.fragment(&[0xBB; 80], shared, None).unwrap();
        // Interleave the two senders' fragments frame by frame.
        for (pa, pb) in a.iter().zip(b.iter()) {
            deliver(&mut r, 1, pa);
            deliver(&mut r, 2, pb);
        }
        // Ground truth separates the sources; AFF cannot.
        assert_eq!(r.truth_delivered(), 2);
        assert_eq!(r.aff_delivered(), 0);
        assert_eq!(r.collision_loss_rate(), Some(1.0));
    }

    #[test]
    fn distinct_ids_do_not_collide() {
        let (f, mut r) = receiver(8);
        let ia = f.wire().space().id(1).unwrap();
        let ib = f.wire().space().id(2).unwrap();
        let a = f.fragment(&[0xAA; 80], ia, None).unwrap();
        let b = f.fragment(&[0xBB; 80], ib, None).unwrap();
        for (pa, pb) in a.iter().zip(b.iter()) {
            deliver(&mut r, 1, pa);
            deliver(&mut r, 2, pb);
        }
        assert_eq!(r.truth_delivered(), 2);
        assert_eq!(r.aff_delivered(), 2);
        assert_eq!(r.collision_loss_rate(), Some(0.0));
    }

    #[test]
    fn lost_intro_loses_packet_in_both_pipelines() {
        let (f, mut r) = receiver(8);
        let id = f.wire().space().id(3).unwrap();
        let payloads = f.fragment(&[5u8; 80], id, None).unwrap();
        for payload in &payloads[1..] {
            deliver(&mut r, 0, payload);
        }
        assert_eq!(r.truth_delivered(), 0);
        assert_eq!(r.aff_delivered(), 0);
    }

    #[test]
    fn stale_data_after_lost_intro_is_dropped_safely() {
        let (f, mut r) = receiver(8);
        let id = f.wire().space().id(4).unwrap();
        // Packet 1: 80 bytes, intro lost; its tail fragment arrives
        // after packet 2's (short) intro.
        let p1 = f.fragment(&[1u8; 80], id, None).unwrap();
        let p2 = f.fragment(&[2u8; 10], id, None).unwrap();
        deliver(&mut r, 0, &p2[0]); // short intro
        deliver(&mut r, 0, &p1[4]); // stale far-offset data
                                    // The truth assembly for src 0 must have been dropped, not
                                    // panicked; the next complete packet still goes through.
        for payload in f.fragment(&[3u8; 10], id, None).unwrap() {
            deliver(&mut r, 0, &payload);
        }
        assert_eq!(r.truth_delivered(), 1);
    }

    #[test]
    fn corrupted_payload_bytes_are_rejected_by_truth_crc() {
        let (f, mut r) = receiver(8);
        let id = f.wire().space().id(6).unwrap();
        let payloads = f.fragment(&[9u8; 80], id, None).unwrap();
        for (i, payload) in payloads.iter().enumerate() {
            if i == 1 {
                // A structurally valid data fragment carrying wrong
                // bytes — what a surviving bit flip looks like after
                // parse. The CRC-16 must catch it.
                let mut fragment = f.wire().decode(payload).unwrap();
                if let Fragment::Data { payload: bytes, .. } = &mut fragment {
                    bytes[0] ^= 0xFF;
                }
                deliver(&mut r, 0, &f.wire().encode(&fragment).unwrap());
            } else {
                deliver(&mut r, 0, payload);
            }
        }
        assert_eq!(r.truth_delivered(), 0);
        assert_eq!(r.stats().truth_crc_rejections, 1);
    }

    #[test]
    fn undecodable_frames_count_decode_errors() {
        let (_, mut r) = receiver(8);
        let junk = FramePayload::from_bits(vec![0xFF], 2).unwrap();
        deliver(&mut r, 0, &junk);
        assert_eq!(r.stats().decode_errors, 1);
    }

    #[test]
    fn loss_rate_none_before_any_delivery() {
        let (_, r) = receiver(8);
        assert_eq!(r.collision_loss_rate(), None);
    }
}
