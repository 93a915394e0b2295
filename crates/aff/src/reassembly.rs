//! Reassembling fragments into packets.
//!
//! The receiver keeps one buffer per reassembly key. A packet is
//! delivered when the introduction has arrived, every byte of
//! `0..total_len` is covered, and the CRC verifies. Everything else —
//! missing fragments, interleaved fragments from an identifier
//! collision, conflicting introductions — ends in silence or a checksum
//! failure, exactly as the paper describes: *"Packets that suffer from
//! identifier collisions are never delivered because of checksum
//! failures or other inconsistencies."*
//!
//! Two kinds of inconsistency expose a collision before any checksum
//! runs, and both are handled newest-wins:
//!
//! - a second introduction for a key that disagrees with the first on
//!   length or checksum ([`ReassemblyStats::conflicting_intros`]);
//! - a byte range that contradicts the introduced packet length —
//!   a data fragment past the declared end of packet, or an
//!   introduction shorter than data already buffered
//!   ([`ReassemblyStats::bounds_conflicts`]). Accepting such bytes
//!   would leave delivery gated only by the 16-bit checksum against a
//!   buffer known to contain another sender's data.

use std::collections::HashMap;

use retri::TransactionId;
use retri_netsim::FramePayload;

use crate::crc::crc16;
use crate::wire::{Fragment, WireConfig, WireError};

/// Counters kept by a [`Reassembler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ReassemblyStats {
    /// Packets delivered with a verified checksum.
    pub delivered: u64,
    /// Reassemblies that completed but failed the checksum (the
    /// signature of an identifier collision).
    pub checksum_failures: u64,
    /// Reassemblies evicted incomplete after the timeout.
    pub expired: u64,
    /// Fragments accepted into buffers.
    pub fragments_accepted: u64,
    /// Fragments that merely re-covered bytes already present.
    pub duplicate_fragments: u64,
    /// Introductions that contradicted an existing introduction for the
    /// same key (a visible identifier conflict; newest wins).
    pub conflicting_intros: u64,
    /// Fragments whose byte range contradicted the introduced packet
    /// length — data past the declared end of packet, or an introduction
    /// shorter than data already buffered. Like a conflicting
    /// introduction, this can only happen when two senders share the
    /// key (the paper's "other inconsistencies"); newest wins.
    pub bounds_conflicts: u64,
    /// Fragments whose reassembly completed and verified (fate:
    /// delivered).
    pub fragments_delivered: u64,
    /// Fragments whose reassembly completed but failed the CRC-16
    /// (fate: rejected with the collided packet).
    pub fragments_checksum_rejected: u64,
    /// Fragments discarded when a conflicting introduction or bounds
    /// conflict restarted their reassembly newest-wins (fate:
    /// conflicted).
    pub fragments_conflict_discarded: u64,
    /// Fragments in reassemblies evicted by the timeout (fate:
    /// expired/stranded).
    pub fragments_expired: u64,
}

impl ReassemblyStats {
    /// Identifier conflicts made visible by any inconsistency:
    /// contradicting introductions plus out-of-bounds fragments.
    #[must_use]
    pub fn identifier_conflicts(&self) -> u64 {
        self.conflicting_intros + self.bounds_conflicts
    }

    /// Accepted fragments already assigned a terminal fate: the
    /// reference side of the conservation identity the tests check.
    #[cfg(test)]
    pub(crate) fn fragments_resolved(&self) -> u64 {
        self.fragments_delivered
            + self.fragments_checksum_rejected
            + self.fragments_conflict_discarded
            + self.fragments_expired
    }
}

#[derive(Debug)]
struct Pending {
    total_len: Option<u16>,
    checksum: Option<u16>,
    buffer: Vec<u8>,
    covered: Vec<bool>,
    last_heard: u64,
    /// Fragments accepted into this incarnation of the buffer; credited
    /// to exactly one fate counter when the buffer resolves.
    fragments: u64,
}

impl Pending {
    fn new(now: u64) -> Self {
        Pending {
            total_len: None,
            checksum: None,
            buffer: Vec::new(),
            covered: Vec::new(),
            last_heard: now,
            fragments: 0,
        }
    }

    fn ensure_len(&mut self, len: usize) {
        if self.buffer.len() < len {
            self.buffer.resize(len, 0);
            self.covered.resize(len, false);
        }
    }

    fn is_complete(&self) -> bool {
        match self.total_len {
            Some(total) => {
                self.covered.len() >= total as usize
                    && self.covered[..total as usize].iter().all(|&c| c)
            }
            None => false,
        }
    }
}

/// Reassembles fragments into packets, keyed by transaction identifier.
///
/// Works identically for AFF keys and for static `(address, sequence)`
/// keys, since [`WireConfig::space`] folds both into [`TransactionId`]s.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use retri::IdentifierSpace;
/// use retri_aff::frag::Fragmenter;
/// use retri_aff::reassembly::Reassembler;
/// use retri_aff::wire::WireConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = IdentifierSpace::new(8)?;
/// let wire = WireConfig::aff(space);
/// let fragmenter = Fragmenter::new(wire.clone(), 27)?;
/// let mut reassembler = Reassembler::new(wire, 1_000_000);
///
/// let id = space.sample(&mut StdRng::seed_from_u64(2));
/// let packet = vec![7u8; 50];
/// let mut delivered = None;
/// for payload in fragmenter.fragment(&packet, id, None)? {
///     if let Some(out) = reassembler.accept_payload(&payload, 0)? {
///         delivered = Some(out);
///     }
/// }
/// assert_eq!(delivered, Some(packet));
/// assert_eq!(reassembler.stats().delivered, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reassembler {
    wire: WireConfig,
    ttl: u64,
    pending: HashMap<TransactionId, Pending>,
    stats: ReassemblyStats,
}

impl Reassembler {
    /// Creates a reassembler whose incomplete buffers expire `ttl` time
    /// units after their last fragment.
    #[must_use]
    pub fn new(wire: WireConfig, ttl: u64) -> Self {
        Reassembler {
            wire,
            ttl,
            pending: HashMap::new(),
            stats: ReassemblyStats::default(),
        }
    }

    /// The wire format fragments are decoded with.
    pub(crate) fn wire(&self) -> &WireConfig {
        &self.wire
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// Reassemblies currently in progress.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Fragments sitting in incomplete buffers: every accepted fragment
    /// not yet delivered, checksum-rejected, conflict-discarded or
    /// expired.
    #[must_use]
    pub fn pending_fragments(&self) -> u64 {
        self.pending.values().map(|entry| entry.fragments).sum()
    }

    /// Bytes currently allocated across pending reassembly buffers.
    #[must_use]
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.pending.values().map(|entry| entry.buffer.len()).sum()
    }

    /// Decodes a frame payload and feeds it in.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] if the payload does not parse; parse
    /// failures do not disturb reassembly state.
    pub fn accept_payload(
        &mut self,
        payload: &FramePayload,
        now: u64,
    ) -> Result<Option<Vec<u8>>, WireError> {
        let fragment = self.wire.decode(payload)?;
        Ok(self.accept(&fragment, now))
    }

    /// Feeds one decoded fragment; returns a completed, checksum-valid
    /// packet if this fragment finished one. Collision notifications
    /// carry no reassembly state and are ignored here — they are sender
    /// signals, handled by the endpoints' shared hear rule
    /// ([`crate::service::AffService::handle_frame`]).
    pub fn accept(&mut self, fragment: &Fragment, now: u64) -> Option<Vec<u8>> {
        self.expire(now);
        if matches!(fragment, Fragment::Notify { .. }) {
            return None;
        }
        let key = fragment.key();
        let entry = self.pending.entry(key).or_insert_with(|| Pending::new(now));
        entry.last_heard = now;
        self.stats.fragments_accepted += 1;
        match fragment {
            Fragment::Intro {
                total_len,
                checksum,
                ..
            } => {
                let conflicting = matches!(
                    (entry.total_len, entry.checksum),
                    (Some(len), Some(sum)) if len != *total_len || sum != *checksum
                );
                // Data already buffered past this introduction's end of
                // packet must belong to a different sender on the same
                // key — the checksum cannot vouch for any of it.
                let oversized = entry
                    .covered
                    .get(usize::from(*total_len)..)
                    .is_some_and(|tail| tail.iter().any(|&covered| covered));
                if conflicting {
                    // An identifier conflict made visible: a different
                    // packet is claiming this key. Newest wins; the old
                    // reassembly is lost.
                    self.stats.conflicting_intros += 1;
                    self.stats.fragments_conflict_discarded += entry.fragments;
                    *entry = Pending::new(now);
                } else if oversized {
                    self.stats.bounds_conflicts += 1;
                    self.stats.fragments_conflict_discarded += entry.fragments;
                    *entry = Pending::new(now);
                }
                entry.total_len = Some(*total_len);
                entry.checksum = Some(*checksum);
                entry.ensure_len(*total_len as usize);
            }
            Fragment::Data {
                offset, payload, ..
            } => {
                let start = *offset as usize;
                let end = start + payload.len();
                if entry
                    .total_len
                    .is_some_and(|total| end > usize::from(total))
                {
                    // This fragment lies past the introduced end of
                    // packet, so it cannot belong to the introduced
                    // packet: a second sender is using the key. Newest
                    // wins, exactly as for a conflicting introduction —
                    // the introduced reassembly is abandoned rather than
                    // polluted with bytes the checksum cannot vouch for.
                    self.stats.bounds_conflicts += 1;
                    self.stats.fragments_conflict_discarded += entry.fragments;
                    *entry = Pending::new(now);
                }
                entry.ensure_len(end);
                let mut fresh = false;
                for (i, byte) in payload.iter().enumerate() {
                    if !entry.covered[start + i] {
                        fresh = true;
                    }
                    entry.buffer[start + i] = *byte;
                    entry.covered[start + i] = true;
                }
                if !fresh {
                    self.stats.duplicate_fragments += 1;
                }
            }
            Fragment::Notify { .. } => unreachable!("filtered above"),
        }
        // Credited after the conflict checks so a restart-triggering
        // fragment counts toward the incarnation it starts, not the one
        // it destroys.
        entry.fragments += 1;
        if entry.is_complete() {
            let entry = self.pending.remove(&key).expect("entry exists");
            let total = entry.total_len.expect("complete implies intro") as usize;
            let packet = &entry.buffer[..total];
            if crc16(packet) == entry.checksum.expect("complete implies intro") {
                self.stats.delivered += 1;
                self.stats.fragments_delivered += entry.fragments;
                return Some(packet.to_vec());
            }
            self.stats.checksum_failures += 1;
            self.stats.fragments_checksum_rejected += entry.fragments;
        }
        None
    }

    /// Evicts reassemblies idle past the ttl; returns how many.
    pub fn expire(&mut self, now: u64) -> usize {
        let ttl = self.ttl;
        let stats = &mut self.stats;
        let before = self.pending.len();
        self.pending.retain(|_, entry| {
            let keep = now.saturating_sub(entry.last_heard) <= ttl;
            if !keep {
                stats.fragments_expired += entry.fragments;
            }
            keep
        });
        let dropped = before - self.pending.len();
        self.stats.expired += dropped as u64;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::Fragmenter;
    use retri::IdentifierSpace;

    fn setup(bits: u8) -> (Fragmenter, Reassembler) {
        let space = IdentifierSpace::new(bits).unwrap();
        let wire = WireConfig::aff(space);
        (
            Fragmenter::new(wire.clone(), 27).unwrap(),
            Reassembler::new(wire, 1_000_000),
        )
    }

    fn key(f: &Fragmenter, v: u64) -> TransactionId {
        f.wire().space().id(v).unwrap()
    }

    #[test]
    fn in_order_reassembly_delivers() {
        let (f, mut r) = setup(8);
        let packet: Vec<u8> = (0..80).collect();
        let mut delivered = None;
        for payload in f.fragment(&packet, key(&f, 1), None).unwrap() {
            if let Some(out) = r.accept_payload(&payload, 0).unwrap() {
                delivered = Some(out);
            }
        }
        assert_eq!(delivered, Some(packet));
        assert_eq!(r.stats().delivered, 1);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn out_of_order_reassembly_delivers() {
        let (f, mut r) = setup(8);
        let packet: Vec<u8> = (0..80).rev().collect();
        let mut payloads = f.fragment(&packet, key(&f, 2), None).unwrap();
        payloads.reverse(); // intro arrives last
        let mut delivered = None;
        for payload in &payloads {
            if let Some(out) = r.accept_payload(payload, 0).unwrap() {
                delivered = Some(out);
            }
        }
        assert_eq!(delivered, Some(packet));
    }

    #[test]
    fn missing_fragment_never_delivers() {
        let (f, mut r) = setup(8);
        let packet = vec![9u8; 80];
        let payloads = f.fragment(&packet, key(&f, 3), None).unwrap();
        for (i, payload) in payloads.iter().enumerate() {
            if i == 2 {
                continue; // drop one data fragment
            }
            assert_eq!(r.accept_payload(payload, 0).unwrap(), None);
        }
        assert_eq!(r.stats().delivered, 0);
        assert_eq!(r.pending_len(), 1);
    }

    #[test]
    fn duplicates_are_harmless_and_counted() {
        let (f, mut r) = setup(8);
        let packet = vec![4u8; 40];
        let payloads = f.fragment(&packet, key(&f, 4), None).unwrap();
        // intro, d0, d0 again (a retransmission), then the rest.
        let mut order = vec![&payloads[0], &payloads[1], &payloads[1]];
        order.extend(&payloads[2..]);
        let mut delivered = 0;
        for payload in order {
            if r.accept_payload(payload, 0).unwrap().is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 1);
        assert_eq!(r.stats().duplicate_fragments, 1);
    }

    #[test]
    fn interleaved_same_id_packets_fail_checksum() {
        // The collision scenario: two senders picked the same identifier
        // and their fragments interleave at the receiver.
        let (f, mut r) = setup(8);
        let shared = key(&f, 5);
        let packet_a = vec![0xAA; 80];
        let packet_b = vec![0xBB; 80];
        let frags_a = f.fragment(&packet_a, shared, None).unwrap();
        let frags_b = f.fragment(&packet_b, shared, None).unwrap();
        // Interleave: intro A, intro B (same len; CRC differs ->
        // conflicting intro, newest wins), then alternating data.
        let mut delivered = 0;
        let order = [
            &frags_a[0],
            &frags_b[0],
            &frags_a[1],
            &frags_b[2],
            &frags_a[3],
            &frags_b[4],
        ];
        for payload in order {
            if r.accept_payload(payload, 0).unwrap().is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 0, "mixed packets must never be delivered");
        assert!(r.stats().conflicting_intros >= 1);
    }

    #[test]
    fn data_past_introduced_end_restarts_reassembly() {
        let (f, mut r) = setup(8);
        let shared = key(&f, 11);
        let short = vec![0x0B; 30];
        let long = vec![0x0A; 70];
        let frags_short = f.fragment(&short, shared, None).unwrap();
        let frags_long = f.fragment(&long, shared, None).unwrap();
        // Introduce the 30-byte packet, then hear a fragment of the
        // 70-byte one at offset 23 (range 23..46 crosses the declared
        // end). The introduced reassembly must be abandoned, not
        // completed with foreign bytes.
        assert!(r.accept_payload(&frags_short[0], 0).unwrap().is_none());
        assert!(r.accept_payload(&frags_long[2], 0).unwrap().is_none());
        // The short packet's own data can no longer complete it: the
        // introduction was lost in the restart.
        assert!(r.accept_payload(&frags_short[1], 0).unwrap().is_none());
        assert!(r.accept_payload(&frags_short[2], 0).unwrap().is_none());
        assert_eq!(r.stats().delivered, 0);
        assert_eq!(r.stats().bounds_conflicts, 1);
        assert_eq!(r.stats().checksum_failures, 0);
    }

    #[test]
    fn intro_shorter_than_buffered_data_restarts_reassembly() {
        let (f, mut r) = setup(8);
        let shared = key(&f, 12);
        let short = vec![0x0B; 30];
        let long = vec![0x0A; 70];
        let frags_short = f.fragment(&short, shared, None).unwrap();
        let frags_long = f.fragment(&long, shared, None).unwrap();
        // Data of the long packet arrives first (no introduction yet),
        // then the short packet's introduction claims total_len = 30.
        // The buffered bytes at 46..69 contradict it.
        assert!(r.accept_payload(&frags_long[3], 0).unwrap().is_none());
        assert!(r.accept_payload(&frags_short[0], 0).unwrap().is_none());
        assert_eq!(r.stats().bounds_conflicts, 1);
        // The short packet completes cleanly from its own fragments:
        // the stale foreign bytes were dropped with the restart.
        assert!(r.accept_payload(&frags_short[1], 0).unwrap().is_none());
        let out = r.accept_payload(&frags_short[2], 0).unwrap();
        assert_eq!(out, Some(short));
        assert_eq!(r.stats().checksum_failures, 0);
    }

    #[test]
    fn in_bounds_single_sender_never_triggers_bounds_conflicts() {
        let (f, mut r) = setup(8);
        let packet: Vec<u8> = (0..200u8).map(|b| b.wrapping_mul(31)).collect();
        let mut payloads = f.fragment(&packet, key(&f, 13), None).unwrap();
        payloads.reverse(); // worst case: all data before the intro
        let mut delivered = None;
        for payload in &payloads {
            if let Some(out) = r.accept_payload(payload, 0).unwrap() {
                delivered = Some(out);
            }
        }
        assert_eq!(delivered, Some(packet));
        assert_eq!(r.stats().bounds_conflicts, 0);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let (f, mut r) = setup(8);
        let packet = vec![1u8; 50];
        let payloads = f.fragment(&packet, key(&f, 6), None).unwrap();
        // Re-encode the final data fragment with a flipped byte.
        let mut fragments: Vec<Fragment> = payloads
            .iter()
            .map(|p| f.wire().decode(p).unwrap())
            .collect();
        if let Fragment::Data { payload, .. } = fragments.last_mut().unwrap() {
            payload[0] ^= 0xFF;
        }
        let mut delivered = 0;
        for fragment in &fragments {
            if r.accept(fragment, 0).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 0);
        assert_eq!(r.stats().checksum_failures, 1);
        assert_eq!(r.pending_len(), 0, "failed reassembly must be discarded");
    }

    #[test]
    fn timeout_evicts_incomplete_reassemblies() {
        let (f, mut r) = setup(8);
        let payloads = f.fragment(&[7u8; 80], key(&f, 7), None).unwrap();
        let _ = r.accept_payload(&payloads[0], 0).unwrap();
        assert_eq!(r.pending_len(), 1);
        assert_eq!(r.expire(2_000_000), 1);
        assert_eq!(r.stats().expired, 1);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn key_reuse_after_delivery_is_a_fresh_packet() {
        let (f, mut r) = setup(8);
        let shared = key(&f, 8);
        for round in 0..3u8 {
            let packet = vec![round; 30];
            let mut delivered = None;
            for payload in f.fragment(&packet, shared, None).unwrap() {
                if let Some(out) = r.accept_payload(&payload, u64::from(round)).unwrap() {
                    delivered = Some(out);
                }
            }
            assert_eq!(delivered, Some(packet), "round {round}");
        }
        assert_eq!(r.stats().delivered, 3);
    }

    fn assert_conserved(r: &Reassembler) {
        let stats = r.stats();
        assert_eq!(
            stats.fragments_accepted,
            stats.fragments_resolved() + r.pending_fragments(),
            "every accepted fragment must have exactly one fate: {stats:?}"
        );
    }

    #[test]
    fn every_fate_path_conserves_fragments() {
        let (f, mut r) = setup(8);
        // Delivered.
        for payload in f.fragment(&[1u8; 60], key(&f, 20), None).unwrap() {
            let _ = r.accept_payload(&payload, 0).unwrap();
            assert_conserved(&r);
        }
        assert!(r.stats().fragments_delivered > 0);
        // Checksum-rejected: interleave two packets on a shared key so
        // the surviving reassembly completes with foreign bytes.
        let shared = key(&f, 21);
        let frags_a = f.fragment(&[0xAA; 80], shared, None).unwrap();
        let frags_b = f.fragment(&[0xBB; 80], shared, None).unwrap();
        let _ = r.accept_payload(&frags_a[0], 0).unwrap();
        for payload in &frags_b[1..] {
            let _ = r.accept_payload(payload, 0).unwrap();
            assert_conserved(&r);
        }
        assert!(r.stats().fragments_checksum_rejected > 0);
        // Conflict-discarded: a contradicting introduction restarts.
        let shared = key(&f, 22);
        let frags_c = f.fragment(&[0xCC; 40], shared, None).unwrap();
        let frags_d = f.fragment(&[0xDD; 80], shared, None).unwrap();
        let _ = r.accept_payload(&frags_c[0], 0).unwrap();
        let _ = r.accept_payload(&frags_c[1], 0).unwrap();
        let _ = r.accept_payload(&frags_d[0], 0).unwrap();
        assert_conserved(&r);
        assert!(r.stats().fragments_conflict_discarded >= 2);
        // Expired: a lone fragment left to time out.
        let _ = r
            .accept_payload(&f.fragment(&[0xEE; 80], key(&f, 23), None).unwrap()[1], 0)
            .unwrap();
        r.expire(u64::MAX);
        assert_conserved(&r);
        assert!(r.stats().fragments_expired > 0);
        assert_eq!(r.pending_fragments(), 0);
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn restarting_fragment_belongs_to_the_new_incarnation() {
        let (f, mut r) = setup(8);
        let shared = key(&f, 24);
        let frags_a = f.fragment(&[0x11; 40], shared, None).unwrap();
        let frags_b = f.fragment(&[0x22; 40], shared, None).unwrap();
        let _ = r.accept_payload(&frags_a[0], 0).unwrap();
        let _ = r.accept_payload(&frags_b[0], 0).unwrap(); // restart
        assert_eq!(r.stats().fragments_conflict_discarded, 1);
        // The conflicting intro itself survives into the new buffer.
        assert_eq!(r.pending_fragments(), 1);
        assert_conserved(&r);
    }

    #[test]
    fn undecodable_payload_is_an_error_without_state_change() {
        let (_, mut r) = setup(8);
        let junk = FramePayload::from_bits(vec![0xFF], 3).unwrap();
        assert!(r.accept_payload(&junk, 0).is_err());
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.stats().fragments_accepted, 0);
    }
}
