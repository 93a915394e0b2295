//! Property-based tests of the fragmentation pipeline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use retri::IdentifierSpace;
use retri_aff::bitio::{BitReader, BitWriter, ReadPastEndError};
use retri_aff::crc::crc16;
use retri_aff::frag::Fragmenter;
use retri_aff::reassembly::Reassembler;
use retri_aff::wire::{Fragment, Truth, WireConfig};

proptest! {
    /// Wire round trip: every fragment survives encode/decode for every
    /// identifier width and instrumentation setting.
    #[test]
    fn wire_round_trip(
        bits in 1u8..=32,
        key_raw in any::<u64>(),
        offset in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=64),
        total_len in 1u16..=1000,
        checksum in any::<u16>(),
        instrument in any::<bool>(),
        truth_source in any::<u64>(),
        packet_seq in any::<u32>(),
    ) {
        let space = IdentifierSpace::new(bits).unwrap();
        let wire = if instrument {
            WireConfig::aff(space).with_instrumentation()
        } else {
            WireConfig::aff(space)
        };
        let key = space.id(key_raw & space.mask()).unwrap();
        let truth = instrument.then_some(Truth { source: truth_source, packet_seq });
        let intro = Fragment::Intro { key, total_len, checksum, truth };
        let encoded = wire.encode(&intro).unwrap();
        prop_assert_eq!(wire.decode(&encoded).unwrap(), intro);

        let data = Fragment::Data { key, offset, payload, truth };
        let encoded = wire.encode(&data).unwrap();
        prop_assert_eq!(wire.decode(&encoded).unwrap(), data);
    }

    /// Fragment/reassemble round trip in any fragment order: the packet
    /// always comes back intact, exactly once.
    #[test]
    fn fragmentation_round_trip_any_order(
        bits in 2u8..=16,
        packet in proptest::collection::vec(any::<u8>(), 1..400),
        shuffle_seed in any::<u64>(),
        frame_bytes in 12usize..=64,
    ) {
        let space = IdentifierSpace::new(bits).unwrap();
        let wire = WireConfig::aff(space);
        let Ok(fragmenter) = Fragmenter::new(wire.clone(), frame_bytes) else {
            // Headers may not fit tiny frames with wide ids; skip.
            return Ok(());
        };
        let key = space.id(1 & space.mask()).unwrap();
        let mut payloads = fragmenter.fragment(&packet, key, None).unwrap();
        prop_assert!(payloads.iter().all(|p| p.byte_len() <= frame_bytes));
        payloads.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let mut reassembler = Reassembler::new(wire, u64::MAX / 2);
        let mut delivered = Vec::new();
        for payload in &payloads {
            if let Some(out) = reassembler.accept_payload(payload, 0).unwrap() {
                delivered.push(out);
            }
        }
        prop_assert_eq!(delivered.len(), 1);
        prop_assert_eq!(&delivered[0], &packet);
        prop_assert_eq!(reassembler.stats().checksum_failures, 0);
    }

    /// Dropping any single data fragment prevents delivery; dropping
    /// none delivers.
    #[test]
    fn any_single_loss_is_fatal(
        packet in proptest::collection::vec(any::<u8>(), 30..200),
        drop_choice in any::<prop::sample::Index>(),
    ) {
        let space = IdentifierSpace::new(8).unwrap();
        let wire = WireConfig::aff(space);
        let fragmenter = Fragmenter::new(wire.clone(), 27).unwrap();
        let key = space.id(7).unwrap();
        let payloads = fragmenter.fragment(&packet, key, None).unwrap();
        let drop_index = drop_choice.index(payloads.len());
        let mut reassembler = Reassembler::new(wire, u64::MAX / 2);
        let mut delivered = 0;
        for (i, payload) in payloads.iter().enumerate() {
            if i == drop_index {
                continue;
            }
            if reassembler.accept_payload(payload, 0).unwrap().is_some() {
                delivered += 1;
            }
        }
        prop_assert_eq!(delivered, 0, "dropped fragment {} of {}", drop_index, payloads.len());
    }

    /// CRC16 detects any corruption of any packet in at least the
    /// overwhelming majority of random cases (here: always, since the
    /// mutations are single-byte).
    #[test]
    fn crc_detects_single_byte_mutations(
        packet in proptest::collection::vec(any::<u8>(), 1..300),
        index in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut mutated = packet.clone();
        let at = index.index(packet.len());
        mutated[at] ^= xor;
        prop_assert_ne!(crc16(&packet), crc16(&mutated));
    }

    /// Interleaving two different packets under the same key never
    /// delivers a *mixed* packet: anything delivered is bit-identical to
    /// one of the originals. (Both may deliver if the shuffle happens to
    /// serialize them — that is temporal identifier reuse working as
    /// intended.)
    #[test]
    fn same_key_interleaving_never_delivers_a_mix(
        packet_a in proptest::collection::vec(any::<u8>(), 30..120),
        packet_b in proptest::collection::vec(any::<u8>(), 30..120),
        interleave_seed in any::<u64>(),
    ) {
        prop_assume!(packet_a != packet_b);
        let space = IdentifierSpace::new(6).unwrap();
        let wire = WireConfig::aff(space);
        let fragmenter = Fragmenter::new(wire.clone(), 27).unwrap();
        let key = space.id(3).unwrap();
        let mut all: Vec<_> = fragmenter
            .fragment(&packet_a, key, None)
            .unwrap()
            .into_iter()
            .chain(fragmenter.fragment(&packet_b, key, None).unwrap())
            .collect();
        all.shuffle(&mut StdRng::seed_from_u64(interleave_seed));
        let mut reassembler = Reassembler::new(wire, u64::MAX / 2);
        let mut delivered = Vec::new();
        for payload in &all {
            if let Some(out) = reassembler.accept_payload(payload, 0).unwrap() {
                delivered.push(out);
            }
        }
        prop_assert!(delivered.len() <= 2);
        for out in &delivered {
            prop_assert!(out == &packet_a || out == &packet_b, "mixed packet delivered");
        }
    }
}

/// The bit-at-a-time codec the byte-wise [`BitWriter`] and
/// [`BitReader`] must match exactly: one loop step per bit, MSB first.
mod reference {
    use retri_aff::bitio::ReadPastEndError;

    #[derive(Default)]
    pub(crate) struct Writer {
        pub(crate) bytes: Vec<u8>,
        pub(crate) bits: u32,
    }

    impl Writer {
        pub(crate) fn write_bits(&mut self, value: u64, width: u32) {
            for i in (0..width).rev() {
                let bit_index = self.bits % 8;
                if bit_index == 0 {
                    self.bytes.push(0);
                }
                if (value >> i) & 1 == 1 {
                    *self.bytes.last_mut().unwrap() |= 1 << (7 - bit_index);
                }
                self.bits += 1;
            }
        }

        pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.write_bits(u64::from(byte), 8);
            }
        }
    }

    pub(crate) struct Reader<'a> {
        pub(crate) bytes: &'a [u8],
        pub(crate) bit_len: u64,
        pub(crate) cursor: u64,
    }

    impl Reader<'_> {
        pub(crate) fn remaining(&self) -> u64 {
            self.bit_len - self.cursor
        }

        pub(crate) fn read_bits(&mut self, width: u32) -> Result<u64, ReadPastEndError> {
            if u64::from(width) > self.remaining() {
                return Err(ReadPastEndError {
                    wanted: width,
                    available: self.remaining(),
                });
            }
            let mut value = 0u64;
            for _ in 0..width {
                let byte = self.bytes[(self.cursor / 8) as usize];
                value = (value << 1) | u64::from((byte >> (7 - self.cursor % 8)) & 1);
                self.cursor += 1;
            }
            Ok(value)
        }

        pub(crate) fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>, ReadPastEndError> {
            let mut out = Vec::new();
            for _ in 0..len {
                out.push(self.read_bits(8)? as u8);
            }
            Ok(out)
        }
    }
}

/// The low `width` bits of `raw`.
fn fit(raw: u64, width: u32) -> u64 {
    if width == 64 {
        raw
    } else {
        raw & ((1u64 << width) - 1)
    }
}

proptest! {
    /// Bit I/O round trip, checked against the bit-at-a-time reference:
    /// after a lead-in of 0–7 bits (every starting offset), any
    /// `(value, width)` sequence packs to the reference's bytes and bit
    /// length, reads back exactly, and a final over-read fails with the
    /// reference's error.
    #[test]
    fn bitio_round_trip(
        lead in 0u32..=7,
        lead_raw in any::<u64>(),
        fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..40),
        over in 1u32..=64,
    ) {
        let mut writer = BitWriter::new();
        let mut model = reference::Writer::default();
        let mut written = Vec::new();
        if lead > 0 {
            written.push((fit(lead_raw, lead), lead));
        }
        written.extend(fields.iter().map(|&(raw, width)| (fit(raw, width), width)));
        for &(value, width) in &written {
            writer.write_bits(value, width);
            model.write_bits(value, width);
            prop_assert_eq!(writer.bit_len(), model.bits);
        }
        let (bytes, bits) = writer.finish();
        prop_assert_eq!(&bytes, &model.bytes);
        prop_assert_eq!(bits, model.bits);

        let mut reader = BitReader::new(&bytes, bits);
        for (value, width) in written {
            prop_assert_eq!(reader.read_bits(width), Ok(value));
        }
        prop_assert_eq!(reader.remaining(), 0);
        prop_assert_eq!(reader.read_bits(over), Err(ReadPastEndError { wanted: over, available: 0 }));
    }

    /// Differential: `write_bytes` at any bit offset packs like eight
    /// one-bit writes per byte, and `read_bytes` at that offset returns
    /// the payload; reading past the end fails with the reference's
    /// error and leaves the reader where the reference leaves it.
    #[test]
    fn bitio_bytes_match_bit_reference(
        lead in 0u32..=7,
        lead_raw in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        tail in 0u32..=7,
        extra in 1usize..=3,
    ) {
        let mut writer = BitWriter::new();
        let mut model = reference::Writer::default();
        if lead > 0 {
            writer.write_bits(fit(lead_raw, lead), lead);
            model.write_bits(fit(lead_raw, lead), lead);
        }
        writer.write_bytes(&payload);
        model.write_bytes(&payload);
        if tail > 0 {
            writer.write_bits(fit(lead_raw.rotate_left(17), tail), tail);
            model.write_bits(fit(lead_raw.rotate_left(17), tail), tail);
        }
        let (bytes, bits) = writer.finish();
        prop_assert_eq!(&bytes, &model.bytes);
        prop_assert_eq!(bits, model.bits);

        let mut reader = BitReader::new(&bytes, bits);
        if lead > 0 {
            reader.read_bits(lead).unwrap();
        }
        let mut again = reader.clone();
        prop_assert_eq!(reader.read_bytes(payload.len()), Ok(payload.clone()));

        let mut expected = reference::Reader {
            bytes: &bytes,
            bit_len: u64::from(bits),
            cursor: u64::from(lead),
        };
        let len = payload.len() + extra;
        prop_assert_eq!(again.read_bytes(len), expected.read_bytes(len));
        prop_assert_eq!(again.remaining(), expected.remaining());
    }

    /// Differential on arbitrary buffers: a random bit length (so the
    /// last byte may carry junk past the valid bits) and a random mix of
    /// `read_bits`/`read_bytes` calls, continuing after errors, give the
    /// reference's results and cursor at every step.
    #[test]
    fn bit_reader_matches_bit_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..24),
        cut in any::<u64>(),
        ops in proptest::collection::vec((any::<bool>(), 1u32..=64, 0usize..=5), 0..30),
    ) {
        let bit_len = (cut % (bytes.len() as u64 * 8 + 1)) as u32;
        let mut reader = BitReader::new(&bytes, bit_len);
        let mut expected = reference::Reader { bytes: &bytes, bit_len: u64::from(bit_len), cursor: 0 };
        for (whole_bytes, width, len) in ops {
            if whole_bytes {
                prop_assert_eq!(reader.read_bytes(len), expected.read_bytes(len));
            } else {
                prop_assert_eq!(reader.read_bits(width), expected.read_bits(width));
            }
            prop_assert_eq!(reader.remaining(), expected.remaining());
        }
    }
}

#[test]
#[should_panic(expected = "outside 1..=64")]
fn write_width_65_panics() {
    BitWriter::new().write_bits(0, 65);
}

#[test]
#[should_panic(expected = "does not fit")]
fn write_value_wider_than_width_panics() {
    let mut writer = BitWriter::new();
    writer.write_bits(0b1, 3); // unaligned start
    writer.write_bits(1 << 9, 9);
}

#[test]
#[should_panic(expected = "outside 1..=64")]
fn read_width_zero_panics() {
    let _ = BitReader::new(&[0xFF], 8).read_bits(0);
}

#[test]
#[should_panic(expected = "outside 1..=64")]
fn read_width_65_panics() {
    let _ = BitReader::new(&[0xFF; 16], 128).read_bits(65);
}
