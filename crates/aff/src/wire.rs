//! Fragment wire formats.
//!
//! The layout follows the paper's implementation (Section 5): a *packet
//! introduction* fragment carrying the packet's identifier, total
//! length, and checksum, followed by *data* fragments carrying the
//! identifier and a byte offset. Fields are bit-packed — an H-bit
//! identifier costs exactly H bits on the air.
//!
//! Two header schemes share the format:
//!
//! - **AFF** ([`HeaderScheme::Aff`]): the key is a random ephemeral
//!   identifier of `H` bits. No address anywhere.
//! - **Static** ([`HeaderScheme::StaticAddress`]): the key is the
//!   sender's statically assigned unique address plus a per-sender
//!   packet sequence number — IP-style fragmentation, the paper's
//!   baseline. The key is guaranteed unique (while the sequence space
//!   does not wrap within a reassembly timeout).
//!
//! Both schemes optionally append a **ground-truth trailer** (the
//! sender's 64-bit unique node id and a 32-bit packet number) — the
//! paper's Section 5.1 instrumentation. The trailer is excluded from
//! protocol-overhead accounting: it exists to *measure* collisions, not
//! to avoid them.

use core::fmt;

use retri::{IdentifierSpace, TransactionId};
use retri_model::IdBits;
use retri_netsim::FramePayload;

use crate::bitio::{BitReader, BitWriter, ReadPastEndError};

/// Width of the `total_len` field: packets up to 64 KiB, as in the
/// paper's driver.
pub(crate) const TOTAL_LEN_BITS: u32 = 16;
/// Width of the `offset` field.
pub(crate) const OFFSET_BITS: u32 = 16;
/// Width of the checksum field.
pub(crate) const CHECKSUM_BITS: u32 = 16;
/// Width of the per-fragment payload length field.
pub(crate) const PAYLOAD_LEN_BITS: u32 = 8;
/// Width of the fragment-kind marker (without collision notifications).
pub(crate) const KIND_BITS: u32 = 1;
/// Width of the fragment-kind marker when collision notifications are
/// enabled (a third kind needs a second bit — enabling the mechanism
/// costs one bit on every fragment).
pub(crate) const KIND_BITS_WITH_NOTIFY: u32 = 2;
/// Ground-truth trailer width (64-bit node id + 32-bit packet number).
pub(crate) const TRUTH_BITS: u32 = 96;

/// Kind-field values.
const KIND_DATA: u64 = 0;
const KIND_INTRO: u64 = 1;
const KIND_NOTIFY: u64 = 2;

/// Errors from encoding or decoding fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame ended before the declared fields.
    Truncated(ReadPastEndError),
    /// The payload length field points past the end of the frame.
    PayloadLengthMismatch {
        /// Bytes declared.
        declared: usize,
        /// Whole bytes actually available.
        available: u64,
    },
    /// Bits remained after a complete parse — the frame is not from this
    /// wire format.
    TrailingBits {
        /// Leftover bit count.
        leftover: u64,
    },
    /// A field exceeded its width at encode time.
    FieldOverflow {
        /// Which field.
        field: &'static str,
        /// Offending value.
        value: u64,
    },
    /// The kind field held a value this configuration does not define.
    UnknownKind {
        /// The undefined kind value.
        kind: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated(err) => write!(f, "truncated fragment: {err}"),
            WireError::PayloadLengthMismatch {
                declared,
                available,
            } => write!(
                f,
                "declared payload of {declared} bytes but only {available} bytes remain"
            ),
            WireError::TrailingBits { leftover } => {
                write!(f, "{leftover} unexpected trailing bits after fragment")
            }
            WireError::FieldOverflow { field, value } => {
                write!(f, "field `{field}` cannot hold value {value}")
            }
            WireError::UnknownKind { kind } => {
                write!(f, "undefined fragment kind {kind}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Truncated(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ReadPastEndError> for WireError {
    fn from(err: ReadPastEndError) -> Self {
        WireError::Truncated(err)
    }
}

/// How fragments are keyed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum HeaderScheme {
    /// Random ephemeral identifiers drawn from `space` (the paper's
    /// contribution).
    Aff {
        /// The identifier space.
        space: IdentifierSpace,
    },
    /// Static unique source address plus per-sender sequence number (the
    /// IP-style baseline of Section 2.1).
    StaticAddress {
        /// Address width (e.g. 16, 32, or Ethernet's 48 bits).
        addr_bits: IdBits,
        /// Sequence-number width.
        seq_bits: u32,
    },
}

impl HeaderScheme {
    /// Total key width on the wire, bits.
    #[must_use]
    pub(crate) fn key_bits(&self) -> u32 {
        match *self {
            HeaderScheme::Aff { space } => u32::from(space.bits().get()),
            HeaderScheme::StaticAddress {
                addr_bits,
                seq_bits,
            } => u32::from(addr_bits.get()) + seq_bits,
        }
    }
}

/// The ground-truth instrumentation trailer (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Truth {
    /// The sender's globally unique identifier.
    pub source: u64,
    /// The sender's packet number.
    pub packet_seq: u32,
}

/// One fragment, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fragment {
    /// The packet introduction: identifier, total length, checksum.
    Intro {
        /// Reassembly key (AFF identifier, or address+sequence).
        key: TransactionId,
        /// Total packet length in bytes.
        total_len: u16,
        /// CRC-16 over the whole packet.
        checksum: u16,
        /// Instrumentation trailer, if enabled.
        truth: Option<Truth>,
    },
    /// A data fragment: identifier, byte offset, payload.
    Data {
        /// Reassembly key.
        key: TransactionId,
        /// Offset of this payload within the packet, bytes.
        offset: u16,
        /// Payload bytes.
        payload: Vec<u8>,
        /// Instrumentation trailer, if enabled.
        truth: Option<Truth>,
    },
    /// An explicit identifier-collision notification from a receiver
    /// (the Section 3.2 mechanism): "identifier `key` just collided —
    /// whoever is using it, pick another." Only valid on wires built
    /// with [`WireConfig::with_notifications`].
    Notify {
        /// The collided identifier.
        key: TransactionId,
        /// Instrumentation trailer, if enabled.
        truth: Option<Truth>,
    },
}

impl Fragment {
    /// The reassembly key.
    #[must_use]
    pub fn key(&self) -> TransactionId {
        match *self {
            Fragment::Intro { key, .. }
            | Fragment::Data { key, .. }
            | Fragment::Notify { key, .. } => key,
        }
    }

    /// The instrumentation trailer, if present.
    #[must_use]
    pub fn truth(&self) -> Option<Truth> {
        match *self {
            Fragment::Intro { truth, .. }
            | Fragment::Data { truth, .. }
            | Fragment::Notify { truth, .. } => truth,
        }
    }
}

/// A complete wire-format configuration: header scheme plus whether the
/// instrumentation trailer is carried.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WireConfig {
    scheme: HeaderScheme,
    instrument: bool,
    notifications: bool,
}

impl WireConfig {
    /// AFF keying over `space`.
    #[must_use]
    pub fn aff(space: IdentifierSpace) -> Self {
        WireConfig {
            scheme: HeaderScheme::Aff { space },
            instrument: false,
            notifications: false,
        }
    }

    /// Static-address keying.
    #[must_use]
    pub fn static_address(addr_bits: IdBits, seq_bits: u32) -> Self {
        WireConfig {
            scheme: HeaderScheme::StaticAddress {
                addr_bits,
                seq_bits,
            },
            instrument: false,
            notifications: false,
        }
    }

    /// Enables the Section 5.1 ground-truth trailer.
    #[must_use]
    pub fn with_instrumentation(mut self) -> Self {
        self.instrument = true;
        self
    }

    /// Enables explicit collision notifications (Section 3.2), widening
    /// the kind field to two bits — the mechanism costs one extra bit
    /// on *every* fragment, which is why it is opt-in.
    #[must_use]
    pub fn with_notifications(mut self) -> Self {
        self.notifications = true;
        self
    }

    /// The header scheme.
    #[must_use]
    pub fn scheme(&self) -> HeaderScheme {
        self.scheme
    }

    /// Whether fragments carry the ground-truth trailer.
    #[must_use]
    pub fn instrumented(&self) -> bool {
        self.instrument
    }

    /// Whether collision notifications are part of this wire format.
    #[must_use]
    pub(crate) fn notifications_enabled(&self) -> bool {
        self.notifications
    }

    /// Width of the kind field under this configuration.
    #[must_use]
    pub(crate) fn kind_bits(&self) -> u32 {
        if self.notifications {
            KIND_BITS_WITH_NOTIFY
        } else {
            KIND_BITS
        }
    }

    /// The space reassembly keys live in.
    ///
    /// For AFF this is the identifier space; for static addressing it is
    /// the synthesized `(address ++ sequence)` space, so both schemes
    /// share one reassembler implementation.
    ///
    /// # Panics
    ///
    /// Panics if a static scheme's combined `addr_bits + seq_bits`
    /// exceeds 64 (rejected at construction in practice: 48-bit
    /// addresses with 16-bit sequences are the largest sensible point).
    #[must_use]
    pub fn space(&self) -> IdentifierSpace {
        match self.scheme {
            HeaderScheme::Aff { space } => space,
            HeaderScheme::StaticAddress {
                addr_bits,
                seq_bits,
            } => {
                let total = u32::from(addr_bits.get()) + seq_bits;
                let bits = u8::try_from(total)
                    .ok()
                    .and_then(|b| IdBits::new(b).ok())
                    .unwrap_or_else(|| panic!("static key of {total} bits exceeds 64"));
                IdentifierSpace::from_bits(bits)
            }
        }
    }

    /// Builds the reassembly key for a static-address sender.
    ///
    /// # Panics
    ///
    /// Panics if `addr` or `seq` overflow their field widths, or if the
    /// scheme is AFF (whose keys come from a selector, not from an
    /// address).
    #[must_use]
    pub(crate) fn static_key(&self, addr: u64, seq: u64) -> TransactionId {
        match self.scheme {
            HeaderScheme::StaticAddress {
                addr_bits,
                seq_bits,
            } => {
                assert!(
                    addr_bits.get() == 64 || addr >> addr_bits.get() == 0,
                    "address {addr:#x} exceeds {addr_bits}"
                );
                assert!(
                    if seq_bits == 0 {
                        seq == 0
                    } else {
                        seq_bits >= 64 || seq >> seq_bits == 0
                    },
                    "sequence {seq} exceeds {seq_bits} bits"
                );
                self.space()
                    .id((addr << seq_bits) | seq)
                    .expect("components checked against widths")
            }
            HeaderScheme::Aff { .. } => {
                panic!("static_key is only defined for static-address schemes")
            }
        }
    }

    /// Protocol header bits of a data fragment (excludes payload and
    /// trailer).
    #[must_use]
    pub(crate) fn data_header_bits(&self) -> u32 {
        self.kind_bits() + self.scheme.key_bits() + OFFSET_BITS + PAYLOAD_LEN_BITS
    }

    /// Trailer bits actually on the air per fragment.
    #[must_use]
    pub(crate) fn trailer_bits(&self) -> u32 {
        if self.instrument {
            TRUTH_BITS
        } else {
            0
        }
    }

    /// Maximum data bytes per fragment for a radio with
    /// `max_frame_bytes` frames, or `None` if even one byte does not
    /// fit.
    #[must_use]
    pub fn data_capacity(&self, max_frame_bytes: usize) -> Option<usize> {
        let frame_bits = max_frame_bytes as u64 * 8;
        let overhead = u64::from(self.data_header_bits() + self.trailer_bits());
        let capacity = frame_bits.checked_sub(overhead)? / 8;
        if capacity == 0 {
            None
        } else {
            Some(capacity.min(255) as usize)
        }
    }

    /// Encodes a fragment into a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FieldOverflow`] if a payload exceeds the
    /// 255-byte length field.
    ///
    /// # Panics
    ///
    /// Panics if the fragment's key does not belong to this
    /// configuration's key space, or if instrumentation presence does
    /// not match the configuration — both are caller bugs.
    pub fn encode(&self, fragment: &Fragment) -> Result<FramePayload, WireError> {
        assert!(
            self.space().contains(fragment.key()),
            "fragment key {} does not belong to {}",
            fragment.key(),
            self.space()
        );
        if matches!(fragment, Fragment::Notify { .. }) {
            // Notifications are receiver control traffic and never carry
            // the instrumentation trailer.
            assert!(
                fragment.truth().is_none(),
                "notifications must not carry a ground-truth trailer"
            );
        } else {
            assert_eq!(
                fragment.truth().is_some(),
                self.instrument,
                "instrumentation presence must match the wire configuration"
            );
        }
        let mut writer = BitWriter::new();
        match fragment {
            Fragment::Intro {
                key,
                total_len,
                checksum,
                ..
            } => {
                writer.write_bits(KIND_INTRO, self.kind_bits());
                writer.write_bits(key.value(), self.scheme.key_bits());
                writer.write_bits(u64::from(*total_len), TOTAL_LEN_BITS);
                writer.write_bits(u64::from(*checksum), CHECKSUM_BITS);
            }
            Fragment::Data {
                key,
                offset,
                payload,
                ..
            } => {
                if payload.len() > 255 {
                    return Err(WireError::FieldOverflow {
                        field: "payload_len",
                        value: payload.len() as u64,
                    });
                }
                writer.write_bits(KIND_DATA, self.kind_bits());
                writer.write_bits(key.value(), self.scheme.key_bits());
                writer.write_bits(u64::from(*offset), OFFSET_BITS);
                writer.write_bits(payload.len() as u64, PAYLOAD_LEN_BITS);
                writer.write_bytes(payload);
            }
            Fragment::Notify { key, .. } => {
                assert!(
                    self.notifications,
                    "notifications are not enabled on this wire"
                );
                writer.write_bits(KIND_NOTIFY, self.kind_bits());
                writer.write_bits(key.value(), self.scheme.key_bits());
            }
        }
        if let Some(truth) = fragment.truth() {
            writer.write_bits(truth.source, 64);
            writer.write_bits(u64::from(truth.packet_seq), 32);
        }
        let (bytes, bits) = writer.finish();
        Ok(FramePayload::from_bits(bytes, bits).expect("writer produces consistent lengths"))
    }

    /// Decodes a frame payload into a fragment.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is truncated, has an
    /// inconsistent payload length, or carries trailing bits.
    pub fn decode(&self, payload: &FramePayload) -> Result<Fragment, WireError> {
        let Parsed { key, body, truth } = self.parse(payload, BitReader::read_bytes)?;
        Ok(match body {
            Body::Intro {
                total_len,
                checksum,
            } => Fragment::Intro {
                key,
                total_len,
                checksum,
                truth,
            },
            Body::Data { offset, payload } => Fragment::Data {
                key,
                offset,
                payload,
                truth,
            },
            Body::Notify => Fragment::Notify { key, truth },
        })
    }

    /// Decodes a frame payload's header, stepping over a data
    /// fragment's payload instead of copying it: what a node that only
    /// listens for keys needs. Validates exactly what
    /// [`Self::decode`] validates and fails with the same error.
    pub(crate) fn decode_header(&self, payload: &FramePayload) -> Result<Parsed<()>, WireError> {
        self.parse(payload, BitReader::skip_bytes)
    }

    /// The one fragment parser: reads every field in wire order and
    /// hands a data fragment's payload bytes to `take`.
    fn parse<'a, P>(
        &self,
        payload: &'a FramePayload,
        take: impl FnOnce(&mut BitReader<'a>, usize) -> Result<P, ReadPastEndError>,
    ) -> Result<Parsed<P>, WireError> {
        let mut reader = BitReader::new(payload.bytes(), payload.bits());
        let kind = reader.read_bits(self.kind_bits())?;
        let key_value = reader.read_bits(self.scheme.key_bits())?;
        let key = self
            .space()
            .id(key_value)
            .expect("key read with exactly key_bits cannot overflow");
        let body = match kind {
            KIND_INTRO => Body::Intro {
                total_len: reader.read_bits(TOTAL_LEN_BITS)? as u16,
                checksum: reader.read_bits(CHECKSUM_BITS)? as u16,
            },
            KIND_DATA => {
                let offset = reader.read_bits(OFFSET_BITS)? as u16;
                let declared = reader.read_bits(PAYLOAD_LEN_BITS)? as usize;
                let available = reader.remaining() / 8;
                if declared as u64 > available {
                    return Err(WireError::PayloadLengthMismatch {
                        declared,
                        available,
                    });
                }
                Body::Data {
                    offset,
                    payload: take(&mut reader, declared)?,
                }
            }
            KIND_NOTIFY => Body::Notify,
            other => {
                return Err(WireError::UnknownKind { kind: other as u8 });
            }
        };
        let truth = if self.instrument && !matches!(body, Body::Notify) {
            let source = reader.read_bits(64)?;
            let packet_seq = reader.read_bits(32)? as u32;
            Some(Truth { source, packet_seq })
        } else {
            None
        };
        if reader.remaining() != 0 {
            return Err(WireError::TrailingBits {
                leftover: reader.remaining(),
            });
        }
        Ok(Parsed { key, body, truth })
    }
}

/// A fragment's fields as the wire parser reads them, with a data
/// fragment's payload in whatever form `P` the parse took it.
#[derive(Debug)]
pub(crate) struct Parsed<P> {
    pub(crate) key: TransactionId,
    pub(crate) body: Body<P>,
    pub(crate) truth: Option<Truth>,
}

/// The kind-specific fields of a [`Parsed`] fragment.
#[derive(Debug)]
pub(crate) enum Body<P> {
    Intro { total_len: u16, checksum: u16 },
    Data { offset: u16, payload: P },
    Notify,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Protocol header bits of an introduction fragment (excludes the
    /// instrumentation trailer): the reference the encoder's output is
    /// checked against.
    fn intro_header_bits(config: &WireConfig) -> u32 {
        config.kind_bits() + config.scheme.key_bits() + TOTAL_LEN_BITS + CHECKSUM_BITS
    }

    /// Bits of a collision-notification fragment (kind + key only).
    fn notify_bits(config: &WireConfig) -> u32 {
        config.kind_bits() + config.scheme.key_bits()
    }

    fn aff_config(bits: u8) -> WireConfig {
        WireConfig::aff(IdentifierSpace::new(bits).unwrap())
    }

    #[test]
    fn intro_round_trip() {
        let config = aff_config(9);
        let key = config.space().id(0x1AB).unwrap();
        let fragment = Fragment::Intro {
            key,
            total_len: 80,
            checksum: 0xBEEF,
            truth: None,
        };
        let payload = config.encode(&fragment).unwrap();
        assert_eq!(payload.bits(), intro_header_bits(&config));
        assert_eq!(config.decode(&payload).unwrap(), fragment);
    }

    #[test]
    fn data_round_trip_with_odd_id_width() {
        for bits in [1u8, 3, 9, 13, 16, 24] {
            let config = aff_config(bits);
            let key = config.space().sample(&mut rand_rng());
            let fragment = Fragment::Data {
                key,
                offset: 40,
                payload: vec![0xA5; 20],
                truth: None,
            };
            let encoded = config.encode(&fragment).unwrap();
            assert_eq!(
                encoded.bits(),
                config.data_header_bits() + 20 * 8,
                "H={bits}"
            );
            assert_eq!(config.decode(&encoded).unwrap(), fragment, "H={bits}");
        }
    }

    fn rand_rng() -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn instrumented_round_trip() {
        let config = aff_config(8).with_instrumentation();
        let key = config.space().id(0x42).unwrap();
        let fragment = Fragment::Data {
            key,
            offset: 0,
            payload: vec![1, 2, 3],
            truth: Some(Truth {
                source: 0xDEAD_BEEF_CAFE_F00D,
                packet_seq: 77,
            }),
        };
        let encoded = config.encode(&fragment).unwrap();
        assert_eq!(encoded.bits(), config.data_header_bits() + 24 + TRUTH_BITS);
        assert_eq!(config.decode(&encoded).unwrap(), fragment);
    }

    #[test]
    fn static_scheme_keys_combine_address_and_sequence() {
        let config = WireConfig::static_address(IdBits::new(16).unwrap(), 8);
        assert_eq!(config.space().bits().get(), 24);
        let key = config.static_key(0xABCD, 0x12);
        assert_eq!(key.value(), 0xABCD12);
        // Round trip through the wire.
        let fragment = Fragment::Intro {
            key,
            total_len: 100,
            checksum: 0,
            truth: None,
        };
        let encoded = config.encode(&fragment).unwrap();
        assert_eq!(config.decode(&encoded).unwrap().key(), key);
    }

    #[test]
    #[should_panic(expected = "exceeds 16 bits")]
    fn static_key_checks_sequence_width() {
        let config = WireConfig::static_address(IdBits::new(16).unwrap(), 16);
        let _ = config.static_key(1, 1 << 16);
    }

    #[test]
    fn paper_frame_budget_fits_five_fragments_for_80_bytes() {
        // Radiometrix RPC: 27-byte frames. An 80-byte packet must split
        // into one introduction plus four data fragments (Section 5.1).
        let config = aff_config(8);
        let capacity = config.data_capacity(27).unwrap();
        assert!(capacity >= 20, "capacity {capacity} < 20 bytes");
        let fragments_needed = 80usize.div_ceil(capacity);
        assert_eq!(fragments_needed, 4);
    }

    #[test]
    fn instrumented_frames_still_fit_the_rpc() {
        let config = aff_config(16).with_instrumentation();
        let capacity = config.data_capacity(27).unwrap();
        assert!(capacity >= 1);
    }

    #[test]
    fn data_capacity_none_when_header_exceeds_frame() {
        let config = aff_config(64).with_instrumentation();
        assert_eq!(config.data_capacity(20), None);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let config = aff_config(8);
        let key = config.space().id(1).unwrap();
        let fragment = Fragment::Intro {
            key,
            total_len: 10,
            checksum: 0,
            truth: None,
        };
        let encoded = config.encode(&fragment).unwrap();
        let truncated = FramePayload::from_bits(encoded.bytes()[..2].to_vec(), 16).unwrap();
        assert!(matches!(
            config.decode(&truncated),
            Err(WireError::Truncated(_))
        ));
    }

    #[test]
    fn payload_length_mismatch_is_an_error() {
        let config = aff_config(8);
        // Build a data fragment then lie about its payload length by
        // truncating the buffer after the header.
        let key = config.space().id(1).unwrap();
        let fragment = Fragment::Data {
            key,
            offset: 0,
            payload: vec![0xFF; 10],
            truth: None,
        };
        let encoded = config.encode(&fragment).unwrap();
        let header_bits = config.data_header_bits();
        let keep_bits = header_bits + 8; // header + 1 payload byte only
        let keep_bytes = (keep_bits as usize).div_ceil(8);
        let cut =
            FramePayload::from_bits(encoded.bytes()[..keep_bytes].to_vec(), keep_bits).unwrap();
        assert!(matches!(
            config.decode(&cut),
            Err(WireError::PayloadLengthMismatch { declared: 10, .. })
        ));
    }

    #[test]
    fn trailing_bits_are_an_error() {
        let config = aff_config(8);
        let key = config.space().id(1).unwrap();
        let fragment = Fragment::Intro {
            key,
            total_len: 10,
            checksum: 0,
            truth: None,
        };
        let encoded = config.encode(&fragment).unwrap();
        let mut bytes = encoded.bytes().to_vec();
        bytes.push(0);
        let padded = FramePayload::from_bits(bytes, encoded.bits() + 8).unwrap();
        assert!(matches!(
            config.decode(&padded),
            Err(WireError::TrailingBits { leftover: 8 })
        ));
    }

    #[test]
    fn oversized_payload_rejected_at_encode() {
        let config = aff_config(8);
        let key = config.space().id(1).unwrap();
        let fragment = Fragment::Data {
            key,
            offset: 0,
            payload: vec![0; 300],
            truth: None,
        };
        assert!(matches!(
            config.encode(&fragment),
            Err(WireError::FieldOverflow {
                field: "payload_len",
                ..
            })
        ));
    }

    #[test]
    fn header_bit_accounting_matches_paper_model_inputs() {
        // For the efficiency model, the identifier is H bits; our real
        // format adds the fixed framing fields. Check the arithmetic the
        // experiments rely on.
        let config = aff_config(9);
        assert_eq!(intro_header_bits(&config), 1 + 9 + 16 + 16);
        assert_eq!(config.data_header_bits(), 1 + 9 + 16 + 8);
        assert_eq!(config.trailer_bits(), 0);
        assert_eq!(config.with_instrumentation().trailer_bits(), 96);
    }

    #[test]
    fn errors_display_nonempty() {
        let errs: Vec<WireError> = vec![
            WireError::Truncated(ReadPastEndError {
                wanted: 4,
                available: 1,
            }),
            WireError::PayloadLengthMismatch {
                declared: 9,
                available: 2,
            },
            WireError::TrailingBits { leftover: 3 },
            WireError::FieldOverflow {
                field: "x",
                value: 300,
            },
            WireError::UnknownKind { kind: 3 },
        ];
        for err in errs {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn notify_round_trip_when_enabled() {
        let config = aff_config(8).with_notifications();
        let key = config.space().id(0x7F).unwrap();
        let fragment = Fragment::Notify { key, truth: None };
        let encoded = config.encode(&fragment).unwrap();
        assert_eq!(encoded.bits(), notify_bits(&config));
        assert_eq!(encoded.bits(), 2 + 8);
        assert_eq!(config.decode(&encoded).unwrap(), fragment);
    }

    #[test]
    fn notifications_cost_one_bit_on_every_fragment() {
        let plain = aff_config(9);
        let notifying = aff_config(9).with_notifications();
        assert_eq!(intro_header_bits(&notifying), intro_header_bits(&plain) + 1);
        assert_eq!(notifying.data_header_bits(), plain.data_header_bits() + 1);
        assert_eq!(notifying.kind_bits(), 2);
        assert_eq!(plain.kind_bits(), 1);
    }

    #[test]
    fn intro_and_data_round_trip_on_notifying_wire() {
        let config = aff_config(9).with_notifications();
        let key = config.space().id(0x1AB).unwrap();
        let intro = Fragment::Intro {
            key,
            total_len: 80,
            checksum: 0xBEEF,
            truth: None,
        };
        let encoded = config.encode(&intro).unwrap();
        assert_eq!(config.decode(&encoded).unwrap(), intro);
        let data = Fragment::Data {
            key,
            offset: 22,
            payload: vec![9; 5],
            truth: None,
        };
        let encoded = config.encode(&data).unwrap();
        assert_eq!(config.decode(&encoded).unwrap(), data);
    }

    #[test]
    fn notify_never_carries_trailer_even_instrumented() {
        let config = aff_config(8).with_notifications().with_instrumentation();
        let key = config.space().id(3).unwrap();
        let fragment = Fragment::Notify { key, truth: None };
        let encoded = config.encode(&fragment).unwrap();
        assert_eq!(encoded.bits(), notify_bits(&config));
        assert_eq!(config.decode(&encoded).unwrap(), fragment);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let config = aff_config(8).with_notifications();
        // kind = 3 (undefined), key = 0: 10 bits total.
        let payload = FramePayload::from_bits(vec![0b1100_0000, 0x00], 10).unwrap();
        assert_eq!(
            config.decode(&payload),
            Err(WireError::UnknownKind { kind: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "notifications are not enabled")]
    fn notify_on_plain_wire_panics() {
        let config = aff_config(8);
        let key = config.space().id(1).unwrap();
        let _ = config.encode(&Fragment::Notify { key, truth: None });
    }

    mod header_path {
        use super::*;
        use proptest::prelude::*;

        /// A well-formed fragment on `wire`, from raw draws: `kind`
        /// picks intro, data or (on a notifying wire) notify.
        fn fragment(wire: &WireConfig, kind: u8, raw: u64, payload: Vec<u8>) -> Fragment {
            let key = wire.space().id(raw & wire.space().mask()).unwrap();
            let truth = wire.instrumented().then_some(Truth {
                source: raw.rotate_left(7),
                packet_seq: raw as u32,
            });
            match kind % if wire.notifications_enabled() { 3 } else { 2 } {
                0 => Fragment::Intro {
                    key,
                    total_len: raw as u16,
                    checksum: (raw >> 16) as u16,
                    truth,
                },
                1 => Fragment::Data {
                    key,
                    offset: (raw >> 32) as u16,
                    payload,
                    truth,
                },
                _ => Fragment::Notify { key, truth: None },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// Differential: on well-formed fragments and on every kind
            /// of malformed payload — truncated, a bad declared length,
            /// trailing bits, an undefined kind, random bit flips — the
            /// header path fails exactly as `decode` does, and otherwise
            /// reads the same key, kind and header fields.
            #[test]
            fn header_path_matches_decode(
                shape in (4u8..=16, any::<bool>(), any::<bool>(), 0u8..3),
                raw in any::<u64>(),
                payload in proptest::collection::vec(any::<u8>(), 0..24),
                damage in (0u8..6, any::<u32>(), 1u32..=12),
            ) {
                let (bits, instrumented, notifying, kind) = shape;
                let mut wire = aff_config(bits);
                if instrumented {
                    wire = wire.with_instrumentation();
                }
                if notifying {
                    wire = wire.with_notifications();
                }
                let encoded = wire.encode(&fragment(&wire, kind, raw, payload)).unwrap();
                let (mut bytes, mut len) = (encoded.bytes().to_vec(), encoded.bits());
                let (how, at, extra) = damage;
                match how {
                    // Truncated anywhere, down to a single bit.
                    0 => {
                        len = 1 + at % len;
                        bytes.truncate(len.div_ceil(8) as usize);
                    }
                    // Trailing bits.
                    1 => {
                        len += extra;
                        bytes.resize(len.div_ceil(8) as usize, raw as u8);
                    }
                    // Any one bit flipped: the kind field (an undefined
                    // kind on a notifying wire), the key, the declared
                    // payload length, the payload or the trailer.
                    2 => bytes[(at % len) as usize / 8] ^= 0x80 >> (at % len % 8),
                    // An undefined kind where the field allows one.
                    3 => bytes[0] |= 0xC0,
                    // A bit of a data fragment's declared payload length
                    // flipped.
                    4 => {
                        let bit = wire.kind_bits() + u32::from(bits) + OFFSET_BITS + at % 8;
                        if bit < len {
                            bytes[bit as usize / 8] ^= 0x80 >> (bit % 8);
                        }
                    }
                    _ => {}
                }
                let damaged = FramePayload::from_bits(bytes, len).unwrap();
                let full = wire.decode(&damaged);
                let header = wire.decode_header(&damaged);
                match (&full, &header) {
                    (Ok(fragment), Ok(header)) => {
                        prop_assert_eq!(fragment.key(), header.key);
                        prop_assert_eq!(fragment.truth(), header.truth);
                        let same = match (fragment, &header.body) {
                            (
                                Fragment::Intro { total_len, checksum, .. },
                                Body::Intro { total_len: t, checksum: c },
                            ) => total_len == t && checksum == c,
                            (Fragment::Data { offset, .. }, Body::Data { offset: o, .. }) => {
                                offset == o
                            }
                            (Fragment::Notify { .. }, Body::Notify) => true,
                            _ => false,
                        };
                        prop_assert!(same, "{:?} vs {:?}", fragment, header);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(false, "decode {:?}, header {:?}", full, header),
                }
            }
        }
    }
}
