//! The `retrid` request/reply codec, shared by both transports.
//!
//! Frames are length-prefixed: a `u32` little-endian byte count
//! followed by exactly that many payload bytes. The payload's first
//! byte is the opcode; all integers are little-endian, fixed width. The
//! in-process [`crate::ServiceHandle`] speaks the decoded
//! [`Request`]/[`Reply`] types directly and the TCP transport speaks
//! the encoded frames, so one codec (and one set of limits) covers
//! both — the property the transport-parity test pins.
//!
//! Layout (payload bytes, after the length prefix):
//!
//! ```text
//! ALLOC    = 0x01 shard:u16 strategy:u8 count:u32
//! RELEASE  = 0x02 shard:u16 strategy:u8 n:u32 (id:u128)*n
//! STATS    = 0x03 shard:u16            -- 0xFFFF = every shard
//! PING     = 0x04
//! WAIT     = 0x05 shard:u16 micros:u32 -- occupy the shard (load shaping)
//!
//! IDS      = 0x81 n:u32 (id:u128)*n
//! RELEASED = 0x82 acked:u32 misses:u32
//! STATS    = 0x83 n:u32 StrategyStats*n
//! PONG     = 0x84
//! BUSY     = 0x85                      -- shard queue full; retry later
//! ERR      = 0x86 code:u8 len:u16 msg:[u8]*len
//! ```
//!
//! `StrategyStats` is a fixed 75-byte record:
//!
//! ```text
//! shard:u16 strategy:u8 bits:u8 live_distinct:u64 live_total:u64
//! minted:u64 collisions:u64 released:u64 release_misses:u64 busy:u64
//! predicted_collisions:f64 eq4_p_collision:f64   (f64 as IEEE-754 bits)
//! ```

use crate::strategy::StrategyKind;

/// Frames larger than this are rejected before allocation — a malformed
/// or hostile length prefix must not make the server reserve gigabytes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Per-request identifier-count ceiling (ALLOC `count`, RELEASE `n`).
/// Keeps every reply under [`MAX_FRAME_BYTES`] with room to spare.
pub(crate) const MAX_BATCH: u32 = 32_768;

/// Marker for "every shard" in a STATS request.
pub const ALL_SHARDS: u16 = u16::MAX;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Mint `count` identifiers from `(shard, strategy)`.
    Alloc {
        /// Target shard index.
        shard: u16,
        /// Minting strategy.
        strategy: StrategyKind,
        /// Identifiers to mint (`1..=MAX_BATCH`).
        count: u32,
    },
    /// End transactions: remove `ids` from `(shard, strategy)`'s live set.
    Release {
        /// Target shard index.
        shard: u16,
        /// Minting strategy whose live set is released from.
        strategy: StrategyKind,
        /// The identifiers to release.
        ids: Vec<u128>,
    },
    /// Query per-strategy statistics for one shard or [`ALL_SHARDS`].
    Stats {
        /// Target shard index, or [`ALL_SHARDS`].
        shard: u16,
    },
    /// Liveness probe.
    Ping,
    /// Occupy `shard`'s event loop for `micros` — load shaping for the
    /// backpressure tests and the contended benchmark.
    Wait {
        /// Target shard index.
        shard: u16,
        /// How long the shard thread sleeps.
        micros: u32,
    },
}

/// Per-`(shard, strategy)` statistics, as returned by a STATS query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyStats {
    /// Shard this record describes.
    pub shard: u16,
    /// Strategy this record describes.
    pub strategy: StrategyKind,
    /// Identifier width in bits.
    pub bits: u8,
    /// Distinct identifier values currently live.
    pub live_distinct: u64,
    /// Live transactions (≥ `live_distinct`; collided transactions
    /// share a value).
    pub live_total: u64,
    /// Identifiers minted so far.
    pub minted: u64,
    /// Mints that landed on an already-live identifier (ground truth,
    /// counted against the live set at mint time).
    pub collisions: u64,
    /// Transactions released.
    pub released: u64,
    /// Release requests for identifiers that were not live.
    pub release_misses: u64,
    /// Requests shed with BUSY for this shard (shard-wide; repeated on
    /// every strategy record of the shard).
    pub busy: u64,
    /// Σ over mints of the Eq. 4-form collision probability
    /// `1 − (1 − 2^−H)^L` against the `L` transactions live at each
    /// mint — the running prediction the observed `collisions` count is
    /// compared to.
    pub predicted_collisions: f64,
    /// Eq. 4 collision probability at the *current* density
    /// (`T = live_total + 1`): `1 − (1 − 2^−H)^(2(T−1))`.
    pub eq4_p_collision: f64,
}

/// A decoded server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Freshly minted identifiers, in mint order.
    Ids(Vec<u128>),
    /// Release outcome: how many ids were live (and are no longer), and
    /// how many were unknown.
    Released {
        /// Identifiers that were live and are now released.
        acked: u32,
        /// Identifiers that were not in the live set.
        misses: u32,
    },
    /// Statistics records, one per `(shard, strategy)`.
    Stats(Vec<StrategyStats>),
    /// Answer to [`Request::Ping`] and [`Request::Wait`].
    Pong,
    /// The target shard's queue was full; the request was shed.
    Busy,
    /// The request could not be served.
    Err {
        /// Machine-readable error code: 1 malformed payload, 2 shard out
        /// of range, 3 count out of range.
        code: u8,
        /// Human-readable detail.
        msg: String,
    },
}

/// Error codes carried by [`Reply::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ErrCode {
    /// Opcode or field failed to decode.
    Malformed = 1,
    /// Shard index out of range.
    BadShard = 2,
    /// ALLOC/RELEASE count outside `1..=MAX_BATCH`.
    BadCount = 3,
}

/// Codec failure: the payload did not parse as a frame of the expected
/// direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before a fixed-width field.
    Truncated,
    /// Unknown opcode for this direction.
    BadOpcode(u8),
    /// Unknown strategy code.
    BadStrategy(u8),
    /// Declared element count disagrees with the payload length or
    /// exceeds the 32,768-identifier batch limit.
    BadCount(u32),
    /// Trailing bytes after a complete message.
    TrailingBytes,
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadStrategy(s) => write!(f, "unknown strategy code {s}"),
            ProtoError::BadCount(n) => write!(f, "bad element count {n}"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.at.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, ProtoError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

fn check_count(n: u32) -> Result<usize, ProtoError> {
    if n == 0 || n > MAX_BATCH {
        Err(ProtoError::BadCount(n))
    } else {
        Ok(n as usize)
    }
}

/// Encodes a request payload (no length prefix) into `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Alloc {
            shard,
            strategy,
            count,
        } => {
            out.push(0x01);
            out.extend_from_slice(&shard.to_le_bytes());
            out.push(strategy.code());
            out.extend_from_slice(&count.to_le_bytes());
        }
        Request::Release {
            shard,
            strategy,
            ids,
        } => {
            out.push(0x02);
            out.extend_from_slice(&shard.to_le_bytes());
            out.push(strategy.code());
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        Request::Stats { shard } => {
            out.push(0x03);
            out.extend_from_slice(&shard.to_le_bytes());
        }
        Request::Ping => out.push(0x04),
        Request::Wait { shard, micros } => {
            out.push(0x05);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&micros.to_le_bytes());
        }
    }
}

/// Decodes a request payload (no length prefix).
///
/// # Errors
///
/// Returns a [`ProtoError`] describing the first malformed field.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        0x01 => {
            let shard = c.u16()?;
            let strategy = strategy(&mut c)?;
            let count = c.u32()?;
            check_count(count)?;
            Request::Alloc {
                shard,
                strategy,
                count,
            }
        }
        0x02 => {
            let shard = c.u16()?;
            let strategy = strategy(&mut c)?;
            let n = check_count(c.u32()?)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(c.u128()?);
            }
            Request::Release {
                shard,
                strategy,
                ids,
            }
        }
        0x03 => Request::Stats { shard: c.u16()? },
        0x04 => Request::Ping,
        0x05 => Request::Wait {
            shard: c.u16()?,
            micros: c.u32()?,
        },
        op => return Err(ProtoError::BadOpcode(op)),
    };
    c.finish()?;
    Ok(req)
}

fn strategy(c: &mut Cursor<'_>) -> Result<StrategyKind, ProtoError> {
    let code = c.u8()?;
    StrategyKind::from_code(code).ok_or(ProtoError::BadStrategy(code))
}

fn encode_stats(stats: &StrategyStats, out: &mut Vec<u8>) {
    out.extend_from_slice(&stats.shard.to_le_bytes());
    out.push(stats.strategy.code());
    out.push(stats.bits);
    for v in [
        stats.live_distinct,
        stats.live_total,
        stats.minted,
        stats.collisions,
        stats.released,
        stats.release_misses,
        stats.busy,
        stats.predicted_collisions.to_bits(),
        stats.eq4_p_collision.to_bits(),
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_stats(c: &mut Cursor<'_>) -> Result<StrategyStats, ProtoError> {
    Ok(StrategyStats {
        shard: c.u16()?,
        strategy: strategy(c)?,
        bits: c.u8()?,
        live_distinct: c.u64()?,
        live_total: c.u64()?,
        minted: c.u64()?,
        collisions: c.u64()?,
        released: c.u64()?,
        release_misses: c.u64()?,
        busy: c.u64()?,
        predicted_collisions: c.f64()?,
        eq4_p_collision: c.f64()?,
    })
}

/// Encodes a reply payload (no length prefix) into `out`.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    match reply {
        Reply::Ids(ids) => {
            out.push(0x81);
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        Reply::Released { acked, misses } => {
            out.push(0x82);
            out.extend_from_slice(&acked.to_le_bytes());
            out.extend_from_slice(&misses.to_le_bytes());
        }
        Reply::Stats(entries) => {
            out.push(0x83);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for entry in entries {
                encode_stats(entry, out);
            }
        }
        Reply::Pong => out.push(0x84),
        Reply::Busy => out.push(0x85),
        Reply::Err { code, msg } => {
            out.push(0x86);
            out.push(*code);
            let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
            out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            out.extend_from_slice(msg);
        }
    }
}

/// Decodes a reply payload (no length prefix).
///
/// # Errors
///
/// Returns a [`ProtoError`] describing the first malformed field.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtoError> {
    let mut c = Cursor::new(payload);
    let reply = match c.u8()? {
        0x81 => {
            let n = check_count(c.u32()?)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(c.u128()?);
            }
            Reply::Ids(ids)
        }
        0x82 => Reply::Released {
            acked: c.u32()?,
            misses: c.u32()?,
        },
        0x83 => {
            let n = c.u32()?;
            if n > MAX_BATCH {
                return Err(ProtoError::BadCount(n));
            }
            let mut entries = Vec::with_capacity(n as usize);
            for _ in 0..n {
                entries.push(decode_stats(&mut c)?);
            }
            Reply::Stats(entries)
        }
        0x84 => Reply::Pong,
        0x85 => Reply::Busy,
        0x86 => {
            let code = c.u8()?;
            let len = c.u16()? as usize;
            let msg = String::from_utf8_lossy(c.take(len)?).into_owned();
            Reply::Err { code, msg }
        }
        op => return Err(ProtoError::BadOpcode(op)),
    };
    c.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(decode_request(&buf), Ok(req));
    }

    fn roundtrip_reply(reply: Reply) {
        let mut buf = Vec::new();
        encode_reply(&reply, &mut buf);
        assert_eq!(decode_reply(&buf), Ok(reply));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Alloc {
            shard: 3,
            strategy: StrategyKind::Uniform,
            count: 256,
        });
        roundtrip_request(Request::Release {
            shard: 0,
            strategy: StrategyKind::Tribles128,
            ids: vec![0, 1, u128::MAX],
        });
        roundtrip_request(Request::Stats { shard: ALL_SHARDS });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Wait {
            shard: 1,
            micros: 50_000,
        });
    }

    #[test]
    fn replies_roundtrip() {
        roundtrip_reply(Reply::Ids(vec![7, u128::MAX, 1 << 96]));
        roundtrip_reply(Reply::Released {
            acked: 10,
            misses: 2,
        });
        roundtrip_reply(Reply::Stats(vec![StrategyStats {
            shard: 2,
            strategy: StrategyKind::Listening,
            bits: 16,
            live_distinct: 100,
            live_total: 101,
            minted: 5000,
            collisions: 3,
            released: 4899,
            release_misses: 1,
            busy: 17,
            predicted_collisions: 2.75,
            eq4_p_collision: 0.0030517578125,
        }]));
        roundtrip_reply(Reply::Pong);
        roundtrip_reply(Reply::Busy);
        roundtrip_reply(Reply::Err {
            code: ErrCode::BadShard as u8,
            msg: "shard 9 out of range".to_string(),
        });
    }

    #[test]
    fn malformed_payloads_error_without_panicking() {
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_request(&[0x7F]), Err(ProtoError::BadOpcode(0x7F)));
        assert_eq!(decode_request(&[0x01, 0, 0]), Err(ProtoError::Truncated));
        // ALLOC with an unknown strategy code.
        assert_eq!(
            decode_request(&[0x01, 0, 0, 99, 1, 0, 0, 0]),
            Err(ProtoError::BadStrategy(99))
        );
        // ALLOC count of zero.
        assert_eq!(
            decode_request(&[0x01, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtoError::BadCount(0))
        );
        // RELEASE declaring more ids than the payload holds.
        assert_eq!(
            decode_request(&[0x02, 0, 0, 0, 2, 0, 0, 0]),
            Err(ProtoError::Truncated)
        );
        // PING with trailing garbage.
        assert_eq!(decode_request(&[0x04, 1]), Err(ProtoError::TrailingBytes));
        assert_eq!(decode_reply(&[0x01]), Err(ProtoError::BadOpcode(0x01)));
    }

    #[test]
    fn oversized_counts_are_rejected() {
        let mut buf = vec![0x01, 0, 0, 0];
        buf.extend_from_slice(&(MAX_BATCH + 1).to_le_bytes());
        assert_eq!(
            decode_request(&buf),
            Err(ProtoError::BadCount(MAX_BATCH + 1))
        );
    }

    #[test]
    fn error_messages_are_capped_at_u16() {
        let mut buf = Vec::new();
        encode_reply(
            &Reply::Err {
                code: 1,
                msg: "x".repeat(100_000),
            },
            &mut buf,
        );
        match decode_reply(&buf).unwrap() {
            Reply::Err { msg, .. } => assert_eq!(msg.len(), u16::MAX as usize),
            other => panic!("unexpected {other:?}"),
        }
    }
}
