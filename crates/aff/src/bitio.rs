//! Exact bit-granularity serialization.
//!
//! AFF headers are measured in bits — a 9-bit identifier really occupies
//! nine bits on the air — so wire formats cannot be built on byte-aligned
//! buffers. [`BitWriter`] and [`BitReader`] pack and unpack fields of
//! 1–64 bits, most significant bit first.

use core::fmt;

/// Error returned when reading past the end of a bit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPastEndError {
    /// Bits requested.
    pub wanted: u32,
    /// Bits remaining.
    pub available: u64,
}

impl fmt::Display for ReadPastEndError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read of {} bits past end of stream ({} available)",
            self.wanted, self.available
        )
    }
}

impl std::error::Error for ReadPastEndError {}

/// Writes integer fields of arbitrary bit width, MSB first.
///
/// # Examples
///
/// ```
/// use retri_aff::bitio::{BitReader, BitWriter};
///
/// let mut writer = BitWriter::new();
/// writer.write_bits(0b101, 3);
/// writer.write_bits(0x2A, 9);
/// let (bytes, bits) = writer.finish();
/// assert_eq!(bits, 12);
///
/// let mut reader = BitReader::new(&bytes, bits);
/// assert_eq!(reader.read_bits(3).unwrap(), 0b101);
/// assert_eq!(reader.read_bits(9).unwrap(), 0x2A);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> u32 {
        self.bits
    }

    /// Appends the low `width` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or if `value` does not
    /// fit in `width` bits — all three indicate wire-format bugs, not
    /// recoverable conditions.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!((1..=64).contains(&width), "width {width} outside 1..=64");
        assert!(
            width == 64 || value >> width == 0,
            "value {value:#x} does not fit in {width} bits"
        );
        // `left` counts the bits of `value` still to go; they are always
        // its low `left` bits. Top up the partial last byte, then move
        // whole bytes, then start a new byte with the tail.
        let mut left = width;
        let used = self.bits % 8;
        if used != 0 {
            let free = 8 - used;
            let take = free.min(left);
            left -= take;
            let chunk = (value >> left) as u8;
            let last = self.bytes.last_mut().expect("a partial byte exists");
            *last |= chunk << (free - take);
        }
        while left >= 8 {
            left -= 8;
            self.bytes.push((value >> left) as u8);
        }
        if left > 0 {
            self.bytes.push((value << (8 - left)) as u8);
        }
        self.bits += width;
    }

    /// Appends whole bytes (a convenience for byte-aligned payloads; the
    /// stream need not be aligned).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let shift = self.bits % 8;
        if shift == 0 {
            self.bytes.extend_from_slice(bytes);
        } else {
            // Each byte straddles two buffer bytes: its high part fills
            // the partial last byte, its low part starts the next one.
            self.bytes.reserve(bytes.len());
            for &byte in bytes {
                let last = self.bytes.last_mut().expect("a partial byte exists");
                *last |= byte >> shift;
                self.bytes.push(byte << (8 - shift));
            }
        }
        self.bits += bytes.len() as u32 * 8;
    }

    /// Finishes the stream, returning the packed buffer and its exact
    /// bit length.
    #[must_use]
    pub fn finish(self) -> (Vec<u8>, u32) {
        (self.bytes, self.bits)
    }
}

/// Reads integer fields of arbitrary bit width, MSB first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_len: u64,
    cursor: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, of which only the first `bit_len`
    /// bits are valid.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds the buffer.
    #[must_use]
    pub fn new(bytes: &'a [u8], bit_len: u32) -> Self {
        assert!(
            u64::from(bit_len) <= bytes.len() as u64 * 8,
            "bit length {bit_len} exceeds buffer of {} bytes",
            bytes.len()
        );
        BitReader {
            bytes,
            bit_len: u64::from(bit_len),
            cursor: 0,
        }
    }

    /// Bits not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.bit_len - self.cursor
    }

    /// Reads `width` bits as an unsigned integer, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`ReadPastEndError`] if fewer than `width` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, ReadPastEndError> {
        assert!((1..=64).contains(&width), "width {width} outside 1..=64");
        if u64::from(width) > self.remaining() {
            return Err(ReadPastEndError {
                wanted: width,
                available: self.remaining(),
            });
        }
        // The first byte may be entered mid-way and the last left
        // mid-way; every byte between is taken whole.
        let mut index = (self.cursor / 8) as usize;
        let offset = (self.cursor % 8) as u32;
        let head = (8 - offset).min(width);
        let byte = u64::from(self.bytes[index] << offset);
        let mut value = byte >> (8 - head);
        index += 1;
        let mut left = width - head;
        while left >= 8 {
            value = (value << 8) | u64::from(self.bytes[index]);
            index += 1;
            left -= 8;
        }
        if left > 0 {
            value = (value << left) | u64::from(self.bytes[index] >> (8 - left));
        }
        self.cursor += u64::from(width);
        Ok(value)
    }

    /// Reads `len` whole bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ReadPastEndError`] if fewer than `8 * len` bits remain.
    /// The whole bytes that do remain are consumed first, so the error
    /// reports the final partial byte: `wanted` 8, `available` < 8.
    pub fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>, ReadPastEndError> {
        let start = (self.cursor / 8) as usize;
        let shift = (self.cursor % 8) as u32;
        self.skip_bytes(len)?;
        if shift == 0 {
            return Ok(self.bytes[start..start + len].to_vec());
        }
        // Each output byte is the low part of one buffer byte followed by
        // the high part of the next; the next byte exists because the
        // stream's valid bits reach into it.
        Ok(self.bytes[start..=start + len]
            .windows(2)
            .map(|pair| (pair[0] << shift) | (pair[1] >> (8 - shift)))
            .collect())
    }

    /// Advances past `len` whole bytes without copying them, consuming
    /// and failing exactly as [`Self::read_bytes`] does.
    pub(crate) fn skip_bytes(&mut self, len: usize) -> Result<(), ReadPastEndError> {
        let whole = self.remaining() / 8;
        if len as u64 > whole {
            self.cursor += whole * 8;
            return Err(ReadPastEndError {
                wanted: 8,
                available: self.remaining(),
            });
        }
        self.cursor += len as u64 * 8;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut writer = BitWriter::new();
        writer.write_bits(1, 1);
        writer.write_bits(0x1FF, 9);
        writer.write_bits(0xABCD, 16);
        writer.write_bits(0, 3);
        writer.write_bits(u64::MAX, 64);
        let (bytes, bits) = writer.finish();
        assert_eq!(bits, 1 + 9 + 16 + 3 + 64);

        let mut reader = BitReader::new(&bytes, bits);
        assert_eq!(reader.read_bits(1).unwrap(), 1);
        assert_eq!(reader.read_bits(9).unwrap(), 0x1FF);
        assert_eq!(reader.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(reader.read_bits(3).unwrap(), 0);
        assert_eq!(reader.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn bytes_round_trip_unaligned() {
        let mut writer = BitWriter::new();
        writer.write_bits(0b11, 2); // force misalignment
        writer.write_bytes(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let (bytes, bits) = writer.finish();
        let mut reader = BitReader::new(&bytes, bits);
        assert_eq!(reader.read_bits(2).unwrap(), 0b11);
        assert_eq!(reader.read_bytes(4).unwrap(), vec![0xDE, 0xAD, 0xBE, 0xEF]);
    }

    #[test]
    fn buffer_length_is_exact_ceiling() {
        let mut writer = BitWriter::new();
        writer.write_bits(0, 9);
        let (bytes, bits) = writer.finish();
        assert_eq!(bits, 9);
        assert_eq!(bytes.len(), 2);
    }

    #[test]
    fn msb_first_layout() {
        let mut writer = BitWriter::new();
        writer.write_bits(0b1, 1);
        writer.write_bits(0b0000000, 7);
        let (bytes, _) = writer.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn read_past_end_is_error_not_panic() {
        let mut reader = BitReader::new(&[0xFF], 8);
        assert_eq!(reader.read_bits(8).unwrap(), 0xFF);
        let err = reader.read_bits(1).unwrap_err();
        assert_eq!(
            err,
            ReadPastEndError {
                wanted: 1,
                available: 0
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn partial_final_byte_is_respected() {
        // Only 3 bits valid in a one-byte buffer.
        let mut reader = BitReader::new(&[0b1010_0000], 3);
        assert_eq!(reader.read_bits(3).unwrap(), 0b101);
        assert!(reader.read_bits(1).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflowing_value_panics() {
        let mut writer = BitWriter::new();
        writer.write_bits(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "outside 1..=64")]
    fn zero_width_panics() {
        let mut writer = BitWriter::new();
        writer.write_bits(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn reader_rejects_overlong_bit_len() {
        let _ = BitReader::new(&[0u8], 9);
    }
}
