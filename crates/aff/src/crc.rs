//! CRC-16/CCITT-FALSE packet checksum.
//!
//! The paper's introduction fragment carries a packet checksum, and
//! "packets that suffer from identifier collisions are never delivered
//! because of checksum failures or other inconsistencies" (Section 5).
//! A 16-bit CRC detects all single- and double-bit errors and any burst
//! up to 16 bits; for the collision case — fragments of two different
//! packets interleaved into one buffer — the residual false-accept
//! probability is 2⁻¹⁶, negligible next to the collision rates under
//! study.

/// Computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no
/// reflection).
///
/// # Examples
///
/// ```
/// use retri_aff::crc::crc16;
///
/// // The standard check value for "123456789".
/// assert_eq!(crc16(b"123456789"), 0x29B1);
/// ```
#[must_use]
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input_is_init_value() {
        assert_eq!(crc16(&[]), 0xFFFF);
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base: Vec<u8> = (0u8..64).collect();
        let reference = crc16(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(
                    crc16(&corrupted),
                    reference,
                    "undetected flip at {byte}.{bit}"
                );
            }
        }
    }

    #[test]
    fn swapped_blocks_are_detected() {
        // The collision failure mode: two packets' fragments interleave.
        let a: Vec<u8> = vec![0x11; 40];
        let b: Vec<u8> = vec![0x22; 40];
        let mut mixed = a.clone();
        mixed[20..40].copy_from_slice(&b[20..40]);
        assert_ne!(crc16(&mixed), crc16(&a));
        assert_ne!(crc16(&mixed), crc16(&b));
    }

    #[test]
    fn crc_depends_on_order() {
        assert_ne!(crc16(&[1, 2, 3]), crc16(&[3, 2, 1]));
    }
}
