//! Validated parameter newtypes for the analytic model.
//!
//! The model has three inputs, each wrapped in a newtype so the equations
//! cannot be called with arguments transposed ([C-NEWTYPE]):
//!
//! - [`IdBits`] — the identifier (header) width `H`, in bits.
//! - [`DataBits`] — the data payload `D` of one transaction, in bits.
//! - [`Density`] — the transaction density `T`: the average number of
//!   concurrent transactions visible at a single point in the network.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use core::fmt;

/// The inclusive upper bound on identifier width supported by the model.
///
/// 64 bits is far beyond anything the paper considers (its largest static
/// comparator is Ethernet's 48-bit address space) but lets the model
/// express every realistic design point while keeping identifier values
/// representable in a `u64`.
pub(crate) const MAX_ID_BITS: u8 = 64;

/// Error returned when a model parameter is outside its valid domain.
///
/// # Examples
///
/// ```
/// use retri_model::{IdBits, ModelError};
///
/// assert_eq!(IdBits::new(0).unwrap_err(), ModelError::IdBitsOutOfRange(0));
/// assert_eq!(IdBits::new(65).unwrap_err(), ModelError::IdBitsOutOfRange(65));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ModelError {
    /// Identifier width must be in `1..=64` bits.
    IdBitsOutOfRange(u8),
    /// Data size must be at least one bit.
    DataBitsZero,
    /// Transaction density must be at least one (the transaction itself).
    DensityZero,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelError::IdBitsOutOfRange(bits) => {
                write!(f, "identifier width {bits} is outside 1..=64 bits")
            }
            ModelError::DataBitsZero => write!(f, "data size must be at least one bit"),
            ModelError::DensityZero => {
                write!(f, "transaction density must be at least one")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Identifier (header) width `H` in bits, validated to `1..=64`.
///
/// In the paper's model the header of every packet consists solely of a
/// transaction identifier, so this is also the per-packet header size.
///
/// # Examples
///
/// ```
/// use retri_model::IdBits;
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let h = IdBits::new(9)?;
/// assert_eq!(h.get(), 9);
/// assert_eq!(h.space_len(), 512);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct IdBits(u8);

impl IdBits {
    /// Creates an identifier width.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IdBitsOutOfRange`] unless `bits` is in
    /// `1..=64`.
    pub fn new(bits: u8) -> Result<Self, ModelError> {
        if bits == 0 || bits > MAX_ID_BITS {
            Err(ModelError::IdBitsOutOfRange(bits))
        } else {
            Ok(IdBits(bits))
        }
    }

    /// Returns the width in bits.
    #[must_use]
    pub fn get(self) -> u8 {
        self.0
    }

    /// Returns the size of the identifier pool, `2^H`, as a float.
    ///
    /// A float is used because `2^64` overflows `u64` by one; every use in
    /// the model is in floating-point arithmetic anyway.
    #[must_use]
    pub(crate) fn space_size(self) -> f64 {
        (self.0 as f64).exp2()
    }

    /// Returns the number of distinct identifiers as a `u128`.
    ///
    /// Exact for all valid widths, where an `f64` power of two is not.
    #[must_use]
    pub fn space_len(self) -> u128 {
        1u128 << self.0
    }

    /// Iterates over all valid identifier widths, `1..=64`.
    ///
    /// ```
    /// let widths: Vec<u8> = retri_model::IdBits::all().map(|h| h.get()).collect();
    /// assert_eq!(widths.first(), Some(&1));
    /// assert_eq!(widths.last(), Some(&64));
    /// ```
    pub fn all() -> impl Iterator<Item = IdBits> {
        (1..=MAX_ID_BITS).map(IdBits)
    }
}

impl fmt::Display for IdBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

impl TryFrom<u8> for IdBits {
    type Error = ModelError;

    fn try_from(bits: u8) -> Result<Self, Self::Error> {
        IdBits::new(bits)
    }
}

impl From<IdBits> for u8 {
    fn from(bits: IdBits) -> u8 {
        bits.get()
    }
}

/// Data payload `D` of one transaction, in bits (non-zero).
///
/// The paper's headline design point is `D = 16` (a periodic sensor
/// reading of a few bits); Figure 2 uses `D = 128`.
///
/// # Examples
///
/// ```
/// use retri_model::DataBits;
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let d = DataBits::new(16)?;
/// assert_eq!(d.get(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct DataBits(u32);

impl DataBits {
    /// Creates a data size.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DataBitsZero`] if `bits` is zero: a
    /// transaction that carries no data has no defined efficiency.
    pub fn new(bits: u32) -> Result<Self, ModelError> {
        if bits == 0 {
            Err(ModelError::DataBitsZero)
        } else {
            Ok(DataBits(bits))
        }
    }

    /// Returns the payload size in bits.
    #[must_use]
    pub fn get(self) -> u32 {
        self.0
    }

    /// Creates a data size from a whole number of bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DataBitsZero`] if `bytes` is zero.
    pub fn from_bytes(bytes: u32) -> Result<Self, ModelError> {
        DataBits::new(bytes.saturating_mul(8))
    }
}

impl fmt::Display for DataBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} data bits", self.0)
    }
}

impl TryFrom<u32> for DataBits {
    type Error = ModelError;

    fn try_from(bits: u32) -> Result<Self, Self::Error> {
        DataBits::new(bits)
    }
}

impl From<DataBits> for u32 {
    fn from(bits: DataBits) -> u32 {
        bits.get()
    }
}

/// Transaction density `T`: concurrent transactions visible at one point
/// in the network (non-zero).
///
/// `T` counts the transaction under consideration itself, so `T = 1`
/// means "no contention" and the model predicts certain success. The
/// paper evaluates `T ∈ {16, 256, 65536}` in Figures 1–2 and `T = 5` in
/// the testbed experiment of Figure 4.
///
/// # Examples
///
/// ```
/// use retri_model::Density;
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let t = Density::new(16)?;
/// assert_eq!(t.get(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct Density(u64);

impl Density {
    /// Creates a transaction density.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DensityZero`] if `t` is zero.
    pub fn new(t: u64) -> Result<Self, ModelError> {
        if t == 0 {
            Err(ModelError::DensityZero)
        } else {
            Ok(Density(t))
        }
    }

    /// Returns the density value `T`.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Number of potentially conflicting transaction overlaps, `2(T-1)`.
    ///
    /// With all transactions assumed to span equal time, a transaction
    /// overlaps the beginning or end of at most `2(T-1)` others (paper
    /// Section 4.1); this is the exponent of Eq. 4.
    #[must_use]
    pub(crate) fn contending_overlaps(self) -> u64 {
        2 * (self.0 - 1)
    }
}

impl fmt::Display for Density {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T={}", self.0)
    }
}

impl TryFrom<u64> for Density {
    type Error = ModelError;

    fn try_from(t: u64) -> Result<Self, Self::Error> {
        Density::new(t)
    }
}

impl From<Density> for u64 {
    fn from(t: Density) -> u64 {
        t.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_accepts_full_valid_range() {
        for bits in 1..=64u8 {
            assert_eq!(IdBits::new(bits).unwrap().get(), bits);
        }
    }

    #[test]
    fn id_bits_rejects_zero_and_too_large() {
        assert_eq!(IdBits::new(0), Err(ModelError::IdBitsOutOfRange(0)));
        assert_eq!(IdBits::new(65), Err(ModelError::IdBitsOutOfRange(65)));
        assert_eq!(IdBits::new(255), Err(ModelError::IdBitsOutOfRange(255)));
    }

    #[test]
    fn id_bits_space_size_matches_exact_len() {
        for h in IdBits::all() {
            if h.get() < 53 {
                // f64 is exact for powers of two below 2^53.
                assert_eq!(h.space_size() as u128, h.space_len());
            }
        }
        assert_eq!(IdBits::new(64).unwrap().space_len(), 1u128 << 64);
    }

    #[test]
    fn id_bits_all_yields_64_widths() {
        assert_eq!(IdBits::all().count(), 64);
    }

    #[test]
    fn data_bits_from_bytes_multiplies_by_eight() {
        assert_eq!(DataBits::from_bytes(10).unwrap().get(), 80);
        assert_eq!(DataBits::from_bytes(0), Err(ModelError::DataBitsZero));
    }

    #[test]
    fn data_bits_rejects_zero() {
        assert_eq!(DataBits::new(0), Err(ModelError::DataBitsZero));
    }

    #[test]
    fn density_overlaps_formula() {
        assert_eq!(Density::new(1).unwrap().contending_overlaps(), 0);
        assert_eq!(Density::new(5).unwrap().contending_overlaps(), 8);
        assert_eq!(Density::new(16).unwrap().contending_overlaps(), 30);
    }

    #[test]
    fn density_rejects_zero() {
        assert_eq!(Density::new(0), Err(ModelError::DensityZero));
    }

    #[test]
    fn conversions_round_trip() {
        let h = IdBits::try_from(12u8).unwrap();
        assert_eq!(u8::from(h), 12);
        let d = DataBits::try_from(16u32).unwrap();
        assert_eq!(u32::from(d), 16);
        let t = Density::try_from(5u64).unwrap();
        assert_eq!(u64::from(t), 5);
    }

    #[test]
    fn errors_have_nonempty_display() {
        for err in [
            ModelError::IdBitsOutOfRange(0),
            ModelError::DataBitsZero,
            ModelError::DensityZero,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn display_formats_are_informative() {
        assert_eq!(IdBits::new(9).unwrap().to_string(), "9 bits");
        assert_eq!(DataBits::new(16).unwrap().to_string(), "16 data bits");
        assert_eq!(Density::new(5).unwrap().to_string(), "T=5");
    }
}
