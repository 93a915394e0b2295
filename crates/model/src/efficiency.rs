//! The core efficiency equations (paper Eqs. 1–4).
//!
//! Terminology follows the paper: `D` data bits, `H` identifier bits, `T`
//! transaction density, `E` efficiency (useful bits received per bit
//! transmitted).

use core::fmt;

use crate::params::{DataBits, Density, IdBits};

/// An efficiency value in `[0, 1]`: useful bits received per bit
/// transmitted (paper Eq. 1).
///
/// Wrapping the raw `f64` keeps efficiencies from being confused with
/// probabilities at call sites and centralizes the range invariant.
///
/// # Examples
///
/// ```
/// use retri_model::{static_efficiency, DataBits, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let e = static_efficiency(DataBits::new(16)?, IdBits::new(16)?);
/// assert_eq!(e.get(), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct Efficiency(f64);

impl Efficiency {
    /// Creates an efficiency from a raw ratio.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not within `[0, 1]` or is NaN. Efficiencies
    /// are only produced internally from the model equations, which cannot
    /// leave that range; the assertion guards against arithmetic bugs.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&value),
            "efficiency {value} outside [0, 1]"
        );
        Efficiency(value)
    }

    /// Returns the efficiency as a ratio in `[0, 1]`.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns the efficiency as a percentage in `[0, 100]`.
    #[must_use]
    pub(crate) fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Total ordering on efficiencies via [`f64::total_cmp`].
    ///
    /// `Efficiency` values themselves cannot be NaN ([`Efficiency::new`]
    /// rejects it), but call sites that rank efficiencies often mix in
    /// sentinel `f64`s (e.g. `NEG_INFINITY` or NaN for out-of-domain
    /// sweep cells), where `partial_cmp(..).unwrap()` panics. Use this
    /// everywhere an ordering is needed.
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Efficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.as_percent())
    }
}

/// Efficiency of static, guaranteed-unique allocation (paper Eq. 2).
///
/// `E_static = D / (D + H)`. No transaction is ever lost to identifier
/// collisions, so efficiency is exactly the data fraction of the bits
/// on air.
///
/// # Examples
///
/// ```
/// use retri_model::{static_efficiency, DataBits, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// // The two flat lines of Figure 1: 16-bit data under 16- and 32-bit
/// // static addresses.
/// let d = DataBits::new(16)?;
/// assert_eq!(static_efficiency(d, IdBits::new(16)?).get(), 0.5);
/// let e32 = static_efficiency(d, IdBits::new(32)?);
/// assert!((e32.get() - 1.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn static_efficiency(data: DataBits, header: IdBits) -> Efficiency {
    let d = data.get() as f64;
    let h = header.get() as f64;
    Efficiency::new(d / (d + h))
}

/// Probability that a transaction survives identifier collisions
/// (paper Eq. 4).
///
/// `P(success) = (1 - 2^-H)^(2(T-1))` under the most pessimistic
/// assumption: every node draws identifiers uniformly at random with no
/// learned state, so each of the up to `2(T-1)` overlapping transactions
/// independently collides with probability `2^-H`.
///
/// This is a *lower bound* on the success probability achievable in
/// practice; the listening heuristic ([`crate::listening`]) does better.
///
/// # Examples
///
/// ```
/// use retri_model::{p_success, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// // One lone transaction can never collide.
/// assert_eq!(p_success(IdBits::new(1)?, Density::new(1)?), 1.0);
///
/// // The Figure 4 testbed point: T=5 senders, 8-bit identifiers.
/// let p = p_success(IdBits::new(8)?, Density::new(5)?);
/// assert!((p - (1.0 - 1.0 / 256.0f64).powi(8)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn p_success(id: IdBits, density: Density) -> f64 {
    let per_overlap_survival = 1.0 - 1.0 / id.space_size();
    per_overlap_survival.powf(density.contending_overlaps() as f64)
}

/// Probability that a transaction is lost to an identifier collision:
/// `1 - P(success)`.
///
/// This is the quantity plotted in the paper's Figure 4 ("collision
/// rate").
///
/// # Examples
///
/// ```
/// use retri_model::{p_collision, p_success, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let h = IdBits::new(4)?;
/// let t = Density::new(5)?;
/// assert!((p_collision(h, t) + p_success(h, t) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn p_collision(id: IdBits, density: Density) -> f64 {
    1.0 - p_success(id, density)
}

/// Efficiency of Address-Free Fragmentation (paper Eq. 3).
///
/// `E_aff = D × P(success) / (D + H)`: the bits of failed transactions
/// are spent but deliver nothing useful, so the data fraction is scaled
/// by the success probability of Eq. 4.
///
/// # Examples
///
/// ```
/// use retri_model::{aff_efficiency, static_efficiency, DataBits, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let d = DataBits::new(16)?;
/// // With a huge identifier space collisions vanish and AFF converges
/// // to the static formula for the same header size.
/// let aff = aff_efficiency(d, IdBits::new(48)?, Density::new(16)?);
/// let stat = static_efficiency(d, IdBits::new(48)?);
/// assert!((aff.get() - stat.get()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn aff_efficiency(data: DataBits, id: IdBits, density: Density) -> Efficiency {
    let base = static_efficiency(data, id).get();
    Efficiency::new(base * p_success(id, density))
}

/// A fixed AFF design point: data size and transaction density.
///
/// Bundles the two scenario parameters of the model so the remaining
/// free variable — the identifier width — can be swept, optimized, or
/// compared against static allocation.
///
/// # Examples
///
/// ```
/// use retri_model::{AffModel, DataBits, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let model = AffModel::new(DataBits::new(16)?, Density::new(16)?);
/// let nine = IdBits::new(9)?;
/// assert!(model.efficiency(nine).get() > 0.6);
/// assert_eq!(model.optimal_id_bits(), nine);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AffModel {
    data: DataBits,
    density: Density,
}

impl AffModel {
    /// Creates a model for a given data size and transaction density.
    #[must_use]
    pub fn new(data: DataBits, density: Density) -> Self {
        AffModel { data, density }
    }

    /// Returns the data size `D`.
    #[must_use]
    pub fn data(&self) -> DataBits {
        self.data
    }

    /// Returns the transaction density `T`.
    #[must_use]
    pub fn density(&self) -> Density {
        self.density
    }

    /// AFF efficiency at identifier width `id` (Eq. 3).
    #[must_use]
    pub fn efficiency(&self, id: IdBits) -> Efficiency {
        aff_efficiency(self.data, id, self.density)
    }

    /// Success probability at identifier width `id` (Eq. 4).
    #[must_use]
    pub fn p_success(&self, id: IdBits) -> f64 {
        p_success(id, self.density)
    }

    /// Collision probability at identifier width `id`.
    #[must_use]
    pub fn p_collision(&self, id: IdBits) -> f64 {
        p_collision(id, self.density)
    }

    /// Efficiency of a static allocation with the same data size (Eq. 2).
    #[must_use]
    pub fn static_efficiency(&self, address: IdBits) -> Efficiency {
        static_efficiency(self.data, address)
    }

    /// The identifier width maximizing AFF efficiency for this scenario.
    ///
    /// Equivalent to [`crate::optimal::optimal_id_bits`]; provided as a
    /// method for discoverability.
    #[must_use]
    pub fn optimal_id_bits(&self) -> IdBits {
        crate::optimal::optimal_id_bits(self.data, self.density).id_bits
    }
}

impl fmt::Display for AffModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AFF model (D={}, {})", self.data.get(), self.density)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(bits: u32) -> DataBits {
        DataBits::new(bits).unwrap()
    }
    fn h(bits: u8) -> IdBits {
        IdBits::new(bits).unwrap()
    }
    fn t(density: u64) -> Density {
        Density::new(density).unwrap()
    }

    #[test]
    fn static_efficiency_matches_paper_flat_lines() {
        // Figure 1: 16-bit data under 16-bit static addresses -> 50%,
        // under 32-bit static addresses -> 33%.
        assert!((static_efficiency(d(16), h(16)).get() - 0.5).abs() < 1e-12);
        assert!((static_efficiency(d(16), h(32)).get() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn p_success_is_one_without_contention() {
        for bits in [1, 8, 16, 32, 64] {
            assert_eq!(p_success(h(bits), t(1)), 1.0);
        }
    }

    #[test]
    fn p_success_increases_with_id_bits() {
        let density = t(16);
        let mut last = 0.0;
        for bits in 1..=64 {
            let p = p_success(h(bits), density);
            assert!(p >= last, "P(success) must be nondecreasing in H");
            last = p;
        }
        assert!(last > 0.999999);
    }

    #[test]
    fn p_success_decreases_with_density() {
        let id = h(8);
        let mut last = 1.0;
        for density in [1u64, 2, 4, 8, 16, 256, 65536] {
            let p = p_success(id, t(density));
            assert!(p <= last, "P(success) must be nonincreasing in T");
            last = p;
        }
    }

    #[test]
    fn p_success_closed_form_spot_check() {
        // H=1, T=2: (1 - 1/2)^2 = 0.25
        assert!((p_success(h(1), t(2)) - 0.25).abs() < 1e-12);
        // H=2, T=3: (3/4)^4 = 0.31640625
        assert!((p_success(h(2), t(3)) - 0.31640625).abs() < 1e-12);
    }

    #[test]
    fn p_collision_complements_p_success() {
        for bits in [1u8, 4, 9, 16] {
            for density in [1u64, 5, 16, 256] {
                let sum = p_success(h(bits), t(density)) + p_collision(h(bits), t(density));
                assert!((sum - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn aff_efficiency_never_exceeds_static_at_same_width() {
        for bits in 1..=32 {
            let aff = aff_efficiency(d(16), h(bits), t(16));
            let stat = static_efficiency(d(16), h(bits));
            assert!(aff <= stat);
        }
    }

    #[test]
    fn aff_with_64_bit_ids_collides_never_in_practice() {
        let aff = aff_efficiency(d(16), h(64), t(65536));
        let stat = static_efficiency(d(16), h(64));
        assert!((aff.get() - stat.get()).abs() < 1e-9);
    }

    #[test]
    fn model_accessors_round_trip() {
        let m = AffModel::new(d(128), t(256));
        assert_eq!(m.data().get(), 128);
        assert_eq!(m.density().get(), 256);
        assert_eq!(m.to_string(), "AFF model (D=128, T=256)");
    }

    #[test]
    fn efficiency_display_is_percentage() {
        assert_eq!(Efficiency::new(0.5).to_string(), "50.00%");
        assert_eq!(Efficiency::new(0.5).as_percent(), 50.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn efficiency_rejects_out_of_range() {
        let _ = Efficiency::new(1.5);
    }

    #[test]
    fn paper_headline_nine_bits_beats_static() {
        // Section 4.2: "AFF works optimally with only 9 identifier bits in
        // a network where there are an average of 16 simultaneous
        // transactions ... more efficient than a static assignment that
        // might need 16 or 32 bits."
        let m = AffModel::new(d(16), t(16));
        let e9 = m.efficiency(h(9));
        assert!(e9 > static_efficiency(d(16), h(16)));
        assert!(e9 > static_efficiency(d(16), h(32)));
    }

    #[test]
    fn extreme_case_no_room_for_aff() {
        // Section 4.2: with 64K concurrent transactions a 16-bit static
        // space is fully utilized and AFF cannot win at any width.
        let m = AffModel::new(d(16), t(65536));
        let static16 = static_efficiency(d(16), h(16));
        for bits in 1..=64 {
            assert!(m.efficiency(h(bits)) <= static16);
        }
    }
}
