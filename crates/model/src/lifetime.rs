//! From efficiency to network lifetime.
//!
//! The point of saving header bits is battery: "every bit transmitted
//! reduces the lifetime of the network" (Pottie, quoted in Section 1),
//! and Section 4.4 notes that on simple low-power radios energy tracks
//! the bits handed to the radio nearly linearly. This module converts
//! the dimensionless efficiency of Eq. 1 into node lifetimes under that
//! linear radio model, making the paper's "increase in efficiency and
//! thus network lifetime" claim (Section 4.3) computable.

use core::fmt;

use crate::efficiency::Efficiency;

/// A node's energy budget and radio cost under the linear model of
/// Section 4.4.
///
/// # Examples
///
/// ```
/// use retri_model::lifetime::EnergyBudget;
/// use retri_model::Efficiency;
///
/// // Two AA cells (~20 kJ) on a 1 µJ/bit radio afford 2·10^10 bits:
/// // 100 days of 10^8 useful bits a day sent at 50% efficiency.
/// let budget = EnergyBudget::new(20_000.0, 1_000.0);
/// let days = budget.lifetime_days(1e8, Efficiency::new(0.5));
/// assert!((days - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EnergyBudget {
    battery_joules: f64,
    tx_nj_per_bit: f64,
}

impl EnergyBudget {
    /// Creates a budget from a battery capacity in joules and a
    /// transmit cost in nanojoules per bit.
    ///
    /// # Panics
    ///
    /// Panics unless both values are positive and finite.
    #[must_use]
    pub fn new(battery_joules: f64, tx_nj_per_bit: f64) -> Self {
        assert!(
            battery_joules.is_finite() && battery_joules > 0.0,
            "battery capacity {battery_joules} J must be positive"
        );
        assert!(
            tx_nj_per_bit.is_finite() && tx_nj_per_bit > 0.0,
            "transmit cost {tx_nj_per_bit} nJ/bit must be positive"
        );
        EnergyBudget {
            battery_joules,
            tx_nj_per_bit,
        }
    }

    /// Total bits the battery can transmit.
    #[must_use]
    pub(crate) fn bits_affordable(&self) -> f64 {
        self.battery_joules * 1e9 / self.tx_nj_per_bit
    }

    /// Node lifetime in days, given the *useful* data the application
    /// needs delivered per day and the transmission efficiency achieved
    /// (Eq. 1). Lower efficiency means more bits on the air for the
    /// same useful data, and a proportionally shorter life.
    ///
    /// # Panics
    ///
    /// Panics if `useful_bits_per_day` is not positive.
    #[must_use]
    pub fn lifetime_days(&self, useful_bits_per_day: f64, efficiency: Efficiency) -> f64 {
        assert!(
            useful_bits_per_day.is_finite() && useful_bits_per_day > 0.0,
            "useful data per day must be positive"
        );
        let bits_on_air_per_day = useful_bits_per_day / efficiency.get();
        self.bits_affordable() / bits_on_air_per_day
    }
}

impl fmt::Display for EnergyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} J battery at {} nJ/bit",
            self.battery_joules, self.tx_nj_per_bit
        )
    }
}

/// Lifetime extension factor of scheme A over scheme B at the same
/// useful-data workload: under the linear radio model this is exactly
/// the efficiency ratio.
///
/// # Examples
///
/// ```
/// use retri_model::lifetime::lifetime_extension;
/// use retri_model::{optimal_id_bits, static_efficiency, DataBits, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// // The paper's headline scenario: optimally sized AFF vs. 32-bit
/// // static addresses extends node lifetime by ~81%.
/// let d = DataBits::new(16)?;
/// let aff = optimal_id_bits(d, Density::new(16)?).efficiency;
/// let stat = static_efficiency(d, IdBits::new(32)?);
/// let factor = lifetime_extension(aff, stat);
/// assert!(factor > 1.8 && factor < 1.82);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn lifetime_extension(a: Efficiency, b: Efficiency) -> f64 {
    a.get() / b.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::static_efficiency;
    use crate::optimal::optimal_id_bits;
    use crate::params::{DataBits, Density, IdBits};

    #[test]
    fn bits_affordable_is_linear() {
        let small = EnergyBudget::new(10.0, 1000.0);
        let big = EnergyBudget::new(20.0, 1000.0);
        assert!((big.bits_affordable() / small.bits_affordable() - 2.0).abs() < 1e-12);
        let cheap = EnergyBudget::new(10.0, 500.0);
        assert!((cheap.bits_affordable() / small.bits_affordable() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lifetime_scales_with_efficiency() {
        let budget = EnergyBudget::new(20_000.0, 1_000.0);
        let half = budget.lifetime_days(1_000_000.0, Efficiency::new(0.5));
        let quarter = budget.lifetime_days(1_000_000.0, Efficiency::new(0.25));
        assert!((half / quarter - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_headline_lifetime_extension() {
        // D=16, T=16: AFF at 9 bits vs 16-bit static = +21%, vs 32-bit
        // static = +81%.
        let d = DataBits::new(16).unwrap();
        let aff = optimal_id_bits(d, Density::new(16).unwrap()).efficiency;
        let vs16 = lifetime_extension(aff, static_efficiency(d, IdBits::new(16).unwrap()));
        let vs32 = lifetime_extension(aff, static_efficiency(d, IdBits::new(32).unwrap()));
        assert!(vs16 > 1.19 && vs16 < 1.22, "vs16 = {vs16}");
        assert!(vs32 > 1.79 && vs32 < 1.83, "vs32 = {vs32}");
    }

    #[test]
    fn concrete_sensor_lifetime_is_plausible() {
        // 20 kJ battery, 1 µJ/bit, 16 useful bits per minute.
        let budget = EnergyBudget::new(20_000.0, 1_000.0);
        let useful_per_day = 16.0 * 60.0 * 24.0;
        let days = budget.lifetime_days(useful_per_day, Efficiency::new(0.6));
        // 2e10 affordable bits / (23040/0.6 per day) ≈ 5.2e5 days: the
        // radio payload is not the bottleneck at this tiny duty — which
        // is exactly why every header bit is such a visible fraction.
        assert!(days > 1e5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_battery() {
        let _ = EnergyBudget::new(0.0, 1000.0);
    }

    #[test]
    fn display_mentions_units() {
        let text = EnergyBudget::new(20.0, 100.0).to_string();
        assert!(text.contains('J'));
        assert!(text.contains("nJ/bit"));
    }
}
