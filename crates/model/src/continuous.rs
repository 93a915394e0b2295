//! Real-valued identifier widths and the shape of the efficiency curve.
//!
//! Identifier widths are whole bits on the wire, but treating `H` as a
//! real number exposes the structure of the optimum in Section 4.2: the
//! peak of `E(h) = D/(D+h) · (1 - 2^-h)^(2(T-1))` balances header
//! amortization against collision probability. This module evaluates the
//! continuous curve and locates its maximum, which brackets the integer
//! optimum found by [`crate::optimal::optimal_id_bits`].

use crate::params::{DataBits, Density};

/// Continuous-width AFF efficiency `E(h)` for real `h > 0`.
///
/// Matches [`crate::aff_efficiency`] exactly at integer widths.
///
/// # Examples
///
/// [`optimal_width`] reports the peak of this curve. Because the curve
/// meets the discrete one at whole bits, that peak is at least the best
/// whole-bit efficiency (9 bits at `T = 16`):
///
/// ```
/// use retri_model::continuous::optimal_width;
/// use retri_model::{aff_efficiency, DataBits, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let d = DataBits::new(16)?;
/// let t = Density::new(16)?;
/// let (_, e_star) = optimal_width(d, t);
/// let discrete = aff_efficiency(d, IdBits::new(9)?, t).get();
/// assert!(e_star >= discrete - 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub(crate) fn efficiency_at(data: DataBits, density: Density, h: f64) -> f64 {
    assert!(h > 0.0 && h.is_finite(), "width must be positive, got {h}");
    let d = data.get() as f64;
    let p = (1.0 - (-h).exp2()).powf(density.contending_overlaps() as f64);
    d / (d + h) * p
}

/// Locates the real-valued width maximizing `E(h)` via golden-section
/// search on `[0.01, 64]`.
///
/// The efficiency curve is unimodal on this interval for every parameter
/// combination the model admits (it rises while collision suppression
/// dominates and falls once header amortization dominates), which is the
/// precondition golden-section search needs.
///
/// Returns `(h_star, e_star)`.
///
/// # Examples
///
/// ```
/// use retri_model::continuous::optimal_width;
/// use retri_model::{optimal_id_bits, DataBits, Density};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let d = DataBits::new(16)?;
/// let t = Density::new(16)?;
/// let (h_star, _) = optimal_width(d, t);
/// let integer = optimal_id_bits(d, t).id_bits.get() as f64;
/// // The integer optimum lies within one bit of the continuous peak.
/// assert!((h_star - integer).abs() <= 1.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn optimal_width(data: DataBits, density: Density) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut lo = 0.01f64;
    let mut hi = 64.0f64;
    let mut c = hi - (hi - lo) * INV_PHI;
    let mut d_pt = lo + (hi - lo) * INV_PHI;
    let mut fc = efficiency_at(data, density, c);
    let mut fd = efficiency_at(data, density, d_pt);
    for _ in 0..200 {
        if fc > fd {
            hi = d_pt;
            d_pt = c;
            fd = fc;
            c = hi - (hi - lo) * INV_PHI;
            fc = efficiency_at(data, density, c);
        } else {
            lo = c;
            c = d_pt;
            fc = fd;
            d_pt = lo + (hi - lo) * INV_PHI;
            fd = efficiency_at(data, density, d_pt);
        }
        if hi - lo < 1e-10 {
            break;
        }
    }
    let h_star = (lo + hi) / 2.0;
    (h_star, efficiency_at(data, density, h_star))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::aff_efficiency;
    use crate::optimal::optimal_id_bits;
    use crate::params::IdBits;

    fn d(bits: u32) -> DataBits {
        DataBits::new(bits).unwrap()
    }
    fn t(density: u64) -> Density {
        Density::new(density).unwrap()
    }

    #[test]
    fn continuous_matches_discrete_at_integers() {
        for bits in 1..=32u8 {
            let discrete = aff_efficiency(d(16), IdBits::new(bits).unwrap(), t(16)).get();
            let continuous = efficiency_at(d(16), t(16), bits as f64);
            assert!((discrete - continuous).abs() < 1e-12, "H={bits}");
        }
    }

    #[test]
    fn continuous_peak_brackets_integer_optimum() {
        for (data, density) in [
            (16u32, 16u64),
            (16, 256),
            (128, 16),
            (128, 256),
            (16, 65536),
        ] {
            let (h_star, e_star) = optimal_width(d(data), t(density));
            let integer = optimal_id_bits(d(data), t(density));
            assert!(
                (h_star - integer.id_bits.get() as f64).abs() <= 1.0,
                "D={data} T={density}: continuous {h_star} vs integer {}",
                integer.id_bits
            );
            // The continuous peak can only be at least as high as the
            // best integer point.
            assert!(e_star >= integer.efficiency.get() - 1e-12);
        }
    }

    #[test]
    fn peak_efficiency_bounded_by_no_collision_envelope() {
        let (h_star, e_star) = optimal_width(d(16), t(16));
        // E(h) <= D/(D+h) everywhere.
        assert!(e_star <= 16.0 / (16.0 + h_star) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn rejects_nonpositive_width() {
        let _ = efficiency_at(d(16), t(16), 0.0);
    }

    #[test]
    fn golden_section_converges_tightly() {
        let (h1, _) = optimal_width(d(16), t(16));
        let (h2, _) = optimal_width(d(16), t(16));
        assert_eq!(h1, h2, "search must be deterministic");
        // Perturbing by a hair around the optimum must not do better.
        let e_star = efficiency_at(d(16), t(16), h1);
        for delta in [-0.01, 0.01] {
            assert!(efficiency_at(d(16), t(16), h1 + delta) <= e_star + 1e-9);
        }
    }
}
