//! Simulated time.
//!
//! The simulator's clock is a monotone `u64` count of **microseconds**
//! since the start of the run. Microsecond resolution comfortably
//! resolves individual bit times at sensor-radio bitrates (a bit at
//! 40 kbit/s lasts 25 µs) while allowing runs of half a million years —
//! enough for any experiment.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since the run started).
///
/// # Examples
///
/// ```
/// use retri_netsim::{SimDuration, SimTime};
///
/// let t = SimTime::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(t.as_micros(), 2_500);
/// assert!(t < SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// This instant as microseconds since the start.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as (fractional) seconds since the start.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `duration` after this one, or `None` past the last
    /// instant (`u64::MAX` µs), which the engine never schedules.
    ///
    /// # Examples
    ///
    /// ```
    /// use retri_netsim::{SimDuration, SimTime};
    ///
    /// let top = SimTime::from_micros(u64::MAX);
    /// let d = SimDuration::from_micros(1);
    /// assert_eq!(SimTime::ZERO.checked_add(d), Some(SimTime::from_micros(1)));
    /// assert_eq!(top.checked_add(d), None);
    /// ```
    #[must_use]
    pub fn checked_add(self, duration: SimDuration) -> Option<SimTime> {
        self.0.checked_add(duration.0).map(SimTime)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

/// A span of simulated time (microseconds).
///
/// # Examples
///
/// ```
/// use retri_netsim::SimDuration;
///
/// let d = SimDuration::from_millis(1) * 3;
/// assert_eq!(d.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span from seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// The span in microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The airtime of `bits` bits at `bitrate_bps`, rounded up to the
    /// next microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate_bps` is zero.
    #[must_use]
    pub(crate) fn of_bits(bits: u64, bitrate_bps: u64) -> Self {
        assert!(bitrate_bps > 0, "bitrate must be positive");
        // micros = bits * 1e6 / rate, rounded up.
        let micros = (bits as u128 * 1_000_000).div_ceil(bitrate_bps as u128);
        SimDuration(micros as u64)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl core::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert!((SimTime::from_micros(1_500_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_micros(100) + SimDuration::from_micros(50);
        assert_eq!(t.as_micros(), 150);
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_micros(7);
        assert_eq!(t2.as_micros(), 7);
        assert_eq!((t - t2).as_micros(), 143);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(30);
        assert_eq!(late.since(early).as_micros(), 20);
        assert_eq!(early.since(late).as_micros(), 0);
    }

    #[test]
    fn airtime_rounds_up() {
        // 27 bytes at 40 kbit/s: 216 bits -> 5400 µs exactly.
        assert_eq!(SimDuration::of_bits(216, 40_000).as_micros(), 5_400);
        // 1 bit at 3 bps -> 333333.33 µs, rounds to 333334.
        assert_eq!(SimDuration::of_bits(1, 3).as_micros(), 333_334);
        assert_eq!(SimDuration::of_bits(0, 1_000).as_micros(), 0);
    }

    #[test]
    #[should_panic(expected = "bitrate must be positive")]
    fn airtime_rejects_zero_bitrate() {
        let _ = SimDuration::of_bits(8, 0);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!((SimDuration::from_micros(10) * 5).as_micros(), 50);
        assert_eq!(
            (SimDuration::from_micros(1) + SimDuration::from_micros(2)).as_micros(),
            3
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500000s");
        assert_eq!(SimDuration::from_micros(250).to_string(), "0.000250s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) > SimDuration::from_micros(999));
    }
}
