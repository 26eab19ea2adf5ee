//! Virtual time for the discrete-event simulator.
//!
//! Time is an integer nanosecond count so event ordering is exact and the
//! simulation is bit-for-bit reproducible across runs and platforms —
//! floating-point clocks accumulate rounding that can flip event order and
//! make speed-up curves jitter.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Duration {
    /// Zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Duration(0);
        }
        Duration((secs * 1e9).round() as u64)
    }

    /// Nanosecond count.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(&self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Scales the duration by a non-negative floating factor.
    pub fn mul_f64(&self, factor: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

/// An absolute point on the virtual clock, in nanoseconds since simulation
/// start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point from nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time point from fractional seconds since the epoch.
    #[cfg(test)]
    pub(crate) fn from_secs_f64(secs: f64) -> Self {
        SimTime(Duration::from_secs_f64(secs).as_nanos())
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since an earlier time (saturating at zero).
    pub fn since(&self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos()))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3000));
        assert_eq!(Duration::from_micros(5), Duration::from_nanos(5000));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(Duration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::INFINITY), Duration::ZERO);
    }

    #[test]
    fn round_trip_secs() {
        let d = Duration::from_secs_f64(0.123456789);
        assert!((d.as_secs_f64() - 0.123456789).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(10);
        let b = Duration::from_millis(3);
        assert_eq!((a + b).as_nanos(), 13_000_000);
        assert_eq!((a - b).as_nanos(), 7_000_000);
        assert_eq!((b - a), Duration::ZERO); // saturating
        assert_eq!(a.saturating_mul(4).as_nanos(), 40_000_000);
        assert_eq!(a.mul_f64(0.5).as_nanos(), 5_000_000);
    }

    #[test]
    fn simtime_advances_and_measures() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(t1.since(t0), Duration::from_secs(1));
        assert_eq!(t0.since(t1), Duration::ZERO);
        assert_eq!(t1.max(t0), t1);
    }

    #[test]
    fn simtime_ordering_is_total() {
        let times = [
            SimTime::from_nanos(5),
            SimTime::ZERO,
            SimTime::from_nanos(3),
        ];
        let mut sorted = times;
        sorted.sort();
        assert_eq!(
            sorted,
            [
                SimTime::ZERO,
                SimTime::from_nanos(3),
                SimTime::from_nanos(5)
            ]
        );
    }
}
