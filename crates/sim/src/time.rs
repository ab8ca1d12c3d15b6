//! Simulated time: instants and durations with millisecond resolution.
//!
//! No wall-clock time is used anywhere in the workspace's library code;
//! all timestamps are [`SimTime`] measured from the simulation epoch.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (milliseconds since the simulation epoch).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// Creates an instant from seconds since the epoch.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1000)
    }

    /// Creates an instant from minutes since the epoch.
    pub const fn from_mins(m: u64) -> SimTime {
        SimTime(m * 60_000)
    }

    /// Creates an instant from hours since the epoch.
    pub const fn from_hours(h: u64) -> SimTime {
        SimTime(h * 3_600_000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Hours since the epoch, fractional.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Duration since an earlier instant; saturates to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The hour-of-day in `[0, 24)` assuming the epoch is midnight.
    pub fn hour_of_day(self) -> f64 {
        (self.0 % 86_400_000) as f64 / 3_600_000.0
    }

    /// The day index since the epoch (day 0, day 1, ...).
    pub const fn day_index(self) -> u64 {
        self.0 / 86_400_000
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1000)
    }

    /// From minutes.
    pub const fn from_mins(m: u64) -> SimDuration {
        SimDuration(m * 60_000)
    }

    /// From hours.
    pub const fn from_hours(h: u64) -> SimDuration {
        SimDuration(h * 3_600_000)
    }

    /// In milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// In whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// In hours, fractional.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Scales a duration by a float factor (used for jitter), rounding to
    /// the nearest millisecond and saturating at zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor).max(0.0).round() as u64)
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}h", self.as_hours_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let within = self.0 % 86_400_000;
        let h = within / 3_600_000;
        let m = (within % 3_600_000) / 60_000;
        let s = (within % 60_000) / 1000;
        write!(f, "d{day} {h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1000 {
            write!(f, "{}ms", self.0)
        } else if self.0 < 3_600_000 {
            write!(f, "{:.1}s", self.0 as f64 / 1000.0)
        } else {
            write!(f, "{:.2}h", self.as_hours_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_hours(1).as_secs(), 3600);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t.as_secs(), 15);
        assert_eq!((t - SimTime::from_secs(10)).as_secs(), 5);
        // Saturating subtraction.
        assert_eq!(
            (SimTime::from_secs(1) - SimTime::from_secs(9)).as_millis(),
            0
        );
    }

    #[test]
    fn day_and_hour() {
        let t = SimTime::from_hours(49) + SimDuration::from_mins(30);
        assert_eq!(t.day_index(), 2);
        assert!((t.hour_of_day() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_hours(26) + SimDuration::from_secs(61);
        assert_eq!(t.to_string(), "d1 02:01:01");
    }

    #[test]
    fn jitter_scaling() {
        let d = SimDuration::from_secs(100).mul_f64(1.5);
        assert_eq!(d.as_secs(), 150);
        assert_eq!(SimDuration::from_secs(1).mul_f64(-2.0), SimDuration::ZERO);
    }
}
