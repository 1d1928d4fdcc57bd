//! Virtual time for the simulation.
//!
//! Time is a count of whole seconds since the simulation epoch. By
//! convention the epoch is **Monday 00:00** so that weekday/weekend
//! classification — a first-class feature of the paper's create/drop and
//! disk models (§4.1.3: "weekday vs weekend, hour of the day") — can be
//! derived from the raw tick with no time-zone machinery.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in one minute.
pub const SECS_PER_MINUTE: u64 = 60;
/// Seconds in one hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: u64 = 86_400;
/// Seconds in one week.
pub const SECS_PER_WEEK: u64 = 7 * SECS_PER_DAY;

/// A point in simulated time, in whole seconds since the epoch.
///
/// The epoch is defined to be a Monday at 00:00.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in whole seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

/// Weekday/weekend classification of a [`SimTime`].
///
/// The paper's models treat business days and weekends as distinct regimes
/// (Figure 6 shows clearly separated create-rate distributions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DayKind {
    /// Monday through Friday.
    Weekday,
    /// Saturday and Sunday.
    Weekend,
}

impl DayKind {
    /// All day kinds, in a stable order (useful for iterating model tables).
    pub const ALL: [DayKind; 2] = [DayKind::Weekday, DayKind::Weekend];

    /// Stable index used by model lookup tables (weekday = 0, weekend = 1).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            DayKind::Weekday => 0,
            DayKind::Weekend => 1,
        }
    }
}

impl SimTime {
    /// The simulation epoch (Monday 00:00).
    pub const ZERO: SimTime = SimTime(0);

    /// The end of simulated time; additions saturate here.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a raw number of seconds since the epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Raw seconds since the epoch.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Hour of day in `0..24`.
    #[inline]
    pub fn hour_of_day(self) -> u32 {
        ((self.0 % SECS_PER_DAY) / SECS_PER_HOUR) as u32
    }

    /// Minute within the hour in `0..60`.
    #[inline]
    pub fn minute_of_hour(self) -> u32 {
        ((self.0 % SECS_PER_HOUR) / SECS_PER_MINUTE) as u32
    }

    /// Day index since the epoch (day 0 is a Monday).
    #[inline]
    pub fn day_index(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// Day of week in `0..7`, where 0 is Monday and 6 is Sunday.
    #[inline]
    pub fn day_of_week(self) -> u32 {
        (self.day_index() % 7) as u32
    }

    /// Weekday/weekend classification.
    #[inline]
    pub fn day_kind(self) -> DayKind {
        if self.day_of_week() >= 5 {
            DayKind::Weekend
        } else {
            DayKind::Weekday
        }
    }

    /// Whole hours elapsed since the epoch.
    #[inline]
    pub fn hours_since_epoch(self) -> u64 {
        self.0 / SECS_PER_HOUR
    }

    /// The start of the hour containing this instant.
    #[inline]
    pub fn truncate_to_hour(self) -> SimTime {
        SimTime(self.0 - self.0 % SECS_PER_HOUR)
    }

    /// Saturating subtraction producing a duration.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_minutes(minutes: u64) -> Self {
        SimDuration(minutes * SECS_PER_MINUTE)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * SECS_PER_HOUR)
    }

    /// Construct from whole days.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * SECS_PER_DAY)
    }

    /// Raw seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day_index(),
            self.hour_of_day(),
            self.minute_of_hour(),
            self.0 % SECS_PER_MINUTE
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monday_midnight() {
        assert_eq!(SimTime::ZERO.hour_of_day(), 0);
        assert_eq!(SimTime::ZERO.day_of_week(), 0);
        assert_eq!(SimTime::ZERO.day_kind(), DayKind::Weekday);
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = SimTime::from_secs(25 * SECS_PER_HOUR + 90);
        assert_eq!(t.hour_of_day(), 1);
        assert_eq!(t.minute_of_hour(), 1);
        assert_eq!(t.day_index(), 1);
    }

    #[test]
    fn weekend_classification() {
        // Day 5 = Saturday, day 6 = Sunday, day 7 = Monday again.
        assert_eq!(
            SimTime::from_secs(5 * SECS_PER_DAY).day_kind(),
            DayKind::Weekend
        );
        assert_eq!(
            SimTime::from_secs(6 * SECS_PER_DAY + 3).day_kind(),
            DayKind::Weekend
        );
        assert_eq!(
            SimTime::from_secs(7 * SECS_PER_DAY).day_kind(),
            DayKind::Weekday
        );
    }

    #[test]
    fn truncate_to_hour_rounds_down() {
        let t = SimTime::from_secs(3 * SECS_PER_HOUR + 1234);
        assert_eq!(t.truncate_to_hour().as_secs(), 3 * SECS_PER_HOUR);
        // An exact hour boundary is its own hour's start.
        let exact = SimTime::from_secs(4 * SECS_PER_HOUR);
        assert_eq!(exact.truncate_to_hour(), exact);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = SimTime::from_secs(100);
        let d = SimDuration::from_minutes(5);
        assert_eq!((a + d) - a, d);
        assert_eq!(a.saturating_since(a + d), SimDuration::ZERO);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_days(2).as_secs(), 2 * SECS_PER_DAY);
        assert_eq!(SimDuration::from_hours(3).as_secs(), 3 * SECS_PER_HOUR);
        assert_eq!(SimDuration::from_minutes(2).as_secs(), 120);
        assert_eq!(SimDuration::ZERO.as_secs(), 0);
    }

    #[test]
    fn day_kind_indices_are_stable() {
        assert_eq!(DayKind::Weekday.index(), 0);
        assert_eq!(DayKind::Weekend.index(), 1);
        assert_eq!(DayKind::ALL.len(), 2);
    }

    #[test]
    fn display_formats_day_and_time() {
        let t = SimTime::from_secs(SECS_PER_DAY + 2 * SECS_PER_HOUR + 3 * 60 + 4);
        assert_eq!(format!("{t}"), "d1+02:03:04");
    }
}
