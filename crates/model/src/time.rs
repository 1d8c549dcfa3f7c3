//! Exact integer time arithmetic.
//!
//! All times in this crate are integer nanoseconds wrapped in [`TimeNs`].
//! Using integers keeps hyperperiod arithmetic (LCMs over task periods) exact,
//! which the LET semantics relies on: a communication instant is *exactly* a
//! multiple of a period, never approximately.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in time or a duration, in integer nanoseconds.
///
/// `TimeNs` is used both for absolute instants (relative to the synchronous
/// system start `s_0 = 0`) and for durations (periods, latencies, overheads);
/// the LET model never needs negative times, so the representation is
/// unsigned and subtraction panics on underflow in debug builds (and is
/// checked through [`TimeNs::checked_sub`] where underflow is a real
/// possibility).
///
/// # Examples
///
/// ```
/// use letdma_model::TimeNs;
///
/// let period = TimeNs::from_ms(5);
/// assert_eq!(period.as_ns(), 5_000_000);
/// assert_eq!(period * 3, TimeNs::from_ms(15));
/// assert_eq!(TimeNs::from_us(10) + TimeNs::from_us(5), TimeNs::from_us(15));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeNs(u64);

impl TimeNs {
    /// The time origin `s_0 = 0` (also the zero duration).
    pub const ZERO: Self = Self(0);

    /// Largest representable time.
    pub const MAX: Self = Self(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    #[must_use]
    pub const fn from_s(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Checked subtraction; `None` when `rhs > self`.
    #[must_use]
    pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Returns `true` if this time is an exact multiple of `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn is_multiple_of(self, period: Self) -> bool {
        assert!(period.0 != 0, "period must be nonzero");
        self.0 % period.0 == 0
    }

    /// Least common multiple of two times, e.g. of two task periods.
    ///
    /// # Panics
    ///
    /// Panics if either operand is zero or if the LCM overflows `u64`.
    #[must_use]
    pub fn lcm(self, other: Self) -> Self {
        Self(lcm_u64(self.0, other.0))
    }

    /// Greatest common divisor of two times.
    #[must_use]
    pub const fn gcd(self, other: Self) -> Self {
        Self(gcd_u64(self.0, other.0))
    }
}

impl fmt::Display for TimeNs {
    /// Pretty-prints with an adaptive unit: `ns`, `µs`, `ms` or `s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0")
        } else if ns % 1_000_000_000 == 0 {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns % 1_000_000 == 0 {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns % 1_000 == 0 {
            write!(f, "{}µs", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for TimeNs {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for TimeNs {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeNs {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<TimeNs> for TimeNs {
    type Output = u64;
    /// Integer division of two times (e.g. `H / T_i` = number of jobs).
    fn div(self, rhs: TimeNs) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<TimeNs> for TimeNs {
    type Output = TimeNs;
    fn rem(self, rhs: TimeNs) -> TimeNs {
        Self(self.0 % rhs.0)
    }
}

impl Sum for TimeNs {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

/// Greatest common divisor on raw `u64` values (Euclid).
#[must_use]
pub const fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple on raw `u64` values.
///
/// # Panics
///
/// Panics if `a == 0`, `b == 0`, or the result overflows `u64`.
#[must_use]
pub fn lcm_u64(a: u64, b: u64) -> u64 {
    assert!(a != 0 && b != 0, "lcm of zero is undefined here");
    let g = gcd_u64(a, b);
    (a / g).checked_mul(b).expect("lcm overflow")
}

/// Ceiling division `⌈a / b⌉` on `u64`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[must_use]
pub const fn div_ceil_u64(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(TimeNs::from_us(1), TimeNs::from_ns(1_000));
        assert_eq!(TimeNs::from_ms(1), TimeNs::from_us(1_000));
        assert_eq!(TimeNs::from_s(1), TimeNs::from_ms(1_000));
    }

    #[test]
    fn display_adapts_unit() {
        assert_eq!(TimeNs::ZERO.to_string(), "0");
        assert_eq!(TimeNs::from_ns(7).to_string(), "7ns");
        assert_eq!(TimeNs::from_us(3).to_string(), "3µs");
        assert_eq!(TimeNs::from_ms(12).to_string(), "12ms");
        assert_eq!(TimeNs::from_s(2).to_string(), "2s");
        // 1500 µs is not an integer ms, so it stays in µs.
        assert_eq!(TimeNs::from_us(1_500).to_string(), "1500µs");
    }

    #[test]
    fn lcm_gcd_basics() {
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(lcm_u64(4, 6), 12);
        assert_eq!(
            TimeNs::from_ms(5).lcm(TimeNs::from_ms(15)),
            TimeNs::from_ms(15)
        );
        assert_eq!(
            TimeNs::from_ms(33).lcm(TimeNs::from_ms(15)),
            TimeNs::from_ms(165)
        );
    }

    #[test]
    #[should_panic(expected = "lcm of zero")]
    fn lcm_zero_panics() {
        let _ = lcm_u64(0, 3);
    }

    #[test]
    fn multiples_and_division() {
        let p = TimeNs::from_ms(5);
        assert!(TimeNs::from_ms(20).is_multiple_of(p));
        assert!(!TimeNs::from_ms(21).is_multiple_of(p));
        assert_eq!(TimeNs::from_ms(20) / p, 4);
        assert_eq!(TimeNs::from_ms(21) % p, TimeNs::from_ms(1));
    }

    #[test]
    fn checked_arithmetic() {
        assert_eq!(TimeNs::from_ns(3).checked_sub(TimeNs::from_ns(5)), None);
        assert_eq!(
            TimeNs::from_ns(5).checked_sub(TimeNs::from_ns(3)),
            Some(TimeNs::from_ns(2))
        );
        assert_eq!(TimeNs::MAX.checked_add(TimeNs::from_ns(1)), None);
        assert_eq!(
            TimeNs::from_ns(3).saturating_sub(TimeNs::from_ns(5)),
            TimeNs::ZERO
        );
    }

    #[test]
    fn sum_over_iterator() {
        let total: TimeNs = (1..=4).map(TimeNs::from_us).sum();
        assert_eq!(total, TimeNs::from_us(10));
    }

    #[test]
    fn div_ceil_behaviour() {
        assert_eq!(div_ceil_u64(0, 3), 0);
        assert_eq!(div_ceil_u64(1, 3), 1);
        assert_eq!(div_ceil_u64(3, 3), 1);
        assert_eq!(div_ceil_u64(4, 3), 2);
    }
}
