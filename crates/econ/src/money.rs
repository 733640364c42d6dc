//! Currency amounts backed by exact rationals.
//!
//! [`Money`] is a thin, strongly-typed wrapper over [`Ratio`] denominated
//! in dollars. Constructors exist for the units the paper uses: dollars
//! (optimization costs like `$2.31`), cents (per-execution savings like
//! `18¢`), and micros (random values drawn on a `10^-6` grid so that
//! workload generators never touch floating point).
//!
//! Every arithmetic operation in this module is explicit checked
//! arithmetic — the `arithmetic_side_effects` deny below means a plain
//! `+` that could silently wrap or panic does not compile here.

#![deny(clippy::arithmetic_side_effects)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::num::ratio::Ratio;

/// Error parsing a decimal money string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMoneyError {
    input: String,
}

impl fmt::Display for ParseMoneyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` is not a money amount (expected e.g. `2.31`, `-0.5`, `$18`)",
            self.input
        )
    }
}

impl std::error::Error for ParseMoneyError {}

/// An exact currency amount (dollars).
///
/// ```
/// use osp_econ::Money;
/// let cost = Money::from_dollars(100);
/// let share = cost.split_among(4);
/// assert_eq!(share * 4, cost);
/// assert_eq!(share.to_string(), "$25.00");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Money(Ratio);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(Ratio::ZERO);

    /// Whole dollars.
    #[must_use]
    pub const fn from_dollars(d: i64) -> Self {
        Money(Ratio::from_int(d as i128))
    }

    /// Whole cents (`231` → `$2.31`).
    #[must_use]
    pub fn from_cents(c: i64) -> Self {
        Money(Ratio::new(i128::from(c), 100))
    }

    /// Millionths of a dollar: `m` is a point on the exact `10^-6`
    /// decimal grid, so `from_micros(1)` is the rational `1/1_000_000`
    /// dollar — not a float approximation. Workload generators sample
    /// uniform values on this grid so randomness stays exact end to
    /// end.
    #[must_use]
    pub fn from_micros(m: i64) -> Self {
        Money(Ratio::new(i128::from(m), 1_000_000))
    }

    /// An exact fraction of a dollar.
    #[must_use]
    pub fn from_ratio(r: Ratio) -> Self {
        Money(r)
    }

    /// The underlying exact rational (in dollars).
    #[must_use]
    pub const fn as_ratio(self) -> Ratio {
        self.0
    }

    /// Lossy conversion for reporting.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.0.to_f64()
    }

    /// `true` iff exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// `true` iff strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.0.is_positive()
    }

    /// `true` iff strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.0.is_negative()
    }

    /// Equal split among `count` payers — the Shapley cost share.
    ///
    /// The result is the exact rational `self / count`, which can leave
    /// every decimal grid: `$1.split_among(3)` is exactly `1/3` dollar,
    /// on no `10^-k` grid for any `k`. It always reassembles exactly,
    /// though: `m.split_among(n) * n == m`.
    ///
    /// # Panics
    /// Panics if `count == 0`.
    #[must_use]
    pub fn split_among(self, count: usize) -> Self {
        Money(self.0.div_count(count))
    }

    /// Smaller of two amounts.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Money(self.0.min(other.0))
    }

    /// Larger of two amounts.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Money(self.0.max(other.0))
    }

    /// Clamp below at zero: `max(self, 0)`. Used for loss computations
    /// of the form `max{L_j(p, t_r), 0}` (§7.1).
    #[must_use]
    pub fn clamp_non_negative(self) -> Self {
        self.max(Money::ZERO)
    }
}

/// Exact decimal parsing: `"2.31"` becomes the rational `231/100` —
/// no float ever touches the value.
impl FromStr for Money {
    type Err = ParseMoneyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseMoneyError {
            input: s.to_owned(),
        };
        let trimmed = s.trim();
        let (negative, rest) = match trimmed.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, trimmed),
        };
        let rest = rest.strip_prefix('$').unwrap_or(rest);
        let (whole_str, frac_str) = match rest.split_once('.') {
            Some((w, f)) => (w, f),
            None => (rest, ""),
        };
        if whole_str.is_empty() && frac_str.is_empty() {
            return Err(err());
        }
        let valid = |p: &str| p.chars().all(|c| c.is_ascii_digit());
        if !valid(whole_str) || !valid(frac_str) || frac_str.len() > 18 {
            return Err(err());
        }
        let whole: i128 = if whole_str.is_empty() {
            0
        } else {
            whole_str.parse().map_err(|_| err())?
        };
        let mut num = whole;
        let mut den: i128 = 1;
        for c in frac_str.chars() {
            let digit = c.to_digit(10).ok_or_else(err)?;
            num = num
                .checked_mul(10)
                .and_then(|n| n.checked_add(i128::from(digit)))
                .ok_or_else(err)?;
            den = den.checked_mul(10).ok_or_else(err)?;
        }
        let num = if negative {
            num.checked_neg().ok_or_else(err)?
        } else {
            num
        };
        let ratio = Ratio::checked_new(num, den).ok_or_else(err)?;
        Ok(Money(ratio))
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0.checked_add(rhs.0).expect("money addition overflow"))
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(
            self.0
                .checked_sub(rhs.0)
                .expect("money subtraction overflow"),
        )
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(self.0.checked_neg().expect("money negation overflow"))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 = self.0.checked_add(rhs.0).expect("money addition overflow");
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 = self
            .0
            .checked_sub(rhs.0)
            .expect("money subtraction overflow");
    }
}

/// Scaling by a count (e.g. price × number of payers).
impl Mul<usize> for Money {
    type Output = Money;
    fn mul(self, rhs: usize) -> Money {
        let k = i128::try_from(rhs).expect("count fits in i128");
        Money(
            self.0
                .checked_mul(Ratio::from_int(k))
                .expect("money scaling overflow"),
        )
    }
}

/// Scaling by an exact factor.
impl Mul<Ratio> for Money {
    type Output = Money;
    fn mul(self, rhs: Ratio) -> Money {
        Money(self.0.checked_mul(rhs).expect("money scaling overflow"))
    }
}

/// Exact division by a count; alias of [`Money::split_among`].
impl Div<usize> for Money {
    type Output = Money;
    fn div(self, rhs: usize) -> Money {
        self.split_among(rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        Money(iter.map(Money::as_ratio).sum())
    }
}

impl<'a> Sum<&'a Money> for Money {
    fn sum<I: Iterator<Item = &'a Money>>(iter: I) -> Money {
        iter.copied().sum()
    }
}

impl fmt::Display for Money {
    /// Renders as `$d.cc` with more fractional digits when the exact
    /// value needs them (`$0.333333…` is truncated at six digits with a
    /// trailing `…` marker, keeping the display honest about exactness).
    // Display-only long division: `den > 0` is a `Ratio` invariant (no
    // division by zero) and `rem < den` bounds each step; this never
    // feeds mechanism arithmetic, so the checked-op rule is relaxed.
    #[allow(clippy::arithmetic_side_effects)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        let sign = if r.is_negative() { "-" } else { "" };
        let num = r.numer().unsigned_abs();
        let den = r.denom().unsigned_abs();
        let whole = num / den;
        let mut rem = num % den;
        let mut digits = String::new();
        for _ in 0..6 {
            if rem == 0 {
                break;
            }
            rem *= 10;
            digits.push(char::from(b'0' + u8::try_from(rem / den).unwrap()));
            rem %= den;
        }
        let exact = rem == 0;
        while digits.len() < 2 {
            digits.push('0');
        }
        write!(f, "{sign}${whole}.{digits}{}", if exact { "" } else { "…" })
    }
}

impl fmt::Debug for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Money({})", self.0)
    }
}

#[cfg(test)]
// Tests exercise the operator sugar (whose overflow panics are the
// behavior under test), so the checked-op rule is relaxed here.
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(
            Money::from_dollars(2) + Money::from_cents(31),
            Money::from_cents(231)
        );
        assert_eq!(Money::from_micros(1_000_000), Money::from_dollars(1));
    }

    #[test]
    fn display_dollars_and_cents() {
        assert_eq!(Money::from_cents(231).to_string(), "$2.31");
        assert_eq!(Money::from_dollars(-3).to_string(), "-$3.00");
        assert_eq!(Money::ZERO.to_string(), "$0.00");
        assert_eq!(Money::from_micros(1).to_string(), "$0.000001");
    }

    #[test]
    fn display_marks_non_terminating_fractions() {
        let third = Money::from_dollars(1).split_among(3);
        assert_eq!(third.to_string(), "$0.333333…");
    }

    #[test]
    fn split_among_reassembles() {
        let c = Money::from_cents(231);
        assert_eq!(c.split_among(7) * 7, c);
    }

    #[test]
    fn clamp_non_negative() {
        assert_eq!(Money::from_dollars(-5).clamp_non_negative(), Money::ZERO);
        assert_eq!(
            Money::from_dollars(5).clamp_non_negative(),
            Money::from_dollars(5)
        );
    }

    #[test]
    fn ordering_matches_value() {
        assert!(Money::from_cents(99) < Money::from_dollars(1));
        assert!(Money::from_dollars(1) < Money::from_micros(1_000_001));
    }

    #[test]
    fn parse_decimal_strings_exactly() {
        assert_eq!("2.31".parse::<Money>().unwrap(), Money::from_cents(231));
        assert_eq!("$18".parse::<Money>().unwrap(), Money::from_dollars(18));
        assert_eq!("-0.5".parse::<Money>().unwrap(), Money::from_cents(-50));
        assert_eq!(".25".parse::<Money>().unwrap(), Money::from_cents(25));
        assert_eq!("0.000001".parse::<Money>().unwrap(), Money::from_micros(1));
        assert_eq!(" 3.00 ".parse::<Money>().unwrap(), Money::from_dollars(3));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "$",
            "1.2.3",
            "abc",
            "1,50",
            "--2",
            "1e3",
            "0.1234567890123456789",
        ] {
            assert!(bad.parse::<Money>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_round_trips_display_for_terminating_amounts() {
        for cents in [-12345i64, -1, 0, 1, 99, 100, 231, 123456] {
            let m = Money::from_cents(cents);
            let shown = m.to_string();
            assert_eq!(
                shown.replace('$', "").parse::<Money>().unwrap(),
                m,
                "{shown}"
            );
        }
    }

    proptest! {
        #[test]
        fn sum_is_order_independent(mut xs in proptest::collection::vec(-10_000i64..10_000, 0..20)) {
            let forward: Money = xs.iter().map(|&c| Money::from_cents(c)).sum();
            xs.reverse();
            let backward: Money = xs.iter().map(|&c| Money::from_cents(c)).sum();
            prop_assert_eq!(forward, backward);
        }

        #[test]
        fn serde_round_trip(c in -10_000i64..10_000) {
            let m = Money::from_cents(c);
            let json = serde_json::to_string(&m).unwrap();
            let back: Money = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(m, back);
        }
    }
}
