//! Newtyped physical units shared across the whole workspace.
//!
//! The H2H cost model mixes byte counts, transfer rates, latencies and
//! energies in almost every formula. Newtypes keep those quantities from
//! being accidentally combined the wrong way (a classic source of silent
//! errors in EDA cost models) while still being zero-cost wrappers.
//!
//! # Examples
//!
//! ```
//! use h2h_model::units::{Bytes, BytesPerSec, Seconds};
//!
//! let weights = Bytes::new(125_000_000);
//! let ethernet = BytesPerSec::from_gbps(0.125); // 1 GbE
//! let t: Seconds = ethernet.transfer_time(weights);
//! assert!((t.as_f64() - 1.0).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A byte count (weights, activations, DRAM budgets).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Wraps a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// `mib` mebibytes (2^20 bytes).
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * (1 << 20))
    }

    /// `gib` gibibytes (2^30 bytes).
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * (1 << 30))
    }

    /// The raw count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The raw count as a float, for rate arithmetic.
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction; useful for "remaining budget" math.
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Bytes) -> Option<Bytes> {
        self.0.checked_sub(rhs.0).map(Bytes)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= (1 << 30) {
            write!(f, "{:.2} GiB", b / (1u64 << 30) as f64)
        } else if self.0 >= (1 << 20) {
            write!(f, "{:.2} MiB", b / (1u64 << 20) as f64)
        } else if self.0 >= (1 << 10) {
            write!(f, "{:.2} KiB", b / (1u64 << 10) as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A latency or duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Wraps a raw seconds value.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if `s` is negative or NaN: durations in
    /// the cost model are always non-negative.
    pub fn new(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Seconds(s)
    }

    /// The raw value.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Milliseconds view, for reporting.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Larger of two durations.
    pub fn max(self, rhs: Seconds) -> Seconds {
        Seconds(self.0.max(rhs.0))
    }

    /// Smaller of two durations.
    pub fn min(self, rhs: Seconds) -> Seconds {
        Seconds(self.0.min(rhs.0))
    }

    /// Saturating subtraction clamped at zero (duration differences).
    pub fn saturating_sub(self, rhs: Seconds) -> Seconds {
        Seconds((self.0 - rhs.0).max(0.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} us", self.0 * 1e6)
        }
    }
}

/// An energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Joules(f64);

impl Joules {
    /// Zero joules.
    pub const ZERO: Joules = Joules(0.0);

    /// Wraps a raw joules value.
    pub fn new(j: f64) -> Self {
        debug_assert!(j.is_finite() && j >= 0.0, "invalid energy: {j}");
        Joules(j)
    }

    /// The raw value.
    pub const fn as_f64(self) -> f64 {
        self.0
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} J", self.0)
        } else {
            write!(f, "{:.3} mJ", self.0 * 1e3)
        }
    }
}

/// A transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct BytesPerSec(f64);

impl BytesPerSec {
    /// Wraps a raw bytes-per-second rate.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if the rate is not strictly positive:
    /// a zero-bandwidth channel would produce infinite latencies.
    pub fn new(rate: f64) -> Self {
        debug_assert!(rate.is_finite() && rate > 0.0, "invalid rate: {rate}");
        BytesPerSec(rate)
    }

    /// Rate from GB/s (decimal gigabytes, as used in the paper's
    /// Ethernet classes: 0.125 GB/s == 1 GbE).
    pub fn from_gbps(gb_per_s: f64) -> Self {
        BytesPerSec::new(gb_per_s * 1e9)
    }

    /// The raw rate.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Time to move `bytes` across this channel.
    pub fn transfer_time(self, bytes: Bytes) -> Seconds {
        Seconds::new(bytes.as_f64() / self.0)
    }
}

impl fmt::Display for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GB/s", self.0 / 1e9)
    }
}

/// A multiply-accumulate count (the compute volume of a layer).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Macs(u64);

impl Macs {
    /// Zero MACs.
    pub const ZERO: Macs = Macs(0);

    /// Wraps a raw MAC count.
    pub const fn new(macs: u64) -> Self {
        Macs(macs)
    }

    /// The raw count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The raw count as a float.
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Macs {
    type Output = Macs;
    fn add(self, rhs: Macs) -> Macs {
        Macs(self.0 + rhs.0)
    }
}

impl AddAssign for Macs {
    fn add_assign(&mut self, rhs: Macs) {
        self.0 += rhs.0;
    }
}

impl Sum for Macs {
    fn sum<I: Iterator<Item = Macs>>(iter: I) -> Macs {
        Macs(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Macs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0 as f64;
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} GMAC", m / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2} MMAC", m / 1e6)
        } else {
            write!(f, "{} MAC", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::from_mib(1).as_u64(), 1 << 20);
        assert_eq!(Bytes::from_gib(2).as_u64(), 2 << 30);
        assert_eq!(format!("{}", Bytes::new(512)), "512 B");
        assert_eq!(format!("{}", Bytes::from_mib(3)), "3.00 MiB");
        assert_eq!(format!("{}", Bytes::from_gib(1)), "1.00 GiB");
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes::new(100);
        let b = Bytes::new(40);
        assert_eq!(a + b, Bytes::new(140));
        assert_eq!(a - b, Bytes::new(60));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.checked_sub(b), Some(Bytes::new(60)));
        assert_eq!(b.checked_sub(a), None);
        let total: Bytes = [a, b, b].into_iter().sum();
        assert_eq!(total, Bytes::new(180));
    }

    #[test]
    fn transfer_time_matches_rate() {
        let bw = BytesPerSec::from_gbps(1.25);
        let t = bw.transfer_time(Bytes::new(1_250_000_000));
        assert!((t.as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_ordering_and_math() {
        let a = Seconds::new(2.0);
        let b = Seconds::new(0.5);
        assert!(a > b);
        assert_eq!((a + b).as_f64(), 2.5);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), Seconds::ZERO);
        assert_eq!((a * 2.0).as_f64(), 4.0);
        assert_eq!((a / 2.0).as_f64(), 1.0);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(format!("{}", Seconds::new(1.5)), "1.500 s");
        assert_eq!(format!("{}", Seconds::new(0.0125)), "12.500 ms");
        assert_eq!(format!("{}", Seconds::new(2.5e-6)), "2.500 us");
        assert_eq!(format!("{}", Joules::new(3.25)), "3.250 J");
        assert_eq!(format!("{}", Macs::new(2_500_000)), "2.50 MMAC");
    }

    #[test]
    fn macs_sum() {
        let total: Macs = [Macs::new(1), Macs::new(2), Macs::new(3)].into_iter().sum();
        assert_eq!(total.as_u64(), 6);
    }
}
