//! Newtype quantities and their arithmetic.
//!
//! Each quantity wraps an `f64` in SI base units. A macro generates the
//! common surface (constructors with SI prefixes, accessors, `Display` with
//! an engineering suffix, ordering, arithmetic within the same quantity and
//! scalar scaling); the physically meaningful cross-quantity products and
//! quotients are spelled out explicitly below so the type system documents
//! the physics.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a value in SI base units.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the value in SI base units.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Creates a quantity from a value in units of 10⁻¹⁵ (femto).
            #[must_use]
            pub fn from_femto(value: f64) -> Self {
                Self(value * 1e-15)
            }

            /// Creates a quantity from a value in units of 10⁻¹² (pico).
            #[must_use]
            pub fn from_pico(value: f64) -> Self {
                Self(value * 1e-12)
            }

            /// Creates a quantity from a value in units of 10⁻⁹ (nano).
            #[must_use]
            pub fn from_nano(value: f64) -> Self {
                Self(value * 1e-9)
            }

            /// Creates a quantity from a value in units of 10⁻⁶ (micro).
            #[must_use]
            pub fn from_micro(value: f64) -> Self {
                Self(value * 1e-6)
            }

            /// Creates a quantity from a value in units of 10⁻³ (milli).
            #[must_use]
            pub fn from_milli(value: f64) -> Self {
                Self(value * 1e-3)
            }

            /// Creates a quantity from a value in units of 10³ (kilo).
            #[must_use]
            pub fn from_kilo(value: f64) -> Self {
                Self(value * 1e3)
            }

            /// Creates a quantity from a value in units of 10⁹ (giga).
            #[must_use]
            pub fn from_giga(value: f64) -> Self {
                Self(value * 1e9)
            }

            /// Returns the value in units of 10⁻¹⁵ (femto).
            #[must_use]
            pub fn as_femto(self) -> f64 {
                self.0 * 1e15
            }

            /// Returns the value in units of 10⁻¹² (pico).
            #[must_use]
            pub fn as_pico(self) -> f64 {
                self.0 * 1e12
            }

            /// Returns the value in units of 10⁻⁹ (nano).
            #[must_use]
            pub fn as_nano(self) -> f64 {
                self.0 * 1e9
            }

            /// Returns the value in units of 10⁻⁶ (micro).
            #[must_use]
            pub fn as_micro(self) -> f64 {
                self.0 * 1e6
            }

            /// Returns the value in units of 10⁻³ (milli).
            #[must_use]
            pub fn as_milli(self) -> f64 {
                self.0 * 1e3
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Element-wise minimum.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Element-wise maximum.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity between `lo` and `hi`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN (per
            /// [`f64::clamp`]).
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Dimensionless ratio of two quantities of the same kind.
            #[must_use]
            pub fn ratio(self, denominator: Self) -> f64 {
                self.0 / denominator.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let (scaled, prefix) = engineering(self.0);
                if let Some(precision) = f.precision() {
                    write!(f, "{scaled:.precision$} {prefix}{}", $unit)
                } else {
                    write!(f, "{scaled:.4} {prefix}{}", $unit)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volt,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Ampere,
    "A"
);
quantity!(
    /// Power in watts.
    Watt,
    "W"
);
quantity!(
    /// Energy in joules.
    Joule,
    "J"
);
quantity!(
    /// Time in seconds.
    Second,
    "s"
);
quantity!(
    /// Length in metres.
    Meter,
    "m"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Capacitance in farads.
    Farad,
    "F"
);
quantity!(
    /// Resistance in ohms.
    Ohm,
    "Ω"
);
quantity!(
    /// Area in square metres.
    SquareMeter,
    "m²"
);
quantity!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);
quantity!(
    /// Relative temperature in degrees Celsius.
    Celsius,
    "°C"
);

/// Picks an engineering prefix for display.
fn engineering(value: f64) -> (f64, &'static str) {
    let magnitude = value.abs();
    if magnitude == 0.0 || !magnitude.is_finite() {
        return (value, "");
    }
    const STEPS: [(f64, &str); 9] = [
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
    ];
    for (scale, prefix) in STEPS {
        if magnitude >= scale {
            return (value / scale, prefix);
        }
    }
    (value / 1e-15, "f")
}

// --- Physically meaningful cross-quantity arithmetic -----------------------

impl Mul<Ampere> for Volt {
    type Output = Watt;
    /// Electrical power: `P = V · I`.
    fn mul(self, rhs: Ampere) -> Watt {
        Watt(self.0 * rhs.0)
    }
}

impl Mul<Volt> for Ampere {
    type Output = Watt;
    /// Electrical power: `P = I · V`.
    fn mul(self, rhs: Volt) -> Watt {
        Watt(self.0 * rhs.0)
    }
}

impl Mul<Second> for Watt {
    type Output = Joule;
    /// Energy: `E = P · t`.
    fn mul(self, rhs: Second) -> Joule {
        Joule(self.0 * rhs.0)
    }
}

impl Mul<Watt> for Second {
    type Output = Joule;
    /// Energy: `E = t · P`.
    fn mul(self, rhs: Watt) -> Joule {
        Joule(self.0 * rhs.0)
    }
}

impl Div<Second> for Joule {
    type Output = Watt;
    /// Average power: `P = E / t`.
    fn div(self, rhs: Second) -> Watt {
        Watt(self.0 / rhs.0)
    }
}

impl Div<Watt> for Joule {
    type Output = Second;
    /// Duration at constant power: `t = E / P`.
    fn div(self, rhs: Watt) -> Second {
        Second(self.0 / rhs.0)
    }
}

impl Div<Ohm> for Volt {
    type Output = Ampere;
    /// Ohm's law: `I = V / R`.
    fn div(self, rhs: Ohm) -> Ampere {
        Ampere(self.0 / rhs.0)
    }
}

impl Mul<Ohm> for Ampere {
    type Output = Volt;
    /// Ohm's law: `V = I · R`.
    fn mul(self, rhs: Ohm) -> Volt {
        Volt(self.0 * rhs.0)
    }
}

impl Div<Ampere> for Volt {
    type Output = Ohm;
    /// Ohm's law: `R = V / I`.
    fn div(self, rhs: Ampere) -> Ohm {
        Ohm(self.0 / rhs.0)
    }
}

impl Mul<Volt> for Farad {
    type Output = f64;
    /// Charge in coulombs: `Q = C · V`.
    fn mul(self, rhs: Volt) -> f64 {
        self.0 * rhs.0
    }
}

impl Div<Hertz> for f64 {
    type Output = Second;
    /// Period: `t = 1 / f` (use as `1.0 / freq`).
    fn div(self, rhs: Hertz) -> Second {
        Second(self / rhs.0)
    }
}

impl Mul<Meter> for Meter {
    type Output = SquareMeter;
    /// Area: `A = l · w`.
    fn mul(self, rhs: Meter) -> SquareMeter {
        SquareMeter(self.0 * rhs.0)
    }
}

impl Mul<Second> for Ampere {
    type Output = f64;
    /// Charge in coulombs: `Q = I · t`.
    fn mul(self, rhs: Second) -> f64 {
        self.0 * rhs.0
    }
}

impl From<Celsius> for Kelvin {
    fn from(c: Celsius) -> Self {
        Kelvin(c.0 + 273.15)
    }
}

impl From<Kelvin> for Celsius {
    fn from(k: Kelvin) -> Self {
        Celsius(k.0 - 273.15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_constructors_and_accessors() {
        assert_eq!(Second::from_nano(5.0).get(), 5e-9);
        assert!((Second::from_pico(55.8).as_nano() - 0.0558).abs() < 1e-12);
        assert_eq!(Watt::from_milli(3.0).as_micro(), 3000.0);
        assert_eq!(Hertz::from_giga(2.5).get(), 2.5e9);
        assert_eq!(Meter::from_micro(5.0).as_nano(), 5000.0);
        assert!((Joule::from_femto(12.0).get() - 12e-15).abs() < 1e-27);
    }

    #[test]
    fn power_energy_chain() {
        let p = Volt::new(1.0) * Ampere::from_micro(250.0);
        assert_eq!(p, Watt::from_micro(250.0));
        let e = p * Second::from_nano(4.0);
        assert!((e.as_pico() - 1.0).abs() < 1e-12);
        let back = e / Second::from_nano(4.0);
        assert!((back.get() - p.get()).abs() < 1e-18);
    }

    #[test]
    fn ohms_law_triangle() {
        let v = Volt::new(1.2);
        let r = Ohm::from_kilo(10.0);
        let i = v / r;
        assert!((i.as_micro() - 120.0).abs() < 1e-9);
        assert!(((i * r).get() - v.get()).abs() < 1e-15);
        assert!(((v / i).get() - r.get()).abs() < 1e-6);
    }

    #[test]
    fn same_quantity_arithmetic() {
        let a = Joule::from_pico(3.0) + Joule::from_pico(4.0);
        assert!((a.as_pico() - 7.0).abs() < 1e-12);
        let d = Joule::from_pico(3.0) - Joule::from_pico(4.0);
        assert!((d.as_pico() + 1.0).abs() < 1e-12);
        assert!((-d).get() > 0.0);
        assert!((Watt::new(4.0) / Watt::new(2.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Joule = (1..=4).map(|i| Joule::from_nano(f64::from(i))).sum();
        assert!((total.as_nano() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_uses_engineering_prefixes() {
        assert_eq!(format!("{:.1}", Watt::from_milli(1.6)), "1.6 mW");
        assert_eq!(format!("{:.0}", Second::from_pico(55.8)), "56 ps");
        assert_eq!(format!("{:.2}", Hertz::new(7.1e12)), "7.10 THz");
        assert_eq!(format!("{:.1}", Volt::ZERO), "0.0 V");
    }

    #[test]
    fn clamp_min_max_abs() {
        let v = Volt::new(-0.5);
        assert_eq!(v.abs(), Volt::new(0.5));
        assert_eq!(v.clamp(Volt::ZERO, Volt::new(1.0)), Volt::ZERO);
        assert_eq!(Volt::new(0.3).max(Volt::new(0.7)), Volt::new(0.7));
        assert_eq!(Volt::new(0.3).min(Volt::new(0.7)), Volt::new(0.3));
    }

    #[test]
    fn temperature_conversions() {
        let k: Kelvin = Celsius::new(25.0).into();
        assert!((k.get() - 298.15).abs() < 1e-12);
        let c: Celsius = Kelvin::new(300.0).into();
        assert!((c.get() - 26.85).abs() < 1e-12);
    }

    #[test]
    fn charge_products() {
        let q1 = Farad::from_femto(10.0) * Volt::new(1.0);
        assert!((q1 - 10e-15).abs() < 1e-27);
        let q2 = Ampere::from_micro(1.0) * Second::from_micro(1.0);
        assert!((q2 - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn period_from_frequency() {
        let t = 1.0 / Hertz::from_giga(1.0);
        assert!((t.as_nano() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn area_product() {
        let a = Meter::from_micro(4.5) * Meter::from_micro(4.5);
        assert!((a.get() - 20.25e-12).abs() < 1e-24);
    }

    #[test]
    fn serde_transparent_round_trip() {
        // serde_test is not available offline; exercise the Serialize path
        // through the `serde::Serialize` impl directly via to-string of the
        // Debug form is not meaningful, so check the transparent repr by
        // transmuting semantics: Volt -> f64 via get().
        let v = Volt::new(1.25);
        assert_eq!(v.get(), 1.25);
    }
}
