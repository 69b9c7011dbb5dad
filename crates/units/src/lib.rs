//! Physical-quantity newtypes for the OISA simulation stack.
//!
//! Every model in this workspace — microring resonators, VCSEL drivers,
//! pixel arrays, memory macros, the architecture simulator — exchanges
//! physical quantities. Using bare `f64` for volts, watts and seconds is a
//! classic source of silent unit bugs in device-to-architecture frameworks,
//! so this crate provides zero-cost newtypes with only the physically
//! meaningful arithmetic defined between them (e.g. `Volt * Ampere = Watt`,
//! `Watt * Second = Joule`).
//!
//! # Examples
//!
//! ```
//! use oisa_units::{Ampere, Joule, Second, Volt, Watt};
//!
//! let bias = Volt::new(0.8) * Ampere::from_milli(2.0); // dissipated power
//! assert_eq!(bias, Watt::from_milli(1.6));
//!
//! let energy: Joule = bias * Second::from_nano(10.0);
//! assert!((energy.as_pico() - 16.0).abs() < 1e-9);
//! ```

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

mod quantity;

pub use quantity::{
    Ampere, Celsius, Farad, Hertz, Joule, Kelvin, Meter, Ohm, Second, SquareMeter, Volt, Watt,
};

/// Speed of light in vacuum, in metres per second.
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// Elementary charge, in coulombs.
pub const ELEMENTARY_CHARGE_C: f64 = 1.602_176_634e-19;

/// Boltzmann constant, in joules per kelvin.
pub const BOLTZMANN_J_PER_K: f64 = 1.380_649e-23;

/// Converts decibels to an optical power ratio.
///
/// # Examples
///
/// ```
/// use oisa_units::db_to_ratio;
/// assert!((db_to_ratio(-3.0103) - 0.5).abs() < 1e-4);
/// ```
#[must_use]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for r in [1.0, 0.5, 0.25, 1e-3, 7.3] {
            let db = 10.0 * f64::log10(r);
            assert!((db_to_ratio(db) - r).abs() < 1e-12 * r.max(1.0));
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // regression guard on typos
    fn physical_constants_sane() {
        assert!(SPEED_OF_LIGHT_M_PER_S > 2.9e8 && SPEED_OF_LIGHT_M_PER_S < 3.0e8);
        assert!(ELEMENTARY_CHARGE_C > 1.6e-19 && ELEMENTARY_CHARGE_C < 1.61e-19);
    }
}
