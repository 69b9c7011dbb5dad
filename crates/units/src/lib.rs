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

/// Converts an optical power ratio to decibels.
///
/// Returns negative infinity for a zero ratio, matching the physical
/// convention that zero transmitted power is infinitely attenuated.
///
/// # Examples
///
/// ```
/// use oisa_units::ratio_to_db;
/// assert!((ratio_to_db(0.5) - (-3.0103)).abs() < 1e-3);
/// ```
#[must_use]
pub fn ratio_to_db(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

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

/// Converts a vacuum wavelength to optical frequency.
///
/// # Examples
///
/// ```
/// use oisa_units::{wavelength_to_frequency, Hertz, Meter};
/// let f = wavelength_to_frequency(Meter::from_nano(1550.0));
/// assert!((f.as_tera() - 193.41).abs() < 0.01);
/// ```
#[must_use]
pub fn wavelength_to_frequency(wavelength: Meter) -> Hertz {
    Hertz::new(SPEED_OF_LIGHT_M_PER_S / wavelength.get())
}

/// Converts an optical frequency to vacuum wavelength.
///
/// # Examples
///
/// ```
/// use oisa_units::{frequency_to_wavelength, Hertz};
/// let w = frequency_to_wavelength(Hertz::from_tera(193.41));
/// assert!((w.as_nano() - 1550.0).abs() < 0.1);
/// ```
#[must_use]
pub fn frequency_to_wavelength(frequency: Hertz) -> Meter {
    Meter::new(SPEED_OF_LIGHT_M_PER_S / frequency.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for r in [1.0, 0.5, 0.25, 1e-3, 7.3] {
            let db = ratio_to_db(r);
            assert!((db_to_ratio(db) - r).abs() < 1e-12 * r.max(1.0));
        }
    }

    #[test]
    fn zero_ratio_is_neg_infinite_db() {
        assert_eq!(ratio_to_db(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn wavelength_frequency_round_trip() {
        let w = Meter::from_nano(1310.0);
        let back = frequency_to_wavelength(wavelength_to_frequency(w));
        assert!((back.get() - w.get()).abs() < 1e-18);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // regression guard on typos
    fn physical_constants_sane() {
        assert!(SPEED_OF_LIGHT_M_PER_S > 2.9e8 && SPEED_OF_LIGHT_M_PER_S < 3.0e8);
        assert!(ELEMENTARY_CHARGE_C > 1.6e-19 && ELEMENTARY_CHARGE_C < 1.61e-19);
    }
}
