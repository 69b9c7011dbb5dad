//! The n×n global-shutter pixel array.
//!
//! All pixels expose simultaneously (global shutter — no rolling-shutter
//! skew, required because the whole frame feeds the OPC at once), then
//! their sense voltages are handed to the VAM column circuitry. The imager
//! also accounts the sensing energy that appears in Table I's power
//! column.

use oisa_units::{Joule, Second, Volt, Watt};
use serde::{Deserialize, Serialize};

use crate::frame::Frame;
use crate::pixel::PixelDesign;
use crate::{Result, SensorError};

/// Imager configuration: pixel design plus array dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImagerConfig {
    /// Per-pixel design.
    pub pixel: PixelDesign,
    /// Columns.
    pub width: usize,
    /// Rows.
    pub height: usize,
    /// Target frame rate (Table I: 1000 frames/s).
    pub frame_rate_hz: f64,
}

impl ImagerConfig {
    /// Paper configuration at the given dimensions (Table I uses
    /// 128×128): paper pixel design, 1000 fps.
    #[must_use]
    pub fn paper_default(width: usize, height: usize) -> Self {
        Self {
            pixel: PixelDesign::paper_default(),
            width,
            height,
            frame_rate_hz: 1000.0,
        }
    }

    fn validate(&self) -> Result<()> {
        self.pixel.validate()?;
        if self.width == 0 || self.height == 0 {
            return Err(SensorError::InvalidParameter(
                "imager dimensions must be positive".into(),
            ));
        }
        if self.frame_rate_hz <= 0.0 {
            return Err(SensorError::InvalidParameter(
                "frame rate must be positive".into(),
            ));
        }
        // The exposure must fit into the frame period.
        let period = 1.0 / self.frame_rate_hz;
        if self.pixel.exposure.get() >= period {
            return Err(SensorError::InvalidParameter(format!(
                "exposure {} exceeds frame period {period} s",
                self.pixel.exposure
            )));
        }
        Ok(())
    }

    /// Number of pixels.
    #[must_use]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }
}

/// The voltages one exposure produced, plus its energy cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Capture {
    /// Array width in pixels.
    pub width: usize,
    /// Array height in pixels.
    pub height: usize,
    /// Row-major sense voltages (accumulated photodiode drops).
    pub voltages: Vec<Volt>,
    /// Total energy of the exposure (reset + readout for every pixel).
    pub energy: Joule,
    /// Wall-clock duration of the capture (exposure + readout settle).
    pub duration: Second,
}

impl Capture {
    /// Sense voltage at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of bounds.
    #[must_use]
    pub fn voltage(&self, row: usize, col: usize) -> Volt {
        assert!(row < self.height && col < self.width, "pixel out of bounds");
        self.voltages[row * self.width + col]
    }
}

/// The global-shutter array.
///
/// # Examples
///
/// ```
/// use oisa_sensor::frame::Frame;
/// use oisa_sensor::imager::{Imager, ImagerConfig};
///
/// # fn main() -> Result<(), oisa_sensor::SensorError> {
/// let imager = Imager::new(ImagerConfig::paper_default(16, 16))?;
/// let capture = imager.expose(&Frame::constant(16, 16, 1.0)?)?;
/// assert!(capture.voltage(0, 0).get() > 0.4); // near full swing
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Imager {
    config: ImagerConfig,
}

impl Imager {
    /// Builds an imager after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] for inconsistent
    /// configurations (zero dimensions, exposure longer than the frame
    /// period, …).
    pub fn new(config: ImagerConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &ImagerConfig {
        &self.config
    }

    /// Exposes one frame and returns all sense voltages.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::ShapeMismatch`] when the frame does not
    /// match the array dimensions.
    pub fn expose(&self, frame: &Frame) -> Result<Capture> {
        if frame.width() != self.config.width || frame.height() != self.config.height {
            return Err(SensorError::ShapeMismatch {
                expected: (self.config.width, self.config.height),
                got: (frame.width(), frame.height()),
            });
        }
        let voltages = frame
            .as_slice()
            .iter()
            .map(|&lux| self.config.pixel.sense_voltage(lux))
            .collect::<Result<Vec<Volt>>>()?;
        let energy = self.config.pixel.access_energy * self.config.pixel_count() as f64;
        Ok(Capture {
            width: self.config.width,
            height: self.config.height,
            voltages,
            energy,
            duration: self.config.pixel.exposure,
        })
    }

    /// Average sensing power at the configured frame rate — one exposure's
    /// energy times the frame rate. This is the "sensing" component of the
    /// Table I power column.
    #[must_use]
    pub fn sensing_power(&self) -> Watt {
        let e = self.config.pixel.access_energy * self.config.pixel_count() as f64;
        Watt::new(e.get() * self.config.frame_rate_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn imager(n: usize) -> Imager {
        Imager::new(ImagerConfig::paper_default(n, n)).unwrap()
    }

    #[test]
    fn expose_maps_illumination_to_voltage() {
        let im = imager(4);
        let mut data = vec![0.0; 16];
        data[5] = 1.0;
        data[10] = 0.5;
        let capture = im.expose(&Frame::new(4, 4, data).unwrap()).unwrap();
        assert_eq!(capture.voltage(0, 0), Volt::ZERO);
        assert!((capture.voltage(1, 1).get() - 0.5).abs() < 1e-9);
        assert!((capture.voltage(2, 2).get() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn shape_mismatch_detected() {
        let im = imager(4);
        let frame = Frame::constant(5, 4, 0.2).unwrap();
        assert!(matches!(
            im.expose(&frame),
            Err(SensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn sensing_power_matches_table1_scale() {
        // 128×128 at 1000 fps with 3.5 fJ/pixel ≈ 57 nW — the order of
        // magnitude of Table I's OISA power floor (the VAM adds the rest).
        let im = imager(128);
        let p = im.sensing_power();
        assert!(
            p.get() > 2e-8 && p.get() < 3e-7,
            "sensing power {p} out of expected range"
        );
    }

    #[test]
    fn capture_energy_scales_with_pixels() {
        let small = imager(8)
            .expose(&Frame::constant(8, 8, 0.1).unwrap())
            .unwrap();
        let large = imager(16)
            .expose(&Frame::constant(16, 16, 0.1).unwrap())
            .unwrap();
        assert!((large.energy.get() / small.energy.get() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exposure_must_fit_frame_period() {
        let mut cfg = ImagerConfig::paper_default(8, 8);
        cfg.frame_rate_hz = 1e9; // 1 ns period << 50 µs exposure
        assert!(Imager::new(cfg).is_err());
    }

    proptest! {
        #[test]
        fn all_capture_voltages_in_swing(level in 0.0..=1.0f64) {
            let im = imager(6);
            let capture = im.expose(&Frame::constant(6, 6, level).unwrap()).unwrap();
            let swing = im.config().pixel.swing.get();
            for v in &capture.voltages {
                prop_assert!(v.get() >= 0.0 && v.get() <= swing + 1e-15);
            }
        }
    }
}
