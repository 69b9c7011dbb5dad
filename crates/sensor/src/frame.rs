//! Illumination frames and their ternary-encoded counterparts.

use oisa_device::vcsel::TernaryLevel;
use serde::{Deserialize, Serialize};

use crate::{Result, SensorError};

/// A normalised illumination map: one `f64 ∈ [0, 1]` per pixel, row-major.
///
/// `0.0` is darkness, `1.0` saturates the photodiode within the exposure.
/// Conventional 8-bit images convert via [`Frame::from_bytes`].
///
/// # Examples
///
/// ```
/// use oisa_sensor::Frame;
///
/// # fn main() -> Result<(), oisa_sensor::SensorError> {
/// let f = Frame::from_bytes(2, 2, &[0, 128, 255, 64])?;
/// assert!((f.get(0, 1) - 128.0 / 255.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<f64>,
}

impl Frame {
    /// Builds a frame from row-major samples.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] when the dimensions are
    /// zero, don't match the data length, or any sample falls outside
    /// `[0, 1]`.
    pub fn new(width: usize, height: usize, data: Vec<f64>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(SensorError::InvalidParameter(
                "frame dimensions must be positive".into(),
            ));
        }
        if data.len() != width * height {
            return Err(SensorError::InvalidParameter(format!(
                "expected {} samples, got {}",
                width * height,
                data.len()
            )));
        }
        if let Some(bad) = data.iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(SensorError::InvalidParameter(format!(
                "illumination {bad} outside [0, 1]"
            )));
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// A uniform frame at `level`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] for invalid dimensions or
    /// `level` outside `[0, 1]`.
    pub fn constant(width: usize, height: usize, level: f64) -> Result<Self> {
        Self::new(width, height, vec![level; width * height])
    }

    /// Converts an 8-bit grayscale image (`0..=255`, row-major).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] when the dimensions don't
    /// match the byte count.
    pub fn from_bytes(width: usize, height: usize, bytes: &[u8]) -> Result<Self> {
        let data = bytes.iter().map(|&b| f64::from(b) / 255.0).collect();
        Self::new(width, height, data)
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Illumination at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.height && col < self.width, "pixel out of bounds");
        self.data[row * self.width + col]
    }

    /// Row-major samples.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mean illumination.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }
}

/// A ternary-encoded frame: the VAM's output, one [`TernaryLevel`] per
/// pixel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TernaryFrame {
    width: usize,
    height: usize,
    data: Vec<TernaryLevel>,
}

impl TernaryFrame {
    /// Builds from row-major levels.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] for inconsistent
    /// dimensions.
    pub fn new(width: usize, height: usize, data: Vec<TernaryLevel>) -> Result<Self> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(SensorError::InvalidParameter(
                "ternary frame dimensions inconsistent".into(),
            ));
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Level at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> TernaryLevel {
        assert!(row < self.height && col < self.width, "pixel out of bounds");
        self.data[row * self.width + col]
    }

    /// Row-major levels.
    #[must_use]
    pub fn as_slice(&self) -> &[TernaryLevel] {
        &self.data
    }

    /// Histogram of levels `(zeros, ones, twos)`.
    #[must_use]
    pub fn histogram(&self) -> (usize, usize, usize) {
        let mut h = (0, 0, 0);
        for l in &self.data {
            match l {
                TernaryLevel::Zero => h.0 += 1,
                TernaryLevel::One => h.1 += 1,
                TernaryLevel::Two => h.2 += 1,
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_construction_validates() {
        assert!(Frame::new(0, 4, vec![]).is_err());
        assert!(Frame::new(2, 2, vec![0.0; 3]).is_err());
        assert!(Frame::new(2, 2, vec![0.0, 0.5, 1.0, 1.5]).is_err());
        assert!(Frame::new(2, 2, vec![0.0, 0.5, 1.0, -0.1]).is_err());
        assert!(Frame::new(2, 2, vec![0.0, 0.5, 1.0, 1.0]).is_ok());
    }

    #[test]
    fn byte_conversion_scales() {
        let f = Frame::from_bytes(1, 3, &[0, 255, 51]).unwrap();
        assert_eq!(f.get(0, 0), 0.0);
        assert_eq!(f.get(1, 0), 1.0);
        assert!((f.get(2, 0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn indexing_is_row_major() {
        let f = Frame::new(3, 2, vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
        assert!((f.get(0, 2) - 0.2).abs() < 1e-12);
        assert!((f.get(1, 0) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn out_of_bounds_panics() {
        let f = Frame::constant(2, 2, 0.5).unwrap();
        let _ = f.get(2, 0);
    }

    #[test]
    fn mean_of_constant() {
        let f = Frame::constant(4, 4, 0.25).unwrap();
        assert!((f.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ternary_frame_histogram() {
        use TernaryLevel::{One, Two, Zero};
        let t = TernaryFrame::new(2, 2, vec![Zero, One, Two, Two]).unwrap();
        assert_eq!(t.histogram(), (1, 1, 2));
        assert_eq!(t.as_slice(), &[Zero, One, Two, Two]);
    }

    #[test]
    fn ternary_frame_validates() {
        assert!(TernaryFrame::new(2, 2, vec![TernaryLevel::Zero; 3]).is_err());
        assert!(TernaryFrame::new(0, 2, vec![]).is_err());
    }

    proptest! {
        #[test]
        fn from_bytes_round_trip_bounds(bytes in proptest::collection::vec(0u8..=255, 16)) {
            let f = Frame::from_bytes(4, 4, &bytes).unwrap();
            for v in f.as_slice() {
                prop_assert!((0.0..=1.0).contains(v));
            }
            prop_assert!((f.mean() - bytes.iter().map(|&b| f64::from(b) / 255.0).sum::<f64>() / 16.0).abs() < 1e-9);
        }
    }
}
