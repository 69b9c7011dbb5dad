//! Time-dependent source waveforms.

use serde::{Deserialize, Serialize};

/// The drive waveform of an independent voltage or current source.
///
/// All times are in seconds and all levels in the source's natural unit
/// (volts or amperes).
///
/// # Examples
///
/// ```
/// use oisa_spice::Waveform;
///
/// let clk = Waveform::pulse(0.0, 1.0, 0.0, 1e-10, 1e-10, 4e-9, 8e-9);
/// assert_eq!(clk.value_at(0.0), 0.0);
/// assert!((clk.value_at(2e-9) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Waveform {
    /// Constant level.
    Dc(f64),
    /// SPICE-style periodic trapezoidal pulse.
    Pulse {
        /// Initial (resting) level.
        low: f64,
        /// Pulsed level.
        high: f64,
        /// Delay before the first rising edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Time spent at `high` (not counting edges), seconds.
        width: f64,
        /// Repetition period, seconds. Non-positive means single-shot.
        period: f64,
    },
    /// Piecewise-linear waveform through `(time, level)` points sorted by
    /// time. Holds the first level before the first point and the last
    /// level after the last point.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Constant waveform at `level`.
    #[must_use]
    pub fn dc(level: f64) -> Self {
        Self::Dc(level)
    }

    /// Periodic trapezoidal pulse (SPICE `PULSE` semantics).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn pulse(
        low: f64,
        high: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> Self {
        Self::Pulse {
            low,
            high,
            delay,
            rise,
            fall,
            width,
            period,
        }
    }

    /// Returns this waveform with every level multiplied by `factor` —
    /// e.g. turning a 0/1 gate pulse into a gated current of amplitude
    /// `factor`.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        match self {
            Self::Dc(level) => Self::Dc(level * factor),
            Self::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => Self::Pulse {
                low: low * factor,
                high: high * factor,
                delay,
                rise,
                fall,
                width,
                period,
            },
            Self::Pwl(points) => {
                Self::Pwl(points.into_iter().map(|(t, v)| (t, v * factor)).collect())
            }
        }
    }

    /// Evaluates the waveform at time `t` (seconds).
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Self::Dc(level) => *level,
            Self::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *low;
                }
                let mut local = t - delay;
                if *period > 0.0 {
                    local %= period;
                }
                // Guard against degenerate zero-length edges.
                let rise = rise.max(f64::MIN_POSITIVE);
                let fall = fall.max(f64::MIN_POSITIVE);
                if local < rise {
                    low + (high - low) * (local / rise)
                } else if local < rise + width {
                    *high
                } else if local < rise + width + fall {
                    high - (high - low) * ((local - rise - width) / fall)
                } else {
                    *low
                }
            }
            Self::Pwl(points) => match points.len() {
                0 => 0.0,
                1 => points[0].1,
                _ => {
                    if t <= points[0].0 {
                        return points[0].1;
                    }
                    if t >= points[points.len() - 1].0 {
                        return points[points.len() - 1].1;
                    }
                    let idx = points.partition_point(|&(pt, _)| pt <= t);
                    let (t0, v0) = points[idx - 1];
                    let (t1, v1) = points[idx];
                    if (t1 - t0).abs() < f64::MIN_POSITIVE {
                        v1
                    } else {
                        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(0.8);
        for t in [0.0, 1e-9, 1.0] {
            assert_eq!(w.value_at(t), 0.8);
        }
    }

    #[test]
    fn pulse_edges_and_plateau() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 1e-10, 1e-10, 2e-9, 0.0);
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(0.999e-9), 0.0);
        assert!((w.value_at(1.05e-9) - 0.5).abs() < 1e-9); // mid-rise
        assert_eq!(w.value_at(2e-9), 1.0); // plateau
        let mid_fall = w.value_at(1e-9 + 1e-10 + 2e-9 + 0.5e-10);
        assert!((mid_fall - 0.5).abs() < 1e-9);
        assert_eq!(w.value_at(10e-9), 0.0); // back to low, single shot
    }

    #[test]
    fn pulse_repeats_with_period() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1e-9, 2e-9);
        assert!((w.value_at(0.5e-9) - 1.0).abs() < 1e-9);
        assert!((w.value_at(2.5e-9) - 1.0).abs() < 1e-9); // second cycle
        assert!(w.value_at(1.7e-9) < 1e-9); // low phase
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(1.0, 0.0), (2.0, 1.0), (4.0, -1.0)]);
        assert_eq!(w.value_at(0.0), 0.0); // clamp before first point
        assert!((w.value_at(1.5) - 0.5).abs() < 1e-12);
        assert!((w.value_at(3.0) - 0.0).abs() < 1e-12);
        assert_eq!(w.value_at(9.0), -1.0); // clamp after last point
    }

    #[test]
    fn pwl_empty_and_single() {
        assert_eq!(Waveform::Pwl(vec![]).value_at(1.0), 0.0);
        assert_eq!(Waveform::Pwl(vec![(0.0, 3.3)]).value_at(42.0), 3.3);
    }

    #[test]
    fn scaled_multiplies_levels_not_times() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 1e-10, 1e-10, 2e-9, 0.0).scaled(5e-6);
        assert!((w.value_at(2e-9) - 5e-6).abs() < 1e-18);
        assert_eq!(w.value_at(0.0), 0.0);
        let d = Waveform::dc(2.0).scaled(-0.5);
        assert_eq!(d.value_at(7.0), -1.0);
        let p = Waveform::Pwl(vec![(0.0, 1.0), (1.0, 3.0)]).scaled(2.0);
        assert!((p.value_at(0.5) - 4.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn pulse_bounded_by_levels(
            t in 0.0..1e-6f64,
            low in -2.0..0.0f64,
            high in 0.0..2.0f64,
        ) {
            let w = Waveform::pulse(low, high, 1e-9, 1e-10, 1e-10, 5e-9, 10e-9);
            let v = w.value_at(t);
            prop_assert!(v >= low - 1e-12 && v <= high + 1e-12);
        }

        #[test]
        fn pwl_bounded_by_extremes(t in -1.0..10.0f64) {
            let w = Waveform::Pwl(vec![(0.0, 0.2), (1.0, 0.9), (2.0, -0.4), (3.0, 0.1)]);
            let v = w.value_at(t);
            prop_assert!((-0.4..=0.9).contains(&v));
        }
    }
}
