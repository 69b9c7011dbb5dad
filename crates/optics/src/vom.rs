//! The VCSEL Output Modulator (VOM).
//!
//! When a kernel spans several arms (5×5, 7×7) or an MLP layer's dot
//! product exceeds one arm entirely, the per-arm BPD outputs are partial
//! sums. The VOM accumulates them electrically and — when the result must
//! travel to another bank or off-chip — re-modulates the total onto a
//! VCSEL (paper §III-A: the VOM "breaks down the MAC operation when the
//! number of elements in the partial sum is huge").

use oisa_device::vcsel::{Vcsel, VcselParams};
use oisa_units::{Joule, Second};
use serde::{Deserialize, Serialize};

use crate::arm::MacResult;
use crate::{OpticsError, Result};

/// VOM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VomConfig {
    /// The re-modulating laser.
    pub vcsel: VcselParams,
    /// Analog accumulation energy per partial sum (charge-domain adder).
    pub accumulate_energy: Joule,
    /// Accumulation latency per partial sum.
    pub accumulate_time: Second,
    /// Symbol duration of the re-modulated output.
    pub symbol_time: Second,
}

impl VomConfig {
    /// Paper defaults: cited VCSEL, 5 fJ / 20 ps per accumulation,
    /// 55.8 ps output symbols (one architecture cycle).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            vcsel: VcselParams::paper_default(),
            accumulate_energy: Joule::from_femto(5.0),
            accumulate_time: Second::from_pico(20.0),
            symbol_time: Second::from_pico(55.8),
        }
    }
}

/// Aggregated output of a multi-arm kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateResult {
    /// The summed dot product, weight·activation units.
    pub value: f64,
    /// Energy of accumulation plus (optional) re-modulation.
    pub energy: Joule,
    /// Latency of the aggregation chain.
    pub latency: Second,
}

/// The output modulator.
///
/// # Examples
///
/// ```
/// use oisa_optics::vom::{Vom, VomConfig};
///
/// # fn main() -> Result<(), oisa_optics::OpticsError> {
/// let vom = Vom::new(VomConfig::paper_default())?;
/// assert!(vom.config().symbol_time.as_pico() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vom {
    config: VomConfig,
    vcsel: Vcsel,
}

impl Vom {
    /// Builds a VOM.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::Device`] when the VCSEL parameters are
    /// invalid.
    pub fn new(config: VomConfig) -> Result<Self> {
        Ok(Self {
            vcsel: Vcsel::new(config.vcsel)?,
            config,
        })
    }

    /// Configuration in use.
    #[must_use]
    pub fn config(&self) -> &VomConfig {
        &self.config
    }

    /// Accumulates per-arm partial sums into one result, without
    /// re-modulation (kernel stays on-chip).
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] for an empty input.
    pub fn accumulate(&self, partials: &[MacResult]) -> Result<AggregateResult> {
        if partials.is_empty() {
            return Err(no_partials());
        }
        let value = partials.iter().map(|p| p.value).sum();
        let n = partials.len() as f64;
        let arm_latency = partials
            .iter()
            .map(|p| p.latency)
            .fold(Second::ZERO, Second::max);
        Ok(AggregateResult {
            value,
            energy: self.config.accumulate_energy * n,
            latency: arm_latency + self.config.accumulate_time * n,
        })
    }

    /// Accumulates and re-modulates the total for optical transmission
    /// (off-chip hand-off or MLP recirculation). Adds one VCSEL symbol of
    /// energy at the highest drive level — a conservative bound.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] for an empty input.
    pub fn accumulate_and_transmit(&self, partials: &[MacResult]) -> Result<AggregateResult> {
        Ok(self.transmit(self.accumulate(partials)?))
    }

    /// [`Vom::accumulate_and_transmit`] over bare partial values, each
    /// from an arm evaluation that took `arm_latency` — bit-identical to
    /// it on [`MacResult`]s carrying those values and that latency. The
    /// dense engine's fast path, which builds no [`MacResult`].
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] for an empty input.
    pub fn accumulate_and_transmit_values(
        &self,
        values: &[f64],
        arm_latency: Second,
    ) -> Result<AggregateResult> {
        if values.is_empty() {
            return Err(no_partials());
        }
        let (value, energy) = self.accumulate_values(values);
        Ok(self.transmit(AggregateResult {
            value,
            energy: Joule::new(energy),
            latency: arm_latency + self.config.accumulate_time * values.len() as f64,
        }))
    }

    /// Adds one re-modulated VCSEL symbol to an accumulated result.
    fn transmit(&self, accumulated: AggregateResult) -> AggregateResult {
        let tx_energy = self.vcsel.symbol_energy(
            oisa_device::vcsel::TernaryLevel::Two,
            self.config.symbol_time,
        );
        AggregateResult {
            value: accumulated.value,
            energy: accumulated.energy + tx_energy,
            latency: accumulated.latency + self.config.symbol_time,
        }
    }

    /// Fast-path twin of [`Vom::accumulate`] for the accelerator's inner
    /// loop: takes pre-extracted partial values and returns
    /// `(summed value, accumulation energy in joules)` without building
    /// [`AggregateResult`]. Arithmetic matches [`Vom::accumulate`]
    /// bit-for-bit (same summation order, same energy product).
    #[must_use]
    pub fn accumulate_values(&self, values: &[f64]) -> (f64, f64) {
        let value: f64 = values.iter().sum();
        (
            value,
            self.config.accumulate_energy.get() * values.len() as f64,
        )
    }

    /// Splits an oversized dot product (an MLP row of `total` elements)
    /// into per-arm chunks of at most `chunk` elements, returning the
    /// chunk count — the "break down the MAC" behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] when `chunk` is zero.
    pub fn chunk_count(&self, total: usize, chunk: usize) -> Result<usize> {
        if chunk == 0 {
            return Err(OpticsError::InvalidParameter(
                "chunk size must be positive".into(),
            ));
        }
        Ok(total.div_ceil(chunk))
    }
}

/// The error for an aggregation over no partial sums.
fn no_partials() -> OpticsError {
    OpticsError::InvalidParameter("no partial sums to accumulate".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_units::Joule as J;

    fn partial(value: f64, latency_ps: f64) -> MacResult {
        MacResult {
            value,
            raw_current: value * 1e-6,
            latency: Second::from_pico(latency_ps),
            optical_energy: J::from_femto(1.0),
        }
    }

    fn vom() -> Vom {
        Vom::new(VomConfig::paper_default()).unwrap()
    }

    #[test]
    fn accumulate_sums_partials() {
        let parts = [partial(1.5, 10.0), partial(-0.5, 12.0), partial(2.0, 8.0)];
        let agg = vom().accumulate(&parts).unwrap();
        assert!((agg.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulation_rejected() {
        assert!(vom().accumulate(&[]).is_err());
    }

    #[test]
    fn latency_is_slowest_arm_plus_serial_adds() {
        let parts = [partial(1.0, 10.0), partial(1.0, 30.0)];
        let agg = vom().accumulate(&parts).unwrap();
        // 30 ps slowest arm + 2 × 20 ps accumulations.
        assert!((agg.latency.as_pico() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_partial_count() {
        let two = vom().accumulate(&[partial(1.0, 1.0); 2]).unwrap();
        let four = vom().accumulate(&[partial(1.0, 1.0); 4]).unwrap();
        assert!((four.energy.get() / two.energy.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn transmit_adds_vcsel_symbol_cost() {
        let parts = [partial(1.0, 10.0)];
        let plain = vom().accumulate(&parts).unwrap();
        let tx = vom().accumulate_and_transmit(&parts).unwrap();
        assert!(tx.energy.get() > plain.energy.get());
        assert!(tx.latency.get() > plain.latency.get());
        assert_eq!(tx.value, plain.value);
        // The bare-value path gives the same bits on equal-latency
        // partials, and refuses an empty input alike.
        let parts = [partial(0.3, 12.0), partial(-1.7, 12.0), partial(0.1, 12.0)];
        let values: Vec<f64> = parts.iter().map(|p| p.value).collect();
        assert_eq!(
            vom()
                .accumulate_and_transmit_values(&values, Second::from_pico(12.0))
                .unwrap(),
            vom().accumulate_and_transmit(&parts).unwrap()
        );
        assert!(vom()
            .accumulate_and_transmit_values(&[], Second::ZERO)
            .is_err());
    }

    #[test]
    fn chunking_for_mlp_rows() {
        let v = vom();
        assert_eq!(v.chunk_count(784, 9).unwrap(), 88);
        assert_eq!(v.chunk_count(9, 9).unwrap(), 1);
        assert_eq!(v.chunk_count(10, 9).unwrap(), 2);
        assert!(v.chunk_count(10, 0).is_err());
    }
}
