//! A bank: five arms, fifty microrings (paper Fig. 6).

use oisa_device::noise::{NoiseConfig, NoiseModel};
use oisa_units::{Joule, Second, Watt};
use serde::{Deserialize, Serialize};

use crate::arm::{Arm, ArmConfig, ArmSnapshot, MacResult, RINGS_PER_ARM};
use crate::weights::WeightMapper;
use crate::{OpticsError, Result};

/// Arms per bank (paper §III-B).
pub const ARMS_PER_BANK: usize = 5;

/// Microrings per bank.
pub const RINGS_PER_BANK: usize = ARMS_PER_BANK * RINGS_PER_ARM;

/// A bank of five arms sharing a column's optical distribution network.
///
/// # Examples
///
/// ```
/// use oisa_optics::bank::{Bank, ARMS_PER_BANK};
/// use oisa_optics::arm::ArmConfig;
/// use oisa_optics::weights::WeightMapper;
///
/// # fn main() -> Result<(), oisa_optics::OpticsError> {
/// let mut bank = Bank::new(ArmConfig::paper_default())?;
/// let mapper = WeightMapper::ideal(4)?;
/// bank.load_arm(0, &[0.5; 9], &mapper)?;
/// assert_eq!(bank.loaded_arm_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bank {
    arms: Vec<Arm>,
    loaded: Vec<bool>,
}

impl Bank {
    /// Builds a bank of [`ARMS_PER_BANK`] idle arms.
    ///
    /// # Errors
    ///
    /// Propagates arm construction failures.
    pub fn new(config: ArmConfig) -> Result<Self> {
        let arms = (0..ARMS_PER_BANK)
            .map(|_| Arm::new(config))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            arms,
            loaded: vec![false; ARMS_PER_BANK],
        })
    }

    /// Shared arm reference.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::IndexOutOfRange`] for an invalid index.
    pub fn arm(&self, index: usize) -> Result<&Arm> {
        self.arms
            .get(index)
            .ok_or_else(|| OpticsError::IndexOutOfRange(format!("arm {index}")))
    }

    /// Immutable snapshot of arm `index` under `noise` (see
    /// [`Arm::snapshot`]): the captured state keeps evaluating
    /// bit-identically even after the arm is re-tuned for a later pass.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::IndexOutOfRange`] for an invalid index.
    pub fn snapshot_arm(&self, index: usize, noise: &NoiseConfig) -> Result<ArmSnapshot> {
        Ok(self.arm(index)?.snapshot(noise))
    }

    /// Loads `weights` into arm `index`.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::IndexOutOfRange`] for an invalid index and
    /// propagates arm-level failures.
    pub fn load_arm(&mut self, index: usize, weights: &[f64], mapper: &WeightMapper) -> Result<()> {
        let arm = self
            .arms
            .get_mut(index)
            .ok_or_else(|| OpticsError::IndexOutOfRange(format!("arm {index}")))?;
        arm.load_weights(weights, mapper)?;
        self.loaded[index] = true;
        Ok(())
    }

    /// Marks an arm idle (weights cleared at next load; rings keep their
    /// tuning until then, as in hardware).
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::IndexOutOfRange`] for an invalid index.
    pub fn unload_arm(&mut self, index: usize) -> Result<()> {
        if index >= ARMS_PER_BANK {
            return Err(OpticsError::IndexOutOfRange(format!("arm {index}")));
        }
        self.loaded[index] = false;
        Ok(())
    }

    /// Number of arms currently holding kernels.
    #[must_use]
    pub fn loaded_arm_count(&self) -> usize {
        self.loaded.iter().filter(|&&l| l).count()
    }

    /// Evaluates every loaded arm against its slice of `activations`
    /// (one activation vector per loaded arm, in arm order).
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] when the number of
    /// activation vectors differs from the loaded arm count.
    pub fn compute<N: NoiseModel>(
        &self,
        activations: &[Vec<f64>],
        noise: &mut N,
    ) -> Result<Vec<MacResult>> {
        let loaded_indices: Vec<usize> = (0..ARMS_PER_BANK).filter(|&i| self.loaded[i]).collect();
        if activations.len() != loaded_indices.len() {
            return Err(OpticsError::InvalidParameter(format!(
                "{} activation vectors for {} loaded arms",
                activations.len(),
                loaded_indices.len()
            )));
        }
        loaded_indices
            .iter()
            .zip(activations)
            .map(|(&i, a)| self.arms[i].mac(a, noise))
            .collect()
    }

    /// Static heater power of all arms.
    #[must_use]
    pub fn holding_power(&self) -> Watt {
        self.arms.iter().map(Arm::holding_power).sum()
    }

    /// Total tuning energy of the most recent loads.
    #[must_use]
    pub fn tuning_energy(&self) -> Joule {
        self.arms.iter().map(Arm::tuning_energy).sum()
    }

    /// Worst-case tuning latency across arms (they settle in parallel).
    #[must_use]
    pub fn tuning_latency(&self) -> Second {
        self.arms
            .iter()
            .map(Arm::tuning_latency)
            .fold(Second::ZERO, Second::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::noise::{NoiseConfig, NoiseSource};

    fn mapper() -> WeightMapper {
        WeightMapper::ideal(4).unwrap()
    }

    fn quiet() -> NoiseSource {
        NoiseSource::seeded(0, NoiseConfig::noiseless())
    }

    #[test]
    fn bank_has_five_arms_and_fifty_rings() {
        assert_eq!(ARMS_PER_BANK, 5);
        assert_eq!(RINGS_PER_BANK, 50);
    }

    #[test]
    fn load_and_compute_multiple_kernels() {
        let mut bank = Bank::new(ArmConfig::paper_default()).unwrap();
        let m = mapper();
        bank.load_arm(0, &[1.0; 9], &m).unwrap();
        bank.load_arm(2, &[-1.0; 9], &m).unwrap();
        assert_eq!(bank.loaded_arm_count(), 2);
        let acts = vec![vec![1.0; 9], vec![1.0; 9]];
        let out = bank.compute(&acts, &mut quiet()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].value > 8.0); // Σ 1·1 over 9 channels ≈ 9
        assert!(out[1].value < -8.0);
    }

    #[test]
    fn activation_count_must_match_loaded_arms() {
        let mut bank = Bank::new(ArmConfig::paper_default()).unwrap();
        bank.load_arm(0, &[0.5; 9], &mapper()).unwrap();
        let err = bank.compute(&[], &mut quiet()).unwrap_err();
        assert!(matches!(err, OpticsError::InvalidParameter(_)));
    }

    #[test]
    fn invalid_arm_index_rejected() {
        let mut bank = Bank::new(ArmConfig::paper_default()).unwrap();
        assert!(bank.load_arm(5, &[0.5; 9], &mapper()).is_err());
        assert!(bank.arm(5).is_err());
        assert!(bank.unload_arm(9).is_err());
    }

    #[test]
    fn unload_reduces_loaded_count() {
        let mut bank = Bank::new(ArmConfig::paper_default()).unwrap();
        bank.load_arm(1, &[0.5; 9], &mapper()).unwrap();
        bank.unload_arm(1).unwrap();
        assert_eq!(bank.loaded_arm_count(), 0);
    }

    #[test]
    fn power_and_energy_aggregate_over_arms() {
        let mut bank = Bank::new(ArmConfig::paper_default()).unwrap();
        let m = mapper();
        bank.load_arm(0, &[1.0; 9], &m).unwrap();
        let p1 = bank.holding_power();
        bank.load_arm(1, &[1.0; 9], &m).unwrap();
        let p2 = bank.holding_power();
        assert!(p2.get() > p1.get());
        assert!(bank.tuning_energy().get() > 0.0);
        assert!(bank.tuning_latency().get() > 0.0);
    }
}
