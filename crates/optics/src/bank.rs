//! A bank: five arms, fifty microrings (paper Fig. 6).

use oisa_units::{Joule, Second, Watt};
use serde::{Deserialize, Serialize};

use crate::arm::{Arm, ArmConfig, RINGS_PER_ARM};
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
/// assert_eq!(bank.arm(0)?.weights().len(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bank {
    arms: Vec<Arm>,
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
        Ok(Self { arms })
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
        arm.load_weights(weights, mapper)
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

    fn mapper() -> WeightMapper {
        WeightMapper::ideal(4).unwrap()
    }

    #[test]
    fn bank_has_five_arms_and_fifty_rings() {
        assert_eq!(ARMS_PER_BANK, 5);
        assert_eq!(RINGS_PER_BANK, 50);
    }

    #[test]
    fn invalid_arm_index_rejected() {
        let mut bank = Bank::new(ArmConfig::paper_default()).unwrap();
        assert!(bank.load_arm(5, &[0.5; 9], &mapper()).is_err());
        assert!(bank.arm(5).is_err());
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
