//! The full Optical Processing Core: 80 banks, 4 columns, 4000 rings.
//!
//! Paper Fig. 6: banks are grouped in four columns, so each *row* of the
//! hierarchy exposes 40 MRs at once, matched by **40 AWC units** — one
//! tuning iteration programs one row, and filling all 4000 rings takes
//! exactly **100 iterations**, the number the paper quotes for a complete
//! weight-map.

use oisa_device::noise::NoiseModel;
use oisa_units::{Joule, Watt};
use serde::{Deserialize, Serialize};

use crate::arm::{ArmConfig, MacResult, RINGS_PER_ARM};
use crate::bank::{Bank, ARMS_PER_BANK, RINGS_PER_BANK};
use crate::weights::WeightMapper;
use crate::{OpticsError, Result};

/// Kernel sizes the OPC supports (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelSize {
    /// 3×3 — five kernels per bank, one per arm.
    K3,
    /// 5×5 — one kernel per bank (25 rings over 3 arms, VOM-aggregated).
    K5,
    /// 7×7 — one kernel per bank (49 rings over 5 arms, VOM-aggregated).
    K7,
}

impl KernelSize {
    /// Side length.
    #[must_use]
    pub fn k(self) -> usize {
        match self {
            Self::K3 => 3,
            Self::K5 => 5,
            Self::K7 => 7,
        }
    }

    /// Weights per kernel, `K²`.
    #[must_use]
    pub fn weights(self) -> usize {
        self.k() * self.k()
    }

    /// Kernels mappable per bank (`n` in the paper's formula: 5 for 3×3,
    /// else 1).
    #[must_use]
    pub fn kernels_per_bank(self) -> usize {
        match self {
            Self::K3 => ARMS_PER_BANK,
            Self::K5 | Self::K7 => 1,
        }
    }

    /// Arms one kernel occupies.
    #[must_use]
    pub fn arms_per_kernel(self) -> usize {
        match self {
            Self::K3 => 1,
            Self::K5 => 3, // 25 weights over 10+10+5 rings
            Self::K7 => 5, // 49 weights over 10×4+9 rings
        }
    }

    /// Parses a side length.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] for unsupported sizes.
    pub fn from_k(k: usize) -> Result<Self> {
        match k {
            3 => Ok(Self::K3),
            5 => Ok(Self::K5),
            7 => Ok(Self::K7),
            other => Err(OpticsError::InvalidParameter(format!(
                "unsupported kernel size {other} (OISA supports 3, 5, 7)"
            ))),
        }
    }
}

/// OPC structural configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpcConfig {
    /// Number of banks (paper: 80).
    pub banks: usize,
    /// Bank columns (paper: 4).
    pub columns: usize,
    /// AWC units shared across the array (paper: 40).
    pub awc_units: usize,
    /// Per-arm configuration.
    pub arm: ArmConfig,
}

impl OpcConfig {
    /// The paper's 80-bank, 4-column, 40-AWC configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            banks: 80,
            columns: 4,
            awc_units: 40,
            arm: ArmConfig::paper_default(),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.banks == 0 || self.columns == 0 || self.awc_units == 0 {
            return Err(OpticsError::InvalidParameter(
                "banks, columns and awc_units must be positive".into(),
            ));
        }
        if !self.banks.is_multiple_of(self.columns) {
            return Err(OpticsError::InvalidParameter(format!(
                "banks ({}) must divide evenly into columns ({})",
                self.banks, self.columns
            )));
        }
        Ok(())
    }

    /// Total microrings, `banks × 50`.
    #[must_use]
    pub fn total_rings(&self) -> usize {
        self.banks * RINGS_PER_BANK
    }

    /// MAC operations per cycle for kernel size `k` — the paper's
    /// `N_cycle = f · (n · K²)` formula.
    #[must_use]
    pub fn macs_per_cycle(&self, k: KernelSize) -> usize {
        self.banks * k.kernels_per_bank() * k.weights()
    }

    /// Tuning iterations to program `rings` rings with the shared AWC
    /// row: `⌈rings / awc_units⌉`.
    #[must_use]
    pub fn tuning_iterations(&self, rings: usize) -> usize {
        rings.div_ceil(self.awc_units)
    }
}

/// The instantiated core.
///
/// # Examples
///
/// ```
/// use oisa_optics::opc::{KernelSize, Opc, OpcConfig};
///
/// # fn main() -> Result<(), oisa_optics::OpticsError> {
/// let cfg = OpcConfig::paper_default();
/// assert_eq!(cfg.total_rings(), 4000);
/// assert_eq!(cfg.macs_per_cycle(KernelSize::K3), 3600);
/// assert_eq!(cfg.macs_per_cycle(KernelSize::K5), 2000);
/// assert_eq!(cfg.macs_per_cycle(KernelSize::K7), 3920);
/// assert_eq!(cfg.tuning_iterations(cfg.total_rings()), 100);
/// let opc = Opc::new(cfg)?;
/// assert_eq!(opc.bank_count(), 80);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Opc {
    config: OpcConfig,
    banks: Vec<Bank>,
}

impl Opc {
    /// Builds the core with all banks idle.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] for inconsistent
    /// configurations.
    pub fn new(config: OpcConfig) -> Result<Self> {
        config.validate()?;
        let banks = (0..config.banks)
            .map(|_| Bank::new(config.arm))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { config, banks })
    }

    /// Structural configuration.
    #[must_use]
    pub fn config(&self) -> &OpcConfig {
        &self.config
    }

    /// Number of banks.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Shared bank reference.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::IndexOutOfRange`] for an invalid index.
    pub fn bank(&self, index: usize) -> Result<&Bank> {
        self.banks
            .get(index)
            .ok_or_else(|| OpticsError::IndexOutOfRange(format!("bank {index}")))
    }

    /// Mutable bank reference.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::IndexOutOfRange`] for an invalid index.
    pub fn bank_mut(&mut self, index: usize) -> Result<&mut Bank> {
        self.banks
            .get_mut(index)
            .ok_or_else(|| OpticsError::IndexOutOfRange(format!("bank {index}")))
    }

    /// Loads one kernel (≤ [`RINGS_PER_ARM`] weights per arm) into bank
    /// `bank`, spreading across arms from `first_arm`. Returns the number
    /// of arms used.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::CapacityExceeded`] if the kernel does not
    /// fit in the remaining arms and propagates lower-level failures.
    pub fn load_kernel(
        &mut self,
        bank: usize,
        first_arm: usize,
        weights: &[f64],
        mapper: &WeightMapper,
    ) -> Result<usize> {
        let arms_needed = weights.len().div_ceil(RINGS_PER_ARM);
        if first_arm + arms_needed > ARMS_PER_BANK {
            return Err(OpticsError::CapacityExceeded {
                capacity: (ARMS_PER_BANK - first_arm) * RINGS_PER_ARM,
                requested: weights.len(),
            });
        }
        let target = self.bank_mut(bank)?;
        for (i, chunk) in weights.chunks(RINGS_PER_ARM).enumerate() {
            target.load_arm(first_arm + i, chunk, mapper)?;
        }
        Ok(arms_needed)
    }

    /// Evaluates one loaded arm.
    ///
    /// # Errors
    ///
    /// Propagates index and arm-level failures.
    pub fn compute_arm<N: NoiseModel>(
        &self,
        bank: usize,
        arm: usize,
        activations: &[f64],
        noise: &mut N,
    ) -> Result<MacResult> {
        self.bank(bank)?.arm(arm)?.mac(activations, noise)
    }

    /// Total static heater power across the core.
    #[must_use]
    pub fn holding_power(&self) -> Watt {
        self.banks.iter().map(Bank::holding_power).sum()
    }

    /// Total tuning energy of the latest mapping.
    #[must_use]
    pub fn tuning_energy(&self) -> Joule {
        self.banks.iter().map(Bank::tuning_energy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::noise::{NoiseConfig, NoiseSource};

    fn small_config() -> OpcConfig {
        OpcConfig {
            banks: 4,
            columns: 2,
            awc_units: 10,
            arm: ArmConfig::paper_default(),
        }
    }

    #[test]
    fn paper_formula_constants() {
        let cfg = OpcConfig::paper_default();
        assert_eq!(cfg.total_rings(), 4000);
        assert_eq!(cfg.macs_per_cycle(KernelSize::K3), 3600);
        assert_eq!(cfg.macs_per_cycle(KernelSize::K5), 2000);
        assert_eq!(cfg.macs_per_cycle(KernelSize::K7), 3920);
        assert_eq!(cfg.tuning_iterations(4000), 100);
    }

    #[test]
    fn kernel_size_parse() {
        assert_eq!(KernelSize::from_k(3).unwrap(), KernelSize::K3);
        assert_eq!(KernelSize::from_k(5).unwrap(), KernelSize::K5);
        assert_eq!(KernelSize::from_k(7).unwrap(), KernelSize::K7);
        assert!(KernelSize::from_k(4).is_err());
    }

    #[test]
    fn kernel_occupancy() {
        assert_eq!(KernelSize::K3.arms_per_kernel(), 1);
        assert_eq!(KernelSize::K5.arms_per_kernel(), 3);
        assert_eq!(KernelSize::K7.arms_per_kernel(), 5);
        assert_eq!(KernelSize::K3.kernels_per_bank(), 5);
        assert_eq!(KernelSize::K7.kernels_per_bank(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small_config();
        cfg.banks = 0;
        assert!(Opc::new(cfg).is_err());
        let mut cfg = small_config();
        cfg.banks = 5; // not divisible by 2 columns
        assert!(Opc::new(cfg).is_err());
    }

    #[test]
    fn load_small_kernel_uses_one_arm() {
        let mut opc = Opc::new(small_config()).unwrap();
        let mapper = WeightMapper::ideal(4).unwrap();
        let used = opc.load_kernel(0, 0, &[0.5; 9], &mapper).unwrap();
        assert_eq!(used, 1);
    }

    #[test]
    fn load_large_kernel_spreads_across_arms() {
        let mut opc = Opc::new(small_config()).unwrap();
        let mapper = WeightMapper::ideal(4).unwrap();
        let weights = vec![0.25; 25]; // 5×5
        let used = opc.load_kernel(1, 0, &weights, &mapper).unwrap();
        assert_eq!(used, 3);
    }

    #[test]
    fn oversize_kernel_rejected() {
        let mut opc = Opc::new(small_config()).unwrap();
        let mapper = WeightMapper::ideal(4).unwrap();
        let weights = vec![0.25; 49];
        // Starting at arm 1 leaves only 40 ring slots.
        assert!(matches!(
            opc.load_kernel(0, 1, &weights, &mapper),
            Err(OpticsError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn compute_arm_end_to_end() {
        let mut opc = Opc::new(small_config()).unwrap();
        let mapper = WeightMapper::ideal(4).unwrap();
        opc.load_kernel(2, 0, &[1.0; 9], &mapper).unwrap();
        let mut quiet = NoiseSource::seeded(0, NoiseConfig::noiseless());
        let out = opc.compute_arm(2, 0, &[1.0; 9], &mut quiet).unwrap();
        assert!(out.value > 8.0);
        assert!(opc.compute_arm(3, 0, &[1.0; 9], &mut quiet).is_err()); // nothing loaded? still works physically
    }

    #[test]
    fn holding_power_grows_with_loads() {
        let mut opc = Opc::new(small_config()).unwrap();
        let mapper = WeightMapper::ideal(4).unwrap();
        let p0 = opc.holding_power();
        opc.load_kernel(0, 0, &[1.0; 9], &mapper).unwrap();
        opc.load_kernel(1, 0, &[1.0; 9], &mapper).unwrap();
        let p2 = opc.holding_power();
        assert!(p2.get() > p0.get());
    }
}
