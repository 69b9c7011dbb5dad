//! Fault injection for the optical fabric.
//!
//! Photonic accelerators degrade in characteristic ways: a ring's heater
//! can fail open (the ring parks at its fabricated resonance and blocks
//! its channel), a ring can stick at full detuning (its channel passes
//! at full weight), or an arm's detector can die outright. Injecting
//! these faults lets tests and examples measure how gracefully the
//! architecture degrades — robustness the paper touches on through its
//! noise discussion but never quantifies.

use oisa_device::noise::NoiseSource;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::arm::MacResult;
use crate::opc::Opc;
use crate::Result;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fault {
    /// The ring's tuning is stuck on resonance: its channel reads weight
    /// 0 regardless of the programmed value.
    RingStuckLow {
        /// Bank index.
        bank: usize,
        /// Arm index within the bank.
        arm: usize,
        /// Ring index within the arm.
        ring: usize,
    },
    /// The ring is stuck fully detuned: its channel reads its full
    /// programmed activation as if the weight were 1.
    RingStuckHigh {
        /// Bank index.
        bank: usize,
        /// Arm index within the bank.
        arm: usize,
        /// Ring index within the arm.
        ring: usize,
    },
    /// The arm's balanced detector is dead: the arm always reports 0.
    DeadDetector {
        /// Bank index.
        bank: usize,
        /// Arm index within the bank.
        arm: usize,
    },
}

/// A set of faults applied to an OPC during computation.
///
/// # Examples
///
/// ```
/// use oisa_optics::fault::{Fault, FaultMap};
///
/// let mut faults = FaultMap::new();
/// faults.inject(Fault::DeadDetector { bank: 0, arm: 2 });
/// assert_eq!(faults.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultMap {
    faults: Vec<Fault>,
}

impl FaultMap {
    /// An empty (healthy) map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    pub fn inject(&mut self, fault: Fault) {
        if !self.faults.contains(&fault) {
            self.faults.push(fault);
        }
    }

    /// Number of injected faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when no fault is injected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// All faults.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Draws `count` random ring faults over an OPC of the given
    /// dimensions (a fabrication-yield scenario).
    pub fn random_ring_faults<R: Rng + ?Sized>(count: usize, banks: usize, rng: &mut R) -> Self {
        let mut map = Self::new();
        for _ in 0..count {
            let bank = rng.gen_range(0..banks);
            let arm = rng.gen_range(0..crate::bank::ARMS_PER_BANK);
            let ring = rng.gen_range(0..crate::arm::RINGS_PER_ARM);
            let fault = if rng.gen_bool(0.5) {
                Fault::RingStuckLow { bank, arm, ring }
            } else {
                Fault::RingStuckHigh { bank, arm, ring }
            };
            map.inject(fault);
        }
        map
    }

    fn detector_dead(&self, bank: usize, arm: usize) -> bool {
        self.faults.iter().any(
            |f| matches!(f, Fault::DeadDetector { bank: b, arm: a } if *b == bank && *a == arm),
        )
    }

    fn ring_fault(&self, bank: usize, arm: usize, ring: usize) -> Option<&Fault> {
        self.faults.iter().find(|f| match f {
            Fault::RingStuckLow {
                bank: b,
                arm: a,
                ring: r,
            }
            | Fault::RingStuckHigh {
                bank: b,
                arm: a,
                ring: r,
            } => *b == bank && *a == arm && *r == ring,
            Fault::DeadDetector { .. } => false,
        })
    }

    /// Evaluates one arm under this fault map: stuck rings override the
    /// programmed weight contribution, a dead detector zeroes the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates index and arm-level failures.
    pub fn compute_arm(
        &self,
        opc: &Opc,
        bank: usize,
        arm: usize,
        activations: &[f64],
        noise: &mut NoiseSource,
    ) -> Result<MacResult> {
        let healthy = opc.compute_arm(bank, arm, activations, noise)?;
        if self.detector_dead(bank, arm) {
            return Ok(MacResult {
                value: 0.0,
                raw_current: 0.0,
                ..healthy
            });
        }
        if self.faults.is_empty() {
            return Ok(healthy);
        }
        // Correct the healthy value for stuck rings: remove the
        // programmed contribution and add the stuck one.
        let weights = opc.bank(bank)?.arm(arm)?.weights();
        let mut value = healthy.value;
        for (ring, (a, w)) in activations.iter().zip(weights).enumerate() {
            match self.ring_fault(bank, arm, ring) {
                Some(Fault::RingStuckLow { .. }) => {
                    value -= w.value() * a;
                }
                Some(Fault::RingStuckHigh { .. }) => {
                    value -= w.value() * a;
                    // Stuck-high passes full amplitude on the sign
                    // waveguide the weight was routed to.
                    let sign = if w.negative { -1.0 } else { 1.0 };
                    value += sign * a;
                }
                _ => {}
            }
        }
        Ok(MacResult { value, ..healthy })
    }
}

impl FromIterator<Fault> for FaultMap {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        let mut map = Self::new();
        for f in iter {
            map.inject(f);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::ArmConfig;
    use crate::opc::OpcConfig;
    use crate::weights::WeightMapper;
    use oisa_device::noise::{NoiseConfig, NoiseSource};

    fn small_opc_with_kernel() -> Opc {
        let cfg = OpcConfig {
            banks: 2,
            columns: 1,
            awc_units: 10,
            arm: ArmConfig::no_crosstalk(),
        };
        let mut opc = Opc::new(cfg).unwrap();
        let mapper = WeightMapper::ideal(4).unwrap();
        opc.load_kernel(
            0,
            0,
            &[1.0, -1.0, 0.5, 0.0, 0.25, 0.75, -0.5, 0.1, 0.9],
            &mapper,
        )
        .unwrap();
        opc
    }

    fn quiet() -> NoiseSource {
        NoiseSource::seeded(0, NoiseConfig::noiseless())
    }

    #[test]
    fn healthy_map_is_transparent() {
        let opc = small_opc_with_kernel();
        let map = FaultMap::new();
        let a = [1.0; 9];
        let healthy = opc.compute_arm(0, 0, &a, &mut quiet()).unwrap();
        let via_map = map.compute_arm(&opc, 0, 0, &a, &mut quiet()).unwrap();
        assert!((healthy.value - via_map.value).abs() < 1e-12);
    }

    #[test]
    fn dead_detector_zeroes_output() {
        let opc = small_opc_with_kernel();
        let map: FaultMap = [Fault::DeadDetector { bank: 0, arm: 0 }]
            .into_iter()
            .collect();
        let out = map
            .compute_arm(&opc, 0, 0, &[1.0; 9], &mut quiet())
            .unwrap();
        assert_eq!(out.value, 0.0);
    }

    #[test]
    fn stuck_low_removes_one_contribution() {
        let opc = small_opc_with_kernel();
        let a = [1.0; 9];
        let healthy = opc.compute_arm(0, 0, &a, &mut quiet()).unwrap().value;
        let map: FaultMap = [Fault::RingStuckLow {
            bank: 0,
            arm: 0,
            ring: 0, // weight +1.0
        }]
        .into_iter()
        .collect();
        let faulty = map.compute_arm(&opc, 0, 0, &a, &mut quiet()).unwrap().value;
        assert!(
            (healthy - faulty - 1.0).abs() < 0.05,
            "losing the +1.0 ring: {healthy} -> {faulty}"
        );
    }

    #[test]
    fn stuck_high_forces_full_weight() {
        let opc = small_opc_with_kernel();
        let a = [1.0; 9];
        let healthy = opc.compute_arm(0, 0, &a, &mut quiet()).unwrap().value;
        // Ring 3 holds weight 0.0 → stuck high adds +1.0.
        let map: FaultMap = [Fault::RingStuckHigh {
            bank: 0,
            arm: 0,
            ring: 3,
        }]
        .into_iter()
        .collect();
        let faulty = map.compute_arm(&opc, 0, 0, &a, &mut quiet()).unwrap().value;
        assert!(
            (faulty - healthy - 1.0).abs() < 0.05,
            "stuck-high zero ring: {healthy} -> {faulty}"
        );
    }

    #[test]
    fn duplicate_faults_deduplicated() {
        let mut map = FaultMap::new();
        let f = Fault::DeadDetector { bank: 0, arm: 0 };
        map.inject(f);
        map.inject(f);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn random_faults_within_bounds() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let map = FaultMap::random_ring_faults(20, 2, &mut rng);
        assert!(!map.is_empty());
        for f in map.faults() {
            let (Fault::RingStuckLow { bank, arm, ring }
            | Fault::RingStuckHigh { bank, arm, ring }) = *f
            else {
                panic!("ring faults only, got {f:?}");
            };
            assert!(bank < 2 && arm < crate::bank::ARMS_PER_BANK, "{f:?}");
            assert!(ring < crate::arm::RINGS_PER_ARM, "{f:?}");
        }
    }
}
