//! Analytical memory macro model (CACTI / NVSim stand-in).
//!
//! The scaling laws follow the standard first-order forms those tools
//! implement:
//!
//! * dynamic access energy grows with word width and with the square root
//!   of capacity (bitline/wordline lengths grow as √N for a square
//!   array);
//! * leakage grows linearly with capacity and shrinks with technology;
//! * latency grows with √capacity;
//! * area is capacity × a per-bit cell area scaled by the node squared.
//!
//! Calibration anchors (from published CACTI 5.1 / NVSim tables):
//!
//! | macro | anchor |
//! |---|---|
//! | SRAM 45 nm, 4 KB, 32-bit | ≈ 5 pJ/read, ≈ 0.5 ns |
//! | eDRAM 45 nm, 1 MB | ≈ 0.8× SRAM read energy/bit, refresh ≈ µW/KB |
//! | RRAM (NVSim) | read ≈ 0.5× SRAM, write ≈ 10× read, ~ns writes, no leakage |

use oisa_units::{Joule, Second, SquareMeter, Watt};
use serde::{Deserialize, Serialize};

use crate::{MemoryError, Result};

/// Technology class of a macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// Six-transistor SRAM (kernel banks, ASIC buffers).
    Sram,
    /// Embedded DRAM (DaDianNao-like ASIC tiles).
    Edram,
    /// Resistive non-volatile memory (AppCiP/PISA weight storage).
    Nvm,
}

/// An instantiated memory macro.
///
/// # Examples
///
/// ```
/// use oisa_memory::model::{MemoryKind, MemoryMacro};
///
/// # fn main() -> Result<(), oisa_memory::MemoryError> {
/// let sram = MemoryMacro::new(MemoryKind::Sram, 45, 4096, 32)?;
/// let nvm = MemoryMacro::new(MemoryKind::Nvm, 45, 4096, 32)?;
/// // NVM writes are the expensive operation the paper calls out for PISA.
/// assert!(nvm.write_energy().get() > sram.write_energy().get());
/// // ...but NVM does not leak.
/// assert_eq!(nvm.leakage_power().get(), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryMacro {
    kind: MemoryKind,
    technology_nm: u32,
    capacity_bytes: usize,
    word_bits: u32,
}

impl MemoryMacro {
    /// Builds a macro.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidParameter`] for a zero capacity/word
    /// width or a technology outside 7–250 nm.
    pub fn new(
        kind: MemoryKind,
        technology_nm: u32,
        capacity_bytes: usize,
        word_bits: u32,
    ) -> Result<Self> {
        if capacity_bytes == 0 {
            return Err(MemoryError::InvalidParameter(
                "capacity must be positive".into(),
            ));
        }
        if word_bits == 0 || word_bits > 1024 {
            return Err(MemoryError::InvalidParameter(format!(
                "word width {word_bits} outside 1..=1024"
            )));
        }
        if !(7..=250).contains(&technology_nm) {
            return Err(MemoryError::InvalidParameter(format!(
                "technology {technology_nm} nm outside 7..=250"
            )));
        }
        Ok(Self {
            kind,
            technology_nm,
            capacity_bytes,
            word_bits,
        })
    }

    /// Macro kind.
    #[must_use]
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Technology scaling relative to the 45 nm anchor (dynamic energy
    /// ∝ node).
    fn tech_energy_scale(&self) -> f64 {
        f64::from(self.technology_nm) / 45.0
    }

    /// √capacity scaling relative to the 4 KB anchor.
    fn size_scale(&self) -> f64 {
        (self.capacity_bytes as f64 / 4096.0).sqrt()
    }

    /// Energy of one word read.
    #[must_use]
    pub fn read_energy(&self) -> Joule {
        // Anchor: 45 nm 4 KB 32-bit SRAM ≈ 5 pJ → ≈ 156 fJ/bit.
        let per_bit_fj = 156.0 * self.tech_energy_scale() * self.size_scale();
        let kind_factor = match self.kind {
            MemoryKind::Sram => 1.0,
            MemoryKind::Edram => 0.8,
            MemoryKind::Nvm => 0.5,
        };
        Joule::from_femto(per_bit_fj * kind_factor * f64::from(self.word_bits))
    }

    /// Energy of one word write.
    #[must_use]
    pub fn write_energy(&self) -> Joule {
        let read = self.read_energy();
        let factor = match self.kind {
            MemoryKind::Sram => 1.1,
            MemoryKind::Edram => 1.3,
            // NVSim: resistive set/reset dominates — the paper's argument
            // against PISA's NVM-heavy design.
            MemoryKind::Nvm => 10.0,
        };
        read * factor
    }

    /// Word access latency.
    #[must_use]
    pub(crate) fn access_latency(&self) -> Second {
        // Anchor: 0.5 ns at 4 KB / 45 nm.
        let base_ns = 0.5 * self.tech_energy_scale() * self.size_scale();
        let factor = match self.kind {
            MemoryKind::Sram => 1.0,
            MemoryKind::Edram => 1.5,
            MemoryKind::Nvm => 2.0,
        };
        Second::from_nano(base_ns * factor)
    }

    /// Write latency (NVM writes are much slower than reads).
    #[must_use]
    pub fn write_latency(&self) -> Second {
        let factor = match self.kind {
            MemoryKind::Sram => 1.0,
            MemoryKind::Edram => 1.2,
            MemoryKind::Nvm => 20.0,
        };
        self.access_latency() * factor
    }

    /// Static leakage power.
    #[must_use]
    pub fn leakage_power(&self) -> Watt {
        match self.kind {
            // Anchor: ≈ 10 µW per 4 KB at 45 nm, scaling with capacity and
            // inversely with node (thinner oxides leak more).
            MemoryKind::Sram => Watt::from_micro(
                10.0 * (self.capacity_bytes as f64 / 4096.0)
                    * (45.0 / f64::from(self.technology_nm)),
            ),
            MemoryKind::Edram => Watt::from_micro(
                2.0 * (self.capacity_bytes as f64 / 4096.0)
                    * (45.0 / f64::from(self.technology_nm)),
            ),
            MemoryKind::Nvm => Watt::ZERO,
        }
    }

    /// Refresh power (eDRAM only).
    #[must_use]
    pub fn refresh_power(&self) -> Watt {
        match self.kind {
            MemoryKind::Edram => {
                // ≈ 1 µW per KB at 45 nm.
                Watt::from_micro(self.capacity_bytes as f64 / 1024.0)
            }
            MemoryKind::Sram | MemoryKind::Nvm => Watt::ZERO,
        }
    }

    /// Silicon area of the macro.
    #[must_use]
    pub fn area(&self) -> SquareMeter {
        // Cell areas at 45 nm: SRAM ≈ 0.38 µm²/bit (6T, with overhead),
        // eDRAM ≈ 0.1 µm²/bit, RRAM ≈ 0.05 µm²/bit. Scale with node².
        let per_bit_um2 = match self.kind {
            MemoryKind::Sram => 0.38,
            MemoryKind::Edram => 0.10,
            MemoryKind::Nvm => 0.05,
        };
        let node_scale = (f64::from(self.technology_nm) / 45.0).powi(2);
        let bits = self.capacity_bytes as f64 * 8.0;
        SquareMeter::new(per_bit_um2 * node_scale * bits * 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sram4k() -> MemoryMacro {
        MemoryMacro::new(MemoryKind::Sram, 45, 4096, 32).unwrap()
    }

    #[test]
    fn anchor_point_read_energy() {
        // The CACTI calibration anchor: ≈ 5 pJ per 32-bit read.
        let e = sram4k().read_energy();
        assert!((e.as_pico() - 5.0).abs() < 0.1, "anchor read {e}");
    }

    #[test]
    fn anchor_point_latency() {
        let t = sram4k().access_latency();
        assert!((t.as_nano() - 0.5).abs() < 0.01, "anchor latency {t}");
    }

    #[test]
    fn energy_scales_with_sqrt_capacity() {
        let small = sram4k();
        let big = MemoryMacro::new(MemoryKind::Sram, 45, 16384, 32).unwrap();
        let ratio = big.read_energy().get() / small.read_energy().get();
        assert!((ratio - 2.0).abs() < 1e-9, "√(16/4) = 2, got {ratio}");
    }

    #[test]
    fn energy_scales_with_technology() {
        let n45 = sram4k();
        let n90 = MemoryMacro::new(MemoryKind::Sram, 90, 4096, 32).unwrap();
        let ratio = n90.read_energy().get() / n45.read_energy().get();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nvm_write_penalty() {
        let nvm = MemoryMacro::new(MemoryKind::Nvm, 45, 4096, 32).unwrap();
        let ratio = nvm.write_energy().get() / nvm.read_energy().get();
        assert!((ratio - 10.0).abs() < 1e-9);
        assert!(nvm.write_latency().get() > 10.0 * nvm.access_latency().get());
    }

    #[test]
    fn nvm_zero_leakage_sram_leaks() {
        let nvm = MemoryMacro::new(MemoryKind::Nvm, 45, 4096, 32).unwrap();
        assert_eq!(nvm.leakage_power().get(), 0.0);
        assert!(sram4k().leakage_power().get() > 0.0);
    }

    #[test]
    fn edram_refresh_power() {
        let edram = MemoryMacro::new(MemoryKind::Edram, 45, 1 << 20, 256).unwrap();
        // 1 MB → ≈ 1 mW refresh.
        assert!((edram.refresh_power().as_milli() - 1.024).abs() < 0.01);
        assert_eq!(sram4k().refresh_power().get(), 0.0);
    }

    #[test]
    fn area_ordering_sram_vs_edram_vs_nvm() {
        let cap = 1 << 16;
        let sram = MemoryMacro::new(MemoryKind::Sram, 45, cap, 32).unwrap();
        let edram = MemoryMacro::new(MemoryKind::Edram, 45, cap, 32).unwrap();
        let nvm = MemoryMacro::new(MemoryKind::Nvm, 45, cap, 32).unwrap();
        assert!(sram.area().get() > edram.area().get());
        assert!(edram.area().get() > nvm.area().get());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(MemoryMacro::new(MemoryKind::Sram, 45, 0, 32).is_err());
        assert!(MemoryMacro::new(MemoryKind::Sram, 45, 1024, 0).is_err());
        assert!(MemoryMacro::new(MemoryKind::Sram, 3, 1024, 32).is_err());
        assert!(MemoryMacro::new(MemoryKind::Sram, 500, 1024, 32).is_err());
    }

    proptest! {
        #[test]
        fn bigger_macros_cost_more(
            cap_small in 1024usize..65536,
            extra in 1024usize..65536,
        ) {
            let small = MemoryMacro::new(MemoryKind::Sram, 45, cap_small, 32).unwrap();
            let big = MemoryMacro::new(MemoryKind::Sram, 45, cap_small + extra, 32).unwrap();
            prop_assert!(big.read_energy().get() > small.read_energy().get());
            prop_assert!(big.leakage_power().get() > small.leakage_power().get());
            prop_assert!(big.area().get() > small.area().get());
        }
    }
}
