//! The kernel bank: on-chip storage for quantised weight codes.
//!
//! Paper Fig. 2: weights live in SRAM kernel banks and are streamed, one
//! 40-MR row per iteration, through the AWC units into the OPC. The bank
//! tracks every access so the architecture simulator can charge the exact
//! CACTI-model energy for a mapping pass.

use oisa_units::{Joule, Watt};
use serde::{Deserialize, Serialize};

use crate::model::{MemoryKind, MemoryMacro};
use crate::{MemoryError, Result};

/// A weight-code store with access accounting.
///
/// # Examples
///
/// ```
/// use oisa_memory::bank::KernelBank;
///
/// # fn main() -> Result<(), oisa_memory::MemoryError> {
/// let mut bank = KernelBank::new(45, 4, 4000)?;
/// bank.store(0, &[3, 7, 15])?;
/// let codes = bank.load(0, 3)?;
/// assert_eq!(codes, vec![3, 7, 15]);
/// assert!(bank.total_energy().get() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelBank {
    macro_model: MemoryMacro,
    bits_per_code: u8,
    codes: Vec<u16>,
    reads: u64,
    writes: u64,
}

impl KernelBank {
    /// Builds a bank holding `slots` codes of `bits_per_code` bits each in
    /// SRAM at `technology_nm`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidParameter`] for zero slots or
    /// unsupported code widths.
    pub fn new(technology_nm: u32, bits_per_code: u8, slots: usize) -> Result<Self> {
        if slots == 0 {
            return Err(MemoryError::InvalidParameter(
                "bank must hold at least one code".into(),
            ));
        }
        if !(1..=8).contains(&bits_per_code) {
            return Err(MemoryError::InvalidParameter(format!(
                "code width {bits_per_code} outside 1..=8"
            )));
        }
        let capacity_bytes = (slots * bits_per_code as usize).div_ceil(8).max(1);
        let macro_model = MemoryMacro::new(
            MemoryKind::Sram,
            technology_nm,
            capacity_bytes,
            u32::from(bits_per_code),
        )?;
        Ok(Self {
            macro_model,
            bits_per_code,
            codes: vec![0; slots],
            reads: 0,
            writes: 0,
        })
    }

    /// Number of code slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the bank has no slots (never constructible — kept for
    /// API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Writes `codes` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfBounds`] if the range exceeds the bank
    /// and [`MemoryError::InvalidParameter`] if any code exceeds the code
    /// width.
    pub fn store(&mut self, offset: usize, codes: &[u16]) -> Result<()> {
        let end = offset
            .checked_add(codes.len())
            .filter(|&e| e <= self.codes.len())
            .ok_or_else(|| MemoryError::OutOfBounds {
                index: offset.saturating_add(codes.len()),
                len: self.codes.len(),
            })?;
        let max_code = (1u16 << self.bits_per_code) - 1;
        if let Some(&bad) = codes.iter().find(|&&c| c > max_code) {
            return Err(MemoryError::InvalidParameter(format!(
                "code {bad} exceeds {}-bit range",
                self.bits_per_code
            )));
        }
        self.codes[offset..end].copy_from_slice(codes);
        self.writes += codes.len() as u64;
        Ok(())
    }

    /// Reads `count` codes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfBounds`] if the range exceeds the
    /// bank.
    pub fn load(&mut self, offset: usize, count: usize) -> Result<Vec<u16>> {
        let end = offset
            .checked_add(count)
            .filter(|&e| e <= self.codes.len())
            .ok_or_else(|| MemoryError::OutOfBounds {
                index: offset.saturating_add(count),
                len: self.codes.len(),
            })?;
        self.reads += count as u64;
        Ok(self.codes[offset..end].to_vec())
    }

    /// Total dynamic energy of all accesses so far.
    #[must_use]
    pub fn total_energy(&self) -> Joule {
        self.macro_model.read_energy() * self.reads as f64
            + self.macro_model.write_energy() * self.writes as f64
    }

    /// Static leakage power of the bank.
    #[must_use]
    pub fn leakage_power(&self) -> Watt {
        self.macro_model.leakage_power()
    }

    /// Clears the access counters (e.g. between experiments).
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_round_trip() {
        let mut bank = KernelBank::new(45, 4, 100).unwrap();
        bank.store(10, &[1, 2, 3, 15]).unwrap();
        assert_eq!(bank.load(10, 4).unwrap(), vec![1, 2, 3, 15]);
        assert_eq!((bank.reads, bank.writes), (4, 4));
    }

    #[test]
    fn code_width_enforced() {
        let mut bank = KernelBank::new(45, 3, 10).unwrap();
        assert!(bank.store(0, &[7]).is_ok());
        assert!(bank.store(0, &[8]).is_err());
    }

    #[test]
    fn bounds_enforced() {
        let mut bank = KernelBank::new(45, 4, 10).unwrap();
        assert!(bank.store(8, &[0, 0, 0]).is_err());
        assert!(bank.load(9, 2).is_err());
        assert!(bank.load(usize::MAX, 2).is_err());
    }

    #[test]
    fn energy_accumulates_per_access() {
        let mut bank = KernelBank::new(45, 4, 4000).unwrap();
        assert_eq!(bank.total_energy().get(), 0.0);
        bank.store(0, &vec![5; 4000]).unwrap();
        let after_write = bank.total_energy();
        assert!(after_write.get() > 0.0);
        let _ = bank.load(0, 4000).unwrap();
        assert!(bank.total_energy().get() > after_write.get());
        bank.reset_counters();
        assert_eq!(bank.total_energy().get(), 0.0);
    }

    #[test]
    fn paper_bank_energy_scale() {
        // 4000 4-bit codes = 2000 bytes: one full read pass should cost
        // nanojoule-scale energy, small beside the optical core.
        let mut bank = KernelBank::new(45, 4, 4000).unwrap();
        bank.store(0, &vec![5; 4000]).unwrap();
        bank.reset_counters();
        let _ = bank.load(0, 4000).unwrap();
        let e = bank.total_energy();
        assert!(
            e.as_nano() > 0.1 && e.as_nano() < 10_000.0,
            "full-map read energy {e}"
        );
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(KernelBank::new(45, 0, 10).is_err());
        assert!(KernelBank::new(45, 9, 10).is_err());
        assert!(KernelBank::new(45, 4, 0).is_err());
    }
}
