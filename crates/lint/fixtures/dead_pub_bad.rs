// Fixture: public API that nothing outside its crate names.

/// The gain after `steps` tuning steps. Named outside: live.
pub fn tuned_gain(steps: u32) -> f64 {
    f64::from(ramp(steps))
}

/// Tuning steps the benchmark sweeps. Named outside: live.
pub const GAIN_STEPS: u32 = 8;

/// `ramp(n)` doubles `n`; see [`ramp`]. Called inside this crate and
/// named in its own docs only: dead.
pub fn ramp(steps: u32) -> u32 {
    steps * RAMP_LIMIT
}

/// Named inside this crate only: dead.
pub const RAMP_LIMIT: u32 = 2;

#[cfg(test)]
mod tests {
    #[test]
    fn ramp_doubles() {
        assert_eq!(super::ramp(2), 4);
    }
}
