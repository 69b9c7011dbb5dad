// Fixture: every public item is named outside its crate; the rest is
// narrowed.

/// The gain after `steps` tuning steps, built on [`ramp`].
pub fn tuned_gain(steps: u32) -> f64 {
    f64::from(ramp(steps))
}

/// Tuning steps the benchmark sweeps.
pub const GAIN_STEPS: u32 = 8;

/// Doubles `steps`; used inside this crate only.
pub(crate) fn ramp(steps: u32) -> u32 {
    steps * RAMP_LIMIT
}

const RAMP_LIMIT: u32 = 2;

#[cfg(test)]
mod tests {
    /// A test helper is not API.
    pub fn doubled(steps: u32) -> u32 {
        super::ramp(steps)
    }

    #[test]
    fn ramp_doubles() {
        assert_eq!(doubled(2), 4);
    }
}
