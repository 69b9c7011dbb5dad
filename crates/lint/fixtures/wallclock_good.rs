// Fixture: counter-based determinism — and clocks confined to tests.
pub(crate) fn sample(seed: u64, counter: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ counter
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_is_fine_in_tests() {
        let t0 = std::time::Instant::now();
        assert!(t0.elapsed().as_secs() < 60);
    }
}
