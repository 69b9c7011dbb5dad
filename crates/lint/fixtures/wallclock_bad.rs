// Fixture: wall-clock reads inside a deterministic compute path.
use std::time::{Instant, SystemTime};

pub(crate) fn jitter_seed() -> u128 {
    let t0 = Instant::now();
    let wall = SystemTime::now();
    let _ = (t0, wall);
    0
}
