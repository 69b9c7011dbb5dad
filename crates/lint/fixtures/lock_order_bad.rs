//! Bad: two functions take the same pair of locks in opposite orders
//! — a classic AB/BA deadlock. The lint must flag the cycle
//! `queue -> stats -> queue` in the global lock-order graph.

pub struct Shared {
    queue: std::sync::Mutex<Vec<u8>>,
    stats: std::sync::Mutex<u64>,
}

/// Takes `queue` then `stats`.
pub(crate) fn drain(s: &Shared) {
    let queue = s.queue.lock().expect("poisoned");
    let mut stats = s.stats.lock().expect("poisoned");
    *stats += queue.len() as u64;
}

/// Takes `stats` then `queue` — inverted.
pub(crate) fn report(s: &Shared) {
    let stats = s.stats.lock().expect("poisoned");
    let queue = s.queue.lock().expect("poisoned");
    let _ = (*stats, queue.len());
}
