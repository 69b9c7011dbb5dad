//! Good: every function that nests the two locks takes them in the
//! same global order (`queue` before `stats`), and the steal-loop
//! idiom uses a statement-scoped temporary — the guard drops at the
//! `;`, so it never holds across the next acquisition.

pub struct Shared {
    queue: std::sync::Mutex<Vec<u8>>,
    stats: std::sync::Mutex<u64>,
}

/// Takes `queue` then `stats` — the canonical order.
pub(crate) fn drain(s: &Shared) {
    let queue = s.queue.lock().expect("poisoned");
    let mut stats = s.stats.lock().expect("poisoned");
    *stats += queue.len() as u64;
}

/// Same order; `drop` releases `queue` before `stats` is touched.
pub(crate) fn report(s: &Shared) {
    let queue = s.queue.lock().expect("poisoned");
    let len = queue.len();
    drop(queue);
    let mut stats = s.stats.lock().expect("poisoned");
    *stats += len as u64;
}

/// Statement-scoped temporary: the guard lives only to the `;`.
pub(crate) fn steal(s: &Shared) -> Option<u8> {
    let item = s.queue.lock().expect("poisoned").pop();
    let mut stats = s.stats.lock().expect("poisoned");
    *stats += 1;
    item
}
