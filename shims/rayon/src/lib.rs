//! Offline shim for `rayon`'s thread-count configuration.
//!
//! The workspace builds without network access, so the real `rayon` is
//! unavailable. The engines run on their own work-stealing scheduler
//! (`oisa_core::scheduler`); this shim keeps only the knob that sizes
//! it — [`set_num_threads`] and [`current_num_threads`], honouring
//! `RAYON_NUM_THREADS` the way real rayon does.
//!
//! With one thread (a single-CPU host, or `RAYON_NUM_THREADS=1`) the
//! scheduler degenerates to a plain sequential loop, so single-core
//! containers pay no thread overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override set by [`set_num_threads`]
/// (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for all subsequent parallel
/// operations in this process.
///
/// Prefer this to mutating `RAYON_NUM_THREADS` at runtime: `setenv`
/// racing a concurrent `getenv` is undefined behavior on glibc, and
/// tests run multi-threaded. (Real rayon spells this
/// `ThreadPoolBuilder::num_threads(n).build_global()`.)
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// Number of worker threads parallel operations use: the
/// [`set_num_threads`] override if set, else `RAYON_NUM_THREADS`
/// (read once per process), else the host parallelism.
#[must_use]
pub fn current_num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    static FROM_ENV: OnceLock<Option<usize>> = OnceLock::new();
    FROM_ENV
        .get_or_init(|| {
            std::env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .map(|n| n.max(1))
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}
