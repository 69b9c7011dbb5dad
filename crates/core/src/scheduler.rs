//! Work-stealing scheduler: the one compute runtime of the parallel
//! engines.
//!
//! The engines decompose a workload into many independent items —
//! `(frame, pass, row-band)` for convolution, rows for the dense path —
//! whose costs are uneven: a pass holding fewer kernels than the fabric
//! has slots, or a frame's ragged last band, finishes sooner than a full
//! one, and a worker the host preempts falls behind its block. The
//! activations do not skew it: paper-config frames hold no exact zeros
//! (dark pixels encode to the VCSEL's NRZ floor), so every window draws
//! all its taps. Frames late in a batch must not wait on a static
//! partition sized for the early ones. A fixed block split leaves
//! workers idle at the tail; work stealing keeps them busy:
//!
//! * every worker owns a deque seeded with a contiguous block of items
//!   (cache-friendly: neighbouring row-bands share frame data),
//! * a worker pops from the **front** of its own deque (locality),
//! * a worker whose deque is empty steals from the **back** of the
//!   first non-empty victim, scanning round-robin from its right-hand
//!   neighbour (stolen items are the ones the owner would reach last,
//!   minimising contention on the hot front end),
//! * since items never spawn new items, a worker that finds every deque
//!   empty is done — any remaining items are already claimed.
//!
//! Results are returned **in item order** regardless of which worker ran
//! what, so callers can reduce floating-point partials with the exact
//! grouping a sequential loop would use — the scheduler never affects
//! the physics, only the wall clock. Determinism therefore rests on one
//! contract: tasks must key any randomness by item index
//! (counter-based noise streams), never by execution order.
//!
//! Worker count follows the `rayon` shim's configuration
//! ([`rayon::current_num_threads`]), so `rayon::set_num_threads` and
//! `RAYON_NUM_THREADS` govern every parallel path; with one worker (or
//! one item) everything degenerates to a plain sequential loop.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `f` over every item on a work-stealing pool, returning results
/// in item order.
///
/// `f` receives the item's index and the item; it must be a pure
/// function of those (plus captured shared state) for the scheduler's
/// determinism guarantee to hold.
pub fn execute<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let count = items.len();
    if count == 0 {
        return Vec::new();
    }
    let workers = rayon::current_num_threads().min(count);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Seed each worker's deque with a contiguous block of items.
    let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> = (0..workers)
        .map(|_| Mutex::new(VecDeque::with_capacity(count.div_ceil(workers))))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        let owner = i * workers / count;
        queues[owner]
            .get_mut()
            .expect("scheduler: seeding a fresh queue cannot fail")
            .push_back((i, item));
    }

    let queues = &queues;
    let f = &f;
    let mut collected: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Own work first (front), then steal (back).
                        let mut job = queues[w]
                            .lock()
                            .expect("scheduler: poisoned own deque")
                            .pop_front();
                        if job.is_none() {
                            for offset in 1..workers {
                                let victim = (w + offset) % workers;
                                job = queues[victim]
                                    .lock()
                                    .expect("scheduler: poisoned victim deque")
                                    .pop_back();
                                if job.is_some() {
                                    break;
                                }
                            }
                        }
                        match job {
                            Some((i, item)) => done.push((i, f(i, item))),
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scheduler: worker panicked"))
            .collect()
    });
    collected.sort_unstable_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    use crate::test_sync::thread_count_lock;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = execute(Vec::<u32>::new(), |_, v| v);
        assert!(out.is_empty());
    }

    /// The distinct threads that ran `f`, and the results.
    fn thread_ids_of<T: Send, R: Send>(
        items: Vec<T>,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> (HashSet<ThreadId>, Vec<R>) {
        let ids = Mutex::new(HashSet::new());
        let out = execute(items, |i, item| {
            ids.lock().unwrap().insert(std::thread::current().id());
            f(i, item)
        });
        (ids.into_inner().unwrap(), out)
    }

    #[test]
    fn zero_items_with_many_workers_returns_without_spawning() {
        let _guard = thread_count_lock();
        // The empty fast path must not deadlock waiting for work.
        rayon::set_num_threads(8);
        let (ids, out) = thread_ids_of(Vec::<u32>::new(), |_, v| v);
        assert!(out.is_empty());
        assert!(ids.is_empty(), "no thread runs anything for no work");
    }

    #[test]
    fn more_workers_than_items_clamps_and_stays_ordered() {
        let _guard = thread_count_lock();
        // 8 configured workers against 3 items: the pool clamps to one
        // worker per item, every item runs exactly once and results
        // still come back in item order.
        rayon::set_num_threads(8);
        let runs = AtomicUsize::new(0);
        let out = execute(vec![10usize, 20, 30], |i, v| {
            runs.fetch_add(1, Ordering::Relaxed);
            v + i
        });
        assert_eq!(out, vec![10, 21, 32]);
        assert_eq!(runs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn single_worker_degenerates_to_ordered_loop() {
        let _guard = thread_count_lock();
        // One worker must mean the plain sequential path: the calling
        // thread runs every item in item order, with no stealing to
        // deadlock on.
        rayon::set_num_threads(1);
        let seen = Mutex::new(Vec::new());
        let (ids, out) = thread_ids_of((0..200).collect::<Vec<usize>>(), |i, v| {
            seen.lock().unwrap().push(i);
            v * 2
        });
        assert_eq!(ids, HashSet::from([std::thread::current().id()]));
        assert_eq!(seen.into_inner().unwrap(), (0..200).collect::<Vec<_>>());
        assert_eq!(out, (0..200).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_runs_on_one_worker() {
        let _guard = thread_count_lock();
        rayon::set_num_threads(4);
        let (ids, out) = thread_ids_of(vec![41u64], |i, v| v + 1 + i as u64);
        assert_eq!(out, vec![42]);
        assert_eq!(
            ids,
            HashSet::from([std::thread::current().id()]),
            "one item runs inline on the calling thread"
        );
    }

    #[test]
    fn results_come_back_in_item_order() {
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(4);
        let items: Vec<usize> = (0..513).collect();
        let out = execute(items, |i, v| {
            assert_eq!(i, v);
            v * 3
        });
        assert_eq!(out, (0..513).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_runs_exactly_once_under_uneven_load() {
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(4);
        let runs = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let (ids, out) = thread_ids_of(items, |_, v| {
            runs.fetch_add(1, Ordering::Relaxed);
            // Skew the costs so early blocks finish long before late
            // ones and stealing actually happens.
            if v % 64 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            v
        });
        assert_eq!(runs.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
        assert!(ids.len() <= 4, "more threads than workers: {}", ids.len());
    }

    #[test]
    fn sequential_fallback_matches_parallel() {
        let _guard = thread_count_lock();
        let items: Vec<u64> = (0..64).collect();
        rayon::set_num_threads(1);
        let seq = execute(items.clone(), |i, v| v * 7 + i as u64);
        rayon::set_num_threads(4);
        let par = execute(items, |i, v| v * 7 + i as u64);
        assert_eq!(seq, par);
    }
}
