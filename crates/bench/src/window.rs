//! The ordered window a sweep's blocks leave through.
//!
//! [`ordered`] maps a slice on the current `rayon` pool and hands every
//! result to one sink, in slice order, while the map is still running.
//! Workers claim items one at a time from a shared counter. The worker
//! that finishes the oldest item not yet handed on (the *head*) hands it
//! to the sink, then every finished item behind it, while the other
//! workers keep computing; a result that finishes ahead of the head waits
//! in its slot of a ring of [`WINDOW`] slots. No worker starts an item
//! [`WINDOW`] or more items past the head, so at most [`WINDOW`] finished
//! results are ever held, whatever the length of the slice. There is no
//! writer thread: the pool's own workers, or on a one-thread pool the
//! caller alone, do all of it.
//!
//! The same structure holds delayed agents in synet's `simulate_delay`: a
//! ring buffer keeps each item until every earlier one has resolved.

use rayon::prelude::*;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Results a map may hold finished ahead of the head: no worker starts an
/// item this many items or more past it. A sweep item is one instance's
/// block. No e1–e8 preset plans more than 20 instances at its default
/// sizes, so the bound never stalls one; the e9/e10/e11 grids, with
/// hundreds of instances, are what it bounds.
pub const WINDOW: usize = 64;

/// The shared state of one [`ordered`] map.
struct State<R> {
    /// The first item not yet handed to the sink.
    head: usize,
    /// The next item to claim.
    next: usize,
    /// Finished items waiting for the head: item `i` in slot `i % WINDOW`.
    /// Claimed items lie in `head..head + WINDOW`, so no two share a slot.
    ready: Vec<Option<R>>,
    /// A worker is handing ready items to the sink.
    draining: bool,
    /// A worker panicked: the others claim nothing more.
    failed: bool,
}

/// Marks the map failed and wakes every waiting worker when the worker
/// that owns it unwinds, so a panic reaches the caller instead of leaving
/// the others waiting for a head that never moves.
struct FailOnPanic<'a, R> {
    state: &'a Mutex<State<R>>,
    moved: &'a Condvar,
}

impl<R> Drop for FailOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.state).failed = true;
            self.moved.notify_all();
        }
    }
}

/// Locks `m`, past a panic of the worker that held it: every update of
/// the state is one field at a time, so it stays valid, and after a panic
/// no worker calls the sink again (the panicking worker's `draining`
/// flag stays set, and [`FailOnPanic`] stops every claim).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps `compute` over `items` on the current `rayon` pool and hands each
/// result to `sink` in item order, through the window the module docs
/// describe. A panic in `compute` or `sink` panics the caller.
pub(crate) fn ordered<T: Sync, R: Send>(
    items: &[T],
    compute: impl Fn(&T) -> R + Sync,
    sink: impl FnMut(R) + Send,
) {
    let state = Mutex::new(State {
        head: 0,
        next: 0,
        ready: (0..WINDOW).map(|_| None).collect(),
        draining: false,
        failed: false,
    });
    // Signalled whenever the head moves or a worker fails.
    let moved = Condvar::new();
    // Only the draining worker locks it, so it is never contended.
    let sink = Mutex::new(sink);
    let work = |_: &usize| {
        let _fail = FailOnPanic { state: &state, moved: &moved };
        loop {
            let i = {
                let mut s = lock(&state);
                while !s.failed && s.next < items.len() && s.next >= s.head + WINDOW {
                    s = moved.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
                if s.failed || s.next == items.len() {
                    return;
                }
                s.next += 1;
                s.next - 1
            };
            let result = compute(&items[i]);
            let mut s = lock(&state);
            s.ready[i % WINDOW] = Some(result);
            if s.draining {
                continue;
            }
            s.draining = true;
            loop {
                let slot = s.head % WINDOW;
                let Some(result) = s.ready[slot].take() else { break };
                drop(s);
                (lock(&sink))(result);
                s = lock(&state);
                s.head += 1;
                moved.notify_all();
            }
            s.draining = false;
        }
    };
    let workers: Vec<usize> = (0..rayon::current_num_threads().min(items.len())).collect();
    workers.par_iter().for_each(work);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    #[test]
    fn results_reach_the_sink_in_item_order() {
        for threads in [1, 2, 4] {
            for len in [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 5 * WINDOW + 3] {
                let items: Vec<u64> = (0..len as u64).collect();
                let mut seen = Vec::new();
                pool(threads).install(|| {
                    ordered(&items, |&x| x * x, |y| seen.push(y));
                });
                let want: Vec<u64> = items.iter().map(|x| x * x).collect();
                assert_eq!(seen, want, "{threads} threads, {len} items");
            }
        }
    }

    #[test]
    fn no_item_starts_a_window_past_the_head() {
        // Item 0 does not finish before the last item the window admits
        // behind it has started, so the other workers run ahead to the
        // window's end: every item must start fewer than WINDOW items past
        // the results already handed on.
        let items: Vec<usize> = (0..4 * WINDOW).collect();
        let handed = AtomicUsize::new(0);
        let window_end = Barrier::new(2);
        pool(4).install(|| {
            ordered(
                &items,
                |&i| {
                    let started_past = i - handed.load(Ordering::SeqCst).min(i);
                    assert!(started_past < WINDOW, "item {i} started {started_past} past the head");
                    if i == 0 || i == WINDOW - 1 {
                        window_end.wait();
                    }
                    i
                },
                |_| {
                    handed.fetch_add(1, Ordering::SeqCst);
                },
            );
        });
        assert_eq!(handed.into_inner(), items.len());
    }

    #[test]
    fn a_panicking_item_panics_the_caller_instead_of_hanging() {
        // The head panics once the window behind it is full, so the other
        // workers end up waiting for a head that never moves: the panic
        // must release them.
        let items: Vec<usize> = (0..4 * WINDOW).collect();
        let window_end = Barrier::new(2);
        let outcome = std::panic::catch_unwind(|| {
            pool(3).install(|| {
                ordered(
                    &items,
                    |&i| {
                        if i == 0 || i == WINDOW - 1 {
                            window_end.wait();
                        }
                        assert!(i != 0, "boom");
                        i
                    },
                    |_| {},
                );
            });
        });
        assert!(outcome.is_err(), "a worker's panic must reach the caller");
    }
}
