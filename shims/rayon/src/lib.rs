//! Offline API-subset shim for `rayon` (see `shims/README.md`).
//!
//! Fans work across `std::thread::scope` workers that claim fixed-size
//! chunks of indices from a shared atomic counter and write each result
//! straight into its slot of the pre-sized output, so
//! `par_iter().map(f).collect::<Vec<_>>()` is ordered exactly like the
//! sequential map regardless of scheduling — the property the sweep
//! engine's determinism guarantee rests on. Workers report the size of
//! the pool that spawned them, and a map nested inside a worker runs
//! inline on that worker, so a pool never runs more compute threads than
//! its size.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Thread count installed by [`ThreadPool::install`], or inherited by
    /// a worker from the map that spawned it.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on the workers of a parallel map: a map nested inside one runs
    /// inline instead of spawning a second fan-out.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads a parallel iterator will use here and now.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Build error (the shim cannot actually fail to build).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` means "use all available cores", as in rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            Some(n) => n,
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A sized pool; parallel iterators inside [`ThreadPool::install`] use its
/// thread count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    pub fn install<R, F: FnOnce() -> R>(&self, op: F) -> R {
        let prev = POOL_THREADS.with(|c| c.replace(Some(self.num_threads)));
        let out = op();
        POOL_THREADS.with(|c| c.set(prev));
        out
    }
}

/// Indices a worker claims at a time: enough that claiming costs nothing
/// next to a sweep cell, few enough that short maps (the sweep's instance
/// builds, the decider's delay chunks) still spread over every thread.
const CHUNK: usize = 8;

/// The output buffer's base pointer, shared by the workers of one map.
struct Slots<R>(*mut R);

// SAFETY: the one field is the output's base pointer. Workers write
// disjoint slots through it (see `Slots::write`) and the caller reads them
// only after joining every worker, so sharing it is sound whenever the
// results may move between threads (`R: Send`).
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    /// Moves `value` into slot `i`.
    ///
    /// # Safety
    /// `i` must be below the buffer's capacity and written by no one else.
    unsafe fn write(&self, i: usize, value: R) {
        // SAFETY: upheld by the caller.
        unsafe { self.0.add(i).write(value) }
    }
}

/// Ordered parallel map over a slice: the engine under every iterator here.
fn par_map_slice<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let pool = current_num_threads();
    let threads = pool.min(len.div_ceil(CHUNK));
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<R> = Vec::with_capacity(len);
    let slots = Slots(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    POOL_THREADS.with(|c| c.set(Some(pool)));
                    IN_WORKER.with(|c| c.set(true));
                    loop {
                        // Relaxed: the counter only hands out indices; the
                        // joins below publish the written slots.
                        let lo = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if lo >= len {
                            break;
                        }
                        for i in lo..(lo + CHUNK).min(len) {
                            let value = f(&items[i]);
                            // SAFETY: `i < len <= capacity`, and the
                            // counter hands every chunk to one worker.
                            unsafe { slots.write(i, value) };
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rayon shim: worker panicked");
        }
    });
    // SAFETY: every worker ran until the counter passed `len` and returned
    // normally (a panic re-raises above, leaking the written slots), so
    // each of the `len` slots was written exactly once.
    unsafe { out.set_len(len) };
    out
}

/// `par_iter()` entry point for `&Vec<T>` / `&[T]`.
pub trait IntoParallelRefIterator<'a> {
    type Item: 'a;
    type Iter;

    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowing parallel iterator.
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F: Fn(&'a T) -> R + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap { items: self.items, f }
    }

    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let _: Vec<()> = par_map_slice(self.items, &f);
    }
}

/// Mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        let f = &self.f;
        C::from_ordered(par_map_slice(self.items, f))
    }
}

/// Collection targets for [`ParMap::collect`].
pub trait FromParallelIterator<R> {
    fn from_ordered(items: Vec<R>) -> Self;
}

impl<R> FromParallelIterator<R> for Vec<R> {
    fn from_ordered(items: Vec<R>) -> Self {
        items
    }
}

pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ordered_collect_matches_sequential() {
        let xs: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = xs.iter().map(|x| x * x).collect();
        let par: Vec<u64> = xs.par_iter().map(|x| x * x).collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(current_num_threads);
        assert_eq!(seen, 3);
        // Restored afterwards.
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn single_thread_pool_is_sequential_path() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let out: Vec<usize> =
            pool.install(|| (0..16).collect::<Vec<usize>>().par_iter().map(|&i| i + 1).collect());
        assert_eq!(out, (1..17).collect::<Vec<usize>>());
    }

    #[test]
    fn chunked_collect_matches_sequential_at_every_boundary() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3, 1000] {
            let xs: Vec<u64> = (0..len as u64).collect();
            let seq: Vec<String> = xs.iter().map(|x| format!("{}", x * 3)).collect();
            let par: Vec<String> =
                pool.install(|| xs.par_iter().map(|x| format!("{}", x * 3)).collect());
            assert_eq!(seq, par, "length {len}");
        }
    }

    #[test]
    fn a_panicking_closure_panics_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let xs: Vec<u64> = (0..200).collect();
        let outcome = std::panic::catch_unwind(|| {
            pool.install(|| {
                xs.par_iter()
                    .map(|&x| if x == 137 { panic!("boom") } else { x.to_string() })
                    .collect::<Vec<String>>()
            })
        });
        assert!(outcome.is_err(), "a worker's panic must reach the caller");
    }

    #[test]
    fn workers_report_the_installing_pool_size() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let xs: Vec<usize> = (0..64).collect();
        let seen: Vec<usize> =
            pool.install(|| xs.par_iter().map(|_| current_num_threads()).collect());
        assert!(seen.iter().all(|&n| n == 3), "workers saw {seen:?}");
    }

    #[test]
    fn nested_maps_stay_within_the_pool() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let ids = Mutex::new(HashSet::new());
        let xs: Vec<usize> = (0..64).collect();
        let sums: Vec<usize> = pool.install(|| {
            xs.par_iter()
                .map(|&x| {
                    let inner: Vec<usize> = xs
                        .par_iter()
                        .map(|&y| {
                            ids.lock().unwrap().insert(std::thread::current().id());
                            x + y
                        })
                        .collect();
                    inner.into_iter().sum()
                })
                .collect()
        });
        assert_eq!(sums, xs.iter().map(|&x| 64 * x + 2016).collect::<Vec<_>>());
        let threads = ids.into_inner().unwrap().len();
        assert!((1..=3).contains(&threads), "nested maps ran on {threads} threads");
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        let xs: Vec<usize> = (1..=100).collect();
        xs.par_iter().for_each(|&x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 5050);
    }
}
