//! Rendering a cell's row and certificate allocates nothing. On the
//! exhaustive e9 grid, running a cell on the decider and rendering its
//! outcome allocates exactly as often as running it alone: its labels,
//! the experiment label included, are static strings, and its seed mixes
//! a fixed-size token array.
//!
//! The count is exact, per thread, so it cannot flake: this binary's own
//! global allocator counts every allocation the current thread makes.

use rvz_bench::sweep::{self, Executor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread past its thread-locals' teardown still allocates; it is
    // not the one this test measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its caller's arguments, which meet the
// `GlobalAlloc` contract, on to `System` unchanged, and returns what
// `System` returns; counting touches only a const-initialized
// thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, nonzero in size as required.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System`, through this allocator, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result, and how many allocations the current thread made in it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn rendering_a_row_and_its_certificate_allocates_nothing() {
    let mut spec = sweep::preset("e9", &[2, 3, 4, 5, 6], 1, 0x5EED_2010).expect("the e9 preset");
    spec.executor = Executor::ExactDecide;
    let plan = sweep::instances(&spec);
    let grid: Vec<_> = plan
        .iter()
        .flat_map(|inst| inst.cells(&spec).into_iter().map(move |c| (c, inst)))
        .collect();
    // Warm the memo: each start's solo lasso is tabulated on first use,
    // and only once, so from here on a cell's allocations are its own.
    for (cell, inst) in &grid {
        sweep::run_cell_decide_certified(cell, inst);
    }
    let (mut rows, mut certificates) = (0, 0);
    for (cell, inst) in &grid {
        let (_, decided) = allocations(|| sweep::run_cell_decide_certified(cell, inst));
        let ((row, certificate), rendered) =
            allocations(|| sweep::run_cell_with_executor(cell, inst, Executor::ExactDecide));
        assert_eq!(
            rendered,
            decided,
            "cell {:#018x} (n = {}, {:?}): rendering its row and certificate allocated",
            cell.cell_seed(),
            cell.n,
            cell.delay
        );
        rows += usize::from(row.is_some());
        certificates += usize::from(certificate.is_some());
    }
    // Both shapes were rendered: θ = 0 rows, with and without a
    // never-meets certificate, and a ∀θ certificate on every ∀θ row.
    assert!(rows > certificates && certificates > rows / 2, "{rows} rows, {certificates} certs");
}
