//! Cooperative cancellation for watchdogged executor threads.
//!
//! The sweep's `--cell-timeout` watchdog used to abandon a timed-out
//! attempt by detaching its thread — the thread kept stepping (or
//! deciding) to the end of a budget that could be billions of rounds
//! away, so a sweep with many timeouts accumulated live threads without
//! bound. This module is the fix: the watchdog installs a per-attempt
//! cancellation flag on the worker thread ([`CancelGuard::install`]),
//! sets it when the wall budget expires, and every long-running loop in
//! the executor stack (the simulator round loop, trace recording and
//! replay, the exact decider's tabulations and scans) polls
//! [`checkpoint`] every few thousand iterations.
//!
//! **Cancellation escapes by panic, never by value.** [`checkpoint`]
//! panics with the private [`Cancelled`] payload instead of returning a
//! sentinel, so a cancelled attempt can never fabricate a result that
//! the memo caches (the per-instance solo lassos and recordings, the
//! trace/solo stores) would keep: an unwound `OnceLock::get_or_init`
//! leaves its slot uninitialized, and an unwound trace extension leaves
//! the recording at the last *completed* round (checkpoints sit only at
//! round boundaries). The watchdog thread catches the payload with
//! `catch_unwind` and exits silently; any other panic is resumed
//! unchanged.
//!
//! Threads that never install a flag — every ordinary caller — pay one
//! thread-local read per poll and can never be cancelled.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The panic payload of a cancelled attempt. Deliberately carries no
/// data: its only job is to be recognizable by
/// [`CancelGuard::is_cancelled_payload`] on the `catch_unwind` side (and
/// by the quiet panic hook, so a routine cancellation does not spray a
/// backtrace onto stderr).
pub struct Cancelled;

thread_local! {
    /// The flag governing this thread, if a watchdog installed one.
    /// `Cell<Option<Arc<..>>>` (take/replace) rather than `RefCell`: the
    /// poll path must never panic on re-entrancy.
    static CURRENT: Cell<Option<Arc<AtomicBool>>> = const { Cell::new(None) };
}

/// RAII installation of a cancellation flag on the current thread; the
/// previous flag (normally `None`) is restored on drop, so a guard can
/// never leak a stale flag into an unrelated reused thread.
pub struct CancelGuard {
    previous: Option<Arc<AtomicBool>>,
}

impl CancelGuard {
    /// Makes `flag` the current thread's cancellation flag until the
    /// guard drops.
    pub fn install(flag: Arc<AtomicBool>) -> CancelGuard {
        CancelGuard { previous: CURRENT.with(|c| c.replace(Some(flag))) }
    }

    /// `true` when a caught panic payload is a cancellation escape (and
    /// not a real failure that must be resumed).
    pub fn is_cancelled_payload(payload: &(dyn std::any::Any + Send)) -> bool {
        payload.is::<Cancelled>()
    }
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous.take()));
    }
}

/// `true` when the current thread has been asked to stop.
#[inline]
pub fn requested() -> bool {
    CURRENT.with(|c| {
        let flag = c.take();
        let hit = flag.as_ref().is_some_and(|f| f.load(Ordering::Relaxed));
        c.set(flag);
        hit
    })
}

/// Poll point for long-running loops: unwinds with [`Cancelled`] when the
/// current thread's flag is set, does nothing otherwise. Call this only
/// at *consistent* states (round boundaries, between records) — whatever
/// shared structure the caller is mutating must be valid if the stack
/// unwinds here.
#[inline]
pub fn checkpoint() {
    if requested() {
        std::panic::panic_any(Cancelled);
    }
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// [`Cancelled`] payloads and delegates everything else to the previous
/// hook. Without this every routine cancellation would print a
/// `thread panicked` banner even though the watchdog catches it.
pub fn silence_cancelled_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Cancelled>() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_flag_means_no_cancellation() {
        assert!(!requested());
        checkpoint(); // must not panic
    }

    #[test]
    fn guard_installs_and_restores() {
        let flag = Arc::new(AtomicBool::new(false));
        {
            let _g = CancelGuard::install(Arc::clone(&flag));
            assert!(!requested());
            flag.store(true, Ordering::Relaxed);
            assert!(requested());
            let caught = std::panic::catch_unwind(checkpoint).expect_err("must unwind");
            assert!(CancelGuard::is_cancelled_payload(&*caught));
        }
        // Guard dropped: the thread is no longer cancellable.
        assert!(!requested());
        checkpoint();
    }

    #[test]
    fn nested_guards_restore_the_outer_flag() {
        let outer = Arc::new(AtomicBool::new(true));
        let inner = Arc::new(AtomicBool::new(false));
        let _g1 = CancelGuard::install(Arc::clone(&outer));
        {
            let _g2 = CancelGuard::install(Arc::clone(&inner));
            assert!(!requested(), "inner flag is unset");
        }
        assert!(requested(), "outer flag is set and restored");
        let _ = std::panic::catch_unwind(checkpoint);
    }
}
