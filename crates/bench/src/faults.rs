//! Feature-gated fail points for the crash-safety layer.
//!
//! With the `rvz-faults` cargo feature enabled, the environment variable
//! `RVZ_FAULTS` selects faults to inject at named sites inside the
//! persistence code paths:
//!
//! ```text
//! RVZ_FAULTS=site=action@N[,site=action@N...]
//! ```
//!
//! `site` is one of the [`Site`] names (`journal-append`, `store-flush`,
//! `cache-load`, `worker-kill`, `heartbeat-drop`), `action` is `abort`,
//! `short-write`, `enospc` or `bit-flip`, and `N` means "trigger on the
//! N-th hit of that site" (1-based; every hit counts down one). Example —
//! kill the process while appending the 40th journal record:
//!
//! ```text
//! RVZ_FAULTS=journal-append=abort@40
//! ```
//!
//! Without the feature, [`check`] compiles to a constant `None` and the
//! whole module costs nothing — production binaries cannot be
//! fault-injected. The kill-resume integration test
//! (`crates/bench/tests/crash_resume.rs`) and the CI `crash-resume` job
//! drive sweeps through these sites and assert the resumed output is
//! byte-identical to an uninterrupted run.

/// Named injection sites in the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One checkpoint-journal record append ([`crate::checkpoint`]).
    JournalAppend,
    /// One persistent-store snapshot flush (trace or solo store).
    StoreFlush,
    /// One persistent-store file load.
    CacheLoad,
    /// One worker-process cell execution ([`crate::supervisor`]): the
    /// worker dies hard (`abort`) before running the cell — the kill -9
    /// simulation of the supervision tests.
    WorkerKill,
    /// One worker beat: the worker's beat thread goes silent (stops
    /// sending empty frames) while the worker itself keeps running and
    /// sending its cells — the "wedged heartbeat" that must not change a
    /// row while cells keep arriving.
    HeartbeatDrop,
}

impl Site {
    pub fn name(self) -> &'static str {
        match self {
            Site::JournalAppend => "journal-append",
            Site::StoreFlush => "store-flush",
            Site::CacheLoad => "cache-load",
            Site::WorkerKill => "worker-kill",
            Site::HeartbeatDrop => "heartbeat-drop",
        }
    }
}

/// What to do when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `std::process::abort()` before the write — a hard kill.
    Abort,
    /// Write only a prefix of the pending bytes, then abort — a torn write.
    ShortWrite,
    /// Fail the operation with an `ENOSPC`-style I/O error and continue.
    Enospc,
    /// Flip one bit in the pending buffer and continue — silent media
    /// corruption, to be caught by the checksums on the next load.
    BitFlip,
}

/// The fault scheduled for this hit of `site`, if any. Hits count down the
/// configured trigger; the fault fires exactly once. Always `None` when the
/// `rvz-faults` feature is off.
pub fn check(site: Site) -> Option<Action> {
    #[cfg(feature = "rvz-faults")]
    {
        imp::check(site)
    }
    #[cfg(not(feature = "rvz-faults"))]
    {
        let _ = site;
        None
    }
}

#[cfg(feature = "rvz-faults")]
mod imp {
    use super::{Action, Site};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    struct Plan {
        site: Site,
        action: Action,
        /// Remaining hits before the fault fires (fires when this reaches 0).
        countdown: AtomicU64,
    }

    static PLANS: OnceLock<Vec<Plan>> = OnceLock::new();

    fn parse(env: &str) -> Vec<Plan> {
        let mut plans = Vec::new();
        for part in env.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((site, rest)) = part.trim().split_once('=') else {
                panic!("RVZ_FAULTS: `{part}` is not site=action@N");
            };
            let (action, count) = match rest.split_once('@') {
                Some((a, n)) => {
                    let n: u64 = n
                        .parse()
                        .unwrap_or_else(|_| panic!("RVZ_FAULTS: bad hit count `{n}` in `{part}`"));
                    assert!(n >= 1, "RVZ_FAULTS: hit counts are 1-based (`{part}`)");
                    (a, n)
                }
                None => (rest, 1),
            };
            let site = match site {
                "journal-append" => Site::JournalAppend,
                "store-flush" => Site::StoreFlush,
                "cache-load" => Site::CacheLoad,
                "worker-kill" => Site::WorkerKill,
                "heartbeat-drop" => Site::HeartbeatDrop,
                other => panic!("RVZ_FAULTS: unknown site `{other}`"),
            };
            let action = match action {
                "abort" => Action::Abort,
                "short-write" => Action::ShortWrite,
                "enospc" => Action::Enospc,
                "bit-flip" => Action::BitFlip,
                other => panic!("RVZ_FAULTS: unknown action `{other}`"),
            };
            plans.push(Plan { site, action, countdown: AtomicU64::new(count) });
        }
        plans
    }

    pub(super) fn check(site: Site) -> Option<Action> {
        let plans = PLANS.get_or_init(|| match std::env::var("RVZ_FAULTS") {
            Ok(env) => parse(&env),
            Err(_) => Vec::new(),
        });
        for plan in plans.iter().filter(|p| p.site == site) {
            // Count down atomically; exactly one hit observes 1 → 0.
            let prev = plan
                .countdown
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
                .unwrap_or(0);
            if prev == 1 {
                eprintln!("rvz-faults: injecting {:?} at {}", plan.action, site.name());
                return Some(plan.action);
            }
        }
        None
    }
}

/// Applies a scheduled write-path fault to `bytes` before they are handed
/// to the file layer. Returns how many of the bytes should actually be
/// written, or an injected I/O error; aborts the process for the kill
/// flavors ([`Action::Abort`] immediately, [`Action::ShortWrite`] after
/// instructing the caller to write half the buffer — the caller aborts
/// via [`finish_short_write`] once the torn prefix is on disk).
pub fn mangle_write(site: Site, bytes: &mut [u8]) -> std::io::Result<WriteFate> {
    match check(site) {
        None => Ok(WriteFate::Full),
        Some(Action::Abort) => std::process::abort(),
        Some(Action::ShortWrite) => Ok(WriteFate::Short(bytes.len() / 2)),
        Some(Action::Enospc) => Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected ENOSPC (rvz-faults)",
        )),
        Some(Action::BitFlip) => {
            if let Some(b) = bytes.last_mut() {
                *b ^= 0x01;
            }
            Ok(WriteFate::Full)
        }
    }
}

/// Outcome of [`mangle_write`]: write everything, or write a torn prefix
/// and then die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    Full,
    /// Write only this many bytes, flush, then call [`finish_short_write`].
    Short(usize),
}

/// Second half of a [`WriteFate::Short`]: the torn prefix is on disk, so
/// the "crash" happens now.
pub fn finish_short_write() -> ! {
    std::process::abort()
}

#[cfg(all(test, feature = "rvz-faults"))]
mod tests {
    use super::*;

    #[test]
    fn check_is_quiet_without_env() {
        // The test binary is built with the feature but no RVZ_FAULTS env:
        // every site must be a no-op.
        assert_eq!(check(Site::JournalAppend), None);
        assert_eq!(check(Site::StoreFlush), None);
        assert_eq!(check(Site::CacheLoad), None);
    }
}
