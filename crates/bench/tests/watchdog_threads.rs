//! Regression for the `--cell-timeout` watchdog's thread hygiene: a
//! timed-out attempt used to leave its detached worker thread running to
//! the end of a possibly astronomical round budget, so a sweep with many
//! timeouts accumulated live threads without bound. The watchdog now
//! cancels the attempt cooperatively ([`rvz_sim::cancel`]): the executor
//! loops observe the flag at their next round-boundary poll point and the
//! thread unwinds promptly.

use rvz_bench::sweep::{
    self, Delay, Executor, Family, RunOptions, ScheduleSpec, SweepSpec, Variant,
};
use std::time::Duration;

/// A grid of deliberately slow cells: a huge lockstep period dilates
/// every trajectory by ~2²⁰×, so each cell naturally runs for far longer
/// than the 1ms budget, times out, and is cancelled. Runtime of the whole
/// test is dominated by `cells × timeout`, not by the dilation.
fn slow_spec() -> SweepSpec {
    SweepSpec {
        experiment: "watchdog-threads",
        families: vec![Family::Line],
        sizes: vec![8, 10, 12],
        delays: vec![Delay::Schedule(ScheduleSpec::Lockstep { period: 1 << 20 })],
        variants: vec![Variant::BasicWalkFsa],
        pairs_per_cell: 4,
        seed: 0x5EED_7D06,
        threads: 1,
        executor: Executor::DynStepping,
        agents: 2,
    }
}

/// Live threads of this process (Linux; the leak this test pins is only
/// countable through procfs).
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

#[cfg(target_os = "linux")]
#[test]
fn timed_out_cells_do_not_accumulate_threads() {
    let spec = slow_spec();
    let opts = RunOptions { journal: None, cell_timeout: Some(Duration::from_millis(1)) };

    // Warm-up run: counts the steady-state threads (rayon pool, test
    // harness) plus any first-run lazy initialization.
    let warmup = sweep::run_with_options(&spec, &opts);
    assert!(!warmup.rows.is_empty());
    std::thread::sleep(Duration::from_millis(200));
    let baseline = thread_count();

    // Three more sweeps × 12 cells each: the old detach-and-forget
    // watchdog would leave ~36 threads stepping through dilated budgets.
    let mut timed_out = 0usize;
    for _ in 0..3 {
        let report = sweep::run_with_options(&spec, &opts);
        assert_eq!(report.rows.len() + report.dropped_cells, report.planned_cells);
        for row in &report.rows {
            assert_eq!(
                row.timed_out,
                Some(true),
                "every dilated cell must blow the 1ms budget and be quarantined"
            );
            assert!(!row.met, "a timed-out row records no run");
        }
        timed_out += report.rows.len();
    }
    assert!(timed_out >= 12, "expected a meaningful number of timeouts, got {timed_out}");

    // Cancelled attempt threads are detached, so give stragglers a beat
    // to unwind before counting.
    std::thread::sleep(Duration::from_millis(300));
    let after = thread_count();
    assert!(
        after <= baseline + 4,
        "watchdog leaked threads: {baseline} before, {after} after {timed_out} timeouts"
    );
}
