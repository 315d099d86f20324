//! Trace replay under concurrent growth: rows from a cold grid must not
//! depend on the thread count, nor on which thread grew a recording.
//!
//! The grid is e6's corner at n = 16–32 on lines and 3-spiders:
//! delay-robust pair cells, which meet after up to tens of thousands of
//! rounds, and Theorem-4.1 3-agent cells, which on lines gather after up
//! to hundreds of thousands. Several start tuples per instance make
//! threads share lanes, and each long recording grows several times past
//! its first 4,096-round target while other threads read it. Each cold
//! run uses a seed no other run in this binary uses, so the process-wide
//! memo registry holds nothing for it.

use rvz_bench::sweep::{self, Delay, Executor, Family, SweepSpec, Variant};

/// The first recording target; a row past twice this grew its lanes at
/// least twice.
const FIRST_TARGET: u64 = 1 << 12;

fn spec(agents: usize, seed: u64, threads: usize, executor: Executor) -> SweepSpec {
    let (variant, sizes, pairs_per_cell) = match agents {
        2 => (Variant::DelayRobust, vec![16, 24, 32], 3),
        _ => (Variant::TreeRvz, vec![16, 24], 4),
    };
    SweepSpec {
        experiment: "replay-threads",
        families: vec![Family::Line, Family::Spider3],
        sizes,
        delays: vec![Delay::Zero, Delay::LinearN],
        variants: vec![variant],
        pairs_per_cell,
        seed,
        threads,
        executor,
        agents,
    }
}

/// The run's rows as JSON, plus its longest meeting round.
fn run(spec: &SweepSpec) -> (String, u64) {
    let report = sweep::run(spec);
    assert_eq!(report.dropped_cells, 0, "every cell must run");
    let longest = report.rows.iter().filter_map(|r| r.rounds).max().unwrap_or(0);
    (serde_json::to_string(&report.rows).unwrap(), longest)
}

#[test]
fn cold_replay_rows_are_thread_invariant_and_match_stepping() {
    for agents in [2, 3] {
        // A cold replay run per thread count, each on its own seed and
        // checked against stepping (which shares no state); then warm
        // reruns of the first seed at every thread count.
        let mut first = None;
        for (threads, seed) in [(8, 0x7E5_0008u64), (2, 0x7E5_0002), (1, 0x7E5_0001)] {
            let seed = seed ^ ((agents as u64) << 32);
            let (cold, longest) = run(&spec(agents, seed, threads, Executor::TraceReplay));
            assert!(longest > 2 * FIRST_TARGET, "{agents} agents: no lane grew twice ({longest})");
            let (stepped, _) = run(&spec(agents, seed, 1, Executor::DynStepping));
            assert_eq!(cold, stepped, "cold replay at {threads} threads, {agents} agents");
            first.get_or_insert((seed, cold));
        }
        let (seed, reference) = first.expect("ran above");
        for threads in [1, 2, 8] {
            let (warm, _) = run(&spec(agents, seed, threads, Executor::TraceReplay));
            assert_eq!(warm, reference, "warm replay at {threads} threads, {agents} agents");
        }
    }
}
