//! End-to-end activation-schedule scenarios across all four execution
//! layers, on two-lane schedules: the k-lane simulator
//! (`rvz_sim::run_ensemble`), the schedule-aware trace replay
//! (`rvz_sim::schedule_scan`), the cycle-position exact decider
//! (`rvz_lowerbounds::decide_pair_scheduled` / `worst_case_schedule`),
//! and the sweep engine's `Delay::Schedule` axis (e10).

use rvz_bench::sweep::{self, Delay, Executor, Family, ScheduleSpec, SweepSpec, Variant};
use tree_rendezvous::agent::Fsa;
use tree_rendezvous::lowerbounds::decide::{
    decide_pair_scheduled, verify_schedule_lasso, worst_case_schedule, ScheduleWorstCase,
};
use tree_rendezvous::sim::trace::Replay;
use tree_rendezvous::sim::{run_ensemble_fsa, schedule_scan, EnsembleSchedule, TraceRecorder};
use tree_rendezvous::trees::generators::line;

/// The basic walk on a 9-line, pair (0, 6): the e9 story told through
/// schedules — simultaneous meets, θ=1 shifts the timeline, intermittence
/// changes the round again, and a crashed partner is met at home.
#[test]
fn schedule_column_is_answered_from_two_recordings() {
    let t = line(9);
    let fsa = Fsa::basic_walk(t.max_degree().max(1));
    use tree_rendezvous::agent::model::Agent;
    let mut rec_a = TraceRecorder::new(0, fsa.runner_owned(), Agent::memory_bits);
    let mut rec_b = TraceRecorder::new(6, fsa.runner_owned(), Agent::memory_bits);
    rec_a.record_to(&t, 200);
    rec_b.record_to(&t, 200);
    let columns = [
        (EnsembleSchedule::simultaneous(2), 200u64),
        (EnsembleSchedule::start_delays(&[0, 1]), 200),
        (EnsembleSchedule::intermittent_last(2, 2, 0), 200),
        (EnsembleSchedule::intermittent_last(2, 3, 0), 200),
        (EnsembleSchedule::crash_last_after(2, 0), 200),
    ];
    let verdicts = schedule_scan(&t, rec_a.trajectory(), rec_b.trajectory(), &columns);
    assert_eq!(verdicts.len(), 5);
    for ((sched, _), verdict) in columns.iter().zip(&verdicts) {
        let Replay::Decided(run) = verdict else {
            panic!("200 recorded rounds decide every column: {sched:?}")
        };
        // Replay must agree with the budget-free decider and with direct
        // stepping on every column.
        let decision = decide_pair_scheduled(&t, &fsa, 0, 6, sched);
        assert_eq!(run.outcome.round(), decision.round(), "{sched:?}");
        assert_eq!(run.outcome.met(), decision.met(), "{sched:?}");
        let mut agents = [fsa.runner(), fsa.runner()];
        let stepped = run_ensemble_fsa(&t, &[0, 6], &mut agents, sched, 200, false);
        assert_eq!(run.outcome, stepped.outcome, "{sched:?}");
        assert_eq!(run.crossings, stepped.crossings, "{sched:?}");
    }
    // The crash column: B parked at 6 from the start, A's endpoint walk
    // arrives at round 6.
    let Replay::Decided(crash) = &verdicts[4] else { panic!() };
    assert_eq!(crash.outcome.round(), Some(6));
}

#[test]
fn worst_case_schedule_certifies_class_defeats_end_to_end() {
    let t = line(9);
    let fsa = Fsa::basic_walk(t.max_degree().max(1));
    // A class with only meeting scenarios vs one containing a defeat.
    let benign =
        [EnsembleSchedule::crash_last_after(2, 0), EnsembleSchedule::crash_last_after(2, 1)];
    let wc = worst_case_schedule(&t, &fsa, 0, 6, &benign);
    assert!(wc.all_meet(), "a crashed agent is met at home");
    let with_lockstep = [
        EnsembleSchedule::crash_last_after(2, 0),
        // Global stalls dilate the simultaneous scenario: pair (0, 5) is
        // at odd distance, so the dilated shuttle never meets.
        EnsembleSchedule::new(2, Vec::new(), vec![vec![true, true], vec![false, false]]),
    ];
    match worst_case_schedule(&t, &fsa, 0, 5, &with_lockstep) {
        ScheduleWorstCase::Defeated { index, decision } => {
            assert_eq!(index, 1);
            let lasso = decision.lasso().expect("defeat carries a lasso");
            assert!(verify_schedule_lasso(&t, &fsa, 0, 5, &with_lockstep[index], lasso));
            // The lasso's period respects the 2-round cycle.
            assert!(lasso.period.is_multiple_of(2));
        }
        ScheduleWorstCase::AllMeet { .. } => panic!("the dilated shuttle never meets"),
    }
}

/// The sweep engine's schedule axis, end to end: an e10-shaped grid run
/// under all three executors produces identical outcomes, certified only
/// by the decider, with `schedule` labels on genuine schedule rows.
#[test]
fn sweep_schedule_axis_runs_certified_end_to_end() {
    let spec = |executor| SweepSpec {
        experiment: "sched-e2e".into(),
        families: vec![Family::EnumFree],
        sizes: vec![5, 6],
        delays: vec![
            Delay::Schedule(ScheduleSpec::Simultaneous),
            Delay::Schedule(ScheduleSpec::StartDelay(1)),
            Delay::Schedule(ScheduleSpec::Intermittent { period: 2, phase: 0 }),
            Delay::Schedule(ScheduleSpec::Lockstep { period: 2 }),
            Delay::Schedule(ScheduleSpec::CrashAfterHalfN),
        ],
        variants: vec![Variant::BasicWalkFsa],
        pairs_per_cell: 2, // ignored: the enumerated pair axis is exhaustive
        seed: 99,
        threads: 2,
        executor,
        agents: 2,
    };
    let decided = sweep::run(&spec(Executor::ExactDecide));
    let replayed = sweep::run(&spec(Executor::TraceReplay));
    assert_eq!(decided.rows.len(), replayed.rows.len());
    assert!(decided.rows.iter().all(|r| r.certified));
    assert!(replayed.rows.iter().all(|r| !r.certified));
    for (d, r) in decided.rows.iter().zip(&replayed.rows) {
        assert_eq!(d.met, r.met, "{d:?}");
        assert_eq!(d.rounds, r.rounds, "{d:?}");
        assert_eq!(d.schedule, r.schedule, "{d:?}");
        assert_eq!(d.cell_seed, r.cell_seed, "{d:?}");
    }
    // Genuine schedules carry labels; the θ-shaped columns are legacy rows.
    let labels: std::collections::BTreeSet<&str> =
        decided.rows.iter().filter_map(|r| r.schedule.as_deref()).collect();
    assert!(labels.contains("intermittent(2,0)"), "{labels:?}");
    assert!(labels.contains("lockstep(2)"), "{labels:?}");
    assert!(labels.iter().any(|l| l.starts_with("crash-after(")), "{labels:?}");
    assert!(decided.rows.iter().any(|r| r.schedule.is_none() && r.delay == 1), "θ=1 column");
    // Lockstep dilates the simultaneous scenario: identical met/never
    // per pair, and its never-meets certificates carry the label and
    // verify.
    let outcome_by = |label: Option<&str>, delay: u64| -> Vec<(u64, u32, u32, bool)> {
        decided
            .rows
            .iter()
            .filter(|r| r.schedule.as_deref() == label && r.delay == delay)
            .map(|r| (r.tree_seed, r.start_a, r.start_b, r.met))
            .collect()
    };
    assert_eq!(outcome_by(None, 0), outcome_by(Some("lockstep(2)"), 0));
    let lockstep_certs = decided
        .certificates
        .iter()
        .filter(|c| c.schedule.as_deref() == Some("lockstep(2)"))
        .count();
    assert!(lockstep_certs > 0, "the dilated shuttle pairs are certified never-meets");
    for cert in &decided.certificates {
        assert_eq!(cert.verified, Some(true), "{cert:?}");
    }
}
