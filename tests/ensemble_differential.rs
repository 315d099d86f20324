//! Differential tests for the k-agent ensemble engine: the three answer
//! paths — k-lane stepping ([`run_ensemble_fsa`]), the trace-store merge
//! ([`replay_ensemble`]) and the exact decider ([`decide_ensemble`]) —
//! must agree with each other, and at `k = 2` under a start delay must
//! agree bit-for-bit with the classic pair API ([`run_pair`]) and the
//! fixed-delay decider ([`decide_pair`]). Property-style: seeded random
//! trees (n ≤ 6) × feasible start tuples × the schedule classes the e11
//! sweep exercises (simultaneous, start delay, crash, intermittent).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tree_rendezvous::agent::model::Agent;
use tree_rendezvous::agent::Fsa;
use tree_rendezvous::lowerbounds::decide::{decide_ensemble, decide_pair, verify_ensemble_lasso};
use tree_rendezvous::sim::{
    replay_ensemble, run_ensemble_fsa, run_pair, EnsembleReplay, EnsembleRun, EnsembleSchedule,
    PairConfig, TraceRecorder,
};
use tree_rendezvous::trees::generators::{random_relabel, random_tree};
use tree_rendezvous::trees::{perfectly_symmetrizable, NodeId, Tree};

/// Exact bw decision horizon for an ensemble schedule: past the prefix
/// the joint state is periodic within `cycle · 2(n−1)` rounds, so two
/// such periods decide gathering (the bound the sweep layer uses).
fn bw_budget(t: &Tree, sched: &EnsembleSchedule) -> u64 {
    let two_periods = 4 * (t.num_nodes() as u64 - 1) + 2;
    sched.prefix_len() + sched.cycle_len() * two_periods
}

/// Seeded random trees, relabeled so port orders are adversarial too.
fn trees(seed: u64, count: usize, n: usize) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_relabel(&random_tree(n, &mut rng), &mut rng)).collect()
}

/// All ordered feasible k-tuples (pairwise distinct, no pairwise
/// perfectly-symmetrizable entries), lexicographic.
fn feasible_tuples(t: &Tree, k: usize) -> Vec<Vec<NodeId>> {
    let n = t.num_nodes() as NodeId;
    let mut out = Vec::new();
    let mut tuple: Vec<NodeId> = Vec::new();
    fn extend(t: &Tree, n: NodeId, k: usize, tuple: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
        if tuple.len() == k {
            out.push(tuple.clone());
            return;
        }
        'cand: for v in 0..n {
            for &u in tuple.iter() {
                if u == v || perfectly_symmetrizable(t, u, v) {
                    continue 'cand;
                }
            }
            tuple.push(v);
            extend(t, n, k, tuple, out);
            tuple.pop();
        }
    }
    extend(t, n, k, &mut tuple, &mut out);
    out
}

/// Steps a k-lane ensemble of basic walkers under `sched`.
fn step_ensemble(t: &Tree, fsa: &Fsa, starts: &[NodeId], sched: &EnsembleSchedule) -> EnsembleRun {
    let mut bank: Vec<_> = starts.iter().map(|_| fsa.runner_owned()).collect();
    run_ensemble_fsa(t, starts, &mut bank, sched, bw_budget(t, sched), false)
}

/// Replays the same ensemble from per-lane solo recordings, growing the
/// recordings on demand exactly as the sweep's replay executor does.
fn replay_from_recordings(
    t: &Tree,
    fsa: &Fsa,
    starts: &[NodeId],
    sched: &EnsembleSchedule,
) -> EnsembleRun {
    let mut recs: Vec<_> = starts
        .iter()
        .map(|&s| TraceRecorder::new(s, fsa.runner_owned(), Agent::memory_bits))
        .collect();
    loop {
        let trajs: Vec<_> = recs.iter().map(|r| r.trajectory().clone()).collect();
        let refs: Vec<&_> = trajs.iter().collect();
        match replay_ensemble(t, &refs, &sched.indices(), bw_budget(t, sched), false) {
            EnsembleReplay::Decided(run) => return run,
            EnsembleReplay::NeedMore { rounds } => {
                for (rec, need) in recs.iter_mut().zip(&rounds) {
                    if *need > 0 {
                        rec.record_to(t, *need);
                    }
                }
            }
        }
    }
}

/// The e11 schedule classes at width `k` over an `n`-node instance.
fn schedule_classes(k: usize, n: usize) -> Vec<EnsembleSchedule> {
    let mut delays = vec![0u64; k];
    delays[k - 1] = 2;
    vec![
        EnsembleSchedule::simultaneous(k),
        EnsembleSchedule::start_delays(&delays),
        EnsembleSchedule::crash_last_after(k, n.div_ceil(2) as u64),
        EnsembleSchedule::intermittent_last(k, 2, 0),
    ]
}

#[test]
fn two_lane_ensemble_is_bit_for_bit_the_pair_engine() {
    // k = 2 is not "approximately" the pair engine — under a start delay
    // the ensemble loop with two lanes must reproduce the classic pair
    // runner's outcome, round, crossing count and final positions exactly,
    // and the ensemble decider the fixed-delay decider's verdict; under a
    // genuine schedule the three two-lane paths must agree.
    for (ti, t) in trees(0xD1FF, 4, 6).into_iter().enumerate() {
        let fsa = Fsa::basic_walk(t.max_degree().max(1));
        for tuple in feasible_tuples(&t, 2) {
            let (a, b) = (tuple[0], tuple[1]);
            for theta in [0u64, 1, 3] {
                let esched = EnsembleSchedule::start_delays(&[0, theta]);
                let budget = bw_budget(&t, &esched);
                let ens = step_ensemble(&t, &fsa, &tuple, &esched);
                let (mut x, mut y) = (fsa.runner_owned(), fsa.runner_owned());
                let pair = run_pair(&t, a, b, &mut x, &mut y, PairConfig::delayed(theta, budget));
                assert_eq!(ens.outcome, pair.outcome, "tree {ti} ({a},{b}) θ={theta}");
                assert_eq!(ens.crossings, pair.crossings, "tree {ti} ({a},{b}) θ={theta}");
                assert_eq!(ens.finals[0].node, pair.final_a.node);
                assert_eq!(ens.finals[1].node, pair.final_b.node);
                // Replay and decide agree with the stepping verdict.
                let rep = replay_from_recordings(&t, &fsa, &tuple, &esched);
                assert_eq!(rep.outcome, ens.outcome);
                assert_eq!(rep.crossings, ens.crossings);
                let dec = decide_ensemble(&t, &fsa, &tuple, &esched);
                let pdec = decide_pair(&t, &fsa, a, b, theta);
                assert_eq!(dec.met(), pdec.met(), "tree {ti} ({a},{b}) θ={theta}");
                assert_eq!(dec.round(), pdec.round(), "tree {ti} ({a},{b}) θ={theta}");
                assert_eq!(dec.met(), ens.outcome.met());
                assert_eq!(dec.round(), ens.outcome.round());
            }
            // A genuinely scheduled adversary: one lane at half duty.
            let esched = EnsembleSchedule::intermittent_last(2, 2, 0);
            let ens = step_ensemble(&t, &fsa, &tuple, &esched);
            let rep = replay_from_recordings(&t, &fsa, &tuple, &esched);
            assert_eq!(rep.outcome, ens.outcome, "tree {ti} ({a},{b}) intermittent");
            assert_eq!(rep.crossings, ens.crossings, "tree {ti} ({a},{b}) intermittent");
            assert_eq!(rep.finals, ens.finals, "tree {ti} ({a},{b}) intermittent");
            let dec = decide_ensemble(&t, &fsa, &tuple, &esched);
            assert_eq!(dec.round(), ens.outcome.round(), "tree {ti} ({a},{b}) intermittent");
            assert_eq!(
                dec.crossings_within(dec.round().unwrap_or(bw_budget(&t, &esched))),
                ens.crossings,
                "tree {ti} ({a},{b}) intermittent"
            );
            if let Some(lasso) = dec.lasso() {
                assert!(verify_ensemble_lasso(&t, &fsa, &tuple, &esched, lasso));
            }
        }
    }
}

#[test]
fn three_lane_paths_agree_and_never_gathers_certificates_verify() {
    // decide ≡ replay ≡ run at k = 3, across the e11 schedule classes;
    // every never-gathers verdict must carry an ensemble lasso that
    // independent k-lane stepping re-verifies.
    let mut never_seen = 0u32;
    for (ti, t) in trees(0x3A6E, 3, 6).into_iter().enumerate() {
        let fsa = Fsa::basic_walk(t.max_degree().max(1));
        let tuples = feasible_tuples(&t, 3);
        // The full tuple set is large; a lex-stride sample keeps the test
        // fast while still varying every lane's start.
        for tuple in tuples.iter().step_by(7) {
            for (si, sched) in schedule_classes(3, t.num_nodes()).into_iter().enumerate() {
                let run = step_ensemble(&t, &fsa, tuple, &sched);
                let rep = replay_from_recordings(&t, &fsa, tuple, &sched);
                assert_eq!(run.outcome, rep.outcome, "tree {ti} {tuple:?} sched {si}");
                assert_eq!(run.crossings, rep.crossings, "tree {ti} {tuple:?} sched {si}");
                assert_eq!(run.pair_meetings, rep.pair_meetings, "tree {ti} {tuple:?} sched {si}");
                let dec = decide_ensemble(&t, &fsa, tuple, &sched);
                assert_eq!(dec.met(), run.outcome.met(), "tree {ti} {tuple:?} sched {si}");
                assert_eq!(dec.round(), run.outcome.round(), "tree {ti} {tuple:?} sched {si}");
                if !dec.met() {
                    never_seen += 1;
                    let lasso = dec.lasso().expect("never-gathers carries a lasso");
                    assert!(
                        verify_ensemble_lasso(&t, &fsa, tuple, &sched, lasso),
                        "bogus lasso: tree {ti} {tuple:?} sched {si}"
                    );
                }
            }
        }
    }
    assert!(never_seen > 0, "the sample must include certified never-gathers instances");
}
