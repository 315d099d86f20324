//! Cross-checks between the three answer paths for a `(pair, delay)`
//! question — bounded stepping (`run_pair`), trace replay
//! (`replay_pair`) and the exact decider
//! (`rvz_lowerbounds::decide`) — focused on the delay-axis edge cases:
//! delay 0, delays past both fixed-point tails, and the fully symmetric
//! pair whose trajectories mirror each other forever.

use tree_rendezvous::agent::model::{bw_exit, Action, Agent, Obs};
use tree_rendezvous::agent::Fsa;
use tree_rendezvous::lowerbounds::decide::{
    decide_pair, verify_lasso, worst_case_delay, WorstCase,
};
use tree_rendezvous::sim::trace::{Replay, Trajectory};
use tree_rendezvous::sim::{replay_pair, run_pair, Outcome, PairConfig, TraceRecorder};
use tree_rendezvous::trees::generators::{colored_line, line, spider};
use tree_rendezvous::trees::{NodeId, Tree};

/// Records an FSA runner's solo trajectory through `rounds`.
fn record_fsa(t: &Tree, fsa: &Fsa, start: NodeId, rounds: u64) -> Trajectory {
    let mut rec = TraceRecorder::new(start, fsa.runner_owned(), Agent::memory_bits);
    rec.record_to(t, rounds);
    rec.trajectory().clone()
}

#[test]
fn recorded_first_visits_match_the_solo_lasso() {
    // The recorded timeline and the decider's solo configuration lasso
    // answer the same "when does A first step on B's home?" question —
    // the quantity that settles every large-delay cell.
    use tree_rendezvous::lowerbounds::decide::SoloLasso;
    for t in [line(9), spider(3, 4)] {
        let fsa = Fsa::basic_walk(t.max_degree().max(1));
        for start in [0u32, 3] {
            let solo = SoloLasso::tabulate(&t, &fsa, start);
            let horizon = 4 * t.num_nodes() as u64;
            let traj = record_fsa(&t, &fsa, start, horizon);
            assert_eq!(traj.first_visit(start), Some(0), "the start is its own round-0 visit");
            for node in 0..t.num_nodes() as NodeId {
                if node == start {
                    continue; // the trajectory reports round 0, the lasso the first return
                }
                assert_eq!(
                    traj.first_visit(node),
                    solo.first_visit(node).filter(|&r| r <= horizon),
                    "start={start} node={node}"
                );
            }
        }
    }
}

#[test]
fn delay_zero_column_matches_the_decider() {
    // Edge case 1: delay 0 — the simultaneous-start scenario — across
    // meeting and certified-never instances.
    for t in [line(9), spider(3, 3), colored_line(8, 1)] {
        let fsa = Fsa::basic_walk(t.max_degree().max(1));
        let n = t.num_nodes() as u64;
        let budget = 4 * (n - 1) + 2; // the exact bw decision horizon at θ=0
        for (a, b) in [(0u32, (n - 1) as u32), (0, (n / 2) as u32), (1, (n - 2) as u32)] {
            if a == b {
                continue;
            }
            let ta = record_fsa(&t, &fsa, a, budget);
            let tb = record_fsa(&t, &fsa, b, budget);
            let Replay::Decided(run) = replay_pair(&t, &ta, &tb, PairConfig::delayed(0, budget))
            else {
                panic!("recorded horizon must decide θ=0")
            };
            let decision = decide_pair(&t, &fsa, a, b, 0);
            assert_eq!(run.outcome.met(), decision.met(), "a={a} b={b}");
            assert_eq!(run.outcome.round(), decision.round(), "a={a} b={b}");
            if let Some(lasso) = decision.lasso() {
                assert!(verify_lasso(&t, &fsa, a, b, 0, lasso), "bogus lasso a={a} b={b}");
            }
        }
    }
}

#[test]
fn delay_past_both_fixed_point_tails_matches_the_decider() {
    // Edge case 2: a delay at least as large as both agents' fixed-point
    // tails. An absorbing automaton (walk two steps, then park forever)
    // stabilizes quickly; any delay past stabilization must replay and
    // decide identically — including the decider answering without
    // walking the delay.
    let t = line(7);
    // States: 0 → 1 → 2 (absorbing stay). λ = [1, 1, -1]: two moves by
    // port 1 (rightward on the canonical line), then park.
    let fsa = Fsa::from_fn(2, 3, vec![1, 1, -1], 0, |s, _entry, _d| (s + 1).min(2));
    let budget = 10_000u64;
    for (a, b) in [(0u32, 4u32), (0, 2), (4, 0), (6, 1)] {
        let ta = record_fsa(&t, &fsa, a, budget);
        let tb = record_fsa(&t, &fsa, b, budget);
        for delay in [100u64, 5_000, 9_000] {
            let verdict = replay_pair(&t, &ta, &tb, PairConfig::delayed(delay, budget));
            let Replay::Decided(run) = verdict else {
                panic!("recorded horizon must decide θ={delay}")
            };
            let decision = decide_pair(&t, &fsa, a, b, delay);
            match run.outcome {
                Outcome::Met { round, .. } => {
                    assert_eq!(decision.round(), Some(round), "a={a} b={b} θ={delay}");
                }
                Outcome::Timeout { .. } => {
                    // Both parked apart: the replay times out at its
                    // budget, the decider *certifies* it.
                    let lasso = decision.lasso().expect("parked agents never meet");
                    assert_eq!(lasso.period, 1, "two parked agents cycle with period 1");
                    assert!(verify_lasso(&t, &fsa, a, b, delay, lasso));
                }
            }
        }
    }
}

#[test]
fn fixed_tails_settle_huge_budgets_and_the_decider_agrees() {
    // The replay path settles billion-round budgets from the tails only
    // when the recorder knows the agent halted; the test agent reports it.
    struct WalkThenHalt {
        moves: u64,
    }
    impl Agent for WalkThenHalt {
        fn act(&mut self, obs: Obs) -> Action {
            if self.moves == 0 {
                return Action::Stay;
            }
            self.moves -= 1;
            Action::Move(bw_exit(obs.entry, obs.degree))
        }
        fn memory_bits(&self) -> u64 {
            0
        }
        fn halted(&self) -> bool {
            self.moves == 0
        }
    }
    let t = line(7);
    // The same behavior as an absorbing FSA: 2 basic-walk steps, then park.
    let fsa = {
        let walk = Fsa::basic_walk(2);
        let k = walk.num_states();
        // States 0..2k walk (two phases), state 2k parks. Phase p state s
        // encodes "walk state s, p moves made".
        Fsa::from_fn(
            2,
            2 * k + 1,
            {
                let mut lambda: Vec<i64> = Vec::new();
                for _ in 0..2 {
                    lambda.extend(walk.lambda.iter().copied());
                }
                lambda.push(-1);
                lambda
            },
            walk.s0,
            move |s, entry, d| {
                let phase = s as usize / k;
                if phase >= 2 {
                    return 2 * k as u32;
                }
                let inner = walk.transition(s % k as u32, entry, d);
                ((phase + 1) * k) as u32 + if phase + 1 >= 2 { 0 } else { inner }
            },
        )
    };
    for (a, b) in [(0u32, 4u32), (6, 1)] {
        let mut rec_a = TraceRecorder::new(a, WalkThenHalt { moves: 2 }, |_| 0);
        let mut rec_b = TraceRecorder::new(b, WalkThenHalt { moves: 2 }, |_| 0);
        rec_a.record_to(&t, 10);
        rec_b.record_to(&t, 10);
        assert!(rec_a.trajectory().is_fixed() && rec_b.trajectory().is_fixed());
        // Budgets in the billions, delays at/beyond both tails: the merge
        // must decide instantly, and agree with the budget-free decider.
        for delay in [2u64, 50, 1_000_000_000] {
            let cfg = PairConfig::delayed(delay, u64::MAX / 4);
            let verdict = replay_pair(&t, rec_a.trajectory(), rec_b.trajectory(), cfg);
            let Replay::Decided(run) = verdict else { panic!("fixed tails must decide") };
            let decision = decide_pair(&t, &fsa, a, b, delay);
            assert_eq!(run.outcome.met(), decision.met(), "a={a} b={b} θ={delay}");
            assert_eq!(run.outcome.round(), decision.round(), "a={a} b={b} θ={delay}");
        }
    }
}

#[test]
fn mirror_symmetric_pair_is_certified_for_every_delay() {
    // Edge case 3: the fully symmetric instance — one properly-colored
    // edge, identical (mirrored) trajectories. Bounded simulation can only
    // report a timeout at its budget; the decider certifies never-meets at
    // θ=0, and the quantifier layer certifies the defeat in one shot.
    let t = colored_line(2, 0);
    let fsa = Fsa::basic_walk(1);
    let (ta, tb) = (record_fsa(&t, &fsa, 0, 64), record_fsa(&t, &fsa, 1, 64));
    // The two trajectories are exact mirrors: same round-by-round swap.
    for r in 0..=20u64 {
        assert_ne!(ta.position(r), tb.position(r), "round {r}");
    }
    let delays = [0u64, 1, 7];
    let decisions: Vec<_> = delays.iter().map(|&d| decide_pair(&t, &fsa, 0, 1, d)).collect();
    for (d, &delay) in decisions.iter().zip(&delays) {
        let verdict = replay_pair(&t, &ta, &tb, PairConfig::delayed(delay, 64));
        let Replay::Decided(run) = verdict else { panic!("horizon decides") };
        assert_eq!(run.outcome.met(), d.met(), "θ={delay}");
        assert_eq!(run.outcome.round(), d.round(), "θ={delay}");
        if let Some(lasso) = d.lasso() {
            assert!(verify_lasso(&t, &fsa, 0, 1, delay, lasso), "θ={delay}");
        }
    }
    // The universal verdict: delay 0 already defeats the pair.
    match worst_case_delay(&t, &fsa, 0, 1) {
        WorstCase::Defeated { delay, decision, .. } => {
            assert_eq!(delay, 0);
            assert!(verify_lasso(&t, &fsa, 0, 1, 0, decision.lasso().unwrap()));
        }
        WorstCase::AllMeet { .. } => panic!("the mirrored edge defeats the basic walk"),
    }
    // Direct stepping agrees at a modest budget.
    let mut x = fsa.runner();
    let mut y = fsa.runner();
    let run = run_pair(&t, 0, 1, &mut x, &mut y, PairConfig::simultaneous(50));
    assert!(!run.outcome.met());
    assert_eq!(run.crossings, decisions[0].crossings_within(50));
}
