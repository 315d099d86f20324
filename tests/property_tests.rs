//! Property-based tests (proptest) on the core invariants:
//!
//! * substrate: contraction laws, canonical-form invariance, perfect
//!   symmetrizability coherence;
//! * walks: the basic-walk period, Explo-bis reconstruction == ground
//!   truth;
//! * the Parity Lemma (4.4) on random automata;
//! * Lemma 4.1 feasibility ⇒ meeting for the prime protocol;
//! * output: streamed row/certificate JSON equals its `Value` rendering.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tree_rendezvous::agent::line_fsa::LineFsa;
use tree_rendezvous::agent::model::{bw_exit, Action, Agent, Obs, Step, SubAgent};
use tree_rendezvous::explore::ExploBis;
use tree_rendezvous::sim::{run_single, Cursor};
use tree_rendezvous::trees::canon::{canon_ports, unrooted_canon_structural};
use tree_rendezvous::trees::generators::{random_relabel, random_tree};
use tree_rendezvous::trees::symmetry::symmetrization_witness;
use tree_rendezvous::trees::{contract, perfectly_symmetrizable, NodeId, Tree};

fn arb_tree(max_n: usize) -> impl Strategy<Value = Tree> {
    (2..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_relabel(&random_tree(n, &mut rng), &mut rng)
    })
}

struct BasicWalker;

impl Agent for BasicWalker {
    fn act(&mut self, obs: Obs) -> Action {
        Action::Move(bw_exit(obs.entry, obs.degree))
    }
    fn memory_bits(&self) -> u64 {
        0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn basic_walk_period_and_coverage(t in arb_tree(40), start in 0u32..40) {
        let start = start % t.num_nodes() as u32;
        let n = t.num_nodes() as u64;
        let run = run_single(&t, start, &mut BasicWalker, 2 * (n - 1), true);
        // §2.2: a basic walk of length 2(n−1) returns to its start…
        prop_assert_eq!(run.cursor.node, start);
        // …and is an Euler tour: every node visited.
        let trace = run.trace.unwrap();
        for v in 0..t.num_nodes() as NodeId {
            prop_assert!(trace.contains(&v), "node {} unvisited", v);
        }
    }

    #[test]
    fn csr_layout_matches_reference_adjacency(t in arb_tree(60)) {
        // Reference semantics of the pre-CSR nested-Vec builder: fill
        // `adj[u][p] = (neighbor, entry_port)` straight from the edge list
        // and demand the CSR accessors agree on every (node, port).
        use tree_rendezvous::trees::Port;
        let n = t.num_nodes();
        let edges = t.edges();
        let mut deg = vec![0usize; n];
        for e in &edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let mut adj: Vec<Vec<Option<(NodeId, Port)>>> =
            deg.iter().map(|&d| vec![None; d]).collect();
        for e in &edges {
            prop_assert!(adj[e.u as usize][e.port_u as usize].replace((e.v, e.port_v)).is_none());
            prop_assert!(adj[e.v as usize][e.port_v as usize].replace((e.u, e.port_u)).is_none());
        }
        for u in 0..n as NodeId {
            prop_assert_eq!(t.degree(u) as usize, deg[u as usize], "degree at {}", u);
            let mut listed = t.neighbors(u);
            for p in 0..t.degree(u) {
                let (v, pv) = adj[u as usize][p as usize].expect("contiguous ports");
                prop_assert_eq!(t.neighbor(u, p), v, "neighbor at ({}, {})", u, p);
                prop_assert_eq!(t.entry_port(u, p), pv, "entry port at ({}, {})", u, p);
                prop_assert_eq!(listed.next(), Some((p, v, pv)));
            }
            prop_assert_eq!(listed.next(), None);
        }
    }

    #[test]
    fn from_edges_roundtrips_and_rejects_corruptions(t in arb_tree(40)) {
        use tree_rendezvous::trees::TreeError;
        let n = t.num_nodes();
        let edges = t.edges();
        // Round trip through the edge list rebuilds the identical tree.
        let rebuilt = Tree::from_edges(n, &edges).unwrap();
        prop_assert_eq!(&rebuilt, &t);
        // Dropping an edge: wrong count.
        prop_assert!(matches!(
            Tree::from_edges(n, &edges[..edges.len() - 1]),
            Err(TreeError::WrongEdgeCount { .. })
        ));
        // Duplicating an edge (same count): duplicate port at its endpoint.
        if edges.len() >= 2 {
            let mut dup = edges.clone();
            dup[1] = dup[0];
            prop_assert!(matches!(
                Tree::from_edges(n, &dup),
                Err(TreeError::DuplicatePort { .. })
            ));
        }
        // Port beyond the endpoint's degree: non-contiguous ports.
        let mut shifted = edges.clone();
        shifted[0].port_u += t.degree(shifted[0].u);
        prop_assert!(matches!(
            Tree::from_edges(n, &shifted),
            Err(TreeError::NonContiguousPorts { .. })
        ));
        // Self-loop.
        let mut looped = edges.clone();
        looped[0].v = looped[0].u;
        prop_assert!(matches!(Tree::from_edges(n, &looped), Err(TreeError::SelfLoop { .. })));
    }

    #[test]
    fn contraction_laws(t in arb_tree(60)) {
        let c = contract(&t);
        // Leaves preserved; ν ≤ 2ℓ − 1; no degree-2 survivors (when ν > 2).
        prop_assert_eq!(c.tree.num_leaves(), t.num_leaves());
        prop_assert!(c.num_nodes() <= 2 * t.num_leaves().max(1));
        if c.num_nodes() > 2 {
            for u in 0..c.num_nodes() as NodeId {
                prop_assert_ne!(c.tree.degree(u), 2);
            }
        }
        // Contraction is idempotent.
        let c2 = contract(&c.tree);
        prop_assert_eq!(c2.num_nodes(), c.num_nodes());
    }

    #[test]
    fn canon_invariant_under_node_renumbering(t in arb_tree(30), salt in any::<u64>()) {
        let n = t.num_nodes();
        // A deterministic pseudo-random node permutation.
        let mut sigma: Vec<NodeId> = (0..n as NodeId).collect();
        let mut rng = StdRng::seed_from_u64(salt);
        use rand::seq::SliceRandom;
        sigma.shuffle(&mut rng);
        let r = t.renumbered(&sigma).unwrap();
        let mark = 0 as NodeId;
        prop_assert_eq!(
            unrooted_canon_structural(&t, Some(mark)),
            unrooted_canon_structural(&r, Some(sigma[mark as usize]))
        );
    }

    #[test]
    fn perfect_symmetrizability_coherent(t in arb_tree(16)) {
        let n = t.num_nodes() as NodeId;
        for u in 0..n {
            for v in 0..n {
                let ps = perfectly_symmetrizable(&t, u, v);
                // Symmetric relation.
                prop_assert_eq!(ps, perfectly_symmetrizable(&t, v, u));
                if u != v {
                    // Matches the constructive witness exactly.
                    prop_assert_eq!(ps, symmetrization_witness(&t, u, v).is_some());
                }
            }
        }
    }

    #[test]
    fn explo_reconstructs_the_contraction(t in arb_tree(40)) {
        let start = (0..t.num_nodes() as NodeId).find(|&v| t.degree(v) != 2).unwrap();
        let mut e = ExploBis::new();
        let mut cur = Cursor::new(start);
        let mut rounds = 0u64;
        loop {
            match e.step(cur.obs(&t)) {
                Step::Done => break,
                Step::Move(p) => { cur.apply(&t, Action::Move(p)); rounds += 1; }
                Step::Stay => { rounds += 1; }
            }
            prop_assert!(rounds < 1_000_000);
        }
        prop_assert_eq!(cur.node, start);
        prop_assert_eq!(rounds, 2 * (t.num_nodes() as u64 - 1));
        let res = e.into_result().unwrap();
        let ground = contract(&t);
        prop_assert_eq!(res.nu as usize, ground.tree.num_nodes());
        let root = ground.t_to_tp[start as usize].unwrap();
        prop_assert_eq!(
            canon_ports(&res.tprime, 0, None, None),
            canon_ports(&ground.tree, root, None, None)
        );
    }

    #[test]
    fn canonical_ranks_pair_exactly_under_the_flip(t in arb_tree(20)) {
        use tree_rendezvous::trees::canon::canonical_ranks;
        use tree_rendezvous::trees::symmetry::port_preserving_flip;
        let ranks = canonical_ranks(&t);
        let flip = port_preserving_flip(&t);
        let n = t.num_nodes() as NodeId;
        for u in 0..n {
            for v in (u + 1)..n {
                let same = ranks[u as usize] == ranks[v as usize];
                let flipped = flip
                    .as_ref()
                    .map(|f| f[u as usize] == v)
                    .unwrap_or(false);
                prop_assert_eq!(
                    same, flipped,
                    "ranks collide iff the flip exchanges the nodes ({}, {})", u, v
                );
            }
        }
    }

    #[test]
    fn infinite_line_parities_are_mirrors(k in 1usize..8, seed in any::<u64>()) {
        use tree_rendezvous::lowerbounds::infinite_line::InfiniteRun;
        let mut rng = StdRng::seed_from_u64(seed);
        let fsa = LineFsa::random(k, 0.3, &mut rng);
        let run0: Vec<i64> =
            InfiniteRun::new(&fsa, 0).take(300).map(|a| a.pos).collect();
        let run1: Vec<i64> =
            InfiniteRun::new(&fsa, 1).take(300).map(|a| a.pos).collect();
        for (p0, p1) in run0.iter().zip(run1.iter()) {
            prop_assert_eq!(*p0, -*p1, "parity-1 trajectory mirrors parity-0");
        }
    }

    #[test]
    fn parity_lemma_holds_for_random_automata(
        k in 1usize..6,
        seed in any::<u64>(),
        gap in 0u32..4,
    ) {
        // Lemma 4.4: two identical agents at odd initial distance; if after
        // t rounds their stay-counts differ by an even number, they are at
        // odd distance (in particular, not co-located).
        let mut rng = StdRng::seed_from_u64(seed);
        let fsa = LineFsa::random(k, 0.3, &mut rng);
        let line = tree_rendezvous::trees::generators::colored_line(40, 0);
        let (a0, b0) = (10u32, 10 + 2 * gap + 1); // odd distance
        let mut x = fsa.runner();
        let mut y = fsa.runner();
        let mut ca = Cursor::new(a0);
        let mut cb = Cursor::new(b0);
        let (mut stays_a, mut stays_b) = (0i64, 0i64);
        for _ in 0..400 {
            let act_a = x.act(ca.obs(&line));
            let act_b = y.act(cb.obs(&line));
            if !ca.apply(&line, act_a) { stays_a += 1; }
            if !cb.apply(&line, act_b) { stays_b += 1; }
            let dist = (ca.node as i64 - cb.node as i64).abs();
            if (stays_a - stays_b) % 2 == 0 {
                prop_assert_eq!(dist % 2, 1, "Parity Lemma violated");
            }
        }
    }

    #[test]
    fn trace_replay_matches_direct_stepping(
        t in arb_tree(14),
        a in 0u32..14,
        b in 0u32..14,
        delay in 0u64..40,
        variant in 0usize..4,
    ) {
        // ISSUE 3 differential: `replay_pair` over recorded trajectories
        // must reproduce `run_pair` exactly — outcome, meeting round,
        // crossing count, final cursors and traces — for every agent
        // variant, delay and start pair. Trees are random (lines for the
        // paths-only `prime` protocol).
        use tree_rendezvous::core::prime_path::PrimePathAgent;
        use tree_rendezvous::core::{DelayRobustAgent, TreeRendezvousAgent};
        use tree_rendezvous::sim::trace::Replay;
        use tree_rendezvous::sim::{replay_pair, run_pair, PairConfig, TraceRecorder};

        let t = if variant == 2 {
            // prime runs on paths; reuse the random size for a line.
            tree_rendezvous::trees::generators::line(t.num_nodes().max(2))
        } else {
            t
        };
        let n = t.num_nodes() as u32;
        let (a, b) = (a % n, b % n);
        let budget = 20_000u64;
        let cfg = PairConfig { delay, max_rounds: budget, record_traces: true };

        // Record both trajectories with the same meter the stepping run
        // reports, then replay; extend on demand exactly like the sweep
        // executor does.
        macro_rules! diff {
            ($mk:expr, $bits:expr) => {{
                let mut rec_a = TraceRecorder::new(a, $mk, $bits);
                let mut rec_b = TraceRecorder::new(b, $mk, $bits);
                let replayed = loop {
                    match replay_pair(&t, rec_a.trajectory(), rec_b.trajectory(), cfg) {
                        Replay::Decided(run) => break run,
                        Replay::NeedMore { a_rounds, b_rounds } => {
                            rec_a.record_to(&t, a_rounds.max(2 * rec_a.trajectory().rounds()));
                            rec_b.record_to(&t, b_rounds.max(2 * rec_b.trajectory().rounds()));
                        }
                    }
                };
                let mut x = $mk;
                let mut y = $mk;
                let direct = run_pair(&t, a, b, &mut x, &mut y, cfg);
                prop_assert_eq!(&replayed.outcome, &direct.outcome);
                prop_assert_eq!(replayed.crossings, direct.crossings);
                prop_assert_eq!(replayed.final_a, direct.final_a);
                prop_assert_eq!(replayed.final_b, direct.final_b);
                prop_assert_eq!(&replayed.trace_a, &direct.trace_a);
                prop_assert_eq!(&replayed.trace_b, &direct.trace_b);
                // The recorded meter marks must reproduce the stepping
                // meters at the run's end (what SweepRow reports).
                let acts_a = direct.outcome.round().unwrap_or(budget);
                let acts_b = acts_a.saturating_sub(delay);
                let bits_fn: fn(&_) -> u64 = $bits;
                prop_assert_eq!(rec_a.trajectory().bits_at(acts_a), bits_fn(&x));
                prop_assert_eq!(rec_b.trajectory().bits_at(acts_b), bits_fn(&y));
            }};
        }
        match variant {
            0 => diff!(TreeRendezvousAgent::new(), TreeRendezvousAgent::memory_bits_measured),
            1 => diff!(DelayRobustAgent::new(), DelayRobustAgent::memory_bits_measured),
            2 => diff!(PrimePathAgent::unbounded(), Agent::memory_bits),
            _ => {
                let fsa = tree_rendezvous::agent::Fsa::basic_walk(
                    t.max_degree().max(1),
                );
                diff!(fsa.runner_owned(), Agent::memory_bits)
            }
        }
    }

    #[test]
    fn exact_decider_agrees_with_stepping_and_replay(
        t in arb_tree(12),
        a in 0u32..12,
        b in 0u32..12,
        delay in 0u64..30,
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        // ISSUE 4 differential: the budget-free decider vs the two bounded
        // executors, on the basic-walk automaton (whose budget is an exact
        // decision horizon — replay timeout ⟺ certified never-meets) and
        // on arbitrary random automata (agreement wherever the bounded run
        // decides). Any mismatch in meeting round, timeout status or
        // crossing count fails.
        use tree_rendezvous::agent::Fsa;
        use tree_rendezvous::lowerbounds::decide::{decide_pair, verify_lasso};
        use tree_rendezvous::sim::trace::Replay;
        use tree_rendezvous::sim::{replay_pair, run_pair, PairConfig, TraceRecorder};

        let n = t.num_nodes() as u32;
        let (a, b) = (a % n, b % n);
        let max_degree = t.max_degree().max(1);
        for (horizon_exact, fsa) in [
            (true, Fsa::basic_walk(max_degree)),
            (false, Fsa::random(k, max_degree, 0.25, &mut StdRng::seed_from_u64(seed))),
        ] {
            let budget = delay + 8 * n as u64 + 8;
            let cfg = PairConfig { delay, max_rounds: budget, record_traces: false };

            let decision = decide_pair(&t, &fsa, a, b, delay);
            if let Some(lasso) = decision.lasso() {
                prop_assert!(verify_lasso(&t, &fsa, a, b, delay, lasso));
            }

            // Stepping.
            let mut x = fsa.runner();
            let mut y = fsa.runner();
            let direct = run_pair(&t, a, b, &mut x, &mut y, cfg);

            // Replay over recorded trajectories.
            let mut rec_a = TraceRecorder::new(a, fsa.runner_owned(), Agent::memory_bits);
            let mut rec_b = TraceRecorder::new(b, fsa.runner_owned(), Agent::memory_bits);
            let replayed = loop {
                match replay_pair(&t, rec_a.trajectory(), rec_b.trajectory(), cfg) {
                    Replay::Decided(run) => break run,
                    Replay::NeedMore { a_rounds, b_rounds } => {
                        rec_a.record_to(&t, a_rounds.max(2 * rec_a.trajectory().rounds()));
                        rec_b.record_to(&t, b_rounds.max(2 * rec_b.trajectory().rounds()));
                    }
                }
            };
            prop_assert_eq!(&replayed.outcome, &direct.outcome);
            prop_assert_eq!(replayed.crossings, direct.crossings);

            match direct.outcome {
                tree_rendezvous::sim::Outcome::Met { round, .. } => {
                    prop_assert_eq!(decision.round(), Some(round));
                    prop_assert_eq!(decision.crossings_within(round), direct.crossings);
                }
                tree_rendezvous::sim::Outcome::Timeout { .. } => {
                    // The decider may know a meeting beyond the bounded
                    // budget for arbitrary automata; for the basic walk the
                    // budget is a decision horizon, so timeout must mean a
                    // certified never-meets.
                    if horizon_exact {
                        prop_assert!(!decision.met(), "bw timeout must be a certified refusal");
                    }
                    if !decision.met() {
                        prop_assert_eq!(
                            decision.crossings_within(budget),
                            direct.crossings,
                            "closed-form crossing count diverged at the budget"
                        );
                    } else {
                        prop_assert!(decision.round().unwrap() > budget);
                    }
                }
            }
        }
    }

    #[test]
    fn start_delay_schedules_are_the_legacy_delay_path(
        t in arb_tree(12),
        a in 0u32..12,
        b in 0u32..12,
        theta in 0u64..40,
    ) {
        // The two-lane start-delay schedule θ must reproduce the compact
        // `PairConfig::delayed(θ)` path bit for bit — stepping, replay, and
        // the decider.
        use tree_rendezvous::agent::Fsa;
        use tree_rendezvous::lowerbounds::decide::{decide_pair, decide_pair_scheduled};
        use tree_rendezvous::sim::trace::Replay;
        use tree_rendezvous::sim::{
            replay_ensemble, replay_pair, run_ensemble_fsa, run_pair, EnsembleReplay,
            EnsembleSchedule, PairConfig, TraceRecorder,
        };

        let n = t.num_nodes() as u32;
        let (a, b) = (a % n, b % n);
        let fsa = Fsa::basic_walk(t.max_degree().max(1));
        let budget = theta + 8 * n as u64 + 8;
        let sched = EnsembleSchedule::start_delays(&[0, theta]);
        let cfg = PairConfig { delay: theta, max_rounds: budget, record_traces: true };

        // Stepping.
        let mut x = fsa.runner();
        let mut y = fsa.runner();
        let legacy = run_pair(&t, a, b, &mut x, &mut y, cfg);
        let mut agents = [fsa.runner(), fsa.runner()];
        let scheduled = run_ensemble_fsa(&t, &[a, b], &mut agents, &sched, budget, true);
        let traces = scheduled.traces.as_ref().expect("recorded");
        prop_assert_eq!(&scheduled.outcome, &legacy.outcome);
        prop_assert_eq!(scheduled.crossings, legacy.crossings);
        prop_assert_eq!(scheduled.finals[0], legacy.final_a);
        prop_assert_eq!(scheduled.finals[1], legacy.final_b);
        prop_assert_eq!(Some(&traces[0]), legacy.trace_a.as_ref());
        prop_assert_eq!(Some(&traces[1]), legacy.trace_b.as_ref());

        // Replay over the same recordings.
        let mut rec_a = TraceRecorder::new(a, fsa.runner_owned(), Agent::memory_bits);
        let mut rec_b = TraceRecorder::new(b, fsa.runner_owned(), Agent::memory_bits);
        rec_a.record_to(&t, budget);
        rec_b.record_to(&t, budget);
        let trajs = [rec_a.trajectory(), rec_b.trajectory()];
        let legacy_replay = replay_pair(&t, trajs[0], trajs[1], cfg);
        let sched_replay = replay_ensemble(&t, &trajs, &sched.indices(), budget, true);
        match (legacy_replay, sched_replay) {
            (Replay::Decided(l), EnsembleReplay::Decided(s)) => {
                let traces = s.traces.as_ref().expect("recorded");
                prop_assert_eq!(&s.outcome, &l.outcome);
                prop_assert_eq!(s.crossings, l.crossings);
                prop_assert_eq!(s.finals[0], l.final_a);
                prop_assert_eq!(s.finals[1], l.final_b);
                prop_assert_eq!(Some(&traces[0]), l.trace_a.as_ref());
                prop_assert_eq!(Some(&traces[1]), l.trace_b.as_ref());
            }
            (l, s) => prop_assert!(false, "full recordings must decide: {:?} vs {:?}", l, s),
        }

        // Decider.
        if a != b {
            let fixed = decide_pair(&t, &fsa, a, b, theta);
            let sched_decision = decide_pair_scheduled(&t, &fsa, a, b, &sched);
            prop_assert_eq!(fixed.round(), sched_decision.round());
            if !fixed.met() {
                prop_assert_eq!(
                    fixed.crossings_within(budget),
                    sched_decision.crossings_within(budget)
                );
            }
        }
    }

    #[test]
    fn scheduled_engines_agree_on_random_schedules(
        t in arb_tree(8),
        a in 0u32..8,
        b in 0u32..8,
        shape in 0usize..4,
        param in 0u64..6,
    ) {
        // ISSUE 5 satellite: stepping, trace replay and the cycle-position
        // decider must agree on intermittent/crash/adversarial schedules
        // for random trees n ≤ 8 (the bw schedule budget is a decision
        // horizon, so a bounded timeout ⟺ a certified never-meets).
        use tree_rendezvous::agent::Fsa;
        use tree_rendezvous::lowerbounds::decide::{
            decide_pair_scheduled, verify_schedule_lasso,
        };
        use tree_rendezvous::sim::{
            replay_ensemble, run_ensemble_fsa, EnsembleReplay, EnsembleSchedule, TraceRecorder,
        };

        let n = t.num_nodes() as u32;
        let (a, b) = (a % n, b % n);
        let sched = match shape {
            0 => EnsembleSchedule::intermittent_last(2, 2 + param % 3, param % 2),
            1 => EnsembleSchedule::crash_last_after(2, param),
            2 => EnsembleSchedule::new(
                2,
                Vec::new(),
                (0..=param).map(|i| vec![i == 0; 2]).collect(),
            ),
            _ => EnsembleSchedule::adversarial(param, 6, 4),
        };
        let fsa = Fsa::basic_walk(t.max_degree().max(1));
        // The exact schedule decision horizon for the basic walk.
        let budget = sched.prefix_len()
            + sched.cycle_len() * (4 * (t.num_nodes() as u64 - 1) + 2);

        let mut agents = [fsa.runner(), fsa.runner()];
        let direct = run_ensemble_fsa(&t, &[a, b], &mut agents, &sched, budget, false);

        let mut rec_a = TraceRecorder::new(a, fsa.runner_owned(), Agent::memory_bits);
        let mut rec_b = TraceRecorder::new(b, fsa.runner_owned(), Agent::memory_bits);
        let indices = sched.indices();
        let replayed = loop {
            let trajs = [rec_a.trajectory(), rec_b.trajectory()];
            match replay_ensemble(&t, &trajs, &indices, budget, false) {
                EnsembleReplay::Decided(run) => break run,
                EnsembleReplay::NeedMore { rounds } => {
                    rec_a.record_to(&t, rounds[0].max(2 * rec_a.trajectory().rounds()));
                    rec_b.record_to(&t, rounds[1].max(2 * rec_b.trajectory().rounds()));
                }
            }
        };
        prop_assert_eq!(&replayed.outcome, &direct.outcome);
        prop_assert_eq!(replayed.crossings, direct.crossings);

        let decision = decide_pair_scheduled(&t, &fsa, a, b, &sched);
        match direct.outcome {
            tree_rendezvous::sim::Outcome::Met { round, .. } => {
                prop_assert_eq!(decision.round(), Some(round));
                prop_assert_eq!(decision.crossings_within(round), direct.crossings);
            }
            tree_rendezvous::sim::Outcome::Timeout { .. } => {
                prop_assert!(
                    !decision.met(),
                    "bw schedule budget must be a decision horizon"
                );
                let lasso = decision.lasso().expect("never-meets carries a lasso");
                prop_assert!(verify_schedule_lasso(&t, &fsa, a, b, &sched, lasso));
                prop_assert_eq!(decision.crossings_within(budget), direct.crossings);
            }
        }
    }

    #[test]
    fn budget_arithmetic_saturates_on_extreme_inputs(
        n in any::<usize>(),
        delay in any::<u64>(),
    ) {
        // ISSUE 5 satellite: the budget formulas must never panic —
        // extreme delays and sizes clamp to u64::MAX instead of
        // overflowing in debug builds.
        use rvz_bench::sweep::{basic_walk_budget_for, budget_for};
        let b = basic_walk_budget_for(n, delay);
        prop_assert!(b >= delay.min(u64::MAX - 1), "budget covers the delay (or saturates)");
        let g = budget_for(n);
        prop_assert!(g >= 2_000_000u64.min(g));
    }

    #[test]
    fn prime_protocol_meets_when_feasible(
        m in 4usize..24,
        a in 1usize..24,
        b in 1usize..24,
        dirs in (0u32..2, 0u32..2),
    ) {
        use tree_rendezvous::core::prime_path::PrimePathAgent;
        use tree_rendezvous::sim::{run_pair, PairConfig};
        let (a, b) = (a % m + 1, b % m + 1);
        prop_assume!(a < b);
        let feasible = m % 2 == 1 || (a - 1) != (m - b);
        prop_assume!(feasible);
        let t = tree_rendezvous::trees::generators::line(m);
        let mut x = PrimePathAgent::with_start_port(dirs.0);
        let mut y = PrimePathAgent::with_start_port(dirs.1);
        let run = run_pair(
            &t,
            (a - 1) as u32,
            (b - 1) as u32,
            &mut x,
            &mut y,
            PairConfig::simultaneous(2_000_000),
        );
        prop_assert!(run.outcome.met(), "m={} a={} b={}", m, a, b);
    }
}

proptest! {
    // Each case runs three full sweeps (one per executor), so the case
    // count stays small; the grid axes still cover every variant, four
    // tree families and five delay-axis shapes.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fixed_executors_agree_on_random_grids(
        family in 0usize..4,
        size in 4usize..9,
        delay_shape in 0usize..5,
        param in 0u64..4,
        seed in any::<u64>(),
    ) {
        // On random small grids — tree family × size × delay axis (θ,
        // linear, schedules, the ∀-delay quantifier) × every agent variant
        // — replay, stepping and decide must emit the same rows, modulo
        // the decider's `certified` flag.
        use rvz_bench::sweep::{self, Delay, Executor, Family, ScheduleSpec, Variant};

        let family =
            [Family::Line, Family::Spider3, Family::Random, Family::CompleteBinary][family];
        let delays = match delay_shape {
            0 => vec![Delay::Zero, Delay::Fixed(param)],
            1 => vec![Delay::Fixed(param), Delay::LinearN],
            2 => vec![
                Delay::Schedule(ScheduleSpec::Intermittent {
                    period: 2 + param % 3,
                    phase: param % 2,
                }),
                Delay::Fixed(param),
            ],
            3 => vec![
                Delay::Schedule(ScheduleSpec::Lockstep { period: 2 + param % 2 }),
                Delay::Schedule(ScheduleSpec::CrashAfter(param)),
            ],
            _ => vec![Delay::Adversarial, Delay::Zero],
        };
        let spec = |executor| sweep::SweepSpec {
            experiment: "executor-prop",
            families: vec![family],
            sizes: vec![size],
            delays: delays.clone(),
            variants: vec![
                Variant::TreeRvz,
                Variant::DelayRobust,
                Variant::PrimePath,
                Variant::BasicWalkFsa,
            ],
            pairs_per_cell: 2,
            seed,
            threads: 1,
            executor,
            agents: 2,
        };
        let strip = |rows: &[sweep::SweepRow]| {
            let mut rows = rows.to_vec();
            for r in &mut rows {
                r.certified = false;
            }
            serde_json::to_string(&rows).expect("serialize")
        };

        let replay = sweep::run(&spec(Executor::TraceReplay));
        prop_assert!(!replay.rows.is_empty(), "the grid filter emptied the spec");
        let reference = strip(&replay.rows);
        for executor in [Executor::DynStepping, Executor::ExactDecide] {
            let other = sweep::run(&spec(executor));
            prop_assert_eq!(
                &reference,
                &strip(&other.rows),
                "{:?} diverged from replay",
                executor
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streamed_rows_and_certificates_match_their_value_tree(
        mask in any::<u16>(),
        seed in any::<u64>(),
    ) {
        // The derive's direct `write_json` and the `Value` tree its
        // `to_json_value` builds must render to the same bytes, with
        // every optional field present or absent (one mask bit each) and
        // labels that need escaping.
        use rand::{Rng, RngCore};
        use rvz_bench::sweep::{Certificate, Planned, SweepRow};
        use serde_json::{to_string, to_string_pretty, to_value};

        const LABELS: [&str; 5] =
            ["line", "intermittent(2,0)", "quote\" back\\slash", "tab\tnl\n\u{1}", "θ ∀ é 😀"];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut label = || LABELS[rng.gen_range(0..LABELS.len())];
        let bit = |i: u32| mask >> i & 1 == 1;
        let mut rng = StdRng::seed_from_u64(!seed);
        let mut num = || rng.next_u64() >> rng.gen_range(0..64u32);
        let row = SweepRow {
            experiment: label(),
            family: label(),
            size: num() as usize,
            n: num() as usize,
            leaves: num() as usize,
            variant: label(),
            delay: num(),
            schedule: bit(0).then(|| label().to_string()),
            start_a: num() as u32,
            start_b: num() as u32,
            met: bit(1),
            rounds: bit(2).then(&mut num),
            crossings: num(),
            budget: num(),
            provisioned_bits: num(),
            measured_bits: num(),
            tree_seed: num(),
            pairs_seed: num(),
            cell_seed: u64::MAX,
            certified: bit(3),
            timed_out: bit(4).then_some(bit(5)),
            poisoned: bit(6).then_some(bit(7)),
            planned: bit(8).then(|| Planned { choice: label().into(), predicted: num(), actual: 0 }),
            agents: bit(9).then(|| num() as usize),
            start_rest: bit(10).then(|| (0..num() % 4).map(|v| v as u32).collect()),
        };
        let certificate = Certificate {
            experiment: row.experiment,
            family: row.family,
            size: row.size,
            n: row.n,
            tree_seed: row.tree_seed,
            variant: row.variant,
            start_a: row.start_a,
            start_b: row.start_b,
            verdict: row.family,
            schedule: row.schedule.clone(),
            delay: row.delay,
            round: row.rounds,
            delays_checked: bit(11).then_some(row.crossings),
            lasso_stem: bit(12).then_some(row.budget),
            lasso_period: bit(13).then_some(row.pairs_seed),
            verified: bit(14).then_some(bit(15)),
            agents: row.agents,
            start_rest: row.start_rest.clone(),
        };
        prop_assert_eq!(to_string(&row).unwrap(), to_string(&to_value(&row)).unwrap());
        prop_assert_eq!(
            to_string(&certificate).unwrap(),
            to_string(&to_value(&certificate)).unwrap()
        );
        // Pretty output nested one level down, as in the report files.
        let rows = [&row, &row];
        prop_assert_eq!(
            to_string_pretty(&rows).unwrap(),
            to_string_pretty(&to_value(&rows)).unwrap()
        );
        let certificates = [&certificate];
        prop_assert_eq!(
            to_string_pretty(&certificates).unwrap(),
            to_string_pretty(&to_value(&certificates)).unwrap()
        );
    }
}

#[test]
fn perfectly_symmetrizable_requires_central_edge_halves() {
    // Deterministic companion to the proptest: the classical examples.
    use tree_rendezvous::trees::generators::{complete_binary, line};
    assert!(!perfectly_symmetrizable(&line(9), 0, 8));
    assert!(perfectly_symmetrizable(&line(10), 0, 9));
    let cb = complete_binary(2);
    for u in 0..cb.num_nodes() as NodeId {
        for v in 0..cb.num_nodes() as NodeId {
            if u != v {
                assert!(!perfectly_symmetrizable(&cb, u, v));
            }
        }
    }
}
