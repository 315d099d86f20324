//! Single-agent and k-agent ensemble synchronous execution.
//!
//! Every multi-agent entry point — the classic [`run_pair`] and the
//! k-agent [`run_ensemble`] family — is a thin wrapper over ONE k-lane
//! round loop, [`run_ensemble_with`]. A pair is its `k = 2` case, and
//! gathering (all `k` co-located at a round boundary) is rendezvous at
//! `k = 2`.

use crate::schedule::EnsembleSchedule;
use rvz_agent::model::{Action, Agent, Obs};
use rvz_trees::{NodeId, Port, Tree};

/// An agent's physical situation: its node and the port by which it entered
/// (``None`` after a null move or before the first move).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    pub node: NodeId,
    pub entry: Option<Port>,
}

impl Cursor {
    pub fn new(node: NodeId) -> Self {
        Cursor { node, entry: None }
    }

    /// The observation the agent receives this round.
    #[inline]
    pub fn obs(&self, t: &Tree) -> Obs {
        Obs { entry: self.entry, degree: t.degree(self.node) }
    }

    /// Applies an action; returns `true` if the agent moved.
    #[inline]
    pub fn apply(&mut self, t: &Tree, action: Action) -> bool {
        match action.port(t.degree(self.node)) {
            None => {
                self.entry = None;
                false
            }
            Some(p) => {
                let next = t.neighbor(self.node, p);
                self.entry = Some(t.entry_port(self.node, p));
                self.node = next;
                true
            }
        }
    }
}

/// Result of a bounded single-agent run.
#[derive(Debug, Clone)]
pub struct SingleRun {
    pub cursor: Cursor,
    pub rounds: u64,
    /// Node occupied after every round (index 0 = start, before any action),
    /// when recording was requested.
    pub trace: Option<Vec<NodeId>>,
}

/// Runs one agent for exactly `rounds` rounds (or until it would act from an
/// isolated node, which cannot happen on trees with `n ≥ 2`).
///
/// Generic over the agent, so concrete callers get a monomorphized loop
/// (static dispatch); `&mut dyn Agent` callers keep working unchanged.
pub fn run_single<A: Agent + ?Sized>(
    t: &Tree,
    start: NodeId,
    agent: &mut A,
    rounds: u64,
    record: bool,
) -> SingleRun {
    let mut cur = Cursor::new(start);
    let mut trace = record.then(|| {
        let mut v = Vec::with_capacity(rounds as usize + 1);
        v.push(start);
        v
    });
    for _ in 0..rounds {
        let action = agent.act(cur.obs(t));
        cur.apply(t, action);
        if let Some(tr) = trace.as_mut() {
            tr.push(cur.node);
        }
    }
    SingleRun { cursor: cur, rounds, trace }
}

/// Outcome of a two-agent run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The agents occupied the same node at the end of `round`
    /// (`round == 0` means the initial positions coincided).
    Met { round: u64, node: NodeId },
    /// No meeting within the round budget.
    Timeout { rounds: u64 },
}

impl Outcome {
    pub fn met(&self) -> bool {
        matches!(self, Outcome::Met { .. })
    }

    /// The meeting round, if any.
    pub fn round(&self) -> Option<u64> {
        match self {
            Outcome::Met { round, .. } => Some(*round),
            Outcome::Timeout { .. } => None,
        }
    }
}

/// Configuration of a two-agent run.
#[derive(Debug, Clone, Copy)]
pub struct PairConfig {
    /// Agent B starts `delay` rounds after agent A (the adversary's θ; 0 =
    /// simultaneous start). While unstarted, B sits at its initial node and
    /// can be met there.
    pub delay: u64,
    /// Round budget.
    pub max_rounds: u64,
    /// Record per-round node traces (memory-heavy; tests only).
    pub record_traces: bool,
}

impl PairConfig {
    pub fn simultaneous(max_rounds: u64) -> Self {
        PairConfig { delay: 0, max_rounds, record_traces: false }
    }

    pub fn delayed(delay: u64, max_rounds: u64) -> Self {
        PairConfig { delay, max_rounds, record_traces: false }
    }
}

/// Result of a two-agent run.
#[derive(Debug, Clone)]
pub struct PairRun {
    pub outcome: Outcome,
    /// Number of rounds in which the agents swapped endpoints of one edge
    /// (crossed inside it). Key instrumentation for the parity arguments of
    /// §4.2 (crossing ⇒ no meeting that round).
    pub crossings: u64,
    pub final_a: Cursor,
    pub final_b: Cursor,
    pub trace_a: Option<Vec<NodeId>>,
    pub trace_b: Option<Vec<NodeId>>,
}

/// Runs two agents with the given start delay until they meet or the budget
/// runs out. Both agents receive observations and move simultaneously within
/// a round; meeting is co-location at a round boundary.
///
/// The classic two-agent API over the k-lane loop: lane 0 is agent A,
/// lane 1 is agent B, and B is frozen through round `cfg.delay`. Agents
/// are stepped through `dyn Agent` — one loop instantiation serves every
/// agent type, which on basic-walk automata is also the faster dispatch
/// (see `docs/architecture.md`).
pub fn run_pair(
    t: &Tree,
    start_a: NodeId,
    start_b: NodeId,
    agent_a: &mut dyn Agent,
    agent_b: &mut dyn Agent,
    cfg: PairConfig,
) -> PairRun {
    let mut run = run_ensemble_with(
        t,
        &[start_a, start_b],
        |lane, obs| if lane == 0 { agent_a.act(obs) } else { agent_b.act(obs) },
        |round, lane| lane == 0 || round > cfg.delay,
        cfg.max_rounds,
        cfg.record_traces,
    );
    let trace_b = run.traces.as_mut().map(|tr| tr.pop().expect("lane B trace"));
    let trace_a = run.traces.as_mut().map(|tr| tr.pop().expect("lane A trace"));
    PairRun {
        outcome: run.outcome,
        crossings: run.crossings,
        final_a: run.finals[0],
        final_b: run.finals[1],
        trace_a,
        trace_b,
    }
}

/// Row-major upper-triangle index of the unordered pair `(i, j)`,
/// `i < j`, among `k` agents — the layout of
/// [`EnsembleRun::pair_meetings`].
pub fn pair_index(k: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < k);
    i * (2 * k - i - 1) / 2 + (j - i - 1)
}

/// Result of a k-agent ensemble run.
///
/// `outcome` is the *gathering* verdict: [`Outcome::Met`] means all `k`
/// agents were co-located at a round boundary (at `k = 2` this is
/// exactly rendezvous). Pairwise first-meeting rounds are reported
/// separately — a pair can meet without the ensemble ever gathering.
#[derive(Debug, Clone)]
pub struct EnsembleRun {
    pub outcome: Outcome,
    /// Number of `(round, pair)` events in which two agents swapped the
    /// endpoints of one edge without co-locating. At `k = 2` this is the
    /// pair run's crossing count.
    pub crossings: u64,
    /// Final cursor of each lane, in lane order.
    pub finals: Vec<Cursor>,
    /// Per-lane node traces (index 0 = start), when recording was
    /// requested.
    pub traces: Option<Vec<Vec<NodeId>>>,
    /// Round at which each unordered pair `(i, j)`, `i < j`, first
    /// co-located (round 0 = identical starts), in [`pair_index`]
    /// layout; `None` if that pair never met.
    pub pair_meetings: Vec<Option<u64>>,
}

/// Runs `k` boxed agents under an ensemble schedule. Convenience wrapper
/// over [`run_ensemble_with`] for heterogeneous agent banks.
///
/// Frozen semantics: an agent whose flag is off for a round neither
/// observes nor acts — its cursor (node *and* entry port) is untouched,
/// so its k-th activation sees exactly what it would see in an
/// uninterrupted run. [`EnsembleSchedule::start_delays`]`(&[0, θ])`
/// therefore reproduces [`run_pair`] with `cfg.delay = θ` bit for bit.
///
/// Budget semantics (the one definition every engine shares):
/// `max_rounds` counts **global rounds**, not activations — a frozen
/// round burns budget exactly like an active one, and a lane delayed by
/// θ is activated `max_rounds − θ` times within the budget. This is the
/// `run_pair` definition; the retired `sim::multi` API measured the same
/// quantity, and [`run_ensemble`] now pins it for every `k`.
pub fn run_ensemble(
    t: &Tree,
    starts: &[NodeId],
    agents: &mut [Box<dyn Agent>],
    schedule: &EnsembleSchedule,
    max_rounds: u64,
    record_traces: bool,
) -> EnsembleRun {
    assert_eq!(agents.len(), starts.len(), "one agent per start");
    run_ensemble_with(
        t,
        starts,
        |lane, obs| agents[lane].act(obs),
        activation(schedule, starts.len()),
        max_rounds,
        record_traces,
    )
}

/// Runs a homogeneous ensemble (`k` agents of one concrete type) under a
/// schedule — a statically dispatched round loop.
pub fn run_ensemble_fsa<A: Agent>(
    t: &Tree,
    starts: &[NodeId],
    agents: &mut [A],
    schedule: &EnsembleSchedule,
    max_rounds: u64,
    record_traces: bool,
) -> EnsembleRun {
    assert_eq!(agents.len(), starts.len(), "one agent per start");
    run_ensemble_with(
        t,
        starts,
        |lane, obs| agents[lane].act(obs),
        activation(schedule, starts.len()),
        max_rounds,
        record_traces,
    )
}

/// The activation rule of `schedule` over exactly `lanes` lanes.
fn activation(schedule: &EnsembleSchedule, lanes: usize) -> impl Fn(u64, usize) -> bool + '_ {
    assert_eq!(schedule.lanes(), lanes, "the schedule must cover exactly the ensemble's lanes");
    move |round, lane| schedule.active(round)[lane]
}

/// THE k-lane round loop — the only stepping loop in the simulator.
/// `act(lane, obs)` steps one agent; `active(round, lane)` is the
/// adversary's activation rule (rounds are 1-based; lanes are queried in
/// order within a round), so a start delay θ is the rule `round > θ` and
/// never needs a materialized schedule. Gathering / meeting is
/// co-location at a round boundary; crossings (edge-endpoint swaps) never
/// count as meetings. See [`run_ensemble`] for the budget semantics.
///
/// Inlined into its caller, so a caller's constants (no traces, a
/// two-element `starts` array) fold into the loop; instantiated in another
/// crate without that, the loop ran about a third slower on pairs.
#[inline]
pub fn run_ensemble_with(
    t: &Tree,
    starts: &[NodeId],
    mut act: impl FnMut(usize, Obs) -> Action,
    mut active: impl FnMut(u64, usize) -> bool,
    max_rounds: u64,
    record_traces: bool,
) -> EnsembleRun {
    let k = starts.len();
    assert!(k >= 2, "an ensemble needs at least two agents");
    let mut cursors: Vec<Cursor> = starts.iter().map(|&s| Cursor::new(s)).collect();
    let mut prev: Vec<NodeId> = starts.to_vec();
    let mut crossings = 0u64;
    let mut traces = record_traces.then(|| starts.iter().map(|&s| vec![s]).collect::<Vec<_>>());
    let mut pair_meetings: Vec<Option<u64>> = vec![None; k * (k - 1) / 2];

    // Records first co-locations for this round and answers whether the
    // whole ensemble is gathered.
    let check = |cursors: &[Cursor], round: u64, pair_meetings: &mut [Option<u64>]| {
        let mut all = true;
        for i in 0..k {
            for j in (i + 1)..k {
                if cursors[i].node == cursors[j].node {
                    pair_meetings[pair_index(k, i, j)].get_or_insert(round);
                } else {
                    all = false;
                }
            }
        }
        all
    };

    let finish = |outcome: Outcome,
                  cursors: Vec<Cursor>,
                  crossings: u64,
                  traces: Option<Vec<Vec<NodeId>>>,
                  pair_meetings: Vec<Option<u64>>| EnsembleRun {
        outcome,
        crossings,
        finals: cursors,
        traces,
        pair_meetings,
    };

    if check(&cursors, 0, &mut pair_meetings) {
        let node = cursors[0].node;
        return finish(Outcome::Met { round: 0, node }, cursors, 0, traces, pair_meetings);
    }

    for round in 1..=max_rounds {
        if round & 0xFFF == 0 {
            crate::cancel::checkpoint();
        }
        for (i, cur) in cursors.iter().enumerate() {
            prev[i] = cur.node;
        }
        for i in 0..k {
            if active(round, i) {
                let action = act(i, cursors[i].obs(t));
                cursors[i].apply(t, action);
            }
        }
        if let Some(trs) = traces.as_mut() {
            for (tr, cur) in trs.iter_mut().zip(&cursors) {
                tr.push(cur.node);
            }
        }
        for i in 0..k {
            for j in (i + 1)..k {
                if cursors[i].node == prev[j]
                    && cursors[j].node == prev[i]
                    && cursors[i].node != cursors[j].node
                {
                    crossings += 1;
                }
            }
        }
        if check(&cursors, round, &mut pair_meetings) {
            let node = cursors[0].node;
            return finish(Outcome::Met { round, node }, cursors, crossings, traces, pair_meetings);
        }
    }
    finish(Outcome::Timeout { rounds: max_rounds }, cursors, crossings, traces, pair_meetings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_agent::model::bw_exit;
    use rvz_trees::generators::{colored_line, line, star};

    /// Plain basic-walk agent (procedural).
    #[derive(Clone, Default)]
    struct BasicWalker;

    impl Agent for BasicWalker {
        fn act(&mut self, obs: Obs) -> Action {
            Action::Move(bw_exit(obs.entry, obs.degree))
        }
        fn memory_bits(&self) -> u64 {
            0
        }
    }

    /// Never moves.
    #[derive(Clone, Default)]
    struct Sitter;

    impl Agent for Sitter {
        fn act(&mut self, _obs: Obs) -> Action {
            Action::Stay
        }
        fn memory_bits(&self) -> u64 {
            0
        }
    }

    #[test]
    fn basic_walk_period_is_2n_minus_2() {
        // §2.2: a basic walk of length 2(n−1) returns to its start.
        for n in [2usize, 3, 5, 10, 33] {
            let t = line(n);
            let run = run_single(&t, 0, &mut BasicWalker, 2 * (n as u64 - 1), false);
            assert_eq!(run.cursor.node, 0, "n={n}");
        }
        let s = star(7);
        let run = run_single(&s, 1, &mut BasicWalker, 2 * 7, false);
        assert_eq!(run.cursor.node, 1);
    }

    #[test]
    fn basic_walk_covers_all_nodes() {
        let t = crate::runner::tests_support::random_tree_20();
        let n = t.num_nodes();
        let run = run_single(&t, 0, &mut BasicWalker, 2 * (n as u64 - 1), true);
        let mut seen = vec![false; n];
        for &v in run.trace.as_ref().unwrap() {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "Euler tour must cover the tree");
    }

    #[test]
    fn walker_meets_sitter() {
        let t = line(9);
        let run = run_pair(&t, 0, 5, &mut BasicWalker, &mut Sitter, PairConfig::simultaneous(100));
        assert_eq!(run.outcome, Outcome::Met { round: 5, node: 5 });
    }

    #[test]
    fn delayed_agent_is_met_at_home() {
        let t = line(9);
        // B delayed past the horizon: A's walk reaches B's home anyway.
        let run =
            run_pair(&t, 0, 6, &mut BasicWalker, &mut BasicWalker, PairConfig::delayed(1_000, 100));
        assert_eq!(run.outcome, Outcome::Met { round: 6, node: 6 });
    }

    #[test]
    fn crossing_is_not_meeting() {
        // Two walkers launched toward each other at odd distance cross
        // inside an edge and never co-locate on a cycle-free shuttle.
        let t = colored_line(2, 0); // single edge
        let run =
            run_pair(&t, 0, 1, &mut BasicWalker, &mut BasicWalker, PairConfig::simultaneous(10));
        assert!(!run.outcome.met());
        assert!(run.crossings > 0);
    }

    #[test]
    fn same_start_meets_at_round_zero() {
        let t = line(4);
        let run =
            run_pair(&t, 2, 2, &mut BasicWalker, &mut BasicWalker, PairConfig::simultaneous(10));
        assert_eq!(run.outcome, Outcome::Met { round: 0, node: 2 });
    }

    #[test]
    fn delayed_agent_first_acts_at_round_delay_plus_one() {
        // The delayed agent must sit still through rounds 1..=delay and
        // take its first action in round delay+1.
        struct CountingWalker {
            activations: u64,
        }
        impl Agent for CountingWalker {
            fn act(&mut self, obs: Obs) -> Action {
                self.activations += 1;
                Action::Move(bw_exit(obs.entry, obs.degree))
            }
            fn memory_bits(&self) -> u64 {
                0
            }
        }
        let t = line(30);
        let mut a = Sitter;
        let mut b = CountingWalker { activations: 0 };
        let run = run_pair(
            &t,
            0,
            20,
            &mut a,
            &mut b,
            PairConfig { delay: 7, max_rounds: 12, record_traces: true },
        );
        assert!(!run.outcome.met());
        // 12 rounds total, active in rounds 8..=12.
        assert_eq!(b.activations, 5);
        let tb = run.trace_b.unwrap();
        assert!(tb[..8].iter().all(|&v| v == 20), "parked through the delay");
        assert_ne!(tb[8], 20, "first move in round 8");
    }

    #[test]
    fn frozen_agent_keeps_cursor_and_perceives_nothing() {
        // Under intermittent(2, 1) agent B acts only in even rounds; its
        // activation count after r rounds is ⌊r/2⌋, and each activation
        // must see the observation of an uninterrupted run (the frozen
        // rounds are invisible to it).
        struct Probe {
            seen: Vec<Obs>,
        }
        impl Agent for Probe {
            fn act(&mut self, obs: Obs) -> Action {
                self.seen.push(obs);
                Action::Move(bw_exit(obs.entry, obs.degree))
            }
            fn memory_bits(&self) -> u64 {
                0
            }
        }
        let t = line(16);
        let sched = EnsembleSchedule::intermittent_last(2, 2, 1);
        let mut a = Sitter;
        let mut b = Probe { seen: Vec::new() };
        let run = run_ensemble_with(
            &t,
            &[0, 15],
            |lane, obs| if lane == 0 { a.act(obs) } else { b.act(obs) },
            |round, lane| sched.active(round)[lane],
            9,
            true,
        );
        assert!(!run.outcome.met());
        assert_eq!(b.seen.len(), 4, "active in rounds 2, 4, 6, 8");
        // The frozen agent's observations are the uninterrupted walk's.
        let mut solo = Probe { seen: Vec::new() };
        run_single(&t, 15, &mut solo, 4, false);
        assert_eq!(b.seen, solo.seen[..4]);
        // Its trace holds each position for two rounds.
        let tb = &run.traces.as_ref().unwrap()[1];
        assert_eq!(tb, &vec![15, 15, 14, 14, 13, 13, 12, 12, 11, 11]);
        // Final cursor: last activation (round 8) moved it, so the entry
        // port is the one that activation set, despite round 9 freezing.
        assert_eq!(run.finals[1].node, 11);
        assert!(run.finals[1].entry.is_some(), "frozen cursor keeps its entry port");
    }

    #[test]
    fn crashed_agent_is_met_where_it_stopped() {
        let t = line(9);
        // B walks 2 rounds toward A, crashes at node 6; A's walk gets there.
        let sched = EnsembleSchedule::crash_last_after(2, 2);
        let run = run_ensemble_fsa(&t, &[0, 8], &mut [BasicWalker, BasicWalker], &sched, 50, false);
        assert_eq!(run.outcome, Outcome::Met { round: 6, node: 6 });
    }

    #[test]
    fn observations_match_the_tree() {
        // The entry port reported to the agent is the port of the edge at
        // the node it ENTERS, per the model.
        let t = crate::runner::tests_support::random_tree_20();
        let mut cur = Cursor::new(0);
        let mut expect: Option<Port> = None;
        for _ in 0..200 {
            let obs = cur.obs(&t);
            assert_eq!(obs.entry, expect, "entry port mismatch");
            assert_eq!(obs.degree, t.degree(cur.node));
            // Always leave by the highest port.
            let exit = obs.degree - 1;
            expect = Some(t.entry_port(cur.node, exit));
            cur.apply(&t, Action::Move(exit));
        }
    }

    #[test]
    fn traces_record_positions() {
        let t = line(5);
        let run = run_pair(
            &t,
            0,
            4,
            &mut BasicWalker,
            &mut Sitter,
            PairConfig { delay: 0, max_rounds: 4, record_traces: true },
        );
        assert_eq!(run.trace_a.as_ref().unwrap(), &vec![0, 1, 2, 3, 4]);
        assert_eq!(run.trace_b.as_ref().unwrap(), &vec![4, 4, 4, 4, 4]);
        assert!(run.outcome.met());
    }

    // ---- ensemble (k-agent gathering) semantics, ported from the
    // retired `sim::multi` module and pinned against the pair engine ----

    use rvz_trees::generators::spider;

    fn walkers_and_sitters(walkers: usize, sitters: usize) -> Vec<Box<dyn Agent>> {
        let mut v: Vec<Box<dyn Agent>> = Vec::new();
        for _ in 0..walkers {
            v.push(Box::new(BasicWalker));
        }
        for _ in 0..sitters {
            v.push(Box::new(Sitter));
        }
        v
    }

    #[test]
    fn three_walkers_gather_on_sitter() {
        let t = line(7);
        let mut agents = walkers_and_sitters(2, 1);
        // Walkers from both leaves sweep the line; the sitter sits at 3.
        // From symmetric leaves with simultaneous start the walkers stay
        // mirrored: both reach 3 at round 3.
        let run = run_ensemble(
            &t,
            &[0, 6, 3],
            &mut agents,
            &EnsembleSchedule::simultaneous(3),
            200,
            false,
        );
        assert_eq!(run.outcome, Outcome::Met { round: 3, node: 3 });
        assert!(run.pair_meetings.iter().all(|m| m.is_some()));
    }

    #[test]
    fn pairwise_meetings_recorded_without_gathering() {
        let t = line(6);
        let mut agents = walkers_and_sitters(1, 2);
        let run =
            run_ensemble(&t, &[0, 2, 5], &mut agents, &EnsembleSchedule::simultaneous(3), 4, false);
        // The walker reaches the first sitter (node 2) at round 2 but the
        // far sitter is never reached within 4 rounds.
        assert_eq!(run.outcome, Outcome::Timeout { rounds: 4 });
        assert_eq!(run.pair_meetings[pair_index(3, 0, 1)], Some(2));
        assert_eq!(run.pair_meetings[pair_index(3, 0, 2)], None);
        assert_eq!(run.pair_meetings[pair_index(3, 1, 2)], None);
    }

    #[test]
    fn ensemble_start_delays_are_respected() {
        let t = star(4);
        let mut agents = walkers_and_sitters(1, 1);
        // The walker is frozen for 5 rounds, then moves to the hub (node 0)
        // where the sitter lives: gathered at round 6.
        let sched = EnsembleSchedule::start_delays(&[5, 0]);
        let run = run_ensemble(&t, &[1, 0], &mut agents, &sched, 20, false);
        assert_eq!(run.outcome, Outcome::Met { round: 6, node: 0 });
    }

    #[test]
    fn initial_colocated_gathering() {
        let t = line(3);
        let mut agents = walkers_and_sitters(0, 2);
        let run =
            run_ensemble(&t, &[1, 1], &mut agents, &EnsembleSchedule::simultaneous(2), 10, false);
        assert_eq!(run.outcome, Outcome::Met { round: 0, node: 1 });
    }

    #[test]
    fn budget_exhaustion_reports_timeout_and_final_positions() {
        // Two sitters apart can never gather: the run must burn exactly the
        // budget, report `Timeout { rounds }`, keep everyone in place, and
        // leave every pair meeting unset.
        let t = line(5);
        let mut agents = walkers_and_sitters(0, 2);
        let run =
            run_ensemble(&t, &[0, 4], &mut agents, &EnsembleSchedule::simultaneous(2), 7, false);
        assert_eq!(run.outcome, Outcome::Timeout { rounds: 7 });
        assert_eq!(run.finals.iter().map(|c| c.node).collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(run.pair_meetings, vec![None]);
    }

    #[test]
    fn three_walkers_gather_on_a_spider_with_delays() {
        // Two basic walkers from leg tips plus a sitter at the hub. A tip
        // walker's Euler tour passes the hub at local steps 3, 9 and 15 of
        // its 18-round period, so delaying walker A by 6 aligns its first
        // hub visit (global round 9) with walker B's second: gathering at 9.
        let t = spider(3, 3); // hub 0; legs of length 3
        let mut agents = walkers_and_sitters(2, 1);
        let tip_a = 3; // end of the first leg
        let tip_b = 6; // end of the second leg
        let sched = EnsembleSchedule::start_delays(&[6, 0, 0]);
        let run = run_ensemble(&t, &[tip_a, tip_b, 0], &mut agents, &sched, 100, false);
        assert_eq!(run.outcome, Outcome::Met { round: 9, node: 0 });
        // The undelayed walker reaches the hub sitter first (round 3):
        // pair (1,2) met before the full gathering.
        assert_eq!(run.pair_meetings[pair_index(3, 1, 2)], Some(3));
        assert_eq!(run.pair_meetings[pair_index(3, 0, 1)], Some(9));
        assert_eq!(run.pair_meetings[pair_index(3, 0, 2)], Some(9));
    }

    #[test]
    fn gathering_is_colocation_at_a_round_boundary_not_crossing() {
        // Two walkers swapping the endpoints of a single edge cross inside
        // it forever; gathering semantics must never fire (§2.1: meeting is
        // co-location at the end of a round).
        let t = colored_line(2, 0); // a single edge
        let mut agents = walkers_and_sitters(2, 0);
        let run =
            run_ensemble(&t, &[0, 1], &mut agents, &EnsembleSchedule::simultaneous(2), 50, false);
        assert_eq!(run.outcome, Outcome::Timeout { rounds: 50 });
        assert_eq!(run.pair_meetings, vec![None]);
        assert_eq!(run.crossings, 50, "the walkers swap endpoints every round");
    }

    #[test]
    fn four_agent_pair_meetings_use_the_upper_triangle_layout() {
        // k = 4: six pairs; a walker sweeping the line meets each sitter in
        // distance order, and the sitter pairs never co-locate.
        let t = line(7);
        let mut agents = walkers_and_sitters(1, 3);
        let run = run_ensemble(
            &t,
            &[0, 2, 4, 6],
            &mut agents,
            &EnsembleSchedule::simultaneous(4),
            5,
            false,
        );
        assert_eq!(run.outcome, Outcome::Timeout { rounds: 5 });
        assert_eq!(run.pair_meetings.len(), 6);
        assert_eq!(run.pair_meetings[pair_index(4, 0, 1)], Some(2));
        assert_eq!(run.pair_meetings[pair_index(4, 0, 2)], Some(4));
        assert_eq!(run.pair_meetings[pair_index(4, 0, 3)], None, "line end not reached in 5");
        for (i, j) in [(1, 2), (1, 3), (2, 3)] {
            assert_eq!(run.pair_meetings[pair_index(4, i, j)], None, "sitters ({i},{j})");
        }
    }

    #[test]
    fn ensemble_at_k2_matches_run_pair_bit_for_bit() {
        // `run_pair` is the k = 2 case of the ensemble loop — the start
        // delay θ as a two-lane schedule gives the same outcome,
        // crossings, finals and traces.
        let t = line(11);
        for theta in [0u64, 1, 3, 9] {
            for (a, b) in [(0u32, 7u32), (2, 10), (10, 1)] {
                let cfg = PairConfig { delay: theta, max_rounds: 60, record_traces: true };
                let pair = run_pair(&t, a, b, &mut BasicWalker, &mut BasicWalker, cfg);
                let mut agents = walkers_and_sitters(2, 0);
                let ens = run_ensemble(
                    &t,
                    &[a, b],
                    &mut agents,
                    &EnsembleSchedule::start_delays(&[0, theta]),
                    60,
                    true,
                );
                assert_eq!(ens.outcome, pair.outcome, "θ={theta} ({a},{b})");
                assert_eq!(ens.crossings, pair.crossings);
                assert_eq!(ens.finals[0], pair.final_a);
                assert_eq!(ens.finals[1], pair.final_b);
                let traces = ens.traces.expect("recorded");
                assert_eq!(Some(&traces[0]), pair.trace_a.as_ref());
                assert_eq!(Some(&traces[1]), pair.trace_b.as_ref());
                // The pair meeting round IS the gathering round at k = 2.
                assert_eq!(ens.pair_meetings[0], pair.outcome.round());
            }
        }
    }

    #[test]
    fn ensemble_budget_counts_rounds_not_activations() {
        // THE budget definition (the `MultiConfig` unification bugfix):
        // `max_rounds` counts global rounds — frozen rounds burn budget —
        // so a lane delayed by θ is activated exactly max_rounds − θ times
        // and the run never exceeds max_rounds rounds, matching
        // `run_pair`'s historical behavior at k = 2.
        let t = line(30);
        let budget = 12u64;
        let theta = 7u64;
        let mut activations = [0u64; 2];
        let mut walker = BasicWalker;
        let run = run_ensemble_with(
            &t,
            &[0, 20],
            |lane, obs| {
                activations[lane] += 1;
                if lane == 0 {
                    Action::Stay
                } else {
                    walker.act(obs)
                }
            },
            |round, lane| lane == 0 || round > theta,
            budget,
            false,
        );
        assert_eq!(run.outcome, Outcome::Timeout { rounds: budget });
        assert_eq!(activations[0], budget, "undelayed lane acts every round");
        assert_eq!(activations[1], budget - theta, "delayed lane loses θ activations to budget");
        // And the k = 2 pair engine agrees on the same scenario.
        let mut a = Sitter;
        let mut b = BasicWalker;
        let pair = run_pair(
            &t,
            0,
            20,
            &mut a,
            &mut b,
            PairConfig { delay: theta, max_rounds: budget, record_traces: false },
        );
        assert_eq!(pair.outcome, run.outcome);
        assert_eq!(pair.final_b, run.finals[1]);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rvz_trees::Tree;

    pub fn random_tree_20() -> Tree {
        let mut rng = StdRng::seed_from_u64(1234);
        rvz_trees::generators::random_tree(20, &mut rng)
    }
}
