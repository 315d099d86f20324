//! Trace record/replay: tabulate an agent's deterministic trajectory once,
//! then answer every adversarial schedule against it by timeline merge.
//!
//! The paper's agents are deterministic and oblivious: the node an agent
//! occupies after `k` activations is a pure function of `(tree, start,
//! agent)` — the peer never influences it (meeting is co-location, not
//! interaction), and the adversary's start delay θ merely *shifts* agent
//! B's timeline by θ rounds. So a `(delay, pair)` question never needs the
//! agents stepped again: record each trajectory once ([`TraceRecorder`]),
//! then decide meeting/crossing by a two-pointer merge over the two
//! run-length–encoded timelines ([`replay_pair`]); the same two recordings
//! answer every delay of a column.
//!
//! Three properties make the merge cheap:
//!
//! * **Run-length encoding.** A [`Trajectory`] stores maximal constant-node
//!   runs, so the long passive windows of schedule-based agents (e.g. the
//!   delay-robust baseline, whose period is ≫ its 4n-round active window)
//!   cost one entry, and the merge jumps joint-stay spans in O(1): inside a
//!   span neither agent moves, so no meeting (positions are unequal and
//!   constant) and no crossing (a crossing requires both agents to move)
//!   can occur.
//! * **Fixed-point tails.** An agent that reports [`Agent::halted`] (e.g.
//!   the Theorem-4.1 agent parked in its wait-forever stage) freezes its
//!   timeline: the suffix costs O(1) storage and the merge can declare
//!   `Timeout` without walking to the round budget — even when the budget
//!   is in the billions.
//! * **Prefix stability.** Recording more rounds never changes the rounds
//!   already recorded, so trajectories can be extended on demand
//!   ([`TraceRecorder::record_to`]) and cached across questions; replay
//!   results are independent of how eagerly the recording grew.
//!
//! [`replay_pair`] reproduces [`crate::run_pair`] *exactly* — outcome,
//! meeting round, crossing count, final cursors (entry ports reconstructed
//! from the node timeline; on a tree, a move always changes the node, so
//! `entry = None` iff the last action was a stay) and optional traces. The
//! differential property test in `tests/property_tests.rs` pins this
//! equivalence across random trees, starts, delays and agent variants.
//!
//! Two merges share these properties. [`replay_pair`] is the start-delay
//! pair: agent B's timeline shifted by θ, on two fixed lanes. Everything
//! else — any activation [`EnsembleSchedule`](crate::EnsembleSchedule)
//! and any lane count, a two-lane schedule included — goes through
//! [`replay_ensemble`], which re-times each lane through its
//! [`ActivationIndex`] and returns exactly what [`crate::run_ensemble`]
//! returns. The pair merge stays because it is measurably faster on the
//! sweep's θ pair cells, the bulk of the e1–e8 grids.

use crate::runner::{Cursor, EnsembleRun, Outcome, PairConfig, PairRun};
use crate::schedule::ActivationIndex;
use rvz_agent::model::Agent;
use rvz_trees::{NodeId, Port, Tree};

/// One maximal constant-node run of a trajectory: the agent sits at `node`
/// from the round after the previous run's `end` through `end` inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub node: NodeId,
    /// Last round (1-based) covered by this run.
    pub end: u64,
}

/// A memory-metering change point: the agent reported `bits` after its
/// `acts`-th activation (and, until the next mark, after every later one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsMark {
    pub acts: u64,
    pub bits: u64,
}

/// A recorded single-agent timeline: the node occupied after every round,
/// run-length encoded, plus the memory-meter change points. `fixed` marks a
/// fixed-point tail: the agent halted, so the last node (and the last bits
/// mark) extend to every future round.
#[derive(Debug, Clone)]
pub struct Trajectory {
    start: NodeId,
    runs: Vec<Run>,
    /// Recorded horizon: positions are known for rounds `0..=rounds`.
    rounds: u64,
    fixed: bool,
    bits: Vec<BitsMark>,
}

impl Trajectory {
    /// An empty trajectory parked at `start`; `initial_bits` is the meter
    /// reading before any activation (what a never-started agent reports).
    pub fn new(start: NodeId, initial_bits: u64) -> Self {
        Trajectory {
            start,
            runs: Vec::new(),
            rounds: 0,
            fixed: false,
            bits: vec![BitsMark { acts: 0, bits: initial_bits }],
        }
    }

    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Rounds recorded so far (positions known for `0..=rounds()`).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// `true` when the timeline is frozen: the agent halted, so every round
    /// beyond [`Trajectory::rounds`] repeats the last node.
    pub fn is_fixed(&self) -> bool {
        self.fixed
    }

    /// Can every round up to `horizon` be answered from this recording?
    pub fn decided_to(&self, horizon: u64) -> bool {
        self.fixed || self.rounds >= horizon
    }

    /// Number of RLE runs (diagnostics; the merge cost is proportional to
    /// the runs overlapping the scanned range, not to the rounds).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Largest node id the timeline ever occupies (`O(runs)`). Lets a
    /// loader range-check a deserialized trajectory against its tree
    /// before anything replays it.
    pub fn max_node(&self) -> NodeId {
        self.runs.iter().map(|r| r.node).fold(self.start, NodeId::max)
    }

    fn last_node(&self) -> NodeId {
        self.runs.last().map_or(self.start, |r| r.node)
    }

    fn push(&mut self, node: NodeId) {
        self.rounds += 1;
        match self.runs.last_mut() {
            Some(run) if run.node == node => run.end = self.rounds,
            _ => self.runs.push(Run { node, end: self.rounds }),
        }
    }

    fn mark_bits(&mut self, bits: u64) {
        let last = self.bits.last().expect("initial mark").bits;
        if bits != last {
            self.bits.push(BitsMark { acts: self.rounds, bits });
        }
    }

    /// Node occupied after `round` (0 = the start, before any action), or
    /// `None` when the round is beyond the recorded horizon of a non-fixed
    /// trajectory.
    pub fn position(&self, round: u64) -> Option<NodeId> {
        if round == 0 {
            return Some(self.start);
        }
        if round > self.rounds {
            return self.fixed.then(|| self.last_node());
        }
        let i = self.runs.partition_point(|r| r.end < round);
        Some(self.runs[i].node)
    }

    /// First round (≥ 0) at which the recorded agent stands on `node`, if
    /// it does within the decided horizon. On a fixed-tail trajectory the
    /// answer is definitive; on an open tail a `None` only means "not
    /// within the recording". The delayed-start scenario asks exactly
    /// this about the active agent versus the parked agent's home — the
    /// same question the exact decider's solo lasso answers budget-free
    /// (`rvz_lowerbounds::decide::SoloLasso::first_visit`; the two are
    /// cross-checked in `tests/exact_decider.rs`).
    pub fn first_visit(&self, node: NodeId) -> Option<u64> {
        if self.start == node {
            return Some(0);
        }
        let mut prev_end = 0;
        for run in &self.runs {
            if run.node == node {
                return Some(prev_end + 1);
            }
            prev_end = run.end;
        }
        None
    }

    /// Meter reading after `acts` activations. Beyond the recorded horizon
    /// the last mark applies (valid for fixed tails, where the contract of
    /// [`Agent::halted`] freezes the meter).
    pub fn bits_at(&self, acts: u64) -> u64 {
        let i = self.bits.partition_point(|m| m.acts <= acts);
        self.bits[i - 1].bits
    }

    /// The explicit node timeline for global rounds `0..=upto` of an agent
    /// whose start was delayed by `shift` rounds (tests / trace output; the
    /// merge itself never materializes this).
    fn materialize(&self, upto: u64, shift: u64) -> Vec<NodeId> {
        (0..=upto)
            .map(|r| self.position(r.saturating_sub(shift)).expect("within recorded horizon"))
            .collect()
    }

    /// Serializes the recording into the versioned little-endian RLE wire
    /// form [`Trajectory::from_bytes`] reads back. The encoding is
    /// self-delimiting (every vector is length-prefixed) so callers can
    /// frame it however they like; integrity checking (checksums) is the
    /// caller's job — this layer only guarantees structural validity.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 + self.runs.len() * 12 + self.bits.len() * 16);
        out.extend_from_slice(&Self::WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.rounds.to_le_bytes());
        out.push(self.fixed as u8);
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for run in &self.runs {
            out.extend_from_slice(&run.node.to_le_bytes());
            out.extend_from_slice(&run.end.to_le_bytes());
        }
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        for mark in &self.bits {
            out.extend_from_slice(&mark.acts.to_le_bytes());
            out.extend_from_slice(&mark.bits.to_le_bytes());
        }
        out
    }

    /// Wire-format version tag of [`Trajectory::to_bytes`].
    pub const WIRE_VERSION: u32 = 1;

    /// Deserializes [`Trajectory::to_bytes`] output, validating every
    /// structural invariant the recorder maintains — a corrupted body that
    /// slipped past the caller's checksum is rejected here rather than
    /// replayed: run ends strictly increasing and covering exactly
    /// `1..=rounds`, the meter marks starting at activation 0 and strictly
    /// increasing within the horizon, no consecutive runs on one node, and
    /// no trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trajectory, String> {
        let mut r = WireReader { bytes, pos: 0 };
        let version = r.u32()?;
        if version != Self::WIRE_VERSION {
            return Err(format!("unsupported trajectory wire version {version}"));
        }
        let start = r.u32()?;
        let rounds = r.u64()?;
        let fixed = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(format!("bad fixed flag {other}")),
        };
        let num_runs = r.u32()? as usize;
        if num_runs as u64 > rounds {
            return Err("more runs than rounds".into());
        }
        let mut runs = Vec::with_capacity(num_runs.min(1 << 16));
        let mut prev_end = 0u64;
        let mut prev_node: Option<NodeId> = None;
        for _ in 0..num_runs {
            let node = r.u32()?;
            let end = r.u64()?;
            if end <= prev_end {
                return Err("run ends must be strictly increasing".into());
            }
            if prev_node == Some(node) {
                return Err("consecutive runs on one node must be merged".into());
            }
            prev_end = end;
            prev_node = Some(node);
            runs.push(Run { node, end });
        }
        if prev_end != rounds {
            return Err("runs must cover exactly 1..=rounds".into());
        }
        let num_marks = r.u32()? as usize;
        if num_marks == 0 {
            return Err("a trajectory carries at least the initial meter mark".into());
        }
        let mut bits = Vec::with_capacity(num_marks.min(1 << 16));
        let mut prev_acts: Option<u64> = None;
        for _ in 0..num_marks {
            let acts = r.u64()?;
            let mark_bits = r.u64()?;
            match prev_acts {
                None if acts != 0 => return Err("first meter mark must be at activation 0".into()),
                Some(prev) if acts <= prev => {
                    return Err("meter marks must be strictly increasing".into())
                }
                _ => {}
            }
            if acts > rounds {
                return Err("meter mark beyond the recorded horizon".into());
            }
            prev_acts = Some(acts);
            bits.push(BitsMark { acts, bits: mark_bits });
        }
        if r.pos != bytes.len() {
            return Err("trailing bytes after trajectory".into());
        }
        Ok(Trajectory { start, runs, rounds, fixed, bits })
    }
}

/// Bounds-checked little-endian cursor for [`Trajectory::from_bytes`].
struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl WireReader<'_> {
    fn take(&mut self, len: usize) -> Result<&[u8], String> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| "truncated trajectory".to_string())?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Records an agent's solo trajectory incrementally: owns the agent and its
/// cursor so the recording can be extended on demand without re-stepping
/// the prefix.
#[derive(Debug, Clone)]
pub struct TraceRecorder<A> {
    agent: A,
    cursor: Cursor,
    traj: Trajectory,
    /// Which meter to record (variants differ: measured vs charged bits).
    bits_fn: fn(&A) -> u64,
}

impl<A: Agent> TraceRecorder<A> {
    /// A recorder parked at `start`; nothing is stepped until
    /// [`TraceRecorder::record_to`].
    pub fn new(start: NodeId, agent: A, bits_fn: fn(&A) -> u64) -> Self {
        let traj = Trajectory::new(start, bits_fn(&agent));
        TraceRecorder { agent, cursor: Cursor::new(start), traj, bits_fn }
    }

    pub fn trajectory(&self) -> &Trajectory {
        &self.traj
    }

    /// Extends the recording through round `rounds` (no-op if already
    /// there, or if the agent halted earlier — the fixed tail answers every
    /// later round).
    pub fn record_to(&mut self, t: &Tree, rounds: u64) {
        while self.traj.rounds < rounds && !self.traj.fixed {
            if self.traj.rounds & 0xFFF == 0 {
                crate::cancel::checkpoint();
            }
            let action = self.agent.act(self.cursor.obs(t));
            self.cursor.apply(t, action);
            self.traj.push(self.cursor.node);
            self.traj.mark_bits((self.bits_fn)(&self.agent));
            if self.agent.halted() {
                self.traj.fixed = true;
            }
        }
    }
}

/// Replay verdict: either the full [`PairRun`] (bit-for-bit what
/// [`crate::run_pair`] returns), or a request for longer recordings.
#[derive(Debug, Clone)]
pub enum Replay {
    Decided(PairRun),
    /// The merge ran past a recorded horizon before deciding: record agent
    /// A to at least `a_rounds` rounds (and B to `b_rounds`) and retry.
    NeedMore {
        a_rounds: u64,
        b_rounds: u64,
    },
}

/// A trajectory viewed at a start-delay offset: local round `l` of the
/// underlying recording answers global round `l + shift`, and rounds
/// `0..=shift` are parked at the start (the delayed agent sits at home and
/// can be met there, per the §2.1 scenario).
struct Lane<'a> {
    traj: &'a Trajectory,
    shift: u64,
    idx: usize,
}

impl<'a> Lane<'a> {
    fn new(traj: &'a Trajectory, shift: u64) -> Self {
        Lane { traj, shift, idx: 0 }
    }

    /// Node at global round `r` plus the last global round through which
    /// that node provably persists (the jump target for joint-stay spans).
    /// `None` when `r` is beyond the recorded horizon of an open tail.
    /// Calls must be monotone in `r` (the run index only advances).
    fn locate(&mut self, r: u64) -> Option<(NodeId, u64)> {
        let l = r.saturating_sub(self.shift);
        if l == 0 {
            return Some((self.traj.start, self.shift));
        }
        if l > self.traj.rounds {
            return self.traj.fixed.then(|| (self.traj.last_node(), u64::MAX));
        }
        let runs = &self.traj.runs;
        while runs[self.idx].end < l {
            self.idx += 1;
        }
        let run = runs[self.idx];
        let end = if run.end == self.traj.rounds && self.traj.fixed {
            u64::MAX
        } else {
            run.end.saturating_add(self.shift)
        };
        Some((run.node, end))
    }
}

/// The port by which an agent that moved `prev → cur` entered `cur` (the
/// unique tree edge between them, read off the CSR adjacency).
fn entry_port_from(t: &Tree, prev: NodeId, cur: NodeId) -> Port {
    t.neighbors(cur)
        .find(|&(_, v, _)| v == prev)
        .map(|(p, _, _)| p)
        .expect("consecutive trajectory nodes are adjacent")
}

/// Final cursor of an agent at global round `r`, reconstructed from its
/// timeline: on a tree every move changes the node, so the entry port is
/// `None` iff the position did not change in round `r`.
fn cursor_at(t: &Tree, traj: &Trajectory, shift: u64, r: u64) -> Cursor {
    let pos = |r: u64| traj.position(r.saturating_sub(shift)).expect("decided range");
    let node = pos(r);
    let entry = if r == 0 || pos(r - 1) == node {
        None
    } else {
        Some(entry_port_from(t, pos(r - 1), node))
    };
    Cursor { node, entry }
}

/// Builds the [`PairRun`] for a decided merge ending at global round `r`.
fn finish(
    t: &Tree,
    ta: &Trajectory,
    tb: &Trajectory,
    cfg: PairConfig,
    outcome: Outcome,
    r: u64,
    crossings: u64,
) -> PairRun {
    PairRun {
        outcome,
        crossings,
        final_a: cursor_at(t, ta, 0, r),
        final_b: cursor_at(t, tb, cfg.delay, r),
        trace_a: cfg.record_traces.then(|| ta.materialize(r, 0)),
        trace_b: cfg.record_traces.then(|| tb.materialize(r, cfg.delay)),
    }
}

/// Decides a two-agent run from recorded trajectories alone — no agent is
/// stepped. Agent B's timeline is shifted by `cfg.delay`. Returns exactly
/// what [`crate::run_pair`] returns on the same instance, or
/// [`Replay::NeedMore`] when a recording is too short to decide.
///
/// Cost: O(runs overlapping the decided range + rounds in which either
/// agent moves), not O(rounds) — joint-stay spans are jumped, and two
/// fixed tails settle a timeout instantly whatever the budget.
pub fn replay_pair(t: &Tree, ta: &Trajectory, tb: &Trajectory, cfg: PairConfig) -> Replay {
    let budget = cfg.max_rounds;
    if ta.start == tb.start {
        let run = finish(t, ta, tb, cfg, Outcome::Met { round: 0, node: ta.start }, 0, 0);
        return Replay::Decided(run);
    }
    let mut lane_a = Lane::new(ta, 0);
    let mut lane_b = Lane::new(tb, cfg.delay);
    let mut prev_a = ta.start;
    let mut prev_b = tb.start;
    let mut crossings = 0u64;
    let mut r = 0u64;
    while r < budget {
        r += 1;
        if r & 0xFFF == 0 {
            crate::cancel::checkpoint();
        }
        // A lane that is already decided through round r reports 0 — the
        // caller must not grow (re-step) a recording that was long enough.
        let need = |r: u64, ta: &Trajectory, tb: &Trajectory| Replay::NeedMore {
            a_rounds: if ta.decided_to(r) { 0 } else { r },
            b_rounds: {
                let l = r.saturating_sub(cfg.delay);
                if tb.decided_to(l) {
                    0
                } else {
                    l
                }
            },
        };
        let Some((na, ea)) = lane_a.locate(r) else {
            return need(r, ta, tb);
        };
        let Some((nb, eb)) = lane_b.locate(r) else {
            return need(r, ta, tb);
        };
        if na == prev_b && nb == prev_a && na != nb {
            crossings += 1;
        }
        if na == nb {
            let run = finish(t, ta, tb, cfg, Outcome::Met { round: r, node: na }, r, crossings);
            return Replay::Decided(run);
        }
        prev_a = na;
        prev_b = nb;
        // Both agents sit still through min(ea, eb): no moves, hence no
        // crossings and no meeting (unequal constant positions) — jump.
        r = r.max(ea.min(eb).min(budget));
    }
    let run = finish(t, ta, tb, cfg, Outcome::Timeout { rounds: budget }, budget, crossings);
    Replay::Decided(run)
}

/// A trajectory viewed through one lane of an
/// [`EnsembleSchedule`](crate::EnsembleSchedule): the recording is indexed
/// by *activation count* (the frozen semantics makes an agent's k-th
/// activation schedule-independent), and the [`ActivationIndex`] converts
/// the merge's global round clock into local activation counts — the
/// schedule-aware generalization of the shift arithmetic in [`Lane`].
struct SchedLane<'a> {
    traj: &'a Trajectory,
    idx: &'a ActivationIndex,
    run_idx: usize,
}

impl<'a> SchedLane<'a> {
    fn new(traj: &'a Trajectory, idx: &'a ActivationIndex) -> Self {
        SchedLane { traj, idx, run_idx: 0 }
    }

    /// Node at global round `r` plus the last global round through which
    /// that node provably persists (frozen rounds extend a run's span
    /// past its activation-count end). `None` beyond the recorded horizon
    /// of an open tail. Calls must be monotone in `r`.
    fn locate(&mut self, r: u64) -> Option<(NodeId, u64)> {
        let l = self.idx.acts_at(r);
        if l == 0 {
            return Some((self.traj.start, self.idx.frozen_through(0)));
        }
        if l > self.traj.rounds {
            return self.traj.fixed.then(|| (self.traj.last_node(), u64::MAX));
        }
        let runs = &self.traj.runs;
        while runs[self.run_idx].end < l {
            self.run_idx += 1;
        }
        let run = runs[self.run_idx];
        let end = if run.end == self.traj.rounds && self.traj.fixed {
            u64::MAX
        } else {
            self.idx.frozen_through(run.end)
        };
        Some((run.node, end))
    }
}

/// One lane of the ensemble merge: pure start-delay lanes run on
/// [`Lane`]'s constant-shift arithmetic (the common case — simultaneous
/// and θ-delayed lanes — where the general index's per-round cycle
/// div/mod and binary searches would dominate the merge), everything
/// else on [`SchedLane`]. Both produce identical `(node, span_end)`
/// answers on the lanes the shift form admits
/// ([`ActivationIndex::as_pure_shift`]), so the split is invisible in
/// output.
enum MergeLane<'a> {
    Shift(Lane<'a>),
    Sched(SchedLane<'a>),
}

impl<'a> MergeLane<'a> {
    fn new(traj: &'a Trajectory, idx: &'a ActivationIndex) -> Self {
        match idx.as_pure_shift() {
            Some(shift) => MergeLane::Shift(Lane::new(traj, shift)),
            None => MergeLane::Sched(SchedLane::new(traj, idx)),
        }
    }

    fn locate(&mut self, r: u64) -> Option<(NodeId, u64)> {
        match self {
            MergeLane::Shift(lane) => lane.locate(r),
            MergeLane::Sched(lane) => lane.locate(r),
        }
    }
}

/// Final cursor of a scheduled agent at global round `r`: position and
/// entry come from the cursor its latest activation left behind (frozen
/// rounds change nothing, so the comparison runs on *local* activation
/// counts, not global rounds).
fn cursor_at_scheduled(t: &Tree, traj: &Trajectory, idx: &ActivationIndex, r: u64) -> Cursor {
    let l = idx.acts_at(r);
    let node = traj.position(l).expect("decided range");
    let entry = if l == 0 {
        None
    } else {
        let prev = traj.position(l - 1).expect("decided range");
        if prev == node {
            None
        } else {
            Some(entry_port_from(t, prev, node))
        }
    };
    Cursor { node, entry }
}

/// Ensemble replay verdict: either the full [`EnsembleRun`] (bit-for-bit
/// what [`crate::run_ensemble`] returns), or a per-lane request for
/// longer recordings (activation counts; 0 = that lane is long enough).
#[derive(Debug, Clone)]
pub enum EnsembleReplay {
    Decided(EnsembleRun),
    NeedMore { rounds: Vec<u64> },
}

/// Decides a k-agent run (`k ≥ 2`; rendezvous is `k = 2`) from recorded
/// solo trajectories alone — no agent is stepped. Lane `i` runs on
/// `indices[i]`, its activation arithmetic:
/// [`EnsembleSchedule::indices`](crate::EnsembleSchedule::indices) for a
/// schedule, or [`ActivationIndex::start_delay`] per lane for start
/// delays, which materializes nothing for any θ. The store keys stay
/// per-agent: trajectories are pure functions of `(tree, start, agent)`
/// indexed by activation count, so the same recordings answer every
/// schedule at every width — the merge re-times each through its lane's
/// [`ActivationIndex`] and generalizes [`replay_pair`]'s O(1) joint-stay
/// span jump to k cursors (inside a span no lane moves, so no crossing,
/// no new pair co-location, and no gathering can first occur there).
///
/// Returns exactly what [`crate::run_ensemble`] returns on the same
/// instance — outcome, crossings, pair meetings, final cursors and
/// optional traces — or [`EnsembleReplay::NeedMore`] when a recording is
/// too short (per-lane *activation* counts, exactly what
/// [`TraceRecorder::record_to`] takes).
pub fn replay_ensemble(
    t: &Tree,
    trajs: &[&Trajectory],
    indices: &[ActivationIndex],
    max_rounds: u64,
    record_traces: bool,
) -> EnsembleReplay {
    let k = trajs.len();
    assert_eq!(indices.len(), k, "one activation index per lane");
    assert!(k >= 2, "an ensemble needs at least two agents");
    let mut pair_meetings: Vec<Option<u64>> = vec![None; k * (k - 1) / 2];

    // One pass over the lane pairs in `pair_index` order, with the
    // stepping core's rules: counts this round's crossings (two lanes
    // swapping nodes), records first co-locations, and answers whether the
    // whole ensemble is gathered.
    let scan = |nodes: &[NodeId],
                prev: &[NodeId],
                round: u64,
                pair_meetings: &mut [Option<u64>],
                crossings: &mut u64| {
        let mut gathered = true;
        let mut pair = 0;
        for i in 0..k {
            for j in (i + 1)..k {
                if nodes[i] == nodes[j] {
                    pair_meetings[pair].get_or_insert(round);
                } else {
                    gathered = false;
                    if nodes[i] == prev[j] && nodes[j] == prev[i] {
                        *crossings += 1;
                    }
                }
                pair += 1;
            }
        }
        gathered
    };

    let finish = |outcome: Outcome, r: u64, crossings: u64, pair_meetings: Vec<Option<u64>>| {
        let finals =
            trajs.iter().zip(indices).map(|(tr, idx)| cursor_at_scheduled(t, tr, idx, r)).collect();
        let traces = record_traces.then(|| {
            trajs
                .iter()
                .zip(indices)
                .map(|(tr, idx)| {
                    (0..=r).map(|g| tr.position(idx.acts_at(g)).expect("decided range")).collect()
                })
                .collect()
        });
        EnsembleReplay::Decided(EnsembleRun { outcome, crossings, finals, traces, pair_meetings })
    };

    let mut prev: Vec<NodeId> = trajs.iter().map(|tr| tr.start()).collect();
    let mut crossings = 0u64;
    if scan(&prev, &prev, 0, &mut pair_meetings, &mut crossings) {
        let node = prev[0];
        return finish(Outcome::Met { round: 0, node }, 0, 0, pair_meetings);
    }

    let mut lanes: Vec<MergeLane> =
        trajs.iter().zip(indices).map(|(tr, idx)| MergeLane::new(tr, idx)).collect();
    let mut nodes: Vec<NodeId> = vec![0; k];
    let mut r = 0u64;
    while r < max_rounds {
        r += 1;
        if r & 0xFFF == 0 {
            crate::cancel::checkpoint();
        }
        // A lane already decided through round r reports 0 — the caller
        // must not re-step a recording that was long enough.
        let mut span_end = u64::MAX;
        for (i, lane) in lanes.iter_mut().enumerate() {
            let Some((node, end)) = lane.locate(r) else {
                let rounds = trajs
                    .iter()
                    .zip(indices)
                    .map(|(tr, idx)| {
                        let l = idx.acts_at(r);
                        if tr.decided_to(l) {
                            0
                        } else {
                            l
                        }
                    })
                    .collect();
                return EnsembleReplay::NeedMore { rounds };
            };
            nodes[i] = node;
            span_end = span_end.min(end);
        }
        if scan(&nodes, &prev, r, &mut pair_meetings, &mut crossings) {
            let node = nodes[0];
            return finish(Outcome::Met { round: r, node }, r, crossings, pair_meetings);
        }
        // Every lane rewrites its slot of `nodes` next round: swap, don't copy.
        std::mem::swap(&mut prev, &mut nodes);
        // No lane's cursor changes through span_end: no moves, hence no
        // crossing, no new pair co-location, and no gathering — jump.
        r = r.max(span_end.min(max_rounds));
    }
    finish(Outcome::Timeout { rounds: max_rounds }, max_rounds, crossings, pair_meetings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_ensemble_fsa, run_pair};
    use crate::schedule::EnsembleSchedule;
    use rvz_agent::model::{bw_exit, Action, Obs};
    use rvz_trees::generators::{line, spider, star};

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

    /// Walks for `moves` rounds, then parks forever (and says so).
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

    fn record<A: Agent>(t: &Tree, start: NodeId, agent: A, rounds: u64) -> Trajectory {
        let mut rec = TraceRecorder::new(start, agent, |_| 0);
        rec.record_to(t, rounds);
        rec.trajectory().clone()
    }

    fn assert_matches_direct<A: Agent + Default>(
        t: &Tree,
        a: NodeId,
        b: NodeId,
        cfg: PairConfig,
        horizon: u64,
    ) {
        let ta = record(t, a, A::default(), horizon);
        let tb = record(t, b, A::default(), horizon);
        let Replay::Decided(replayed) = replay_pair(t, &ta, &tb, cfg) else {
            panic!("horizon {horizon} must decide the run");
        };
        let mut x = A::default();
        let mut y = A::default();
        let direct = run_pair(t, a, b, &mut x, &mut y, cfg);
        assert_eq!(replayed.outcome, direct.outcome);
        assert_eq!(replayed.crossings, direct.crossings);
        assert_eq!(replayed.final_a, direct.final_a);
        assert_eq!(replayed.final_b, direct.final_b);
        assert_eq!(replayed.trace_a, direct.trace_a);
        assert_eq!(replayed.trace_b, direct.trace_b);
    }

    #[test]
    fn rle_compresses_stays_and_replays_positions() {
        let t = star(5);
        let traj = record(&t, 2, WalkThenHalt { moves: 3 }, 100);
        // 2 → hub(0) → leaf → hub, then parked: ≤3 runs + fixed tail.
        assert!(traj.is_fixed());
        assert_eq!(traj.rounds(), 3, "halt detected at the last move");
        assert!(traj.num_runs() <= 3);
        assert_eq!(traj.position(0), Some(2));
        assert_eq!(traj.position(1), Some(0));
        assert_eq!(traj.position(1_000_000), traj.position(3), "fixed tail extends");
    }

    #[test]
    fn replay_matches_direct_run_with_and_without_delay() {
        let t = line(9);
        for delay in [0u64, 1, 2, 5, 50] {
            for (a, b) in [(0u32, 5u32), (0, 1), (3, 8)] {
                let cfg = PairConfig { delay, max_rounds: 60, record_traces: true };
                assert_matches_direct::<BasicWalker>(&t, a, b, cfg, 60);
            }
        }
    }

    #[test]
    fn replay_counts_crossings_exactly() {
        // Odd-distance walkers shuttle and cross forever without meeting.
        let t = line(2);
        let cfg = PairConfig { delay: 0, max_rounds: 25, record_traces: false };
        assert_matches_direct::<BasicWalker>(&t, 0, 1, cfg, 25);
    }

    #[test]
    fn fixed_tails_settle_huge_budgets_in_o1() {
        let t = spider(3, 4);
        let ta = record(&t, 1, WalkThenHalt { moves: 2 }, 10);
        let tb = record(&t, 9, WalkThenHalt { moves: 1 }, 10);
        assert!(ta.is_fixed() && tb.is_fixed());
        // Budget in the billions: the merge must settle from the tails.
        let cfg = PairConfig::delayed(7, 2_000_000_000);
        match replay_pair(&t, &ta, &tb, cfg) {
            Replay::Decided(run) => {
                assert_eq!(run.outcome, Outcome::Timeout { rounds: cfg.max_rounds })
            }
            Replay::NeedMore { .. } => panic!("fixed tails must decide"),
        }
    }

    #[test]
    fn open_tails_ask_for_more_rounds() {
        let t = line(9);
        let ta = record(&t, 0, BasicWalker, 10);
        let tb = record(&t, 8, BasicWalker, 10);
        match replay_pair(&t, &ta, &tb, PairConfig::simultaneous(500)) {
            Replay::NeedMore { a_rounds, b_rounds } => {
                assert!(a_rounds > 10 && a_rounds <= 500);
                assert!(b_rounds <= a_rounds);
            }
            Replay::Decided(run) => {
                // Legal only if it met within the recorded horizon.
                assert!(run.outcome.round().unwrap_or(u64::MAX) <= 10);
            }
        }
    }

    #[test]
    fn delayed_agent_is_met_at_home_via_replay() {
        let t = line(9);
        let ta = record(&t, 0, BasicWalker, 100);
        let tb = record(&t, 6, BasicWalker, 100);
        for delay in [0, 1_000] {
            let verdict = replay_pair(&t, &ta, &tb, PairConfig::delayed(delay, 100));
            let Replay::Decided(run) = verdict else { panic!("recorded horizon decides") };
            assert!(run.outcome.met());
        }
    }

    #[test]
    fn first_visit_reads_the_rle_timeline() {
        let t = line(9);
        let traj = record(&t, 0, BasicWalker, 20);
        assert_eq!(traj.first_visit(0), Some(0), "the start is visited at round 0");
        for node in 1..=8u32 {
            // A basic walk from an endpoint reaches node v at round v.
            assert_eq!(traj.first_visit(node), Some(node as u64), "node {node}");
        }
        let parked = record(&t, 3, WalkThenHalt { moves: 0 }, 50);
        assert!(parked.is_fixed());
        assert_eq!(parked.first_visit(3), Some(0));
        assert_eq!(parked.first_visit(4), None, "a parked agent visits nothing else");
    }

    /// Two basic walkers stepped directly under a two-lane schedule.
    fn step_pair(
        t: &Tree,
        a: NodeId,
        b: NodeId,
        sched: &EnsembleSchedule,
        budget: u64,
    ) -> EnsembleRun {
        run_ensemble_fsa(t, &[a, b], &mut [BasicWalker, BasicWalker], sched, budget, true)
    }

    #[test]
    fn scheduled_replay_matches_direct_scheduled_stepping() {
        let schedules = [
            EnsembleSchedule::simultaneous(2),
            EnsembleSchedule::start_delays(&[0, 3]),
            EnsembleSchedule::intermittent_last(2, 2, 0),
            EnsembleSchedule::intermittent_last(2, 3, 1),
            EnsembleSchedule::crash_last_after(2, 2),
            EnsembleSchedule::adversarial(0xA11CE, 5, 4),
        ];
        for t in [line(9), spider(3, 3), star(6)] {
            let n = t.num_nodes() as NodeId;
            for sched in &schedules {
                for (a, b) in [(0, n - 1), (1, n / 2), (n - 1, 0)] {
                    if a == b {
                        continue;
                    }
                    let budget = 64u64;
                    let ta = record(&t, a, BasicWalker, budget);
                    let tb = record(&t, b, BasicWalker, budget);
                    let EnsembleReplay::Decided(replayed) =
                        replay_ensemble(&t, &[&ta, &tb], &sched.indices(), budget, true)
                    else {
                        panic!("a full-budget recording must decide");
                    };
                    let direct = step_pair(&t, a, b, sched, budget);
                    assert_eq!(replayed.outcome, direct.outcome, "{sched:?} ({a},{b})");
                    assert_eq!(replayed.crossings, direct.crossings, "{sched:?} ({a},{b})");
                    assert_eq!(replayed.finals, direct.finals, "{sched:?} ({a},{b})");
                    assert_eq!(replayed.traces, direct.traces, "{sched:?} ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn scheduled_replay_asks_for_activations_not_rounds() {
        // Under intermittent(4, 0) agent B is activated once per 4 rounds:
        // a short B recording must be grown by *activation* count, so the
        // NeedMore figure is about a quarter of the round horizon.
        let t = line(30);
        let sched = EnsembleSchedule::intermittent_last(2, 4, 0);
        let ta = record(&t, 0, BasicWalker, 200);
        let tb = record(&t, 29, BasicWalker, 2);
        match replay_ensemble(&t, &[&ta, &tb], &sched.indices(), 200, false) {
            EnsembleReplay::NeedMore { rounds } => {
                assert_eq!(rounds[0], 0, "A's recording is long enough");
                assert!(rounds[1] > 2 && rounds[1] <= 50, "B grows by activations: {rounds:?}");
            }
            EnsembleReplay::Decided(run) => {
                panic!("2 recorded activations cannot decide 200 rounds: {:?}", run.outcome)
            }
        }
    }

    #[test]
    fn crashed_lane_settles_huge_budgets_from_the_schedule() {
        // After B's crash both lanes are eventually constant (A is a
        // halting walker): a billion-round budget must settle without the
        // recordings covering it.
        let t = spider(3, 4);
        let ta = record(&t, 1, WalkThenHalt { moves: 2 }, 10);
        let tb = record(&t, 9, BasicWalker, 8);
        assert!(ta.is_fixed() && !tb.is_fixed());
        let sched = EnsembleSchedule::crash_last_after(2, 5);
        match replay_ensemble(&t, &[&ta, &tb], &sched.indices(), 3_000_000_000, false) {
            EnsembleReplay::Decided(run) => match run.outcome {
                Outcome::Met { .. } => {}
                Outcome::Timeout { rounds } => assert_eq!(rounds, 3_000_000_000),
            },
            EnsembleReplay::NeedMore { rounds } => {
                panic!("crashed lane must decide, asked for {rounds:?}")
            }
        }
    }

    #[test]
    fn scheduled_replay_shares_one_recording_across_the_column() {
        let t = line(9);
        let ta = record(&t, 0, BasicWalker, 120);
        let tb = record(&t, 6, BasicWalker, 120);
        let columns = [
            (EnsembleSchedule::simultaneous(2), 100u64),
            (EnsembleSchedule::start_delays(&[0, 1]), 100),
            (EnsembleSchedule::intermittent_last(2, 2, 0), 100),
            (EnsembleSchedule::crash_last_after(2, 1), 100),
        ];
        for (sched, budget) in &columns {
            let verdict = replay_ensemble(&t, &[&ta, &tb], &sched.indices(), *budget, false);
            let EnsembleReplay::Decided(run) = verdict else { panic!("recorded horizon decides") };
            let direct = step_pair(&t, 0, 6, sched, *budget);
            assert_eq!(run.outcome, direct.outcome, "{sched:?}");
        }
    }

    #[test]
    fn ensemble_replay_matches_direct_ensemble_stepping() {
        use crate::runner::run_ensemble_fsa;
        // The k-lane merge must be bit-identical to the k-lane stepper —
        // outcome, crossings, pair meetings, finals and traces — across
        // schedule classes, including the k = 2 case (which must also
        // match the pair merge).
        struct CloneWalker;
        impl Agent for CloneWalker {
            fn act(&mut self, obs: Obs) -> Action {
                Action::Move(bw_exit(obs.entry, obs.degree))
            }
            fn memory_bits(&self) -> u64 {
                0
            }
        }
        for t in [line(9), spider(3, 3), star(6)] {
            let n = t.num_nodes() as NodeId;
            for k in [2usize, 3] {
                let schedules = [
                    EnsembleSchedule::simultaneous(k),
                    EnsembleSchedule::start_delays(
                        &(0..k as u64).map(|i| 2 * i).collect::<Vec<_>>(),
                    ),
                    EnsembleSchedule::crash_last_after(k, 3),
                    EnsembleSchedule::intermittent_last(k, 2, 1),
                ];
                let tuples: Vec<Vec<NodeId>> = if k == 2 {
                    vec![vec![0, n - 1], vec![1, n / 2]]
                } else {
                    vec![vec![0, n / 2, n - 1], vec![n - 1, 0, n / 2]]
                };
                for sched in &schedules {
                    for starts in &tuples {
                        let budget = 64u64;
                        let recs: Vec<Trajectory> =
                            starts.iter().map(|&s| record(&t, s, BasicWalker, budget)).collect();
                        let refs: Vec<&Trajectory> = recs.iter().collect();
                        let EnsembleReplay::Decided(replayed) =
                            replay_ensemble(&t, &refs, &sched.indices(), budget, true)
                        else {
                            panic!("a full-budget recording must decide");
                        };
                        let mut agents: Vec<CloneWalker> = (0..k).map(|_| CloneWalker).collect();
                        let direct = run_ensemble_fsa(&t, starts, &mut agents, sched, budget, true);
                        assert_eq!(replayed.outcome, direct.outcome, "{sched:?} {starts:?}");
                        assert_eq!(replayed.crossings, direct.crossings, "{sched:?} {starts:?}");
                        assert_eq!(replayed.pair_meetings, direct.pair_meetings);
                        assert_eq!(replayed.finals, direct.finals, "{sched:?} {starts:?}");
                        assert_eq!(replayed.traces, direct.traces, "{sched:?} {starts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ensemble_replay_at_k2_matches_the_pair_merge() {
        // At k = 2 the k-lane merge is rendezvous: it must equal direct
        // pair stepping on every schedule, and on the start-delay
        // schedule also the constant-shift pair merge.
        let t = line(11);
        let schedules = [
            EnsembleSchedule::simultaneous(2),
            EnsembleSchedule::start_delays(&[0, 3]),
            EnsembleSchedule::intermittent_last(2, 3, 1),
            EnsembleSchedule::crash_last_after(2, 2),
        ];
        let ta = record(&t, 0, BasicWalker, 80);
        let tb = record(&t, 9, BasicWalker, 80);
        for sched in &schedules {
            let EnsembleReplay::Decided(kr) =
                replay_ensemble(&t, &[&ta, &tb], &sched.indices(), 80, true)
            else {
                panic!("decided");
            };
            let direct = step_pair(&t, 0, 9, sched, 80);
            assert_eq!(kr.outcome, direct.outcome, "{sched:?}");
            assert_eq!(kr.crossings, direct.crossings);
            assert_eq!(kr.pair_meetings, direct.pair_meetings);
            assert_eq!(kr.finals, direct.finals);
            assert_eq!(kr.traces, direct.traces);
        }
        let cfg = PairConfig { delay: 3, max_rounds: 80, record_traces: true };
        let Replay::Decided(pr) = replay_pair(&t, &ta, &tb, cfg) else { panic!("decided") };
        let EnsembleReplay::Decided(kr) =
            replay_ensemble(&t, &[&ta, &tb], &schedules[1].indices(), 80, true)
        else {
            panic!("decided");
        };
        assert_eq!(kr.outcome, pr.outcome);
        assert_eq!(kr.crossings, pr.crossings);
        assert_eq!(kr.finals, [pr.final_a, pr.final_b]);
        let traces = kr.traces.expect("recorded");
        assert_eq!(Some(&traces[0]), pr.trace_a.as_ref());
        assert_eq!(Some(&traces[1]), pr.trace_b.as_ref());
    }

    #[test]
    fn ensemble_replay_asks_for_per_lane_activations() {
        // Lane 2 is intermittent (1 activation per 2 rounds) and its
        // recording is short: the merge must ask to grow exactly that
        // lane, by activation count.
        let t = line(30);
        let sched = EnsembleSchedule::intermittent_last(3, 2, 0);
        let ta = record(&t, 0, BasicWalker, 200);
        let tb = record(&t, 15, BasicWalker, 200);
        let tc = record(&t, 29, BasicWalker, 2);
        match replay_ensemble(&t, &[&ta, &tb, &tc], &sched.indices(), 200, false) {
            EnsembleReplay::NeedMore { rounds } => {
                assert_eq!(rounds[0], 0, "lane 0 is long enough");
                assert_eq!(rounds[1], 0, "lane 1 is long enough");
                assert!(rounds[2] > 2 && rounds[2] <= 100, "lane 2 grows by activations");
            }
            EnsembleReplay::Decided(run) => {
                panic!("2 recorded activations cannot decide 200 rounds: {:?}", run.outcome)
            }
        }
    }

    #[test]
    fn ensemble_fixed_tails_settle_huge_budgets() {
        // All lanes eventually constant: a billion-round budget settles
        // from the k-cursor span jump without recordings covering it.
        let t = spider(3, 4);
        let ta = record(&t, 4, WalkThenHalt { moves: 2 }, 10);
        let tb = record(&t, 8, WalkThenHalt { moves: 1 }, 10);
        let tc = record(&t, 12, WalkThenHalt { moves: 1 }, 10);
        let sched = EnsembleSchedule::simultaneous(3);
        match replay_ensemble(&t, &[&ta, &tb, &tc], &sched.indices(), 2_000_000_000, false) {
            EnsembleReplay::Decided(run) => {
                assert_eq!(run.outcome, Outcome::Timeout { rounds: 2_000_000_000 });
            }
            EnsembleReplay::NeedMore { .. } => panic!("fixed tails must decide"),
        }
    }

    #[test]
    fn delayed_ensemble_replay_answers_delay_columns_for_k_lanes() {
        use crate::runner::run_ensemble_with;
        let t = line(9);
        let recs: Vec<Trajectory> =
            [0u32, 4, 8].iter().map(|&s| record(&t, s, BasicWalker, 150)).collect();
        let refs: Vec<&Trajectory> = recs.iter().collect();
        let columns: Vec<(Vec<u64>, u64)> =
            vec![(vec![0, 0, 0], 100), (vec![0, 3, 0], 100), (vec![5, 0, 2], 100)];
        for (delays, budget) in &columns {
            // Each lane's start delay is its own activation index.
            let indices: Vec<ActivationIndex> =
                delays.iter().map(|&d| ActivationIndex::start_delay(d)).collect();
            let verdict = replay_ensemble(&t, &refs, &indices, *budget, false);
            let EnsembleReplay::Decided(run) = verdict else { panic!("recorded horizon decides") };
            let mut agents = [BasicWalker, BasicWalker, BasicWalker];
            // The stepper takes each delay as an integer activation rule.
            let direct = run_ensemble_with(
                &t,
                &[0, 4, 8],
                |lane, obs| agents[lane].act(obs),
                |round, lane| round > delays[lane],
                *budget,
                false,
            );
            assert_eq!(run.outcome, direct.outcome, "delays {delays:?}");
            assert_eq!(run.pair_meetings, direct.pair_meetings, "delays {delays:?}");
        }
    }

    #[test]
    fn bits_marks_follow_the_meter() {
        struct Counting {
            acts: u64,
        }
        impl Agent for Counting {
            fn act(&mut self, _obs: Obs) -> Action {
                self.acts += 1;
                Action::Stay
            }
            fn memory_bits(&self) -> u64 {
                self.acts / 3
            }
        }
        let t = line(4);
        let mut rec = TraceRecorder::new(0, Counting { acts: 0 }, |a| a.memory_bits());
        rec.record_to(&t, 10);
        let traj = rec.trajectory();
        for acts in 0..=10u64 {
            assert_eq!(traj.bits_at(acts), acts / 3, "after {acts} activations");
        }
        assert_eq!(traj.num_runs(), 1, "ten stays are one run");
    }

    #[test]
    fn trajectory_wire_round_trips() {
        let t = line(7);
        let mut rec = TraceRecorder::new(2, BasicWalker, |_| 5);
        rec.record_to(&t, 40);
        let traj = rec.trajectory();
        let bytes = traj.to_bytes();
        let back = Trajectory::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.start(), traj.start());
        assert_eq!(back.rounds(), traj.rounds());
        assert_eq!(back.is_fixed(), traj.is_fixed());
        for r in 0..=traj.rounds() {
            assert_eq!(back.position(r), traj.position(r), "round {r}");
            assert_eq!(back.bits_at(r), traj.bits_at(r), "acts {r}");
        }
        // And the re-encoding is byte-identical (canonical form).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn trajectory_wire_rejects_corruption_without_panicking() {
        let t = line(6);
        let mut rec = TraceRecorder::new(0, BasicWalker, |_| 1);
        rec.record_to(&t, 25);
        let bytes = rec.trajectory().to_bytes();
        // Every truncation must be an error, never a panic or a bogus value.
        for len in 0..bytes.len() {
            assert!(Trajectory::from_bytes(&bytes[..len]).is_err(), "truncated at {len}");
        }
        // Single-bit flips either fail validation or decode to a trajectory
        // that still satisfies the structural invariants (flips confined to
        // a node id or a meter value are semantically wrong but structurally
        // fine — catching those is the caller's checksum's job).
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                if let Ok(traj) = Trajectory::from_bytes(&bad) {
                    assert!(traj.position(traj.rounds()).is_some());
                }
            }
        }
    }
}
