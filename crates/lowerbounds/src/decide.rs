//! The exact rendezvous decider: reachability + cycle detection over the
//! **joint configuration graph** instead of bounded simulation.
//!
//! A pair of identical [`Fsa`] agents on a tree is a *finite* deterministic
//! system: each agent's situation is a configuration `(state, node,
//! entry port)` (the [`Fsa::config_index`] export), and a two-agent round
//! maps a joint configuration to exactly one successor. "The agents never
//! meet" is therefore not a timeout — it is the statement that the joint
//! trajectory enters a cycle containing no co-location, which
//! [`decide_pair`] certifies with a [`Lasso`] (stem + period + the repeated
//! configuration) after exploring at most one lasso worth of rounds, with
//! **no round budget at all**. This is the product-construction idea used
//! to separate memory classes in the delay-fault rendezvous literature
//! (Chalopin et al., *Rendezvous in Networks in Spite of Delay Faults*;
//! Pelc–Yadav, *Using Time to Break Symmetry*), applied to the
//! Fraigniaud–Pelc adversary: it turns the sweep engine's empirical
//! timeout cells into machine-checkable `NeverMeets` certificates.
//!
//! # The product-lasso closed form
//!
//! Under a start delay the two agents never interact, so the joint
//! trajectory is the *product of two independent solo trajectories*:
//! `z_r = (A_r, B_{r−θ})`. Each solo trajectory is a tabulated
//! [`SoloLasso`] with pre-period σ and minimal period π, and because the
//! configurations of one deterministic lasso are pairwise distinct, the
//! joint sequence's shape follows in closed form — its first repeat is at
//!
//! ```text
//! stem   = max(σ_A + 1, σ_B + θ + 1)      period = lcm(π_A, π_B)
//! ```
//!
//! so [`decide_from_lassos`] never materializes a joint visited set at
//! all: it scans one joint lasso's worth of *positions* (two flat arrays,
//! struct-of-arrays layout) for the first co-location and otherwise emits
//! the certificate directly. The verdicts, certificates, and crossing
//! bookkeeping are byte-identical to the historical hash-map walk (pinned
//! by the `product_lasso_matches_naive_walk` differential test), but a
//! cell costs two solo tabulations — shareable across every cell of a
//! tree via the caller's memo — plus one allocation-free scan.
//!
//! Activation *schedules* (the general adversary) do interleave agent
//! wake-ups, so [`decide_ensemble`] walks the product graph of `k` lanes
//! (a pair is `k = 2`, [`decide_pair_scheduled`]); its visited set is a
//! compact open-addressed table of packed `u128` configuration keys rather
//! than a `HashMap` of tuples.
//!
//! The start delay θ keeps its own two-lane family — [`Decision`],
//! [`Lasso`], [`decide_from_lassos`], the ∀θ quantifier
//! [`worst_case_delay`] and [`verify_lasso`]. It is the one place a pair is
//! not the `k = 2` case of the ensemble code: θ delays one of two lanes,
//! the quantifier folds every θ onto finitely many residue classes, and the
//! exhaustive e9 grid runs on this two-array scan.
//!
//! The adversary's start delay θ splits a run into two regions:
//!
//! * **not-yet-started** (rounds `1..=θ`): only agent A moves; agent B is
//!   parked at its start and can be met there. A alone is eventually
//!   periodic — [`SoloLasso`] tabulates its configuration lasso once — so
//!   arbitrarily large θ are answered by residue arithmetic, and the
//!   universal question over *all* delays ([`worst_case_delay`]) reduces
//!   to one fixed-point computation over the finitely many distinct
//!   activation configurations instead of a scan over delays `0..D`:
//!   every θ beyond the solo lasso behaves like its residue
//!   representative, and if A ever steps on B's home solo, every larger
//!   delay meets right there.
//! * **both-active** (rounds `> θ`): the joint configuration walk, where
//!   cycle detection decides.
//!
//! Everything the sweep's replay executor reports is reproduced exactly —
//! meeting round, and crossing counts at any budget via
//! [`Decision::crossings_within`] (crossing patterns are periodic along
//! the certified cycle, so the count at a huge budget is closed-form).
//! Certificates are checkable by independent re-simulation
//! ([`verify_lasso`]).

use rvz_agent::fsa::{Fsa, FsaRunner};
use rvz_agent::line_fsa::StateId;
use rvz_agent::model::{Action, Agent, Obs};
use rvz_sim::{pair_index, Cursor, EnsembleSchedule};
use rvz_trees::{NodeId, Port, Tree};

/// One agent's situation between rounds: the automaton state that emitted
/// the last action, the occupied node, and the port of entry (`None` after
/// a stay — exactly the [`rvz_sim::Cursor`] + runner-state pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentCfg {
    pub state: StateId,
    pub node: NodeId,
    pub entry: Option<Port>,
}

/// Applies state `s`'s action from `node`: the shared tail of the first
/// and subsequent activation steps.
#[inline]
fn apply(t: &Tree, fsa: &Fsa, s: StateId, node: NodeId) -> AgentCfg {
    match fsa.action(s) {
        Action::Stay => AgentCfg { state: s, node, entry: None },
        Action::Move(raw) => {
            let p = raw % t.degree(node);
            AgentCfg { state: s, node: t.neighbor(node, p), entry: Some(t.entry_port(node, p)) }
        }
    }
}

/// First activation: emit `λ(s0)` without a transition (the
/// `FsaRunner` contract).
#[inline]
fn step_first(t: &Tree, fsa: &Fsa, start: NodeId) -> AgentCfg {
    apply(t, fsa, fsa.s0, start)
}

/// Any later round: transition on the observation, then act.
#[inline]
fn step(t: &Tree, fsa: &Fsa, cfg: AgentCfg) -> AgentCfg {
    let s = fsa.next(cfg.state, Obs { entry: cfg.entry, degree: t.degree(cfg.node) });
    apply(t, fsa, s, cfg.node)
}

/// The tabulated solo lasso of one agent: configurations after rounds
/// `1..stem + period` are pairwise distinct, and the configuration after
/// round `stem + period` equals the one after round `stem`
/// (with `stem ≥ 1`; round 0 — parked, unstarted — never recurs). Built by
/// [`SoloLasso::tabulate`] with a dense visited array over
/// [`Fsa::num_configs`].
#[derive(Debug, Clone)]
pub struct SoloLasso {
    start: NodeId,
    /// `cfgs[r - 1]` = configuration after round `r`, `r = 1..=stem+period`.
    cfgs: Vec<AgentCfg>,
    /// Struct-of-arrays twin of `cfgs`: just the occupied nodes, so the
    /// product scan in [`decide_from_lassos`] touches one flat `u32` array
    /// per agent instead of striding through 12-byte configurations.
    nodes: Vec<NodeId>,
    pub stem: u64,
    pub period: u64,
}

impl SoloLasso {
    /// Runs the agent solo until its configuration repeats. Terminates
    /// within [`Fsa::num_configs`]`(n) + 1` rounds.
    pub fn tabulate(t: &Tree, fsa: &Fsa, start: NodeId) -> Self {
        assert!(fsa.max_degree >= t.max_degree().max(1), "automaton must cover the tree's degrees");
        let n = t.num_nodes();
        // Dense first-seen-round table over the exported config indexing.
        let mut first_seen = vec![0u64; fsa.num_configs(n)];
        let mut cfgs = Vec::new();
        let mut nodes = Vec::new();
        let mut cur = step_first(t, fsa, start);
        let mut round = 1u64;
        loop {
            if round & 0xFFF == 0 {
                rvz_sim::cancel::checkpoint();
            }
            let idx = fsa.config_index(cur.state, cur.node, cur.entry, n);
            if first_seen[idx] != 0 {
                let entry_round = first_seen[idx];
                return SoloLasso {
                    start,
                    cfgs,
                    nodes,
                    stem: entry_round - 1,
                    period: round - entry_round,
                };
            }
            first_seen[idx] = round;
            cfgs.push(cur);
            nodes.push(cur.node);
            cur = step(t, fsa, cur);
            round += 1;
        }
    }

    /// Configuration after round `r ≥ 1`, for arbitrarily large `r` (the
    /// lasso answers every round by residue).
    pub fn config_at(&self, r: u64) -> AgentCfg {
        debug_assert!(r >= 1);
        let len = self.cfgs.len() as u64;
        let idx = if r <= len { r - 1 } else { self.stem + (r - 1 - self.stem) % self.period };
        self.cfgs[idx as usize]
    }

    /// Index into `nodes`/`cfgs` for round `r ≥ 1` (residue past the end).
    #[inline]
    fn lasso_index(&self, r: u64) -> usize {
        let len = self.cfgs.len() as u64;
        let idx = if r <= len { r - 1 } else { self.stem + (r - 1 - self.stem) % self.period };
        idx as usize
    }

    /// Node occupied after round `r` (round 0 = the start).
    pub fn position(&self, r: u64) -> NodeId {
        if r == 0 {
            self.start
        } else {
            self.config_at(r).node
        }
    }

    /// First round `≥ 1` at which the agent stands on `node`, if it ever
    /// does (the whole reachable set lies within the tabulated lasso).
    pub fn first_visit(&self, node: NodeId) -> Option<u64> {
        self.cfgs.iter().position(|c| c.node == node).map(|i| i as u64 + 1)
    }

    /// Number of *distinct* delays that can produce distinct behavior:
    /// delay 0 (unstarted activation config) plus one per tabulated solo
    /// configuration — every larger delay repeats a residue.
    pub fn distinct_delays(&self) -> u64 {
        self.cfgs.len() as u64 + 1
    }

    /// Independently re-checks this lasso against `(t, fsa)` through the
    /// certificate checkers' own stepping loop, an [`FsaRunner`] over a
    /// [`Cursor`] that shares nothing with the decider's tabulation: every
    /// tabulated configuration must match the solo run, and the
    /// configuration after round `stem + period + 1` must wrap back to the
    /// stem entry. `O(stem + period)` — a fresh tabulation minus its
    /// visited table — so the persistent solo store can afford to run it
    /// on *every* restored lasso before trusting one (docs/persistence.md:
    /// "degrade, never lie"). Never panics on a hostile lasso:
    /// out-of-range starts/nodes just fail the check.
    pub fn verify_solo(&self, t: &Tree, fsa: &Fsa) -> bool {
        let n = t.num_nodes();
        if fsa.max_degree < t.max_degree().max(1)
            || self.period == 0
            || (self.start as usize) >= n
            || self.cfgs.len() as u64 != self.stem + self.period
        {
            return false;
        }
        // Round `r` is `config_at(r)`: the tabulated rounds, then the wrap.
        let rounds = self.cfgs.len() as u64 + 1;
        check_steps(
            t,
            fsa,
            &[self.start],
            |_, _| true,
            rounds,
            |round, lanes| lanes[0].cfg == Some(self.config_at(round)),
        )
    }

    /// Wire-format version tag of [`SoloLasso::to_bytes`].
    pub const WIRE_VERSION: u32 = 1;

    /// Serializes the lasso into the versioned little-endian form
    /// [`SoloLasso::from_bytes`] reads back (self-delimiting; integrity
    /// checking is the caller's job).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28 + self.cfgs.len() * 13);
        out.extend_from_slice(&Self::WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.stem.to_le_bytes());
        out.extend_from_slice(&self.period.to_le_bytes());
        out.extend_from_slice(&(self.cfgs.len() as u32).to_le_bytes());
        for cfg in &self.cfgs {
            out.extend_from_slice(&cfg.state.to_le_bytes());
            out.extend_from_slice(&cfg.node.to_le_bytes());
            match cfg.entry {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserializes [`SoloLasso::to_bytes`] output, validating the lasso
    /// shape (`period ≥ 1`, exactly `stem + period` configurations, no
    /// trailing bytes) so a corrupted body that slipped past the caller's
    /// checksum cannot produce an ill-formed lasso. The node array twin is
    /// rebuilt, not trusted from the wire.
    pub fn from_bytes(bytes: &[u8]) -> Result<SoloLasso, String> {
        struct Cursor<'a> {
            bytes: &'a [u8],
            pos: usize,
        }
        impl Cursor<'_> {
            fn take(&mut self, len: usize) -> Result<&[u8], String> {
                let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
                let end = end.ok_or_else(|| "truncated lasso".to_string())?;
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            fn u32(&mut self) -> Result<u32, String> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
        }
        let mut r = Cursor { bytes, pos: 0 };
        let version = r.u32()?;
        if version != Self::WIRE_VERSION {
            return Err(format!("unsupported lasso wire version {version}"));
        }
        let start = r.u32()?;
        let stem = r.u64()?;
        let period = r.u64()?;
        let len = r.u32()? as u64;
        if period == 0 {
            return Err("lasso period must be at least 1".into());
        }
        if stem.checked_add(period) != Some(len) {
            return Err("lasso length must equal stem + period".into());
        }
        let mut cfgs = Vec::with_capacity((len as usize).min(1 << 16));
        for _ in 0..len {
            let state = r.u32()?;
            let node = r.u32()?;
            let entry = match r.take(1)?[0] {
                0 => None,
                1 => Some(r.u32()?),
                other => return Err(format!("bad entry flag {other}")),
            };
            cfgs.push(AgentCfg { state, node, entry });
        }
        if r.pos != bytes.len() {
            return Err("trailing bytes after lasso".into());
        }
        let nodes = cfgs.iter().map(|c| c.node).collect();
        Ok(SoloLasso { start, cfgs, nodes, stem, period })
    }
}

/// A machine-checkable "never meets" certificate: the joint configuration
/// [`Lasso::at_cycle`] is reached after round [`Lasso::stem`], recurs
/// exactly [`Lasso::period`] rounds later, and no round in
/// `0..=stem + period` co-locates the agents — hence no round ever does.
/// [`verify_lasso`] re-checks all three claims by independent stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lasso {
    /// Global round after which the certified cycle is entered.
    pub stem: u64,
    /// Cycle length in rounds.
    pub period: u64,
    /// The recurring joint configuration (A, B) after round `stem`.
    pub at_cycle: (AgentCfg, AgentCfg),
}

/// The decider's verdict for one `(pair, delay)` instance. No timeout arm
/// exists: the configuration graph is finite, so one of these always
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// First co-location happens at the end of `round` (0 = same start).
    Meets { round: u64 },
    /// Certified: no round ever co-locates the agents.
    NeverMeets { lasso: Lasso },
}

/// A decided instance: the verdict plus enough crossing bookkeeping to
/// reproduce the bounded simulator's row at any budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    pub verdict: Verdict,
    /// Global rounds with an edge crossing, over the explored horizon
    /// (through the meeting round, or through `stem + period`).
    crossing_rounds: Vec<u64>,
}

impl Decision {
    pub fn met(&self) -> bool {
        matches!(self.verdict, Verdict::Meets { .. })
    }

    /// Meeting round, `None` for certified never-meets.
    pub fn round(&self) -> Option<u64> {
        match self.verdict {
            Verdict::Meets { round } => Some(round),
            Verdict::NeverMeets { .. } => None,
        }
    }

    pub fn lasso(&self) -> Option<&Lasso> {
        match &self.verdict {
            Verdict::Meets { .. } => None,
            Verdict::NeverMeets { lasso } => Some(lasso),
        }
    }

    /// Crossings in rounds `1..=budget` — exactly what
    /// [`rvz_sim::run_pair`] counts with that round budget (for budgets
    /// that do not truncate a meeting). Along a certified cycle the
    /// crossing pattern is periodic, so arbitrary budgets are answered in
    /// closed form, never by walking rounds.
    pub fn crossings_within(&self, budget: u64) -> u64 {
        match self.verdict {
            Verdict::Meets { .. } => crossings_upto(&self.crossing_rounds, budget),
            Verdict::NeverMeets { lasso } => {
                crossings_closed_form(&self.crossing_rounds, lasso.stem, lasso.period, budget)
            }
        }
    }
}

/// Crossings recorded at rounds `≤ limit` (the explored prefix).
fn crossings_upto(crossing_rounds: &[u64], limit: u64) -> u64 {
    crossing_rounds.partition_point(|&r| r <= limit) as u64
}

/// Crossing count at an arbitrary budget from the explored
/// `stem + period` horizon of a certified lasso: the pattern is periodic
/// along the cycle, so huge budgets are answered in closed form. Shared by
/// the fixed-delay and scheduled deciders.
fn crossings_closed_form(crossing_rounds: &[u64], stem: u64, period: u64, budget: u64) -> u64 {
    let upto = |limit: u64| crossings_upto(crossing_rounds, limit);
    let explored = stem + period;
    if budget <= explored {
        return upto(budget);
    }
    let in_stem = upto(stem);
    let per_cycle = upto(explored) - in_stem;
    let past = budget - stem;
    let full_cycles = past / period;
    let partial = past % period;
    let in_partial = upto(stem + partial) - in_stem;
    in_stem + full_cycles * per_cycle + in_partial
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Decides one `(tree, pair, automaton, delay)` instance exactly — see the
/// module docs. Works for *any* start delay, however large: the
/// not-yet-started region is answered from A's solo lasso.
pub fn decide_pair(t: &Tree, fsa: &Fsa, a: NodeId, b: NodeId, delay: u64) -> Decision {
    decide_from_lassos(&SoloLasso::tabulate(t, fsa, a), &SoloLasso::tabulate(t, fsa, b), delay)
}

/// The product-lasso core (module docs, "The product-lasso closed form"):
/// decides a `(pair, delay)` instance from the two solo lassos alone.
/// Both lassos must come from the same tree and automaton; `solo_a` is the
/// immediately-started agent, `solo_b` the delayed one.
///
/// Byte-identical to walking the joint configuration graph with a visited
/// map — same verdicts, same `Lasso` fields, same crossing bookkeeping —
/// but the only allocation is the crossing list, and the scan length
/// `max(σ_A + 1, σ_B + θ + 1) + lcm(π_A, π_B) − θ` is the joint lasso
/// itself, which no exact method can avoid exploring.
pub fn decide_from_lassos(solo_a: &SoloLasso, solo_b: &SoloLasso, delay: u64) -> Decision {
    let (a, b) = (solo_a.start, solo_b.start);
    if a == b {
        return Decision { verdict: Verdict::Meets { round: 0 }, crossing_rounds: Vec::new() };
    }
    // Not-yet-started region: B is parked at home; A meets it there iff A's
    // solo walk reaches `b` within the delay. No crossings are possible
    // while only one agent moves.
    if let Some(tv) = solo_a.first_visit(b) {
        if tv <= delay {
            return Decision { verdict: Verdict::Meets { round: tv }, crossing_rounds: Vec::new() };
        }
    }
    // First repeat of the joint sequence z_r = (A_r, B_{r−θ}), in closed
    // form. Minimality: within one solo lasso all configurations are
    // distinct, so a joint repeat needs both components on their cycles
    // (stem) and both periods to divide the shift (period).
    let stem = (solo_a.stem + 1).max(solo_b.stem + delay + 1);
    let period = lcm(solo_a.period, solo_b.period);
    let horizon = stem + period;
    // Scan the joint lasso for the first co-location, tracking crossings.
    // Cursor indices walk the two flat node arrays directly, wrapping onto
    // each cycle, so the hot loop is two reads and three compares.
    let (a_nodes, b_nodes) = (&solo_a.nodes, &solo_b.nodes);
    let (a_wrap, b_wrap) = (a_nodes.len(), b_nodes.len());
    let mut ia = solo_a.lasso_index(delay + 1);
    let mut ib = 0usize; // round 1 for B
    let mut prev_a = solo_a.position(delay);
    let mut prev_b = b;
    let mut crossing_rounds = Vec::new();
    for r in delay + 1..=horizon {
        if r & 0xFFF == 0 {
            rvz_sim::cancel::checkpoint();
        }
        let na = a_nodes[ia];
        let nb = b_nodes[ib];
        if na == prev_b && nb == prev_a && na != nb {
            crossing_rounds.push(r);
        }
        if na == nb {
            return Decision { verdict: Verdict::Meets { round: r }, crossing_rounds };
        }
        prev_a = na;
        prev_b = nb;
        ia += 1;
        if ia == a_wrap {
            ia = solo_a.stem as usize;
        }
        ib += 1;
        if ib == b_wrap {
            ib = solo_b.stem as usize;
        }
    }
    let lasso =
        Lasso { stem, period, at_cycle: (solo_a.config_at(stem), solo_b.config_at(stem - delay)) };
    Decision { verdict: Verdict::NeverMeets { lasso }, crossing_rounds }
}

/// The universal (∀-delay) verdict for a pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorstCase {
    /// Rendezvous under *every* finite start delay. `worst_round` is the
    /// latest meeting round over the **distinct delay classes**, evaluated
    /// at each class's smallest representative `worst_delay` (whose full
    /// [`Decision`] is carried for crossing bookkeeping). This is the
    /// finite shift-invariant of the problem: when A's solo walk reaches
    /// B's home, every larger delay meets at that same absolute round,
    /// and when it never does, a delay `θ` in the class of representative
    /// `θ'` meets exactly `θ − θ'` rounds later — so the supremum over
    /// *all* delays is then unbounded and the class-wise value is the
    /// meaningful worst case. `delays_checked` counts the distinct delay
    /// classes decided (all larger delays collapse onto them).
    AllMeet { worst_delay: u64, worst_round: u64, delays_checked: u64, decision: Decision },
    /// Some delay defeats the pair; `decision` carries the certificate
    /// for the smallest such delay.
    Defeated { delay: u64, decision: Decision, delays_checked: u64 },
}

impl WorstCase {
    pub fn all_meet(&self) -> bool {
        matches!(self, WorstCase::AllMeet { .. })
    }
}

/// Decides ∀-delay rendezvous for `(tree, pair, automaton)` in one
/// fixed-point computation over the not-yet-started region: A's solo lasso
/// has finitely many configurations, so only `delay ∈ 0..distinct_delays`
/// can behave distinctly — and if A's solo walk ever reaches B's home (at
/// round `t`), every delay `≥ t` meets there, shrinking the quantified set
/// further. Each surviving delay class is decided budget-free by
/// [`decide_from_lassos`].
pub fn worst_case_delay(t: &Tree, fsa: &Fsa, a: NodeId, b: NodeId) -> WorstCase {
    if a == b {
        let meets_now =
            Decision { verdict: Verdict::Meets { round: 0 }, crossing_rounds: Vec::new() };
        return WorstCase::AllMeet {
            worst_delay: 0,
            worst_round: 0,
            delays_checked: 1,
            decision: meets_now,
        };
    }
    worst_case_from_lassos(&SoloLasso::tabulate(t, fsa, a), &SoloLasso::tabulate(t, fsa, b))
}

/// [`worst_case_delay`] from both solo lassos (same contract as
/// [`decide_from_lassos`]) — the sweep's decide executor shares one
/// tabulation per `(instance, start)` across the whole delay × pair
/// sub-grid. The starts must differ.
///
/// The delay classes are decided in delay order, so the result is defeat
/// at the *smallest* defeating delay, or the worst round with ties broken
/// toward the smallest delay.
pub fn worst_case_from_lassos(solo_a: &SoloLasso, solo_b: &SoloLasso) -> WorstCase {
    debug_assert_ne!(
        solo_a.start, solo_b.start,
        "same-start pairs are answered by worst_case_delay"
    );
    let first_home = solo_a.first_visit(solo_b.start);
    // Delays needing an individual decision; the tail class (≥ horizon) is
    // collapsed: it either meets at `first_home` or repeats a residue.
    let horizon = first_home.unwrap_or_else(|| solo_a.distinct_delays());
    let mut worst: Option<(u64, u64, Decision)> = None; // (round, delay, decision)
    let mut checked = 0u64;
    for delay in 0..horizon {
        let decision = decide_from_lassos(solo_a, solo_b, delay);
        checked += 1;
        match decision.verdict {
            Verdict::Meets { round } => {
                if worst.as_ref().is_none_or(|(r, _, _)| round > *r) {
                    worst = Some((round, delay, decision));
                }
            }
            Verdict::NeverMeets { .. } => {
                return WorstCase::Defeated { delay, decision, delays_checked: checked };
            }
        }
    }
    if let Some(tv) = first_home {
        // The collapsed tail class: every delay ≥ tv meets at round tv —
        // A steps onto the still-parked B, so no crossing precedes it.
        checked += 1;
        if worst.as_ref().is_none_or(|(r, _, _)| tv > *r) {
            let decision =
                Decision { verdict: Verdict::Meets { round: tv }, crossing_rounds: Vec::new() };
            worst = Some((tv, tv, decision));
        }
    }
    let (worst_round, worst_delay, decision) = worst.expect("at least one delay class");
    WorstCase::AllMeet { worst_delay, worst_round, delays_checked: checked, decision }
}

/// One scheduled activation step of one agent: `None` configurations are
/// agents that have not acted yet (first activation runs `step_first`).
#[inline]
fn step_opt(t: &Tree, fsa: &Fsa, start: NodeId, cfg: Option<AgentCfg>) -> AgentCfg {
    match cfg {
        None => step_first(t, fsa, start),
        Some(c) => step(t, fsa, c),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Open-addressed `key → first-seen round` map with linear probing: the
/// scheduled decider's visited set. Keys are packed product-configuration
/// indices (bounded by `(num_configs + 1)² · cycle_len`, so `u128` always
/// holds them); compared to a `HashMap` of configuration tuples this is
/// one flat probe into two dense arrays per round.
struct ProbeTable {
    keys: Vec<u128>,
    rounds: Vec<u64>,
    len: usize,
}

impl ProbeTable {
    const EMPTY: u128 = u128::MAX;

    fn new() -> Self {
        ProbeTable { keys: vec![Self::EMPTY; 64], rounds: vec![0; 64], len: 0 }
    }

    fn slot_of(&self, key: u128) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = splitmix64((key as u64) ^ splitmix64((key >> 64) as u64)) as usize & mask;
        while self.keys[i] != Self::EMPTY && self.keys[i] != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// Returns the prior round for `key`, or records `round` as its first.
    fn get_or_insert(&mut self, key: u128, round: u64) -> Option<u64> {
        debug_assert_ne!(key, Self::EMPTY);
        let i = self.slot_of(key);
        if self.keys[i] != Self::EMPTY {
            return Some(self.rounds[i]);
        }
        self.keys[i] = key;
        self.rounds[i] = round;
        self.len += 1;
        if self.len * 4 > self.keys.len() * 3 {
            self.grow();
        }
        None
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; new_cap]);
        let old_rounds = std::mem::replace(&mut self.rounds, vec![0; new_cap]);
        for (k, r) in old_keys.into_iter().zip(old_rounds) {
            if k != Self::EMPTY {
                let i = self.slot_of(k);
                self.keys[i] = k;
                self.rounds[i] = r;
            }
        }
    }
}

/// Decides one `(tree, pair, automaton, schedule)` instance exactly, with
/// **no round budget** — [`decide_ensemble`] at `k = 2` (lane 0 is A,
/// lane 1 is B).
pub fn decide_pair_scheduled(
    t: &Tree,
    fsa: &Fsa,
    a: NodeId,
    b: NodeId,
    sched: &EnsembleSchedule,
) -> EnsembleDecision {
    decide_ensemble(t, fsa, &[a, b], sched)
}

/// Independently re-checks a pair's never-meets certificate under a
/// two-lane schedule — [`verify_ensemble_lasso`] at `k = 2`.
pub fn verify_schedule_lasso(
    t: &Tree,
    fsa: &Fsa,
    a: NodeId,
    b: NodeId,
    sched: &EnsembleSchedule,
    lasso: &EnsembleLasso,
) -> bool {
    verify_ensemble_lasso(t, fsa, &[a, b], sched, lasso)
}

/// Independently re-checks a [`Lasso`] certificate: the two-lane case of
/// [`verify_delayed_ensemble_lasso`], with lane delays `[0, delay]`. It
/// steps `stem + period` rounds, asserting (1) no co-location at any
/// round `0..=stem + period`, (2) the joint configuration after round
/// `stem` (past the delay) equals `at_cycle`, and (3) it recurs after
/// round `stem + period`, with `period ≥ 1` (a zero period claims no
/// recurrence at all). Linear in `stem + period` — meant for certificates
/// over the moderate absolute rounds the grids produce.
pub fn verify_lasso(t: &Tree, fsa: &Fsa, a: NodeId, b: NodeId, delay: u64, lasso: &Lasso) -> bool {
    let delays = [0, delay];
    let at_cycle = [Some(lasso.at_cycle.0), Some(lasso.at_cycle.1)];
    let claim = (lasso.stem, lasso.period, &at_cycle[..]);
    verify_lanes(t, fsa, &[a, b], |round, lane| round > delays[lane], (delay, 1), claim)
}

/// A machine-checkable "never gathers" certificate — at `k = 2`, "never
/// meets" under a schedule. The recurring joint state is the vector of
/// per-lane configurations (`None` = not yet activated; a lane the
/// schedule never wakes recurs as `None` forever) at equal cycle positions
/// of the [`EnsembleSchedule`]: the product construction extends the
/// configuration with the schedule's cycle index, so a repeat implies the
/// whole future repeats, and if no round through `stem + period`
/// co-locates *all* `k` agents, none ever does. [`verify_ensemble_lasso`]
/// re-checks every claim by independent k-lane stepping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleLasso {
    /// Global round after which the certified cycle is entered (always
    /// past the schedule's prefix).
    pub stem: u64,
    /// Cycle length in rounds; a multiple of the schedule's cycle length.
    pub period: u64,
    /// The recurring joint configuration, one entry per lane, after round
    /// `stem`.
    pub at_cycle: Vec<Option<AgentCfg>>,
}

/// The ensemble decider's verdict. `Meets` is **gathering**: all `k`
/// agents on one node at a round boundary — rendezvous is its `k = 2`
/// case. No timeout arm, as with [`Verdict`]: the product of `k` finite
/// configuration spaces and the cycle positions is finite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnsembleVerdict {
    /// First gathering at the end of `round` (0 = all starts coincide).
    Meets { round: u64 },
    /// Certified: no round ever co-locates all `k` agents.
    NeverMeets { lasso: EnsembleLasso },
}

/// A decided `(starts, ensemble schedule)` instance, with the crossing and
/// pairwise-meeting bookkeeping needed to reproduce
/// [`rvz_sim::run_ensemble`]'s row at any budget — the schedule-axis
/// sibling of the fixed-delay [`Decision`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleDecision {
    pub verdict: EnsembleVerdict,
    /// Global rounds with an edge crossing over the explored horizon, one
    /// entry per crossing *pair* (a k-lane round can hold several).
    crossing_rounds: Vec<u64>,
    /// First co-location round per unordered lane pair, in
    /// [`rvz_sim::pair_index`] layout, over the explored horizon. For a
    /// `NeverMeets` verdict this is complete: positions repeat along the
    /// certified cycle, so a pair that has not met by `stem + period`
    /// never meets.
    pair_meetings: Vec<Option<u64>>,
}

impl EnsembleDecision {
    pub fn met(&self) -> bool {
        matches!(self.verdict, EnsembleVerdict::Meets { .. })
    }

    /// Gathering round, `None` for certified never-gathers.
    pub fn round(&self) -> Option<u64> {
        match self.verdict {
            EnsembleVerdict::Meets { round } => Some(round),
            EnsembleVerdict::NeverMeets { .. } => None,
        }
    }

    pub fn lasso(&self) -> Option<&EnsembleLasso> {
        match &self.verdict {
            EnsembleVerdict::Meets { .. } => None,
            EnsembleVerdict::NeverMeets { lasso } => Some(lasso),
        }
    }

    /// First co-location round per unordered lane pair
    /// ([`rvz_sim::pair_index`] layout) over the explored horizon.
    pub fn pair_meetings(&self) -> &[Option<u64>] {
        &self.pair_meetings
    }

    /// Crossings in rounds `1..=budget` — what [`rvz_sim::run_ensemble`]
    /// counts with that budget (for budgets that do not truncate a
    /// gathering); closed-form along a certified cycle exactly as
    /// [`Decision::crossings_within`].
    pub fn crossings_within(&self, budget: u64) -> u64 {
        match &self.verdict {
            EnsembleVerdict::Meets { .. } => crossings_upto(&self.crossing_rounds, budget),
            EnsembleVerdict::NeverMeets { lasso } => {
                crossings_closed_form(&self.crossing_rounds, lasso.stem, lasso.period, budget)
            }
        }
    }
}

/// Records round-`round` co-locations of `nodes` into the unordered-pair
/// first-meeting table and reports whether *all* lanes coincide — the
/// decider's twin of the runner's gathering predicate.
fn note_meetings(nodes: &[NodeId], round: u64, pair_meetings: &mut [Option<u64>]) -> bool {
    let k = nodes.len();
    let mut gathered = true;
    for i in 0..k {
        for j in i + 1..k {
            if nodes[i] == nodes[j] {
                pair_meetings[pair_index(k, i, j)].get_or_insert(round);
            } else {
                gathered = false;
            }
        }
    }
    gathered
}

/// Pushes one crossing-round entry per lane pair that swapped nodes this
/// round (crossing inside an edge — not a meeting).
fn note_crossings(nodes: &[NodeId], prev: &[NodeId], round: u64, crossing_rounds: &mut Vec<u64>) {
    let k = nodes.len();
    for i in 0..k {
        for j in i + 1..k {
            if nodes[i] == prev[j] && nodes[j] == prev[i] && nodes[i] != nodes[j] {
                crossing_rounds.push(round);
            }
        }
    }
}

/// The k-lane product-lasso closed form: decides a `(starts, delays)`
/// ensemble instance from the per-lane solo lassos alone — the k-lane
/// sibling of [`decide_from_lassos`], and the entry point through which
/// the sweep's persistent solo cache is reused lane by lane. All lassos
/// must come from the same tree and automaton; `delays[i]` is lane `i`'s
/// start delay.
///
/// Under pure start delays the agents never perceive each other, so the
/// joint trajectory is the product of `k` independent solo trajectories
/// `z_r = (L0_r, L1_{r−θ_1}, …)`; its first repeat is at
/// `stem = max_i(σ_i + θ_i + 1)`, `period = lcm_i(π_i)` by the
/// distinctness argument of the pair closed form, applied per lane. The
/// scan walks rounds `1..=stem + period` checking gathering and pairwise
/// crossings; at `k = 2` the verdicts, certificates, and crossing lists
/// are identical to [`decide_from_lassos`]'s.
pub fn decide_ensemble_from_lassos(lassos: &[&SoloLasso], delays: &[u64]) -> EnsembleDecision {
    let k = lassos.len();
    assert!(k >= 2, "an ensemble has at least two lanes");
    assert_eq!(delays.len(), k, "one delay per lane");
    let starts: Vec<NodeId> = lassos.iter().map(|l| l.start).collect();
    let mut pair_meetings = vec![None; k * (k - 1) / 2];
    let mut crossing_rounds = Vec::new();
    if note_meetings(&starts, 0, &mut pair_meetings) {
        return EnsembleDecision {
            verdict: EnsembleVerdict::Meets { round: 0 },
            crossing_rounds,
            pair_meetings,
        };
    }
    let stem = (0..k).map(|i| lassos[i].stem + delays[i] + 1).max().expect("k >= 2");
    let period = lassos.iter().map(|l| l.period).fold(1, lcm);
    let horizon = stem + period;
    let mut prev = starts.clone();
    let mut nodes = starts;
    for r in 1..=horizon {
        if r & 0xFFF == 0 {
            rvz_sim::cancel::checkpoint();
        }
        for i in 0..k {
            nodes[i] = lassos[i].position(r.saturating_sub(delays[i]));
        }
        note_crossings(&nodes, &prev, r, &mut crossing_rounds);
        if note_meetings(&nodes, r, &mut pair_meetings) {
            return EnsembleDecision {
                verdict: EnsembleVerdict::Meets { round: r },
                crossing_rounds,
                pair_meetings,
            };
        }
        prev.copy_from_slice(&nodes);
    }
    let at_cycle = (0..k).map(|i| Some(lassos[i].config_at(stem - delays[i]))).collect();
    EnsembleDecision {
        verdict: EnsembleVerdict::NeverMeets { lasso: EnsembleLasso { stem, period, at_cycle } },
        crossing_rounds,
        pair_meetings,
    }
}

/// Decides one `(tree, starts, automaton, ensemble schedule)` instance
/// exactly, with **no round budget**: walks the product configuration
/// graph `([Option<AgentCfg>; k], cycle_idx)` with a packed `u128`
/// visited key per round past the prefix, terminating within
/// `prefix + cycle · (|C| + 1)^k` rounds (in practice orders of magnitude
/// earlier). Under pure start delays the solo-lasso closed form
/// [`decide_ensemble_from_lassos`] returns the same decision without the
/// visited set, from lassos tabulated once per start.
pub fn decide_ensemble(
    t: &Tree,
    fsa: &Fsa,
    starts: &[NodeId],
    sched: &EnsembleSchedule,
) -> EnsembleDecision {
    assert_eq!(starts.len(), sched.lanes(), "one start per schedule lane");
    let k = starts.len();
    assert!(k >= 2, "an ensemble has at least two lanes");
    let p = sched.prefix_len();
    let c = sched.cycle_len();
    let n = t.num_nodes();
    // Packed product key: `None` (not yet activated) is 0, any real
    // configuration is `1 + config_index`; one base-`stride` digit per
    // lane, then the cycle position. The capacity check keeps the packing
    // honest for large k — the caller must shrink the instance, not get a
    // silently colliding table.
    let stride = fsa.num_configs(n) as u128 + 1;
    let mut capacity = c as u128;
    for _ in 0..k {
        capacity = capacity
            .checked_mul(stride)
            .expect("ensemble product key space exceeds u128; reduce the lane count or tree");
    }
    let opt_index = |cfg: Option<AgentCfg>| -> u128 {
        match cfg {
            None => 0,
            Some(cfg) => 1 + fsa.config_index(cfg.state, cfg.node, cfg.entry, n) as u128,
        }
    };
    let mut pair_meetings = vec![None; k * (k - 1) / 2];
    let mut crossing_rounds = Vec::new();
    let mut nodes = starts.to_vec();
    if note_meetings(&nodes, 0, &mut pair_meetings) {
        return EnsembleDecision {
            verdict: EnsembleVerdict::Meets { round: 0 },
            crossing_rounds,
            pair_meetings,
        };
    }
    let mut cfgs: Vec<Option<AgentCfg>> = vec![None; k];
    let mut prev = nodes.clone();
    let mut seen = ProbeTable::new();
    let mut round = 0u64;
    loop {
        round += 1;
        if round & 0xFFF == 0 {
            rvz_sim::cancel::checkpoint();
        }
        let flags = sched.active(round);
        prev.copy_from_slice(&nodes);
        for i in 0..k {
            if flags[i] {
                let next = step_opt(t, fsa, starts[i], cfgs[i]);
                cfgs[i] = Some(next);
                nodes[i] = next.node;
            }
        }
        note_crossings(&nodes, &prev, round, &mut crossing_rounds);
        if note_meetings(&nodes, round, &mut pair_meetings) {
            return EnsembleDecision {
                verdict: EnsembleVerdict::Meets { round },
                crossing_rounds,
                pair_meetings,
            };
        }
        if round > p {
            let cycle_idx = (round - 1 - p) % c;
            let mut key = 0u128;
            for &cfg in &cfgs {
                key = key * stride + opt_index(cfg);
            }
            key = key * c as u128 + cycle_idx as u128;
            if let Some(entry_round) = seen.get_or_insert(key, round) {
                let lasso = EnsembleLasso {
                    stem: entry_round,
                    period: round - entry_round,
                    at_cycle: cfgs,
                };
                crossing_rounds.retain(|&r| r <= lasso.stem + lasso.period);
                return EnsembleDecision {
                    verdict: EnsembleVerdict::NeverMeets { lasso },
                    crossing_rounds,
                    pair_meetings,
                };
            }
        }
    }
}

/// Independently re-checks an [`EnsembleLasso`] certificate by k-lane
/// scheduled stepping in the checkers' own loop — one [`FsaRunner`] over
/// a [`Cursor`] per lane, never the decider's step helpers: (1) the
/// structural claims (stem past the prefix, period a positive multiple of
/// the cycle length); (2) no round in `0..=stem + period` co-locates
/// *all* `k` agents; (3) the joint configuration after round `stem`
/// equals `at_cycle` and recurs after round `stem + period`. Never panics
/// on a hostile certificate.
pub fn verify_ensemble_lasso(
    t: &Tree,
    fsa: &Fsa,
    starts: &[NodeId],
    sched: &EnsembleSchedule,
    lasso: &EnsembleLasso,
) -> bool {
    starts.len() == sched.lanes()
        && verify_lanes(
            t,
            fsa,
            starts,
            |round, lane| sched.active(round)[lane],
            (sched.prefix_len(), sched.cycle_len()),
            (lasso.stem, lasso.period, &lasso.at_cycle),
        )
}

/// [`verify_ensemble_lasso`] for the start-delay certificates of
/// [`decide_ensemble_from_lassos`]: lane `i` is frozen through round
/// `delays[i]`, taken as an integer, so no delay is too large to check.
pub fn verify_delayed_ensemble_lasso(
    t: &Tree,
    fsa: &Fsa,
    starts: &[NodeId],
    delays: &[u64],
    lasso: &EnsembleLasso,
) -> bool {
    let prefix = delays.iter().copied().max().unwrap_or(0);
    let claim = (lasso.stem, lasso.period, &lasso.at_cycle[..]);
    starts.len() == delays.len()
        && verify_lanes(t, fsa, starts, |round, lane| round > delays[lane], (prefix, 1), claim)
}

/// The shared re-check of every lasso certificate: `active(round, lane)`
/// is the activation rule, `(prefix, cycle)` its prefix and cycle lengths,
/// and `(stem, period, at_cycle)` the lasso's claim. A gathering in any
/// round `0..=stem + period` makes the certificate bogus.
fn verify_lanes(
    t: &Tree,
    fsa: &Fsa,
    starts: &[NodeId],
    active: impl Fn(u64, usize) -> bool,
    (prefix, cycle): (u64, u64),
    (stem, period, at_cycle): (u64, u64, &[Option<AgentCfg>]),
) -> bool {
    if at_cycle.len() != starts.len()
        || period == 0
        || stem <= prefix
        || !period.is_multiple_of(cycle)
        || starts.iter().all(|&s| s == starts[0])
    {
        return false;
    }
    let end = stem + period;
    check_steps(t, fsa, starts, active, end, |round, lanes| {
        let gathered = lanes.iter().all(|lane| lane.cursor.node == lanes[0].cursor.node);
        let claim_holds = round != stem && round != end
            || lanes.iter().map(|lane| lane.cfg).eq(at_cycle.iter().copied());
        !gathered && claim_holds
    })
}

/// One lane of [`check_steps`].
struct CheckLane<'a> {
    runner: FsaRunner<'a>,
    cursor: Cursor,
    /// The configuration after the lane's last activation, `None` before
    /// its first.
    cfg: Option<AgentCfg>,
}

/// The checkers' one stepping loop, sharing nothing with the decider but
/// the tree and the automaton table: each lane is an [`FsaRunner`] over a
/// [`Cursor`], and lane `i` acts in round `r` iff `active(r, i)`. After
/// each round `1..=rounds`, `visit` sees the lanes, whose configurations
/// are read back as [`AgentCfg`] only to be compared with a lasso; the
/// loop stops, returning `false`, at the first round `visit` rejects.
fn check_steps(
    t: &Tree,
    fsa: &Fsa,
    starts: &[NodeId],
    active: impl Fn(u64, usize) -> bool,
    rounds: u64,
    visit: impl Fn(u64, &[CheckLane<'_>]) -> bool,
) -> bool {
    let mut lanes: Vec<CheckLane<'_>> = starts
        .iter()
        .map(|&start| CheckLane { runner: fsa.runner(), cursor: Cursor::new(start), cfg: None })
        .collect();
    for round in 1..=rounds {
        if round & 0xFFF == 0 {
            rvz_sim::cancel::checkpoint();
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            if active(round, i) {
                let action = lane.runner.act(lane.cursor.obs(t));
                lane.cursor.apply(t, action);
                let Cursor { node, entry } = lane.cursor;
                lane.cfg = Some(AgentCfg { state: lane.runner.state(), node, entry });
            }
        }
        if !visit(round, &lanes) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rvz_sim::{run_ensemble_fsa, run_pair, Outcome, PairConfig};
    use rvz_trees::generators::{colored_line, line, random_tree, spider, star};

    fn bw(t: &Tree) -> Fsa {
        Fsa::basic_walk(t.max_degree().max(1))
    }

    /// The decider against the bounded simulator, on a horizon that the
    /// instance is known to decide within.
    fn assert_matches_sim(t: &Tree, fsa: &Fsa, a: NodeId, b: NodeId, delay: u64, budget: u64) {
        let decision = decide_pair(t, fsa, a, b, delay);
        let mut x = fsa.runner();
        let mut y = fsa.runner();
        let run = run_pair(t, a, b, &mut x, &mut y, PairConfig::delayed(delay, budget));
        match run.outcome {
            Outcome::Met { round, .. } => {
                assert_eq!(decision.round(), Some(round), "a={a} b={b} θ={delay}");
            }
            Outcome::Timeout { .. } => {
                assert!(!decision.met(), "sim timed out but decider met: a={a} b={b} θ={delay}");
            }
        }
        assert_eq!(
            decision.crossings_within(decision.round().unwrap_or(budget)),
            run.crossings,
            "crossing count diverged: a={a} b={b} θ={delay}"
        );
    }

    #[test]
    fn single_edge_pair_is_certified_never_meets() {
        // Two basic walkers on one edge shuttle and cross forever.
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        let d = decide_pair(&t, &fsa, 0, 1, 0);
        let lasso = *d.lasso().expect("never meets");
        assert!(lasso.period >= 1);
        assert!(verify_lasso(&t, &fsa, 0, 1, 0, &lasso));
        // Crossings at any budget: they cross every round.
        assert_eq!(d.crossings_within(10), 10);
        assert_eq!(d.crossings_within(1_000_000_007), 1_000_000_007);
    }

    #[test]
    fn tampered_lassos_are_rejected() {
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        let d = decide_pair(&t, &fsa, 0, 1, 0);
        let good = *d.lasso().unwrap();
        let mut bad = good;
        bad.period += 1;
        assert!(!verify_lasso(&t, &fsa, 0, 1, 0, &bad));
        let mut swapped = good;
        swapped.at_cycle = (good.at_cycle.1, good.at_cycle.0);
        // On this symmetric instance the swapped configuration differs.
        assert_ne!(swapped.at_cycle, good.at_cycle);
        assert!(!verify_lasso(&t, &fsa, 0, 1, 0, &swapped));
        // A zero period claims no recurrence: the configuration at the
        // stem trivially "recurs" zero rounds later.
        let mut zero = good;
        zero.period = 0;
        assert!(!verify_lasso(&t, &fsa, 0, 1, 0, &zero));
        // Not even a pair that meets may hide behind one: on line(4) the
        // walkers from 1 and 3 meet at round 2, but a stem of 1 with no
        // period stops the re-check before the meeting.
        let t = line(4);
        let fsa = bw(&t);
        assert_eq!(decide_pair(&t, &fsa, 1, 3, 0).round(), Some(2));
        let at_cycle = (step_first(&t, &fsa, 1), step_first(&t, &fsa, 3));
        let premature = Lasso { stem: 1, period: 0, at_cycle };
        assert!(!verify_lasso(&t, &fsa, 1, 3, 0, &premature));
    }

    #[test]
    fn meets_agree_with_simulation_across_delays() {
        for t in [line(9), spider(3, 3), star(5)] {
            let fsa = bw(&t);
            let n = t.num_nodes() as NodeId;
            for delay in [0u64, 1, 2, 5, 40] {
                for a in 0..n.min(4) {
                    for b in 0..n {
                        if a != b {
                            // θ + two joint Euler periods decides a basic
                            // walk; pad generously, it is still tiny.
                            let budget = delay + 8 * t.num_nodes() as u64 + 4;
                            assert_matches_sim(&t, &fsa, a, b, delay, budget);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_automata_agree_with_simulation() {
        // The decider is for arbitrary FSAs, stays included.
        let mut rng = StdRng::seed_from_u64(20100613);
        for trial in 0..30 {
            let t = random_tree(3 + (trial % 9), &mut rng);
            let fsa = Fsa::random(1 + trial % 5, t.max_degree().max(1), 0.3, &mut rng);
            let n = t.num_nodes() as NodeId;
            for delay in [0u64, 3] {
                for (a, b) in [(0, n - 1), (n - 1, 0), (0, n / 2)] {
                    if a != b {
                        assert_matches_sim(&t, &fsa, a, b, delay, 100_000);
                    }
                }
            }
        }
    }

    #[test]
    fn huge_delay_meets_at_home_without_walking_rounds() {
        // A's basic walk reaches B's home at a small round; a cosmic delay
        // must be answered instantly from the solo lasso.
        let t = line(9);
        let fsa = bw(&t);
        let d = decide_pair(&t, &fsa, 0, 6, u64::MAX / 2);
        assert_eq!(d.round(), Some(6));
    }

    #[test]
    fn worst_case_matches_brute_force_scan() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let t = random_tree(7, &mut rng);
            let fsa = bw(&t);
            let n = t.num_nodes() as NodeId;
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let wc = worst_case_delay(&t, &fsa, a, b);
                    // Brute force: every delay up to a horizon comfortably
                    // past the solo lasso.
                    let solo = SoloLasso::tabulate(&t, &fsa, a);
                    let solo_b = SoloLasso::tabulate(&t, &fsa, b);
                    let horizon = solo.distinct_delays() + 2 * solo.period.max(1);
                    let mut brute_all_meet = true;
                    let mut brute_worst = 0u64;
                    for delay in 0..horizon {
                        match decide_from_lassos(&solo, &solo_b, delay).verdict {
                            Verdict::Meets { round } => brute_worst = brute_worst.max(round),
                            Verdict::NeverMeets { .. } => {
                                brute_all_meet = false;
                                break;
                            }
                        }
                    }
                    match wc {
                        WorstCase::AllMeet { worst_round, .. } => {
                            assert!(brute_all_meet, "quantifier said all-meet, scan disagrees");
                            assert_eq!(worst_round, brute_worst);
                        }
                        WorstCase::Defeated { delay, ref decision, .. } => {
                            assert!(!brute_all_meet || delay >= horizon);
                            let lasso = decision.lasso().expect("defeat carries a lasso");
                            assert!(verify_lasso(&t, &fsa, a, b, delay, lasso));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn worst_case_defeat_on_the_symmetric_edge() {
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        match worst_case_delay(&t, &fsa, 0, 1) {
            WorstCase::Defeated { delay, decision, .. } => {
                assert_eq!(delay, 0, "already defeated with no delay");
                assert!(verify_lasso(&t, &fsa, 0, 1, delay, decision.lasso().unwrap()));
            }
            WorstCase::AllMeet { .. } => panic!("the single edge defeats the basic walk"),
        }
    }

    #[test]
    fn scheduled_decider_agrees_with_scheduled_simulation() {
        let schedules = [
            EnsembleSchedule::simultaneous(2),
            EnsembleSchedule::start_delays(&[0, 2]),
            EnsembleSchedule::intermittent_last(2, 2, 0),
            EnsembleSchedule::intermittent_last(2, 3, 1),
            EnsembleSchedule::crash_last_after(2, 3),
            EnsembleSchedule::adversarial(0xD0_0D, 5, 4),
        ];
        let mut rng = StdRng::seed_from_u64(1013);
        for trial in 0..12 {
            let t = random_tree(3 + (trial % 6), &mut rng);
            let n = t.num_nodes() as NodeId;
            for fsa in [bw(&t), Fsa::random(1 + trial % 4, t.max_degree().max(1), 0.3, &mut rng)] {
                for sched in &schedules {
                    for (a, b) in [(0, n - 1), (n - 1, 0), (0, n / 2)] {
                        if a == b {
                            continue;
                        }
                        let decision = decide_pair_scheduled(&t, &fsa, a, b, sched);
                        if let Some(lasso) = decision.lasso() {
                            assert!(
                                verify_schedule_lasso(&t, &fsa, a, b, sched, lasso),
                                "lasso failed re-verification: {sched:?} ({a},{b})"
                            );
                        }
                        let budget = 50_000u64;
                        let mut agents = [fsa.runner(), fsa.runner()];
                        let run = run_ensemble_fsa(&t, &[a, b], &mut agents, sched, budget, false);
                        match run.outcome {
                            Outcome::Met { round, .. } => {
                                assert_eq!(decision.round(), Some(round), "{sched:?} ({a},{b})");
                                assert_eq!(decision.crossings_within(round), run.crossings);
                            }
                            Outcome::Timeout { .. } => {
                                assert!(
                                    decision.round().is_none_or(|r| r > budget),
                                    "sim timed out before a decided meeting: {sched:?} ({a},{b})"
                                );
                                if !decision.met() {
                                    assert_eq!(
                                        decision.crossings_within(budget),
                                        run.crossings,
                                        "closed-form crossings diverged: {sched:?} ({a},{b})"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn start_delay_schedules_match_the_fixed_delay_decider() {
        let t = spider(3, 3);
        let fsa = bw(&t);
        let n = t.num_nodes() as NodeId;
        for delay in [0u64, 1, 4, 11] {
            for b in 1..n {
                let fixed = decide_pair(&t, &fsa, 0, b, delay);
                let sched = EnsembleSchedule::start_delays(&[0, delay]);
                let scheduled = decide_pair_scheduled(&t, &fsa, 0, b, &sched);
                assert_eq!(fixed.round(), scheduled.round(), "θ={delay} b={b}");
                for budget in [10u64, 100, 1_000_000_007] {
                    if !fixed.met() {
                        assert_eq!(
                            fixed.crossings_within(budget),
                            scheduled.crossings_within(budget),
                            "θ={delay} b={b} budget={budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn intermittence_breaks_the_shuttle_parity() {
        // The single-edge shuttle never meets simultaneously (parity), but
        // slowing one agent to half speed breaks the parity invariant: a
        // round in which only A moves lands it on the frozen B.
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        let sim = decide_pair_scheduled(&t, &fsa, 0, 1, &EnsembleSchedule::simultaneous(2));
        assert!(!sim.met(), "the simultaneous shuttle crosses forever");
        let half =
            decide_pair_scheduled(&t, &fsa, 0, 1, &EnsembleSchedule::intermittent_last(2, 2, 0));
        assert_eq!(half.round(), Some(2), "A's solo round lands on the frozen B");
    }

    #[test]
    fn tampered_schedule_lassos_are_rejected() {
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        // The real shuttle: a moving never-meets certificate.
        let sim = EnsembleSchedule::simultaneous(2);
        let d = decide_pair_scheduled(&t, &fsa, 0, 1, &sim);
        let good = d.lasso().cloned().expect("two walkers on one edge never meet");
        assert!(verify_schedule_lasso(&t, &fsa, 0, 1, &sim, &good));
        let mut bad = good.clone();
        bad.period += 1; // recurrence no longer holds at the claimed round
        assert!(!verify_schedule_lasso(&t, &fsa, 0, 1, &sim, &bad));
        let mut shifted = good.clone();
        shifted.stem = 0; // structurally invalid: inside the (empty) prefix
        assert!(!verify_schedule_lasso(&t, &fsa, 0, 1, &sim, &shifted));
        let mut wrong_cfg = good.clone();
        wrong_cfg.at_cycle[0] = None; // claims A never started
        assert!(!verify_schedule_lasso(&t, &fsa, 0, 1, &sim, &wrong_cfg));
        // A frozen 2-cycle: the certified period must stay a multiple of
        // the cycle length, or the cycle-position recurrence proves
        // nothing — the verifier rejects an odd period structurally.
        let frozen = EnsembleSchedule::new(2, Vec::new(), vec![vec![false, false]; 2]);
        let d2 = decide_pair_scheduled(&t, &fsa, 0, 1, &frozen);
        let good2 = d2.lasso().cloned().expect("frozen agents at distinct starts never meet");
        assert!(good2.period.is_multiple_of(2));
        assert!(verify_schedule_lasso(&t, &fsa, 0, 1, &frozen, &good2));
        let mut odd = good2;
        odd.period += 1;
        assert!(!verify_schedule_lasso(&t, &fsa, 0, 1, &frozen, &odd));
    }

    #[test]
    fn scheduled_decisions_certify_defeats_and_time_meetings() {
        let t = line(9);
        let fsa = bw(&t);
        // θ ≤ 1 defeats the basic walk on every feasible pair (the e9
        // certified result), and the defeat carries a lasso that verifies…
        let class = [EnsembleSchedule::simultaneous(2), EnsembleSchedule::start_delays(&[0, 1])];
        let (sched, decision) = class
            .iter()
            .map(|sched| (sched, decide_pair_scheduled(&t, &fsa, 0, 5, sched)))
            .find(|(_, decision)| !decision.met())
            .expect("θ ≤ 1 must defeat the basic walk");
        let lasso = decision.lasso().expect("defeat carries a lasso");
        assert!(verify_schedule_lasso(&t, &fsa, 0, 5, sched, lasso));
        // …while with B crashed at its start, A's endpoint walk needs
        // exactly 5 rounds to step onto node 5.
        let crashed = EnsembleSchedule::crash_last_after(2, 0);
        assert_eq!(decide_pair_scheduled(&t, &fsa, 0, 5, &crashed).round(), Some(5));
    }

    /// The historical decider: the explicit joint-configuration walk with a
    /// hash-map visited set. Kept verbatim as the differential oracle for
    /// the product-lasso closed form.
    fn naive_walk(t: &Tree, fsa: &Fsa, solo: &SoloLasso, b: NodeId, delay: u64) -> Decision {
        use std::collections::HashMap;
        let a = solo.start;
        if a == b {
            return Decision { verdict: Verdict::Meets { round: 0 }, crossing_rounds: Vec::new() };
        }
        if let Some(tv) = solo.first_visit(b) {
            if tv <= delay {
                return Decision {
                    verdict: Verdict::Meets { round: tv },
                    crossing_rounds: Vec::new(),
                };
            }
        }
        let mut prev_a = solo.position(delay);
        let mut prev_b = b;
        let mut cfg_a: Option<AgentCfg> = (delay >= 1).then(|| solo.config_at(delay));
        let mut cfg_b: Option<AgentCfg> = None;
        let mut crossing_rounds = Vec::new();
        let mut seen: HashMap<(AgentCfg, AgentCfg), u64> = HashMap::new();
        let mut round = delay;
        loop {
            round += 1;
            let na = match cfg_a {
                None => step_first(t, fsa, a),
                Some(c) => step(t, fsa, c),
            };
            let nb = match cfg_b {
                None => step_first(t, fsa, b),
                Some(c) => step(t, fsa, c),
            };
            if na.node == prev_b && nb.node == prev_a && na.node != nb.node {
                crossing_rounds.push(round);
            }
            if na.node == nb.node {
                return Decision { verdict: Verdict::Meets { round }, crossing_rounds };
            }
            if let Some(&entry_round) = seen.get(&(na, nb)) {
                let lasso =
                    Lasso { stem: entry_round, period: round - entry_round, at_cycle: (na, nb) };
                crossing_rounds.retain(|&r| r <= lasso.stem + lasso.period);
                return Decision { verdict: Verdict::NeverMeets { lasso }, crossing_rounds };
            }
            seen.insert((na, nb), round);
            prev_a = na.node;
            prev_b = nb.node;
            cfg_a = Some(na);
            cfg_b = Some(nb);
        }
    }

    #[test]
    fn product_lasso_matches_naive_walk() {
        // Full Decision equality — verdict, every Lasso field, and the raw
        // crossing list — between the closed form and the historical
        // hash-map walk, across trees, automata, and delays.
        let mut rng = StdRng::seed_from_u64(0xFA16);
        for trial in 0..24 {
            let t = random_tree(3 + (trial % 10), &mut rng);
            let n = t.num_nodes() as NodeId;
            for fsa in [bw(&t), Fsa::random(1 + trial % 5, t.max_degree().max(1), 0.3, &mut rng)] {
                for a in 0..n.min(5) {
                    let solo_a = SoloLasso::tabulate(&t, &fsa, a);
                    for b in 0..n {
                        if a == b {
                            continue;
                        }
                        let solo_b = SoloLasso::tabulate(&t, &fsa, b);
                        for delay in [0u64, 1, 2, 3, 7, 19, 1_000_003] {
                            let new = decide_from_lassos(&solo_a, &solo_b, delay);
                            let old = naive_walk(&t, &fsa, &solo_a, b, delay);
                            assert_eq!(new.verdict, old.verdict, "a={a} b={b} θ={delay}");
                            assert_eq!(
                                new.crossing_rounds, old.crossing_rounds,
                                "a={a} b={b} θ={delay}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantifier_matches_a_sequential_scan_on_a_long_line() {
        // line(40) from an endpoint: first_visit(39) = 39 delay classes.
        // The quantifier must equal a hand-rolled scan over every class
        // exactly.
        let t = line(40);
        let fsa = bw(&t);
        for (a, b) in [(0u32, 39u32), (39, 0), (1, 39)] {
            let solo_a = SoloLasso::tabulate(&t, &fsa, a);
            let solo_b = SoloLasso::tabulate(&t, &fsa, b);
            let first_home = solo_a.first_visit(b);
            let horizon = first_home.unwrap_or_else(|| solo_a.distinct_delays());
            let quantified = worst_case_from_lassos(&solo_a, &solo_b);
            // Sequential oracle.
            let mut worst: Option<(u64, u64)> = None;
            let mut defeat: Option<(u64, u64)> = None; // (delay, checked)
            let mut checked = 0u64;
            for delay in 0..horizon {
                checked += 1;
                match decide_from_lassos(&solo_a, &solo_b, delay).verdict {
                    Verdict::Meets { round } => {
                        if worst.is_none_or(|(r, _)| round > r) {
                            worst = Some((round, delay));
                        }
                    }
                    Verdict::NeverMeets { .. } => {
                        defeat = Some((delay, checked));
                        break;
                    }
                }
            }
            match (quantified, defeat) {
                (WorstCase::Defeated { delay, delays_checked, .. }, Some((d, c))) => {
                    assert_eq!((delay, delays_checked), (d, c), "a={a} b={b}");
                }
                (WorstCase::AllMeet { worst_delay, worst_round, delays_checked, .. }, None) => {
                    if let Some(tv) = first_home {
                        checked += 1;
                        if worst.is_none_or(|(r, _)| tv > r) {
                            worst = Some((tv, tv));
                        }
                    }
                    let (r, d) = worst.expect("at least one class");
                    assert_eq!((worst_round, worst_delay, delays_checked), (r, d, checked));
                }
                (got, want) => panic!("verdict shape diverged: {got:?} vs {want:?} (a={a} b={b})"),
            }
        }
    }

    #[test]
    fn ensemble_decider_at_k2_matches_the_pair_deciders() {
        // Verdict rounds, crossing counts, and lasso shapes of the
        // two-lane start-delay schedule must be identical to the
        // fixed-delay decider's — the two families certify the same
        // instances the same way.
        let mut rng = StdRng::seed_from_u64(0xE11);
        for trial in 0..10 {
            let t = random_tree(3 + (trial % 6), &mut rng);
            let fsa = bw(&t);
            let n = t.num_nodes() as NodeId;
            for (a, b) in [(0, n - 1), (n - 1, 0), (0, n / 2)] {
                if a == b {
                    continue;
                }
                for delay in [0u64, 1, 3, 17] {
                    let pair = decide_pair(&t, &fsa, a, b, delay);
                    let ens = decide_ensemble(
                        &t,
                        &fsa,
                        &[a, b],
                        &EnsembleSchedule::start_delays(&[0, delay]),
                    );
                    assert_eq!(ens.round(), pair.round(), "θ={delay} ({a},{b})");
                    assert_eq!(ens.crossing_rounds, pair.crossing_rounds, "θ={delay} ({a},{b})");
                    if let (Some(el), Some(pl)) = (ens.lasso(), pair.lasso()) {
                        assert_eq!(el.stem, pl.stem);
                        assert_eq!(el.period, pl.period);
                        assert_eq!(
                            el.at_cycle,
                            vec![Some(pl.at_cycle.0), Some(pl.at_cycle.1)],
                            "θ={delay} ({a},{b})"
                        );
                        for budget in [3u64, 50, 1_000_000_007] {
                            assert_eq!(ens.crossings_within(budget), pair.crossings_within(budget));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ensemble_decider_agrees_with_ensemble_simulation() {
        use rvz_sim::run_ensemble_fsa;
        let mut rng = StdRng::seed_from_u64(0x6A7);
        for trial in 0..10 {
            let t = random_tree(3 + (trial % 5), &mut rng);
            let n = t.num_nodes() as NodeId;
            let fsa = bw(&t);
            for k in [2usize, 3] {
                let schedules = [
                    EnsembleSchedule::simultaneous(k),
                    EnsembleSchedule::start_delays(&(0..k as u64).collect::<Vec<_>>()),
                    EnsembleSchedule::crash_last_after(k, 2),
                    EnsembleSchedule::intermittent_last(k, 2, 0),
                ];
                let tuples = [
                    (0..k as NodeId).map(|i| i % n).collect::<Vec<_>>(),
                    (0..k as NodeId).map(|i| (n - 1).saturating_sub(i % n)).collect(),
                ];
                for sched in &schedules {
                    for starts in &tuples {
                        let decision = decide_ensemble(&t, &fsa, starts, sched);
                        if let Some(lasso) = decision.lasso() {
                            assert!(
                                verify_ensemble_lasso(&t, &fsa, starts, sched, lasso),
                                "lasso failed re-verification: k={k} {starts:?}"
                            );
                        }
                        let budget = 50_000u64;
                        let mut agents: Vec<_> = (0..k).map(|_| fsa.runner()).collect();
                        let run = run_ensemble_fsa(&t, starts, &mut agents, sched, budget, false);
                        match run.outcome {
                            Outcome::Met { round, .. } => {
                                assert_eq!(decision.round(), Some(round), "k={k} {starts:?}");
                                assert_eq!(decision.crossings_within(round), run.crossings);
                            }
                            Outcome::Timeout { .. } => {
                                assert!(decision.round().is_none_or(|r| r > budget));
                                if !decision.met() {
                                    assert_eq!(
                                        decision.crossings_within(budget),
                                        run.crossings,
                                        "k={k} {starts:?} {sched:?}"
                                    );
                                }
                            }
                        }
                        // Pairwise meetings agree wherever the bounded run
                        // could observe them.
                        for (slot, (dec, sim)) in
                            decision.pair_meetings().iter().zip(&run.pair_meetings).enumerate()
                        {
                            match (dec, sim) {
                                (Some(d), Some(s)) => {
                                    assert_eq!(d, s, "k={k} {starts:?} slot {slot}")
                                }
                                (Some(d), None) => assert!(*d > budget, "k={k} slot {slot}"),
                                (None, Some(s)) => {
                                    panic!("sim met pair {slot} at {s}, decider never did")
                                }
                                (None, None) => {}
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ensemble_closed_form_matches_the_product_walk() {
        // On start-delay shapes the closed form and the product walk must
        // agree exactly: full EnsembleDecision equality.
        let mut rng = StdRng::seed_from_u64(0xC105);
        for trial in 0..8 {
            let t = random_tree(3 + (trial % 5), &mut rng);
            let n = t.num_nodes() as NodeId;
            let fsa = bw(&t);
            for delays in [vec![0u64, 0, 0], vec![0, 1, 3], vec![2, 0, 5]] {
                let starts = vec![0, n / 2, n - 1];
                let sched = EnsembleSchedule::start_delays(&delays);
                let lassos: Vec<SoloLasso> =
                    starts.iter().map(|&s| SoloLasso::tabulate(&t, &fsa, s)).collect();
                let refs: Vec<&SoloLasso> = lassos.iter().collect();
                let closed = decide_ensemble_from_lassos(&refs, &delays);
                let walked = decide_ensemble(&t, &fsa, &starts, &sched);
                assert_eq!(closed, walked, "{delays:?} on {n} nodes");
            }
        }
    }

    #[test]
    fn delayed_ensemble_lassos_verify_without_a_schedule() {
        // The closed form's certificates check against the integer delays
        // exactly as against the materialized start-delay schedule.
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        let starts = [0u32, 1, 1];
        for delays in [[0u64, 0, 0], [0, 0, 2], [0, 2, 0]] {
            let lassos: Vec<SoloLasso> =
                starts.iter().map(|&s| SoloLasso::tabulate(&t, &fsa, s)).collect();
            let refs: Vec<&SoloLasso> = lassos.iter().collect();
            let d = decide_ensemble_from_lassos(&refs, &delays);
            let lasso = d.lasso().expect("the antiphase survivors never gather");
            let sched = EnsembleSchedule::start_delays(&delays);
            assert!(verify_delayed_ensemble_lasso(&t, &fsa, &starts, &delays, lasso));
            assert!(verify_ensemble_lasso(&t, &fsa, &starts, &sched, lasso));
            let mut early = lasso.clone();
            early.stem = delays.iter().copied().max().unwrap();
            assert!(!verify_delayed_ensemble_lasso(&t, &fsa, &starts, &delays, &early));
            assert!(!verify_delayed_ensemble_lasso(&t, &fsa, &starts, &delays[..2], lasso));
        }
    }

    #[test]
    fn crashed_lane_defeats_gathering_on_the_shuttle() {
        // The e11 phenomenon in miniature: a crashed agent parks, so
        // gathering reduces to both survivors standing on it *in the same
        // round* — and on the single edge the two survivors shuttle in
        // antiphase forever, each visiting the parked copy without ever
        // co-locating with the other.
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        let sched = EnsembleSchedule::crash_last_after(3, 0);
        let starts = [0u32, 1, 1];
        let d = decide_ensemble(&t, &fsa, &starts, &sched);
        let lasso = d.lasso().expect("crash defeats gathering here");
        assert!(verify_ensemble_lasso(&t, &fsa, &starts, &sched, lasso));
        let pm = d.pair_meetings();
        assert_eq!(pm[pair_index(3, 1, 2)], Some(0), "lane 1 starts on the parked lane");
        assert_eq!(pm[pair_index(3, 0, 2)], Some(1), "lane 0 steps onto the parked lane");
        assert_eq!(pm[pair_index(3, 0, 1)], None, "the survivors shuttle in antiphase");
    }

    #[test]
    fn tampered_ensemble_lassos_are_rejected() {
        let t = colored_line(2, 0);
        let fsa = bw(&t);
        let sched = EnsembleSchedule::crash_last_after(3, 0);
        let starts = [0u32, 1, 1];
        let good = decide_ensemble(&t, &fsa, &starts, &sched).lasso().cloned().unwrap();
        assert!(verify_ensemble_lasso(&t, &fsa, &starts, &sched, &good));
        let mut bad = good.clone();
        bad.period += 1;
        assert!(!verify_ensemble_lasso(&t, &fsa, &starts, &sched, &bad));
        let mut short = good.clone();
        short.at_cycle.pop();
        assert!(!verify_ensemble_lasso(&t, &fsa, &starts, &sched, &short));
        let mut wrong = good.clone();
        wrong.at_cycle[0] = None; // claims lane 0 never started
        assert!(!verify_ensemble_lasso(&t, &fsa, &starts, &sched, &wrong));
        let mut zero = good;
        zero.period = 0;
        assert!(!verify_ensemble_lasso(&t, &fsa, &starts, &sched, &zero));
    }

    #[test]
    fn solo_lasso_is_the_euler_tour_for_basic_walks() {
        let t = line(6);
        let fsa = bw(&t);
        let solo = SoloLasso::tabulate(&t, &fsa, 0);
        // §2.2: period 2(n−1), entered immediately.
        assert_eq!(solo.period, 10);
        assert_eq!(solo.stem, 0);
        for r in 1..=40u64 {
            assert_eq!(solo.position(r), solo.position(r + 10));
        }
        assert_eq!(solo.first_visit(5), Some(5));
    }

    #[test]
    fn solo_lasso_wire_round_trips_and_rejects_corruption() {
        let t = line(7);
        let fsa = bw(&t);
        let solo = SoloLasso::tabulate(&t, &fsa, 3);
        let bytes = solo.to_bytes();
        let back = SoloLasso::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.stem, solo.stem);
        assert_eq!(back.period, solo.period);
        for r in 0..=30u64 {
            assert_eq!(back.position(r), solo.position(r), "round {r}");
            if r >= 1 {
                assert_eq!(back.config_at(r), solo.config_at(r), "round {r}");
            }
        }
        assert_eq!(back.to_bytes(), bytes, "canonical re-encoding");
        for len in 0..bytes.len() {
            assert!(SoloLasso::from_bytes(&bytes[..len]).is_err(), "truncated at {len}");
        }
        let mut zero_period = bytes.clone();
        zero_period[16..24].copy_from_slice(&0u64.to_le_bytes());
        assert!(SoloLasso::from_bytes(&zero_period).is_err(), "period 0 must be rejected");
    }
}
