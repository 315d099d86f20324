//! The parallel batch-experiment engine.
//!
//! A *sweep* fans an experiment's instance grid — tree family × size ×
//! start delay × agent variant × start pair — across threads and collects
//! one typed [`SweepRow`] per grid cell. The unit of work is the
//! *instance*: [`instances()`] plans the grid as one [`SweepInstance`] per
//! (family, size) or per enumerated free tree, each holding its tree and
//! start pool, and each instance expands its own cells
//! ([`SweepInstance::cells`]) — delay × variant × start. The in-process
//! sweep ([`run_into`]), the `--workers` supervisor and its workers all
//! run on this plan. Four properties are load-bearing:
//!
//! 1. **Deterministic per-cell seeding.** Every cell derives its seeds from
//!    the grid coordinates alone (never from execution order or thread
//!    identity), so a cell's result is a pure function of the spec.
//! 2. **Order-preserving fan-out.** Instances run under `rayon`, one task
//!    each, and their blocks of rows leave the sweep in grid order
//!    ([`run_into`]), so the output — including its JSON serialization —
//!    is byte-identical for any `--threads` value.
//! 3. **Reproducible rows.** Each row carries the resolved instance
//!    (family, `n`, starts, delay, budget), so any cell can be replayed
//!    with a direct [`rvz_sim::run_pair`] call; the integration smoke test
//!    does exactly that.
//! 4. **Stepping is the reference path.** The paper's agents are automata
//!    that move in synchronous rounds; by default ([`Executor::DynStepping`])
//!    every bounded cell steps its agents through that model's k-lane round
//!    loop ([`rvz_sim::run_ensemble_with`]), as do the exact decider's
//!    procedural-agent cells and the watchdog's retry. Trace replay
//!    ([`Executor::TraceReplay`]) runs only when asked for: it records each
//!    `(family, n, start, variant)` trajectory once in the per-instance
//!    memo and answers every `(delay, pair)` cell by timeline merge
//!    (`rvz_sim::trace`). The executors are byte-identical by test.
//!
//! The per-experiment presets in [`preset`] translate E1–E8 (see the
//! sibling `e1`..`e8` modules and README.md) into grids over the shared
//! instance pool of [`crate::instances`].

use crate::instances;
use crate::memo::{self, InstanceMemo, VariantRecorder};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rvz_agent::model::Agent;
use rvz_core::prime_path::PrimePathAgent;
use rvz_core::primes::{next_prime, primorial_index_bound};
use rvz_core::{DelayRobustAgent, TreeRendezvousAgent};
use rvz_lowerbounds::decide::{
    decide_ensemble, decide_ensemble_from_lassos, decide_from_lassos,
    verify_delayed_ensemble_lasso, verify_ensemble_lasso, verify_lasso, worst_case_from_lassos,
    Decision, EnsembleDecision, SoloLasso, WorstCase,
};
use rvz_sim::trace::Replay;
use rvz_sim::{
    replay_ensemble, replay_pair, run_ensemble_with, ActivationIndex, EnsembleReplay, EnsembleRun,
    EnsembleSchedule, PairConfig,
};
use rvz_trees::{NodeId, Tree};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tree families the sweep can grid over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    Line,
    LineRnd,
    Spider3,
    Caterpillar,
    Random,
    RandomDeg3,
    CompleteBinary,
    Binomial,
    Star,
    /// *All* free trees at each size, in the canonical
    /// [`rvz_trees::enumerate`] order — the exhaustive-certification axis
    /// (`e9`). The tree axis is the enumeration index (recorded as
    /// `tree_seed`), and the pair axis is every ordered feasible pair, so
    /// a sweep over this family quantifies over the whole instance space
    /// instead of sampling it.
    EnumFree,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Line => "line",
            Family::LineRnd => "line-rnd",
            Family::Spider3 => "spider3",
            Family::Caterpillar => "caterpillar",
            Family::Random => "random",
            Family::RandomDeg3 => "random-deg3",
            Family::CompleteBinary => "complete-binary",
            Family::Binomial => "binomial",
            Family::Star => "star",
            Family::EnumFree => "enum-free",
        }
    }

    /// Inverse of [`Family::name`] — how the persistent stores decode
    /// their on-disk keys ([`crate::stores`]). `None` for unknown names
    /// (e.g. a store written by a future version with a new family).
    pub fn from_name(name: &str) -> Option<Family> {
        const ALL: [Family; 10] = [
            Family::Line,
            Family::LineRnd,
            Family::Spider3,
            Family::Caterpillar,
            Family::Random,
            Family::RandomDeg3,
            Family::CompleteBinary,
            Family::Binomial,
            Family::Star,
            Family::EnumFree,
        ];
        ALL.into_iter().find(|f| f.name() == name)
    }

    /// Builds this family's member at size `n` with a deterministic stream.
    /// For [`Family::EnumFree`] the "seed" is the enumeration index — the
    /// stable `(n, index)` name of the tree.
    pub fn build(self, n: usize, seed: u64) -> Tree {
        if self == Family::EnumFree {
            return rvz_trees::enumerate::nth_free_tree(n, seed);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        instances::build_family(self.name(), n, &mut rng).expect("known family")
    }

    /// `true` when members are paths (the `prime` protocol's domain).
    fn is_path(self) -> bool {
        matches!(self, Family::Line | Family::LineRnd)
    }
}

/// Compact, `Copy` description of an activation schedule — the sweep-axis
/// form of [`rvz_sim::EnsembleSchedule`], resolved per instance size and
/// lane count by [`ScheduleSpec::resolve_ensemble`]. A spec that is
/// *exactly* the legacy start-delay scenario
/// ([`ScheduleSpec::as_start_delay`]) is routed through the θ-indexed
/// executors and emits the identical row (no
/// `schedule` field, same seeds) — `Schedule(StartDelay(θ))` cells are
/// byte-for-byte the `Fixed(θ)` cells, by test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleSpec {
    /// Both agents every round (≡ `Delay::Zero` spelled as a schedule).
    Simultaneous,
    /// A from round 1, B from round θ+1 (≡ `Delay::Fixed(θ)`).
    StartDelay(u64),
    /// A every round; B once per `period` rounds, at `phase`.
    Intermittent { period: u64, phase: u64 },
    /// Both agents for the given number of rounds, then B crashes. The
    /// round count is capped at `EnsembleSchedule::MAX_MATERIALIZED_PREFIX`
    /// (2²²) — `resolve` panics loudly beyond it rather than
    /// materializing a multi-gigabyte prefix (a crash later than any
    /// decision horizon is indistinguishable from no crash).
    CrashAfter(u64),
    /// [`ScheduleSpec::CrashAfter`] at ⌈n/2⌉, resolved per instance size
    /// (the e10 crash column). Resolves to the same schedule — and the
    /// same row label — as the matching `CrashAfter(⌈n/2⌉)`, but as its
    /// own axis point with its own seed code (like `Zero` beside
    /// `Fixed(0)`); don't list both at one size.
    CrashAfterHalfN,
    /// Both agents together once per `period` rounds, frozen in between —
    /// global stalls (time dilation). Outcome-equivalent to simultaneous
    /// start but `period`× slower, so it carries the simultaneous
    /// scenario's never-meets pairs into the genuinely-scheduled machinery
    /// (parity lassos survive dilation, unlike under intermittence).
    Lockstep { period: u64 },
    /// A seeded draw from [`EnsembleSchedule::adversarial`] (prefix ≤ 8
    /// rounds, cycle ≤ 6 — small enough that the bw decision horizon stays
    /// tight). A pair axis: the sampler draws two-lane rows.
    Adversarial { seed: u64 },
}

impl ScheduleSpec {
    /// Caps for the seeded adversarial sampler.
    const ADV_MAX_PREFIX: usize = 8;
    const ADV_MAX_CYCLE: usize = 6;

    /// The concrete two-lane schedule at instance size `n`.
    pub fn resolve(self, n: usize) -> EnsembleSchedule {
        self.resolve_ensemble(n, 2)
    }

    /// The concrete `lanes`-lane schedule at instance size `n`. The
    /// lane-asymmetric specs fault the *last* lane (agent B of a pair).
    /// [`ScheduleSpec::Adversarial`] draws two lanes only — the grid
    /// filter keeps it off `--agents k > 2` sweeps.
    pub fn resolve_ensemble(self, n: usize, lanes: usize) -> EnsembleSchedule {
        match self {
            ScheduleSpec::Simultaneous => EnsembleSchedule::simultaneous(lanes),
            ScheduleSpec::StartDelay(theta) => {
                EnsembleSchedule::start_delays(&lane_delays(theta, lanes))
            }
            ScheduleSpec::Intermittent { period, phase } => {
                EnsembleSchedule::intermittent_last(lanes, period, phase)
            }
            ScheduleSpec::CrashAfter(rounds) => EnsembleSchedule::crash_last_after(lanes, rounds),
            ScheduleSpec::CrashAfterHalfN => {
                EnsembleSchedule::crash_last_after(lanes, n.div_ceil(2) as u64)
            }
            ScheduleSpec::Lockstep { period } => {
                assert!(period >= 1, "lockstep period must be at least 1");
                EnsembleSchedule::new(
                    lanes,
                    Vec::new(),
                    (0..period).map(|i| vec![i == 0; lanes]).collect(),
                )
            }
            ScheduleSpec::Adversarial { seed } => {
                assert_eq!(lanes, 2, "adversarial schedules are a pair axis");
                EnsembleSchedule::adversarial(seed, Self::ADV_MAX_PREFIX, Self::ADV_MAX_CYCLE)
            }
        }
    }

    /// `Some(θ)` when this spec is the legacy start-delay scenario — those
    /// cells run on the θ-indexed paths and emit legacy rows.
    pub fn as_start_delay(self) -> Option<u64> {
        match self {
            ScheduleSpec::Simultaneous => Some(0),
            ScheduleSpec::StartDelay(theta) => Some(theta),
            ScheduleSpec::Intermittent { period: 1, .. } => Some(0),
            ScheduleSpec::Lockstep { period: 1 } => Some(0),
            _ => None,
        }
    }

    /// The schedule string recorded in the row (genuine schedules only —
    /// start-delay-shaped specs emit legacy rows without it).
    pub fn label(self, n: usize) -> String {
        match self {
            ScheduleSpec::Simultaneous => "simultaneous".into(),
            ScheduleSpec::StartDelay(theta) => format!("start-delay({theta})"),
            ScheduleSpec::Intermittent { period, phase } => {
                format!("intermittent({period},{phase})")
            }
            ScheduleSpec::CrashAfter(rounds) => format!("crash-after({rounds})"),
            ScheduleSpec::CrashAfterHalfN => format!("crash-after({})", n.div_ceil(2)),
            ScheduleSpec::Lockstep { period } => format!("lockstep({period})"),
            ScheduleSpec::Adversarial { seed } => format!("adversarial({seed})"),
        }
    }

    /// Seed-mixing code, unique per spec (start-delay-shaped specs share
    /// the matching [`Delay::Fixed`] code — deliberately: same scenario,
    /// same cell seeds, same rows).
    fn code(self) -> u64 {
        if let Some(theta) = self.as_start_delay() {
            return Delay::Fixed(theta).code();
        }
        match self {
            ScheduleSpec::Intermittent { period, phase } => {
                mix(fnv("sched-intermittent"), &[period, phase])
            }
            ScheduleSpec::CrashAfter(rounds) => mix(fnv("sched-crash"), &[rounds]),
            ScheduleSpec::CrashAfterHalfN => fnv("sched-crash-half-n"),
            ScheduleSpec::Lockstep { period } => mix(fnv("sched-lockstep"), &[period]),
            ScheduleSpec::Adversarial { seed } => mix(fnv("sched-adversarial"), &[seed]),
            ScheduleSpec::Simultaneous | ScheduleSpec::StartDelay(_) => {
                unreachable!("start-delay shapes take the Fixed code")
            }
        }
    }
}

/// Start-delay axis of a grid; `LinearN` resolves to the instance size, the
/// adversarial “delay of n rounds” the E6 series uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delay {
    Zero,
    Fixed(u64),
    LinearN,
    /// The universal quantifier: "under *every* finite start delay". Only
    /// the exact decider can answer it ([`rvz_lowerbounds::decide::worst_case_delay`]);
    /// cells with this delay are routed to the decide path under every
    /// executor. The row's `delay` field reports the decisive delay — the
    /// smallest defeating θ, or the θ attaining the worst meeting round.
    Adversarial,
    /// A full activation schedule (per-round delay faults). The row's
    /// `delay` field reports the spec's θ-equivalent (0 for genuine
    /// schedules) and the `schedule` field carries the resolved label.
    Schedule(ScheduleSpec),
}

impl Delay {
    /// The concrete start delay θ at instance size `n`.
    /// [`Delay::Adversarial`] has no static resolution — those cells are
    /// answered by the quantifier layer, never by bounded simulation.
    /// A [`Delay::Schedule`] resolves to its θ-equivalent (the executors
    /// route genuine schedules through the scheduled paths instead).
    pub fn resolve(self, n: usize) -> u64 {
        match self {
            Delay::Zero => 0,
            Delay::Fixed(d) => d,
            Delay::LinearN => n as u64,
            Delay::Adversarial => {
                unreachable!("adversarial delay is resolved by the exact decider")
            }
            Delay::Schedule(spec) => spec.as_start_delay().unwrap_or(0),
        }
    }

    /// Seed-mixing code for the delay axis. `Fixed` saturates (a
    /// `u64::MAX` delay used to overflow `1 + d` in debug builds) and is
    /// clamped below the `LinearN`/`Adversarial` sentinels so no fixed
    /// delay collides with them. The clamp deliberately collapses the
    /// top few fixed delays (`≥ u64::MAX − 3`) onto one code: those
    /// cells are degenerate anyway — their budgets saturate to
    /// `u64::MAX`, so they are the same unusable scenario.
    pub(crate) fn code(self) -> u64 {
        match self {
            Delay::Zero => 0,
            Delay::Fixed(d) => d.saturating_add(1).min(u64::MAX - 2),
            Delay::LinearN => u64::MAX,
            Delay::Adversarial => u64::MAX - 1,
            Delay::Schedule(spec) => spec.code(),
        }
    }

    /// `true` when this delay resolves to 0 for every instance size —
    /// `Zero`, `Fixed(0)` and the simultaneous-shaped schedule specs are
    /// the same scenario and must be treated identically by grid filters
    /// (so e.g. `Schedule(Simultaneous)` keeps the zero-delay-only
    /// variants, exactly like `Fixed(0)`).
    fn is_always_zero(self) -> bool {
        match self {
            Delay::Zero | Delay::Fixed(0) => true,
            Delay::Schedule(spec) => spec.as_start_delay() == Some(0),
            _ => false,
        }
    }
}

/// Agent variant run in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Theorem 4.1 agent — simultaneous start, arbitrary trees.
    TreeRvz,
    /// The `O(log n)` arbitrary-delay baseline.
    DelayRobust,
    /// Lemma 4.1 `prime` protocol — simultaneous start, paths only.
    PrimePath,
    /// The §2.2 basic-walk automaton pair ([`rvz_agent::Fsa::basic_walk`]):
    /// the memoryless delay-scan workload (à la Chalopin et al.'s
    /// delay-fault grids). Both trajectories are periodic with period
    /// `2(n−1)` once started, so "meets under delay θ" is *decided* within
    /// `θ + 2` joint periods — the cell budget is exact, not provisioned.
    BasicWalkFsa,
}

impl Variant {
    /// Every variant.
    pub(crate) const ALL: [Variant; 4] =
        [Variant::TreeRvz, Variant::DelayRobust, Variant::PrimePath, Variant::BasicWalkFsa];

    pub fn name(self) -> &'static str {
        match self {
            Variant::TreeRvz => "tree-rvz",
            Variant::DelayRobust => "delay-robust",
            Variant::PrimePath => "prime-path",
            Variant::BasicWalkFsa => "bw-fsa",
        }
    }

    /// Inverse of [`Variant::name`] — how the persistent stores decode
    /// their on-disk keys ([`crate::stores`]).
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == name)
    }

    /// Grid filter: only combinations the algorithm is specified for.
    /// The universal delay quantifier is decidable only for the explicit
    /// automaton variant (the procedural agents have no exported finite
    /// configuration space), so [`Delay::Adversarial`] is bw-fsa-only.
    pub(crate) fn supports(self, family: Family, delay: Delay) -> bool {
        match self {
            Variant::TreeRvz => delay.is_always_zero(),
            Variant::DelayRobust => delay != Delay::Adversarial,
            Variant::PrimePath => family.is_path() && delay.is_always_zero(),
            Variant::BasicWalkFsa => true,
        }
    }
}

/// Exact decision horizon for a basic-walk pair under start delay `delay`:
/// once both agents run, the joint configuration is periodic with period
/// `2(n−1)`, so two periods past the delay decide the meeting question.
/// (`n = 0` is clamped to the singleton's empty horizon rather than
/// underflowing, and the arithmetic saturates — `delay + …` used to
/// overflow in debug builds at `Delay::Fixed(u64::MAX)`.)
pub fn basic_walk_budget_for(n: usize, delay: u64) -> u64 {
    delay.saturating_add(basic_walk_two_periods(n))
}

/// Two basic-walk Euler periods plus slack: `4(n−1) + 2`, saturating.
pub(crate) fn basic_walk_two_periods(n: usize) -> u64 {
    4u64.saturating_mul(n.max(1) as u64 - 1).saturating_add(2)
}

/// Exact decision horizon for a basic-walk pair under an activation
/// schedule: the basic walk is purely periodic in its activation count
/// (period `2(n−1)` — the closed Euler tour), so past the prefix the
/// joint state `(position_a, position_b, cycle index)` repeats within
/// `cycle · 2(n−1)` rounds; `prefix + cycle · (4(n−1) + 2)` covers two
/// such joint periods. For `start_delay(θ)` this is exactly
/// [`basic_walk_budget_for`]`(n, θ)` — prefix θ, cycle 1. Every lane's
/// solo trajectory is purely periodic with period `2(n−1)` activations and
/// gains a fixed activation count per cycle, so the bound holds for any
/// lane count.
pub fn schedule_budget_for(n: usize, schedule: &EnsembleSchedule) -> u64 {
    schedule
        .prefix_len()
        .saturating_add(schedule.cycle_len().saturating_mul(basic_walk_two_periods(n)))
}

/// How the executor answers the delay × pair sub-grid of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Record each `(family, n, start, variant)` trajectory once in the
    /// per-instance memo and decide every cell by timeline merge
    /// (`rvz_sim::trace`) — no agent stepping on cache hits.
    TraceReplay,
    /// Step every agent per cell through the k-lane round loop
    /// ([`rvz_sim::run_ensemble_with`]): the default, and the path of
    /// every bounded cell no other executor answers — the decider's
    /// procedural-agent cells, the watchdog's retry, and replay cells
    /// whose trajectories would exceed the recording cap. Output is
    /// byte-identical to [`Executor::TraceReplay`] (by test).
    #[default]
    DynStepping,
    /// Answer each cell by the exact decider over the joint configuration
    /// graph ([`rvz_lowerbounds::decide`]): no round budget, `NeverMeets`
    /// certified by lasso instead of reported as timeout. Exact for the
    /// automaton variant (`bw-fsa`); procedural-agent cells are stepped
    /// ([`Executor::DynStepping`]). Rows are byte-identical to the other
    /// executors except for the `certified` flag (by test).
    ExactDecide,
}

/// A full grid specification; [`run`] executes it.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Tag recorded in every row (e.g. `"e6"`).
    pub experiment: String,
    pub families: Vec<Family>,
    pub sizes: Vec<usize>,
    pub delays: Vec<Delay>,
    pub variants: Vec<Variant>,
    /// Feasible start pairs sampled per (family, size) instance.
    pub pairs_per_cell: usize,
    pub seed: u64,
    /// Worker threads; `0` = all cores.
    pub threads: usize,
    /// Cell execution strategy (stepping by default).
    pub executor: Executor,
    /// Ensemble width: how many agent copies run per cell (`--agents k`).
    /// `2` is the classic pair sweep and emits byte-identical legacy rows
    /// (schema unchanged); at `k > 2` the start axis becomes feasible
    /// *k-tuples*, the outcome becomes gathering (all `k` on one node
    /// simultaneously), and rows/certificates grow the optional
    /// `agents`/`start_rest` fields (schema `rvz-sweep/v7`; see
    /// docs/gathering.md).
    pub agents: usize,
}

/// One grid cell: everything [`run_cell`] needs, and nothing that depends
/// on execution order. The experiment label is interned (`Arc<str>`): the
/// whole grid shares one allocation instead of cloning a `String` per
/// cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub experiment: Arc<str>,
    pub family: Family,
    pub n: usize,
    pub delay: Delay,
    pub variant: Variant,
    pub pair_index: usize,
    pub pairs_total: usize,
    pub base_seed: u64,
    /// Enumeration index into [`rvz_trees::enumerate::free_trees`]`(n)`
    /// for [`Family::EnumFree`] cells (`None` for sampled families). When
    /// set, it *is* the tree seed: `(n, index)` names the tree forever.
    pub tree_index: Option<u64>,
    /// Ensemble width ([`SweepSpec::agents`]). At `2`, `pair_index`
    /// indexes [`SweepInstance::pairs`], otherwise
    /// [`SweepInstance::tuples`].
    pub agents: usize,
}

/// One result row; the JSON schema of `--json` output (see docs/schemas.md).
/// `experiment` shares the grid's interned label (serialized as a plain
/// JSON string, exactly like the `String` it replaced).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    pub experiment: Arc<str>,
    pub family: String,
    /// Requested size; `n` is the realized node count.
    pub size: usize,
    pub n: usize,
    pub leaves: usize,
    pub variant: String,
    pub delay: u64,
    /// Resolved activation-schedule label for genuine schedule cells
    /// (e.g. `"intermittent(2,0)"`); absent — not `null` — on every
    /// start-delay cell, so legacy rows keep their exact serialized shape
    /// (schema `rvz-sweep/v3` = v2 plus this optional field).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub schedule: Option<String>,
    pub start_a: NodeId,
    pub start_b: NodeId,
    pub met: bool,
    /// Meeting round (`null` on timeout).
    pub rounds: Option<u64>,
    pub crossings: u64,
    pub budget: u64,
    /// Provisioned automaton size for this variant at this instance.
    pub provisioned_bits: u64,
    /// Memory the two (identical) agents actually reported after the run.
    pub measured_bits: u64,
    /// Seed the instance tree was built from — `Family::build(size, tree_seed)`
    /// reconstructs the exact tree, randomized families included.
    pub tree_seed: u64,
    /// Seed of the start-pair pool the cell drew from.
    pub pairs_seed: u64,
    /// Full-coordinate seed, for provenance.
    pub cell_seed: u64,
    /// `true` when the outcome is *exactly decided* (the
    /// [`Executor::ExactDecide`] path): `met == false` then means
    /// certified never-meets, not a budget timeout. Bounded executors
    /// always report `false`.
    pub certified: bool,
    /// `Some(true)` when every executor attempt for the cell exceeded the
    /// `--cell-timeout` wall budget and the row records *no run at all*
    /// (`met: false`, `rounds: null`, zero crossings/bits). Absent — not
    /// `null` — everywhere else, so rows without watchdogs keep their
    /// exact serialized shape (schema `rvz-sweep/v4` = v3 plus this
    /// optional field; see docs/schemas.md).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub timed_out: Option<bool>,
    /// `Some(true)` when the cell's shard exceeded the supervisor's
    /// attempt cap — every worker sent to it died — and the row records
    /// *no run at all*, exactly like a timeout (`met: false`,
    /// `rounds: null`, zero crossings/bits). Absent — not `null` —
    /// everywhere else, so single-process rows keep their exact
    /// serialized shape (schema `rvz-sweep/v5` = v4 plus this optional
    /// field; see docs/schemas.md and docs/distributed.md).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub poisoned: Option<bool>,
    /// Always `None` (the retired `rvz-sweep/v6` annotation); kept
    /// because `perfbench/trace` reads it.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub planned: Option<Planned>,
    /// Ensemble width for `--agents k > 2` cells; `met` then means all
    /// `k` copies gathered on one node simultaneously. Absent — not
    /// `null` — on every pair cell, so legacy rows keep their exact
    /// serialized shape (schema `rvz-sweep/v7` = v5 plus this and
    /// `start_rest`; see docs/schemas.md and docs/gathering.md).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub agents: Option<usize>,
    /// Starts of lanes 2.. (lane 0 is `start_a`, lane 1 is `start_b`).
    /// Present exactly when `agents` is.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub start_rest: Option<Vec<NodeId>>,
}

impl SweepRow {
    /// `true` for a quarantined row (`timed_out` or `poisoned`): no run
    /// happened, so the row carries no verdict.
    pub(crate) fn quarantined(&self) -> bool {
        self.timed_out == Some(true) || self.poisoned == Some(true)
    }
}

/// The shape of the retired [`SweepRow::planned`] annotation; no executor
/// builds one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Planned {
    /// `"batch"` / `"replay"` / `"stepping"` / `"decide"`.
    pub choice: String,
    /// Model-predicted cost of the chosen route, in work units.
    pub predicted: u64,
    /// Post-hoc cost of the route given the row's outcome, same units.
    pub actual: u64,
}

/// A machine-checkable decision certificate emitted by the
/// [`Executor::ExactDecide`] path — one per certified never-meets cell and
/// one per universal-delay ([`Delay::Adversarial`]) cell. The lasso fields
/// replicate [`rvz_lowerbounds::decide::Lasso`] flattened for JSON; every
/// lasso is re-verified by independent stepping
/// ([`rvz_lowerbounds::verify_lasso`]) before it is emitted (`verified`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Certificate {
    pub experiment: Arc<str>,
    pub family: String,
    pub size: usize,
    pub n: usize,
    pub tree_seed: u64,
    pub variant: String,
    pub start_a: NodeId,
    pub start_b: NodeId,
    /// `"meets"` / `"never-meets"` for fixed-delay cells;
    /// `"all-delays-meet"` / `"delay-defeats"` for universal cells.
    pub verdict: String,
    /// Resolved schedule label for scheduled never-meets certificates;
    /// absent on delay-axis certificates (schema `rvz-certificates/v2` =
    /// v1 plus this optional field).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub schedule: Option<String>,
    /// The decisive delay: the cell's fixed θ, the smallest defeating θ,
    /// or the θ attaining the worst meeting round.
    pub delay: u64,
    /// Meeting round (absent for never-meets verdicts).
    pub round: Option<u64>,
    /// Distinct delay classes the quantifier decided (universal cells).
    pub delays_checked: Option<u64>,
    /// Lasso certificate for never-meets verdicts.
    pub lasso_stem: Option<u64>,
    pub lasso_period: Option<u64>,
    /// Re-verification result of the lasso by independent stepping.
    pub verified: Option<bool>,
    /// Ensemble width for `--agents k > 2` certificates (the verdict is
    /// then `"gathers"` / `"never-gathers"`). Absent on pair
    /// certificates, so those keep their exact serialized shape (schema
    /// `rvz-certificates/v3` = v2 plus this and `start_rest`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub agents: Option<usize>,
    /// Starts of lanes 2.. (lane 0 is `start_a`, lane 1 is `start_b`).
    /// Present exactly when `agents` is.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub start_rest: Option<Vec<NodeId>>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a: hashes the grid's names into seed tokens, and the spec
/// description into the journal fingerprint.
pub(crate) fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Mixes grid coordinates into a seed. Position-independent by
/// construction: only the listed tokens enter.
pub(crate) fn mix(base: u64, tokens: &[u64]) -> u64 {
    let mut h = splitmix(base);
    for &t in tokens {
        h = splitmix(h ^ t);
    }
    h
}

impl Cell {
    /// Full-coordinate seed recorded in the row. Sampled-family cells mix
    /// exactly the pre-enumeration token list, so their seeds — and hence
    /// every historical row — are unchanged by the tree-index axis.
    pub fn cell_seed(&self) -> u64 {
        let mut tokens = vec![
            fnv(&self.experiment),
            fnv(self.family.name()),
            self.n as u64,
            self.delay.code(),
            fnv(self.variant.name()),
            self.pair_index as u64,
        ];
        if let Some(index) = self.tree_index {
            tokens.push(fnv("tree-index"));
            tokens.push(index);
        }
        // Pair cells mix exactly the historical token list: the ensemble
        // axis enters the seed only when it actually widens the cell, so
        // every `--agents 2` row is byte-identical to its pre-ensemble
        // ancestor.
        if self.agents > 2 {
            tokens.push(fnv("agents"));
            tokens.push(self.agents as u64);
        }
        mix(self.base_seed, &tokens)
    }
}

/// Largest size the enumerated-family axis accepts: free-tree counts are
/// exponential (A000055), and every tree × every ordered feasible pair is
/// a cell. 11 keeps the exhaustive grid in the hundreds of trees.
pub const MAX_ENUM_SIZE: usize = 11;

/// The spec's `--threads` pool: every parallel map of a sweep, the plan's
/// included, runs on it.
fn pool(spec: &SweepSpec) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(spec.threads).build().expect("thread pool")
}

/// Plans the grid: every instance of `spec` once, in grid order — one per
/// (family, size), and for [`Family::EnumFree`] one per free tree, built
/// from the tree the enumeration yields. The trees are enumerated on the
/// calling thread; the instances, start pools included, are built in
/// parallel on the spec's pool. [`SweepInstance::cells`] expands each
/// instance into its cells.
pub fn instances(spec: &SweepSpec) -> Vec<Arc<SweepInstance>> {
    assert!(spec.agents >= 2, "a sweep runs at least two agents (--agents {})", spec.agents);
    let mut coords: Vec<(Family, usize, Option<(u64, Tree)>)> = Vec::new();
    for &family in &spec.families {
        for &n in &spec.sizes {
            if family == Family::EnumFree {
                assert!(
                    n <= MAX_ENUM_SIZE,
                    "enum-free at n = {n} would enumerate millions of trees (cap {MAX_ENUM_SIZE})"
                );
                let trees = rvz_trees::enumerate::free_trees(n).enumerate();
                coords.extend(trees.map(|(index, tree)| (family, n, Some((index as u64, tree)))));
            } else {
                coords.push((family, n, None));
            }
        }
    }
    let basic_walk = spec.variants.contains(&Variant::BasicWalkFsa);
    pool(spec).install(|| {
        coords
            .par_iter()
            .map(|&(family, n, ref enumerated)| {
                let (tree_index, tree) = enumerated.clone().unzip();
                let (seed, starts, agents) = (spec.seed, spec.pairs_per_cell, spec.agents);
                Arc::new(SweepInstance::new(
                    family, n, tree_index, tree, seed, starts, agents, basic_walk,
                ))
            })
            .collect()
    })
}

/// Enumerates the grid in deterministic (family, size, \[tree,\] delay,
/// variant, pair) lexicographic order, dropping unsupported combinations:
/// the flattened [`instances()`] plan.
///
/// For [`Family::EnumFree`] the tree axis is *exhaustive*: one sub-grid
/// per free tree at each size, and the pair axis is every ordered feasible
/// pair of that tree (so `pairs_per_cell` is ignored and the planned cell
/// count is exact — nothing is dropped at run time).
pub fn cells(spec: &SweepSpec) -> Vec<Cell> {
    let experiment: Arc<str> = Arc::from(spec.experiment.as_str());
    instances(spec).iter().flat_map(|inst| inst.cells(spec, &experiment)).collect()
}

/// Round budget for the general tree algorithms (as E6 provisions).
/// Saturating: `n² · 60_000` overflows plain `u64` arithmetic for
/// `n ≥ 2³²`, and the budget is a cap, so clamping at `u64::MAX` is the
/// correct degeneration.
pub fn budget_for(n: usize) -> u64 {
    (n as u64).saturating_mul(n as u64).saturating_mul(60_000).saturating_add(2_000_000)
}

/// Round budget for the `prime` path protocol (as E3 derives from the
/// analysis bound).
pub fn prime_budget_for(m: usize) -> u64 {
    let mut rounds = m as u64;
    let mut p = 2u64;
    for _ in 0..primorial_index_bound((m * m) as u64) + 2 {
        rounds += 2 * (m as u64 - 1) * p + p;
        p = next_prime(p);
    }
    rounds * 2
}

/// The shared immutable per-instance state: the tree and its feasible
/// start-pair pool, a pure function of `(family, n, tree_seed, pairs_seed)`.
/// The executor builds each one once ([`instances()`]) and shares it across
/// the whole delay × variant × pair sub-grid it expands into
/// ([`SweepInstance::cells`]) — drawing the pool alone costs hundreds of
/// symmetrizability checks, which used to be repaid by *every* cell on the
/// instance.
#[derive(Debug)]
pub struct SweepInstance {
    pub tree: Tree,
    /// Feasible start pairs of a two-agent instance: the `k = 2` tuples of
    /// [`instances::feasible_tuples`] (exhaustive for the enumerated
    /// family), stored as arrays.
    pub pairs: Vec<[NodeId; 2]>,
    /// Feasible start `k`-tuples for `--agents k > 2` cells (empty on
    /// pair instances; `pairs` is empty in turn on ensemble instances),
    /// drawn by the same generators from the same `pairs_seed` stream.
    pub tuples: Vec<Vec<NodeId>>,
    pub tree_seed: u64,
    pub pairs_seed: u64,
    /// The instance coordinates its cells share: family, requested size,
    /// and for the enumerated family the tree's enumeration index.
    family: Family,
    n: usize,
    tree_index: Option<u64>,
    /// Shared basic-walk automaton for [`Variant::BasicWalkFsa`] cells
    /// (its table is a function of the tree's maximum degree only). Built
    /// only for an instance that runs bw-fsa cells: the table is dense,
    /// Θ(Δ³) entries, which a high-degree tree of a procedural grid would
    /// pay for and never read.
    bw_fsa: Option<rvz_agent::Fsa>,
    /// Solo recordings and lassos, fetched once from the process-wide
    /// registry and shared with every instance built at the same
    /// `(family, n, tree_seed)` (see [`crate::memo`]).
    pub(crate) memo: Arc<InstanceMemo>,
}

impl SweepInstance {
    /// Builds the instance at `(family, n, tree_index)` of a grid seeded
    /// with `base_seed`: its tree (`tree`, when the enumeration already
    /// yielded it), its start pool (every feasible start for the
    /// enumerated family, else `starts` sampled ones), its memo, and its
    /// basic-walk table when `basic_walk` says it runs bw-fsa cells.
    fn new(
        family: Family,
        n: usize,
        tree_index: Option<u64>,
        tree: Option<Tree>,
        base_seed: u64,
        starts: usize,
        agents: usize,
        basic_walk: bool,
    ) -> Self {
        // The seeds are functions of the instance coordinates only, so
        // every delay/variant/pair cell on the instance sees the identical
        // tree and pool. For the enumerated family the tree "seed" is the
        // enumeration index, and no seed enters its exhaustive start axis.
        let seed = |axis| mix(base_seed, &[fnv(axis), fnv(family.name()), n as u64]);
        let tree_seed = tree_index.unwrap_or_else(|| seed("tree"));
        let pairs_seed = if tree_index.is_some() { 0 } else { seed("pairs") };
        let tree = tree.unwrap_or_else(|| family.build(n, tree_seed));
        let tuples = if tree_index.is_some() {
            instances::exhaustive_feasible_tuples(&tree, agents)
        } else {
            instances::feasible_tuples(&tree, agents, starts, pairs_seed)
        };
        let (pairs, tuples) = if agents > 2 {
            (Vec::new(), tuples)
        } else {
            (tuples.iter().map(|t| [t[0], t[1]]).collect(), Vec::new())
        };
        let memo = memo::memo(family, n, tree_seed, tree.num_nodes());
        let bw_fsa = basic_walk.then(|| rvz_agent::Fsa::basic_walk(tree.max_degree().max(1)));
        SweepInstance {
            tree,
            pairs,
            tuples,
            tree_seed,
            pairs_seed,
            family,
            n,
            tree_index,
            bw_fsa,
            memo,
        }
    }

    /// Builds the instance a cell runs on, standalone: the same tree,
    /// start pool and memo the plan ([`instances()`]) holds for the cell,
    /// with the basic-walk table only for a bw-fsa cell. An enumerated
    /// tree is rebuilt from its index ([`Family::build`]), so any cell
    /// rebuilds from its coordinates alone.
    pub fn for_cell(c: &Cell) -> Self {
        let basic_walk = c.variant == Variant::BasicWalkFsa;
        Self::new(
            c.family,
            c.n,
            c.tree_index,
            None,
            c.base_seed,
            c.pairs_total,
            c.agents,
            basic_walk,
        )
    }

    /// This instance's cells of `spec`'s grid, in grid order (delay,
    /// variant, start), dropping unsupported combinations. `experiment` is
    /// the grid's interned label.
    pub fn cells(&self, spec: &SweepSpec, experiment: &Arc<str>) -> Vec<Cell> {
        // The enumerated start axis is exhaustive; a sampled one plans
        // `pairs_per_cell` cells whether or not the pool has that many.
        let pairs_total = match self.tree_index {
            Some(_) => self.pairs.len() + self.tuples.len(),
            None => spec.pairs_per_cell,
        };
        let mut out = Vec::new();
        for &delay in &spec.delays {
            // The ∀-delay quantifier and the seeded adversarial schedules
            // are pair adversaries (the quantifier's θ axis delays one of
            // two lanes; the sampler draws two-lane rows) — the ensemble
            // grid drops them rather than silently reinterpreting them.
            let pair_adversary = matches!(
                delay,
                Delay::Adversarial | Delay::Schedule(ScheduleSpec::Adversarial { .. })
            );
            if spec.agents > 2 && pair_adversary {
                continue;
            }
            for &variant in &spec.variants {
                if !variant.supports(self.family, delay) {
                    continue;
                }
                out.extend((0..pairs_total).map(|pair_index| Cell {
                    experiment: experiment.clone(),
                    family: self.family,
                    n: self.n,
                    delay,
                    variant,
                    pair_index,
                    pairs_total,
                    base_seed: spec.seed,
                    tree_index: self.tree_index,
                    agents: spec.agents,
                }));
            }
        }
        out
    }

    /// The cell's start nodes, one per lane: its pair, or its tuple at
    /// `--agents k > 2`. `None` past the end of the pool (a dropped cell).
    pub(crate) fn starts(&self, cell: &Cell) -> Option<&[NodeId]> {
        if cell.agents > 2 {
            self.tuples.get(cell.pair_index).map(Vec::as_slice)
        } else {
            self.pairs.get(cell.pair_index).map(|pair| &pair[..])
        }
    }

    /// The basic-walk automaton matched to this instance's degree bound;
    /// every `bw-fsa` cell on the instance borrows the same table.
    ///
    /// # Panics
    ///
    /// On an instance built for a grid or a cell without bw-fsa cells,
    /// which holds no table.
    pub fn basic_walk_fsa(&self) -> &rvz_agent::Fsa {
        self.bw_fsa.as_ref().expect(
            "this instance holds no basic-walk table: it was built for a grid or a cell \
             without bw-fsa cells",
        )
    }

    /// The shared solo recording of `variant` from `start`.
    pub(crate) fn lane(&self, variant: Variant, start: NodeId) -> &memo::Lane {
        self.memo.lane(variant, start, || VariantRecorder::new(variant, start, self))
    }

    /// The basic-walk solo lasso from `start`, tabulated on first use.
    pub(crate) fn solo_lasso(&self, start: NodeId) -> &SoloLasso {
        self.memo.lasso(start, || SoloLasso::tabulate(&self.tree, self.basic_walk_fsa(), start))
    }
}

/// Executes one cell standalone, rebuilding its instance from the cell
/// coordinates. Pure in the cell: no global state, no clock, no thread
/// identity. Returns `None` when the instance yielded fewer feasible start
/// pairs than `pair_index`. The batch executor ([`run`]) avoids the rebuild
/// by sharing a [`SweepInstance`] across the sub-grid via
/// [`run_cell_on`].
pub fn run_cell(cell: &Cell) -> Option<SweepRow> {
    let inst = SweepInstance::for_cell(cell);
    render(cell, &inst, run_cell_on(cell, &inst)).0
}

/// How a cell's delay axis executes at a resolved instance size. A start
/// delay θ — every delay flavor, including start-delay-shaped schedule
/// specs, which thereby emit byte-identical legacy rows — freezes the last
/// lane (agent B of a pair) through round θ and stays an integer, so
/// every executor runs any θ without materializing prefix rows.
/// A genuine schedule is resolved at the cell's lane count.
pub(crate) enum CellMode {
    Delay(u64),
    Scheduled(EnsembleSchedule),
}

/// Per-lane start delays of a θ cell: the last lane is delayed.
fn lane_delays(theta: u64, lanes: usize) -> Vec<u64> {
    let mut delays = vec![0; lanes];
    delays[lanes - 1] = theta;
    delays
}

impl Cell {
    /// The execution mode at instance size `n`. Must not be called on
    /// [`Delay::Adversarial`] cells (the quantifier layer owns those).
    pub(crate) fn mode(&self, n: usize) -> CellMode {
        match self.delay {
            Delay::Schedule(spec) => match spec.as_start_delay() {
                Some(theta) => CellMode::Delay(theta),
                None => CellMode::Scheduled(spec.resolve_ensemble(n, self.agents)),
            },
            delay => CellMode::Delay(delay.resolve(n)),
        }
    }

    /// The round budget of the cell's variant at instance size `n`, shared
    /// by every executor. Procedural budgets are per-instance and
    /// lane-count-free (the provisioning argument bounds *each* copy); the
    /// basic-walk budget is the mode's exact horizon
    /// ([`schedule_budget_for`], which is [`basic_walk_budget_for`] on a
    /// start delay).
    fn budget(&self, n: usize, mode: &CellMode) -> u64 {
        match (self.variant, mode) {
            (Variant::TreeRvz | Variant::DelayRobust, _) => budget_for(n),
            (Variant::PrimePath, _) => prime_budget_for(n),
            (Variant::BasicWalkFsa, CellMode::Delay(theta)) => basic_walk_budget_for(n, *theta),
            (Variant::BasicWalkFsa, CellMode::Scheduled(s)) => schedule_budget_for(n, s),
        }
    }
}

/// Why a cell records no run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineKind {
    /// Every attempt exceeded `--cell-timeout` ([`SweepRow::timed_out`]).
    TimedOut,
    /// Every worker sent to its shard died ([`SweepRow::poisoned`]).
    Poisoned,
}

/// What an executor computed for one cell, with the delay and budget it
/// ran under: every field of its row and certificate that `render` does
/// not read off the cell and its instance. Every executor, the watchdog
/// and the supervisor's quarantine produce one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// The meeting round — of *gathering* at `k > 2`: all copies on one
    /// node at a round boundary. The row's `met` is whether there is one.
    pub rounds: Option<u64>,
    pub crossings: u64,
    /// The largest memory reading of the cell's agents after the run.
    pub measured_bits: u64,
    /// Exactly decided: no round is then a certified never-meets.
    pub certified: bool,
    /// The resolved start delay θ (0 under a genuine schedule); on a ∀θ
    /// cell, the decisive delay (0 when no run reached one).
    pub delay: u64,
    /// The round budget the cell ran under: on a ∀θ cell, the decisive
    /// delay's horizon (0 when no run reached one).
    pub budget: u64,
    /// `Some` when no run happened: the outcome then records none.
    pub quarantine: Option<QuarantineKind>,
    /// The evidence of a certified verdict, for the cell's [`Certificate`].
    pub certificate: Option<Evidence>,
}

/// What a [`Certificate`] adds to its cell's row; its decisive delay and
/// round are the outcome's `delay` and `rounds` on every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evidence {
    /// `"never-meets"` / `"never-gathers"` at a fixed delay or schedule;
    /// `"all-delays-meet"` / `"delay-defeats"` on a ∀θ cell.
    pub verdict: &'static str,
    /// Distinct delay classes the ∀θ quantifier decided.
    pub delays_checked: Option<u64>,
    /// The never-meets lasso: its stem, its period, and whether
    /// independent stepping re-verified it.
    pub lasso: Option<(u64, u64, bool)>,
}

impl CellOutcome {
    /// A run's uncertified outcome.
    fn ran(rounds: Option<u64>, crossings: u64, bits: u64, (delay, budget): (u64, u64)) -> Self {
        CellOutcome {
            rounds,
            crossings,
            measured_bits: bits,
            certified: false,
            delay,
            budget,
            quarantine: None,
            certificate: None,
        }
    }

    /// A quarantined cell: "no run happened" — no round, zero crossings and
    /// measured bits, uncertified — whose row still names the skipped
    /// computation (θ, schedule, budget, provisioned bits); a ∀θ cell never
    /// reached a decisive delay, so it reports θ 0 and budget 0. `None` past
    /// the end of the start pool (a dropped cell).
    pub(crate) fn quarantined(
        cell: &Cell,
        inst: &SweepInstance,
        kind: QuarantineKind,
    ) -> Option<Self> {
        inst.starts(cell)?;
        let n = inst.tree.num_nodes();
        let horizon = match cell.delay {
            Delay::Adversarial => (0, 0),
            delay => (delay.resolve(n), cell.budget(n, &cell.mode(n))),
        };
        Some(CellOutcome { quarantine: Some(kind), ..Self::ran(None, 0, 0, horizon) })
    }
}

/// Renders a cell's outcome as its row and, for a certified verdict, its
/// certificate: the single place either shape lives, so byte-identity
/// across executors, the watchdog and the supervisor is kept here. Lanes
/// 0/1 land in `start_a`/`start_b`; at `k > 2` `agents` and `start_rest`
/// join, so every pair row keeps its exact shape. A dropped cell (no
/// outcome) renders as nothing.
pub(crate) fn render(
    cell: &Cell,
    inst: &SweepInstance,
    outcome: Option<CellOutcome>,
) -> (Option<SweepRow>, Option<Certificate>) {
    let Some(o) = outcome else { return (None, None) };
    let tree = &inst.tree;
    let (n, leaves) = (tree.num_nodes(), tree.num_leaves());
    let starts = inst.starts(cell).expect("a cell with an outcome has its starts");
    // Start-delay-shaped schedule specs emit legacy rows, with no label.
    let schedule = match cell.delay {
        Delay::Schedule(spec) if spec.as_start_delay().is_none() => Some(spec.label(n)),
        _ => None,
    };
    let provisioned_bits = match cell.variant {
        Variant::TreeRvz => TreeRendezvousAgent::provisioned_bits(n as u64, leaves as u64),
        Variant::DelayRobust => DelayRobustAgent::provisioned_bits(n as u64),
        Variant::PrimePath => 0,
        Variant::BasicWalkFsa => inst.basic_walk_fsa().memory_bits(),
    };
    let ensemble = starts.len() > 2;
    let agents = ensemble.then_some(starts.len());
    let start_rest = || ensemble.then(|| starts[2..].to_vec());
    let certificate = o.certificate.map(|e| Certificate {
        experiment: cell.experiment.clone(),
        family: cell.family.name().to_string(),
        size: cell.n,
        n,
        tree_seed: inst.tree_seed,
        variant: cell.variant.name().to_string(),
        start_a: starts[0],
        start_b: starts[1],
        verdict: e.verdict.to_string(),
        schedule: schedule.clone(),
        delay: o.delay,
        round: o.rounds,
        delays_checked: e.delays_checked,
        lasso_stem: e.lasso.map(|(stem, _, _)| stem),
        lasso_period: e.lasso.map(|(_, period, _)| period),
        verified: e.lasso.map(|(_, _, verified)| verified),
        agents,
        start_rest: start_rest(),
    });
    let row = SweepRow {
        experiment: cell.experiment.clone(),
        family: cell.family.name().to_string(),
        size: cell.n,
        n,
        leaves,
        variant: cell.variant.name().to_string(),
        delay: o.delay,
        schedule,
        start_a: starts[0],
        start_b: starts[1],
        met: o.rounds.is_some(),
        rounds: o.rounds,
        crossings: o.crossings,
        budget: o.budget,
        provisioned_bits,
        measured_bits: o.measured_bits,
        tree_seed: inst.tree_seed,
        pairs_seed: inst.pairs_seed,
        cell_seed: cell.cell_seed(),
        certified: o.certified,
        timed_out: (o.quarantine == Some(QuarantineKind::TimedOut)).then_some(true),
        poisoned: (o.quarantine == Some(QuarantineKind::Poisoned)).then_some(true),
        planned: None,
        agents,
        start_rest: start_rest(),
    };
    (Some(row), certificate)
}

/// Steps a bank of fresh agents, one per start built by `spawn`, through
/// the k-lane round loop; returns the run and the largest `meter` reading
/// after it. The agents go through `dyn Agent`: timed on e7 (pairs of
/// tree-rvz agents) the dyn loop ran about 12% faster than a per-type
/// loop, and on e11 (triples of automata) the two were within noise.
fn step_bank<A: Agent>(
    tree: &Tree,
    starts: &[NodeId],
    (mode, budget): (&CellMode, u64),
    spawn: impl Fn() -> A,
    meter: impl Fn(&A) -> u64,
) -> (EnsembleRun, u64) {
    let mut bank: Vec<A> = starts.iter().map(|_| spawn()).collect();
    let mut lanes: Vec<&mut dyn Agent> = bank.iter_mut().map(|a| a as &mut dyn Agent).collect();
    let act = |lane: usize, obs| lanes[lane].act(obs);
    let k = starts.len();
    // One loop per activation rule, so no round pays a branch on the mode.
    // A delayed pair steps on a two-element array: once the loop is
    // inlined its lane count is a constant and the per-round lane-pair
    // scans unroll; with a slice, e7's pairs stepped about 25% slower.
    let run = match (mode, starts) {
        (CellMode::Delay(theta), &[a, b]) => {
            run_ensemble_with(tree, &[a, b], act, |r, lane| lane == 0 || r > *theta, budget, false)
        }
        (CellMode::Delay(theta), _) => run_ensemble_with(
            tree,
            starts,
            act,
            |r, lane| lane + 1 < k || r > *theta,
            budget,
            false,
        ),
        (CellMode::Scheduled(sched), _) => {
            run_ensemble_with(tree, starts, act, |r, lane| sched.active(r)[lane], budget, false)
        }
    };
    (run, bank.iter().map(meter).max().unwrap_or(0))
}

/// Executes one cell on a prebuilt instance by *stepping* every agent
/// (the [`Executor::DynStepping`] path, and every bounded cell's unless
/// replay is asked for), for any lane count. `inst` must be (equal to)
/// `SweepInstance::for_cell(cell)` — the executor guarantees this by
/// running each cell on the instance that expanded it ([`SweepInstance::cells`]).
pub fn run_cell_on(cell: &Cell, inst: &SweepInstance) -> Option<CellOutcome> {
    if cell.delay == Delay::Adversarial {
        // Only the quantifier layer can answer "every delay".
        return run_cell_decide_certified(cell, inst);
    }
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let starts = inst.starts(cell)?;
    let mode = cell.mode(n);

    // One concrete bank per variant, so each variant's meter stays readable.
    let budget = cell.budget(n, &mode);
    let step = (&mode, budget);
    let (run, measured_bits) = match cell.variant {
        Variant::TreeRvz => step_bank(
            tree,
            starts,
            step,
            TreeRendezvousAgent::new,
            TreeRendezvousAgent::memory_bits_measured,
        ),
        Variant::DelayRobust => step_bank(
            tree,
            starts,
            step,
            DelayRobustAgent::new,
            DelayRobustAgent::memory_bits_measured,
        ),
        Variant::PrimePath => {
            step_bank(tree, starts, step, PrimePathAgent::unbounded, Agent::memory_bits)
        }
        Variant::BasicWalkFsa => {
            let fsa = inst.basic_walk_fsa();
            step_bank(tree, starts, step, || fsa.runner(), Agent::memory_bits)
        }
    };
    let theta = cell.delay.resolve(n);
    Some(CellOutcome::ran(run.outcome.round(), run.crossings, measured_bits, (theta, budget)))
}

/// Executes one cell from recorded trajectories (the
/// [`Executor::TraceReplay`] path), for any lane count: every timeline is
/// a lane of the instance's memo, the *same* recording whatever the
/// schedule or the width (a solo trajectory is a pure function of its
/// activation count), and no agent is stepped on warm lanes. A start
/// delay on two lanes merges by constant shift
/// ([`rvz_sim::replay_pair`]); every other cell runs the k-cursor merge
/// ([`rvz_sim::replay_ensemble`]) on per-lane activation indices, which
/// take θ as an integer. Outcomes equal [`run_cell_on`]'s.
///
/// This is the one place the memo's lock order lives: the cell read-locks
/// its lanes in ascending start order and merges; when the merge asks for
/// more rounds, it drops every guard, grows only the lanes the merge
/// flagged, each under its own write lock, and retries. A cell that would
/// grow a lane past the recording cap (2²³ rounds) is stepped instead.
pub fn run_cell_replay(cell: &Cell, inst: &SweepInstance) -> Option<CellOutcome> {
    if cell.delay == Delay::Adversarial {
        // Only the quantifier layer can answer "every delay".
        return run_cell_decide_certified(cell, inst);
    }
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let starts = inst.starts(cell)?;
    let mode = cell.mode(n);
    let budget = cell.budget(n, &mode);
    // Built once per cell for the merge and the meters; a θ cell's lanes
    // come straight from the integer delays, with no schedule rows.
    let indices: Vec<ActivationIndex> = match &mode {
        CellMode::Delay(theta) => lane_delays(*theta, starts.len())
            .into_iter()
            .map(ActivationIndex::start_delay)
            .collect(),
        CellMode::Scheduled(sched) => sched.indices(),
    };
    // The pair merge stays for θ pairs: on e2's long merges and the
    // n ≈ 200 delay scan, routing them through the k-lane merge was
    // measurably slower.
    let pair_delay = match (&mode, starts) {
        (CellMode::Delay(theta), [_, _]) => Some(*theta),
        _ => None,
    };

    // Each lane's (start, slot), in lock order. Feasible starts are
    // pairwise distinct, so the lanes differ.
    let mut order: Vec<(NodeId, usize)> = starts.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let lane = |start| inst.lane(cell.variant, start);
    loop {
        rvz_sim::cancel::checkpoint();
        let guards: Vec<_> = order.iter().map(|&(start, _)| memo::read(lane(start))).collect();
        // The locked recordings in slot order, as the merge reads them.
        let mut trajs = vec![guards[0].trajectory(); starts.len()];
        for (guard, &(_, slot)) in guards.iter().zip(&order) {
            trajs[slot] = guard.trajectory();
        }
        // The decided run's (outcome, crossings), or each lane's request
        // in recorded activations (0 = long enough).
        let verdict = match pair_delay {
            Some(theta) => {
                match replay_pair(tree, trajs[0], trajs[1], PairConfig::delayed(theta, budget)) {
                    Replay::Decided(run) => Ok((run.outcome, run.crossings)),
                    Replay::NeedMore { a_rounds, b_rounds } => Err(vec![a_rounds, b_rounds]),
                }
            }
            None => match replay_ensemble(tree, &trajs, &indices, budget, false) {
                EnsembleReplay::Decided(run) => Ok((run.outcome, run.crossings)),
                EnsembleReplay::NeedMore { rounds } => Err(rounds),
            },
        };
        match verdict {
            Ok((outcome, crossings)) => {
                // Meters read at each lane's activation count by the final
                // round, exactly as the stepping bank reports them.
                let end = outcome.round().unwrap_or(budget);
                let measured_bits = trajs
                    .iter()
                    .zip(&indices)
                    .map(|(traj, idx)| traj.bits_at(idx.acts_at(end)))
                    .max()
                    .unwrap_or(0);
                let horizon = (cell.delay.resolve(n), budget);
                return Some(CellOutcome::ran(outcome.round(), crossings, measured_bits, horizon));
            }
            Err(rounds) => {
                if rounds.iter().any(|&need| need > memo::MAX_RECORD_ROUNDS) {
                    drop(guards);
                    return run_cell_on(cell, inst);
                }
                // Grow only the lanes the merge flagged: a warm recording
                // is never write-locked, let alone re-stepped, because a
                // partner lane was short.
                let short: Vec<bool> =
                    rounds.iter().zip(&trajs).map(|(&need, traj)| !traj.decided_to(need)).collect();
                drop(guards);
                for ((&start, &need), short) in starts.iter().zip(&rounds).zip(short) {
                    if short {
                        memo::grow(lane(start), tree, need, budget);
                    }
                }
            }
        }
    }
}

/// A decided cell at a fixed delay or schedule: the fixed-delay closed
/// form (pairs), or an ensemble decision (every schedule, and every delay
/// at `k > 2`).
enum CellDecision {
    Fixed(Decision),
    Ensemble(EnsembleDecision),
}

/// Executes one cell by reachability over the joint configuration graph
/// (the [`Executor::ExactDecide`] path, [`rvz_lowerbounds::decide`]) — no
/// round budget, for any lane count. Exact for the automaton variant;
/// procedural-agent cells are stepped ([`run_cell_on`]; their
/// configuration spaces are not exported). Outcomes equal the bounded
/// executors' except for `certified: true`: the meeting round and the
/// crossing count *at the bounded executors' budget* (closed-form along
/// the certified cycle) coincide. Never-meets (never-gathers) and
/// universal-delay cells carry the [`Evidence`] of their certificate;
/// every lasso is re-verified by independent stepping.
///
/// Every cell is decided directly from the instance's memoized solo
/// lassos, or by the product walk under a genuine schedule. Pairs keep one
/// special case, pair-only by nature: the θ axis runs on the fixed-delay
/// closed form, which the ∀θ quantifier folds over every delay.
pub fn run_cell_decide_certified(cell: &Cell, inst: &SweepInstance) -> Option<CellOutcome> {
    if cell.variant != Variant::BasicWalkFsa {
        // The grid filter keeps adversarial delays off procedural agents;
        // guard against a hand-built one bouncing back here from stepping.
        assert!(cell.delay != Delay::Adversarial, "adversarial delay needs the automaton variant");
        return run_cell_on(cell, inst);
    }
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let starts = inst.starts(cell)?;
    let fsa = inst.basic_walk_fsa();
    let ensemble = starts.len() > 2;
    // The automaton's memory is fixed, so it is also every measured bit.
    let decided = |horizon, round, crossings, certificate| CellOutcome {
        certified: true,
        certificate,
        ..CellOutcome::ran(round, crossings, fsa.memory_bits(), horizon)
    };

    // `None` is the ∀θ quantifier. The grid filter keeps it off ensemble
    // cells; a hand-built one must fail loudly rather than be answered
    // from lanes 0 and 1 alone.
    let mode = (cell.delay != Delay::Adversarial).then(|| cell.mode(n));
    assert!(mode.is_some() || !ensemble, "the ∀θ quantifier is a pair axis");
    // Feasible pairs have distinct starts, so the precomputed-lasso entry
    // points apply; the per-lane solo lassos come from the instance memo,
    // shared across every start tuple and delay class.
    let solo = |start| inst.solo_lasso(start);
    let Some(mode) = mode else {
        let forall = |verdict, delays_checked, lasso| {
            Some(Evidence { verdict, delays_checked: Some(delays_checked), lasso })
        };
        return Some(match worst_case_from_lassos(solo(starts[0]), solo(starts[1])) {
            WorstCase::AllMeet { worst_delay, worst_round, delays_checked, decision } => {
                let crossings = decision.crossings_within(worst_round);
                let evidence = forall("all-delays-meet", delays_checked, None);
                let horizon = (worst_delay, basic_walk_budget_for(n, worst_delay));
                decided(horizon, Some(worst_round), crossings, evidence)
            }
            WorstCase::Defeated { delay, decision, delays_checked } => {
                let l = decision.lasso().expect("defeat carries a lasso");
                let verified = verify_lasso(tree, fsa, starts[0], starts[1], delay, l);
                let evidence =
                    forall("delay-defeats", delays_checked, Some((l.stem, l.period, verified)));
                let horizon = (delay, basic_walk_budget_for(n, delay));
                decided(horizon, None, decision.crossings_within(horizon.1), evidence)
            }
        });
    };
    let decision = match &mode {
        CellMode::Delay(theta) if !ensemble => {
            CellDecision::Fixed(decide_from_lassos(solo(starts[0]), solo(starts[1]), *theta))
        }
        CellMode::Delay(theta) => {
            let lassos: Vec<&SoloLasso> = starts.iter().map(|&s| solo(s)).collect();
            let delays = lane_delays(*theta, starts.len());
            CellDecision::Ensemble(decide_ensemble_from_lassos(&lassos, &delays))
        }
        CellMode::Scheduled(sched) => {
            CellDecision::Ensemble(decide_ensemble(tree, fsa, starts, sched))
        }
    };

    let budget = cell.budget(n, &mode);
    let theta = cell.delay.resolve(n);
    // Each never-meets lasso, re-verified by independent stepping.
    let (round, crossings, lasso) = match decision {
        CellDecision::Fixed(d) => {
            let lasso = d.lasso().map(|l| {
                (l.stem, l.period, verify_lasso(tree, fsa, starts[0], starts[1], theta, l))
            });
            (d.round(), d.crossings_within(d.round().unwrap_or(budget)), lasso)
        }
        CellDecision::Ensemble(d) => {
            let lasso = d.lasso().map(|lasso| {
                let verified = match &mode {
                    CellMode::Delay(theta) => {
                        let delays = lane_delays(*theta, starts.len());
                        verify_delayed_ensemble_lasso(tree, fsa, starts, &delays, lasso)
                    }
                    CellMode::Scheduled(sched) => {
                        verify_ensemble_lasso(tree, fsa, starts, sched, lasso)
                    }
                };
                (lasso.stem, lasso.period, verified)
            });
            (d.round(), d.crossings_within(d.round().unwrap_or(budget)), lasso)
        }
    };
    let verdict = if ensemble { "never-gathers" } else { "never-meets" };
    let evidence = lasso.map(|l| Evidence { verdict, delays_checked: None, lasso: Some(l) });
    // `crossings_within(round)` == the simulator's count: it stops
    // counting at the meeting round too.
    Some(decided((theta, budget), round, crossings, evidence))
}

/// What a sweep produced: the rows, plus how much of the planned grid they
/// cover. `dropped_cells > 0` means some instances had fewer feasible start
/// pairs than `pairs_per_cell` — those cells never ran, and pretending
/// otherwise would make row counts silently incomparable across sizes.
/// `certificates` carries the exact decider's machine-checkable evidence
/// (empty under the bounded executors), in grid order. A report is the
/// collector of a sweep's [`Block`]s ([`SweepReport::push`]); the CLI
/// never builds one for e9/e10/e11, whose grids it folds block by block.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    pub rows: Vec<SweepRow>,
    pub planned_cells: usize,
    pub dropped_cells: usize,
    pub certificates: Vec<Certificate>,
    /// Journal appends that failed (or were skipped after the journal was
    /// declared dead) during this run — `0` without a journal. Nonzero
    /// means the report in hand is complete but the on-disk checkpoint is
    /// not; `--strict-checkpoint` turns the first such failure into a
    /// hard error instead.
    pub append_failures: u64,
}

impl SweepReport {
    /// Appends `block`, the next instance's share of the grid.
    pub fn push(&mut self, block: Block) {
        self.planned_cells += block.planned;
        self.dropped_cells += block.planned - block.rows.len();
        self.rows.extend(block.rows);
        self.certificates.extend(block.certificates);
    }
}

/// One instance's share of a sweep, and the unit that leaves it: the
/// cells the instance planned, and the rows and certificates of those that
/// ran, in grid order. A cell past the end of its instance's start pool
/// counts in `planned` and yields no row.
#[derive(Debug, Default)]
pub struct Block {
    pub planned: usize,
    pub rows: Vec<SweepRow>,
    pub certificates: Vec<Certificate>,
}

/// A block from its cells' rows and certificates, in grid order.
impl FromIterator<(Option<SweepRow>, Option<Certificate>)> for Block {
    fn from_iter<I: IntoIterator<Item = (Option<SweepRow>, Option<Certificate>)>>(
        cells: I,
    ) -> Block {
        let cells = cells.into_iter();
        let mut block = Block { rows: Vec::with_capacity(cells.size_hint().0), ..Block::default() };
        for (row, certificate) in cells {
            block.planned += 1;
            block.rows.extend(row);
            block.certificates.extend(certificate);
        }
        block
    }
}

/// Runs one cell on a prebuilt instance on `executor` and renders its
/// outcome. A ∀θ cell keeps its [`Certificate`] under every executor.
pub fn run_cell_with_executor(
    cell: &Cell,
    inst: &SweepInstance,
    executor: Executor,
) -> (Option<SweepRow>, Option<Certificate>) {
    render(cell, inst, dispatch(cell, inst, executor))
}

/// The outcome of one cell on `executor`: the single dispatch the sweep,
/// the `--workers` workers and the watchdog's attempts share.
fn dispatch(cell: &Cell, inst: &SweepInstance, executor: Executor) -> Option<CellOutcome> {
    match executor {
        Executor::TraceReplay => run_cell_replay(cell, inst),
        Executor::DynStepping => run_cell_on(cell, inst),
        Executor::ExactDecide => run_cell_decide_certified(cell, inst),
    }
}

/// Runs one cell under a wall-clock budget per attempt: the cell executes
/// on a watchdogged thread, and an attempt that exceeds `timeout` is
/// *cancelled* — the watchdog sets the attempt's cooperative cancellation
/// flag ([`rvz_sim::cancel`]), the executor loops observe it at their next
/// poll point and unwind, and the thread exits — while the cell retries
/// once, on stepping. (The thread is still detached rather than
/// joined so one unresponsive attempt cannot wedge the sweep, but unlike
/// the old detach-and-forget scheme it terminates promptly instead of
/// stepping to the end of a possibly astronomical budget; pinned by
/// `tests/watchdog_threads.rs`.) A cell whose every attempt times out is
/// quarantined ([`QuarantineKind::TimedOut`]). Stepping and adversarial
/// cells get one attempt: a retry would re-run the same computation.
fn run_cell_watchdogged(
    cell: &Cell,
    inst: &Arc<SweepInstance>,
    executor: Executor,
    timeout: std::time::Duration,
) -> Option<CellOutcome> {
    use rvz_sim::cancel;
    cancel::silence_cancelled_panics();
    let retry = executor != Executor::DynStepping && cell.delay != Delay::Adversarial;
    let chain = &[executor, Executor::DynStepping][..1 + retry as usize];
    for (step, &attempt) in chain.iter().enumerate() {
        let (tx, rx) = std::sync::mpsc::channel();
        let cancel_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let c = cell.clone();
        let i = Arc::clone(inst);
        let flag = Arc::clone(&cancel_flag);
        std::thread::spawn(move || {
            let _guard = cancel::CancelGuard::install(flag);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dispatch(&c, &i, attempt)
            })) {
                // The receiver may be long gone (timeout) — a dead send is fine.
                Ok(out) => drop(tx.send(out)),
                Err(payload) if cancel::CancelGuard::is_cancelled_payload(&*payload) => {}
                Err(payload) => std::panic::resume_unwind(payload),
            }
        });
        match rx.recv_timeout(timeout) {
            Ok(out) => return out,
            Err(_) => {
                cancel_flag.store(true, std::sync::atomic::Ordering::Relaxed);
                eprintln!(
                    "warning: cell {:#018x} ({} n={} {} pair {}) exceeded {timeout:?} on the \
                     {attempt:?} executor — {}",
                    cell.cell_seed(),
                    cell.family.name(),
                    cell.n,
                    cell.variant.name(),
                    cell.pair_index,
                    if step + 1 < chain.len() {
                        "retrying on the stepping executor"
                    } else {
                        "quarantining as a timed_out row"
                    },
                );
            }
        }
    }
    CellOutcome::quarantined(cell, inst, QuarantineKind::TimedOut)
}

/// A sweep's one path for a cell, which [`run_into`], the `--workers`
/// workers and the supervisor's fill-in share: the cell's record when the
/// journal holds one, else its outcome — a poisoned quarantine when
/// `poisoned` says its shard killed every worker sent to it, or the cell
/// run on `executor`, on the per-cell watchdog when `opts` sets a timeout —
/// rendered and journaled.
pub(crate) fn cell_result(
    cell: &Cell,
    inst: &Arc<SweepInstance>,
    executor: Executor,
    opts: &RunOptions<'_>,
    poisoned: bool,
) -> (Option<SweepRow>, Option<Certificate>) {
    let journal = opts.journal.map(|j| (j, cell.cell_seed()));
    if let Some(rec) = journal.and_then(|(j, cell_seed)| j.lookup(cell_seed)) {
        return (rec.row.clone(), rec.certificate.clone());
    }
    let outcome = match opts.cell_timeout {
        _ if poisoned => CellOutcome::quarantined(cell, inst, QuarantineKind::Poisoned),
        Some(timeout) => run_cell_watchdogged(cell, inst, executor, timeout),
        None => dispatch(cell, inst, executor),
    };
    let (row, certificate) = render(cell, inst, outcome);
    let Some((journal, cell_seed)) = journal else { return (row, certificate) };
    let rec = crate::checkpoint::CellRecord { cell_seed, row, certificate };
    journal.record(&rec);
    (rec.row, rec.certificate)
}

/// Crash-safety and robustness options for [`run_with_options`]; the
/// plain [`run`] entry point uses the default (no journal, no watchdog).
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    /// Checkpoint journal: cells already journaled are skipped (their
    /// recorded outcome is spliced into the report unchanged), cells
    /// computed this run are appended as they complete.
    pub journal: Option<&'a crate::checkpoint::Journal>,
    /// Per-cell wall budget (`run_cell_watchdogged`). **Opt-in and
    /// determinism-breaking across runs**: whether a cell times out
    /// depends on the machine and the moment, so two runs with a timeout
    /// may differ — the flag exists to survive pathological cells, not
    /// for reference outputs.
    pub cell_timeout: Option<std::time::Duration>,
}

/// Runs the whole grid. Rows come back in grid order whatever the thread
/// count — see the module docs for why that matters.
///
/// Each instance of the plan ([`instances()`]) is built once and shared
/// immutably across its delay × variant × pair sub-grid. Cell results are
/// unchanged (same seeds, same trees, same pairs), so the output stays
/// byte-identical to the per-cell-rebuild executor for every `--threads`
/// value.
pub fn run(spec: &SweepSpec) -> SweepReport {
    run_with_options(spec, &RunOptions::default())
}

/// [`run`] plus the crash-safety layer: journaled cells are skipped and
/// spliced back in grid order, completed cells are appended to the
/// journal, and each cell optionally runs under the per-cell watchdog.
/// Because every row is a pure function of the cell coordinates and rows
/// are collected in grid order, a resumed sweep's report — and its JSON —
/// is byte-identical to an uninterrupted run's, for any thread count
/// (pinned by `tests/crash_resume.rs` and the CI `crash-resume` job).
///
/// The collector over [`run_into`]: every block is pushed onto one report.
pub fn run_with_options(spec: &SweepSpec, opts: &RunOptions<'_>) -> SweepReport {
    let mut report = SweepReport::default();
    run_into(spec, opts, |block| block, |block| report.push(block));
    report.append_failures = opts.journal.map_or(0, |j| j.appends_lost());
    report
}

/// The sweep itself, which [`run_with_options`] collects: one task per
/// instance of the plan, each of which runs the instance's cells through
/// `cell_result` (journal lookup, or dispatch, render and journal) and
/// passes its [`Block`] through `prepare` on the same thread (the CLI
/// renders the block's report bytes and folds its summary there, so the
/// rows are dropped where they were allocated). The prepared blocks reach
/// `sink` in grid order while the sweep runs, through an ordered window of
/// 64 blocks (`rvz-bench/src/window.rs`): the worker that finishes the
/// oldest block not yet handed on hands on every finished block behind it,
/// and no worker starts an instance 64 or more blocks past that one, so a
/// sweep holds a bounded number of blocks whatever its grid.
pub fn run_into<T: Send>(
    spec: &SweepSpec,
    opts: &RunOptions<'_>,
    prepare: impl Fn(Block) -> T + Sync,
    sink: impl FnMut(T) + Send,
) {
    let experiment: Arc<str> = Arc::from(spec.experiment.as_str());
    let plan = instances(spec);
    let block = |inst: &Arc<SweepInstance>| -> Block {
        let cells = inst.cells(spec, &experiment);
        cells.iter().map(|c| cell_result(c, inst, spec.executor, opts, false)).collect()
    };
    pool(spec).install(|| crate::window::ordered(&plan, |inst| prepare(block(inst)), sink));
    if let Some(journal) = opts.journal {
        journal.sync();
    }
}

/// The words a table uses for cells of one ensemble width: a start pair
/// that meets or never meets at two agents, a start tuple whose copies
/// gather or never gather at `k > 2`.
pub(crate) struct Lanes {
    /// The ensemble width `k`.
    pub agents: usize,
    /// The start tuples' noun: `pairs`, `triples`, `4-tuples`, ….
    pub tuples: String,
    /// The verb of a cell whose copies co-locate: `met` or `gathered`.
    pub met: &'static str,
    /// The verdict of a certified negative cell: `never-meets` or
    /// `never-gathers`.
    pub never: &'static str,
}

impl Lanes {
    pub(crate) fn new(agents: usize) -> Lanes {
        let (met, never) =
            if agents > 2 { ("gathered", "never-gathers") } else { ("met", "never-meets") };
        let tuples = match agents {
            2 => "pairs".to_string(),
            3 => "triples".to_string(),
            k => format!("{k}-tuples"),
        };
        Lanes { agents, tuples, met, never }
    }
}

/// What the closing notes of the e9, e10 and e11 summaries count, folded
/// one block at a time: the rows' ensemble width, the certificates and
/// their lassos, and the cells no verdict column counts.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    /// The width of the first row ([`SweepRow::agents`], 2 when absent);
    /// `None` before any row.
    width: Option<usize>,
    pub certificates: usize,
    /// Certificates that carry a lasso.
    pub lassos: usize,
    /// Certificates whose lasso failed re-verification.
    pub failed: usize,
    /// Cells answered by bounded simulation: neither certified nor
    /// quarantined.
    uncertified: usize,
    /// Quarantined cells (timed out or poisoned).
    quarantined: usize,
}

impl Checks {
    pub(crate) fn add(&mut self, rows: &[SweepRow], certificates: &[Certificate]) {
        if let Some(row) = rows.first() {
            self.width.get_or_insert(row.agents.unwrap_or(2));
        }
        self.certificates += certificates.len();
        self.lassos += certificates.iter().filter(|c| c.lasso_stem.is_some()).count();
        self.failed += certificates.iter().filter(|c| c.verified == Some(false)).count();
        self.uncertified += rows.iter().filter(|r| !r.certified && !r.quarantined()).count();
        self.quarantined += rows.iter().filter(|r| r.quarantined()).count();
    }

    /// Folds in `other`, the counts of the blocks after these.
    pub(crate) fn merge(&mut self, other: Checks) {
        self.width = self.width.or(other.width);
        self.certificates += other.certificates;
        self.lassos += other.lassos;
        self.failed += other.failed;
        self.uncertified += other.uncertified;
        self.quarantined += other.quarantined;
    }

    /// The words of the rows' width; for a sweep with no rows, of the
    /// width of `experiment`'s preset.
    pub(crate) fn lanes(&self, experiment: &str) -> Lanes {
        Lanes::new(
            self.width
                .unwrap_or_else(|| preset(experiment, &[], 1, 0).map_or(2, |spec| spec.agents)),
        )
    }

    /// The closing notes of the e9, e10 and e11 summaries: cells answered
    /// by bounded simulation, and quarantined cells, which record no run
    /// and which no verdict column counts.
    pub(crate) fn note_unverified_cells(&self, t: &mut Table) {
        if self.uncertified > 0 {
            t.note(&format!(
                "{} cells answered by bounded simulation, not certified — \
                 run with --executor decide for certified verdicts",
                self.uncertified
            ));
        }
        if self.quarantined > 0 {
            t.note(&format!(
                "{} cells quarantined (timed out or poisoned): no run recorded, \
                 counted in no verdict column",
                self.quarantined
            ));
        }
    }
}

/// Renders the report of `spec`'s sweep as the same kind of aligned table
/// the classic experiment drivers print. Its words follow the spec's
/// ensemble width: pair rows show their starts as columns `a` and `b`,
/// rows of `k > 2` agents every lane's start in one `starts` column.
pub fn to_table(spec: &SweepSpec, report: &SweepReport) -> Table {
    let rows = &report.rows;
    let lanes = Lanes::new(spec.agents);
    let starts: &[&str] = if lanes.agents > 2 { &["starts"] } else { &["a", "b"] };
    let headers = [
        &["family", "n", "ℓ", "variant", "delay"][..],
        starts,
        &[lanes.met, "rounds", "prov-bits", "meas-bits"],
    ]
    .concat();
    let mut t = Table::new(
        &spec.experiment.to_uppercase(),
        &format!("sweep grid ({} rows)", rows.len()),
        &headers,
    );
    for r in rows {
        let mut cells = vec![
            r.family.clone(),
            r.n.to_string(),
            r.leaves.to_string(),
            r.variant.clone(),
            r.schedule.clone().unwrap_or_else(|| r.delay.to_string()),
        ];
        if lanes.agents > 2 {
            let rest = r.start_rest.iter().flatten();
            let all: Vec<String> =
                [r.start_a, r.start_b].iter().chain(rest).map(|s| s.to_string()).collect();
            cells.push(all.join(","));
        } else {
            cells.push(r.start_a.to_string());
            cells.push(r.start_b.to_string());
        }
        cells.extend([
            if r.met { "y" } else { "N" }.to_string(),
            r.rounds.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
            r.provisioned_bits.to_string(),
            r.measured_bits.to_string(),
        ]);
        t.row(cells);
    }
    let met = rows.iter().filter(|r| r.met).count();
    t.note(&format!("{met}/{} cells {} within budget", rows.len(), lanes.met));
    let certified = rows.iter().filter(|r| r.certified).count();
    if certified > 0 {
        let never = rows.iter().filter(|r| r.certified && !r.met).count();
        t.note(&format!(
            "{certified} cells exactly decided ({never} certified {}, no timeouts)",
            lanes.never
        ));
    }
    let timed_out = rows.iter().filter(|r| r.timed_out == Some(true)).count();
    if timed_out > 0 {
        t.note(&format!(
            "{timed_out} cells quarantined by the --cell-timeout watchdog (no run recorded)"
        ));
    }
    let poisoned = rows.iter().filter(|r| r.poisoned == Some(true)).count();
    if poisoned > 0 {
        t.note(&format!(
            "{poisoned} cells quarantined as poisoned (their shard exceeded the worker attempt \
             cap; no run recorded)"
        ));
    }
    if report.append_failures > 0 {
        t.note(&format!(
            "{} journal appends failed — the checkpoint on disk is incomplete (rerun with \
             --strict-checkpoint to make this fatal)",
            report.append_failures
        ));
    }
    if report.dropped_cells > 0 {
        t.note(&format!(
            "{} of {} planned cells dropped (instance had fewer feasible start {} than --pairs)",
            report.dropped_cells, report.planned_cells, lanes.tuples
        ));
    }
    t
}

/// Default grid for each experiment id (`e1`..`e9`); `None` for unknown
/// ids. `sizes`/`threads`/`seed` come from the caller (CLI).
pub fn preset(id: &str, sizes: &[usize], threads: usize, seed: u64) -> Option<SweepSpec> {
    use Delay::*;
    use Family::*;
    use Variant::*;
    let spec = |families: Vec<Family>, delays: Vec<Delay>, variants: Vec<Variant>| SweepSpec {
        experiment: id.to_string(),
        families,
        sizes: sizes.to_vec(),
        delays,
        variants,
        pairs_per_cell: 2,
        seed,
        threads,
        executor: Executor::default(),
        agents: 2,
    };
    Some(match id {
        // Theorem 3.1 territory: arbitrary delays on lines.
        "e1" => spec(vec![Line, LineRnd], vec![Fixed(1), Fixed(7), LinearN], vec![DelayRobust]),
        // Theorem 4.1: simultaneous start across tree families.
        "e2" => spec(
            vec![Line, Spider3, Caterpillar, Random, CompleteBinary],
            vec![Zero],
            vec![TreeRvz],
        ),
        // Lemma 4.1: prime on paths.
        "e3" => spec(vec![Line], vec![Zero], vec![PrimePath]),
        // Theorem 4.2 territory: simultaneous start, adversarial labelings.
        "e4" => spec(vec![LineRnd, Random], vec![Zero], vec![TreeRvz, PrimePath]),
        // Theorem 4.3 territory: few-leaf side trees under delays.
        "e5" => spec(vec![Spider3, Caterpillar], vec![Zero, LinearN], vec![DelayRobust]),
        // §1.1 title claim: the two memory series side by side.
        "e6" => spec(vec![Line, Spider3], vec![Zero, LinearN], vec![TreeRvz, DelayRobust]),
        // Figure 2 machinery: contrasting structured families.
        "e7" => spec(vec![CompleteBinary, Binomial, Star], vec![Zero], vec![TreeRvz]),
        // Ablation-adjacent: the generic random workload, all variants
        // (the automaton variant doubles as the three-executor
        // differential workload — the only one the exact decider answers
        // natively).
        "e8" => spec(
            vec![Random, RandomDeg3],
            vec![Zero, Fixed(3), LinearN],
            vec![TreeRvz, DelayRobust, BasicWalkFsa],
        ),
        // Exhaustive certification: every free tree at each size, every
        // ordered feasible pair, delay 0 and the universal quantifier —
        // sampled families replaced by the whole instance space. Run with
        // `--executor decide`; `pairs_per_cell` is ignored (the pair axis
        // is exhaustive).
        "e9" => spec(vec![EnumFree], vec![Zero, Adversarial], vec![BasicWalkFsa]),
        // Activation schedules, exhaustively: every free tree × every
        // ordered feasible pair × the e10 schedule column — the legacy
        // start scenarios (simultaneous, θ=1) beside genuine per-round
        // delay faults (intermittent duty cycles, a mid-run crash). All
        // cells are bw-fsa, so the decide executor (the default) certifies
        // every one; the bounded executors answer the same grid within
        // the exact `schedule_budget_for` horizons for the differential
        // gates.
        "e10" => spec(
            vec![EnumFree],
            vec![
                Schedule(ScheduleSpec::Simultaneous),
                Schedule(ScheduleSpec::StartDelay(1)),
                Schedule(ScheduleSpec::Intermittent { period: 2, phase: 0 }),
                Schedule(ScheduleSpec::Intermittent { period: 3, phase: 0 }),
                Schedule(ScheduleSpec::CrashAfterHalfN),
            ],
            vec![BasicWalkFsa],
        ),
        // Gathering, exhaustively: three basic-walk copies on every free
        // tree × every ordered feasible start *triple* × the e10 headline
        // schedules. The point is the crash column: e10 certifies that a
        // mid-run crash never prevents a *pair* from meeting (the
        // survivor's Euler tour covers the tree), but a crashed copy
        // parks on a node and gathering demands all three co-locate
        // simultaneously — e11 certifies that rescue does **not** survive
        // the jump from rendezvous to gathering. All cells are bw-fsa, so
        // the decide executor (the default) certifies every one.
        "e11" => {
            let mut s = spec(
                vec![EnumFree],
                vec![
                    Schedule(ScheduleSpec::Simultaneous),
                    Schedule(ScheduleSpec::StartDelay(1)),
                    Schedule(ScheduleSpec::CrashAfterHalfN),
                ],
                vec![BasicWalkFsa],
            );
            s.agents = 3;
            s
        }
        _ => return None,
    })
}

/// The default size axis presets run when the CLI passes none.
pub const DEFAULT_SIZES: &[usize] = &[16, 32, 64, 128];

/// The default size axis of the exhaustive `e9` sweep: every tree with
/// `n ≤ 10` (201 free trees; the acceptance grid of the certification
/// workload — the solo-lasso closed form keeps it CI-sized). The
/// `n = 11` axis (+235 trees) stays behind `just e9-full`; larger axes
/// are capped at [`MAX_ENUM_SIZE`].
pub const E9_DEFAULT_SIZES: &[usize] = &[2, 3, 4, 5, 6, 7, 8, 9, 10];

/// The default size axis of the `e10` schedule sweep: every free tree
/// with `n ≤ 8` (47 trees) — one size below e9, since the schedule
/// column multiplies the grid fivefold.
pub const E10_DEFAULT_SIZES: &[usize] = &[2, 3, 4, 5, 6, 7, 8];

/// The default size axis of the `e11` gathering sweep: every free tree
/// with `3 ≤ n ≤ 7` — one size below e10, since the ordered-triple axis
/// is a factor `n − 2` wider than the pair axis (and `n = 2` admits no
/// triple of distinct nodes at all).
pub const E11_DEFAULT_SIZES: &[usize] = &[3, 4, 5, 6, 7];

fn perf_grid(families: Vec<Family>, delays: Vec<Delay>, variants: Vec<Variant>) -> SweepSpec {
    SweepSpec {
        experiment: "bench".into(),
        families,
        sizes: vec![200],
        delays,
        variants,
        pairs_per_cell: 8,
        seed: 0x5EED_2010,
        threads: 1,
        executor: Executor::default(),
        agents: 2,
    }
}

/// The headline perf-trajectory grid at n ≈ 200: 5 instances × (4 delays ×
/// 8 pairs) of `bw-fsa` cells, each decided within its exact
/// [`basic_walk_budget_for`] horizon — the Chalopin-style delay-fault scan
/// the instance cache targets. Shared by the `sweep_cells` criterion bench
/// and the `bench_baseline` recorder so `BENCH_sweep.json` always measures
/// the same workload the bench tracks.
pub fn perf_grid_fsa_scan() -> SweepSpec {
    perf_grid(
        vec![Family::Line, Family::LineRnd, Family::Spider3, Family::Caterpillar, Family::Random],
        vec![Delay::Zero, Delay::Fixed(1), Delay::Fixed(7), Delay::LinearN],
        vec![Variant::BasicWalkFsa],
    )
}

/// The secondary perf-trajectory grid: E6/E8-shaped procedural agents,
/// where the rendezvous simulations dominate and the instance cache is a
/// smaller (but free) win. Tracked for regressions, not for wins.
pub fn perf_grid_variants() -> SweepSpec {
    let mut spec = perf_grid(
        vec![Family::Random, Family::Spider3],
        vec![Delay::Zero, Delay::Fixed(3), Delay::LinearN],
        vec![Variant::TreeRvz, Variant::DelayRobust],
    );
    spec.pairs_per_cell = 4;
    spec
}

/// The ensemble perf-trajectory grid: [`perf_grid_fsa_scan`]'s headline
/// delay scan widened to three lanes — the same 5 families × 4 delays ×
/// 8 starts at n ≈ 200, each cell an ordered feasible *triple* deciding
/// gathering within its exact k-lane horizon. `bench_baseline` times the
/// k-lane trace merge against k-lane stepping on it (`ensemble_cells` in
/// `BENCH_sweep.json`; the merge must at least keep pace).
pub fn perf_grid_ensemble() -> SweepSpec {
    let mut spec = perf_grid_fsa_scan();
    spec.agents = 3;
    spec
}

/// Test support for the summarizers: `spec`'s report with each cell that
/// `pick` names replaced the way a quarantine of that kind replaces it
/// (its row, no certificate), plus the same report with those cells left
/// out altogether.
#[cfg(test)]
pub(crate) fn quarantined_report(
    spec: &SweepSpec,
    pick: impl Fn(usize) -> Option<QuarantineKind>,
) -> (SweepReport, SweepReport) {
    let grid = cells(spec);
    let mut mixed = SweepReport { planned_cells: grid.len(), ..SweepReport::default() };
    let mut omitted = mixed.clone();
    for (i, cell) in grid.iter().enumerate() {
        let inst = SweepInstance::for_cell(cell);
        match pick(i) {
            Some(kind) => {
                let outcome = CellOutcome::quarantined(cell, &inst, kind);
                mixed.rows.extend(render(cell, &inst, outcome).0);
            }
            None => {
                let (row, cert) = run_cell_with_executor(cell, &inst, spec.executor);
                for report in [&mut mixed, &mut omitted] {
                    report.rows.extend(row.clone());
                    report.certificates.extend(cert.clone());
                }
            }
        }
    }
    (mixed, omitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_sim::run_pair;

    /// Replay, whose shared memo is what thread counts could disturb, and
    /// which the rebuild-per-cell test compares with stepping.
    fn small_spec(threads: usize) -> SweepSpec {
        SweepSpec {
            experiment: "test".into(),
            families: vec![Family::Line, Family::Spider3],
            sizes: vec![8, 16],
            delays: vec![Delay::Zero, Delay::Fixed(3)],
            variants: vec![Variant::DelayRobust, Variant::TreeRvz, Variant::BasicWalkFsa],
            pairs_per_cell: 2,
            seed: 0xC0FFEE,
            threads,
            executor: Executor::TraceReplay,
            agents: 2,
        }
    }

    #[test]
    fn grid_filters_unsupported_combinations() {
        let grid = cells(&small_spec(1));
        assert!(grid.iter().all(|c| c.variant != Variant::TreeRvz || c.delay == Delay::Zero));
        // 2 families × 2 sizes × (delay0×3 variants + delay3×2 variants) × 2 pairs
        assert_eq!(grid.len(), 2 * 2 * 5 * 2);
    }

    #[test]
    fn blocks_leave_one_per_instance_in_grid_order() {
        let spec = small_spec(2);
        let experiment: Arc<str> = Arc::from(spec.experiment.as_str());
        let mut blocks = Vec::new();
        run_into(&spec, &RunOptions::default(), |block| block, |block| blocks.push(block));
        let plan = instances(&spec);
        assert_eq!(blocks.len(), plan.len());
        for (block, inst) in blocks.iter().zip(&plan) {
            let cells = inst.cells(&spec, &experiment);
            assert_eq!(block.planned, cells.len());
            let seeds: Vec<u64> = cells.iter().map(Cell::cell_seed).collect();
            let rows: Vec<u64> = block.rows.iter().map(|r| r.cell_seed).collect();
            assert_eq!(rows, seeds[..rows.len()], "a block holds its instance's rows in order");
        }
    }

    #[test]
    fn no_e1_e8_preset_fills_the_window() {
        // The ordered window holds at most WINDOW blocks; an e1–e8 preset
        // at its default sizes plans fewer instances, so its workers never
        // wait on it, however slow one instance is.
        let ids = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"];
        let most = ids
            .iter()
            .map(|id| instances(&preset(id, DEFAULT_SIZES, 1, 0).expect("preset")).len())
            .max()
            .expect("eight presets");
        assert_eq!(most, 20, "e2: five families × four sizes");
        assert!(most < crate::window::WINDOW);
    }

    #[test]
    fn only_bw_fsa_grids_and_cells_build_the_basic_walk_table() {
        // The table is dense, Θ(Δ³) entries: e7 runs procedural agents
        // only, up to star(128) at its default sizes, and must not pay for
        // one. e8 and e9 run bw-fsa cells on every instance.
        let tables = |id: &str, sizes: &[usize]| {
            let plan = instances(&preset(id, sizes, 1, 0).expect("preset"));
            assert!(!plan.is_empty(), "{id}");
            plan.iter().map(|inst| inst.bw_fsa.is_some()).collect::<Vec<bool>>()
        };
        assert!(tables("e7", DEFAULT_SIZES).iter().all(|&held| !held), "e7 holds a table");
        assert!(tables("e8", &[8]).iter().all(|&held| held), "an e8 instance lacks its table");
        assert!(tables("e9", &[4, 5]).iter().all(|&held| held), "an e9 instance lacks its table");
        // A standalone instance holds the table exactly for a bw-fsa cell.
        for cell in cells(&small_spec(1)) {
            let held = SweepInstance::for_cell(&cell).bw_fsa.is_some();
            assert_eq!(held, cell.variant == Variant::BasicWalkFsa, "{cell:?}");
        }
    }

    #[test]
    #[should_panic(expected = "holds no basic-walk table")]
    fn a_procedural_instance_refuses_the_basic_walk_table() {
        let spec = preset("e7", &[8], 1, 0).expect("preset");
        instances(&spec)[0].basic_walk_fsa();
    }

    #[test]
    fn basic_walk_budget_is_a_decision_horizon() {
        // The bw-fsa budget claims to *decide* the meeting question: running
        // the same cell with a 4× budget must not change any outcome.
        let spec = SweepSpec {
            experiment: "bw".into(),
            families: vec![Family::Line, Family::Spider3, Family::Random],
            sizes: vec![9, 16],
            delays: vec![Delay::Zero, Delay::Fixed(2), Delay::LinearN],
            variants: vec![Variant::BasicWalkFsa],
            pairs_per_cell: 3,
            seed: 21,
            threads: 1,
            executor: Executor::default(),
            agents: 2,
        };
        let report = run(&spec);
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            let family = spec.families.iter().find(|f| f.name() == row.family).unwrap();
            let tree = family.build(row.size, row.tree_seed);
            let fsa = rvz_agent::Fsa::basic_walk(tree.max_degree().max(1));
            let mut x = fsa.runner();
            let mut y = fsa.runner();
            let rerun = run_pair(
                &tree,
                row.start_a,
                row.start_b,
                &mut x,
                &mut y,
                PairConfig::delayed(row.delay, row.budget * 4),
            );
            assert_eq!(rerun.outcome.met(), row.met, "budget must be a decision horizon: {row:?}");
            if row.met {
                assert_eq!(rerun.outcome.round(), row.rounds);
            }
        }
    }

    #[test]
    fn fixed_zero_delay_is_the_simultaneous_scenario() {
        // Delay::Fixed(0) and Delay::Zero resolve identically; grid filters
        // must not silently drop simultaneous-start variants over spelling.
        let spec = SweepSpec {
            experiment: "zero".into(),
            families: vec![Family::Line],
            sizes: vec![8],
            delays: vec![Delay::Fixed(0)],
            variants: vec![Variant::TreeRvz, Variant::PrimePath],
            pairs_per_cell: 1,
            seed: 5,
            threads: 1,
            executor: Executor::default(),
            agents: 2,
        };
        let grid = cells(&spec);
        assert_eq!(grid.len(), 2, "both zero-delay variants must survive Fixed(0)");
    }

    #[test]
    fn cell_seeds_depend_on_coordinates_not_order() {
        let grid = cells(&small_spec(1));
        let seeds: Vec<u64> = grid.iter().map(Cell::cell_seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "cell seeds must be distinct");
        // Same instance ⇒ same tree seed, across delays/variants/pairs.
        let instance_seeds = |c: &Cell| {
            let inst = SweepInstance::for_cell(c);
            (inst.tree_seed, inst.pairs_seed)
        };
        for c in &grid {
            for d in grid.iter().filter(|d| c.family == d.family && c.n == d.n) {
                assert_eq!(instance_seeds(c), instance_seeds(d));
            }
        }
    }

    #[test]
    fn cached_executor_matches_per_cell_rebuild() {
        // The instance plan is an executor optimization only: running every
        // cell standalone (rebuilding tree + pair pool from its coordinates)
        // must produce the identical row stream. The plan takes enumerated
        // trees from the enumeration, a standalone cell from its index, so
        // the e9, e10 and e11 (k = 3) grids run too.
        let enumerated = |id, sizes: &[usize]| preset(id, sizes, 2, 0x5EED_2010).expect("preset");
        let specs = [
            small_spec(2),
            enumerated("e9", &[2, 3, 4, 5, 6]),
            enumerated("e10", &[2, 3, 4, 5]),
            enumerated("e11", &[3, 4, 5]),
        ];
        for spec in specs {
            let report = run(&spec);
            assert!(!report.rows.is_empty(), "{}", spec.experiment);
            let rebuilt: Vec<SweepRow> = cells(&spec).iter().filter_map(run_cell).collect();
            assert_eq!(
                serde_json::to_string(&report.rows).unwrap(),
                serde_json::to_string(&rebuilt).unwrap(),
                "{}: cached executor must match the rebuild-per-cell path byte-for-byte",
                spec.experiment
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let report1 = run(&small_spec(1));
        let report4 = run(&small_spec(4));
        assert!(!report1.rows.is_empty());
        assert_eq!(report1.planned_cells, report4.planned_cells);
        assert_eq!(report1.dropped_cells, report4.dropped_cells);
        assert_eq!(
            serde_json::to_string(&report1.rows).unwrap(),
            serde_json::to_string(&report4.rows).unwrap(),
            "sweep must be byte-identical across thread counts"
        );
    }

    #[test]
    fn randomized_family_rows_replay_from_tree_seed() {
        // Finding-driven: a row from a randomized family must carry enough
        // provenance to rebuild the exact instance and rerun the cell.
        let spec = SweepSpec {
            experiment: "replay".into(),
            families: vec![Family::Random],
            sizes: vec![12],
            delays: vec![Delay::Fixed(2)],
            variants: vec![Variant::DelayRobust],
            pairs_per_cell: 1,
            seed: 7,
            threads: 1,
            executor: Executor::default(),
            agents: 2,
        };
        let report = run(&spec);
        assert_eq!(report.dropped_cells, 0);
        for row in &report.rows {
            let tree = Family::Random.build(row.size, row.tree_seed);
            assert_eq!(tree.num_nodes(), row.n, "tree_seed must rebuild the same instance");
            let mut x = DelayRobustAgent::new();
            let mut y = DelayRobustAgent::new();
            let rerun = run_pair(
                &tree,
                row.start_a,
                row.start_b,
                &mut x,
                &mut y,
                PairConfig::delayed(row.delay, row.budget),
            );
            assert_eq!(rerun.outcome.met(), row.met);
            assert_eq!(rerun.outcome.round(), row.rounds);
        }
    }

    #[test]
    fn dropped_cells_are_counted_not_hidden() {
        // A 4-node star has very few feasible pairs; asking for an absurd
        // pairs_per_cell must surface as dropped cells, not silence.
        let spec = SweepSpec {
            experiment: "drop".into(),
            families: vec![Family::Star],
            sizes: vec![4],
            delays: vec![Delay::Zero],
            variants: vec![Variant::DelayRobust],
            pairs_per_cell: 50,
            seed: 3,
            threads: 1,
            executor: Executor::default(),
            agents: 2,
        };
        let report = run(&spec);
        assert_eq!(report.planned_cells, 50);
        assert_eq!(report.rows.len() + report.dropped_cells, report.planned_cells);
        assert!(report.dropped_cells > 0, "star(4) cannot have 50 distinct feasible pairs");
        let table = to_table(&spec, &report);
        assert!(table.render().contains("planned cells dropped"));
    }

    #[test]
    fn a_gathering_grid_is_labelled_by_its_width() {
        // At --agents 3 the table shows every lane's start, and its
        // verbs and its dropped-cells note speak of triples that gather.
        let mut spec = preset("e8", &[5], 1, 3).expect("e8 preset");
        spec.agents = 3;
        spec.pairs_per_cell = 50;
        let report = run(&spec);
        assert!(report.dropped_cells > 0 && !report.rows.is_empty());
        let rendered = to_table(&spec, &report).render();
        let mut lines = rendered.lines().skip(1);
        let header: Vec<&str> = lines.next().expect("header").split_whitespace().collect();
        assert_eq!(header[5..7], ["starts", "gathered"], "{rendered}");
        for (row, line) in report.rows.iter().zip(lines.skip(1)) {
            let rest = row.start_rest.as_ref().expect("a triple row");
            let starts = format!("{},{},{}", row.start_a, row.start_b, rest[0]);
            assert_eq!(line.split_whitespace().nth(5), Some(starts.as_str()), "{rendered}");
        }
        assert!(rendered.contains("cells gathered within budget"), "{rendered}");
        assert!(rendered.contains("fewer feasible start triples than --pairs"), "{rendered}");
    }

    #[test]
    fn experiment_label_is_interned_across_cells_and_rows() {
        // ISSUE 3 satellite: the grid shares ONE `Arc<str>` label — no
        // per-cell / per-row `String` clone — and it serializes as a plain
        // JSON string.
        let spec = small_spec(1);
        let grid = cells(&spec);
        assert!(grid.windows(2).all(|w| Arc::ptr_eq(&w[0].experiment, &w[1].experiment)));
        let report = run(&spec);
        assert!(report.rows.windows(2).all(|w| Arc::ptr_eq(&w[0].experiment, &w[1].experiment)));
        let json = serde_json::to_string(&report.rows[0]).unwrap();
        assert!(json.contains("\"experiment\":\"test\""), "{json}");
    }

    #[test]
    fn decide_rows_match_the_raw_deciders_cell_by_cell() {
        // Per cell, every decide row must equal the raw decider's answer
        // for that exact pair: `decide_pair` at a fixed delay and
        // `worst_case_delay` under the ∀θ quantifier, each tabulating its
        // own solo lassos instead of reading the instance memo. Sampled
        // families and the exhaustive family both run.
        use rvz_lowerbounds::decide::{decide_pair, worst_case_delay};
        let spec = SweepSpec {
            experiment: "raw".into(),
            families: vec![Family::Line, Family::Random, Family::EnumFree],
            sizes: vec![6, 7],
            delays: vec![Delay::Zero, Delay::Fixed(2), Delay::Adversarial],
            variants: vec![Variant::BasicWalkFsa],
            pairs_per_cell: 6,
            seed: 0x02B1,
            threads: 1,
            executor: Executor::ExactDecide,
            agents: 2,
        };
        let grid = cells(&spec);
        for cell in &grid {
            let inst = SweepInstance::for_cell(cell);
            let (Some(row), cert) = render(cell, &inst, run_cell_decide_certified(cell, &inst))
            else {
                continue;
            };
            let fsa = inst.basic_walk_fsa();
            let [a, b] = inst.pairs[cell.pair_index];
            match cell.delay {
                Delay::Adversarial => match worst_case_delay(&inst.tree, fsa, a, b) {
                    rvz_lowerbounds::decide::WorstCase::AllMeet {
                        worst_delay,
                        worst_round,
                        ..
                    } => {
                        assert!(row.met, "{row:?}");
                        assert_eq!(row.rounds, Some(worst_round), "{row:?}");
                        assert_eq!(row.delay, worst_delay, "{row:?}");
                    }
                    rvz_lowerbounds::decide::WorstCase::Defeated { delay, .. } => {
                        assert!(!row.met, "{row:?}");
                        assert_eq!(row.delay, delay, "{row:?}");
                    }
                },
                delay => {
                    let theta = delay.resolve(inst.tree.num_nodes());
                    let direct = decide_pair(&inst.tree, fsa, a, b, theta);
                    assert_eq!(row.met, direct.met(), "{row:?}");
                    assert_eq!(row.rounds, direct.round(), "{row:?}");
                    assert_eq!(
                        row.crossings,
                        direct.crossings_within(direct.round().unwrap_or(row.budget)),
                        "{row:?}"
                    );
                }
            }
            // Certificates are re-verified against this pair's starts —
            // the verification must actually pass.
            if let Some(cert) = cert {
                assert_eq!(cert.start_a, a);
                assert_eq!(cert.start_b, b);
                assert_eq!(cert.verified, cert.lasso_stem.is_some().then_some(true), "{cert:?}");
            }
        }
    }

    #[test]
    fn decide_executor_matches_replay_modulo_certification() {
        // The exact decider must agree with the bounded executors on every
        // field of every row — meeting rounds, crossings at the budget,
        // provenance — differing only in the `certified` flag on the cells
        // it answers natively. (Procedural-agent cells are stepped and stay
        // bit-identical outright.)
        let mut spec = small_spec(2);
        spec.executor = Executor::ExactDecide;
        let decided = run(&spec);
        spec.executor = Executor::TraceReplay;
        let replayed = run(&spec);
        assert_eq!(decided.rows.len(), replayed.rows.len());
        let strip = |rows: &[SweepRow]| {
            let mut rows = rows.to_vec();
            for r in &mut rows {
                r.certified = false;
            }
            serde_json::to_string(&rows).unwrap()
        };
        assert_eq!(strip(&decided.rows), strip(&replayed.rows));
        // Certification covers exactly the automaton cells…
        for (d, r) in decided.rows.iter().zip(&replayed.rows) {
            assert_eq!(d.certified, d.variant == Variant::BasicWalkFsa.name(), "{d:?}");
            // …and replay timeouts on those cells are certified refusals.
            if d.certified {
                assert_eq!(!d.met, !r.met);
            }
        }
        // Bounded executors emit no certificates; the decider's all verify.
        assert!(replayed.certificates.is_empty());
        for cert in &decided.certificates {
            assert_eq!(cert.verified, cert.lasso_stem.is_some().then_some(true), "{cert:?}");
        }
    }

    #[test]
    fn delay_codes_saturate_and_stay_distinct_at_the_extremes() {
        // ISSUE 5 satellite: `Delay::Fixed(u64::MAX)` used to panic in
        // debug builds (`1 + d` overflow). The saturated code must also
        // stay clear of the LinearN/Adversarial sentinels.
        let extremes = [Delay::Fixed(u64::MAX), Delay::LinearN, Delay::Adversarial];
        for (i, a) in extremes.iter().enumerate() {
            for b in &extremes[i + 1..] {
                assert_ne!(a.code(), b.code(), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(Delay::Fixed(0).code(), 1, "small fixed delays keep their codes");
        assert_eq!(Delay::Fixed(7).code(), 8);
        // Start-delay-shaped schedule specs share the Fixed code — same
        // scenario, same cell seeds — while genuine schedules get their
        // own.
        assert_eq!(Delay::Schedule(ScheduleSpec::StartDelay(7)).code(), Delay::Fixed(7).code());
        assert_eq!(Delay::Schedule(ScheduleSpec::Simultaneous).code(), Delay::Fixed(0).code());
        let sched_codes = [
            Delay::Schedule(ScheduleSpec::Intermittent { period: 2, phase: 0 }).code(),
            Delay::Schedule(ScheduleSpec::Intermittent { period: 3, phase: 0 }).code(),
            Delay::Schedule(ScheduleSpec::CrashAfter(4)).code(),
            Delay::Schedule(ScheduleSpec::CrashAfterHalfN).code(),
            Delay::Schedule(ScheduleSpec::Adversarial { seed: 9 }).code(),
        ];
        let mut dedup = sched_codes.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sched_codes.len(), "schedule codes must be distinct");
    }

    #[test]
    fn budgets_saturate_instead_of_overflowing() {
        // ISSUE 5 satellite: the budget formulas must clamp, not panic,
        // on extreme inputs (u64::MAX delays, usize::MAX sizes).
        assert_eq!(basic_walk_budget_for(16, u64::MAX), u64::MAX);
        assert_eq!(budget_for(usize::MAX), u64::MAX);
        assert_eq!(basic_walk_budget_for(usize::MAX, 0), u64::MAX);
        // And the ordinary values are unchanged.
        assert_eq!(basic_walk_budget_for(16, 3), 3 + 4 * 15 + 2);
        assert_eq!(budget_for(16), 256 * 60_000 + 2_000_000);
        // The schedule horizon degenerates to the θ formula on start-delay
        // schedules (prefix θ, cycle 1).
        for (n, theta) in [(2usize, 0u64), (9, 1), (16, 7), (40, 1000)] {
            assert_eq!(
                schedule_budget_for(n, &EnsembleSchedule::start_delays(&[0, theta])),
                basic_walk_budget_for(n, theta),
                "n={n} θ={theta}"
            );
        }
    }

    #[test]
    fn start_delay_schedule_cells_are_byte_identical_to_fixed_delay_cells() {
        // ISSUE 5 satellite: `Schedule(StartDelay(θ))` is the legacy θ
        // scenario — its rows (seeds included, `schedule` field absent)
        // must be byte-for-byte the `Fixed(θ)` rows under every executor.
        for executor in [Executor::TraceReplay, Executor::DynStepping, Executor::ExactDecide] {
            let mut legacy = small_spec(2);
            legacy.executor = executor;
            legacy.delays = vec![Delay::Fixed(0), Delay::Fixed(3)];
            let mut scheduled = legacy.clone();
            scheduled.delays = vec![
                Delay::Schedule(ScheduleSpec::Simultaneous),
                Delay::Schedule(ScheduleSpec::StartDelay(3)),
            ];
            let legacy_rows = run(&legacy).rows;
            let scheduled_rows = run(&scheduled).rows;
            assert!(!legacy_rows.is_empty());
            assert_eq!(
                serde_json::to_string(&legacy_rows).unwrap(),
                serde_json::to_string(&scheduled_rows).unwrap(),
                "start-delay schedules must emit the legacy rows ({executor:?})"
            );
        }
    }

    #[test]
    fn delays_past_the_schedule_cap_step_and_decide_at_every_width() {
        // θ is an integer on every path: a delay just past the
        // materialization cap runs at k = 2 and k = 3 alike, replay equals
        // stepping to the byte, and decide agrees on every field but
        // `certified`.
        let theta = EnsembleSchedule::MAX_MATERIALIZED_PREFIX + 1;
        for agents in [2usize, 3] {
            let spec = |executor| SweepSpec {
                experiment: "huge-theta".into(),
                families: vec![Family::Line],
                sizes: vec![6],
                delays: vec![Delay::Fixed(theta)],
                variants: vec![Variant::BasicWalkFsa],
                pairs_per_cell: 2,
                seed: 0x7E7A,
                threads: 1,
                executor,
                agents,
            };
            let stepped = run(&spec(Executor::DynStepping));
            let replayed = run(&spec(Executor::TraceReplay));
            let decided = run(&spec(Executor::ExactDecide));
            assert_eq!(stepped.rows.len(), 2, "k = {agents}");
            assert_eq!(
                serde_json::to_string(&replayed.rows).unwrap(),
                serde_json::to_string(&stepped.rows).unwrap(),
                "k = {agents}"
            );
            assert!(stepped.rows.iter().all(|r| r.delay == theta && !r.certified));
            let strip = |rows: &[SweepRow]| {
                let mut rows = rows.to_vec();
                for r in &mut rows {
                    r.certified = false;
                }
                serde_json::to_string(&rows).unwrap()
            };
            assert_eq!(strip(&decided.rows), strip(&stepped.rows), "k = {agents}");
            assert!(decided.rows.iter().all(|r| r.certified), "k = {agents}");
            for cert in &decided.certificates {
                assert_eq!(cert.verified, Some(true), "{cert:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "the ∀θ quantifier is a pair axis")]
    fn hand_built_ensemble_cells_refuse_the_every_delay_quantifier() {
        let spec = SweepSpec { variants: vec![Variant::BasicWalkFsa], agents: 3, ..small_spec(1) };
        let mut cell = cells(&spec).remove(0);
        cell.delay = Delay::Adversarial;
        let _ = run_cell(&cell);
    }

    #[test]
    fn scheduled_cells_agree_across_all_three_executors() {
        // Genuine schedules: replay and stepping byte-identical; decide
        // identical modulo `certified` on the automaton cells, with every
        // bw timeout a certified never-meets.
        let spec = |executor| SweepSpec {
            experiment: "sched".into(),
            families: vec![Family::Line, Family::Spider3, Family::Random],
            sizes: vec![8, 13],
            delays: vec![
                Delay::Schedule(ScheduleSpec::Intermittent { period: 2, phase: 0 }),
                Delay::Schedule(ScheduleSpec::Intermittent { period: 3, phase: 1 }),
                Delay::Schedule(ScheduleSpec::CrashAfterHalfN),
                Delay::Schedule(ScheduleSpec::Lockstep { period: 2 }),
                Delay::Schedule(ScheduleSpec::Adversarial { seed: 0xE10 }),
            ],
            variants: vec![Variant::BasicWalkFsa, Variant::DelayRobust],
            pairs_per_cell: 2,
            seed: 0x5C_4ED,
            threads: 2,
            executor,
            agents: 2,
        };
        let replayed = run(&spec(Executor::TraceReplay));
        let stepped = run(&spec(Executor::DynStepping));
        let decided = run(&spec(Executor::ExactDecide));
        assert!(!replayed.rows.is_empty());
        assert!(replayed.rows.iter().any(|r| r.schedule.is_some()));
        assert_eq!(
            serde_json::to_string(&replayed.rows).unwrap(),
            serde_json::to_string(&stepped.rows).unwrap(),
            "replay and stepping must agree to the byte on schedule cells"
        );
        let strip = |rows: &[SweepRow]| {
            let mut rows = rows.to_vec();
            for r in &mut rows {
                r.certified = false;
            }
            serde_json::to_string(&rows).unwrap()
        };
        assert_eq!(strip(&decided.rows), strip(&replayed.rows));
        for (d, r) in decided.rows.iter().zip(&replayed.rows) {
            assert_eq!(d.certified, d.variant == Variant::BasicWalkFsa.name(), "{d:?}");
            if d.certified {
                assert_eq!(d.met, r.met, "bw schedule budgets are decision horizons");
            }
        }
        // Scheduled never-meets certificates carry the schedule label and
        // verify.
        let sched_certs: Vec<_> =
            decided.certificates.iter().filter(|c| c.schedule.is_some()).collect();
        assert!(!sched_certs.is_empty(), "some schedule must defeat some bw pair");
        for cert in &decided.certificates {
            assert_eq!(cert.verified, Some(true), "{cert:?}");
        }
    }

    #[test]
    fn e10_schedule_grid_is_certified_and_thread_invariant() {
        let mut spec = preset("e10", &[4, 5, 6], 1, 10).expect("e10 preset");
        spec.executor = Executor::ExactDecide;
        let report1 = run(&spec);
        spec.threads = 4;
        let report4 = run(&spec);
        assert_eq!(
            serde_json::to_string(&report1.rows).unwrap(),
            serde_json::to_string(&report4.rows).unwrap(),
            "e10 must be byte-identical across thread counts"
        );
        assert_eq!(
            serde_json::to_string(&report1.certificates).unwrap(),
            serde_json::to_string(&report4.certificates).unwrap(),
        );
        assert_eq!(report1.dropped_cells, 0);
        assert_eq!(report1.planned_cells, report1.rows.len());
        assert!(!report1.rows.is_empty());
        for row in &report1.rows {
            assert!(row.certified, "e10 cell not exactly decided: {row:?}");
        }
        // The schedule column splits into legacy rows (simultaneous, θ=1 —
        // no schedule field) and genuine schedule rows, 5 per pair total.
        let legacy = report1.rows.iter().filter(|r| r.schedule.is_none()).count();
        let scheduled = report1.rows.iter().filter(|r| r.schedule.is_some()).count();
        assert_eq!(legacy * 3, scheduled * 2, "2 legacy + 3 scheduled per pair");
        // θ=1 defeats the basic walk on every pair (the e9 result), so
        // never-meets certificates exist; every lasso re-verifies.
        assert!(report1.certificates.iter().any(|c| c.schedule.is_none()));
        for cert in &report1.certificates {
            assert_eq!(cert.verdict, "never-meets");
            assert_eq!(cert.verified, Some(true), "{cert:?}");
        }
    }

    #[test]
    fn e9_exhaustive_grid_is_certified_and_thread_invariant() {
        let mut spec = preset("e9", &[2, 3, 4, 5, 6], 1, 9).expect("e9 preset");
        spec.executor = Executor::ExactDecide;
        let report1 = run(&spec);
        spec.threads = 4;
        let report4 = run(&spec);
        assert_eq!(
            serde_json::to_string(&report1.rows).unwrap(),
            serde_json::to_string(&report4.rows).unwrap(),
            "e9 must be byte-identical across thread counts"
        );
        assert_eq!(
            serde_json::to_string(&report1.certificates).unwrap(),
            serde_json::to_string(&report4.certificates).unwrap(),
        );
        // The planned grid is exact (the pair axis is enumerated, not
        // sampled): nothing may be dropped, and every cell is decided.
        assert_eq!(report1.dropped_cells, 0);
        assert_eq!(report1.planned_cells, report1.rows.len());
        assert!(!report1.rows.is_empty());
        for row in &report1.rows {
            assert!(row.certified, "e9 cell not exactly decided: {row:?}");
            assert_eq!(row.family, "enum-free");
            // `(n, tree_seed)` rebuilds the instance.
            let tree = Family::EnumFree.build(row.size, row.tree_seed);
            assert_eq!(tree.num_nodes(), row.n);
        }
        // The tree axis covers every free tree that has a feasible pair at
        // all (the single edge at n = 2 is perfectly symmetrizable and
        // contributes zero cells — correctly, not silently).
        for n in [2usize, 3, 4, 5, 6] {
            let expect = rvz_trees::enumerate::free_trees(n)
                .filter(|t| !instances::exhaustive_feasible_tuples(t, 2).is_empty())
                .count();
            let seen: std::collections::HashSet<u64> =
                report1.rows.iter().filter(|r| r.size == n).map(|r| r.tree_seed).collect();
            assert_eq!(seen.len(), expect, "n = {n} must cover all feasible free trees");
        }
        // Universal-delay cells carry a certificate each.
        let universal = cells(&spec).iter().filter(|c| c.delay == Delay::Adversarial).count();
        assert!(report1.certificates.len() >= universal);
    }

    #[test]
    fn quarantine_rows_keep_their_exact_bytes() {
        // No report of the golden set holds a timed-out or poisoned row, so
        // their bytes are pinned here: a θ cell of a procedural agent, a
        // genuine-schedule cell, a ∀θ cell (no decisive delay: θ 0, budget
        // 0) and a k = 3 cell. A poisoned row differs from a timed-out one
        // only in its flag.
        let pick = |id: &str, delay: Delay| {
            let spec = preset(id, &[if id == "e8" { 8 } else { 5 }], 1, 0x5EED_2010).expect(id);
            cells(&spec).into_iter().find(|c| c.delay == delay).expect("a cell at that delay")
        };
        let intermittent = Delay::Schedule(ScheduleSpec::Intermittent { period: 2, phase: 0 });
        let crash = Delay::Schedule(ScheduleSpec::CrashAfterHalfN);
        let cases = [
            (
                pick("e8", Delay::Fixed(3)),
                r#"{"experiment":"e8","family":"random","size":8,"n":8,"leaves":4,"variant":"delay-robust","delay":3,"start_a":1,"start_b":3,"met":false,"rounds":null,"crossings":0,"budget":5840000,"provisioned_bits":40,"measured_bits":0,"tree_seed":1939342828413452798,"pairs_seed":5459251404685026218,"cell_seed":14680528331052076760,"certified":false,"timed_out":true}"#,
            ),
            (
                pick("e10", intermittent),
                r#"{"experiment":"e10","family":"enum-free","size":5,"n":5,"leaves":2,"variant":"bw-fsa","delay":0,"schedule":"intermittent(2,0)","start_a":0,"start_b":1,"met":false,"rounds":null,"crossings":0,"budget":36,"provisioned_bits":1,"measured_bits":0,"tree_seed":0,"pairs_seed":0,"cell_seed":17151841798014775040,"certified":false,"timed_out":true}"#,
            ),
            (
                pick("e9", Delay::Adversarial),
                r#"{"experiment":"e9","family":"enum-free","size":5,"n":5,"leaves":2,"variant":"bw-fsa","delay":0,"start_a":0,"start_b":1,"met":false,"rounds":null,"crossings":0,"budget":0,"provisioned_bits":1,"measured_bits":0,"tree_seed":0,"pairs_seed":0,"cell_seed":1649681529165413200,"certified":false,"timed_out":true}"#,
            ),
            (
                pick("e11", crash),
                r#"{"experiment":"e11","family":"enum-free","size":5,"n":5,"leaves":2,"variant":"bw-fsa","delay":0,"schedule":"crash-after(3)","start_a":0,"start_b":1,"met":false,"rounds":null,"crossings":0,"budget":21,"provisioned_bits":1,"measured_bits":0,"tree_seed":0,"pairs_seed":0,"cell_seed":14163752875501389738,"certified":false,"timed_out":true,"agents":3,"start_rest":[2]}"#,
            ),
        ];
        for (cell, timed_out) in cases {
            let inst = SweepInstance::for_cell(&cell);
            let poisoned = timed_out.replace(r#""timed_out":true"#, r#""poisoned":true"#);
            let json = |kind| {
                let row = render(&cell, &inst, CellOutcome::quarantined(&cell, &inst, kind)).0;
                serde_json::to_string(&row.expect("a row")).unwrap()
            };
            assert_eq!(json(QuarantineKind::TimedOut), timed_out);
            assert_eq!(json(QuarantineKind::Poisoned), poisoned);
        }
    }

    #[test]
    fn presets_cover_e1_to_e9() {
        for id in ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"] {
            let spec = preset(id, &[8, 16], 1, 1).expect("preset exists");
            assert!(!cells(&spec).is_empty(), "{id} grid is empty");
        }
        let e9 = preset("e9", &[5, 6], 1, 1).expect("e9 exists");
        assert!(!cells(&e9).is_empty(), "e9 grid is empty");
        let e10 = preset("e10", &[5, 6], 1, 1).expect("e10 exists");
        assert!(!cells(&e10).is_empty(), "e10 grid is empty");
        let e11 = preset("e11", &[5, 6], 1, 1).expect("e11 exists");
        assert_eq!(e11.agents, 3, "e11 sweeps triples by default");
        assert!(!cells(&e11).is_empty(), "e11 grid is empty");
        assert!(preset("e12", &[8], 1, 1).is_none());
    }
}
