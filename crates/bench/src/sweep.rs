//! The parallel batch-experiment engine.
//!
//! A *sweep* fans an experiment's instance grid — tree family × size ×
//! start delay × agent variant × start pair — across threads and collects
//! one typed [`SweepRow`] per grid cell. Three properties are load-bearing:
//!
//! 1. **Deterministic per-cell seeding.** Every cell derives its seeds from
//!    the grid coordinates alone (never from execution order or thread
//!    identity), so a cell's result is a pure function of the spec.
//! 2. **Order-preserving fan-out.** Cells run under `rayon` but results are
//!    collected in grid order, so the output — including its JSON
//!    serialization — is byte-identical for any `--threads` value.
//! 3. **Reproducible rows.** Each row carries the resolved instance
//!    (family, `n`, starts, delay, budget), so any cell can be replayed
//!    with a direct [`rvz_sim::run_pair`] call; the integration smoke test
//!    does exactly that.
//! 4. **Trace-replay execution.** The paper's agents are deterministic and
//!    oblivious, so by default ([`Executor::TraceReplay`]) the executor
//!    records each `(family, n, start, variant)` trajectory once — in a
//!    process-wide store layered on the shared [`SweepInstance`]s — and
//!    answers every `(delay, pair)` cell by timeline merge
//!    (`rvz_sim::trace`), falling back to per-cell stepping
//!    ([`Executor::DynStepping`], still available behind the flag) only
//!    when a recording would exceed the cap. Both executors are
//!    byte-identical by test.
//!
//! The per-experiment presets in [`preset`] translate E1–E8 (see the
//! sibling `e1`..`e8` modules and README.md) into grids over the shared
//! instance pool of [`crate::instances`].

use crate::instances;
use crate::solo_cache;
use crate::table::Table;
use crate::trace_cache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rvz_core::prime_path::PrimePathAgent;
use rvz_core::primes::{next_prime, primorial_index_bound};
use rvz_core::{DelayRobustAgent, TreeRendezvousAgent};
use rvz_lowerbounds::decide::{
    decide_ensemble, decide_ensemble_from_lassos, decide_from_lassos, decide_pair_scheduled,
    verify_ensemble_lasso, verify_lasso, verify_schedule_lasso, worst_case_from_lassos, Decision,
    EnsembleDecision, ScheduleDecision, SoloLasso, WorstCase,
};
use rvz_sim::trace::Replay;
use rvz_sim::{
    replay_ensemble, replay_pair, replay_pair_scheduled, run_ensemble_fsa, run_pair,
    run_pair_scheduled, EnsembleReplay, EnsembleRun, EnsembleSchedule, PairConfig, PairRun,
    Schedule,
};
use rvz_trees::symmetry::{pair_orbits, OrbitAction};
use rvz_trees::{NodeId, Tree};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Tree families the sweep can grid over (names as in
/// [`instances::FAMILY_NAMES`]).
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
/// form of [`rvz_sim::Schedule`], resolved per instance size by
/// [`ScheduleSpec::resolve`]. A spec that is *exactly* the legacy
/// start-delay scenario ([`ScheduleSpec::as_start_delay`]) is routed
/// through the θ-indexed executors and emits the identical row (no
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
    /// round count is capped at `Schedule::MAX_MATERIALIZED_PREFIX`
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
    /// A seeded draw from [`Schedule::adversarial`] (prefix ≤ 8 rounds,
    /// cycle ≤ 6 — small enough that the bw decision horizon stays tight).
    Adversarial { seed: u64 },
}

impl ScheduleSpec {
    /// Caps for the seeded adversarial sampler.
    const ADV_MAX_PREFIX: usize = 8;
    const ADV_MAX_CYCLE: usize = 6;

    /// The concrete schedule at instance size `n`.
    pub fn resolve(self, n: usize) -> Schedule {
        match self {
            ScheduleSpec::Simultaneous => Schedule::simultaneous(),
            ScheduleSpec::StartDelay(theta) => Schedule::start_delay(theta),
            ScheduleSpec::Intermittent { period, phase } => Schedule::intermittent(period, phase),
            ScheduleSpec::CrashAfter(rounds) => Schedule::crash_after(rounds),
            ScheduleSpec::CrashAfterHalfN => Schedule::crash_after(n.div_ceil(2) as u64),
            ScheduleSpec::Lockstep { period } => {
                assert!(period >= 1, "lockstep period must be at least 1");
                Schedule::new(
                    Vec::new(),
                    (0..period)
                        .map(|i| {
                            let on = i == 0;
                            (on, on)
                        })
                        .collect(),
                )
            }
            ScheduleSpec::Adversarial { seed } => {
                Schedule::adversarial(seed, Self::ADV_MAX_PREFIX, Self::ADV_MAX_CYCLE)
            }
        }
    }

    /// The concrete `lanes`-lane ensemble schedule at instance size `n` —
    /// the k-agent generalization of [`ScheduleSpec::resolve`], lane-for-
    /// lane identical to it at `lanes = 2` (the lane-asymmetric specs put
    /// their faulty lane *last*, matching the pair convention of faulting
    /// agent B). [`ScheduleSpec::Adversarial`] has no ensemble form — the
    /// grid filter keeps it off `--agents k > 2` sweeps.
    pub fn resolve_ensemble(self, n: usize, lanes: usize) -> EnsembleSchedule {
        match self {
            ScheduleSpec::Simultaneous => EnsembleSchedule::simultaneous(lanes),
            ScheduleSpec::StartDelay(theta) => {
                let mut delays = vec![0; lanes];
                delays[lanes - 1] = theta;
                EnsembleSchedule::start_delays(&delays)
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
            ScheduleSpec::Adversarial { .. } => {
                unreachable!("adversarial schedules are a pair axis (grid-filtered at k > 2)")
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
        const ALL: [Variant; 4] =
            [Variant::TreeRvz, Variant::DelayRobust, Variant::PrimePath, Variant::BasicWalkFsa];
        ALL.into_iter().find(|v| v.name() == name)
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
/// [`basic_walk_budget_for`]`(n, θ)` — prefix θ, cycle 1.
pub fn schedule_budget_for(n: usize, schedule: &Schedule) -> u64 {
    schedule
        .prefix_len()
        .saturating_add(schedule.cycle_len().saturating_mul(basic_walk_two_periods(n)))
}

/// How the executor answers the delay × pair sub-grid of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Record each `(family, n, start, variant)` trajectory once in the
    /// process-wide trace store and decide every cell by timeline merge
    /// (`rvz_sim::trace`) — no agent stepping on cache hits.
    #[default]
    TraceReplay,
    /// Step both agents per cell through dyn [`run_pair`] (the pre-trace
    /// executor). Kept behind this flag for differential testing; it is
    /// also the replay path's fallback for cells whose trajectories would
    /// exceed the recording cap. Output is byte-identical to
    /// [`Executor::TraceReplay`] by construction (and by test).
    DynStepping,
    /// Answer each cell by the exact decider over the joint configuration
    /// graph ([`rvz_lowerbounds::decide`]): no round budget, `NeverMeets`
    /// certified by lasso instead of reported as timeout. Exact for the
    /// automaton variant (`bw-fsa`); procedural-agent cells fall back to
    /// [`Executor::TraceReplay`]. Rows are byte-identical to the other
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
    /// Cell execution strategy (replay by default).
    pub executor: Executor,
    /// Ensemble width: how many agent copies run per cell (`--agents k`).
    /// `2` is the classic pair engine and emits byte-identical legacy rows
    /// (schema unchanged); `k > 2` switches every cell to the k-lane
    /// ensemble paths — the start axis becomes feasible *k-tuples*, the
    /// outcome becomes gathering (all `k` on one node simultaneously), and
    /// rows/certificates grow the optional `agents`/`start_rest` fields
    /// (schema `rvz-sweep/v7`; see docs/gathering.md).
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
    /// Ensemble width ([`SweepSpec::agents`]). `2` = the pair engine;
    /// `pair_index` then indexes [`SweepInstance::pairs`], otherwise
    /// [`SweepInstance::tuples`].
    pub agents: usize,
}

/// One result row; the JSON schema of `--json` output (see docs/schemas.md).
/// `experiment` shares the grid's interned label (serialized as a plain
/// JSON string, exactly like the `String` it replaced).
#[derive(Debug, Clone, Serialize)]
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

/// The shape of the retired [`SweepRow::planned`] annotation; no executor
/// builds one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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
    /// The tree is a function of (family, size) only — every delay/variant/
    /// pair cell on the same instance sees the identical tree. For the
    /// enumerated family the "seed" is the enumeration index itself.
    pub fn tree_seed(&self) -> u64 {
        if let Some(index) = self.tree_index {
            return index;
        }
        mix(self.base_seed, &[fnv("tree"), fnv(self.family.name()), self.n as u64])
    }

    /// Likewise the start-pair pool (the enumerated family's pair axis is
    /// exhaustive and deterministic — no seed enters it).
    pub fn pairs_seed(&self) -> u64 {
        if self.tree_index.is_some() {
            return 0;
        }
        mix(self.base_seed, &[fnv("pairs"), fnv(self.family.name()), self.n as u64])
    }

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

/// Enumerates the grid in deterministic (family, size, \[tree,\] delay,
/// variant, pair) lexicographic order, dropping unsupported combinations.
///
/// For [`Family::EnumFree`] the tree axis is *exhaustive*: one sub-grid
/// per free tree at each size, and the pair axis is every ordered feasible
/// pair of that tree (so `pairs_per_cell` is ignored and the planned cell
/// count is exact — nothing is dropped at run time).
pub fn cells(spec: &SweepSpec) -> Vec<Cell> {
    assert!(spec.agents >= 2, "a sweep runs at least two agents (--agents {})", spec.agents);
    let experiment: Arc<str> = Arc::from(spec.experiment.as_str());
    let mut out = Vec::new();
    // The ∀-delay quantifier and the seeded adversarial schedules are
    // pair adversaries (the quantifier's θ axis delays one of two lanes;
    // the sampler draws two-lane rows) — the ensemble grid drops them
    // rather than silently reinterpreting them.
    let ensemble_supports = |delay: Delay| {
        spec.agents == 2
            || !matches!(
                delay,
                Delay::Adversarial | Delay::Schedule(ScheduleSpec::Adversarial { .. })
            )
    };
    let push_subgrid = |family: Family,
                        n: usize,
                        tree_index: Option<u64>,
                        pairs_total: usize,
                        out: &mut Vec<Cell>| {
        for &delay in &spec.delays {
            if !ensemble_supports(delay) {
                continue;
            }
            for &variant in &spec.variants {
                if !variant.supports(family, delay) {
                    continue;
                }
                for pair_index in 0..pairs_total {
                    out.push(Cell {
                        experiment: experiment.clone(),
                        family,
                        n,
                        delay,
                        variant,
                        pair_index,
                        pairs_total,
                        base_seed: spec.seed,
                        tree_index,
                        agents: spec.agents,
                    });
                }
            }
        }
    };
    for &family in &spec.families {
        for &n in &spec.sizes {
            if family == Family::EnumFree {
                assert!(
                    n <= MAX_ENUM_SIZE,
                    "enum-free at n = {n} would enumerate millions of trees (cap {MAX_ENUM_SIZE})"
                );
                for (index, tree) in rvz_trees::enumerate::free_trees(n).enumerate() {
                    let starts_total = if spec.agents > 2 {
                        instances::exhaustive_feasible_tuples(&tree, spec.agents).len()
                    } else {
                        instances::exhaustive_feasible_pairs(&tree).len()
                    };
                    push_subgrid(family, n, Some(index as u64), starts_total, &mut out);
                }
            } else {
                push_subgrid(family, n, None, spec.pairs_per_cell, &mut out);
            }
        }
    }
    out
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
/// The executor builds each one once and shares it (via `Arc`) across the
/// whole delay × variant × pair sub-grid — `feasible_pairs` alone costs
/// hundreds of symmetrizability checks, which used to be repaid by *every*
/// cell on the instance.
#[derive(Debug)]
pub struct SweepInstance {
    pub tree: Tree,
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Feasible start `k`-tuples for `--agents k > 2` cells (empty on
    /// pair instances; `pairs` is empty in turn on ensemble instances).
    /// Drawn from the same `pairs_seed` stream, exhaustive for the
    /// enumerated family — the k-lane generalization of `pairs`.
    pub tuples: Vec<Vec<NodeId>>,
    pub tree_seed: u64,
    pub pairs_seed: u64,
    /// Shared basic-walk automaton for [`Variant::BasicWalkFsa`] cells,
    /// built on first use (its table is a function of the tree's maximum
    /// degree only).
    bw_fsa: OnceLock<rvz_agent::Fsa>,
    /// The tree's unique nontrivial port-preserving automorphism, if one
    /// exists — the `flip` half of the start-pair orbit group (see
    /// [`rvz_trees::symmetry::pair_orbits`]). Computed on first decide
    /// cell.
    flip: OnceLock<Option<Vec<NodeId>>>,
    /// `pair index → (orbit representative index, action mapping the
    /// representative pair onto this pair)` over `pairs`, one table per
    /// swap-allowance (`[without swap, with swap]` — the swap is sound
    /// only for lane-symmetric activation, so delay classes pick their
    /// table).
    orbit_lookups: [OnceLock<Vec<(usize, OrbitAction)>>; 2],
    /// Decided orbit representatives, keyed `(delay code, rep index)` —
    /// the decide executor answers each representative once per
    /// `(instance, delay class)` and replicates the relabeled verdict to
    /// the rest of the orbit. The per-key `OnceLock` makes racing orbit
    /// members block on (rather than duplicate) the one decision.
    decide_memo: Mutex<HashMap<(u64, usize), Arc<OnceLock<RepDecision>>>>,
}

impl Clone for SweepInstance {
    /// Clones the instance *data* plus whatever the pure-function caches
    /// (`bw_fsa`, `flip`, `orbit_lookups`) already hold; the decision memo
    /// starts cold (every cache here is a pure function of the data, so
    /// nothing observable changes either way).
    fn clone(&self) -> Self {
        SweepInstance {
            tree: self.tree.clone(),
            pairs: self.pairs.clone(),
            tuples: self.tuples.clone(),
            tree_seed: self.tree_seed,
            pairs_seed: self.pairs_seed,
            bw_fsa: self.bw_fsa.clone(),
            flip: self.flip.clone(),
            orbit_lookups: self.orbit_lookups.clone(),
            decide_memo: Mutex::default(),
        }
    }
}

/// A decided orbit representative, one flavor per delay-axis class. The
/// memo key includes [`Delay::code`], which separates the flavors, so a
/// lookup always finds its own kind.
#[derive(Debug, Clone)]
enum RepDecision {
    Fixed(Decision),
    Universal(WorstCase),
    Scheduled(ScheduleDecision),
}

impl RepDecision {
    /// The decision for the orbit member reached from the representative
    /// by `action` — delegates to the certified relabeling in
    /// [`rvz_lowerbounds::decide`] (rounds/crossings invariant, lasso
    /// configurations mapped).
    fn relabel(&self, action: OrbitAction, flip: Option<&[NodeId]>) -> RepDecision {
        let map = action.flip.then(|| flip.expect("flip action requires the flip map"));
        match self {
            RepDecision::Fixed(d) => RepDecision::Fixed(d.relabel(map, action.swap)),
            RepDecision::Universal(wc) => {
                debug_assert!(!action.swap, "the ∀-delay quantifier never admits the swap");
                RepDecision::Universal(wc.relabel(map))
            }
            RepDecision::Scheduled(d) => RepDecision::Scheduled(d.relabel(map, action.swap)),
        }
    }
}

impl SweepInstance {
    /// Builds the instance a cell runs on. Depends only on the cell's
    /// instance coordinates (`family`, `n`, `base_seed`, `pairs_total`,
    /// and for the enumerated family `tree_index`) — every cell of the
    /// same sub-grid builds the identical value.
    pub fn for_cell(cell: &Cell) -> Self {
        let tree_seed = cell.tree_seed();
        let pairs_seed = cell.pairs_seed();
        let tree = cell.family.build(cell.n, tree_seed);
        // For the enumerated family this repeats work `cells()` did while
        // planning (`nth_free_tree` re-walks the WROM succession, the pair
        // scan re-runs) — quadratic in the tree count, accepted because
        // [`MAX_ENUM_SIZE`] caps it in the hundreds of trees and it keeps
        // `Cell` a plain coordinate (any cell rebuilds standalone).
        let (pairs, tuples) = if cell.agents > 2 {
            let tuples = if cell.tree_index.is_some() {
                instances::exhaustive_feasible_tuples(&tree, cell.agents)
            } else {
                instances::feasible_tuples(&tree, cell.agents, cell.pairs_total, pairs_seed)
            };
            (Vec::new(), tuples)
        } else if cell.tree_index.is_some() {
            (instances::exhaustive_feasible_pairs(&tree), Vec::new())
        } else {
            (instances::feasible_pairs(&tree, cell.pairs_total, pairs_seed), Vec::new())
        };
        SweepInstance {
            tree,
            pairs,
            tuples,
            tree_seed,
            pairs_seed,
            bw_fsa: OnceLock::new(),
            flip: OnceLock::new(),
            orbit_lookups: [OnceLock::new(), OnceLock::new()],
            decide_memo: Mutex::default(),
        }
    }

    /// The basic-walk automaton matched to this instance's degree bound;
    /// every `bw-fsa` cell on the instance borrows the same table.
    pub fn basic_walk_fsa(&self) -> &rvz_agent::Fsa {
        self.bw_fsa.get_or_init(|| rvz_agent::Fsa::basic_walk(self.tree.max_degree().max(1)))
    }

    /// The tree's port-preserving flip, as a node-image table.
    fn flip_map(&self) -> Option<&[NodeId]> {
        self.flip.get_or_init(|| rvz_trees::symmetry::port_preserving_flip(&self.tree)).as_deref()
    }

    /// The orbit table for this swap-allowance: every pair index maps to
    /// its orbit representative plus the action reaching it from there.
    fn orbit_lookup(&self, allow_swap: bool) -> &[(usize, OrbitAction)] {
        self.orbit_lookups[allow_swap as usize].get_or_init(|| {
            // Force the flip first so both caches agree on it.
            let _ = self.flip_map();
            let mut lookup = vec![(0, OrbitAction::IDENTITY); self.pairs.len()];
            for orbit in pair_orbits(&self.tree, &self.pairs, allow_swap) {
                for (index, action) in orbit.members {
                    lookup[index] = (orbit.rep, action);
                }
            }
            lookup
        })
    }

    /// The memoized decision of an orbit representative; `compute` runs at
    /// most once per key per instance — concurrent orbit members block on
    /// the `OnceLock` instead of re-deciding.
    fn rep_decision(
        &self,
        key: (u64, usize),
        compute: impl FnOnce() -> RepDecision,
    ) -> Arc<OnceLock<RepDecision>> {
        let slot = {
            let mut memo = self.decide_memo.lock().expect("decide memo lock");
            memo.entry(key).or_default().clone()
        };
        slot.get_or_init(compute);
        slot
    }
}

/// Executes one cell standalone, rebuilding its instance from the cell
/// coordinates. Pure in the cell: no global state, no clock, no thread
/// identity. Returns `None` when the instance yielded fewer feasible start
/// pairs than `pair_index`. The batch executor ([`run`]) avoids the rebuild
/// by sharing a [`SweepInstance`] across the sub-grid via
/// [`run_cell_on`].
pub fn run_cell(cell: &Cell) -> Option<SweepRow> {
    run_cell_on(cell, &SweepInstance::for_cell(cell))
}

/// How a cell's delay axis executes at a resolved instance size: either
/// the legacy θ-indexed path (every delay flavor, including
/// start-delay-shaped schedule specs — which thereby emit byte-identical
/// legacy rows), or the genuinely scheduled path.
pub(crate) enum CellMode {
    Delay(u64),
    Scheduled(ScheduleSpec),
}

impl Cell {
    /// The execution mode at instance size `n`. Must not be called on
    /// [`Delay::Adversarial`] cells (the quantifier layer owns those).
    pub(crate) fn mode(&self, n: usize) -> CellMode {
        match self.delay {
            Delay::Schedule(spec) => match spec.as_start_delay() {
                Some(theta) => CellMode::Delay(theta),
                None => CellMode::Scheduled(spec),
            },
            delay => CellMode::Delay(delay.resolve(n)),
        }
    }

    /// The k-lane execution mode at instance size `n`: the row metadata
    /// (θ-equivalent delay, optional schedule label — exactly the pair
    /// split of [`Cell::mode`]) plus the resolved [`EnsembleSchedule`].
    /// θ-shaped cells delay the *last* lane, matching the pair convention
    /// of delaying agent B.
    pub(crate) fn ensemble_mode(&self, n: usize) -> ((u64, Option<String>), EnsembleSchedule) {
        match self.mode(n) {
            CellMode::Delay(theta) => {
                let mut delays = vec![0; self.agents];
                delays[self.agents - 1] = theta;
                ((theta, None), EnsembleSchedule::start_delays(&delays))
            }
            CellMode::Scheduled(spec) => {
                ((0, Some(spec.label(n))), spec.resolve_ensemble(n, self.agents))
            }
        }
    }
}

/// Round budget and provisioned automaton size for a `--agents k > 2`
/// cell — the ensemble twin of [`budget_and_provisioned`]. Procedural
/// budgets are per-instance and lane-count-free (the provisioning
/// argument bounds *each* copy); the basic-walk horizon generalizes
/// [`schedule_budget_for`] verbatim: every lane's solo trajectory is
/// purely periodic with period `2(n−1)` activations, each lane gains a
/// fixed activation count per schedule cycle, and the per-lane repeat
/// times all divide `2(n−1)` cycles — so the *joint* state repeats
/// within `cycle · 2(n−1)` rounds past the prefix, the same bound as the
/// pair (for θ-shapes this is exactly [`basic_walk_budget_for`]).
pub(crate) fn ensemble_budget_and_provisioned(
    cell: &Cell,
    inst: &SweepInstance,
    n: usize,
    leaves: usize,
    esched: &EnsembleSchedule,
) -> (u64, u64) {
    match cell.variant {
        Variant::TreeRvz => {
            (budget_for(n), TreeRendezvousAgent::provisioned_bits(n as u64, leaves as u64))
        }
        Variant::DelayRobust => (budget_for(n), DelayRobustAgent::provisioned_bits(n as u64)),
        Variant::PrimePath => (prime_budget_for(n), 0),
        Variant::BasicWalkFsa => {
            let fsa = inst.basic_walk_fsa();
            let budget = esched
                .prefix_len()
                .saturating_add(esched.cycle_len().saturating_mul(basic_walk_two_periods(n)));
            (budget, fsa.memory_bits())
        }
    }
}

/// Round budget and provisioned automaton size for a cell's variant at
/// this instance (shared by the stepping and replay executors). `sched`
/// is the resolved schedule for genuinely scheduled cells (`delay` is
/// then the θ-equivalent and only the schedule shapes the bw horizon).
pub(crate) fn budget_and_provisioned(
    cell: &Cell,
    inst: &SweepInstance,
    n: usize,
    leaves: usize,
    delay: u64,
    sched: Option<&Schedule>,
) -> (u64, u64) {
    match cell.variant {
        Variant::TreeRvz => {
            (budget_for(n), TreeRendezvousAgent::provisioned_bits(n as u64, leaves as u64))
        }
        Variant::DelayRobust => (budget_for(n), DelayRobustAgent::provisioned_bits(n as u64)),
        Variant::PrimePath => (prime_budget_for(n), 0),
        Variant::BasicWalkFsa => {
            let fsa = inst.basic_walk_fsa();
            let budget = match sched {
                Some(s) => schedule_budget_for(n, s),
                None => basic_walk_budget_for(n, delay),
            };
            (budget, fsa.memory_bits())
        }
    }
}

/// Assembles the result row — the single place the 20-field row shape
/// lives, shared by all three executors (stepping and replay pass the
/// bounded run's outcome with `certified: false`; the decide path passes
/// its exact verdict with `certified: true`). Byte-identity across
/// executors is maintained here, not per call site.
#[allow(clippy::too_many_arguments)]
pub(crate) fn make_row(
    cell: &Cell,
    inst: &SweepInstance,
    n: usize,
    leaves: usize,
    (delay, schedule): (u64, Option<String>),
    (met, rounds, crossings): (bool, Option<u64>, u64),
    budget: u64,
    provisioned_bits: u64,
    measured_bits: u64,
    starts: (NodeId, NodeId),
    certified: bool,
) -> SweepRow {
    SweepRow {
        experiment: cell.experiment.clone(),
        family: cell.family.name().to_string(),
        size: cell.n,
        n,
        leaves,
        variant: cell.variant.name().to_string(),
        delay,
        schedule,
        start_a: starts.0,
        start_b: starts.1,
        met,
        rounds,
        crossings,
        budget,
        provisioned_bits,
        measured_bits,
        tree_seed: inst.tree_seed,
        pairs_seed: inst.pairs_seed,
        cell_seed: cell.cell_seed(),
        certified,
        timed_out: None,
        poisoned: None,
        planned: None,
        agents: None,
        start_rest: None,
    }
}

/// Stamps the ensemble fields onto a pair-shaped row: lanes 0/1 stay in
/// `start_a`/`start_b` (so every pair-keyed consumer keeps working) and
/// lanes 2.. land in `start_rest`. The single place rows learn they are
/// k-lane — keeping [`make_row`] untouched is what keeps `--agents 2`
/// byte-identical.
fn stamp_ensemble(mut row: SweepRow, starts: &[NodeId]) -> SweepRow {
    row.agents = Some(starts.len());
    row.start_rest = Some(starts[2..].to_vec());
    row
}

/// The `(met, rounds, crossings)` triple of a bounded run, as
/// [`make_row`] consumes it.
fn bounded_outcome(run: &PairRun) -> (bool, Option<u64>, u64) {
    (run.outcome.met(), run.outcome.round(), run.crossings)
}

/// The `(met, rounds, crossings)` triple of a bounded k-lane run — `met`
/// is *gathering*: all `k` copies on one node at a round boundary.
fn ensemble_outcome(run: &EnsembleRun) -> (bool, Option<u64>, u64) {
    (run.outcome.met(), run.outcome.round(), run.crossings)
}

/// Executes one `--agents k > 2` cell by *stepping* all `k` lanes through
/// the ensemble round loop ([`rvz_sim::run_ensemble_fsa`]) — the k-lane
/// [`Executor::DynStepping`] path, also the ensemble replay fallback.
/// Each variant runs a homogeneous concrete bank (rather than boxing into
/// dyn agents) so the per-variant measured-bits meters stay readable,
/// exactly as [`run_cell_on`] reads them.
fn run_cell_ensemble_stepping(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    let starts = inst.tuples.get(cell.pair_index)?.as_slice();
    let ((delay, schedule), esched) = cell.ensemble_mode(n);
    let (budget, provisioned_bits) =
        ensemble_budget_and_provisioned(cell, inst, n, leaves, &esched);

    let (run, measured_bits) = match cell.variant {
        Variant::TreeRvz => {
            let mut bank: Vec<TreeRendezvousAgent> =
                (0..cell.agents).map(|_| TreeRendezvousAgent::new()).collect();
            let run = run_ensemble_fsa(tree, starts, &mut bank, &esched, budget, false);
            (run, bank.iter().map(|a| a.memory_bits_measured()).max().unwrap_or(0))
        }
        Variant::DelayRobust => {
            let mut bank: Vec<DelayRobustAgent> =
                (0..cell.agents).map(|_| DelayRobustAgent::new()).collect();
            let run = run_ensemble_fsa(tree, starts, &mut bank, &esched, budget, false);
            (run, bank.iter().map(|a| a.memory_bits_measured()).max().unwrap_or(0))
        }
        Variant::PrimePath => {
            let mut bank: Vec<PrimePathAgent> =
                (0..cell.agents).map(|_| PrimePathAgent::unbounded()).collect();
            let run = run_ensemble_fsa(tree, starts, &mut bank, &esched, budget, false);
            use rvz_agent::model::Agent;
            (run, bank.iter().map(|a| a.memory_bits()).max().unwrap_or(0))
        }
        Variant::BasicWalkFsa => {
            let fsa = inst.basic_walk_fsa();
            let mut bank: Vec<_> = (0..cell.agents).map(|_| fsa.runner()).collect();
            let run = run_ensemble_fsa(tree, starts, &mut bank, &esched, budget, false);
            use rvz_agent::model::Agent;
            (run, bank.iter().map(|a| a.memory_bits()).max().unwrap_or(0))
        }
    };

    Some(stamp_ensemble(
        make_row(
            cell,
            inst,
            n,
            leaves,
            (delay, schedule),
            ensemble_outcome(&run),
            budget,
            provisioned_bits,
            measured_bits,
            (starts[0], starts[1]),
            false,
        ),
        starts,
    ))
}

/// Executes one `--agents k > 2` cell from recorded solo trajectories
/// (the k-lane [`Executor::TraceReplay`] path): all `k` timelines come
/// from the *same* process-wide per-agent trace store the pair executor
/// uses — a solo trajectory is a pure function of activation count, so
/// the store needs no ensemble axis — and the cell is decided by
/// [`rvz_sim::replay_ensemble`]'s k-cursor merge. Rows are bit-for-bit
/// [`run_cell_ensemble_stepping`]'s; cells needing recordings past the
/// cap fall back to it.
fn run_cell_ensemble_replay(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    let starts = inst.tuples.get(cell.pair_index)?.as_slice();
    let ((delay, schedule), esched) = cell.ensemble_mode(n);
    let (budget, provisioned_bits) =
        ensemble_budget_and_provisioned(cell, inst, n, leaves, &esched);

    let slots: Vec<trace_cache::Slot> = starts
        .iter()
        .map(|&s| trace_cache::slot(inst, cell.family, cell.n, cell.variant, s))
        .collect();
    fn enter(slot: &trace_cache::Slot) -> std::sync::MutexGuard<'_, trace_cache::VariantRecorder> {
        slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
    // Feasible tuples have pairwise-distinct starts, so the slots differ;
    // lock them in ascending start order so cells sharing endpoints cannot
    // deadlock (the k-lane form of the pair executor's two-lock protocol).
    let mut order: Vec<usize> = (0..starts.len()).collect();
    order.sort_by_key(|&i| starts[i]);
    loop {
        rvz_sim::cancel::checkpoint();
        let mut guards: Vec<Option<std::sync::MutexGuard<'_, trace_cache::VariantRecorder>>> =
            (0..starts.len()).map(|_| None).collect();
        for &i in &order {
            guards[i] = Some(enter(&slots[i]));
        }
        let trajs: Vec<&rvz_sim::Trajectory> =
            guards.iter().map(|g| g.as_ref().expect("locked above").trajectory()).collect();
        match replay_ensemble(tree, &trajs, &esched, budget, false) {
            EnsembleReplay::Decided(run) => {
                // Meters read at each lane's activation count by the final
                // round, exactly as the stepping bank reports them.
                let end = run.outcome.round().unwrap_or(budget);
                let measured_bits = (0..starts.len())
                    .map(|i| {
                        let acts = esched.index(i).acts_at(end);
                        guards[i].as_ref().expect("locked above").trajectory().bits_at(acts)
                    })
                    .max()
                    .unwrap_or(0);
                return Some(stamp_ensemble(
                    make_row(
                        cell,
                        inst,
                        n,
                        leaves,
                        (delay, schedule),
                        ensemble_outcome(&run),
                        budget,
                        provisioned_bits,
                        measured_bits,
                        (starts[0], starts[1]),
                        false,
                    ),
                    starts,
                ));
            }
            EnsembleReplay::NeedMore { rounds } => {
                if rounds.iter().any(|&need| need > trace_cache::MAX_RECORD_ROUNDS) {
                    drop(guards);
                    return run_cell_ensemble_stepping(cell, inst);
                }
                // Grow only the lanes the verdict flagged (0 / already
                // decided = long enough) — warm recordings are never
                // re-stepped because a partner lane was short.
                for (i, &need) in rounds.iter().enumerate() {
                    let g = guards[i].as_mut().expect("locked above");
                    if need > 0 && !g.trajectory().decided_to(need) {
                        let target = grow_target(g.trajectory().rounds(), need, budget);
                        g.record_to(tree, target);
                    }
                }
            }
        }
    }
}

/// Executes one `--agents k > 2` cell through the exact ensemble decider
/// ([`rvz_lowerbounds::decide::decide_ensemble`]) — no round budget,
/// never-*gathers* certified by a joint lasso re-verified by independent
/// k-lane stepping. Start-delay-shaped cells reuse the process-wide solo
/// -lasso store lane by lane (the k-lane closed form); genuine schedules
/// walk the product configuration graph. Exact for the automaton variant
/// only — procedural cells fall back to ensemble replay, exactly like the
/// pair decide path. No orbit quotient at `k > 2`: the ensemble grids are
/// capped at `n ≤ 7`, where deciding every tuple directly is affordable.
fn run_cell_ensemble_decide(
    cell: &Cell,
    inst: &SweepInstance,
) -> Option<(SweepRow, Option<Certificate>)> {
    if cell.variant != Variant::BasicWalkFsa {
        return run_cell_ensemble_replay(cell, inst).map(|row| (row, None));
    }
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    let starts = inst.tuples.get(cell.pair_index)?.as_slice();
    let fsa = inst.basic_walk_fsa();
    let ((delay, schedule), esched) = cell.ensemble_mode(n);
    let (budget, provisioned_bits) =
        ensemble_budget_and_provisioned(cell, inst, n, leaves, &esched);

    let decision: EnsembleDecision = match esched.as_start_delays() {
        Some(delays) => {
            // The per-lane solo lassos come from the same persistent store
            // the pair decide path reads — the tabulation is shared across
            // every tuple, delay class, and sweep repetition touching the
            // start.
            let lassos: Vec<solo_cache::Slot> = starts
                .iter()
                .map(|&s| solo_cache::lasso(inst, cell.family, cell.n, cell.variant, s))
                .collect();
            let refs: Vec<&SoloLasso> = lassos.iter().map(|l| l.as_ref()).collect();
            decide_ensemble_from_lassos(&refs, &delays)
        }
        None => decide_ensemble(tree, fsa, starts, &esched),
    };

    let row = |outcome: (bool, Option<u64>, u64)| {
        stamp_ensemble(
            make_row(
                cell,
                inst,
                n,
                leaves,
                (delay, schedule.clone()),
                outcome,
                budget,
                provisioned_bits,
                fsa.memory_bits(),
                (starts[0], starts[1]),
                true,
            ),
            starts,
        )
    };
    Some(match decision.round() {
        Some(round) => (row((true, Some(round), decision.crossings_within(round))), None),
        None => {
            let lasso = decision.lasso().expect("no round means a lasso");
            let cert = Certificate {
                experiment: cell.experiment.clone(),
                family: cell.family.name().to_string(),
                size: cell.n,
                n,
                tree_seed: inst.tree_seed,
                variant: cell.variant.name().to_string(),
                start_a: starts[0],
                start_b: starts[1],
                verdict: "never-gathers".to_string(),
                schedule: schedule.clone(),
                delay,
                round: None,
                delays_checked: None,
                lasso_stem: Some(lasso.stem),
                lasso_period: Some(lasso.period),
                verified: Some(verify_ensemble_lasso(tree, fsa, starts, &esched, lasso)),
                agents: Some(starts.len()),
                start_rest: Some(starts[2..].to_vec()),
            };
            (row((false, None, decision.crossings_within(budget))), Some(cert))
        }
    })
}

/// Executes one cell on a prebuilt instance by *stepping* both agents
/// (the [`Executor::DynStepping`] path; also the replay fallback). `inst`
/// must be (equal to) `SweepInstance::for_cell(cell)` — the executor
/// guarantees this by keying instances on `(family, n, tree_index)`
/// within one spec (the enumerated family keys each tree individually).
pub fn run_cell_on(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    if cell.agents > 2 {
        // The k-lane grid admits no adversarial axis (grid-filtered), so
        // the ensemble stepping path answers every cell.
        return run_cell_ensemble_stepping(cell, inst);
    }
    if cell.delay == Delay::Adversarial {
        // Only the quantifier layer can answer "every delay".
        return run_cell_decide(cell, inst);
    }
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    let &(start_a, start_b) = inst.pairs.get(cell.pair_index)?;

    // One generic runner per activation mode: the θ path steps through the
    // dyn-compatible `run_pair` wrapper exactly as before (measured-fastest
    // — monomorphizing the round loop benched slower, see the
    // `sim_hot_path/pair_rounds` static-vs-dyn comparison); genuinely
    // scheduled cells step the same agents under `run_pair_scheduled`.
    let (delay, schedule, budget, provisioned_bits, stepper): (
        u64,
        Option<String>,
        u64,
        u64,
        Box<dyn Fn(&mut dyn rvz_agent::model::Agent, &mut dyn rvz_agent::model::Agent) -> PairRun>,
    ) = match cell.mode(n) {
        CellMode::Delay(delay) => {
            let (budget, provisioned) = budget_and_provisioned(cell, inst, n, leaves, delay, None);
            let cfg = PairConfig::delayed(delay, budget);
            let step = move |x: &mut dyn rvz_agent::model::Agent,
                             y: &mut dyn rvz_agent::model::Agent| {
                run_pair(tree, start_a, start_b, x, y, cfg)
            };
            (delay, None, budget, provisioned, Box::new(step))
        }
        CellMode::Scheduled(spec) => {
            let sched = spec.resolve(n);
            let (budget, provisioned) =
                budget_and_provisioned(cell, inst, n, leaves, 0, Some(&sched));
            let step = move |x: &mut dyn rvz_agent::model::Agent,
                             y: &mut dyn rvz_agent::model::Agent| {
                run_pair_scheduled(tree, start_a, start_b, x, y, &sched, budget, false)
            };
            (0, Some(spec.label(n)), budget, provisioned, Box::new(step))
        }
    };

    let (run, measured_bits) = match cell.variant {
        Variant::TreeRvz => {
            let mut x = TreeRendezvousAgent::new();
            let mut y = TreeRendezvousAgent::new();
            let run = stepper(&mut x, &mut y);
            (run, x.memory_bits_measured().max(y.memory_bits_measured()))
        }
        Variant::DelayRobust => {
            let mut x = DelayRobustAgent::new();
            let mut y = DelayRobustAgent::new();
            let run = stepper(&mut x, &mut y);
            (run, x.memory_bits_measured().max(y.memory_bits_measured()))
        }
        Variant::PrimePath => {
            let mut x = PrimePathAgent::unbounded();
            let mut y = PrimePathAgent::unbounded();
            let run = stepper(&mut x, &mut y);
            use rvz_agent::model::Agent;
            (run, x.memory_bits().max(y.memory_bits()))
        }
        Variant::BasicWalkFsa => {
            let fsa = inst.basic_walk_fsa();
            let mut x = fsa.runner();
            let mut y = fsa.runner();
            let run = stepper(&mut x, &mut y);
            use rvz_agent::model::Agent;
            (run, x.memory_bits().max(y.memory_bits()))
        }
    };

    Some(make_row(
        cell,
        inst,
        n,
        leaves,
        (delay, schedule),
        bounded_outcome(&run),
        budget,
        provisioned_bits,
        measured_bits,
        (start_a, start_b),
        false,
    ))
}

/// Demand-driven recording growth: at least `need`, at least double the
/// current horizon (so a cell retries O(log) times, not per round), never
/// past the budget or the hard cap.
fn grow_target(current: u64, need: u64, budget: u64) -> u64 {
    need.max(current.saturating_mul(2))
        .max(1 << 12)
        .min(budget)
        .min(trace_cache::MAX_RECORD_ROUNDS)
        .max(need)
}

/// Executes one cell from recorded trajectories (the
/// [`Executor::TraceReplay`] path): both timelines come from the
/// process-wide trace store keyed `(family, n, tree_seed, start,
/// variant)`, are extended on demand, and the cell is decided by
/// `rvz_sim::trace::replay_pair` — no agent stepping on warm keys. Rows
/// are byte-identical to [`run_cell_on`]; cells that would need recordings
/// past the cap fall back to it.
pub fn run_cell_replay(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    if cell.agents > 2 {
        return run_cell_ensemble_replay(cell, inst);
    }
    if cell.delay == Delay::Adversarial {
        // Only the quantifier layer can answer "every delay".
        return run_cell_decide(cell, inst);
    }
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    let &(start_a, start_b) = inst.pairs.get(cell.pair_index)?;

    // Genuinely scheduled cells replay against the *same* recordings as
    // every θ cell (the trace store key has no schedule axis): the frozen
    // semantics makes a solo trajectory a pure function of activation
    // count, so the schedule only re-times the merge. The θ-equivalent
    // metadata below mirrors the mode split of [`run_cell_on`].
    let (delay, sched): (u64, Option<(ScheduleSpec, Schedule)>) = match cell.mode(n) {
        CellMode::Delay(delay) => (delay, None),
        CellMode::Scheduled(spec) => (0, Some((spec, spec.resolve(n)))),
    };
    let (budget, provisioned_bits) =
        budget_and_provisioned(cell, inst, n, leaves, delay, sched.as_ref().map(|(_, s)| s));
    let cfg = PairConfig::delayed(delay, budget);

    let slot_a = trace_cache::slot(inst, cell.family, cell.n, cell.variant, start_a);
    let slot_b = trace_cache::slot(inst, cell.family, cell.n, cell.variant, start_b);
    // A slot poisoned by a cancelled attempt is safe to re-enter: the
    // cancellation checkpoints sit at round boundaries, so a recording
    // interrupted mid-growth is a shorter but *consistent* prefix.
    fn enter(slot: &trace_cache::Slot) -> std::sync::MutexGuard<'_, trace_cache::VariantRecorder> {
        slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
    loop {
        rvz_sim::cancel::checkpoint();
        // Feasible pairs have distinct starts, so the slots differ; lock
        // them in start order so cells sharing an endpoint cannot deadlock.
        let (mut ga, mut gb);
        if start_a <= start_b {
            ga = enter(&slot_a);
            gb = enter(&slot_b);
        } else {
            gb = enter(&slot_b);
            ga = enter(&slot_a);
        }
        let verdict = match &sched {
            None => replay_pair(tree, ga.trajectory(), gb.trajectory(), cfg),
            Some((_, s)) => {
                replay_pair_scheduled(tree, ga.trajectory(), gb.trajectory(), s, budget, false)
            }
        };
        match verdict {
            Replay::Decided(run) => {
                // The stepping path reports the meters after exactly as
                // many activations as each agent got by the final round;
                // read the same points off the recorded mark lists (the
                // θ path's counts are `round` and `round − θ`, the
                // scheduled path's come from the activation index).
                let end = run.outcome.round().unwrap_or(budget);
                let (acts_a, acts_b) = match &sched {
                    None => (end, end.saturating_sub(delay)),
                    Some((_, s)) => (s.index_a().acts_at(end), s.index_b().acts_at(end)),
                };
                let measured_bits =
                    ga.trajectory().bits_at(acts_a).max(gb.trajectory().bits_at(acts_b));
                return Some(make_row(
                    cell,
                    inst,
                    n,
                    leaves,
                    (delay, sched.map(|(spec, _)| spec.label(n))),
                    bounded_outcome(&run),
                    budget,
                    provisioned_bits,
                    measured_bits,
                    (start_a, start_b),
                    false,
                ));
            }
            Replay::NeedMore { a_rounds, b_rounds } => {
                if a_rounds > trace_cache::MAX_RECORD_ROUNDS
                    || b_rounds > trace_cache::MAX_RECORD_ROUNDS
                {
                    drop(ga);
                    drop(gb);
                    return run_cell_on(cell, inst);
                }
                // Grow only the lane(s) the verdict flagged (`0` / already
                // decided means "long enough") — a warm recording must not
                // be re-stepped just because its partner was short. Both
                // verdict flavors report *solo recording rounds*, i.e.
                // activation counts.
                if !ga.trajectory().decided_to(a_rounds) {
                    let target = grow_target(ga.trajectory().rounds(), a_rounds, budget);
                    ga.record_to(tree, target);
                }
                if !gb.trajectory().decided_to(b_rounds) {
                    let target = grow_target(gb.trajectory().rounds(), b_rounds, budget);
                    gb.record_to(tree, target);
                }
            }
        }
    }
}

/// Executes one cell through the exact decider (the
/// [`Executor::ExactDecide`] path); see [`run_cell_decide_certified`] for
/// the certificate-carrying form.
pub fn run_cell_decide(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    run_cell_decide_certified(cell, inst).map(|(row, _)| row)
}

/// Executes one cell by reachability over the joint configuration graph
/// ([`rvz_lowerbounds::decide`]) — no round budget. Exact for the
/// automaton variant; procedural-agent cells fall back to the replay
/// executor (their configuration spaces are not exported). Fixed-delay
/// rows are byte-identical to the bounded executors' except for
/// `certified: true`: the meeting round, the crossing count *at the
/// bounded executors' budget* (closed-form along the certified cycle) and
/// every provenance field coincide. Returns the row plus a
/// [`Certificate`] for never-meets and universal-delay cells.
pub fn run_cell_decide_certified(
    cell: &Cell,
    inst: &SweepInstance,
) -> Option<(SweepRow, Option<Certificate>)> {
    if cell.agents > 2 {
        return run_cell_ensemble_decide(cell, inst);
    }
    if cell.variant != Variant::BasicWalkFsa {
        // The grid filter keeps adversarial delays off procedural agents;
        // guard against hand-built cells re-entering the replay path.
        assert!(cell.delay != Delay::Adversarial, "adversarial delay needs the automaton variant");
        return run_cell_replay(cell, inst).map(|row| (row, None));
    }
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    let &(start_a, start_b) = inst.pairs.get(cell.pair_index)?;
    let fsa = inst.basic_walk_fsa();
    let provisioned_bits = fsa.memory_bits();
    let measured_bits = fsa.memory_bits();

    let base_certificate = |verdict: &str, delay: u64| Certificate {
        experiment: cell.experiment.clone(),
        family: cell.family.name().to_string(),
        size: cell.n,
        n,
        tree_seed: inst.tree_seed,
        variant: cell.variant.name().to_string(),
        start_a,
        start_b,
        verdict: verdict.to_string(),
        schedule: None,
        delay,
        round: None,
        delays_checked: None,
        lasso_stem: None,
        lasso_period: None,
        verified: None,
        agents: None,
        start_rest: None,
    };
    let certificate = |verdict: &str,
                       delay: u64,
                       round: Option<u64>,
                       delays_checked: Option<u64>,
                       lasso: Option<&rvz_lowerbounds::Lasso>| {
        Certificate {
            round,
            delays_checked,
            lasso_stem: lasso.map(|l| l.stem),
            lasso_period: lasso.map(|l| l.period),
            verified: lasso.map(|l| verify_lasso(tree, fsa, start_a, start_b, delay, l)),
            ..base_certificate(verdict, delay)
        }
    };
    // The one certified-row assembler: shares [`make_row`] with the
    // bounded executors, so the 20-field row shape lives in one place.
    let row = |(delay, schedule): (u64, Option<String>),
               outcome: (bool, Option<u64>, u64),
               budget: u64| {
        make_row(
            cell,
            inst,
            n,
            leaves,
            (delay, schedule),
            outcome,
            budget,
            provisioned_bits,
            measured_bits,
            (start_a, start_b),
            true,
        )
    };

    // The orbit quotient: classify the cell's delay axis, pick the orbit
    // table whose group is sound for it, decide the orbit representative
    // once per `(instance, delay class)` — both solo halves from the
    // process-wide store — and replicate the relabeled verdict to the
    // rest of the orbit. Replication is exact (see
    // [`rvz_lowerbounds::decide::Decision::relabel`]): the row below is
    // byte-identical to deciding the pair directly, and the certificate
    // is re-verified against *this* pair's starts.
    enum Path {
        Fixed(u64),
        Universal,
        Scheduled(ScheduleSpec, Schedule),
    }
    let path = match cell.delay {
        Delay::Adversarial => Path::Universal,
        // Genuinely scheduled cells take the cycle-position product
        // construction; start-delay-shaped specs fall through to the
        // θ-indexed decider and emit byte-identical legacy rows.
        Delay::Schedule(spec) if spec.as_start_delay().is_none() => {
            Path::Scheduled(spec, spec.resolve(n))
        }
        _ => match cell.mode(n) {
            CellMode::Delay(delay) => Path::Fixed(delay),
            CellMode::Scheduled(_) => unreachable!("genuine schedules matched above"),
        },
    };
    // The flip acts on space and is sound under every activation pattern;
    // the swap exchanges the agents and is sound only when the schedule
    // treats the lanes identically (θ = 0 / lane-symmetric schedules —
    // never the ∀-delay quantifier, whose θ axis is lane-asymmetric).
    let allow_swap = match &path {
        Path::Fixed(delay) => *delay == 0,
        Path::Universal => false,
        Path::Scheduled(_, sched) => sched.lane_symmetric(),
    };
    let (rep, action) = inst.orbit_lookup(allow_swap)[cell.pair_index];
    let (rep_a, rep_b) = inst.pairs[rep];
    let solo = |start| solo_cache::lasso(inst, cell.family, cell.n, cell.variant, start);
    let slot = inst.rep_decision((cell.delay.code(), rep), || match &path {
        Path::Fixed(delay) => {
            // Feasible pairs have distinct starts, so the precomputed-
            // lasso entry points apply.
            RepDecision::Fixed(decide_from_lassos(&solo(rep_a), &solo(rep_b), *delay))
        }
        Path::Universal => {
            RepDecision::Universal(worst_case_from_lassos(&solo(rep_a), &solo(rep_b)))
        }
        Path::Scheduled(_, sched) => {
            RepDecision::Scheduled(decide_pair_scheduled(tree, fsa, rep_a, rep_b, sched))
        }
    });
    let rep_decision = slot.get().expect("representative decided above");
    let relabeled;
    let decided: &RepDecision = if action == OrbitAction::IDENTITY {
        rep_decision
    } else {
        relabeled = rep_decision.relabel(action, inst.flip_map());
        &relabeled
    };

    Some(match (&path, decided) {
        (Path::Scheduled(spec, sched), RepDecision::Scheduled(decision)) => {
            let budget = schedule_budget_for(n, sched);
            let label = spec.label(n);
            match decision.round() {
                Some(round) => {
                    let crossings = decision.crossings_within(round);
                    (row((0, Some(label)), (true, Some(round), crossings), budget), None)
                }
                None => {
                    let lasso = decision.lasso().expect("no round means a lasso");
                    let cert = Certificate {
                        schedule: Some(label.clone()),
                        lasso_stem: Some(lasso.stem),
                        lasso_period: Some(lasso.period),
                        verified: Some(verify_schedule_lasso(
                            tree, fsa, start_a, start_b, sched, lasso,
                        )),
                        ..base_certificate("never-meets", 0)
                    };
                    let crossings = decision.crossings_within(budget);
                    (row((0, Some(label)), (false, None, crossings), budget), Some(cert))
                }
            }
        }
        (Path::Universal, RepDecision::Universal(wc)) => match wc {
            WorstCase::AllMeet { worst_delay, worst_round, delays_checked, decision } => {
                let budget = basic_walk_budget_for(n, *worst_delay);
                let crossings = decision.crossings_within(*worst_round);
                let cert = certificate(
                    "all-delays-meet",
                    *worst_delay,
                    Some(*worst_round),
                    Some(*delays_checked),
                    None,
                );
                (
                    row((*worst_delay, None), (true, Some(*worst_round), crossings), budget),
                    Some(cert),
                )
            }
            WorstCase::Defeated { delay, decision, delays_checked } => {
                let budget = basic_walk_budget_for(n, *delay);
                let lasso = decision.lasso().expect("defeat carries a lasso");
                let cert =
                    certificate("delay-defeats", *delay, None, Some(*delays_checked), Some(lasso));
                (
                    row((*delay, None), (false, None, decision.crossings_within(budget)), budget),
                    Some(cert),
                )
            }
        },
        (Path::Fixed(delay), RepDecision::Fixed(decision)) => {
            let delay = *delay;
            let budget = basic_walk_budget_for(n, delay);
            match decision.round() {
                Some(round) => {
                    // `crossings_within(round)` == the simulator's count:
                    // it stops counting at the meeting round too.
                    let crossings = decision.crossings_within(round);
                    (row((delay, None), (true, Some(round), crossings), budget), None)
                }
                None => {
                    let lasso = decision.lasso().expect("no round means a lasso");
                    let cert = certificate("never-meets", delay, None, None, Some(lasso));
                    let crossings = decision.crossings_within(budget);
                    (row((delay, None), (false, None, crossings), budget), Some(cert))
                }
            }
        }
        _ => unreachable!("the memo key separates decision flavors"),
    })
}

/// What a sweep produced: the rows, plus how much of the planned grid they
/// cover. `dropped_cells > 0` means some instances had fewer feasible start
/// pairs than `pairs_per_cell` — those cells never ran, and pretending
/// otherwise would make row counts silently incomparable across sizes.
/// `certificates` carries the exact decider's machine-checkable evidence
/// (empty under the bounded executors), in grid order.
#[derive(Debug, Clone)]
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

/// Dispatches one cell to `executor` — the single dispatch shared by
/// [`run_with_options`] and the watchdog's downgrade chain. Adversarial
/// cells are answered by the quantifier layer under *every* executor,
/// routed through the certified entry point so the universal verdict's
/// evidence (the per-cell [`Certificate`], lassos included) is kept in
/// the report instead of being computed and dropped inside the bounded
/// executors' delegation.
pub fn run_cell_with_executor(
    cell: &Cell,
    inst: &SweepInstance,
    executor: Executor,
) -> (Option<SweepRow>, Option<Certificate>) {
    let decide_certified = || match run_cell_decide_certified(cell, inst) {
        Some((row, cert)) => (Some(row), cert),
        None => (None, None),
    };
    match executor {
        _ if cell.delay == Delay::Adversarial => decide_certified(),
        Executor::TraceReplay => (run_cell_replay(cell, inst), None),
        Executor::DynStepping => (run_cell_on(cell, inst), None),
        Executor::ExactDecide => decide_certified(),
    }
}

/// One cell under `executor`, on the per-cell watchdog when `timeout` is
/// set — the dispatch [`run_with_options`] and the `--workers` supervisor
/// share.
pub(crate) fn dispatch_cell(
    cell: &Cell,
    inst: &Arc<SweepInstance>,
    executor: Executor,
    timeout: Option<std::time::Duration>,
) -> (Option<SweepRow>, Option<Certificate>) {
    match timeout {
        Some(timeout) => run_cell_watchdogged(cell, inst, executor, timeout),
        None => run_cell_with_executor(cell, inst, executor),
    }
}

/// The watchdog's retry ladder: a timed-out attempt moves to the
/// next-cheaper executor before the cell is given up as [`timed_out_row`].
/// "Cheaper" here is per-cell marginal cost — the decider explores a joint
/// configuration graph, replay decides from (possibly warm) recordings,
/// and plain stepping does the minimum: one bounded run, no shared state.
fn downgrade_chain(executor: Executor) -> &'static [Executor] {
    match executor {
        Executor::ExactDecide => {
            &[Executor::ExactDecide, Executor::TraceReplay, Executor::DynStepping]
        }
        Executor::TraceReplay => &[Executor::TraceReplay, Executor::DynStepping],
        Executor::DynStepping => &[Executor::DynStepping],
    }
}

/// The shared shape of a quarantine row: "no run happened" — `met: false`,
/// `rounds: null`, zero crossings and measured bits, `certified: false`.
/// The caller stamps the reason flag (`timed_out` or `poisoned`); provenance
/// (budget, provisioned bits, θ/schedule) is still reported so the row
/// names exactly which computation was skipped. `None` when the pair index
/// is out of range (the ordinary dropped-cell case).
fn quarantine_row(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    let tree = &inst.tree;
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    if cell.agents > 2 {
        let starts = inst.tuples.get(cell.pair_index)?.as_slice();
        let ((delay, schedule), esched) = cell.ensemble_mode(n);
        let (budget, provisioned_bits) =
            ensemble_budget_and_provisioned(cell, inst, n, leaves, &esched);
        return Some(stamp_ensemble(
            make_row(
                cell,
                inst,
                n,
                leaves,
                (delay, schedule),
                (false, None, 0),
                budget,
                provisioned_bits,
                0,
                (starts[0], starts[1]),
                false,
            ),
            starts,
        ));
    }
    let &starts = inst.pairs.get(cell.pair_index)?;
    let (mode, budget, provisioned_bits) = if cell.delay == Delay::Adversarial {
        // The quantifier never reached a decisive delay; there is no θ or
        // budget to report, only the provisioned automaton size.
        ((0u64, None), 0u64, inst.basic_walk_fsa().memory_bits())
    } else {
        let (delay, schedule, sched) = match cell.mode(n) {
            CellMode::Delay(delay) => (delay, None, None),
            CellMode::Scheduled(spec) => (0, Some(spec.label(n)), Some(spec.resolve(n))),
        };
        let (budget, provisioned) =
            budget_and_provisioned(cell, inst, n, leaves, delay, sched.as_ref());
        ((delay, schedule), budget, provisioned)
    };
    Some(make_row(
        cell,
        inst,
        n,
        leaves,
        mode,
        (false, None, 0),
        budget,
        provisioned_bits,
        0,
        starts,
        false,
    ))
}

/// The explicit timeout row: a cell whose every attempt blew the wall
/// budget, with `timed_out: true` so it can never be mistaken for a
/// certified never-meets or an in-budget timeout.
fn timed_out_row(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    let mut row = quarantine_row(cell, inst)?;
    row.timed_out = Some(true);
    Some(row)
}

/// The explicit poisoned-shard row: a cell whose shard killed every worker
/// sent to it (supervisor attempt cap exceeded), with `poisoned: true` —
/// same "no fabricated measurements" discipline as [`timed_out_row`].
pub(crate) fn poisoned_row(cell: &Cell, inst: &SweepInstance) -> Option<SweepRow> {
    let mut row = quarantine_row(cell, inst)?;
    row.poisoned = Some(true);
    Some(row)
}

/// Runs one cell under a wall-clock budget per attempt: the cell executes
/// on a watchdogged thread, and an attempt that exceeds `timeout` is
/// *cancelled* — the watchdog sets the attempt's cooperative cancellation
/// flag ([`rvz_sim::cancel`]), the executor loops observe it at their next
/// poll point and unwind, and the thread exits — while the cell retries
/// down [`downgrade_chain`]. (The thread is still detached rather than
/// joined so one unresponsive attempt cannot wedge the sweep, but unlike
/// the old detach-and-forget scheme it terminates promptly instead of
/// stepping to the end of a possibly astronomical budget; pinned by
/// `tests/watchdog_threads.rs`.) A cell that exhausts the chain is
/// quarantined as an explicit [`timed_out_row`]. Adversarial cells get a
/// single attempt: every executor routes them through the same quantifier
/// layer, so a "downgrade" would re-run the identical computation.
fn run_cell_watchdogged(
    cell: &Cell,
    inst: &Arc<SweepInstance>,
    executor: Executor,
    timeout: std::time::Duration,
) -> (Option<SweepRow>, Option<Certificate>) {
    use rvz_sim::cancel;
    cancel::silence_cancelled_panics();
    let chain: &[Executor] = if cell.delay == Delay::Adversarial {
        &[Executor::ExactDecide]
    } else {
        downgrade_chain(executor)
    };
    for (step, &attempt) in chain.iter().enumerate() {
        let (tx, rx) = std::sync::mpsc::channel();
        let cancel_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let c = cell.clone();
        let i = Arc::clone(inst);
        let flag = Arc::clone(&cancel_flag);
        std::thread::spawn(move || {
            let _guard = cancel::CancelGuard::install(flag);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_cell_with_executor(&c, &i, attempt)
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
                        "retrying on the next-cheaper executor"
                    } else {
                        "quarantining as a timed_out row"
                    },
                );
            }
        }
    }
    (timed_out_row(cell, inst), None)
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
/// Instances are built once per `(family, n)` key — in parallel, since
/// each is a pure function of its coordinates — and shared immutably
/// across the delay × variant × pair sub-grid. Cell results are unchanged
/// (same seeds, same trees, same pairs), so the output stays byte-identical
/// to the per-cell-rebuild executor for every `--threads` value.
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
pub fn run_with_options(spec: &SweepSpec, opts: &RunOptions<'_>) -> SweepReport {
    let grid = cells(spec);
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(spec.threads).build().expect("thread pool");

    // One representative cell per instance key, in first-appearance order
    // (the enumerated family keys each tree individually).
    type InstanceKey = (Family, usize, Option<u64>);
    let key = |c: &Cell| -> InstanceKey { (c.family, c.n, c.tree_index) };
    let mut reps: Vec<&Cell> = Vec::new();
    let mut seen: std::collections::HashSet<InstanceKey> = std::collections::HashSet::new();
    for cell in &grid {
        if seen.insert(key(cell)) {
            reps.push(cell);
        }
    }
    let run_one = |c: &Cell, inst: &Arc<SweepInstance>| {
        let cell_seed = c.cell_seed();
        if let Some(journal) = opts.journal {
            if let Some(rec) = journal.lookup(cell_seed) {
                return (rec.row.clone(), rec.certificate.clone());
            }
        }
        let out = dispatch_cell(c, inst, spec.executor, opts.cell_timeout);
        if let Some(journal) = opts.journal {
            journal.record(&crate::checkpoint::CellRecord {
                cell_seed,
                row: out.0.clone(),
                certificate: out.1.clone(),
            });
        }
        out
    };
    let results: Vec<(Option<SweepRow>, Option<Certificate>)> = pool.install(|| {
        let built: Vec<Arc<SweepInstance>> =
            reps.par_iter().map(|c| Arc::new(SweepInstance::for_cell(c))).collect();
        let by_key: HashMap<InstanceKey, Arc<SweepInstance>> =
            reps.iter().zip(built).map(|(c, inst)| (key(c), inst)).collect();
        grid.par_iter().map(|c| run_one(c, &by_key[&key(c)])).collect()
    });
    if let Some(journal) = opts.journal {
        journal.sync();
    }
    let planned_cells = results.len();
    let mut rows = Vec::with_capacity(planned_cells);
    let mut certificates = Vec::new();
    for (row, cert) in results {
        rows.extend(row);
        certificates.extend(cert);
    }
    SweepReport {
        dropped_cells: planned_cells - rows.len(),
        planned_cells,
        rows,
        certificates,
        append_failures: opts.journal.map_or(0, |j| j.appends_lost()),
    }
}

/// Renders a sweep report as the same kind of aligned table the classic
/// experiment drivers print.
pub fn to_table(experiment: &str, report: &SweepReport) -> Table {
    let rows = &report.rows;
    let mut t = Table::new(
        &experiment.to_uppercase(),
        &format!("sweep grid ({} rows)", rows.len()),
        &[
            "family",
            "n",
            "ℓ",
            "variant",
            "delay",
            "a",
            "b",
            "met",
            "rounds",
            "prov-bits",
            "meas-bits",
        ],
    );
    for r in rows {
        t.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.leaves.to_string(),
            r.variant.clone(),
            r.schedule.clone().unwrap_or_else(|| r.delay.to_string()),
            r.start_a.to_string(),
            r.start_b.to_string(),
            if r.met { "y" } else { "N" }.to_string(),
            r.rounds.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
            r.provisioned_bits.to_string(),
            r.measured_bits.to_string(),
        ]);
    }
    let met = rows.iter().filter(|r| r.met).count();
    t.note(&format!("{met}/{} cells met within budget", rows.len()));
    let certified = rows.iter().filter(|r| r.certified).count();
    if certified > 0 {
        let never = rows.iter().filter(|r| r.certified && !r.met).count();
        t.note(&format!(
            "{certified} cells exactly decided ({never} certified never-meets, no timeouts)"
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
            "{} of {} planned cells dropped (instance had fewer feasible start pairs than --pairs)",
            report.dropped_cells, report.planned_cells
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
/// workload — the orbit-quotiented decider keeps it CI-sized). The
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

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_sim::run_pair_fsa;

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
            executor: Executor::default(),
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
            let rerun = run_pair_fsa(
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
        for c in &grid {
            for d in &grid {
                if c.family == d.family && c.n == d.n {
                    assert_eq!(c.tree_seed(), d.tree_seed());
                    assert_eq!(c.pairs_seed(), d.pairs_seed());
                }
            }
        }
    }

    #[test]
    fn cached_executor_matches_per_cell_rebuild() {
        // The instance cache is an executor optimization only: running every
        // cell standalone (rebuilding tree + pair pool from its coordinates)
        // must produce the identical row stream.
        let spec = small_spec(2);
        let report = run(&spec);
        let rebuilt: Vec<SweepRow> = cells(&spec).iter().filter_map(run_cell).collect();
        assert_eq!(
            serde_json::to_string(&report.rows).unwrap(),
            serde_json::to_string(&rebuilt).unwrap(),
            "cached executor must match the rebuild-per-cell path byte-for-byte"
        );
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
        let table = to_table("drop", &report);
        assert!(table.render().contains("planned cells dropped"));
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
    fn orbit_quotient_is_invisible_cell_by_cell() {
        // Quotiented vs unquotiented, per cell: every decide row must
        // equal the *raw* decider's answer for that exact pair (the
        // quotient decides only the orbit representative and replicates
        // the relabeled verdict — invisibly, or it is wrong). Sampled
        // families and the exhaustive family both run; the exhaustive
        // pair pools are closed under swap, so multi-member orbits are
        // guaranteed to exercise the replication path.
        use rvz_lowerbounds::decide::{decide_pair, worst_case_delay};
        let spec = SweepSpec {
            experiment: "orbit".into(),
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
        let mut replicated = 0usize;
        for cell in &grid {
            let inst = SweepInstance::for_cell(cell);
            let Some((row, cert)) = run_cell_decide_certified(cell, &inst) else {
                continue;
            };
            let allow_swap = cell.delay.is_always_zero();
            if inst.orbit_lookup(allow_swap)[cell.pair_index].1 != OrbitAction::IDENTITY {
                replicated += 1;
            }
            let fsa = inst.basic_walk_fsa();
            let (a, b) = inst.pairs[cell.pair_index];
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
            // Replicated certificates are re-verified against *this*
            // pair's starts — the verification must actually pass.
            if let Some(cert) = cert {
                assert_eq!(cert.start_a, a);
                assert_eq!(cert.start_b, b);
                assert_eq!(cert.verified, cert.lasso_stem.is_some().then_some(true), "{cert:?}");
            }
        }
        assert!(replicated > 0, "the grid must contain orbit members answered by replication");
    }

    #[test]
    fn orbit_quotient_matches_per_pair_verdicts_on_random_trees() {
        // Proptest-style: on seeded random trees n ≤ 8, the orbit tables
        // themselves must agree with brute force — every member's
        // relabeled representative decision equals its direct decision,
        // for both swap-allowances and all three delay classes.
        use rvz_lowerbounds::decide::decide_pair;
        for trial in 0..12u64 {
            let n = 4 + (trial as usize) % 5;
            let cell = Cell {
                experiment: Arc::from("orbit-prop"),
                family: Family::Random,
                n,
                delay: Delay::Zero,
                variant: Variant::BasicWalkFsa,
                pair_index: 0,
                pairs_total: 8,
                base_seed: 0xBEEF ^ trial,
                tree_index: None,
                agents: 2,
            };
            let inst = SweepInstance::for_cell(&cell);
            let fsa = inst.basic_walk_fsa();
            for allow_swap in [false, true] {
                let theta = if allow_swap { 0 } else { 3 };
                let lookup = inst.orbit_lookup(allow_swap).to_vec();
                for (index, &(rep, action)) in lookup.iter().enumerate() {
                    let (ra, rb) = inst.pairs[rep];
                    let (a, b) = inst.pairs[index];
                    let rep_dec = decide_pair(&inst.tree, fsa, ra, rb, theta);
                    let direct = decide_pair(&inst.tree, fsa, a, b, theta);
                    let map = action.flip.then(|| inst.flip_map().expect("flip map"));
                    assert_eq!(
                        rep_dec.relabel(map, action.swap),
                        direct,
                        "trial {trial} pair {index} via rep {rep} ({action:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn decide_executor_matches_replay_modulo_certification() {
        // The exact decider must agree with the bounded executors on every
        // field of every row — meeting rounds, crossings at the budget,
        // provenance — differing only in the `certified` flag on the cells
        // it answers natively. (Procedural-agent cells fall back to replay
        // and stay bit-identical outright.)
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
                schedule_budget_for(n, &Schedule::start_delay(theta)),
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
                .filter(|t| !instances::exhaustive_feasible_pairs(t).is_empty())
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
