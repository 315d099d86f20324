//! The per-instance memo behind the sweep's trace-replay and exact-decide
//! executors: every solo recording and every basic-walk solo lasso of one
//! instance, indexed by start, in one process-wide registry.
//!
//! **Why per instance.** The paper's agents are deterministic and
//! oblivious, so an agent's solo trajectory is a pure function of
//! `(tree, start, variant)` and a basic-walk solo lasso of `(tree, start)`;
//! within a sweep the tree is a pure function of the instance coordinates
//! `(family, n, tree_seed)`. The registry maps those coordinates to one
//! [`InstanceMemo`]. [`SweepInstance::for_cell`] fetches it once, which is
//! the only global lock a sweep takes; cells then reach recordings and
//! lassos by start index, with no hashing and no shared map. Every `(delay,
//! tuple)` cell of an instance shares its lanes' recordings, and because
//! the registry outlives any one sweep, reruns of a grid (benchmark
//! repetitions, overlapping experiments) replay warm recordings, and a
//! store loaded by [`crate::stores::load_all`] is saved back whole by
//! [`crate::stores::save_all`] with no sweep in between.
//!
//! **Recordings: shared reads, exclusive growth.** Each recording sits in
//! an `RwLock`. A replay cell read-locks its lanes in ascending start
//! order and merges. When the merge needs more rounds, the cell drops
//! every guard, grows each short lane under that lane's write lock alone
//! ([`grow`] re-checks the horizon first: another thread may have grown
//! it), and retries. Writers never hold two locks and readers acquire in
//! one global order, so no wait cycle can form. Growth extends the
//! recorded prefix in place and never changes it ([`VariantRecorder::record_to`]
//! never re-steps it), so no row depends on which thread grew a lane.
//!
//! **Lassos** are complete at birth ([`SoloLasso::tabulate`] stops at the
//! first repeated configuration), so each sits in a `OnceLock`: tabulated
//! by the first cell that needs it, read without a lock ever after.
//!
//! **Bounds.** Nothing is evicted; memory is bounded by the grid. A
//! recording is never grown past [`MAX_RECORD_ROUNDS`]: cells still
//! undecided there fall back to the dyn-stepping path (in practice only
//! adversarial timeout cells with multi-billion-round budgets and no
//! fixed-point tail).

use crate::sweep::{Family, SweepInstance, Variant};
use rvz_agent::model::Agent;
use rvz_agent::OwnedFsaRunner;
use rvz_core::prime_path::PrimePathAgent;
use rvz_core::{DelayRobustAgent, TreeRendezvousAgent};
use rvz_lowerbounds::decide::SoloLasso;
use rvz_sim::{TraceRecorder, Trajectory};
use rvz_trees::{NodeId, Tree};
use std::collections::HashMap;
use std::sync::{
    Arc, LazyLock, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, TryLockError,
};

/// Hard per-trajectory recording cap (rounds). At 16 bytes per RLE run
/// this bounds a worst-case (move-every-round) recording at ~128 MiB;
/// every workload in the perf grids decides orders of magnitude earlier
/// (stay-heavy schedules compress to a handful of runs per period).
pub(crate) const MAX_RECORD_ROUNDS: u64 = 1 << 23;

/// A [`TraceRecorder`] over whichever concrete agent the variant runs,
/// recording the same memory meter the stepping executor reports
/// (measured bits for the procedural Theorem-4.1 / delay-robust agents,
/// trait-level bits for `prime` and the basic-walk automaton).
pub(crate) enum VariantRecorder {
    // Boxed: the procedural agents' recorders are hundreds of bytes; a
    // lane should pay pointer-sized variants.
    TreeRvz(Box<TraceRecorder<TreeRendezvousAgent>>),
    DelayRobust(Box<TraceRecorder<DelayRobustAgent>>),
    PrimePath(Box<TraceRecorder<PrimePathAgent>>),
    BwFsa(Box<TraceRecorder<OwnedFsaRunner>>),
    /// A trajectory restored from the persistent store
    /// ([`crate::stores`]): the recorded prefix without its recorder (the
    /// agent's live state is not persisted). Replays within the restored
    /// horizon never step an agent; the first extension rebuilds the
    /// concrete recorder and re-steps from scratch — determinism makes
    /// the re-recorded prefix identical, and the restored prefix is never
    /// spliced with fresh stepping.
    Restored {
        variant: Variant,
        start: NodeId,
        traj: Trajectory,
    },
}

impl VariantRecorder {
    pub(crate) fn new(variant: Variant, start: NodeId, inst: &SweepInstance) -> Self {
        if variant == Variant::BasicWalkFsa {
            // Reuse the instance's cached automaton table.
            return VariantRecorder::BwFsa(Box::new(TraceRecorder::new(
                start,
                inst.basic_walk_fsa().runner_owned(),
                |a| a.memory_bits(),
            )));
        }
        VariantRecorder::rebuild(variant, start, &inst.tree)
    }

    /// A fresh, parked recorder built from the tree alone — the restored
    /// path's constructor (no [`SweepInstance`] in scope at load time).
    /// Matches [`VariantRecorder::new`] exactly: the basic-walk automaton
    /// is a pure function of the tree's maximum degree.
    pub(crate) fn rebuild(variant: Variant, start: NodeId, t: &Tree) -> Self {
        match variant {
            Variant::TreeRvz => VariantRecorder::TreeRvz(Box::new(TraceRecorder::new(
                start,
                TreeRendezvousAgent::new(),
                TreeRendezvousAgent::memory_bits_measured,
            ))),
            Variant::DelayRobust => VariantRecorder::DelayRobust(Box::new(TraceRecorder::new(
                start,
                DelayRobustAgent::new(),
                DelayRobustAgent::memory_bits_measured,
            ))),
            Variant::PrimePath => VariantRecorder::PrimePath(Box::new(TraceRecorder::new(
                start,
                PrimePathAgent::unbounded(),
                |a| a.memory_bits(),
            ))),
            Variant::BasicWalkFsa => VariantRecorder::BwFsa(Box::new(TraceRecorder::new(
                start,
                rvz_agent::Fsa::basic_walk(t.max_degree().max(1)).runner_owned(),
                |a| a.memory_bits(),
            ))),
        }
    }

    pub(crate) fn trajectory(&self) -> &Trajectory {
        match self {
            VariantRecorder::TreeRvz(r) => r.trajectory(),
            VariantRecorder::DelayRobust(r) => r.trajectory(),
            VariantRecorder::PrimePath(r) => r.trajectory(),
            VariantRecorder::BwFsa(r) => r.trajectory(),
            VariantRecorder::Restored { traj, .. } => traj,
        }
    }

    pub(crate) fn record_to(&mut self, t: &Tree, rounds: u64) {
        match self {
            VariantRecorder::TreeRvz(r) => r.record_to(t, rounds),
            VariantRecorder::DelayRobust(r) => r.record_to(t, rounds),
            VariantRecorder::PrimePath(r) => r.record_to(t, rounds),
            VariantRecorder::BwFsa(r) => r.record_to(t, rounds),
            VariantRecorder::Restored { variant, start, traj } => {
                // No live recorder to extend: re-step from scratch to at
                // least the restored horizon, then swap wholesale.
                let target = rounds.max(traj.rounds());
                let mut fresh = VariantRecorder::rebuild(*variant, *start, t);
                fresh.record_to(t, target);
                *self = fresh;
            }
        }
    }
}

/// One lane's solo recording, grown in place.
pub(crate) type Lane = RwLock<VariantRecorder>;

/// Everything the replay and decide executors memoize on one instance.
pub(crate) struct InstanceMemo {
    /// Solo recordings by `[variant][start]`. A variant's row is allocated
    /// on its first use, so a decide-only grid records nothing.
    lanes: [OnceLock<Box<[OnceLock<Lane>]>>; Variant::ALL.len()],
    /// Basic-walk solo lassos by start.
    lassos: Box<[OnceLock<SoloLasso>]>,
}

impl std::fmt::Debug for InstanceMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceMemo").field("nodes", &self.lassos.len()).finish_non_exhaustive()
    }
}

impl InstanceMemo {
    fn new(nodes: usize) -> Self {
        InstanceMemo {
            lanes: Default::default(),
            lassos: (0..nodes).map(|_| OnceLock::new()).collect(),
        }
    }

    fn lane_row(&self, variant: Variant) -> &[OnceLock<Lane>] {
        self.lanes[variant as usize]
            .get_or_init(|| (0..self.lassos.len()).map(|_| OnceLock::new()).collect())
    }

    /// The recording of `variant` from `start`; `init` builds its parked
    /// recorder (nothing stepped) on first use.
    pub(crate) fn lane(
        &self,
        variant: Variant,
        start: NodeId,
        init: impl FnOnce() -> VariantRecorder,
    ) -> &Lane {
        self.lane_row(variant)[start as usize].get_or_init(|| RwLock::new(init()))
    }

    /// The solo lasso from `start`; `init` tabulates it on first use.
    pub(crate) fn lasso(&self, start: NodeId, init: impl FnOnce() -> SoloLasso) -> &SoloLasso {
        self.lassos[start as usize].get_or_init(init)
    }
}

/// Instance coordinates `(family, requested n, tree_seed)`: with the
/// family's builder they determine the tree exactly.
type Coords = (Family, usize, u64);

static REGISTRY: LazyLock<Mutex<HashMap<Coords, Arc<InstanceMemo>>>> =
    LazyLock::new(Mutex::default);

/// The memo of the instance at `(family, n, tree_seed)`, whose tree has
/// `nodes` nodes, created empty on first use.
pub(crate) fn memo(family: Family, n: usize, tree_seed: u64, nodes: usize) -> Arc<InstanceMemo> {
    let mut registry = REGISTRY.lock().expect("memo registry lock");
    let memo = registry
        .entry((family, n, tree_seed))
        .or_insert_with(|| Arc::new(InstanceMemo::new(nodes)));
    Arc::clone(memo)
}

/// A shared read guard on a lane. A lock poisoned by a cancelled growth is
/// safe to re-enter: the cancellation checkpoints sit at round boundaries,
/// so the interrupted recording is a shorter but consistent prefix.
pub(crate) fn read(lane: &Lane) -> RwLockReadGuard<'_, VariantRecorder> {
    lane.read().unwrap_or_else(PoisonError::into_inner)
}

/// Grows one lane under its write lock alone until it is decided to `need`
/// rounds, unless another thread already did.
pub(crate) fn grow(lane: &Lane, tree: &Tree, need: u64, budget: u64) {
    let mut recorder = lane.write().unwrap_or_else(PoisonError::into_inner);
    let traj = recorder.trajectory();
    if !traj.decided_to(need) {
        let target = grow_target(traj.rounds(), need, budget);
        recorder.record_to(tree, target);
    }
}

/// Demand-driven recording growth: at least `need`, at least double the
/// current horizon (so a cell retries O(log) times, not per round), never
/// past the budget or the hard cap.
fn grow_target(current: u64, need: u64, budget: u64) -> u64 {
    need.max(current.saturating_mul(2)).max(1 << 12).min(budget).min(MAX_RECORD_ROUNDS).max(need)
}

/// One persisted entry: `(family, n, tree_seed, start, variant, bytes)`.
pub(crate) type Entry = (Family, usize, u64, NodeId, Variant, Vec<u8>);

/// Every entry `pick` yields from the registered memos, in canonical key
/// order, so equal contents give byte-identical files. The memos are
/// copied out first: serializing never holds the registry lock.
fn export(pick: impl Fn(Coords, &InstanceMemo, &mut Vec<Entry>)) -> Vec<Entry> {
    let memos: Vec<(Coords, Arc<InstanceMemo>)> = REGISTRY
        .lock()
        .expect("memo registry lock")
        .iter()
        .map(|(coords, memo)| (*coords, Arc::clone(memo)))
        .collect();
    let mut out = Vec::new();
    for (coords, memo) in &memos {
        pick(*coords, memo, &mut out);
    }
    out.sort_by(|a, b| {
        (a.0.name(), a.1, a.2, a.3, a.4.name()).cmp(&(b.0.name(), b.1, b.2, b.3, b.4.name()))
    });
    out
}

/// Snapshots every nonempty recording for persistence. A lane a writer
/// holds or waits for is skipped, so a snapshot never blocks a sweep.
pub(crate) fn export_recordings() -> Vec<Entry> {
    export(|(family, n, tree_seed), memo, out| {
        for variant in Variant::ALL {
            let Some(lanes) = memo.lanes[variant as usize].get() else { continue };
            for (start, lane) in lanes.iter().enumerate() {
                let Some(lane) = lane.get() else { continue };
                let recorder = match lane.try_read() {
                    Ok(guard) => guard,
                    Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                    Err(TryLockError::WouldBlock) => continue,
                };
                let traj = recorder.trajectory();
                if traj.rounds() > 0 {
                    out.push((family, n, tree_seed, start as NodeId, variant, traj.to_bytes()));
                }
            }
        }
    })
}

/// Snapshots every tabulated lasso for persistence.
pub(crate) fn export_lassos() -> Vec<Entry> {
    export(|(family, n, tree_seed), memo, out| {
        for (start, lasso) in memo.lassos.iter().enumerate() {
            if let Some(lasso) = lasso.get() {
                let variant = Variant::BasicWalkFsa;
                out.push((family, n, tree_seed, start as NodeId, variant, lasso.to_bytes()));
            }
        }
    })
}

/// Installs a restored recording on the instance at `(family, n,
/// tree_seed)`, whose tree `t` is. `false` (not installed) when the lane is
/// already live: a fresh recorder always outranks a restored prefix.
pub(crate) fn install_recording(
    family: Family,
    n: usize,
    tree_seed: u64,
    t: &Tree,
    start: NodeId,
    variant: Variant,
    traj: Trajectory,
) -> bool {
    let memo = memo(family, n, tree_seed, t.num_nodes());
    let Some(lane) = memo.lane_row(variant).get(start as usize) else { return false };
    lane.set(RwLock::new(VariantRecorder::Restored { variant, start, traj })).is_ok()
}

/// Installs a restored (and already re-verified, see [`crate::stores`])
/// basic-walk lasso. `false` when the start's lasso is already live.
pub(crate) fn install_lasso(
    family: Family,
    n: usize,
    tree_seed: u64,
    t: &Tree,
    start: NodeId,
    lasso: SoloLasso,
) -> bool {
    let memo = memo(family, n, tree_seed, t.num_nodes());
    memo.lassos.get(start as usize).is_some_and(|slot| slot.set(lasso).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Cell, Delay};

    fn line_cell(seed: u64) -> Cell {
        Cell {
            experiment: Arc::from("memo-test"),
            family: Family::Line,
            n: 8,
            delay: Delay::Zero,
            variant: Variant::DelayRobust,
            pair_index: 0,
            pairs_total: 1,
            base_seed: seed,
            tree_index: None,
            agents: 2,
        }
    }

    #[test]
    fn instances_at_one_coordinate_share_one_memo() {
        // Two independently built instances of one cell share the memo, so
        // a recording grown through one is the recording the other reads.
        let cell = line_cell(0x3E30);
        let first = SweepInstance::for_cell(&cell);
        let second = SweepInstance::for_cell(&cell);
        assert!(Arc::ptr_eq(&first.memo, &second.memo), "one memo per instance coordinate");
        grow(first.lane(Variant::DelayRobust, 3), &first.tree, 100, 1 << 20);
        let seen = read(second.lane(Variant::DelayRobust, 3)).trajectory().rounds();
        assert!(seen >= 100, "growth through one instance must show through the other ({seen})");
        let other = SweepInstance::for_cell(&line_cell(0x3E31));
        assert!(!Arc::ptr_eq(&first.memo, &other.memo), "another tree seed is another instance");
    }
}
